"""The README's library example runs and prints what it promises, every
command line of its CLI block exits 0, and its list of config keys that
are not spelled like their flags is the parser's."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from vkplate import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    first, second = out.getvalue().split("\n")[:2]
    err, w0_over_h = (float(v) for v in first.split())
    assert err == pytest.approx(1.66e-7, rel=5e-3)
    assert w0_over_h == pytest.approx(0.62276, abs=5e-6)
    assert float(second) == pytest.approx(132.1965, abs=5e-5)


def test_cli_examples_run(tmp_path, monkeypatch):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("vkplate ")]
    assert any("--precision extended" in line for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line


def test_config_key_exceptions_match_the_parser():
    # a config key is a flag's destination; list those not spelled as the
    # flag without its dashes, with - as _
    _, registry = cli.build_parser()
    want = {a.dest: a.option_strings[0] for sub in registry.values()
            for a in sub._actions if a.option_strings and a.dest != "help"
            and a.dest != a.option_strings[0].lstrip("-").replace("-", "_")}
    sentence = re.search(r"destination names:.*?except(.*?)\.\s",
                         README.read_text(encoding="utf-8"), re.S).group(1)
    assert dict(re.findall(r"`(\w+)` for `(--[\w-]+)`", sentence)) == want
