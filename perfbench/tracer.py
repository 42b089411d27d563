"""Per-layer tracing, done from outside the package.

A traced run replaces the public functions of each ``vkplate`` module with
wrappers, in every module that holds a binding of them (``from .ham
import residual_error`` makes a second binding in each importer), and
puts the originals back afterwards.  Nothing under ``src/`` knows about it.

Two kinds of wrapper:

* a span records one (name, parent, start, end) tuple per call; it is
  used at cli, survey, solve, pass, step, residual, multiply, kernel and
  grid-evaluation calls.  Self time is a span's duration minus the
  durations of its child spans.
* a leaf only adds to a call count and a time total.  It is used for the
  hottest calls (``PolySeries`` construction and addition, double-double
  primitives, report formatting), which run up to a few hundred thousand
  times a run.  A leaf called from inside its own group (a double-double
  primitive calling another) is not counted again.

Wrappers may also add to work counters computed from their arguments
(multiply-adds, coefficients) or keep the solve reports they return.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter
_MARK = "_perfbench_wrapper"
PACKAGE = "vkplate"


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and n.split(".")[0] == PACKAGE]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = {}
        self.work = Counter()
        self.reports = []
        self._restore = []

    # -- wrappers -----------------------------------------------------

    def span(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, parent, start, _perf())
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def leaf(self, name, fn, hook=None):
        stat = self.leaves.setdefault(name, [0, 0.0, False])  # calls, seconds, active

        def wrapper(*args, **kwargs):
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = True
            stat[0] += 1
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat[1] += _perf() - start
                stat[2] = False
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installing ---------------------------------------------------

    def install(self, targets):
        """Wrap each (owner, attribute, kind, name, hook) target.

        A class attribute is replaced on the class.  A module attribute is
        replaced in every loaded module of the package bound to the same
        object.  A target the package no longer has is skipped, so its
        metrics read 0.
        """
        modules = _package_modules()
        for owner, attr, kind, name, hook in targets:
            original = vars(owner).get(attr)
            if original is None:
                continue
            wrapped = getattr(self, kind)(name, original, hook)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- results ------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return calls, total, own


def leaked_wrappers():
    """Names in the package's modules and classes still bound to a wrapper."""
    found = []
    for module in _package_modules():
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        for holder in [module] + classes:
            found += [f"{holder.__name__}.{key}" for key, value in vars(holder).items()
                      if hasattr(value, _MARK)]
    return found
