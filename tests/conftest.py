"""Shared fixtures."""

import pytest

from vkplate import ham


@pytest.fixture
def residual_calls(monkeypatch):
    """List that gains one entry per ``ham.residual_error`` call."""
    calls = []
    real = ham.residual_error

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ham, "residual_error", counted)
    return calls
