"""The public surface: every exported name and every function the traced
benchmark wraps must exist in the package."""

import importlib
from pathlib import Path

import dirstein

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_export_resolves():
    assert len(set(dirstein.__all__)) == len(dirstein.__all__)
    assert [n for n in dirstein.__all__ if not hasattr(dirstein, n)] == []


def test_every_traced_target_exists(monkeypatch):
    # `perfbench/run.py --trace 1` looks up each (module, attr) with
    # getattr before any job runs, so a deleted name would crash it;
    # layers.py is imported from its own directory, as its self-tests do
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    assert layers.TARGETS
    missing = [
        (t.module, t.attr)
        for t in layers.TARGETS
        if not hasattr(importlib.import_module(t.module), t.attr)
    ]
    assert missing == []
