"""The public surface: every exported name and every function the traced
benchmark wraps must exist in the package, every benchmark job kind must
run and pass its own check, and no module or test module imports a name
it never reads."""

import ast
import importlib
from pathlib import Path

import pytest

import dirstein

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(dirstein.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


@pytest.mark.parametrize("workload", ["mc-certify", "exact-tables"])
def test_every_workload_op_runs(monkeypatch, tmp_path, workload):
    # perfbench's checks read result attributes that no traced target
    # names (PairIdentityReport.exact, LevelSums.f_hat, table.w, ...), so
    # the first job of each op and chain goes through WorkloadProcess.run
    # untraced, and the kept CLI job through the --workers recheck
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    jobs = worker.joblist.make_jobs(workload, 7, 20)
    first = {}
    for job in jobs:
        first.setdefault((job["op"], job.get("chain")), job)
    wp = worker.WorkloadProcess(tmp_path, None)
    wp.setup(next(j for j in jobs if "cfg" in j))
    records = [wp.run(job) for job in first.values()]
    assert [(r["op"], r["why"]) for r in records if not r["ok"]] == []
    assert wp.recheck() is None


def _unused_imports(path):
    """Names a module imports and never reads, by its syntax tree."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


@pytest.mark.parametrize(
    "path",
    [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    + [pytest.param(p, id=f"tests/{p.name}") for p in sorted(TESTS.glob("*.py"))],
)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
