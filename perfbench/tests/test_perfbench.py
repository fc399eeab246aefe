"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
from tracing import Span, Target, Tracer, outermost, self_times  # noqa: E402


# -- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        assert stats.beyond_count(n, pct) >= stats.TAIL_MIN_BEYOND


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(40, 0, -1)]
    pct, value, beyond = stats.tail(values)
    assert (pct, value, beyond) == (75.0, 30.0, 10)
    assert sum(v > value for v in values) == beyond


def test_tail_with_too_few_jobs_reports_the_maximum():
    assert stats.tail([0.3, 0.1, 0.2]) == (100.0, 0.3, 0)


# -- self time ---------------------------------------------------------------


def _span(sid, layer, start, end, parent=None):
    return Span(sid, f"{layer}.f", layer, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, "cli", 0.0, 10.0),
        _span(2, "chains", 1.0, 6.0, parent=1),
        _span(3, "offspring", 2.0, 4.0, parent=2),
        _span(4, "chains", 6.5, 9.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.5)
    assert selfs[2] == pytest.approx(5.0 - 2.0)
    assert selfs[3] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(2.5)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_outermost_skips_spans_nested_in_their_own_layer():
    spans = [
        _span(1, "polya", 0.0, 5.0),
        _span(2, "metrics", 1.0, 4.0, parent=1),
        _span(3, "polya", 2.0, 3.0, parent=2),
        _span(4, "polya", 6.0, 7.0),
    ]
    assert [s.id for s in outermost(spans, "polya")] == [1, 4]


# -- wrappers ----------------------------------------------------------------


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def _targets():
    return [
        Target("perfbench_fake_layer", "inner", "low", "low.inner",
               lambda args, kwargs, result: {"calls": 1}),
        Target("perfbench_fake_layer", "outer", "high", "high.outer"),
    ]


def test_wrappers_record_nested_spans_and_restore(fake_module):
    originals = {name: getattr(fake_module, name) for name in ("inner", "outer")}
    tracer = Tracer()
    tracer.install(_targets())
    assert all(getattr(fake_module, n) is not f for n, f in originals.items())
    assert tracer.run_job(7, fake_module.outer, 1) == 4
    assert tracer.uninstall() is True
    assert all(getattr(fake_module, n) is f for n, f in originals.items())

    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"job", "high.outer", "low.inner"}
    assert by_name["high.outer"].parent == by_name["job"].id
    assert by_name["low.inner"].parent == by_name["high.outer"].id
    assert by_name["low.inner"].counts == {"calls": 1}
    assert {s.job for s in tracer.spans} == {7}


def test_reinstalling_after_restore_wraps_the_originals_again(fake_module):
    inner = fake_module.inner
    tracer = Tracer()
    for job in range(2):
        tracer.install(_targets())
        assert tracer.run_job(job, fake_module.inner, 1) == 2
        assert tracer.uninstall() is True
        assert fake_module.inner is inner
    assert fake_module.inner(1) == 2
    assert [s.job for s in tracer.spans if s.name == "low.inner"] == [0, 1]


def test_a_raising_call_still_leaves_a_span(fake_module):
    def boom(x):
        raise ValueError(x)

    fake_module.inner = boom
    tracer = Tracer()
    tracer.install(_targets()[:1])
    with pytest.raises(ValueError):
        tracer.run_job(0, fake_module.inner, 1)
    assert tracer.uninstall() is True
    assert fake_module.inner is boom
    assert [s.name for s in tracer.spans] == ["low.inner", "job"]
    assert tracer.spans[0].counts == {}


def test_program_targets_name_known_layers():
    assert {t.layer for t in layers.TARGETS} <= set(layers.LAYERS)
    assert len({(t.module, t.attr) for t in layers.TARGETS}) == len(layers.TARGETS)


# -- job lists ---------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_seed_gives_identical_job_list(workload):
    a = jobs.make_jobs(workload, 11, count=120)
    b = jobs.make_jobs(workload, 11, count=120)
    assert a == b
    assert json.loads(json.dumps(a)) == a
    assert jobs.make_jobs(workload, 12, count=120) != a
    assert jobs.repeated_share(a) == 0.0
    assert [j["id"] for j in a] == list(range(120))
    assert all(jobs.describe(j) for j in a)
    # set-up validates the first CLI config among the first ten jobs
    assert any("cfg" in j for j in a[:10])


def test_job_seeds_and_sizes_stay_in_range():
    mc = jobs.make_jobs("mc-certify", 3, count=60)
    assert [j["op"] == "run" for j in mc] == [i % 2 == 0 for i in range(60)]
    for job in mc[::2]:
        assert 50 <= job["cfg"]["model.N"] <= 200
        assert job["workers"] == 1
    assert {j["op"] for j in mc[1::2]} == {"level-sums", "stein-f"}
    for job in jobs.make_jobs("exact-tables", 3, count=60):
        assert job["op"] != "pair" or job["n"] <= 10
        if job["op"] == "exact" and job["chain"] == "wright-fisher":
            assert 62 <= job["N"] <= 72
    weights = [a for j in jobs.make_jobs("exact-tables", 3, count=90)
               if j["op"] == "certify" for a in j["a"]]
    assert weights and any("/" in a for a in weights)


@pytest.mark.parametrize("workload, count", [("mc-certify", 82), ("exact-tables", 96)])
def test_job_count_depends_on_workload_and_seconds_only(workload, count):
    assert jobs.job_count(workload, 48) == jobs.job_count(workload, 48.0) == count
    assert stats.tail_percentile(count) == 75.0
    assert jobs.job_count(workload, 0.01) == 1
    assert len(jobs.make_jobs(workload, 5, count)) == count


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    produced = set(layers.per_layer([], [])) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    assert set(predictions["per_layer"]) == produced
