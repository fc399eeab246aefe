"""Which program functions the traced run wraps, and the per-layer
metrics computed from the spans they leave.

The wrapped names are the ones callers look up at call time: the
bindings `dirstein.cli` imported from the layers below it, plus the
public API functions the benchmark itself calls.  A layer's busy time
sums its outermost spans, so nested calls within a layer are not
counted twice.
"""

from __future__ import annotations

from tracing import Target, outermost, self_times


def _chains(args, kwargs, run):
    R = int(run.meta["replicates"])
    rounds = -(-run.n // R)
    drift = [z for z in run.drift_z if z == z]
    return {
        "generations": R * (run.burn_in + run.thin * rounds),
        "samples": run.n,
        "drift_z": max(drift) if drift else 0.0,
    }


def _one_gap(args, kwargs, gap):
    return {"gaps": 1}


def _table(args, kwargs, table):
    return {"states": len(table.probs)}


def _level_sums(args, kwargs, sums):
    R, P = sums.S.shape[:2]
    levels = int(sums.levels.sum())
    return {
        "evals": R * P * levels,
        "levels": levels,
        "level_cap": int(sums.levels.size) * int(sums.levels.max()),
        "bytes": int(sums.S.nbytes),
    }


def _solve_f(args, kwargs, result):
    M = int(args[3].M)
    return {"evals": int(args[4]) * M, "levels": M, "level_cap": M}


def _pair(args, kwargs, report):
    return {"states": int(report.states)}


def _t(module, attr, layer, name, count=None):
    return Target(f"dirstein.{module}", attr, layer, name, count)


TARGETS = [
    _t("cli", "main", "cli", "cli.main"),
    _t("cli", "run_to_stationarity", "chains", "chains.run_to_stationarity", _chains),
    _t("cli", "moments", "offspring", "offspring.moments"),
    _t("cli", "mohle_diagnostics", "offspring", "offspring.moments"),
    _t("cli", "verify_moment_identities", "offspring", "offspring.moments"),
    _t("cli", "summarize", "bounds", "bounds.eval"),
    _t("cli", "theorem1_bound", "bounds", "bounds.eval"),
    _t("polya", "theorem4_bound", "bounds", "bounds.eval"),
    _t("metrics", "make_battery", "metrics", "metrics.battery"),
    _t("cli", "make_battery", "metrics", "metrics.battery"),
    _t("polya", "make_battery", "metrics", "metrics.battery"),
    _t("metrics", "attach_exact_means", "metrics", "metrics.means"),
    _t("cli", "attach_exact_means", "metrics", "metrics.means"),
    _t("polya", "attach_exact_means", "metrics", "metrics.means"),
    _t("cli", "smooth_gap", "metrics", "metrics.gap", _one_gap),
    _t("polya", "smooth_gap", "metrics", "metrics.gap", _one_gap),
    _t("metrics", "exact_stationary", "metrics", "metrics.exact", _table),
    _t("stein", "stein_level_sums", "stein", "stein.level_sums", _level_sums),
    _t("cli", "solve_stein_f", "stein", "stein.solve_f", _solve_f),
    _t("cli", "attach_mean", "stein", "stein.attach_mean"),
    _t("polya", "certify_theorem4", "polya", "polya.certify"),
    _t("polya", "sample_final", "polya", "polya.sample_final"),
    _t("polya", "verify_pair_identities", "polya", "polya.pair", _pair),
]

LAYERS = ("cli", "chains", "offspring", "bounds", "metrics", "stein", "polya")


def _total(spans, key):
    return sum(s.counts.get(key, 0) for s in spans)


def _dur(spans):
    return sum(s.duration for s in spans)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, records) -> dict:
    """Per-layer metrics from a traced pass.

    records are the traced job records (artifact_bytes, slope_z).  Time and count metrics are per job; the battery and mean
    warm-up times are totals of the set-up phase."""
    n = max(len(records), 1)
    setup = [s for s in spans if s.job == "setup"]
    spans = [s for s in spans if s.job != "setup"]
    named: dict = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def by(name):
        return named.get(name, [])

    busy = {layer: outermost(spans, layer) for layer in LAYERS}
    selfs = self_times(spans)
    chains = by("chains.run_to_stationarity")
    gens = _total(chains, "generations")
    stein_calls = by("stein.level_sums") + by("stein.solve_f")

    return {
        "chains.busy_s": _dur(busy["chains"]) / n,
        "chains.generations": gens / n,
        "chains.steps_per_s": _ratio(gens, _dur(chains)),
        "chains.useful_frac": _ratio(_total(chains, "samples"), gens),
        "chains.drift_z_max": max((s.counts["drift_z"] for s in chains), default=0.0),
        "offspring.moments_s": _dur(by("offspring.moments")) / n,
        "cli.self_s": sum(selfs[s.id] for s in by("cli.main")) / n,
        "cli.artifact_bytes": sum(r["artifact_bytes"] for r in records) / n,
        "metrics.battery_s": _dur([s for s in setup if s.name == "metrics.battery"]),
        "metrics.means_s": _dur([s for s in setup if s.name == "metrics.means"]),
        "metrics.job_means_s": _dur(by("metrics.means")) / n,
        "metrics.gap_s": _dur(by("metrics.gap")) / n,
        "metrics.gaps": _total(by("metrics.gap"), "gaps") / n,
        "metrics.exact_s": _dur(by("metrics.exact")) / n,
        "metrics.exact_states": _total(by("metrics.exact"), "states") / n,
        "stein.busy_s": _dur(busy["stein"]) / n,
        "stein.level_evals": _total(stein_calls, "evals") / n,
        "stein.evals_per_s": _ratio(_total(stein_calls, "evals"), _dur(stein_calls)),
        "stein.live_frac": _ratio(
            _total(stein_calls, "levels"), _total(stein_calls, "level_cap")
        ),
        "stein.sums_bytes": max(
            (s.counts["bytes"] for s in by("stein.level_sums")), default=0
        ),
        "stein.solve_f_s": _dur(by("stein.solve_f")) / n,
        "stein.slope_z_max": max(
            (r["slope_z"] for r in records if r.get("slope_z") is not None),
            default=0.0,
        ),
        "polya.busy_s": _dur(busy["polya"]) / n,
        "polya.exact_states": _total(by("polya.pair"), "states") / n,
        "polya.sample_final_s": _dur(by("polya.sample_final")) / n,
        "bounds.eval_s": _dur(busy["bounds"]) / n,
        "trace.spans": len(spans) / n,
    }


def self_shares(spans) -> dict:
    """Each layer's self time as a share of the job root spans' total;
    'bench' is the benchmark's own job code."""
    spans = [s for s in spans if s.job != "setup"]
    selfs = self_times(spans)
    wall = _dur([s for s in spans if s.layer == "bench"]) or 1.0
    out = {layer: 0.0 for layer in ("bench",) + LAYERS}
    for s in spans:
        out[s.layer] += selfs[s.id] / wall
    return out
