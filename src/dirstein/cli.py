"""Command-line front end: config parsing, experiment orchestration,
reproducible artifacts.

Configs are flat text files with dotted keys and JSON values, one
`key = value` per line.  Every experiment writes its artifacts under the
output directory stamped with the config hash and package version, and a
rerun with the same config is byte-identical.  Each chain experiment draws
its samples in one stationary run from the config seed; `--workers` and
DIRSTEIN_WORKERS are validated but change nothing.  Under parent-independent
mutation the run draws exact samples from the genealogy, which takes no
mc.burn_in, mc.thin or mc.replicates: such keys are accepted and listed as
`unused` in the validate output and in summary.txt, as every mc.* key is
for moments-verify, which samples nothing.  A genealogy that would
run away (tiny mutation rates) is refused when the config is read.
polya-theorem4 takes its gaps from the urn's exact law when the law has
no more states than mc.samples, and from mc.samples sampled end states
otherwise; summary.txt names the source (`law`), its `states` and the
exact table's `resolution`.  wf-theorem1 takes the chain's exact
stationary moments of degree <= MOMENT_DEGREE: its monomial gaps are
exact, its wave gaps are deterministic upper bounds from an interval
around E h(W) (`ExactMoments.enclose`) and its bump gap is sampled
against monomial controls (`smooth_gap`); validate prints `moments`,
`moment_error`, the largest bound on a moment's float error, and
`controls`, and summary.txt records them with `moment_z_max`, the
sample's largest moment z-score, `wave_half_width`, the largest
interval half-width, and `control_error`, the bound on the bump
controls' moment and rounding error.  A genealogy run of wf-theorem1 or
cannings-theorem2 averages every sampled gap over TYPE_REDRAWS copies of
each draw, the recorded one and copies whose blocks take fresh types
from a child of the config seed's stream (`chains.redraw_types`);
samples.csv holds the recorded draws, and validate and summary.txt print
`type_redraws`.

Exit codes: 0 all certifications pass, 1 usage or configuration error,
2 a certification failed (a finding, not a malfunction).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundError, theorem1_bound, theorem2_bound, theorem4_bound
from .chains import (
    ChainError,
    ChainModel,
    RunawayError,
    check_forward,
    check_genealogy,
    check_irreducible,
    redraw_types,
    run_to_stationarity,
    uses_genealogy,
)
from .metrics import (
    MOMENT_DEGREE,
    MetricsError,
    _monomial,
    _state_grid,
    attach_exact_means,
    exact_moments,
    gap_table_csv,
    make_battery,
    moment_z_max,
    smooth_gap,
)
from .mutation import MutationError, MutationMatrix, fit_dirichlet_params, summarize
from .offspring import (
    KIND_DIRICHLET_MULTINOMIAL,
    KIND_EXPLICIT,
    KIND_MORAN,
    KIND_WRIGHT_FISHER,
    OffspringError,
    OffspringModel,
    mohle_diagnostics,
    moments,
    verify_moment_identities,
)
from .polya import PolyaError, certify_theorem4, sample_final
from .simplex import DirichletParams, RngStream, SimplexError, SimplexPoint
from .stein import (
    DeathProcessSchedule,
    SteinError,
    attach_mean,
    characterization_mc,
    characterization_residual,
    high_replicates,
    solve_stein_f,
)

KINDS = (
    "wf-theorem1",
    "cannings-theorem2",
    "polya-theorem4",
    "stein-verify",
    "moments-verify",
)
WORKERS_ENV = "DIRSTEIN_WORKERS"
# the mc.* keys that only the forward chains read
FORWARD_KEYS = ("burn_in", "thin", "replicates")
# copies of each genealogy draw that its sampled gaps average over: the
# recorded types and TYPE_REDRAWS - 1 fresh type draws of its blocks
TYPE_REDRAWS = 8

_PKG_ERRORS = (
    SimplexError,
    OffspringError,
    MutationError,
    ChainError,
    SteinError,
    BoundError,
    MetricsError,
    PolyaError,
)


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending key."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


def _fmt(x) -> str:
    return "%.17g" % float(x)


# ---------------------------------------------------------------------------
# config parsing


def parse_config_text(text: str) -> dict:
    """Parse `key = json-value` lines; '#' comments and blanks allowed."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or not key:
            raise ConfigError(f"line {lineno}", "expected `key = value`")
        if key in data:
            raise ConfigError(key, f"line {lineno}: duplicate key")
        try:
            data[key] = json.loads(val.strip())
        except json.JSONDecodeError as e:
            raise ConfigError(key, f"line {lineno}: invalid JSON value ({e.msg})")
        if _has_non_finite(data[key]):
            raise ConfigError(key, f"line {lineno}: numbers must be finite")
    return data


def _has_non_finite(v) -> bool:
    """json.loads reads NaN, Infinity and overflowing literals as floats."""
    if isinstance(v, float):
        return not math.isfinite(v)
    if isinstance(v, list):
        return any(_has_non_finite(x) for x in v)
    if isinstance(v, dict):
        return any(_has_non_finite(x) for x in v.values())
    return False


def load_config(path, overrides: dict | None = None) -> dict:
    """Read a config file and fold in command-line overrides."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError("--config", f"no such file: {path}")
    data = parse_config_text(p.read_text(encoding="utf-8"))
    for key, val in (overrides or {}).items():
        if val is not None:
            data[key] = val
    return data


def config_hash(data: dict) -> str:
    """sha256 over the canonical key-sorted lines.

    The output directory and worker count are delivery knobs, not part of
    the experiment identity, so they stay out of the hash.
    """
    lines = [
        f"{k} = {json.dumps(v, sort_keys=True)}"
        for k, v in sorted(data.items())
        if k not in ("out", "workers")
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _get(data, key, types, required=False, default=None):
    if key not in data:
        if required:
            raise ConfigError(key, "required key is missing")
        return default
    val = data[key]
    if types is int and isinstance(val, bool):
        raise ConfigError(key, "expected an integer")
    if types is int and isinstance(val, float) and val.is_integer():
        val = int(val)
    if not isinstance(val, types if isinstance(types, tuple) else (types,)):
        raise ConfigError(key, f"expected {getattr(types, '__name__', types)}")
    return val


# by default, no integer beyond the floats' exact range: bounds and moments
# take them through float arithmetic
def _get_int(data, key, required=False, default=None, minimum=None, maximum=2**53):
    val = _get(data, key, int, required, default)
    if val is not None and minimum is not None and val < minimum:
        raise ConfigError(key, f"must be >= {minimum}")
    if val is not None and maximum is not None and val > maximum:
        raise ConfigError(key, f"must be <= {maximum}")
    return val


def _get_numbers(data, key, required=False):
    val = _get(data, key, list, required)
    return None if val is None else _numbers(key, val)


def _numbers(key, val):
    if not isinstance(val, list) or not val or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in val
    ):
        raise ConfigError(key, "expected a non-empty list of numbers")
    if sum(abs(Fraction(v)) for v in val) > sys.float_info.max:
        raise ConfigError(key, "numbers too large: their sum overflows a float")
    return [int(v) if isinstance(v, float) and v.is_integer() else v for v in val]


def _positive_params(key, values) -> DirichletParams:
    if any(v <= 0 for v in values):
        raise ConfigError(key, "entries must be positive")
    try:
        return DirichletParams(tuple(values))
    except SimplexError as e:
        raise ConfigError(key, str(e))


def _mc_budget(data) -> dict:
    mc = {
        # every stderr is taken across at least two samples
        "samples": _get_int(data, "mc.samples", default=100_000, minimum=2),
        # the gap stderr is taken across independent replicates
        "replicates": _get_int(data, "mc.replicates", default=512, minimum=2),
        "burn_in": _get_int(data, "mc.burn_in", minimum=0),
        "thin": _get_int(data, "mc.thin", minimum=1),
    }
    return mc


def _seed(data) -> int:
    # mandatory: runs must not pick up wall-clock entropy
    return _get_int(data, "seed", required=True, minimum=0, maximum=2**64 - 1)


def _check_workers(data):
    # validated only: every run samples in one thread, so no count matters
    if _get_int(data, "workers", minimum=1) is not None:
        return
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            val = int(env)
        except ValueError:
            raise ConfigError(WORKERS_ENV, f"not an integer: {env!r}")
        if val < 1:
            raise ConfigError(WORKERS_ENV, "must be >= 1")


# ---------------------------------------------------------------------------
# model building (shared by run and validate)


def _mutation_from_config(data, K=None) -> MutationMatrix:
    """Build the mutation matrix from model.pi rates or an explicit
    model.mutation row table."""
    rows = _get(data, "model.mutation", list)
    pi = _get_numbers(data, "model.pi")
    if rows is not None:
        try:
            mat = MutationMatrix(
                [[_as_exact(v, "model.mutation") for v in _numbers("model.mutation", r)] for r in rows]
            )
        except (MutationError, TypeError, ValueError) as e:
            raise ConfigError("model.mutation", str(e))
        _reject_zero_columns(mat)
        _check_battery_k("model.mutation", mat.K)
        return mat
    if pi is None:
        raise ConfigError("model.pi", "required (or give model.mutation rows)")
    if any(v <= 0 for v in pi):
        raise ConfigError("model.pi", "rates must be positive")
    if sum(pi) > 1:
        raise ConfigError("model.pi", "rates must sum to at most 1")
    if K is not None and len(pi) != K:
        raise ConfigError("model.pi", f"expected {K} rates")
    _check_battery_k("model.pi", len(pi))
    try:
        return MutationMatrix.pim([_as_exact(v, "model.pi") for v in pi])
    except MutationError as e:
        raise ConfigError("model.pi", str(e))


def _as_exact(v, key):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(key, "entries must be numbers")
    return v if isinstance(v, int) else Fraction(v)


def _reject_zero_columns(mat: MutationMatrix):
    arr = mat.array()
    for j in range(mat.K):
        if not arr[:, j].any():
            raise ConfigError(
                "model.mutation", f"column {j + 1} is all zero: type {j + 1} unreachable"
            )


def _offspring_from_config(data, N) -> OffspringModel:
    kind = _get(data, "model.offspring", str, default=KIND_MORAN)
    if kind == KIND_MORAN:
        return OffspringModel.moran(N)
    if kind == KIND_WRIGHT_FISHER:
        return OffspringModel.wright_fisher(N)
    if kind == KIND_DIRICHLET_MULTINOMIAL:
        phi = _get(data, "model.phi", (int, float), required=True)
        if phi <= 0:
            raise ConfigError("model.phi", "must be positive")
        return OffspringModel.dirichlet_multinomial(N, phi)
    if kind == KIND_EXPLICIT:
        path = _get(data, "model.table", str, required=True)
        if not Path(path).is_file():
            raise ConfigError("model.table", f"no such file: {path}")
        return OffspringModel.from_file(path)
    raise ConfigError("model.offspring", f"unknown kind: {kind!r}")


class _Experiment:
    """Everything run/validate/bound need, built once from the config."""

    def __init__(self, data: dict):
        self.data = data
        self.kind = _get(data, "kind", str, required=True)
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {', '.join(KINDS)}")
        self.seed = _seed(data)
        # moments-verify reads no mc.* key and lists the ones set as unused
        self.mc = {} if self.kind == "moments-verify" else _mc_budget(data)
        self.sha = config_hash(data)
        self.notes = []  # derived quantities for validate output
        self.run_args = {}  # forward keys passed on to run_to_stationarity
        self.moments = None  # exact stationary moments, for Wright-Fisher runs
        self.redraws = 1  # copies of each draw its gaps average over
        build = getattr(self, "_build_" + self.kind.replace("-", "_"))
        build(data)

    def _build_wf_theorem1(self, data):
        self.N = _get_int(data, "model.N", required=True, minimum=2)
        avec = _get_numbers(data, "model.a")
        key = "model.mutation" if "model.mutation" in data else "model.pi"
        if avec is not None:
            key = "model.a"
            self.a = _positive_params("model.a", avec)
            _check_battery_k("model.a", self.a.dim)
            rates = [_exact_div(v, 2 * self.N) for v in self.a.a]
            try:
                self.mutation = MutationMatrix.pim(rates)
            except MutationError as e:
                raise ConfigError("model.a", f"matched rates a_j / (2N): {e}")
            self.notes.append("mutation = matched PIM a_j / (2N)")
        else:
            self.mutation = _mutation_from_config(data)
            try:
                self.a = fit_dirichlet_params(self.mutation, self.N)
            except MutationError as e:
                raise ConfigError(key, str(e))
            self.notes.append("a fitted from mutation rates")
        self.K = self.a.dim
        if self.mutation.K != self.K:
            raise ConfigError("model.pi", f"expected {self.K} rates")
        _check_chain(self.mutation, key)
        self.model = ChainModel(N=self.N, mutation=self.mutation)
        self._plan_sampling(data, key)
        try:
            self.moments = exact_moments(self.model, MOMENT_DEGREE)
        except MetricsError as e:
            raise ConfigError(key, str(e))
        self.summary = summarize(self.mutation, self.a, self.N)
        self.report = theorem1_bound(self.summary, self.a, self.N, self.K)
        self.notes += [
            f"a = ({', '.join(_fmt(v) for v in self.a.a)})",
            f"theta = {_fmt(self.a.theta)}",
            f"tau = {_fmt(self.summary.tau)}",
            f"mu = {_fmt(self.summary.mu)}",
        ]

    def _build_cannings_theorem2(self, data):
        self.N = _get_int(data, "model.N", required=True, minimum=2)
        if self.N < 4:
            raise ConfigError("model.N", "N >= 4 required by Theorem 2")
        self.offspring = _offspring_from_config(data, self.N)
        pi = _get_numbers(data, "model.pi", required=True)
        self.mutation = _mutation_from_config(data, K=len(pi))
        _check_chain(self.mutation)
        self.K = self.mutation.K
        mom = moments(self.offspring)
        self.offspring_moments = mom
        pi_exact = [_as_exact(v, "model.pi") for v in pi]
        # the bound's a comes from model.pi, the chain from the matrix
        if "model.mutation" in data and self.mutation.pim_rates != tuple(pi_exact):
            raise ConfigError(
                "model.mutation", "must be the parent-independent matrix of model.pi"
            )
        avec = tuple(
            Fraction(2 * (self.N - 1)) * Fraction(p) / mom.alpha
            if isinstance(p, (int, Fraction)) and isinstance(mom.alpha, (int, Fraction))
            else 2 * (self.N - 1) * float(p) / float(mom.alpha)
            for p in pi_exact
        )
        self.a = _positive_params("model.pi", avec)
        self.model = ChainModel(
            N=self.N, mutation=self.mutation, offspring=self.offspring
        )
        self._plan_sampling(
            data, "model.mutation" if "model.mutation" in data else "model.pi"
        )
        self.report = theorem2_bound(mom, pi_exact, self.N, self.K)
        kingman = mohle_diagnostics(self.offspring)
        self.notes += [
            f"alpha = {_fmt(mom.alpha)}",
            f"beta = {_fmt(mom.beta)}",
            f"gamma = {_fmt(mom.gamma)}",
            f"a = ({', '.join(_fmt(v) for v in self.a.a)})",
            f"theta = {_fmt(self.a.theta)}",
            "mohle = (%s, %s, %s)" % tuple(_fmt(v) for v in kingman),
        ]

    def _plan_sampling(self, data, key):
        """Pick the stationary sampler and refuse a run that would run away;
        `key` names the mutation rates.  The genealogy reads no forward key
        and lists the ones the config sets as unused."""
        try:
            if uses_genealogy(self.model):
                check_genealogy(self.model, self.mc["samples"])
            else:
                self.run_args = {k: self.mc[k] for k in FORWARD_KEYS}
                check_forward(self.model, self.mc["samples"], **self.run_args)
                self.notes.append("sampler = forward")
                return
        except RunawayError as e:
            raise ConfigError(key if e.part == "mutation" else f"mc.{e.part}", str(e))
        self.notes.append("sampler = genealogy")
        self.redraws = TYPE_REDRAWS
        self._note_unused(data, FORWARD_KEYS)

    def _note_unused(self, data, keys):
        unused = [f"mc.{k}" for k in keys if f"mc.{k}" in data]
        if unused:
            self.notes.append(f"unused = {', '.join(unused)}")

    def _build_polya_theorem4(self, data):
        self.n = _get_int(data, "model.n", required=True, minimum=1)
        self.a = _positive_params(
            "model.a", _get_numbers(data, "model.a", required=True)
        )
        self.K = self.a.dim
        _check_battery_k("model.a", self.K)
        self.report = theorem4_bound(self.a, self.n)
        try:
            self.report.check_finite()
        except BoundError as e:
            raise ConfigError("model.a", str(e))
        self.notes += [
            f"theta = {_fmt(self.a.theta)}",
            f"s = {_fmt(self.a.s)}",
        ]

    def _build_stein_verify(self, data):
        self.a = _positive_params(
            "model.a", _get_numbers(data, "model.a", required=True)
        )
        self.K = self.a.dim
        self.degree = _get_int(data, "model.degree", default=3, minimum=1)
        self.notes.append(f"theta = {_fmt(self.a.theta)}")

    def _build_moments_verify(self, data):
        self.N = _get_int(data, "model.N", required=True, minimum=2)
        self.offspring = _offspring_from_config(data, self.N)
        kingman = mohle_diagnostics(self.offspring)
        self.notes.append("mohle = (%s, %s, %s)" % tuple(_fmt(v) for v in kingman))
        self._note_unused(data, ("samples",) + FORWARD_KEYS)


def _exact_div(v, d):
    return Fraction(v, d) if isinstance(v, int) else Fraction(v) / d


def _check_battery_k(key, K):
    # the certifying kinds hold gaps of the shipped test-function battery
    if K not in (2, 3):
        raise ConfigError(key, f"{K} types; certification needs K in {{2, 3}}")


def _check_chain(mutation: MutationMatrix, key: str = "model.pi"):
    try:
        check_irreducible(mutation)
    except ChainError as e:
        raise ConfigError(key, f"chain not irreducible: {e}")


# ---------------------------------------------------------------------------
# artifacts


def _stamp_keys(exp: _Experiment):
    return [
        f"config_sha256 = {exp.sha}",
        f"toolkit_version = {__version__}",
    ]


def _csv_stamp(exp: _Experiment) -> str:
    return f"# config_sha256={exp.sha} toolkit_version={__version__}\n"


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _samples_csv(exp: _Experiment, samples: np.ndarray) -> str:
    R, K = samples.shape
    head = ",".join(f"w{i + 1}" for i in range(K))
    # one %-format over the whole table, with _fmt's "%.17g" per value
    rows = "\n".join([",".join(["%.17g"] * K)] * R) % tuple(samples.ravel().tolist())
    return _csv_stamp(exp) + head + "\n" + rows + "\n"


def _summary_text(exp: _Experiment, passed, extra_lines) -> str:
    lines = [
        f"kind = {exp.kind}",
        f"passed = {str(bool(passed)).lower()}",
        f"seed = {exp.seed}",
    ]
    lines += extra_lines
    lines += exp.notes
    lines += _stamp_keys(exp)
    return "\n".join(lines) + "\n"


def _out_dir(data) -> Path:
    out = _get(data, "out", str, required=True)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# experiment bodies


def _control_lines(exp: _Experiment) -> list:
    """The exact moments and the monomial controls a run samples against,
    and the copies of each draw its gaps average over."""
    lines = []
    if exp.moments is not None:
        lines += [
            f"moments = exact (degree {exp.moments.degree})",
            "moment_error = " + _fmt(exp.moments.errors.max()),
            f"controls = {len(exp.moments.exponents)}",
        ]
    if exp.redraws > 1:
        lines.append(f"type_redraws = {exp.redraws}")
    return lines


def _run_certification(exp: _Experiment, out: Path) -> int:
    if exp.kind == "polya-theorem4":
        rng = RngStream(exp.seed)
        cert = certify_theorem4(
            exp.a, exp.n, replicates=exp.mc["samples"], rng=rng.child(0)
        )
        gaps = cert.gaps
        samples = sample_final(
            exp.a, exp.n, rng.child(1), min(exp.mc["samples"], 10_000)
        )
        diagnostics = cert.diagnostics()
    else:
        run = run_to_stationarity(
            exp.model, exp.mc["samples"], RngStream(exp.seed), **exp.run_args
        )
        samples = rows = run.samples
        if exp.redraws > 1:
            # child 0 of the seed's stream, which the sampler never reads
            rows = redraw_types(run, exp.redraws, RngStream(exp.seed).child(0))
        battery = attach_exact_means(make_battery(exp.K), exp.a)
        moments = None if exp.moments is None else exp.moments.projected(exp.a)
        gaps = tuple(
            smooth_gap(
                rows, exp.a, h, exp.report.smooth_bound_for(h),
                replicates=run.meta["replicates"], moments=moments,
            )
            for h in battery
        )
        # deterministic provenance; drift_z compares early and late rounds
        diagnostics = [
            f"burn_in = {run.burn_in}",
            f"thin = {run.thin}",
            f"replicates = {run.meta['replicates']}",
            f"generations = {run.meta['generations']}",
            "drift_z = (%s)" % ", ".join(_fmt(z) for z in run.drift_z),
        ]
        diagnostics += _control_lines(exp)
        if exp.moments is not None:
            diagnostics.append("moment_z_max = " + _fmt(moment_z_max(run, exp.moments)))
            diagnostics.append("wave_half_width = " + _fmt(max(g.half_width for g in gaps)))
            diagnostics.append("control_error = " + _fmt(max(g.control_error for g in gaps)))
    passed = all(g.passed for g in gaps)
    worst = max((g.gap / g.bound for g in gaps if g.bound > 0), default=0.0)
    _write(out / "samples.csv", _samples_csv(exp, samples))
    _write(
        out / "bound.txt",
        exp.report.record() + "\n" + "\n".join(_stamp_keys(exp)) + "\n",
    )
    _write(out / "gaps.csv", _csv_stamp(exp) + gap_table_csv(gaps))
    _write(
        out / "summary.txt",
        _summary_text(
            exp,
            passed,
            [
                f"functions = {len(gaps)}",
                "worst_gap_over_bound = " + _fmt(worst),
            ]
            + diagnostics,
        ),
    )
    return 0 if passed else 2


def _stein_rows(exp: _Experiment):
    rng = RngStream(exp.seed)
    rows = []
    # the exponents with 1 <= |c| <= degree, lexicographically
    for i, c in enumerate(map(tuple, _state_grid(exp.degree, exp.K)[1:].tolist())):
        exact = characterization_residual(exp.a, c)
        est, se = characterization_mc(
            exp.a, c, rng.child(i), exp.mc["samples"]
        )
        ok = exact < 1e-12 and abs(est) <= 4.0 * se
        rows.append((c, exact, est, se, ok))
    return rows


def _run_stein_verify(exp: _Experiment, out: Path) -> int:
    rows = _stein_rows(exp)
    passed = all(r[4] for r in rows)
    body = ["exponents,exact_residual,mc_mean,mc_stderr,pass"]
    for c, exact, est, se, ok in rows:
        body.append(
            '"%s",%s,%s,%s,%s'
            % (repr(c), _fmt(exact), _fmt(est), _fmt(se), str(ok).lower())
        )
    _write(out / "residuals.csv", _csv_stamp(exp) + "\n".join(body) + "\n")
    _write(
        out / "summary.txt",
        _summary_text(exp, passed, [f"monomials = {len(rows)}"]),
    )
    return 0 if passed else 2


def _run_moments_verify(exp: _Experiment, out: Path) -> int:
    rows = verify_moment_identities(exp.offspring)
    passed = all(_identity_ok(r) for r in rows)
    body = ["identity,lhs,rhs,residual,mode"]
    for r in rows:
        body.append(
            '"%s",%s,%s,%s,%s'
            % (
                r.name,
                "" if r.lhs is None else _fmt(r.lhs),
                "" if r.rhs is None else _fmt(r.rhs),
                _fmt(r.residual),
                r.mode,
            )
        )
    _write(out / "identities.csv", _csv_stamp(exp) + "\n".join(body) + "\n")
    worst = max((r.residual for r in rows if not r.skipped), default=0.0)
    _write(
        out / "summary.txt",
        _summary_text(
            exp,
            passed,
            [f"identities = {len(rows)}", "worst_residual = " + _fmt(worst)],
        ),
    )
    return 0 if passed else 2


def _identity_ok(row) -> bool:
    return row.skipped or row.residual < 1e-12


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(data: dict) -> int:
    exp = _Experiment(data)
    out = _out_dir(data)
    _check_workers(data)
    if exp.kind in KINDS[:3]:  # the certifying kinds
        return _run_certification(exp, out)
    if exp.kind == "stein-verify":
        return _run_stein_verify(exp, out)
    return _run_moments_verify(exp, out)


def cmd_validate(data: dict) -> int:
    exp = _Experiment(data)
    print(f"kind = {exp.kind}")
    print(f"seed = {exp.seed}")
    if exp.mc:
        print(f"mc.samples = {exp.mc['samples']}")
    if "replicates" in exp.run_args:
        print(f"mc.replicates = {exp.mc['replicates']}")
    for note in exp.notes:
        print(note)
    for line in _control_lines(exp):
        print(line)
    for line in _stamp_keys(exp):
        print(line)
    print("valid = true")
    return 0


def cmd_bound(data: dict) -> int:
    exp = _Experiment(data)
    if not hasattr(exp, "report"):
        raise ConfigError("kind", f"{exp.kind} has no closed-form bound")
    print(exp.report.record())
    for line in _stamp_keys(exp):
        print(line)
    return 0


def cmd_moments(data: dict) -> int:
    exp = _Experiment(data)
    if exp.kind != "moments-verify":
        raise ConfigError("kind", "moments needs kind = moments-verify")
    rows = verify_moment_identities(exp.offspring)
    for r in rows:
        flag = "skip" if r.skipped else ("ok" if _identity_ok(r) else "FAIL")
        print(f"{r.name}: residual = {_fmt(r.residual)} [{r.mode}] {flag}")
    passed = all(_identity_ok(r) for r in rows)
    print(f"passed = {str(passed).lower()}")
    return 0 if passed else 2


def cmd_stein_f(data: dict) -> int:
    exp = _Experiment(data)
    if exp.kind != "stein-verify":
        raise ConfigError("kind", "stein-f needs kind = stein-verify")
    c = _get_numbers(data, "stein.exponents", required=True)
    if len(c) != exp.K - 1 or any(v < 0 or v != int(v) for v in c):
        raise ConfigError("stein.exponents", f"need {exp.K - 1} non-negative ints")
    point = _get_numbers(data, "stein.x", required=True)
    if len(point) != exp.K - 1:
        raise ConfigError("stein.x", f"need {exp.K - 1} coordinates")
    try:
        x = SimplexPoint(tuple(point))
    except SimplexError as e:
        raise ConfigError("stein.x", str(e))
    exponents = tuple(int(v) for v in c)
    h = attach_mean(_monomial(exponents), exp.a)
    schedule = DeathProcessSchedule.for_tolerance(exp.a, h, tol=1e-4)
    rng = RngStream(exp.seed)
    per_level = max(exp.mc["samples"] // schedule.M, 100)
    est, se, trunc = solve_stein_f(exp.a, h, x, schedule, per_level, rng.child(0))
    print(f"exponents = {exponents}")
    print(f"x = ({', '.join(_fmt(v) for v in point)})")
    print(f"f = {_fmt(est)}")
    print(f"stderr = {_fmt(se)}")
    print(f"truncation = {_fmt(trunc)}")
    print(f"levels = {schedule.M}")
    # every replicate sums the levels up to stein.LEVEL_SPLIT, the second
    # count also those past it
    print(f"replicates = {per_level}, {high_replicates(per_level, schedule.M)}")
    return 0


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        raise ConfigError("usage", message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dirstein", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "validate", "moments", "bound", "stein-f"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--workers", type=int, help="accepted; has no effect")
        p.add_argument("--mc-budget", type=int, help="override mc.samples")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        data = load_config(
            args.config,
            {
                "seed": args.seed,
                "out": args.out,
                "workers": args.workers,
                "mc.samples": args.mc_budget,
            },
        )
        command = {
            "run": cmd_run,
            "validate": cmd_validate,
            "moments": cmd_moments,
            "bound": cmd_bound,
            "stein-f": cmd_stein_f,
        }[args.command]
        return command(data)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _PKG_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
