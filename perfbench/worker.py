"""One workload process: set up, run the first --jobs jobs of the list,
check every output, and write a JSON record of what happened.

    python3 perfbench/worker.py --workload NAME --seed N --jobs J \
        --result FILE --workdir DIR [--trace] [--setup-only]

`src` must be on PYTHONPATH.  run.py starts this script once per pass and
reads the record; the script can also be run by hand to inspect one pass.
With --trace every job runs twice, once traced and once untraced, in
alternating order, and the spans go to FILE with the suffix .spans.jsonl.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import jobs as joblist  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

# laws of the mc-certify level sums; their batteries are built in set-up
STEIN_LAWS = ((1, 1), (2, 3), (1, 1, 1))
# truncation tolerance of the level sums, coarser than the library's
# default of 1e-4 so that one call stays under a second
STEIN_TOL = 1e-3
CLI_OPS = ("run", "moments", "stein-f")
# ops whose second call on the same input is served from a program cache
# (the urn law cache behind the pair identities), so a traced and an
# untraced run of one job would not cost the same
REPLAYED_OPS = ("pair",)


def _untraced(job_id, fn, *args):
    return fn(*args)


class WorkloadProcess:
    """The program modules, set-up state and job runners of one process."""

    def __init__(self, workdir: Path, tracer: Tracer | None):
        self.workdir = workdir
        self.tracer = tracer
        self.kept = None  # (job, output, dir) of the first CLI job, for recheck

    # -- set-up ------------------------------------------------------------

    def setup(self, first_cfg_job):
        import numpy
        from dirstein import cli, metrics, polya, simplex, stein

        self.np = numpy
        self.cli, self.metrics, self.polya = cli, metrics, polya
        self.simplex, self.stein = simplex, stein
        if self.tracer:
            self.tracer.install(layers.TARGETS)
            self.tracer.run_job("setup", self._warm, first_cfg_job)
        else:
            self._warm(first_cfg_job)

    def _warm(self, job):
        cfg = self.workdir / "setup.cfg"
        _write_cfg(cfg, job["cfg"])
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(["validate", "--config", str(cfg)])
        if rc != 0:
            raise RuntimeError(f"set-up config failed to validate (exit {rc})")
        self.batteries = {}
        for a in STEIN_LAWS:
            law = self.simplex.DirichletParams(a)
            self.batteries[a] = self.metrics.attach_exact_means(
                self.metrics.make_battery(len(a)), law
            )

    # -- jobs --------------------------------------------------------------

    def run(self, job, traced=False) -> dict:
        """Run one job, traced or not, and check its output.  The job's
        directory is removed afterwards unless the job is kept for the
        determinism recheck."""
        d = self.workdir / f"job-{job['id']}-{'t' if traced else 'u'}"
        d.mkdir()
        call = self.tracer.run_job if traced else _untraced
        rec = {
            "id": job["id"],
            "op": job["op"],
            "traced": traced,
            "wall_s": None,
            "units": 0,
            "se": None,
            "slope_z": None,
            "artifact_bytes": 0,
            "ok": False,
            "why": "",
        }
        try:
            prepare, call_op, check = self._ops(job["op"])
            inputs = prepare(job, d)
            t = time.perf_counter()
            out = call(job["id"], call_op, inputs)
            rec["wall_s"] = time.perf_counter() - t
            if job["op"] in CLI_OPS and self.kept is None:
                self.kept = (job, out, d)
            why = check(job, inputs, out, rec)
            rec["ok"] = not why
            rec["why"] = why or ""
        except Exception as e:  # a failing job is recorded, the run goes on
            traceback.print_exc(file=sys.stderr)
            rec["why"] = f"{type(e).__name__}: {e}"
        if self.kept is None or self.kept[2] != d:
            shutil.rmtree(d, ignore_errors=True)
        return rec

    def _ops(self, op):
        if op in CLI_OPS:
            return self._prepare_cli, self._call_cli, getattr(self, "_check_" + op.replace("-", "_"))
        return {
            "level-sums": (self._prepare_sums, self._call_sums, self._check_sums),
            "exact": (self._prepare_exact, self._call_exact, self._check_exact),
            "pair": (self._prepare_pair, self._call_pair, self._check_pair),
            "certify": (self._prepare_certify, self._call_certify, self._check_certify),
        }[op]

    # CLI jobs: one cli.main invocation, stdout captured

    def _prepare_cli(self, job, d, workers=None):
        cfg = d / "job.cfg"
        _write_cfg(cfg, job["cfg"])
        out = d / "out"
        w = job["workers"] if workers is None else workers
        return [job["op"], "--config", str(cfg), "--out", str(out), "--workers", str(w)]

    def _call_cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(argv)
        return rc, buf.getvalue()

    def _check_run(self, job, argv, out, rec):
        rc, _ = out
        if rc != 0:
            return f"exit {rc}"
        outdir = Path(argv[argv.index("--out") + 1])
        rec["artifact_bytes"] = sum(p.stat().st_size for p in outdir.iterdir())
        summary = (outdir / "summary.txt").read_text(encoding="utf-8").splitlines()
        if "passed = true" not in summary:
            return "verdict not passed"
        with open(outdir / "gaps.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if not rows or any(r["pass"] != "true" for r in rows):
            return "gap table has failing rows"
        rec["se"] = max(float(r["stderr"]) for r in rows)
        with open(outdir / "samples.csv", encoding="utf-8") as fh:
            rec["units"] = sum(1 for _ in fh) - 2
        if rec["units"] != job["cfg"]["mc.samples"]:
            return f"{rec['units']} samples written, {job['cfg']['mc.samples']} asked"
        return None

    def _check_moments(self, job, argv, out, rec):
        rc, text = out
        if rc != 0:
            return f"exit {rc}"
        lines = text.splitlines()
        if "passed = true" not in lines:
            return "identities not passed"
        rows = [ln for ln in lines if " residual = " in ln]
        if not rows:
            return "no identity rows"
        for ln in rows:
            value, mode = ln.split(" residual = ", 1)[1].split()[:2]
            if mode == "[exact]" and float(value) != 0.0:
                return f"non-zero exact residual: {ln}"
        return None

    def _check_stein_f(self, job, argv, out, rec):
        rc, text = out
        if rc != 0:
            return f"exit {rc}"
        vals = dict(ln.split(" = ", 1) for ln in text.splitlines() if " = " in ln)
        f, se, trunc = (float(vals[k]) for k in ("f", "stderr", "truncation"))
        levels = int(vals["levels"])
        cfg = job["cfg"]
        a = self.simplex.DirichletParams(tuple(cfg["model.a"]))
        c = tuple(cfg["stein.exponents"])
        total = sum(c)
        sup = math.prod((ci / total) ** ci for ci in c if ci)
        mean = float(self.simplex.dirichlet_mixed_moment(a, c + (0,)))
        sup_tilde = max(sup - mean, mean)
        s = float(a.s)
        rec["units"] = levels * max(cfg["mc.samples"] // levels, 100)
        rec["se"] = se
        if abs(f) > (s + 1.0) / s * sup_tilde + 4.0 * se + trunc:
            return f"|f| = {abs(f):.6g} breaks the sup budget"
        return None

    # stein level sums: one coupled call over a 3-point grid

    def _prepare_sums(self, job, d):
        laws = [tuple(a) for a in job["params"]]
        return (
            [self.simplex.DirichletParams(a) for a in laws],
            [self.batteries[a] for a in laws],
            [tuple(p) for p in job["points"]],
            job["replicates"],
            self.simplex.RngStream(job["seed"]),
        )

    def _call_sums(self, inputs):
        return self.stein.stein_level_sums(*inputs, tol=STEIN_TOL)

    def _check_sums(self, job, inputs, sums, rec):
        """Solution-seminorm budgets at every (law, function), as in the
        acceptance criterion; the linear monomial's exact slope -1/s gives
        a z-score that is reported, not gated."""
        params, batteries, points, R, _ = inputs
        P = len(points)
        dx = points[1][0] - points[0][0]
        rec["units"] = R * P * int(sums.levels.sum())
        worst_se = 0.0
        slope_z = 0.0
        for ai, (a, bat) in enumerate(zip(params, batteries)):
            s = float(a.s)
            for hi, h in enumerate(bat):
                fv = [sums.f_hat(p, ai, hi) for p in range(P)]
                worst_se = max(worst_se, max(v[1] for v in fv))
                sup_est = max(abs(v[0]) for v in fv)
                slack = max(4.0 * v[1] + v[2] for v in fv)
                if sup_est > (s + 1.0) / s * h.sup_tilde + slack:
                    return f"{h.tag} at a={a.a}: sup budget"
                for p, q in itertools.combinations(range(P), 2):
                    # full-coordinate L1 distance: x1 moves, the last one follows
                    dist = 2.0 * abs(points[q][0] - points[p][0])
                    est, se, tr = sums.f_diff(p, q, ai, hi)
                    if abs(est) / dist > h.h1 / s + (4.0 * se + tr) / dist:
                        return f"{h.tag} at a={a.a}: first-difference budget"
                    if h.tag[0] == "monomial" and sum(h.tag[1]) == 1 and h.tag[1][0] == 1:
                        d = points[q][0] - points[p][0]
                        est_qp = sums.f_diff(q, p, ai, hi)[0]
                        if se > 0.0:
                            slope_z = max(slope_z, abs(est_qp / d + 1.0 / s) / (se / d))
                if a.dim == 2:
                    est, se, tr = sums.f_combo({0: 1.0, 1: -2.0, 2: 1.0}, ai, hi)
                    if abs(est) / dx**2 > h.h2 / (2.0 * (s + 1.0)) + (4.0 * se + tr) / dx**2:
                        return f"{h.tag} at a={a.a}: second-difference budget"
        rec["se"] = worst_se
        rec["slope_z"] = slope_z
        return None

    # exact stationary tables

    def _prepare_exact(self, job, d):
        from dirstein.chains import ChainModel
        from dirstein.mutation import MutationMatrix
        from dirstein.offspring import OffspringModel

        pi = [Fraction(v) for v in job["pi"]]
        N = job["N"]
        offspring = None
        if job["chain"] == "moran":
            offspring = OffspringModel.moran(N)
        elif job["chain"] == "dirichlet-multinomial":
            offspring = OffspringModel.dirichlet_multinomial(N, Fraction(job["phi"]))
        return ChainModel(N=N, mutation=MutationMatrix.pim(pi), offspring=offspring), pi

    def _call_exact(self, inputs):
        return self.metrics.exact_stationary(inputs[0])

    def _check_exact(self, job, inputs, table, rec):
        """Under parent-independent mutation the drift is linear, so the
        stationary mean of W_j is pi_j / sum(pi) for every kernel."""
        np = self.np
        _, pi = inputs
        probs = table.probs
        rec["units"] = len(probs)
        if not np.all(np.isfinite(probs)) or probs.min() < 0.0:
            return "table has negative or non-finite mass"
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            return "table mass does not sum to one"
        mean = probs @ table.w
        want = np.array([float(p / sum(pi)) for p in pi[:-1]])
        err = float(np.max(np.abs(mean - want)))
        if err > 1e-8 + 1e3 * table.resolution:
            return f"stationary mean off by {err:.3g}"
        return None

    # exact redraw-pair identities

    def _prepare_pair(self, job, d):
        return tuple(Fraction(v) for v in job["a"]), job["n"]

    def _call_pair(self, inputs):
        return self.polya.verify_pair_identities(*inputs)

    def _check_pair(self, job, inputs, rep, rec):
        rec["units"] = int(rep.states)
        if not rep.exact:
            return "pair check fell back to Monte Carlo"
        if not rep.ok or rep.drift_residual != 0 or rep.second_residual != 0:
            return "non-zero exact residual"
        if rep.distinct_triple != 0:
            return "three colours moved"
        return None

    # urn certification after n draws: exact monomial gaps, sampled others

    def _prepare_certify(self, job, d):
        a = tuple(Fraction(v) for v in job["a"])
        battery = self.metrics.make_battery(len(a))
        return a, job["n"], battery, job["replicates"], self.simplex.RngStream(job["seed"])

    def _call_certify(self, inputs):
        return self.polya.certify_theorem4(*inputs)

    def _check_certify(self, job, inputs, cert, rec):
        if not cert.passed:
            return "urn gap over its bound"
        if len(cert.gaps) != len(inputs[2]):
            return f"{len(cert.gaps)} gaps for {len(inputs[2])} functions"
        rec["se"] = max(g.stderr for g in cert.gaps)
        return None

    # determinism: the CLI promises identical bytes for any worker count

    def recheck(self) -> str | None:
        """Re-run the kept CLI job with the other pool size and compare
        its output and artifact bytes with the first run's.  Jobs that
        ignore --workers and write no files (stein-f, moments) make this
        a same-seed re-run that compares printed output only."""
        job, first_out, first = self.kept
        again = self.workdir / f"recheck-{job['id']}"
        again.mkdir()
        other = 1 if job["workers"] > 1 else 2
        if self._call_cli(self._prepare_cli(job, again, workers=other)) != first_out:
            return f"workers={other} changed the exit code or output"
        a_out, b_out = first / "out", again / "out"
        if a_out.is_dir() != b_out.is_dir():
            return f"workers={other} wrote other artifacts"
        if a_out.is_dir():
            names = sorted(p.name for p in a_out.iterdir())
            if names != sorted(p.name for p in b_out.iterdir()):
                return f"workers={other} wrote other artifacts"
            for name in names:
                if (a_out / name).read_bytes() != (b_out / name).read_bytes():
                    return f"workers={other} changed {name}"
        return None


def _write_cfg(path: Path, cfg: dict):
    path.write_text(
        "".join(f"{k} = {json.dumps(v)}\n" for k, v in cfg.items()), encoding="utf-8"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = joblist.make_jobs(args.workload, args.seed, args.jobs)
    # set-up validates the workload's first CLI config, so that a set-up-only
    # process pays what the workload process pays
    first_cfg = next(j for j in joblist.make_jobs(args.workload, args.seed, 10) if "cfg" in j)
    tracer = Tracer() if args.trace else None
    wp = WorkloadProcess(workdir, tracer)
    wp.setup(first_cfg)
    result = {"setup_s": time.perf_counter() - T0}
    if tracer:
        restored = tracer.uninstall()
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    records = []
    for i, job in enumerate(jobs):
        if not tracer:
            records.append(wp.run(job))
            continue
        # the traced run goes first on four jobs out of eight; job kinds
        # repeat with period four in mc-certify and twenty in exact-tables,
        # so this gives each kind both orders and a first-run cost favours
        # neither side
        order = (True, False) if (i // 4) % 2 == 0 else (False, True)
        for traced in order:
            if not traced and job["op"] in REPLAYED_OPS:
                continue
            if traced:
                tracer.install(layers.TARGETS)
            try:
                records.append(wp.run(job, traced=traced))
            finally:
                if traced:
                    restored = tracer.uninstall() and restored

    if tracer:
        traced_recs = [r for r in records if r["traced"]]
        result["restored"] = restored
        result["per_layer"] = layers.per_layer(tracer.spans, traced_recs)
        result["shares"] = layers.self_shares(tracer.spans)
        tracer.write(Path(args.result).with_suffix(".spans.jsonl"))

    result["determinism"] = None
    if wp.kept is not None:
        job_id = wp.kept[0]["id"]
        why = wp.recheck()
        result["determinism"] = {"job": job_id, "ok": why is None, "why": why or ""}
        if why:
            rec = next(r for r in records if r["id"] == job_id)
            rec["ok"] = False
            rec["why"] = (rec["why"] + "; " if rec["why"] else "") + why

    result.update(
        records=records,
        repeated_share=joblist.repeated_share(jobs),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=wp.np.__version__,
        python=sys.version.split()[0],
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
