"""Certification benchmark: one workload per call, checked outputs,
end-to-end metrics or, with --trace 1, per-layer metrics.

    python3 perfbench/run.py --workload mc-certify --seed 1 --seconds 48 --trace 0

Run from the repository root; the program is imported from ./src.  Each
pass runs in a fresh process (worker.py), so set-up is paid as a CLI user
pays it.  --seconds fixes the number of jobs (jobs.job_count), sized so
that the jobs take about that long on a 2-vCPU Xeon.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every job passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblist
import stats

HERE = Path(__file__).resolve().parent
SETUP_REPS = 4  # extra set-up-only processes; the workload process adds one
RUN_DIR = ".perfbench_run"
TIME_LIMIT_S = 170  # every worker of one run must have ended by then
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _definition() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload, seed, root: Path):
        self.workload, self.seed = workload, seed
        self.dir = root / RUN_DIR / f"{workload}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # one BLAS thread: on a shared 2-vCPU host a two-thread dense solve
        # or matrix-vector power step slowed 1.6-4x in busy phases, while
        # single-threaded Python code slowed 10-20%
        self.env.update({name: "1" for name in BLAS_THREAD_VARS})
        self.count = 0
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def worker(self, *extra) -> dict:
        """Start one worker process, wait for it, return its record."""
        self.count += 1
        timeout = self.deadline - time.monotonic()
        result = self.dir / f"result-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--result", str(result), "--workdir", str(self.dir / f"work-{self.count}"),
            *extra,
        ]
        try:
            proc = subprocess.run(cmd, env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker {self.count} ran past the {TIME_LIMIT_S} s limit")
        if proc.returncode != 0 or not result.is_file():
            raise WorkerFailed(f"worker {self.count} exited {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8"))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def end_to_end(records, setups, peak_rss_mb, unit) -> tuple[dict, dict]:
    """The end-to-end metrics and the notes that qualify them.  A workload
    whose jobs yield different outputs counts work in jobs."""
    walls = [r["wall_s"] for r in records if r["wall_s"] is not None]
    pct, tail, beyond = stats.tail(walls)
    if unit == "jobs":
        units = len(walls)
    else:
        units = sum(r["units"] for r in records if r["wall_s"] is not None)
    costs = [
        r["wall_s"] * (r["se"] / joblist.TARGET_SE) ** 2
        for r in records
        if r["wall_s"] is not None and r["se"]
    ]
    metrics = {
        "setup_s": stats.median(setups),
        "job_p50_s": stats.median(walls),
        "job_tail_s": tail,
        "work_per_s": units / sum(walls),
        "cost_at_tol_s": stats.median(costs) if costs else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "jobs": len(walls),
        "tail_percentile": pct,
        "jobs_beyond_tail": beyond,
        "cost_jobs": len(costs),
        "setup_runs": [round(v, 4) for v in setups],
    }
    return metrics, notes


def _print_jobs(jobs, records):
    print("jobs:")
    by_id = {job["id"]: job for job in jobs}
    for rec in records:
        wall = "-" if rec["wall_s"] is None else "%.4f s" % rec["wall_s"]
        flag = "ok" if rec["ok"] else "FAIL " + rec["why"]
        mode = " traced" if rec.get("traced") else ""
        print(f"  {rec['id']:4d} {wall:>10} {flag:4}{mode} {joblist.describe(by_id[rec['id']])}")


def overhead(records) -> tuple[float, int]:
    """Median over jobs of traced time over untraced time, minus one,
    and the number of pairs.  Both runs of a pair are adjacent in one
    process, so machine drift between them is small; with a real
    overhead below the noise the figure can come out below zero."""
    base = {r["id"]: r["wall_s"] for r in records if not r["traced"] and r["wall_s"]}
    ratios = [
        r["wall_s"] / base[r["id"]]
        for r in records
        if r["traced"] and r["wall_s"] and r["id"] in base
    ]
    return (stats.median(ratios) - 1.0 if ratios else 0.0), len(ratios)


def _check_lines(res) -> list:
    """Run-level checks: determinism, repeated inputs, wrapper restore."""
    bad = []
    det = res.get("determinism")
    if det is not None and not det["ok"]:
        bad.append(f"determinism: job {det['job']}: {det['why']}")
    if res["repeated_share"] != 0:
        bad.append(f"repeated inputs: share {res['repeated_share']}")
    if res.get("restored") is False:
        bad.append("tracing wrappers were not all restored")
    return bad


def run(args, root: Path) -> int:
    spec = joblist.WORKLOADS[args.workload]
    definition = _definition()
    why = next(w["why"] for w in definition["workloads"] if w["name"] == args.workload)
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    runner = Runner(args.workload, args.seed, root)
    spans = root / RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        if args.trace:
            # each job runs twice, traced and untraced, so half the jobs
            count = joblist.job_count(args.workload, args.seconds / 2.0)
            res = runner.worker("--jobs", str(count), "--trace")
            os.replace(runner.dir / f"result-{runner.count}.spans.jsonl", spans)
        else:
            count = joblist.job_count(args.workload, args.seconds)
            setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_REPS)]
            res = runner.worker("--jobs", str(count))
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    jobs = joblist.make_jobs(args.workload, args.seed, count)

    records = res["records"]
    failed = sum(not r["ok"] for r in records)
    problems = _check_lines(res)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"why: {why}")
    print(
        f"environment: nproc {os.cpu_count()} python {res['python']} numpy {res['numpy']}"
    )
    _print_jobs(jobs, records)
    print(f"repeated input share: {res['repeated_share']}")
    if res["determinism"] is not None:
        det = res["determinism"]
        op = jobs[det["job"]]["op"]
        kind = "other worker count" if op == "run" else "same-seed re-run, output only"
        print(f"determinism recheck ({kind}): job {det['job']} "
              f"{'ok' if det['ok'] else 'FAIL ' + det['why']}")
    print(f"fail_frac: {failed / max(len(records), 1)} ({failed} of {len(records)} jobs)")
    for line in problems:
        print(f"check failed: {line}")

    if args.trace:
        metrics = dict(res["per_layer"])
        metrics["trace.overhead_frac"], pairs = overhead(records)
        print(f"tracing overhead over {pairs} paired jobs: {metrics['trace.overhead_frac']:+.4f}")
        print(f"spans written to {spans.relative_to(root)}")
        print("self time share of job time by layer:")
        for layer, share in res["shares"].items():
            mark = " (predicted)" if layer in spec["layers"] else ""
            print(f"  {layer:10} {share:8.4f}{mark}")
        predicted = sum(res["shares"][layer] for layer in spec["layers"])
        print(f"predicted layers hold {predicted:.4f} of job time")
    else:
        metrics, notes = end_to_end(
            records, setups + [res["setup_s"]], res["peak_rss_mb"], spec["unit"]
        )
        print(
            f"job_tail_s is p{notes['tail_percentile']:g} of {notes['jobs']} jobs, "
            f"{notes['jobs_beyond_tail']} beyond it"
        )
        print(f"work_per_s counts {spec['unit']} per second of job time")
        print(
            f"cost_at_tol_s: median of {notes['cost_jobs']} Monte Carlo jobs, "
            f"target stderr {joblist.TARGET_SE:g}"
        )
        print(f"setup_s runs: {notes['setup_runs']}")
    print("metrics:")
    for name, value in metrics.items():
        print(f"  {name:24} {value!r} {units[name]}")

    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(joblist.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through Python on SIGTERM, so that subprocess.run kills and
    # reaps a running worker and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "dirstein" / "cli.py").is_file():
        print("error: no program source at ./src/dirstein; run from the repository root",
              file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
