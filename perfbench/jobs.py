"""Workload definitions and seed-driven job lists.

Every job's inputs come from the workload seed alone, through one
`random.Random`, except the sizes that drive run time and memory
(population size N, draw count n, replicate count): they follow one
golden-ratio sequence for every seed, so any prefix of a job list covers
its range evenly and two seeds give job lists of one cost profile and one
peak-memory job order.  The seed changes every other input.  A run's job count is fixed by the
workload and --seconds alone, never by how fast the jobs go, so two
commits time the same jobs.  Nothing here imports the program.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the stderr that cost_at_tol_s scales every Monte Carlo job to
TARGET_SE = 1e-3

# jobs_per_s sizes a run: at --seconds 48 the jobs take 35 to 55 s on a
# 2-vCPU Xeon, and job_tail_s is the 75th percentile (fewer than 100 jobs)
WORKLOADS = {
    "mc-certify": {
        "unit": "jobs",
        "layers": ("chains", "cli", "stein"),
        "jobs_per_s": 1.7,
    },
    "exact-tables": {
        "unit": "exact states",
        "layers": ("metrics", "polya", "offspring"),
        "jobs_per_s": 2.0,
    },
}


def job_count(workload: str, seconds: float) -> int:
    """How many jobs a run of `seconds` makes; at least one."""
    return max(1, round(WORKLOADS[workload]["jobs_per_s"] * seconds))


class _Strata:
    """Even coverage of [lo, hi]: golden-ratio steps, the same for every seed."""

    def __init__(self, lo: float, hi: float):
        self.u = 0.0
        self.lo, self.hi = lo, hi

    def next(self) -> float:
        self.u = (self.u + GOLDEN) % 1.0
        return self.lo + self.u * (self.hi - self.lo)

    def next_int(self) -> int:
        return int(round(self.next()))


def _uniforms(rng, lo, hi, k, digits=3):
    return [round(rng.uniform(lo, hi), digits) for _ in range(k)]


def _ratio(rng, lo_den, hi_den) -> str:
    return str(Fraction(rng.randint(1, 3), rng.randint(lo_den, hi_den)))


def _seed(rng) -> int:
    return rng.getrandbits(62)


def _wf_certify(rng):
    strata = {2: _Strata(50, 200), 3: _Strata(50, 200)}
    i = 0
    while True:
        K = 2 + i % 2
        N = strata[K].next_int()
        yield {
            "op": "run",
            "workers": 1,
            "cfg": {
                "kind": "wf-theorem1",
                "model.N": N,
                "model.a": _uniforms(rng, 2.0, 4.0, K),
                "mc.samples": 1024,
                "mc.replicates": 128,
                "mc.burn_in": 5 * N,
                "seed": _seed(rng),
            },
        }
        i += 1


def _stein_grid(rng):
    # replicate counts spread the level-sum costs into one smooth range
    strata = {2: _Strata(384, 1536), 3: _Strata(384, 1536)}
    i = 0
    while True:
        which = (0, 1, 0, 1, 2)[i % 5]
        if which == 0:
            c, d = rng.uniform(0.4, 0.6), rng.uniform(0.15, 0.25)
            yield {
                "op": "level-sums",
                "params": [[1, 1], [2, 3]],
                "points": [[round(c + k * d, 4)] for k in (-1, 0, 1)],
                "replicates": strata[2].next_int(),
                "seed": _seed(rng),
            }
        elif which == 1:
            x0, y, d = rng.uniform(0.15, 0.25), rng.uniform(0.2, 0.3), rng.uniform(0.1, 0.15)
            yield {
                "op": "level-sums",
                "params": [[1, 1, 1]],
                "points": [[round(x0 + k * d, 4), round(y, 4)] for k in (0, 1, 2)],
                "replicates": strata[3].next_int(),
                "seed": _seed(rng),
            }
        else:
            K = 2 + (i // 5) % 2
            if K == 2:
                expo = [rng.randint(1, 3)]
                x = [round(rng.uniform(0.1, 0.9), 4)]
            else:
                expo = rng.choice([[1, 0], [0, 1], [1, 1], [2, 0], [0, 2], [2, 1], [1, 2]])
                x1 = rng.uniform(0.1, 0.6)
                x = [round(x1, 4), round(rng.uniform(0.1, 0.9 - x1), 4)]
            yield {
                "op": "stein-f",
                "workers": 1,
                "cfg": {
                    "kind": "stein-verify",
                    "model.a": _uniforms(rng, 0.5, 3.0, K),
                    "stein.exponents": expo,
                    "stein.x": x,
                    "mc.samples": 100_000,
                    "seed": _seed(rng),
                },
            }
        i += 1


def _mc_certify(rng):
    # Theorem 1 runs and Stein jobs take turns; both draw from one stream,
    # so the seed fixes the whole list
    wf, stein = _wf_certify(rng), _stein_grid(rng)
    while True:
        yield next(wf)
        yield next(stein)


def _exact_tables(rng):
    strata = {
        "wf": _Strata(62, 69),
        "wf-power": _Strata(70, 72),
        "moran": _Strata(350, 550),
        "pair": _Strata(2, 10),
        "moments": _Strata(4, 8),
        "polya": _Strata(50, 500),
    }
    # 10 of every 20 jobs are dense Wright-Fisher solves of one smooth cost
    # range, and they hold both the median and the 75th percentile: 7 jobs
    # are cheaper, 3 (power iteration, Dirichlet-multinomial) dearer.  A
    # single-threaded dense solve drifted least with machine speed of all
    # the job kinds; the Dirichlet-multinomial tables drifted most.  The 4
    # urn certifications give cost_at_tol_s its median
    pattern = (0, 5, 0, 2, 4, 0, 5, 0, 1, 0, 6, 5, 0, 2, 0, 3, 5, 0, 0, 0)
    i = 0
    while True:
        which = pattern[i % len(pattern)]
        if which in (0, 6):
            yield {
                "op": "exact",
                "chain": "wright-fisher",
                "N": strata["wf" if which == 0 else "wf-power"].next_int(),
                "pi": [_ratio(rng, 40, 120) for _ in range(3)],
            }
        elif which == 1:
            yield {
                "op": "exact",
                "chain": "moran",
                "N": strata["moran"].next_int(),
                "pi": [_ratio(rng, 40, 120) for _ in range(2)],
            }
        elif which == 2:
            yield {
                "op": "exact",
                "chain": "dirichlet-multinomial",
                "N": 8,
                "phi": _ratio(rng, 2, 9),
                "pi": [_ratio(rng, 10, 40) for _ in range(3)],
            }
        elif which == 3:
            K = 2 + (i // len(pattern)) % 2
            yield {
                "op": "pair",
                "a": [str(Fraction(rng.randint(1, 12), rng.randint(1, 5))) for _ in range(K)],
                "n": strata["pair"].next_int(),
            }
        elif which == 4:
            yield {
                "op": "moments",
                "workers": 1,
                "cfg": {
                    "kind": "moments-verify",
                    "model.N": strata["moments"].next_int(),
                    "model.offspring": "dirichlet-multinomial",
                    "model.phi": round(rng.uniform(0.2, 3.0), 4),
                    "seed": _seed(rng),
                },
            }
        else:
            # the public certify call with exact rational weights; the CLI
            # reads weights as floats, and its float path is left out (see
            # the README), so the urn moments here stay exact Fractions
            yield {
                "op": "certify",
                "a": [str(Fraction(rng.randint(250, 350), 100)) for _ in range(3)],
                "n": strata["polya"].next_int(),
                "replicates": 200_000,
                "seed": _seed(rng),
            }
        i += 1


_GENERATORS = {
    "mc-certify": _mc_certify,
    "exact-tables": _exact_tables,
}


def input_key(job: dict) -> str:
    """A job's program input without its id and random seed, so two jobs
    with equal keys would be replays of one another."""
    body = {k: v for k, v in job.items() if k not in ("id", "seed")}
    if "cfg" in body:
        body["cfg"] = {k: v for k, v in body["cfg"].items() if k != "seed"}
    body.pop("workers", None)
    return json.dumps(body, sort_keys=True)


def make_jobs(workload: str, seed: int, count: int) -> list:
    """The first `count` jobs of a workload; inputs never repeat."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    seen = set()
    jobs = []
    for job in _GENERATORS[workload](rng):
        key = input_key(job)
        if key in seen:
            continue
        seen.add(key)
        job["id"] = len(jobs)
        jobs.append(job)
        if len(jobs) == count:
            return jobs
    return jobs


def repeated_share(jobs) -> float:
    keys = [input_key(j) for j in jobs]
    return 1.0 - len(set(keys)) / len(keys) if keys else 0.0


def describe(job: dict) -> str:
    """One line naming the job's inputs."""
    op = job["op"]
    if "cfg" in job:
        cfg = job["cfg"]
        keys = [k for k in cfg if k != "kind"]
        body = " ".join(f"{k.split('.', 1)[-1]}={json.dumps(cfg[k])}" for k in keys)
        return f"{op} {cfg['kind']} workers={job['workers']} {body}"
    body = " ".join(
        f"{k}={json.dumps(v)}" for k, v in job.items() if k not in ("op", "id")
    )
    return f"{op} {body}"
