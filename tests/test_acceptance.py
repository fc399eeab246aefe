"""Full-system acceptance gate.

Each test drives one numbered end-to-end check and prints a single
"criterion N: PASS/FAIL" line with its wall time.  Exact (rational)
pipelines must land on zero to 1e-12, Monte Carlo pipelines must land
within 4 standard errors plus any certified truncation allowance, and
timed checks must finish inside their runtime budget.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from dirstein import cli
from dirstein.bounds import theorem1_bound, theorem2_bound
from dirstein.chains import (
    ChainModel,
    ChainState,
    _batch_step,
    _batch_step_cannings,
    _batch_step_wf,
    run_to_stationarity,
    step_cannings,
    step_wright_fisher,
)
from dirstein.metrics import (
    attach_exact_means,
    exact_stationary,
    kolmogorov_k2,
    make_battery,
    smooth_gap,
)
from dirstein.mutation import MutationMatrix, summarize
from dirstein.offspring import OffspringModel, moments, verify_moment_identities
from dirstein.polya import certify_theorem4, urn_mixed_moment, verify_pair_identities
from dirstein.simplex import DirichletParams, RngStream, as_generator
from dirstein.stein import (
    characterization_mc,
    characterization_residual,
    stein_level_sums,
)


def _emit(capsys, num, ok, detail, t0, budget=None):
    dt = time.time() - t0
    timed_ok = ok and (budget is None or dt < budget)
    line = "criterion %d: %s - %s (%.1fs)" % (
        num,
        "PASS" if timed_ok else "FAIL",
        detail,
        dt,
    )
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line
    if budget is not None:
        assert dt < budget, line


# stationary runs shared between the certification and convergence checks;
# seeds are a pure function of (K, N) so warm-up order cannot change results
_WF_RUNS = {}


def _wf_pim_run(K, N):
    key = (K, N)
    if key not in _WF_RUNS:
        p = MutationMatrix.pim([Fraction(1, 2 * N)] * K)
        model = ChainModel(N=N, mutation=p)
        _WF_RUNS[key] = run_to_stationarity(
            model, 100000, RngStream(7600 + 10 * K + N)
        )
    return _WF_RUNS[key]


# the four reference laws used by the exactness suites
LAWS = [
    (1, 1),
    (Fraction(1, 2), 2),
    (1, 1, 1),
    (Fraction(1, 2), Fraction(1, 2), 2),
]


def test_criterion_1(capsys):
    t0 = time.time()
    worst = 0.0
    for m in [
        OffspringModel.moran(4),
        OffspringModel.moran(6),
        OffspringModel.wright_fisher(4),
    ]:
        checks = verify_moment_identities(m)
        assert len(checks) == 10
        for c in checks:
            assert c.mode == "exact" and not c.skipped, c
            assert abs(c.residual) < 1e-12, c
            worst = max(worst, abs(c.residual))
    _emit(
        capsys,
        1,
        True,
        "ten offspring identities exact for Moran N=4,6 and WF N=4, "
        "worst residual %.1e" % worst,
        t0,
        budget=10,
    )


def test_criterion_2(capsys):
    t0 = time.time()
    rng = RngStream(201)
    worst_exact = 0.0
    worst_z = 0.0
    n_checked = 0
    for av in LAWS:
        a = DirichletParams(av)
        kf = a.dim - 1
        for c in itertools.product(range(4), repeat=kf):
            if not 1 <= sum(c) <= 3:
                continue
            r = abs(characterization_residual(a, c))
            assert r < 1e-12, (av, c, r)
            est, se = characterization_mc(a, c, rng.child(n_checked), 1_000_000)
            assert abs(est) <= 4.0 * se, (av, c, est, se)
            worst_exact = max(worst_exact, r)
            worst_z = max(worst_z, abs(est) / se)
            n_checked += 1
    assert n_checked == 24
    _emit(
        capsys,
        2,
        True,
        "operator means on 24 monomials x 4 laws: worst exact %.1e, "
        "worst MC |z| %.2f at 1e6 samples" % (worst_exact, worst_z),
        t0,
        budget=60,
    )


def test_criterion_3(capsys):
    t0 = time.time()
    a1, a2 = DirichletParams((1, 1)), DirichletParams((2, 3))
    full1 = list(attach_exact_means(make_battery(2), a1))
    full2 = list(attach_exact_means(make_battery(2), a2))
    lin_tag = ("monomial", (1,))
    lin1 = [h for h in full1 if h.tag == lin_tag]
    lin2 = [h for h in full2 if h.tag == lin_tag]
    assert len(lin1) == len(lin2) == 1

    # linear test function: coupled f differences against the exact slope,
    # truncation tolerance budget 1e-3
    grid5 = [0.1, 0.3, 0.5, 0.7, 0.9]
    ls = stein_level_sums(
        [a1, a2], [lin1, lin2], grid5, 65536, RngStream(301),
        tol=1e-3, row_chunk=128,
    )
    n_pairs = 0
    for ai, a in enumerate((a1, a2)):
        s = float(a.s)
        for p, q in itertools.combinations(range(5), 2):
            d = grid5[q] - grid5[p]
            est, se, tr = ls.f_diff(q, p, ai, 0)
            err = abs(est / d + 1.0 / s)
            assert err <= (4.0 * se + tr) / d, (a.a, p, q, err)
            n_pairs += 1
    assert n_pairs == 20

    # full battery against the solution-seminorm budgets, one shared-noise
    # pass for both laws, 1e5 replicates per level, truncation 1e-4
    grid3 = [0.25, 0.5, 0.75]
    sums = stein_level_sums(
        [a1, a2], [full1, full2], grid3, 100000, RngStream(302),
        tol=1e-4, row_chunk=128,
    )
    for ai, (a, bat) in enumerate(((a1, full1), (a2, full2))):
        s = float(a.s)
        for hi, h in enumerate(bat):
            fv = [sums.f_hat(p, ai, hi) for p in range(3)]
            sup_est = max(abs(v[0]) for v in fv)
            sup_slack = max(4.0 * v[1] + v[2] for v in fv)
            assert sup_est <= (s + 1.0) / s * h.sup_tilde + sup_slack, h.tag
            for p, q in itertools.combinations(range(3), 2):
                dist = 2.0 * (grid3[q] - grid3[p])  # full-coordinate L1
                est, se, tr = sums.f_diff(p, q, ai, hi)
                slack = (4.0 * se + tr) / dist
                assert abs(est) / dist <= h.h1 / s + slack, h.tag
            est, se, tr = sums.f_combo({0: 1.0, 1: -2.0, 2: 1.0}, ai, hi)
            d2 = grid3[1] - grid3[0]
            slack = (4.0 * se + tr) / d2**2
            assert abs(est) / d2**2 <= h.h2 / (2.0 * (s + 1.0)) + slack, h.tag
    _emit(
        capsys,
        3,
        True,
        "slope -1/s at 20 grid pairs; sup and k=1,2 budgets hold for all "
        "8 functions at a=(1,1) and a=(2,3)",
        t0,
        budget=300,
    )


def test_criterion_4(capsys):
    t0 = time.time()
    for av in LAWS:
        for n in range(1, 9):
            rep = verify_pair_identities(av, n)
            assert rep.exact and rep.ok, (av, n)
            assert rep.drift_residual == 0 and rep.second_residual == 0
            assert rep.triple_excess <= 0 and rep.distinct_triple == 0
    a = (1, 1)
    for n in (1, 100, 1000, 10000):
        cert = certify_theorem4(a, n, rng=RngStream(401 + n))
        assert cert.passed, (n, cert.gaps)
        # n + 1 states fit the default replicates: the exact law, no noise
        assert cert.law == "exact" and all(g.stderr == 0.0 for g in cert.gaps)
    ns = (100, 1000, 10000)
    gaps = [float(urn_mixed_moment(a, n, (2, 0)) - Fraction(1, 3)) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    assert abs(slope + 1.0) <= 0.2, slope
    _emit(
        capsys,
        4,
        True,
        "pair identities exactly 0 for n<=8, K=2,3; exact certification "
        "(stderr 0) passes for n=1..1e4; square-gap slope %.4f" % slope,
        t0,
        budget=120,
    )


def test_criterion_5(capsys):
    t0 = time.time()
    n_checked = 0
    worst = -math.inf
    for K in (2, 3):
        a = DirichletParams((1,) * K)
        bat = list(attach_exact_means(make_battery(K), a))
        for N in (25, 50, 100, 200):
            p = MutationMatrix.pim([Fraction(1, 2 * N)] * K)
            model = ChainModel(N=N, mutation=p)
            rep = theorem1_bound(summarize(p, a, N), a, N, K)
            assert rep.a1 == 0
            if K == 2:
                assert abs(float(rep.a2) - 8.0 / N) <= 1e-14
            src = exact_stationary(model) if N == 25 else _wf_pim_run(K, N)
            for h in bat:
                gp = smooth_gap(src, a, h, rep.smooth_bound_for(h))
                assert gp.passed, (K, N, h.tag, gp)
                worst = max(worst, gp.gap - 4.0 * gp.stderr - gp.bound)
                n_checked += 1
    assert n_checked == 120
    _emit(
        capsys,
        5,
        True,
        "120 battery gaps under the bound (K=2,3; N=25..200; exact table "
        "at N=25, 1e5 samples above); A1=0 and A2=8/N exact; worst "
        "gap-4se-bound %.2e" % worst,
        t0,
        budget=600,
    )


def test_criterion_6(capsys):
    t0 = time.time()
    a = DirichletParams((1, 1))
    bat = list(attach_exact_means(make_battery(2), a))
    moran_rep = None
    for N in (50, 100):
        rates = [Fraction(1, N * (N - 1))] * 2
        off = OffspringModel.moran(N)
        mom = moments(off)
        fitted = [2 * (N - 1) * r / mom.alpha for r in rates]
        assert fitted == [1, 1]
        model = ChainModel(N=N, mutation=MutationMatrix.pim(rates), offspring=off)
        moran_rep = theorem2_bound(mom, rates, N, 2)
        tab = exact_stationary(model)
        for h in bat:
            gp = smooth_gap(tab, a, h, moran_rep.smooth_bound_for(h))
            assert gp.stderr == 0.0
            assert gp.gap <= gp.bound, (N, h.tag, gp)
    golden = theorem2_bound(
        moments(OffspringModel.moran(4)), [Fraction(1, 12)] * 2, 4, 2
    )
    assert golden.a2 == Fraction(41, 9)
    assert moran_rep.inputs["radicand_bg"] == 0
    dm = OffspringModel.dirichlet_multinomial(6, Fraction(2))
    dm_rep = theorem2_bound(moments(dm), [Fraction(1, 24)] * 2, 6, 2)
    assert dm_rep.inputs["radicand_bg"] > 0
    _emit(
        capsys,
        6,
        True,
        "exact Moran gaps under the bound at N=50,100; A2=41/9 rational at "
        "N=4; quadratic-term radicand 0 for Moran, %.3e for DM(phi=2)"
        % float(dm_rep.inputs["radicand_bg"]),
        t0,
        budget=600,
    )


def test_criterion_7(capsys):
    t0 = time.time()
    Ns = (25, 50, 100, 200)
    a = DirichletParams((1, 1))
    dists = []
    m = 100000
    for N in Ns:
        run = _wf_pim_run(2, N)
        dists.append(kolmogorov_k2(run, a).kolmogorov)
    noise = 1.63 / math.sqrt(m)  # 99% empirical-CDF band half-width
    inversions = 0
    for i in range(len(Ns) - 1):
        if dists[i + 1] > dists[i]:
            inversions += 1
            assert dists[i + 1] - dists[i] <= 2.0 * (2.0 * noise), (Ns[i], dists)
    assert inversions <= 1, dists
    _emit(
        capsys,
        7,
        True,
        "kolmogorov distance %s over N=25..200, %d inversion(s)"
        % ("->".join("%.4f" % d for d in dists), inversions),
        t0,
        budget=600,
    )


def test_criterion_8(capsys):
    t0 = time.time()
    N, K = 30, 3
    p = MutationMatrix.pim([Fraction(1, 20), Fraction(3, 40), Fraction(1, 30)])
    P = p.array()
    model = ChainModel(N, p, OffspringModel.wright_fisher(N))

    # each public step is a one-row wrapper over its batch kernel; prove
    # that identity once, then drive the kernels for the 1e6-step runs
    st = ChainState((12, 7), N)
    one = np.array([st.counts], dtype=np.int64)
    ref = step_wright_fisher(st, p, RngStream(808))
    raw = _batch_step_wf(as_generator(RngStream(808)), one, P, N)[0]
    assert tuple(raw) == ref.counts
    ref = step_cannings(st, model.offspring, p, RngStream(809))
    raw = _batch_step(as_generator(RngStream(809)), one, model, P)[0]
    assert tuple(raw) == ref.counts

    picks = as_generator(RngStream(801))
    R = 1_000_000
    n_checked = 0
    for t in range(5):
        x1 = int(picks.integers(0, N + 1))
        x2 = int(picks.integers(0, N + 1 - x1))
        counts = np.tile(np.array([x1, x2], dtype=np.int64), (R, 1))
        ya = _batch_step_wf(as_generator(RngStream(810 + t)), counts, P, N)
        yb = _batch_step_cannings(
            as_generator(RngStream(830 + t)), counts, model.offspring, P, N
        )
        fa = ya.astype(np.float64)
        fb = yb.astype(np.float64)
        probes = [
            fa[:, 0], fa[:, 1], fa[:, 0] ** 2, fa[:, 0] * fa[:, 1], fa[:, 1] ** 2,
        ]
        probes_b = [
            fb[:, 0], fb[:, 1], fb[:, 0] ** 2, fb[:, 0] * fb[:, 1], fb[:, 1] ** 2,
        ]
        for va, vb in zip(probes, probes_b):
            sa = va.std(ddof=1) / math.sqrt(R)
            sb = vb.std(ddof=1) / math.sqrt(R)
            diff = abs(va.mean() - vb.mean())
            assert diff <= 4.0 * math.hypot(sa, sb), ((x1, x2), diff, sa, sb)
            n_checked += 1
        del counts, ya, yb, fa, fb, probes, probes_b
    assert n_checked == 25
    _emit(
        capsys,
        8,
        True,
        "general WF-kind generation matches the dedicated step on 25 "
        "conditional-moment probes (5 states x 1e6 steps)",
        t0,
        budget=120,
    )


def test_criterion_9(tmp_path, capsys):
    t0 = time.time()
    configs = {
        "wf.cfg": (
            'kind = "wf-theorem1"\nmodel.N = 40\nmodel.a = [1, 1]\n'
            "mc.samples = 4000\nmc.replicates = 256\nseed = 11\n"
        ),
        "urn.cfg": (
            'kind = "polya-theorem4"\nmodel.a = [1, 2]\nmodel.n = 500\n'
            "mc.samples = 8000\nseed = 12\n"
        ),
    }
    n_files = 0
    for name, text in configs.items():
        cfg = tmp_path / name
        cfg.write_text(text, encoding="utf-8")
        outs = []
        for w in (1, 3):
            out = tmp_path / (name + ".out%d" % w)
            rc = cli.main(
                ["run", "--config", str(cfg), "--out", str(out),
                 "--workers", str(w)]
            )
            assert rc == 0
            outs.append(out)
        names = sorted(f.name for f in outs[0].iterdir())
        assert names == sorted(f.name for f in outs[1].iterdir())
        assert names
        for nm in names:
            assert (outs[0] / nm).read_bytes() == (outs[1] / nm).read_bytes(), nm
            n_files += 1
        if name == "urn.cfg":
            assert "law = exact" in (outs[0] / "summary.txt").read_text()
    _emit(
        capsys,
        9,
        True,
        "workers 1 vs 3: %d artifact files bit-identical across two "
        "experiment kinds" % n_files,
        t0,
    )
