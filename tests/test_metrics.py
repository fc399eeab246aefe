"""Battery certification, distance estimators, and exact stationary tables."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

import _oracles as oracles
from dirstein.bounds import theorem1_bound
from dirstein.chains import ChainError, ChainModel, StationaryRun, run_to_stationarity
from dirstein.metrics import (
    MOMENT_DEGREE,
    GapEstimate,
    K2Distance,
    MetricsError,
    ProbeEstimate,
    StationaryTable,
    _bump,
    _monomial,
    _reg_inc_beta,
    _validate_battery,
    attach_exact_means,
    convex_probe_k3,
    exact_moments,
    exact_stationary,
    kolmogorov_k2,
    make_battery,
    moment_z_max,
    reg_inc_beta,
    smooth_gap,
)
from dirstein.mutation import MutationMatrix, summarize
from dirstein.offspring import OffspringModel, moments
from dirstein.simplex import DirichletParams, RngStream, as_generator, dirichlet_sample
from dirstein.stein import SteinError, attach_mean

F = Fraction


def pim_for(a, N):
    return MutationMatrix.pim([F(v) / (2 * N) for v in a])


# ---------------------------------------------------------------------------


class TestRegIncBeta:
    def test_uniform_cdf(self):
        for x in (0.0, 0.125, 0.5, 0.93, 1.0):
            assert reg_inc_beta(x, 1, 1) == pytest.approx(x, abs=1e-12)

    def test_symmetric_half(self):
        assert reg_inc_beta(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_power_closed_form(self):
        for b in (0.4, 1.0, 3.0, 17.5):
            for x in (0.05, 0.3, 0.77):
                assert reg_inc_beta(x, 1, b) == pytest.approx(
                    1.0 - (1.0 - x) ** b, abs=1e-12
                )

    def test_against_scipy(self):
        xs = np.linspace(0.0, 1.0, 81)
        for a in (0.1, 0.5, 2.0, 7.5, 50.0):
            for b in (0.1, 1.0, 3.0, 50.0):
                mine = _reg_inc_beta(xs, a, b)
                assert np.max(np.abs(mine - betainc(a, b, xs))) < 1e-10

    @settings(max_examples=80, deadline=None)
    @given(
        la=st.floats(math.log(0.1), math.log(50.0)),
        lb=st.floats(math.log(0.1), math.log(50.0)),
        x=st.floats(1e-6, 1.0 - 1e-6),
    )
    def test_reflection_identity(self, la, lb, x):
        a, b = math.exp(la), math.exp(lb)
        assert reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_reflection_on_log_grid(self):
        grid = np.exp(np.linspace(math.log(0.1), math.log(50.0), 9))
        xs = np.array([0.02, 0.2, 0.5, 0.8, 0.98])
        for a in grid:
            for b in grid:
                total = _reg_inc_beta(xs, a, b) + _reg_inc_beta(1.0 - xs, b, a)
                assert np.max(np.abs(total - 1.0)) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(MetricsError):
            reg_inc_beta(1.2, 1, 1)
        with pytest.raises(MetricsError):
            reg_inc_beta(-0.1, 1, 1)
        with pytest.raises(MetricsError):
            reg_inc_beta(0.5, 0, 1)
        with pytest.raises(MetricsError):
            reg_inc_beta(0.5, 1, -2)


# ---------------------------------------------------------------------------


class TestBattery:
    def test_k2_composition(self):
        b = make_battery(2)
        kinds = [h.tag[0] for h in b]
        assert kinds.count("monomial") == 3
        assert kinds.count("cos") == 2 and kinds.count("sin") == 2
        assert kinds.count("bump") == 1
        degs = sorted(sum(h.tag[1]) for h in b if h.tag[0] == "monomial")
        assert degs == [1, 2, 3]

    def test_k3_composition(self):
        b = make_battery(3)
        kinds = [h.tag[0] for h in b]
        assert kinds.count("monomial") == 9
        assert kinds.count("cos") == 6 and kinds.count("sin") == 6
        assert kinds.count("bump") == 1
        assert all(1 <= sum(h.tag[1]) <= 3 for h in b if h.tag[0] == "monomial")

    def test_unsupported_k(self):
        with pytest.raises(MetricsError):
            make_battery(4)

    def test_shipped_batteries_pass_probe(self):
        # make_battery ships closed-form constants unprobed; this is where
        # every one of them is re-derived by finite differences
        for K in (2, 3):
            _validate_battery(make_battery(K), K)

    def test_values_stay_in_certified_range(self):
        g = as_generator(RngStream(11))
        for K in (2, 3):
            z = dirichlet_sample(DirichletParams((1,) * K), g, size=20000)
            for h in make_battery(K):
                v = np.asarray(h.fn(z))
                lo, hi = h.value_range
                assert v.min() >= lo - 1e-12 and v.max() <= hi + 1e-12
                assert np.max(np.abs(v)) <= h.sup_norm + 1e-12

    def test_probing_rejects_invalid_seminorm(self):
        # halving a certified curvature makes the claim false
        h = _monomial((3,))
        with pytest.raises(MetricsError, match="exceeds"):
            _validate_battery([replace(h, h2=h.h2 / 2)], 2)

    def test_probing_rejects_loose_seminorm(self):
        h = _monomial((2,))
        with pytest.raises(MetricsError, match="loose"):
            _validate_battery([replace(h, h1=10.0 * h.h1)], 2)

    def test_probing_rejects_wrong_range(self):
        h = _monomial((1,))
        with pytest.raises(MetricsError, match="value_range"):
            _validate_battery([replace(h, value_range=(0.0, 0.5))], 2)


class TestExactMeans:
    def test_monomial_means_are_mixed_moments(self):
        from dirstein.simplex import dirichlet_mixed_moment

        a = DirichletParams((F(1, 2), 2, F(3, 2)))
        for h in attach_exact_means(make_battery(3), a):
            assert h.mean is not None and h.mean_se == 0.0
            if h.tag[0] == "monomial":
                exact = dirichlet_mixed_moment(a, tuple(h.tag[1]) + (0,))
                assert h.mean == pytest.approx(float(exact), abs=1e-13)

    def test_bump_k2_uniform_closed_form(self):
        # integral of (1-u^2)^3 over the support window
        a = DirichletParams((1, 1))
        assert attach_exact_means(make_battery(2), a)[-1].mean == pytest.approx(
            0.25 * 32.0 / 35.0, abs=1e-15
        )

    def test_bump_k2_vs_mc(self):
        a = DirichletParams((2, 3))
        h = attach_exact_means(make_battery(2), a)[-1]
        vals = h.fn(dirichlet_sample(a, as_generator(RngStream(3)), size=4 * 10**5))
        assert abs(h.mean - vals.mean()) < 4.0 * vals.std() / math.sqrt(len(vals))

    def test_bump_k3_vs_mc(self):
        for a in (DirichletParams((1, 1, 1)), DirichletParams((0.5, 2, 1.5))):
            h = attach_exact_means(make_battery(3), a)[-1]
            vals = h.fn(dirichlet_sample(a, as_generator(RngStream(4)), size=4 * 10**5))
            assert abs(h.mean - vals.mean()) < 4.0 * vals.std() / math.sqrt(len(vals))

    # laws with parameters below one put the density's singularity at a
    # window end clipped to 0 or 1, or just outside an unclipped one
    @pytest.mark.parametrize(
        "law",
        [(1, 1), (2, 3), (1.5, 4), (3, 1.25), (0.5, 0.5), (F(1, 3), 7), (10, 0.2), (1e-3, 2)],
        ids=str,
    )
    def test_bump_k2_matches_quadrature(self, law):
        a = DirichletParams(law)
        for c in (0.5, 0.2, 0.9, 0.05, 0.251, 0.749):
            h = attach_mean(_bump((c,), 0.25), a)
            ref = oracles.bump_mean_quad(a, (c,), 0.25)
            assert abs(h.mean - ref) < 1e-13, c

    # the power expansion over truncated Beta moments shares nothing with
    # the Gauss-Jacobi rule; its coefficients reach about 10^4, which
    # bounds its own rounding near 1e-12
    @pytest.mark.parametrize("law", [(1, 1), (2, 3), (0.5, 0.5), (F(1, 3), 7), (10, 0.2)], ids=str)
    def test_bump_k2_equals_per_call_reference(self, law):
        a = DirichletParams(law)
        for c in (0.5, 0.2, 0.9, 0.05):
            ref = oracles.bump_mean_k2(a, c, 0.25)
            assert abs(attach_mean(_bump((c,), 0.25), a).mean - ref) < 1e-12, c

    # centers (0.2, 0.6) and (0.7, 0.1) clip a window end to 0, where the
    # density is singular for a parameter below one
    @pytest.mark.parametrize(
        "law", [(1, 1, 1), (0.5, 2, 1.5), (2, 3, 4), (F(1, 3), 1, 5), (0.3, 0.4, 0.5)], ids=str
    )
    def test_bump_k3_matches_nested_quadrature(self, law):
        a = DirichletParams(law)
        for centers in ((1.0 / 3.0, 1.0 / 3.0), (0.2, 0.6), (0.7, 0.1)):
            h = attach_mean(_bump(centers, 0.25), a)
            ref = oracles.bump_mean_quad(a, centers, 0.25)
            assert abs(h.mean - ref) < 1e-13, centers

    # a Beta factor far narrower than its window piece: one 32-node rule
    # per piece gave 1.24 for the bump at 0.5 under Dir(1e6, 1e6) and 0
    # at 1e8; the oracle is exact rational moments of the polynomial
    @pytest.mark.parametrize(
        "shape, centers, s",
        [
            *(((1, 1), (0.5,), s) for s in (10**5, 10**6, 10**8, 10**10)),
            *(((1, 2), (0.4,), s) for s in (10**5, 10**6, 10**8, 10**10)),
            ((1, 1, 1), (1 / 3, 1 / 3), 10**6),
            ((1, 2, 1), (0.3, 0.45), 10**10),
        ],
        ids=str,
    )
    def test_narrow_bump_means(self, shape, centers, s):
        law = tuple(s * k for k in shape)
        h = attach_mean(_bump(centers, 0.25), DirichletParams(law))
        ref = oracles.bump_mean_concentrated(law, [Fraction(c) for c in centers], Fraction(1, 4))
        assert abs(h.mean - ref) < 1e-11

    # Beta factors narrower than 1e-17 are point masses: the Gauss rule
    # there overflowed (1e308) or cancelled to nan (1e300)
    @pytest.mark.parametrize(
        "law, point",
        [((1e300, 1), (1.0,)), ((1e308, 1), (1.0,)), ((5e-324, 1), (0.0,)),
         ((1e300, 1, 1), (1.0, 0.0)), ((1, 1e300, 1e300), (0.0, 0.5))],
        ids=str,
    )
    def test_extreme_weights_are_point_masses(self, law, point):
        x = np.array([point])
        for h in attach_exact_means(make_battery(len(law)), DirichletParams(law)):
            if h.tag[0] != "monomial":
                assert h.mean == pytest.approx(float(h.fn(x)[0]), abs=1e-15), h.tag

    def test_unknown_tag_rejected(self):
        h = replace(make_battery(2)[0], tag=("mystery",))
        with pytest.raises(MetricsError):
            attach_exact_means([h], DirichletParams((1, 1)))


# ---------------------------------------------------------------------------


class TestSmoothGap:
    def test_constant_h_zero_gap(self):
        a = DirichletParams((1, 1))
        h = attach_exact_means([_monomial((0,))], a)[0]
        z = dirichlet_sample(a, as_generator(RngStream(1)), size=1000)
        ge = smooth_gap(z, a, h, bound=0.0)
        assert ge.gap == 0.0 and ge.passed

    def test_symmetric_mean_matches(self):
        N = 25
        a = DirichletParams((1, 1))
        run = run_to_stationarity(ChainModel(N, pim_for((1, 1), N)), 20000, RngStream(2))
        h = attach_exact_means(make_battery(2), a)[0]
        ge = smooth_gap(run, a, h, bound=0.0)
        assert ge.gap <= 4.0 * ge.stderr

    def test_quadratic_below_bound_exact_n100(self):
        N = 100
        a = DirichletParams((1, 1))
        pim = pim_for((1, 1), N)
        rep = theorem1_bound(summarize(pim, a, N), a, N, 2)
        tab = exact_stationary(ChainModel(N, pim))
        h = attach_exact_means(make_battery(2), a)[1]
        assert h.tag == ("monomial", (2,))
        ge = smooth_gap(tab, a, h, bound=rep.smooth_bound_for(h))
        assert ge.stderr == 0.0 and ge.passed and ge.gap <= ge.bound

    def test_pass_rule_is_exact(self):
        ge = GapEstimate(("monomial", (1,)), 1.0, 0.1, 0.5, False)
        assert ge.gap - 4 * ge.stderr > ge.bound
        ge = smooth_gap(
            np.full((100, 1), 0.5),
            DirichletParams((1, 1)),
            attach_exact_means([_monomial((1,))], DirichletParams((1, 1)))[0],
            bound=0.0,
        )
        # degenerate sample at the exact mean: zero gap, zero stderr
        assert ge.gap == 0.0 and ge.stderr == 0.0 and ge.passed

    def test_stderr_over_replicates(self):
        # 8 chains frozen for 50 rounds: only the 8 chain values carry
        # information, so the stderr is theirs, not that of 400 rows
        a = DirichletParams((1, 1))
        h = attach_exact_means([_monomial((1,))], a)[0]
        chains = dirichlet_sample(a, as_generator(RngStream(3)), size=8)[:, 0]
        rows = np.tile(chains, 50)[:, None]
        ge = smooth_gap(rows, a, h, bound=0.0, replicates=8)
        assert ge.stderr == pytest.approx(chains.std(ddof=1) / np.sqrt(8), rel=1e-12)
        iid = smooth_gap(rows, a, h, bound=0.0)
        assert iid.stderr == pytest.approx(rows.std(ddof=1) / np.sqrt(400), rel=1e-12)
        # one row per chain is the independent-rows case
        assert smooth_gap(rows[:8], a, h, bound=0.0, replicates=8).stderr == (
            smooth_gap(rows[:8], a, h, bound=0.0).stderr
        )
        with pytest.raises(MetricsError, match="two replicates"):
            smooth_gap(rows, a, h, bound=0.0, replicates=1)

    def test_run_supplies_its_replicates(self, tmp_path):
        # a forward run's rows are rounds of its chains: the stderr is over
        # the chains' batch means, also when the run is saved and reloaded;
        # p12 + p21 > 1 keeps this K=2 chain on the forward kernel
        mut = MutationMatrix([[F(2, 5), F(3, 5)], [F(7, 10), F(3, 10)]])
        run = run_to_stationarity(ChainModel(12, mut), 240, RngStream(6), replicates=16)
        assert run.meta["sampler"] == "forward"
        run.save(tmp_path / "run.csv")
        back = StationaryRun.load(tmp_path / "run.csv")
        a = DirichletParams((1, 1))
        for h in attach_exact_means(make_battery(2), a):
            ge = smooth_gap(run, a, h, bound=0.1)
            assert smooth_gap(back, a, h, bound=0.1) == ge
            assert smooth_gap(run.samples, a, h, bound=0.1, replicates=16) == ge
        iid = smooth_gap(run.samples, a, h, bound=0.1)
        assert iid.stderr != ge.stderr

    def test_requires_mean(self):
        with pytest.raises(SteinError):
            smooth_gap(
                np.zeros((10, 1)),
                DirichletParams((1, 1)),
                make_battery(2)[0],
                bound=1.0,
            )

    def test_dimension_mismatch(self):
        a3 = DirichletParams((1, 1, 1))
        h = attach_exact_means(make_battery(3), a3)[0]
        with pytest.raises(MetricsError):
            smooth_gap(np.zeros((10, 1)), a3, h, bound=1.0)


# ---------------------------------------------------------------------------


class TestKolmogorov:
    def test_degenerate_sample(self):
        a = DirichletParams((1, 1))
        kd = kolmogorov_k2(np.full((500, 1), 0.5), a)
        assert kd.kolmogorov == pytest.approx(0.5, abs=1e-9)
        assert kd.interval_bound == pytest.approx(1.0, abs=1e-9)

    def test_same_law_dkw_scale(self):
        a = DirichletParams((1, 1))
        z = dirichlet_sample(a, as_generator(RngStream(42)), size=10**6)
        kd = kolmogorov_k2(z, a)
        assert kd.kolmogorov <= 1.63 / 1000.0 * 1.5

    def test_concentration_over_trials(self):
        a = DirichletParams((2, 3))
        g = as_generator(RngStream(7))
        m = 2000
        hits = 0
        for _ in range(100):
            kd = kolmogorov_k2(dirichlet_sample(a, g, size=m), a)
            hits += kd.kolmogorov < 2.0 * 1.63 / math.sqrt(m)
        assert hits >= 95

    def test_exact_table_distance_decreases_in_n(self):
        a = DirichletParams((1, 1))
        ds = []
        for N in (10, 40):
            tab = exact_stationary(ChainModel(N, pim_for((1, 1), N)))
            ds.append(kolmogorov_k2(tab, a).kolmogorov)
        assert ds[1] < ds[0]

    def test_wrong_k(self):
        with pytest.raises(MetricsError):
            kolmogorov_k2(np.zeros((10, 2)), DirichletParams((1, 1, 1)))


# ---------------------------------------------------------------------------


class TestConvexProbe:
    def test_same_law_noise_scale(self):
        a = DirichletParams((1, 1, 1))
        z = dirichlet_sample(a, as_generator(RngStream(9)), size=20000)
        pe = convex_probe_k3(z, a, 40, RngStream(10), reference_size=2 * 10**5)
        assert pe.lower_bound
        assert pe.value < 0.03

    def test_monotone_in_probe_count(self):
        a = DirichletParams((1, 1, 1))
        z = dirichlet_sample(a, as_generator(RngStream(12)), size=5000)
        few = convex_probe_k3(z, a, 5, RngStream(20), reference_size=10**5)
        many = convex_probe_k3(z, a, 50, RngStream(20), reference_size=10**5)
        assert many.value >= few.value

    def test_does_not_depend_on_earlier_calls(self):
        # the reference cloud comes from the call's own stream, so an
        # earlier call with another stream cannot change the result
        a = DirichletParams((1, 1, 1))
        z = dirichlet_sample(a, as_generator(RngStream(12)), size=5000)
        size = 10**5 + 17  # a reference size no other test uses
        first = convex_probe_k3(z, a, 20, RngStream(20), reference_size=size)
        convex_probe_k3(z, a, 20, RngStream(21), reference_size=size)
        again = convex_probe_k3(z, a, 20, RngStream(20), reference_size=size)
        assert again == first

    def test_mean_plane_detects_shift(self):
        # Dir(2,1,1) mass left of x1 = 1/3 is 7/27 against 5/9 for the
        # target, so the fixed first probe alone clears 0.25
        target = DirichletParams((1, 1, 1))
        shifted = DirichletParams((2, 1, 1))
        z = dirichlet_sample(shifted, as_generator(RngStream(14)), size=20000)
        pe = convex_probe_k3(z, target, 2, RngStream(15), reference_size=2 * 10**5)
        assert pe.value > 0.25

    def test_wrong_k_and_bad_probes(self):
        with pytest.raises(MetricsError):
            convex_probe_k3(np.zeros((5, 1)), DirichletParams((1, 1)), 3, RngStream(0))
        with pytest.raises(MetricsError):
            convex_probe_k3(
                np.zeros((5, 2)), DirichletParams((1, 1, 1)), 0, RngStream(0)
            )


# ---------------------------------------------------------------------------


def _as_table(m):
    """An explicit table holding the oracle's enumeration of m, so that
    its rows go through the enumerated group totals."""
    return OffspringModel.explicit(m.N, dict(oracles.offspring_law(m)))


def _moran_and_table():
    """Moran chains at K=2 N=7 and K=3 N=5, 8, each with the same chain
    driven by an explicit table that holds the Moran multiset."""
    cyclic = MutationMatrix(
        [
            [F(9, 10), F(3, 50), F(1, 25)],
            [F(1, 50), F(9, 10), F(2, 25)],
            [F(1, 20), F(3, 100), F(23, 25)],
        ]
    )
    out = []
    for mut, N in ((MutationMatrix.pim([F(1, 10), F(1, 20)]), 7), (cyclic, 5), (cyclic, 8)):
        multiset = (0, 2) + (1,) * (N - 2)
        out.append(
            (
                ChainModel(N, mut, OffspringModel.moran(N)),
                ChainModel(N, mut, OffspringModel.explicit(N, {multiset: 1})),
            )
        )
    return out


class TestExactStationary:
    @pytest.mark.parametrize("N, K", [(0, 3), (1, 2), (7, 2), (9, 3), (5, 4), (3, 6)])
    def test_state_grid_is_the_sorted_compositions(self, N, K):
        from itertools import product

        from dirstein.metrics import _state_grid

        plain = [x for x in product(range(N + 1), repeat=K - 1) if sum(x) <= N]
        grid = _state_grid(N, K)
        assert grid.dtype == np.int64 and grid.tolist() == [list(x) for x in plain]

    def test_single_individual_symmetric(self):
        # N = 1 falls back to the uniform start (the Dirichlet total is
        # 0/0), which is already stationary: GMRES returns it as is
        tab = exact_stationary(ChainModel(1, MutationMatrix.pim([F(1, 2), F(1, 2)])))
        assert tab.probs.tolist() == [0.5, 0.5]
        assert (tab.solver, tab.iterations, tab.resolution) == ("krylov", 0, 1e-12)

    def test_reflection_symmetry_n2(self):
        tab = exact_stationary(ChainModel(2, pim_for((1, 1), 2)))
        assert np.allclose(tab.probs, tab.probs[::-1], atol=1e-13)

    def test_quadratic_moment_n20(self):
        N = 20
        a = DirichletParams((1, 1))
        pim = pim_for((1, 1), N)
        tab = exact_stationary(ChainModel(N, pim))
        rep = theorem1_bound(summarize(pim, a, N), a, N, 2)
        h = attach_exact_means(make_battery(2), a)[1]
        ge = smooth_gap(tab, a, h, bound=rep.smooth_bound_for(h))
        assert ge.stderr == 0.0
        assert abs(tab.expect(lambda w: w[:, 0] ** 2) - 1.0 / 3.0) <= ge.bound
        assert ge.passed

    def test_wf_direct_equals_enumerated(self):
        # an explicit table holding the Wright-Fisher law goes through the
        # enumerated rows
        pim = pim_for((1, 1), 6)
        direct = exact_stationary(ChainModel(6, pim))
        enum = exact_stationary(ChainModel(6, pim, _as_table(OffspringModel.wright_fisher(6))))
        assert np.max(np.abs(direct.probs - enum.probs)) < 1e-12

    def test_moran_fast_equals_enumerated(self):
        # the Moran closed form against an explicit table holding the Moran
        # multiset, which goes through enumeration
        for model, table in _moran_and_table():
            fast = exact_stationary(model)
            enum = exact_stationary(table)
            assert np.max(np.abs(fast.probs - enum.probs)) < 1e-12

    @pytest.mark.parametrize("K, N", [(2, 6), (3, 5)])
    def test_enumerated_rows_match_multinomial_rows(self, K, N):
        from dirstein.metrics import _cannings_matrix, _state_grid

        pim = MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15)][:K])
        states = _state_grid(N, K)
        table = _as_table(OffspringModel.wright_fisher(N))
        enum = _cannings_matrix(ChainModel(N, pim, table), states)
        direct = oracles.wf_matrix(ChainModel(N, pim), states)
        assert np.max(np.abs(enum - direct)) < 1e-12

    def test_enumerated_rows_match_moran_rows(self):
        from dirstein.metrics import _cannings_matrix, _state_grid

        for model, table in _moran_and_table():
            states = _state_grid(model.N, model.K)
            fast = _cannings_matrix(model, states)
            enum = _cannings_matrix(table, states)
            assert np.max(np.abs(fast - enum)) < 1e-12

    def test_k3_table_is_proper(self):
        tab = exact_stationary(ChainModel(8, pim_for((1, 1, 1), 8)))
        assert tab.counts.shape == (45, 2)
        assert tab.probs.min() > 0.0
        assert tab.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_solve_leaves_matrix_bit_identical(self):
        from dirstein.metrics import _solve_stationary, _state_grid

        for N, K in ((30, 2), (12, 3)):
            P = oracles.wf_matrix(ChainModel(N, pim_for((1,) * K, N)), _state_grid(N, K))
            before = P.copy()
            pi, resolution = _solve_stationary(P)
            assert np.array_equal(P, before)
            assert np.max(np.abs(pi @ P - pi)) <= resolution

    def test_dense_solve_covers_large_tables(self):
        # S = 2628, near the benchmark's largest Wright-Fisher tables; they
        # take the Krylov path, and the mean still matches pi / |pi|
        pi = [F(1, 50), F(1, 70), F(1, 90)]
        tab = exact_stationary(ChainModel(71, MutationMatrix.pim(pi)))
        assert len(tab.probs) == 2628
        assert tab.resolution < 1e-8
        want = np.array([float(p / sum(pi)) for p in pi[:2]])
        assert np.max(np.abs(tab.probs @ tab.w - want)) < 1e-8

    @pytest.mark.parametrize(
        "N, pi, share",
        [
            # S = 2628: the tables hold O(S N) floats where P would hold
            # S^2 (53 MB)
            (71, [F(1, 50), F(1, 70), F(1, 90)], 4),
            # S = 4368: KR spans only the C(15, 4) = 1365 compositions y_R
            # with sum <= N, not all 12^4 = 20736 cells
            (11, [F(1, 50), F(1, 70), F(1, 90), F(1, 60), F(1, 80), F(1, 100)], 2),
        ],
        ids=["K3", "K6"],
    )
    def test_wf_table_memory(self, N, pi, share):
        # the traced peak stays below a share of P, and the mean is pi / |pi|
        model = ChainModel(N, MutationMatrix.pim(pi))
        tracemalloc.start()
        try:
            tab = exact_stationary(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        S = len(tab.probs)
        assert S == math.comb(N + len(pi) - 1, N)
        assert peak < 8 * S * S / share
        want = np.array([float(p / sum(pi)) for p in pi[:-1]])
        assert np.max(np.abs(tab.probs @ tab.w - want)) < 1e-12

    def test_wf_two_types_at_n3000(self):
        # C(3000, 1500) > 1e308: a binomial coefficient applied apart from
        # its powers would overflow and lose the stationary row
        pi = [F(1, 6000), F(3, 6000)]
        tab = exact_stationary(ChainModel(3000, MutationMatrix.pim(pi)))
        assert np.isfinite(tab.probs).all()
        assert float(tab.probs @ tab.w[:, 0]) == pytest.approx(0.25, abs=1e-12)

    def test_reducible_mutation_rejected(self):
        ident = MutationMatrix(((1, 0), (0, 1)))
        with pytest.raises(ChainError):
            exact_stationary(ChainModel(5, ident))

    def test_state_space_caps(self):
        with pytest.raises(MetricsError, match="cap"):
            exact_stationary(ChainModel(400, pim_for((1, 1, 1), 400)))
        with pytest.raises(MetricsError, match="cap"):
            exact_stationary(ChainModel(120, pim_for((1, 1, 1), 120)))

    @pytest.mark.parametrize("offspring", ["moran", "explicit", "dm"])
    def test_cannings_refuses_four_types(self, offspring):
        # the mutation convolution of Cannings rows has no K=4 form
        pi = MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15), F(1, 12)])
        law = {
            "moran": OffspringModel.moran(4),
            "explicit": _as_table(OffspringModel.moran(4)),
            "dm": OffspringModel.dirichlet_multinomial(4, 1),
        }[offspring]
        with pytest.raises(MetricsError, match="K=4"):
            exact_stationary(ChainModel(4, pi, law))

    def test_wf_four_types_mean(self):
        pi = [F(1, 10), F(1, 20), F(1, 15), F(1, 12)]
        tab = exact_stationary(ChainModel(10, MutationMatrix.pim(pi)))
        assert tab.solver == "krylov"
        want = np.array([float(p / sum(pi)) for p in pi[:3]])
        assert np.max(np.abs(tab.probs @ tab.w - want)) < 1e-12

    def test_solver_is_recorded(self):
        wf = exact_stationary(ChainModel(20, pim_for((1, 1), 20)))
        assert wf.solver == "krylov" and 0 < wf.iterations < 21
        again = exact_stationary(ChainModel(20, pim_for((1, 1), 20)))
        assert again.iterations == wf.iterations and np.array_equal(again.probs, wf.probs)
        moran = exact_stationary(ChainModel(20, pim_for((1, 1), 20), OffspringModel.moran(20)))
        assert moran.solver == "dense" and moran.iterations == 0

    def test_general_kind_needs_small_n(self):
        # only explicit tables stay gated: their group law enumerates every
        # slot arrangement; Dirichlet-multinomial rows have a closed form
        table = OffspringModel.explicit(9, {(2, 0) + (1,) * 7: F(1)})
        with pytest.raises(MetricsError, match="N <= 8"):
            exact_stationary(ChainModel(9, pim_for((1, 1, 1), 9), table))
        pi = [F(1, 20), F(1, 30), F(1, 40)]
        dm = OffspringModel.dirichlet_multinomial(10, 1)
        tab = exact_stationary(ChainModel(10, MutationMatrix.pim(pi), dm))
        want = np.array([float(p / sum(pi)) for p in pi[:2]])
        assert np.max(np.abs(tab.probs @ tab.w - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("N", [4, 8])
    @pytest.mark.parametrize("phi", [F(1, 3), F(2)], ids=["phi1/3", "phi2"])
    def test_dm_rows_match_enumeration(self, K, N, phi):
        # the closed-form group law M | x ~ DM(N; phi x) against an
        # explicit table of the oracle's enumerated Dirichlet-multinomial law
        from dirstein.metrics import _cannings_matrix, _state_grid

        pim = MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15)][:K])
        dm = OffspringModel.dirichlet_multinomial(N, phi)
        states = _state_grid(N, K)
        closed = _cannings_matrix(ChainModel(N, pim, dm), states)
        enum = _cannings_matrix(ChainModel(N, pim, _as_table(dm)), states)
        assert np.max(np.abs(closed - enum)) < 1e-14

    @pytest.mark.parametrize("N", [100, 200])
    @pytest.mark.parametrize("phi", [F(1, 3), F(2)], ids=["phi1/3", "phi2"])
    def test_dm_two_types_at_large_n(self, N, phi):
        _check_pair_identity(OffspringModel.dirichlet_multinomial(N, phi), [F(1, 40), F(3, 80)])

    @pytest.mark.parametrize(
        "law, pi",
        [
            (OffspringModel.moran(200), [F(1, 40), F(3, 80)]),
            (OffspringModel.moran(30), [F(1, 40), F(3, 80), F(1, 50)]),
            (OffspringModel.dirichlet_multinomial(30, F(1, 3)), [F(1, 40), F(3, 80), F(1, 50)]),
            (OffspringModel.dirichlet_multinomial(30, F(2)), [F(1, 40), F(3, 80), F(1, 50)]),
        ],
        ids=["moran-K2-200", "moran-K3-30", "dm-K3-30-phi1/3", "dm-K3-30-phi2"],
    )
    def test_cannings_at_large_n(self, law, pi):
        # Moran at two types, and both closed-form laws at three types
        # beyond N = 8
        _check_pair_identity(law, pi)

    @pytest.mark.parametrize(
        "law, pi",
        [
            (OffspringModel.moran(550), [F(2, 81), F(1, 118)]),
            (OffspringModel.dirichlet_multinomial(40, F(2)), [F(1, 40), F(3, 80), F(1, 50)]),
        ],
        ids=["moran-K2-550", "dm-K3-40"],
    )
    def test_cannings_table_memory(self, law, pi):
        # the build holds B, P and one row block, and the solve P plus
        # LAPACK's copy: the traced peak stays below 2.75 copies of P (an
        # unblocked G B holds three)
        model = ChainModel(law.N, MutationMatrix.pim(pi), law)
        tracemalloc.start()
        try:
            tab = exact_stationary(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        S = len(tab.probs)
        assert S == math.comb(law.N + len(pi) - 1, law.N)
        assert peak < 2.75 * 8 * S * S

    def test_dm_table_symmetric(self):
        dm = OffspringModel.dirichlet_multinomial(6, F(1, 2))
        tab = exact_stationary(ChainModel(6, pim_for((1, 1), 6), dm))
        assert np.allclose(tab.probs, tab.probs[::-1], atol=1e-12)
        assert tab.probs.sum() == pytest.approx(1.0, abs=1e-12)


def _check_pair_identity(law, pi):
    """Parent-independent rates pi with u = |pi|: the stationary mean of
    X_1/N is p1 = pi_1/u, and a sampled pair shares an ancestor before
    either lineage mutates with probability
    q = (1-u)^2 c / (1 - (1-u)^2 (1-c)), c = alpha/(N-1), so
    E[(X_1)_2]/(N)_2 = q p1 + (1-q) p1^2."""
    N = law.N
    tab = exact_stationary(ChainModel(N, MutationMatrix.pim(pi), law))
    u = sum(pi)
    p1 = pi[0] / u
    c = moments(law).alpha / (N - 1)
    q = (1 - u) ** 2 * c / (1 - (1 - u) ** 2 * (1 - c))
    x = tab.counts[:, 0].astype(float)
    mean = float(tab.probs @ x) / N
    pair = float(tab.probs @ (x * (x - 1))) / (N * (N - 1))
    assert mean == pytest.approx(float(p1), rel=1e-12, abs=0)
    assert pair == pytest.approx(float(q * p1 + (1 - q) * p1**2), rel=1e-12, abs=0)


def cyclic_for(N, K=3):
    """K types (three by default), each mutating to the next at
    (1 + 1/2)/(2N) and to the previous at (1 - 1/2)/(2N): parent-dependent
    mutation (at K=2 both rates go to the other type)."""
    up, down = F(3, 4 * N), F(1, 4 * N)
    rows = [[F(0)] * K for _ in range(K)]
    for i in range(K):
        rows[i][(i + 1) % K] += up
        rows[i][(i - 1) % K] += down
        rows[i][i] = 1 - up - down
    return MutationMatrix(rows)


def one_way_for(N, K=3):
    """K types, each mutating only to the next, at 1/(2N): every
    composition with a missing type has some q_i(x) = 0."""
    u = F(1, 2 * N)
    rows = [[F(0)] * K for _ in range(K)]
    for i in range(K):
        rows[i][(i + 1) % K] = u
        rows[i][i] = 1 - u
    return MutationMatrix(rows)


_MUTATIONS = {
    "pim": lambda K, N: pim_for((1,) * K, N),
    "cyclic": lambda K, N: cyclic_for(N, K),
    "dense": lambda K, N: _DENSE3,
    "one-way": lambda K, N: one_way_for(N, K),
}


class TestMutationKernel:
    """The Fourier mutation kernel of Cannings rows against the exact
    Fraction convolution of per-group multinomials."""

    @pytest.mark.parametrize("K, N", [(2, 1), (2, 12), (3, 2), (3, 6)])
    @pytest.mark.parametrize("mutation", ["pim", "one-way"])
    def test_matches_exact_convolution(self, K, N, mutation):
        from dirstein.metrics import _mutation_kernel, _state_grid

        if mutation == "pim":
            mut = MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15)][:K])
        elif K == 2:
            # type 1 never mutates, type 2 only to type 1
            mut = MutationMatrix([[F(1), F(0)], [F(1, 3), F(2, 3)]])
        else:
            mut = one_way_for(N)
        states = _state_grid(N, K)
        full = np.column_stack([states, N - states.sum(axis=1)])
        with warnings.catch_warnings():
            # a 0 log 0 evaluated as 0 * -inf warns, and fails the test
            warnings.simplefilter("error")
            rows = _mutation_kernel(mut, states, N)(full)
        want = np.array(oracles.mutation_rows(full, mut, states), dtype=np.float64)
        assert np.max(np.abs(rows - want)) <= 1e-15


class TestWFOperator:
    """The factorised Wright-Fisher product against the dense rows."""

    @pytest.mark.parametrize(
        "K, N, mutation",
        [(2, N, "pim") for N in (1, 2, 20, 200, 3000)]
        + [(3, N, mut) for mut in ("pim", "cyclic", "one-way") for N in (5, 25, 71)]
        + [(4, N, "pim") for N in (6, 30)]
        + [(6, 5, mut) for mut in ("pim", "one-way")]
        + [(7, 6, "pim")],
    )
    def test_matches_oracle(self, K, N, mutation):
        from dirstein.metrics import _state_grid, _wf_operator

        model = ChainModel(N, _MUTATIONS[mutation](K, N))
        states = _state_grid(N, K)
        product = _wf_operator(model, states)
        P = oracles.wf_matrix(model, states)
        # the oracle rounds log-probabilities as large as log N! before
        # its exp, so each entry carries a relative error near
        # eps log N! (3e-14 at N = 71 against a long-double build); the
        # product itself stays near 1e-13 up to N = 3000
        tol = min(max(1e-14, 4 * np.finfo(float).eps * math.lgamma(N + 1)), 1e-12)
        g = np.random.default_rng(N)
        for _ in range(3):
            v = g.standard_normal(len(states))
            want = v @ P
            assert np.max(np.abs(product(v) - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("K, N", [(2, 5), (3, 5), (4, 4), (5, 3), (6, 3)])
    @pytest.mark.parametrize("mutation", ["pim", "cyclic"])
    def test_matches_exact_product(self, K, N, mutation):
        # against the left product of the exact multinomial rows, rounded
        # once; the float oracle and the product differ by up to 3.2e-15
        # on these grids, the exact one and the product by 1.3e-15
        from dirstein.metrics import _state_grid, _wf_operator

        model = ChainModel(N, _MUTATIONS[mutation](K, N))
        states = _state_grid(N, K)
        product = _wf_operator(model, states)
        g = np.random.default_rng(K * 100 + N)
        for _ in range(2):
            v = g.standard_normal(len(states))
            want = oracles.wf_left_product_exact(model, states, v)
            assert np.max(np.abs(product(v) - want)) <= 2e-15 * np.max(np.abs(want))

    def test_blocks_skip_the_unread_cells(self):
        # the states read only cells y_l + |y_R| <= N, half of the
        # (N+1) x C table at K=3; the blocks form at most 0.8 of it, and
        # every read cell lies inside a block
        from dirstein.metrics import _kr_blocks

        N = 66
        lex, order, blocks = _kr_blocks(N, 3)
        C = len(lex)
        total = lex[order].sum(axis=1)
        assert sum(h * (c1 - c0) for h, c0, c1 in blocks) <= 0.8 * (N + 1) * C
        # the blocks tile the columns, which are ordered by their sum
        edges = [c0 for _, c0, _ in blocks] + [C]
        assert edges[0] == 0 and all(c1 == edges[i + 1] for i, (_, _, c1) in enumerate(blocks))
        assert (np.diff(total) >= 0).all()
        for h, c0, c1 in blocks:
            assert h == N + 1 - total[c0]

    def test_matches_enumerated_rows(self):
        # an explicit table holding the Wright-Fisher law: rows built by
        # enumerating offspring vectors, sharing no code with either
        from dirstein.metrics import _cannings_matrix, _state_grid, _wf_operator

        N = 6
        states = _state_grid(N, 3)
        table = _as_table(OffspringModel.wright_fisher(N))
        for mut in (one_way_for(N), MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15)])):
            enum = _cannings_matrix(ChainModel(N, mut, table), states)
            product = _wf_operator(ChainModel(N, mut), states)
            for v in np.eye(len(states))[::5]:
                assert np.max(np.abs(product(v) - v @ enum)) < 1e-14


class TestKrylovSolver:
    """The Wright-Fisher GMRES path against the dense solve on the oracle P."""

    @pytest.mark.parametrize(
        "K, N, mutation",
        [(2, N, "pim") for N in (1, 2, 20, 200)]
        + [(3, N, mut) for mut in ("pim", "cyclic", "dense") for N in (5, 25, 71)]
        + [(4, 6, "pim")],
    )
    def test_matches_dense(self, K, N, mutation):
        from dirstein.metrics import (
            _dirichlet_start,
            _krylov_stationary,
            _solve_stationary,
            _state_grid,
            _wf_operator,
        )

        model = ChainModel(N, _MUTATIONS[mutation](K, N))
        states = _state_grid(N, K)
        P = oracles.wf_matrix(model, states)
        x0 = _dirichlet_start(model, states)
        pi, resolution, iterations = _krylov_stationary(_wf_operator(model, states), x0)
        dense, dense_resolution = _solve_stationary(P)
        assert np.max(np.abs(pi - dense)) <= 1e-14
        assert resolution <= dense_resolution
        assert np.max(np.abs(pi @ P - pi)) <= resolution
        assert pi.sum() == pytest.approx(1.0, abs=1e-14)
        assert 0 <= iterations < len(P)

    def test_lost_row_is_refused(self):
        # a resolution of inf would pass every gap as roundoff
        from dirstein.metrics import _krylov_stationary

        with pytest.raises(MetricsError, match="no stationary row"):
            _krylov_stationary(lambda v: np.full(3, np.nan), np.full(3, 1.0 / 3.0))

    def test_start_matches_exact_moments(self):
        # the Dirichlet-multinomial start has the exact stationary mean and
        # total variance, at the benchmark's rates
        from dirstein.metrics import _dirichlet_start, _state_grid

        N = 66
        model = ChainModel(N, MutationMatrix.pim([F(1, 50), F(1, 70), F(1, 90)]))
        states = _state_grid(N, 3)
        x0 = _dirichlet_start(model, states)
        mom = exact_moments(model, 2)
        w = np.column_stack([states, N - states.sum(axis=1)]) / N
        mean = np.append([mom.moment(c) for c in ((1, 0), (0, 1))], 0.0)
        mean[-1] = 1.0 - mean.sum()
        square = [mom.moment(c) for c in ((2, 0), (0, 2))]
        # E W_3^2 = E (1 - W_1 - W_2)^2
        square.append(1.0 - 2.0 * (mean[0] + mean[1]) + sum(square) + 2.0 * mom.moment((1, 1)))
        assert x0.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(x0 @ w - mean)) <= 1e-12
        total = float(np.sum(x0 @ w**2 - (x0 @ w) ** 2))
        assert total == pytest.approx(sum(square) - mean @ mean, abs=1e-12)

    @pytest.mark.parametrize(
        "case",
        [
            # N = 1: the total is 0/0
            (1, MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 30)])),
            # identical rows: the law is the multinomial itself
            (9, MutationMatrix.pim([F(1, 2), F(1, 3), F(1, 6)])),
            (8, MutationMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])),
            # p12 + p21 > 1: the mutation eigenvalue is negative, but its
            # square still puts the variance above the binomial's, so the
            # start is a Dirichlet-multinomial
            (12, MutationMatrix([[F(3, 10), F(7, 10)], [F(3, 5), F(2, 5)]])),
        ],
        ids=["n1", "identical-k3", "identical-k2", "anti"],
    )
    def test_fallback_starts_match_dense(self, case):
        from dirstein.metrics import _dirichlet_start, _solve_stationary, _state_grid

        N, mut = case
        model = ChainModel(N, mut)
        states = _state_grid(N, mut.K)
        x0 = _dirichlet_start(model, states)
        assert np.isfinite(x0).all() and x0.sum() == pytest.approx(1.0, abs=1e-15)
        uniform = np.array_equal(x0, np.full(len(states), 1.0 / len(states)))
        assert uniform == (N != 12)
        dense, _ = _solve_stationary(oracles.wf_matrix(model, states))
        assert np.max(np.abs(exact_stationary(model).probs - dense)) <= 1e-14

    @pytest.mark.parametrize(
        "K, N, pi",
        [
            (3, 66, [F(1, 50), F(1, 70), F(1, 90)]),
            (2, 200, [F(1, 400), F(1, 400)]),
        ],
    )
    def test_warm_start_saves_steps(self, K, N, pi):
        from dirstein.metrics import _dirichlet_start, _krylov_stationary, _state_grid, _wf_operator

        model = ChainModel(N, MutationMatrix.pim(pi))
        states = _state_grid(N, K)
        product = _wf_operator(model, states)
        warm = _krylov_stationary(product, _dirichlet_start(model, states))
        cold = _krylov_stationary(product, np.full(len(states), 1.0 / len(states)))
        assert warm[2] < cold[2]
        assert np.max(np.abs(warm[0] - cold[0])) <= 1e-15


# ---------------------------------------------------------------------------
# full-battery certification on exact tables, the tiny-configuration sweep


class TestTableCertification:
    @pytest.mark.parametrize("K,N", [(2, 25), (3, 12)])
    def test_every_battery_gap_within_bound(self, K, N):
        a = DirichletParams((1,) * K)
        pim = pim_for((1,) * K, N)
        rep = theorem1_bound(summarize(pim, a, N), a, N, K)
        tab = exact_stationary(ChainModel(N, pim))
        for h in attach_exact_means(make_battery(K), a):
            ge = smooth_gap(tab, a, h, bound=rep.smooth_bound_for(h))
            assert ge.stderr == 0.0
            assert ge.gap <= ge.bound, (h.tag, ge)

    def test_matched_linear_gap_is_exactly_zero(self):
        # matched rates make the stationary mean exactly a/s; the bound
        # for a linear h is exactly zero and must still be met
        N = 20
        a = DirichletParams((1, 1))
        pim = pim_for((1, 1), N)
        rep = theorem1_bound(summarize(pim, a, N), a, N, 2)
        tab = exact_stationary(ChainModel(N, pim))
        h = attach_exact_means(make_battery(2), a)[0]
        ge = smooth_gap(tab, a, h, bound=rep.smooth_bound_for(h))
        assert ge.bound == 0.0 and ge.gap == 0.0 and ge.passed


# ---------------------------------------------------------------------------
# exact stationary moments of Wright-Fisher chains, and the gaps that use them


_DENSE3 = MutationMatrix(
    [[F(7, 10), F(2, 10), F(1, 10)], [F(1, 20), F(17, 20), F(1, 10)], [F(3, 10), F(1, 10), F(6, 10)]]
)
_MOMENT_MODELS = {
    "pim-k2": lambda N: pim_for((1.5, 2.5), N),
    "pim-k3": lambda N: pim_for((2, 3, 1.5), N),
    "cyclic-k3": cyclic_for,
    "dense-k3": lambda N: _DENSE3,
}


class TestExactMoments:
    @pytest.mark.parametrize("name", sorted(_MOMENT_MODELS))
    @pytest.mark.parametrize("N", [12, 60])
    def test_matches_exact_tables(self, name, N):
        model = ChainModel(N, _MOMENT_MODELS[name](N))
        mom = exact_moments(model, MOMENT_DEGREE)
        tab = exact_stationary(model)
        assert mom.degree == MOMENT_DEGREE
        assert mom.exponents.sum(axis=1).min() == 1
        assert mom.exponents.sum(axis=1).max() == MOMENT_DEGREE
        for c, v in zip(mom.exponents.tolist(), mom.values):
            assert abs(v - tab.expect(_monomial(c).fn)) <= tab.resolution + 1e-13, (c, v)

    @pytest.mark.parametrize("name", sorted(_MOMENT_MODELS))
    @pytest.mark.parametrize("N", [3, 30])
    def test_matches_fraction_oracle(self, name, N):
        mut = _MOMENT_MODELS[name](N)
        mom = exact_moments(ChainModel(N, mut), 4)
        want = oracles.wf_stationary_moments(mut, N, 4)
        assert sorted(want) == sorted(map(tuple, mom.exponents.tolist()))
        for c, v in zip(mom.exponents.tolist(), mom.values):
            assert abs(v - float(want[tuple(c)])) <= 1e-13, (c, v)
            assert mom.moment(c) == v
        assert mom.resolution >= 1e-13

    def test_pim_means_are_the_rate_shares(self):
        # parent-independent rates pi force the stationary mean pi / |pi|
        mom = exact_moments(ChainModel(200, pim_for((3, 2, 4), 200)), MOMENT_DEGREE)
        assert abs(mom.moment((1, 0)) - 3 / 9) <= mom.resolution
        assert abs(mom.moment((0, 1)) - 2 / 9) <= mom.resolution

    def test_one_call_is_quick(self):
        import time

        model = ChainModel(200, pim_for((3, 2, 4), 200))
        times = []
        for _ in range(7):
            start = time.perf_counter()
            exact_moments(model, MOMENT_DEGREE)
            times.append(time.perf_counter() - start)
        assert sorted(times)[3] <= 2e-3, times

    def test_refusals(self):
        with pytest.raises(MetricsError, match="Wright-Fisher"):
            exact_moments(ChainModel(8, pim_for((1, 1), 8), OffspringModel.moran(8)), 3)
        with pytest.raises(MetricsError, match="degree"):
            exact_moments(ChainModel(8, pim_for((1, 1), 8)), 0)
        with pytest.raises(MetricsError, match="exponents"):
            exact_moments(ChainModel(8, pim_for((1, 1), 8)), 3).moment((4,))


class TestSamplersAgainstMoments:
    """Every moment of degree <= 3 of a run within 4 sigma of the exact
    moments, at N beyond the exact tables' reach.  Each case takes the
    largest |z| over 3 (K=2) or 9 (K=3) moments, a false-alarm rate below
    6e-4 per case."""

    @pytest.mark.parametrize(
        "N, a, n",
        [(1600, (3, 4), 1024), (200, (3, 2, 4), 4096)],
        ids=["genealogy-k2-n1600", "genealogy-k3-n200"],
    )
    def test_genealogy(self, N, a, n):
        model = ChainModel(N, pim_for(a, N))
        run = run_to_stationarity(model, n, RngStream(11))
        assert run.meta["sampler"] == "genealogy"
        assert moment_z_max(run, exact_moments(model, MOMENT_DEGREE)) < 4.0

    def test_forward_cyclic(self):
        # rows are rounds of 512 chains: the stderr is over batch means
        model = ChainModel(60, cyclic_for(60))
        run = run_to_stationarity(model, 4096, RngStream(12))
        assert run.meta["sampler"] == "forward" and int(run.meta["replicates"]) == 512
        mom = exact_moments(model, 3)
        z = moment_z_max(run, mom)
        assert z < 4.0
        # the same rows read as iid understate the stderr
        assert moment_z_max(run.samples, mom) > z

    def test_detects_a_shifted_sample(self):
        model = ChainModel(200, pim_for((3, 2, 4), 200))
        run = run_to_stationarity(model, 4096, RngStream(13))
        mom = exact_moments(model, 3)
        assert moment_z_max(run.samples * 0.97, mom) > 4.0


class TestControlledGaps:
    def _setup(self, K, N, a, n, seed):
        ap = DirichletParams(a)
        model = ChainModel(N, pim_for(a, N))
        run = run_to_stationarity(model, n, RngStream(seed))
        return ap, model, run, attach_exact_means(make_battery(K), ap)

    def test_monomials_take_exact_gaps(self):
        ap, model, run, battery = self._setup(3, 40, (2, 3, 1.5), 256, 4)
        mom = exact_moments(model, MOMENT_DEGREE)
        tab = exact_stationary(model)
        for h in battery:
            if h.tag[0] != "monomial":
                continue
            ge = smooth_gap(run, ap, h, bound=1.0, moments=mom)
            assert ge.stderr == 0.0
            want = abs(tab.expect(h.fn) - h.mean)
            assert ge.gap == 0.0 if sum(h.tag[1]) == 1 else abs(ge.gap - want) <= 1e-12

    def test_controls_are_fixed_and_unbiased_by_construction(self):
        ap, model, run, battery = self._setup(2, 50, (2.5, 3.5), 512, 5)
        mom = exact_moments(model, MOMENT_DEGREE).projected(ap)
        other = run_to_stationarity(model, 300, RngStream(6)).samples
        for h in battery[3:]:
            beta = mom.weights(h)
            assert beta.shape == (MOMENT_DEGREE,)
            # the weights read neither the sample nor an rng
            ge = smooth_gap(other, ap, h, bound=1.0, moments=mom)
            again = exact_moments(model, MOMENT_DEGREE).projected(ap)
            assert np.array_equal(again.weights(h), beta)
            controls = other ** np.arange(1, MOMENT_DEGREE + 1) - mom.values
            adjusted = h.fn(other) - controls @ beta
            assert ge.gap == pytest.approx(abs(adjusted.mean() - h.mean), abs=1e-12)
            plain = smooth_gap(other, ap, h, bound=1.0)
            assert ge.stderr < plain.stderr
            # c(W) computed once by the caller gives the same estimate
            given = smooth_gap(other, ap, h, 1.0, moments=mom, controls=mom.monomials(other))
            assert given == ge

    def test_controls_need_the_projected_law(self):
        ap, model, run, battery = self._setup(2, 50, (2.5, 3.5), 64, 5)
        mom = exact_moments(model, 3)
        wave = battery[3]
        with pytest.raises(MetricsError, match="not projected"):
            smooth_gap(run, ap, wave, 1.0, moments=mom)
        with pytest.raises(MetricsError, match="not projected"):
            smooth_gap(run, ap, wave, 1.0, moments=mom.projected(DirichletParams((2.5, 3.6))))
        with pytest.raises(MetricsError, match="project the moments"):
            mom.weights(wave)
        # monomial rows read the moments alone
        assert smooth_gap(run, ap, battery[0], 1.0, moments=mom).stderr == 0.0

    def test_projection_reproduces_a_polynomial(self):
        # a cubic lies in the span of the controls: its weights are its
        # coefficients
        from dirstein.stein import TestFunction

        ap = DirichletParams((2, 3))
        cubic = TestFunction(
            tag=("cubic",), fn=lambda z: 1 + 2 * z[..., 0] - 3 * z[..., 0] ** 3,
            sup_norm=3.0, h1=7.0, h2=18.0, h21=18.0,
        )
        mom = exact_moments(ChainModel(30, pim_for((2, 3), 30)), MOMENT_DEGREE)
        beta = mom.projected(ap).weights(cubic)
        assert beta == pytest.approx([2, 0, -3, 0, 0, 0], abs=1e-7)

    @pytest.mark.parametrize("K, N, a", [(3, 25, (2.5, 3.0, 2.0)), (2, 60, (2.5, 3.5))])
    def test_calibrated_against_exact_tables(self, K, N, a):
        # 400 sets of 1024 iid genealogy draws, cut from one run: the
        # z-scores of every non-monomial gap against the table's exact
        # E h(W) are standard normal, and the controls cut the stderr
        ap, model, run, battery = self._setup(K, N, a, 400 * 1024, 7)
        mom = exact_moments(model, MOMENT_DEGREE).projected(ap)
        tab = exact_stationary(model)
        rows = run.samples.reshape(400, 1024, K - 1)
        worst, worst_plain = np.zeros(400), np.zeros(400)
        for h in battery:
            if h.tag[0] == "monomial":
                continue
            # a mean below every value of h keeps the sign: gap = est - mean
            low = replace(h, mean=h.value_range[0] - 1.0)
            z = []
            for i, w in enumerate(rows):
                ge = smooth_gap(w, ap, low, bound=1.0, moments=mom)
                z.append((ge.gap + low.mean - tab.expect(h.fn)) / ge.stderr)
                worst[i] = max(worst[i], ge.stderr)
                worst_plain[i] = max(worst_plain[i], smooth_gap(w, ap, h, bound=1.0).stderr)
            assert 0.85 <= np.std(z, ddof=1) <= 1.15, (h.tag, np.std(z, ddof=1))
            assert abs(np.mean(z)) <= 0.25, (h.tag, np.mean(z))
        assert np.median(worst) <= np.median(worst_plain) / 3
