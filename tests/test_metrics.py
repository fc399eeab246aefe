"""Battery certification, distance estimators, and exact stationary tables."""

import math
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
    GapEstimate,
    K2Distance,
    MetricsError,
    ProbeEstimate,
    StationaryTable,
    _bump_mean_k2,
    _bump_mean_k3,
    _monomial,
    _reg_inc_beta,
    _validate_battery,
    attach_exact_means,
    convex_probe_k3,
    dirichlet_reference,
    exact_stationary,
    kolmogorov_k2,
    make_battery,
    reg_inc_beta,
    smooth_gap,
)
from dirstein.mutation import MutationMatrix, summarize
from dirstein.offspring import OffspringModel
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
        assert _bump_mean_k2(a, 0.5, 0.25) == pytest.approx(
            0.25 * 32.0 / 35.0, abs=1e-9
        )

    def test_bump_k2_vs_mc(self):
        a = DirichletParams((2, 3))
        h = attach_mean(make_battery(2)[-1], a, rng=RngStream(3), mc_samples=4 * 10**5)
        exact = _bump_mean_k2(a, 0.5, 0.25)
        assert abs(exact - h.mean) < 4.0 * h.mean_se

    def test_bump_k3_vs_mc(self):
        for a in (DirichletParams((1, 1, 1)), DirichletParams((0.5, 2, 1.5))):
            h = attach_mean(
                make_battery(3)[-1], a, rng=RngStream(4), mc_samples=4 * 10**5
            )
            exact = _bump_mean_k3(a, (1.0 / 3.0, 1.0 / 3.0), 0.25)
            assert abs(exact - h.mean) < 4.0 * h.mean_se

    # the batched continued fraction stops each evaluation's lanes where
    # the per-call loop did, so the means agree to the last bit
    @pytest.mark.parametrize("law", [(1, 1), (2, 3), (0.5, 0.5), (F(1, 3), 7), (10, 0.2)], ids=str)
    def test_bump_k2_equals_per_call_reference(self, law):
        a = DirichletParams(law)
        for c in (0.5, 0.2, 0.9, 0.05):
            assert _bump_mean_k2(a, c, 0.25) == oracles.bump_mean_k2(a, c, 0.25)

    @pytest.mark.parametrize("law", [(1, 1, 1), (0.5, 2, 1.5), (2, 3, 4), (F(1, 3), 1, 5)], ids=str)
    def test_bump_k3_equals_per_call_reference(self, law):
        a = DirichletParams(law)
        for centers in ((1.0 / 3.0, 1.0 / 3.0), (0.2, 0.6), (0.7, 0.1)):
            assert _bump_mean_k3(a, centers, 0.25) == oracles.bump_mean_k3(a, centers, 0.25)

    @pytest.mark.parametrize("law", [(1, 1), (2, 3), (1.5, 4), (3, 1.25), (0.5, 0.5)], ids=str)
    def test_bump_k2_matches_quadrature(self, law):
        from scipy import integrate, stats

        # the shipped K=2 bump, integrated against the Beta density
        bump = make_battery(2)[-1]
        (c,), rho = bump.tag[1], bump.tag[2]
        ref, _ = integrate.quad(
            lambda x: bump.fn(np.array([[x]]))[0] * stats.beta.pdf(x, *law),
            c - rho,
            c + rho,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        assert abs(_bump_mean_k2(DirichletParams(law), c, rho) - ref) < 1e-11

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
        dirichlet_reference(a, RngStream(13), size=10**5)
        few = convex_probe_k3(z, a, 5, RngStream(20), reference_size=10**5)
        many = convex_probe_k3(z, a, 50, RngStream(20), reference_size=10**5)
        assert many.value >= few.value

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
    def test_single_individual_symmetric(self):
        tab = exact_stationary(ChainModel(1, MutationMatrix.pim([F(1, 2), F(1, 2)])))
        assert np.allclose(tab.probs, [0.5, 0.5], atol=1e-14)

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
        # exact_stationary sends WF offspring to the multinomial rows, so
        # solve the enumerated rows of _cannings_matrix by hand
        from dirstein.metrics import _cannings_matrix, _solve_stationary, _state_grid

        pim = pim_for((1, 1), 6)
        direct = exact_stationary(ChainModel(6, pim))
        model = ChainModel(6, pim, OffspringModel.wright_fisher(6))
        enum, _ = _solve_stationary(_cannings_matrix(model, _state_grid(6, 2)))
        assert np.max(np.abs(direct.probs - enum)) < 1e-12

    def test_moran_fast_equals_enumerated(self):
        # the Moran closed form against an explicit table holding the Moran
        # multiset, which goes through enumeration
        for model, table in _moran_and_table():
            fast = exact_stationary(model)
            enum = exact_stationary(table)
            assert np.max(np.abs(fast.probs - enum.probs)) < 1e-12

    @pytest.mark.parametrize("K, N", [(2, 6), (3, 5)])
    def test_enumerated_rows_match_multinomial_rows(self, K, N):
        from dirstein.metrics import _cannings_matrix, _state_grid, _wf_matrix

        pim = MutationMatrix.pim([F(1, 10), F(1, 20), F(1, 15)][:K])
        states = _state_grid(N, K)
        enum = _cannings_matrix(ChainModel(N, pim, OffspringModel.wright_fisher(N)), states)
        direct = _wf_matrix(ChainModel(N, pim), states)
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
        from dirstein.metrics import _solve_stationary, _state_grid, _wf_matrix

        for N, K in ((30, 2), (12, 3)):
            P = _wf_matrix(ChainModel(N, pim_for((1,) * K, N)), _state_grid(N, K))
            before = P.copy()
            pi, resolution = _solve_stationary(P)
            assert np.array_equal(P, before)
            assert np.max(np.abs(pi @ P - pi)) <= resolution

    def test_dense_solve_covers_large_tables(self):
        # S = 2628: the one dense solve also serves tables near the cap
        pi = [F(1, 50), F(1, 70), F(1, 90)]
        tab = exact_stationary(ChainModel(71, MutationMatrix.pim(pi)))
        assert len(tab.probs) == 2628
        assert tab.resolution < 1e-8
        want = np.array([float(p / sum(pi)) for p in pi[:2]])
        assert np.max(np.abs(tab.probs @ tab.w - want)) < 1e-8

    def test_reducible_mutation_rejected(self):
        ident = MutationMatrix(((1, 0), (0, 1)))
        with pytest.raises(ChainError):
            exact_stationary(ChainModel(5, ident))

    def test_state_space_caps(self):
        with pytest.raises(MetricsError, match="cap"):
            exact_stationary(ChainModel(400, pim_for((1, 1, 1), 400)))
        with pytest.raises(MetricsError, match="cap"):
            exact_stationary(ChainModel(120, pim_for((1, 1, 1), 120)))

    def test_general_kind_needs_small_n(self):
        dm = OffspringModel.dirichlet_multinomial(10, 1)
        with pytest.raises(MetricsError, match="N <= 8"):
            exact_stationary(ChainModel(10, pim_for((1, 1), 10), dm))

    def test_dm_table_symmetric(self):
        dm = OffspringModel.dirichlet_multinomial(6, F(1, 2))
        tab = exact_stationary(ChainModel(6, pim_for((1, 1), 6), dm))
        assert np.allclose(tab.probs, tab.probs[::-1], atol=1e-12)
        assert tab.probs.sum() == pytest.approx(1.0, abs=1e-12)


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
