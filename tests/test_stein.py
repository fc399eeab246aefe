import dataclasses
import math
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from dirstein.simplex import DirichletParams, RngStream, SimplexPoint
from dirstein import stein as st
from _oracles import (
    holding_tail,
    level_for_tolerance,
    level_mean_monomial,
    level_mean_piecewise,
    level_mean_trig,
    solution_partial_cos,
    solution_partial_linear,
    solution_partial_monomial,
    solution_partial_pair,
    solution_partial_quadrature,
    trig_mean_series,
)

F = Fraction

# s = 2: holding means 2/(n(n+1)) for n = 1..4
EY_S2 = [1.0, F(1, 3), F(1, 6), F(1, 10)]


def mono(c, k2=True):
    c = (c,) if isinstance(c, int) else tuple(c)
    return st.TestFunction(
        tag=("monomial", c),
        fn=lambda z, c=c: np.prod(
            np.asarray(z)[..., : len(c)] ** np.asarray(c), axis=-1
        ),
        sup_norm=1.0,
        h1=float(max(c) if c else 0),
        h2=6.0,
        h21=6.0,
        value_range=(0.0, 1.0),
    )


def trig(kind, w):
    w = (w,) if isinstance(w, (int, float)) else tuple(w)
    f = np.cos if kind == "cos" else np.sin
    if kind == "cos":
        wmax = sum(abs(v) for v in w)
        vr = (math.cos(min(wmax, math.pi)), 1.0)
    else:
        vr = (-1.0, 1.0)
    wsum = sum(abs(v) for v in w)
    return st.TestFunction(
        tag=(kind, w),
        fn=lambda z, f=f, w=w: f(np.asarray(z)[..., : len(w)] @ np.asarray(w)),
        sup_norm=1.0,
        h1=wsum,
        h2=wsum**2,
        h21=wsum**3,
        value_range=vr,
    )


def lead(h, a, x, M):
    """The exact leading tail term of f at x: -(h(x) - E h(Z)) tail(M)/2."""
    hx = float(h.fn(np.atleast_2d(np.asarray(x, dtype=float)))[0])
    return -0.5 * (hx - h.mean) * holding_tail(float(a.s), M)


def bump():
    def fn(z):
        u = (np.asarray(z)[..., 0] - 0.5) / 0.25
        return np.maximum(1.0 - u * u, 0.0) ** 3

    return st.TestFunction(
        tag=("bump", (0.5,), 0.25),
        fn=fn,
        sup_norm=1.0,
        h1=96.0 * math.sqrt(5) / 125 / 0.25,
        h2=6.0 / 0.25**2,
        h21=48.0 / 0.25**3,
        value_range=(0.0, 1.0),
    )


PARAM_SETS = [
    (1, 1),
    (F(1, 2), 2),
    (2, 3),
    (1, 1, 1),
    (F(1, 2), F(1, 2), 2),
    (F(3, 10), F(2, 5), F(4, 5)),
]


class TestCharacterization:
    @pytest.mark.parametrize("a", PARAM_SETS)
    def test_monomials_vanish(self, a):
        p = DirichletParams(a)
        K = p.dim
        for total in (1, 2, 3):
            for c in _exponent_vectors(K - 1, total):
                assert st.characterization_residual(p, c) <= 1e-12

    def test_wrong_length_raises(self):
        with pytest.raises(st.SteinError):
            st.characterization_residual(DirichletParams((1, 1)), (1, 1))

    def test_negative_exponent_raises(self):
        with pytest.raises(st.SteinError):
            st.characterization_residual(DirichletParams((1, 1, 1)), (1, -1))

    @given(
        st_.lists(
            st_.sampled_from([F(1, 2), 1, F(3, 2), 2, 3]), min_size=2, max_size=4
        ),
        st_.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_rational_params(self, avec, data):
        p = DirichletParams(avec)
        c = data.draw(
            st_.lists(
                st_.integers(0, 3), min_size=p.dim - 1, max_size=p.dim - 1
            ).filter(lambda v: 0 < sum(v) <= 3)
        )
        assert st.characterization_residual(p, c) == 0.0

    def test_mc_agrees_with_closed_form_generator(self):
        # vectorized generator values against (A f)(x) for f = x1^2 x2,
        # a = (1, 2, 1), s = 4, written out from the partials f_1 = 2 x1 x2,
        # f_2 = x1^2, f_11 = 2 x2, f_12 = 2 x1 and f_22 = 0
        a = DirichletParams((1, 2, 1))
        pt = x1, x2 = (0.3, 0.4)
        want = (
            x1 * (1 - x1) * 2 * x2
            - 2 * x1 * x2 * 2 * x1
            + (1 - 4 * x1) * 2 * x1 * x2
            + (2 - 4 * x2) * x1**2
        )
        orig = st.dirichlet_sample
        st.dirichlet_sample = lambda a_, r_, size: np.array([pt, pt])
        try:
            got, _ = st.characterization_mc(a, (2, 1), RngStream(0), 2)
        finally:
            st.dirichlet_sample = orig
        assert abs(got - want) < 1e-12

    def test_mc_centers_on_zero(self):
        a = DirichletParams((1, 2, 1))
        for c in [(1, 0), (2, 1), (1, 2)]:
            est, se = st.characterization_mc(a, c, RngStream(41), 100_000)
            assert abs(est) < 4.5 * se

    def test_mc_rejects_bad_input(self):
        a = DirichletParams((1, 1))
        with pytest.raises(st.SteinError):
            st.characterization_mc(a, (1, 1), RngStream(0), 100)
        with pytest.raises(st.SteinError):
            st.characterization_mc(a, (-1,), RngStream(0), 100)
        with pytest.raises(st.SteinError):
            st.characterization_mc(a, (1,), RngStream(0), 1)


def _exponent_vectors(parts, total):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponent_vectors(parts - 1, total - first):
            yield (first,) + rest


class TestSchedule:
    def test_holding_means_literal(self):
        sch = st.DeathProcessSchedule.with_levels(2.0, 4)
        assert np.allclose(sch.ey, [float(v) for v in EY_S2], atol=1e-15)

    def test_tail_telescopes_for_s2(self):
        for M in (5, 50, 500):
            sch = st.DeathProcessSchedule.with_levels(2.0, M)
            assert abs(sch.tail - 2.0 / (M + 1)) < 1e-12

    def test_tail_matches_brute_sum(self):
        for s in (0.5, 1.0, 3.7):
            M = 40
            sch = st.DeathProcessSchedule.with_levels(s, M)
            n = np.arange(M + 1, 2 * 10**6, dtype=float)
            brute = float((2.0 / (n * (n - 1.0 + s))).sum())
            assert abs(sch.tail - brute) < 1e-5

    @pytest.mark.parametrize("M", [8, 4000, 40000])
    @pytest.mark.parametrize("s", [1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-11, 1 + 1e-11])
    def test_tail_near_s_one(self, M, s):
        # partial sum to L plus a remainder that lies in [2/(L+1), 2/L]
        # for |s - 1| <= 1, since n(n-1) <= n(n-1+s) <= n(n+1)
        L = M + 200_000
        n = np.arange(M + 1, L + 1, dtype=np.float64)
        head = math.fsum(2.0 / (n * (n + (s - 1.0))))
        lo, hi = head + 2.0 / (L + 1), head + 2.0 / L
        tail = st._tail_exact(M, s)
        assert lo * (1 - 1e-14) <= tail <= hi * (1 + 1e-14)

    def test_tail_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for s in (0.01, 0.5, 2.0, 3.7, 50.0, 300.0):
            for M in (0, 8, 31, 100, 4000):
                want = 2.0 / (s - 1.0) * (special.digamma(M + s) - special.digamma(M + 1))
                assert st._tail_exact(M, s) == pytest.approx(want, rel=1e-10)

    def test_total_mass_bound(self):
        # the full series sums below 2(s+1)/s
        for s in (0.3, 0.5, 1.0, 2.0, 5.0):
            sch = st.DeathProcessSchedule.with_levels(s, 200)
            assert sch.total + sch.tail <= 2.0 * (s + 1.0) / s + 1e-12

    def test_tolerance_selection(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(trig("cos", 3), a)
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-4)
        assert sch.remainder(a, h) <= 1e-4
        below = st.DeathProcessSchedule.with_levels(a.s, sch.M - 1)
        assert below.remainder(a, h) > 1e-4
        # the Taylor remainder, not the crude sup|h~| tail(M), sets M
        assert sch.remainder(a, h) < h.sup_tilde * sch.tail / 10

    def test_param_mismatch_raises(self):
        sch = st.DeathProcessSchedule.with_levels(2.0, 50)
        with pytest.raises(st.SteinError):
            sch.check_params(DirichletParams((2, 3)))

    def test_bad_inputs(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(1), a)
        with pytest.raises(st.SteinError, match="mean"):
            st.DeathProcessSchedule.for_tolerance(a, mono(1))
        for tol in (0.0, -1e-3, float("nan")):
            with pytest.raises(st.SteinError, match="tolerance"):
                st.DeathProcessSchedule.for_tolerance(a, h, tol=tol)
        wild = dataclasses.replace(h, h1=math.inf, value_range=None, sup_norm=math.inf)
        with pytest.raises(st.SteinError, match="finite"):
            st.DeathProcessSchedule.for_tolerance(a, wild)

    @pytest.mark.parametrize("M", [-1, -40, 2.5, 3.7, math.nan, math.inf, "3", None])
    def test_bad_level_count_raises(self, M):
        with pytest.raises(st.SteinError, match="non-negative integer"):
            st.DeathProcessSchedule.with_levels(2.0, M)

    def test_zero_levels(self):
        # no level is summed: the whole mass is the leading term's tail
        sch = st.DeathProcessSchedule.with_levels(2.0, 0)
        assert sch.M == 0 and sch.ey.size == 0 and sch.total == 0.0
        assert sch.tail == pytest.approx(2.0, rel=1e-14)
        assert st.DeathProcessSchedule.with_levels(2.0, 3.0).M == 3
        assert st.DeathProcessSchedule.with_levels(2.0, np.int64(3)).M == 3


class TestTailRemainder:
    """The certified tail against exact level means, with no Monte Carlo:
    |E h(Z_n) - h(x)| <= C/(s+n) per level, the summed remainder past M
    within its charge, and the level rule built on both."""

    LAWS = [(1, 1), (2, 3), (F(1, 2), 3)]
    XS = (0.005, 0.3, 0.8, 0.995)

    @staticmethod
    def _level_means(h, a, x, n):
        a1, s = float(a.a[0]), float(a.s)
        kind = h.tag[0]
        if kind == "monomial":
            return level_mean_monomial(h.tag[1][0], a1, s, n, x)
        if kind in ("cos", "sin"):
            return level_mean_trig(kind, h.tag[1][0], a1, s, n, x)
        (c,), rho = h.tag[1], h.tag[2]
        poly = (1.0 - (np.polynomial.Polynomial([-c, 1.0]) / rho) ** 2) ** 3
        z = np.linspace(c - rho, c + rho, 9)
        np.testing.assert_allclose(poly(z), h.fn(z[:, None]), atol=1e-12)
        support = (c - rho, c + rho)
        return np.array([level_mean_piecewise(poly.coef, support, a, x, int(v)) for v in n])

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_per_level_rate(self, law):
        from dirstein.metrics import make_battery

        a = DirichletParams(law)
        s = float(a.s)
        n = np.array([1, 2, 3, 5, 10, 30, 100, 1000, 10**4, 10**5])
        # the bump's level means need integer a (binomial tails)
        integer = all(isinstance(v, int) for v in a.a)
        bat = [h for h in make_battery(2) if integer or h.tag[0] != "bump"]
        assert len(bat) == (8 if integer else 7)
        for h in bat:
            C = np.array([st.remainder_rate(a, h, int(v) - 1) for v in n])
            for x in self.XS:
                hx = float(h.fn(np.array([[x]]))[0])
                gap = np.abs(self._level_means(h, a, x, n) - hx)
                assert np.all(gap <= C / (s + n)), (h.tag, x)

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_summed_remainder(self, law):
        # f's tail past M minus its leading term, summed exactly to L;
        # past L it is at most C tail(L)/(2(s+L+1)) <= C/(L(s+L+1))
        from dirstein.metrics import attach_exact_means, make_battery

        a = DirichletParams(law)
        a1, s = float(a.a[0]), float(a.s)
        L = 10**6
        n = np.arange(1, L + 1, dtype=float)
        ey = 2.0 / (n * (n - 1.0 + s))
        for h in attach_exact_means(make_battery(2)[:3], a):
            c = h.tag[1][0]
            beyond = st.remainder_rate(a, h, L) / (L * (s + L + 1.0))
            for x in self.XS:
                terms = (level_mean_monomial(c, a1, s, n, x) - x**c) * ey
                past = np.cumsum(terms[::-1])[::-1]  # past[M] sums n > M
                for M in (8, 64, 512):
                    charge = st.DeathProcessSchedule.with_levels(s, M).remainder(a, h)
                    assert abs(0.5 * past[M]) <= charge + beyond, (h.tag, x, M)

    @pytest.mark.parametrize("tol", [1e-3, 1e-4])
    @pytest.mark.parametrize("law", [(1, 1), (2, 3), (1, 1, 1)], ids=str)
    def test_smallest_certified_level(self, law, tol):
        from dirstein.metrics import attach_exact_means, make_battery

        a = DirichletParams(law)
        for h in attach_exact_means(make_battery(a.dim), a):
            sch = st.DeathProcessSchedule.for_tolerance(a, h, tol)
            assert sch.remainder(a, h) <= tol
            below = st.DeathProcessSchedule.with_levels(a.s, sch.M - 1)
            assert sch.M == 8 or below.remainder(a, h) > tol
            # never more levels than the crude rule sup|h~| tail(M) <= tol
            assert sch.M <= max(8, math.ceil(2 * h.sup_tilde / tol))
            # the same level and remainder as the rule that rebuilt the
            # vertex terms at every bisection step
            assert (sch.M, sch.remainder(a, h)) == level_for_tolerance(a, h, tol)

    # the search starts at the asymptotic level; far from it (small s and
    # loose tol, where the level stays near 8, or large s) it must still
    # land on the bisection's level
    @settings(max_examples=40, deadline=None)
    @given(
        law=st_.lists(st_.floats(0.05, 200.0), min_size=2, max_size=3),
        tol=st_.floats(1e-7, 0.5),
    )
    def test_level_search_matches_bisection(self, law, tol):
        from dirstein.metrics import attach_exact_means, make_battery

        a = DirichletParams(tuple(law))
        for h in attach_exact_means(make_battery(a.dim), a):
            sch = st.DeathProcessSchedule.for_tolerance(a, h, tol)
            assert (sch.M, sch.remainder(a, h)) == level_for_tolerance(a, h, tol)


class TestAttachMean:
    def test_monomial_exact(self):
        h = st.attach_mean(mono(2), DirichletParams((1, 1)))
        assert h.mean == pytest.approx(1 / 3, abs=1e-15)
        h = st.attach_mean(mono(1), DirichletParams((2, 3)))
        assert h.mean == pytest.approx(2 / 5, abs=1e-15)

    def test_trig_uniform_closed_form(self):
        # Dir(1,1) is uniform on [0,1]
        a = DirichletParams((1, 1))
        assert st.attach_mean(trig("cos", 1), a).mean == pytest.approx(
            math.sin(1.0), abs=1e-12
        )
        assert st.attach_mean(trig("sin", 1), a).mean == pytest.approx(
            1.0 - math.cos(1.0), abs=1e-12
        )
        assert st.attach_mean(trig("cos", 3), a).mean == pytest.approx(
            math.sin(3.0) / 3.0, abs=1e-12
        )

    def test_trig_matches_mc(self):
        a = DirichletParams((0.5, 2))
        h = st.attach_mean(trig("cos", 3), a)
        g = RngStream(21).child(0)
        from dirstein.simplex import dirichlet_sample

        Z = dirichlet_sample(a, g, size=2 * 10**6)
        vals = np.cos(3 * Z[:, 0])
        assert abs(h.mean - vals.mean()) < 5 * vals.std() / math.sqrt(len(vals))

    def test_k3_trig_mean(self):
        a = DirichletParams((1, 1, 1))
        h = st.attach_mean(trig("cos", (2, 1)), a)
        g = RngStream(22).child(0)
        from dirstein.simplex import dirichlet_sample

        Z = dirichlet_sample(a, g, size=2 * 10**6)
        vals = np.cos(Z[:, :2] @ np.array([2.0, 1.0]))
        assert abs(h.mean - vals.mean()) < 5 * vals.std() / math.sqrt(len(vals))

    @pytest.mark.parametrize(
        "law",
        [(1, 1), (2, 3), (0.5, 0.5), (1e-3, 1e-3), (1e-3, 2), (10, 0.2), (1, 1, 1),
         (0.3, 0.4, 0.5), (F(1, 3), 1, 5), (1e-3, 1e-3, 1e-3), (1, 1, 1, 1), (0.5, 1, 2, 3)],
        ids=str,
    )
    def test_trig_matches_moment_series(self, law):
        a = DirichletParams(law)
        d = a.dim - 1
        for kind in ("cos", "sin"):
            for w in ((1.0,) * d, (3.0,) + (0.0,) * (d - 1), tuple(range(1, d + 1))):
                h = st.attach_mean(trig(kind, w), a)
                assert abs(h.mean - trig_mean_series(a, w, kind)) < 1e-13, (kind, w)

    def test_bump_equals_attach_exact_means(self):
        from dirstein.metrics import attach_exact_means, make_battery

        for a in (DirichletParams((2, 3)), DirichletParams((0.3, 0.4, 0.5))):
            h = make_battery(a.dim)[-1]
            assert h.tag[0] == "bump"
            got = st.attach_mean(h, a)
            assert got == attach_exact_means([h], a)[0]

    # the bump's function under a tag attach_mean does not know: no exact
    # rule serves it, and there is no Monte Carlo fallback
    def test_bump_needs_rng(self):
        h = dataclasses.replace(bump(), tag=("plateau", (0.5,), 0.25))
        with pytest.raises(st.SteinError, match="no exact mean rule"):
            st.attach_mean(h, DirichletParams((1, 1)))


class TestPointSolver:
    def test_linear_matches_telescoped_sum(self):
        a = DirichletParams((2, 3))
        h = st.attach_mean(mono(1), a)
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-3)
        est, se, trunc = st.solve_stein_f(
            a, h, SimplexPoint((0.8,)), sch, 512, RngStream(3).child(0)
        )
        exact = solution_partial_linear(a, 0.8, sch.M) + lead(h, a, 0.8, sch.M)
        assert abs(est - exact) < 4 * se
        # the remainder past the leading term is really inside the bound
        full = solution_partial_linear(a, 0.8, 10**9)
        assert abs(full - exact) <= trunc <= 1e-3

    def test_monomial_matches_oracle(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(2), a)
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-3)
        est, se, _ = st.solve_stein_f(
            a, h, SimplexPoint((0.3,)), sch, 512, RngStream(4).child(0)
        )
        exact = solution_partial_monomial(2, a, 0.3, sch.M) + lead(h, a, 0.3, sch.M)
        assert abs(est - exact) < 4 * se

    def test_requires_mean(self):
        a = DirichletParams((1, 1))
        sch = st.DeathProcessSchedule.with_levels(2.0, 50)
        with pytest.raises(st.SteinError):
            st.solve_stein_f(a, mono(1), SimplexPoint((0.5,)), sch, 64, RngStream(1))

    def test_is_the_one_point_engine_call(self):
        a = DirichletParams((2, 3))
        h = st.attach_mean(mono(2), a)
        x = SimplexPoint((0.3,))
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-3)
        got = st.solve_stein_f(a, h, x, sch, 256, RngStream(6).child(0))
        sums = st.stein_level_sums(
            [a], [[h]], [x], 256, RngStream(6).child(0), levels_override=sch.M
        )
        assert got == sums.f_hat(0, 0, 0)
        assert int(sums.levels[0, 0]) == sch.M

    def test_schedule_mismatch(self):
        a = DirichletParams((2, 3))
        h = st.attach_mean(mono(1), a)
        sch = st.DeathProcessSchedule.with_levels(2.0, 50)
        with pytest.raises(st.SteinError):
            st.solve_stein_f(a, h, SimplexPoint((0.5,)), sch, 64, RngStream(1))


def _battery_for(a):
    fns = [mono(1), mono(2), mono(3), trig("cos", 1), trig("cos", 3), bump()]
    return [st.attach_mean(h, a) for h in fns]


class TestLevelSums:
    def setup_method(self):
        self.a_list = [DirichletParams((1, 1)), DirichletParams((2, 3))]
        self.bats = [_battery_for(a) for a in self.a_list]
        self.points = [0.2, 0.5, 0.8]
        self.res = st.stein_level_sums(
            self.a_list, self.bats, self.points, 3000, RngStream(77), tol=1e-3
        )

    def test_monomials_match_oracle(self):
        for ai, a in enumerate(self.a_list):
            for hi, c in enumerate([1, 2, 3]):
                M = int(self.res.levels[ai, hi])
                h = self.bats[ai][hi]
                for p, x in enumerate(self.points):
                    est, se, _ = self.res.f_hat(p, ai, hi)
                    exact = solution_partial_monomial(c, a, x, M) + lead(h, a, x, M)
                    assert abs(est - exact) < 4.5 * se

    def test_coupled_difference(self):
        est, se, _ = self.res.f_diff(0, 2, 1, 0)
        a = self.a_list[1]
        M = int(self.res.levels[1, 0])
        h = self.bats[1][0]
        exact = solution_partial_linear(a, 0.2, M) - solution_partial_linear(
            a, 0.8, M
        )
        exact += lead(h, a, 0.2, M) - lead(h, a, 0.8, M)
        assert abs(est - exact) < 4 * se
        se_ind = math.hypot(self.res.f_hat(0, 1, 0)[1], self.res.f_hat(2, 1, 0)[1])
        assert se < se_ind

    # The oracle tests below check coupled contrasts f(x) - f(y): the
    # coupling cancels most of the noise, so a one-level shift of the E Y_n
    # weights moves them by 9 to 18 stderr, where single values hide it.

    def test_trig_matches_taylor_oracle(self):
        ai, hi = 0, 4  # cos(3x) under (1,1), f(0.2) - f(0.8)
        a, M = self.a_list[ai], int(self.res.levels[ai, hi])
        h = self.bats[ai][hi]
        exact = solution_partial_cos(3.0, a, 0.2, M) - solution_partial_cos(3.0, a, 0.8, M)
        exact += lead(h, a, 0.2, M) - lead(h, a, 0.8, M)
        en, ense, _ = self.res.f_diff(0, 2, ai, hi)
        assert abs(en - exact) < 5 * ense

    def test_bump_matches_quadrature(self):
        # 64 levels keep the Beta-mixture quadrature exact and quick; the
        # bump's Monte Carlo mean cancels in the contrast
        ai, hi = 1, 5
        a, h = self.a_list[ai], self.bats[ai][hi]
        res = st.stein_level_sums(
            [a], [[h]], [0.02, 0.5], 3000, RngStream(31).child(11), levels_override=64
        )
        exact = solution_partial_quadrature(
            h.fn, (0.25, 0.75), a, 0.02, 64
        ) - solution_partial_quadrature(h.fn, (0.25, 0.75), a, 0.5, 64)
        exact += lead(h, a, 0.02, 64) - lead(h, a, 0.5, 64)
        en, ense, _ = res.f_diff(0, 1, 0, 0)
        assert abs(en - exact) < 5 * ense

    def test_leading_term_is_exact(self):
        # f = -(low-band mean + high-band mean - E h(Z) sum E Y_n)/2 plus
        # the leading term, charged the schedule's remainder at the given
        # level; the stderr combines the two bands and their shared rows
        res = st.stein_level_sums(
            self.a_list, self.bats, self.points, 20, RngStream(79), levels_override=40
        )
        assert (res.replicates, res.high_replicates, st.LEVEL_SPLIT) == (20, 3, 32)
        for ai, a in enumerate(self.a_list):
            sch = st.DeathProcessSchedule.with_levels(a.s, 40)
            for hi, h in enumerate(self.bats[ai]):
                for p, x in enumerate(self.points):
                    est, se, trunc = res.f_hat(p, ai, hi)
                    low = -(res.S[:, p, ai, hi] - h.mean * sch.total) / 2.0
                    high = -res.S_high[:, p, ai, hi] / 2.0
                    sums = low.mean() + high.mean()
                    assert est == pytest.approx(sums + lead(h, a, x, 40), abs=1e-12)
                    cov = np.cov(low[:3], high)[0, 1]
                    var = low.var(ddof=1) / 20 + high.var(ddof=1) / 3 + 2 * cov / 20
                    assert se == pytest.approx(math.sqrt(var), rel=1e-9)
                    assert trunc == sch.remainder(a, h)

    def test_deterministic(self):
        res2 = st.stein_level_sums(
            self.a_list, self.bats, self.points, 3000, RngStream(77), tol=1e-3
        )
        assert res2.high_replicates == 375
        assert np.array_equal(self.res.S, res2.S)
        assert np.array_equal(self.res.S_high, res2.S_high)

    def test_high_band_sums_the_levels_past_the_split(self):
        # the first high_replicates rows are one stream: with the high
        # band on every row (R = 2) a level-40 sum is the low band plus
        # the high band, and a level-32 call on the same stream has no
        # high band and the same low band
        a, h = self.a_list[1], self.bats[1][1]
        deep = st.stein_level_sums([a], [[h]], self.points, 2, RngStream(3), levels_override=40)
        flat = st.stein_level_sums([a], [[h]], self.points, 2, RngStream(3), levels_override=32)
        assert deep.high_replicates == 2 and flat.high_replicates == 0
        assert flat.S_high.shape == (0, 3, 1, 1)
        assert np.array_equal(deep.S, flat.S)
        assert np.all(deep.S_high != 0.0)
        for p in range(3):
            est, se, _ = flat.f_hat(p, 0, 0)
            low = -(flat.S[:, p, 0, 0] - h.mean * flat.ey_sums[0, 0]) / 2.0
            assert est == pytest.approx(low.mean() + lead(h, a, self.points[p], 32), abs=1e-12)
            assert se == pytest.approx(low.std(ddof=1) / math.sqrt(2), rel=1e-9)
            assert all(math.isfinite(v) for v in deep.f_hat(p, 0, 0) + deep.f_diff(p, 0, 0, 0))

    def test_few_rows_and_shallow_levels_stay_quiet(self):
        # RuntimeWarnings are errors here: neither R = 2 nor a grid whose
        # every level is at or below the split may divide by zero
        a = self.a_list[0]
        for R, tol in ((2, 1e-4), (5, 1e-1), (2, 1e-1)):
            res = st.stein_level_sums([a], [self.bats[0]], self.points, R, RngStream(8), tol=tol)
            assert res.high_replicates == (2 if res.levels.max() > 32 else 0)
            for hi in range(len(self.bats[0])):
                vals = res.f_hat(1, 0, hi) + res.f_diff(0, 2, 0, hi)
                vals += res.f_combo({0: 1.0, 1: -2.0, 2: 1.0}, 0, hi)
                assert all(math.isfinite(v) for v in vals)
        assert int(res.levels.max()) <= 32

    def test_linear_solution_calibrated(self):
        # h(x) = x_1 has the exact solution f(x) = -(x_1 - a_1/s)/s; over
        # independent streams the two-band stderrs must describe the
        # spread of f values and of a coupled difference
        a = self.a_list[1]
        h = self.bats[1][0]
        s, a1 = float(a.s), float(a.a[0])
        pts = [0.3, 0.7]
        exact = [-(x - a1 / s) / s for x in pts]
        z_f, z_d = [], []
        for seed in range(40):
            res = st.stein_level_sums([a], [[h]], pts, 400, RngStream(seed), tol=1e-4)
            assert res.high_replicates == 50
            est, se, trunc = res.f_hat(0, 0, 0)
            assert trunc <= 1e-4
            z_f.append((est - exact[0]) / se)
            est, se, _ = res.f_diff(0, 1, 0, 0)
            z_d.append((est - (exact[0] - exact[1])) / se)
        for z in (np.array(z_f), np.array(z_d)):
            # the mean of 40 unit normals has sd 0.16, their sd about 0.11
            assert abs(z.mean()) < 0.5
            assert 0.65 < z.std(ddof=1) < 1.4

    @pytest.mark.parametrize("M", [-1, 2.5, 3.7])
    def test_bad_levels_override_raises(self, M):
        a = self.a_list[0]
        with pytest.raises(st.SteinError, match="non-negative integer"):
            st.stein_level_sums([a], [self.bats[0]], [0.5], 8, RngStream(1), levels_override=M)

    def test_zero_levels_give_the_leading_term(self):
        a = self.a_list[1]
        res = st.stein_level_sums(
            [a], [self.bats[1]], self.points, 4, RngStream(2), levels_override=0
        )
        sch = st.DeathProcessSchedule.with_levels(a.s, 0)
        for hi, h in enumerate(self.bats[1]):
            for p, x in enumerate(self.points):
                est, se, trunc = res.f_hat(p, 0, hi)
                assert est == pytest.approx(lead(h, a, x, 0), abs=1e-12)
                assert se == 0.0
                assert trunc == sch.remainder(a, h)

    def test_blocks_and_tiles(self):
        # several row chunks, column blocks and cache tiles per block (a
        # tile is at least 256 columns, so tol 1e-4 for levels past 600)
        res = st.stein_level_sums(
            self.a_list, self.bats, self.points, 1500, RngStream(78),
            tol=1e-4, row_chunk=512, col_block=300,
        )
        assert res.levels.max() > 2 * 300
        for ai, a in enumerate(self.a_list):
            for hi, c in enumerate([1, 2, 3]):
                M = int(res.levels[ai, hi])
                h = self.bats[ai][hi]
                for p, x in enumerate(self.points):
                    est, se, _ = res.f_hat(p, ai, hi)
                    exact = solution_partial_monomial(c, a, x, M) + lead(h, a, x, M)
                    assert abs(est - exact) < 4.5 * se

    def test_points_are_independent_and_threadless(self, monkeypatch):
        # each point's sums ride on the shared stream alone, so a grid's
        # column is the one-point call at that x, bit for bit; no call
        # starts a thread
        def refuse(thread):
            raise AssertionError("stein_level_sums started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        kw = dict(tol=1e-3, row_chunk=256, col_block=128)
        grid = st.stein_level_sums(self.a_list, self.bats, self.points, 700, RngStream(5), **kw)
        assert grid.levels.max() > 128 and grid.high_replicates == 88
        for p, x in enumerate(self.points):
            one = st.stein_level_sums(self.a_list, self.bats, [x], 700, RngStream(5), **kw)
            assert np.array_equal(grid.S[:, p], one.S[:, 0])
            assert np.array_equal(grid.S_high[:, p], one.S_high[:, 0])

    @pytest.mark.parametrize("K", [2, 3])
    def test_battery_sums_match_functions(self, K):
        from dirstein.metrics import make_battery

        bat = make_battery(K)
        g = np.random.default_rng(5)
        Z = g.dirichlet(np.ones(K), size=(64, 300))[..., :-1].astype(np.float32)
        Zs = [np.ascontiguousarray(Z[..., k]) for k in range(K - 1)]
        ey = g.random(300).astype(np.float32)
        widths = [300 - 11 * i for i in range(len(bat))]
        specs = [(i, h.tag, w) for i, (h, w) in enumerate(zip(bat, widths))]
        out = st._battery_sums(Zs, specs, ey, np.zeros((64, len(bat))))
        for i, (h, w) in enumerate(zip(bat, widths)):
            ref = h.fn(Z[:, :w].astype(np.float64)) @ ey[:w].astype(np.float64)
            np.testing.assert_allclose(out[:, i], ref, rtol=1e-5, atol=1e-5)

    def test_k3_matches_closed_form(self):
        a = DirichletParams((1, 1, 1))
        h = st.attach_mean(mono((1, 1)), a)
        pts = [(0.3, 0.4), (0.1, 0.2)]
        res = st.stein_level_sums([a], [[h]], pts, 2000, RngStream(13), tol=1e-2)
        M = int(res.levels[0, 0])
        exact = solution_partial_pair(a, pts[0], M) - solution_partial_pair(a, pts[1], M)
        exact += lead(h, a, pts[0], M) - lead(h, a, pts[1], M)
        en, ense, _ = res.f_diff(0, 1, 0, 0)
        assert abs(en - exact) < 5 * ense

    @pytest.mark.parametrize(
        "tol, replicates, match",
        [(0.0, 100, "tolerance"), (-1e-3, 100, "tolerance"), (1e-3, 1, "2 replicates")],
    )
    def test_bad_budget_raises(self, tol, replicates, match):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(1), a)
        with pytest.raises(st.SteinError, match=match):
            st.stein_level_sums([a], [[h]], [0.5], replicates, RngStream(1), tol=tol)

    def test_duplicate_tags_raise(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(1), a)
        with pytest.raises(st.SteinError):
            st.stein_level_sums([a], [[h, h]], [0.5], 100, RngStream(1))

    def test_mismatched_batteries_raise(self):
        hs = [st.attach_mean(mono(1), a) for a in self.a_list]
        with pytest.raises(st.SteinError):
            st.stein_level_sums(
                self.a_list,
                [[hs[0]], [st.attach_mean(mono(2), self.a_list[1])]],
                [0.5],
                100,
                RngStream(1),
            )

    def test_missing_mean_raises(self):
        a = DirichletParams((1, 1))
        with pytest.raises(st.SteinError):
            st.stein_level_sums([a], [[mono(1)]], [0.5], 100, RngStream(1))


class TestVerifyBounds:
    def test_linear_saturates_gradient_budget(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(1), a)
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-3)
        rep = st.verify_solution_bounds(
            a, h, [0.1, 0.3, 0.5, 0.7, 0.9], sch, RngStream(41), replicates=4096
        )
        assert rep.checks_pass
        # f is linear with slope -1/s in the free coordinate; the L1
        # distance counts the compensating move of the last coordinate,
        # so the divided difference comes out at 1/(2s)
        assert rep.fd1_budget == pytest.approx(0.5)
        f = [solution_partial_linear(a, x, sch.M) + lead(h, a, x, sch.M) for x in (0.1, 0.9)]
        want = abs(f[1] - f[0]) / (2 * 0.8)
        assert want == pytest.approx(0.25, abs=1e-3)
        assert rep.fd1_estimate == pytest.approx(want, abs=rep.fd1_slack)

    def test_quadratic_curvature_at_budget(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(2), a)
        h = dataclasses.replace(h, h1=2.0, h2=2.0, h21=0.0)
        sch = st.DeathProcessSchedule.for_tolerance(a, h, tol=1e-3)
        rep = st.verify_solution_bounds(
            a, h, [0.1, 0.3, 0.5, 0.7, 0.9], sch, RngStream(42), replicates=4096
        )
        assert rep.checks_pass
        # f is exactly quadratic: |f''| = 1/(s+1) meets the budget h2/(2(s+1))
        assert rep.fd2_budget == pytest.approx(1 / 3)
        f = [
            solution_partial_monomial(2, a, x, sch.M) + lead(h, a, x, sch.M)
            for x in (0.1, 0.3, 0.5)
        ]
        want = abs(f[0] - 2 * f[1] + f[2]) / 0.2**2
        assert want == pytest.approx(1 / 3, abs=1e-2)
        assert rep.fd2_estimate == pytest.approx(want, abs=rep.fd2_slack)


class TestEndToEndResidual:
    def _residual(self, a, h, x0, delta, reps, seed, tol):
        points = [x0 - delta, x0, x0 + delta]
        res = st.stein_level_sums(
            [a], [[h]], points, reps, RngStream(seed), tol=tol
        )
        s = float(a.s)
        a1 = float(a.a[0])
        w2 = x0 * (1 - x0) / delta**2
        w1 = (a1 - s * x0) / (2 * delta)
        weights = {0: w2 - w1, 1: -2 * w2, 2: w2 + w1}
        est, se, _ = res.f_combo(weights, 0, 0)
        target = float(h.fn(np.array([[x0]]))[0]) - h.mean
        # the truncation scale: the tail mass that the certified remainder
        # is worth at sup|h~| per unit mass
        tail = float(res.rem[0, 0]) / h.sup_tilde
        return est - target, se, tail

    def test_wide_stencil_tight(self):
        a = DirichletParams((2, 3))
        h = st.attach_mean(trig("cos", 3), a)
        resid, se, tail = self._residual(a, h, 0.45, 0.15, 20000, 91, 1e-4)
        # curvature-scale truncation plus FD bias of the wide stencil
        slack = (h.h2 + float(a.s) * h.h1) * tail + 3e-3
        assert abs(resid) < 4 * se + slack
        assert se < 0.02

    def test_default_step_noise_limited(self):
        a = DirichletParams((1, 1))
        h = st.attach_mean(mono(2), a)
        resid, se, tail = self._residual(a, h, 0.5, 1e-3, 20000, 92, 1e-3)
        slack = (h.h2 + float(a.s) * h.h1) * tail
        assert abs(resid) < 4 * se + slack


class TestPairBound:
    def _iid_pair(self, a):
        af = a.floats()
        mean = af[:-1] / af.sum()
        cov_diag = af[:-1] * (af.sum() - af[:-1]) / (af.sum() ** 2 * (af.sum() + 1))

        def sampler(g, size):
            from dirstein.simplex import dirichlet_sample

            # free coordinates only, each copy independent
            return (
                dirichlet_sample(a, g, size=size),
                dirichlet_sample(a, g, size=size),
            )

        K1 = a.dim - 1
        s = float(a.s)
        cov = np.empty((K1, K1))
        for i in range(K1):
            for j in range(K1):
                if i == j:
                    cov[i, j] = cov_diag[i]
                else:
                    cov[i, j] = -af[i] * af[j] / (af.sum() ** 2 * (af.sum() + 1))

        def cond_second(W):
            dev = mean[None, :] - W
            return cov[None, :, :] + dev[:, :, None] * dev[:, None, :]

        def remainder(W):
            return np.zeros_like(W)

        lam = np.eye(K1) / s
        return sampler, lam, st.PairHooks(remainder=remainder, cond_second=cond_second)

    def test_hooks_give_zero_a1(self):
        a = DirichletParams((1, 2, 1))
        sampler, lam, hooks = self._iid_pair(a)
        out = st.exchangeable_pair_bound(
            sampler, lam, a, RngStream(61), hooks=hooks, outer_samples=2000
        )
        assert out.a1 == 0.0
        assert out.a2 > 0 and out.a3 > 0

    def test_hooks_vs_nested(self):
        a = DirichletParams((1, 2, 1))
        sampler, lam, hooks = self._iid_pair(a)
        exact = st.exchangeable_pair_bound(
            sampler, lam, a, RngStream(62), hooks=hooks, outer_samples=4000
        )

        def resample(W, g, r_inner):
            from dirstein.simplex import dirichlet_sample

            Z = dirichlet_sample(a, g, size=W.shape[0] * r_inner)
            return Z.reshape(W.shape[0], r_inner, -1)

        nested = st.exchangeable_pair_bound(
            sampler,
            lam,
            a,
            RngStream(63),
            nested=st.NestedConfig(resample=resample, r_inner=512),
            outer_samples=4000,
        )
        tol = 5 * math.hypot(exact.a2_se, nested.a2_se) + 0.08 * exact.a2
        assert abs(exact.a2 - nested.a2) < tol
        tol3 = 5 * math.hypot(exact.a3_se, nested.a3_se)
        assert abs(exact.a3 - nested.a3) < tol3

    def test_singular_lambda_raises(self):
        a = DirichletParams((1, 1, 1))
        sampler, _, hooks = self._iid_pair(a)
        with pytest.raises(st.SteinError):
            st.exchangeable_pair_bound(
                sampler, np.zeros((2, 2)), a, RngStream(1), hooks=hooks
            )

    def test_small_r_inner_raises(self):
        a = DirichletParams((1, 1, 1))
        sampler, lam, _ = self._iid_pair(a)
        with pytest.raises(st.SteinError):
            st.exchangeable_pair_bound(
                sampler,
                lam,
                a,
                RngStream(1),
                nested=st.NestedConfig(resample=lambda *args: None, r_inner=1),
            )

    def test_needs_hooks_or_nested(self):
        a = DirichletParams((1, 1, 1))
        sampler, lam, _ = self._iid_pair(a)
        with pytest.raises(st.SteinError):
            st.exchangeable_pair_bound(sampler, lam, a, RngStream(1))

    def test_coefficient_convention(self):
        a = DirichletParams((1, 1, 1))
        sampler, lam, hooks = self._iid_pair(a)
        out = st.exchangeable_pair_bound(
            sampler, lam, a, RngStream(64), hooks=hooks, outer_samples=500
        )
        assert out.scalar_coeff and out.a3_constant == 18.0
        skew = st.exchangeable_pair_bound(
            sampler,
            np.diag([0.3, 0.2]),
            a,
            RngStream(64),
            hooks=hooks,
            outer_samples=500,
        )
        assert not skew.scalar_coeff and skew.a3_constant == 6.0

    def test_smooth_bound_formula(self):
        b = st.PairBound(
            a1=1.0, a2=2.0, a3=3.0, a1_se=0, a2_se=0, a3_se=0,
            s=2.0, theta=1.0, scalar_coeff=True,
        )
        expect = 1.0 * 1.0 / 2.0 + 2.0 * 2.0 / 6.0 + 3.0 * 3.0 / (18.0 * 4.0)
        assert b.smooth_bound(1.0, 2.0, 3.0) == pytest.approx(expect)
        assert b.convex_rate == pytest.approx(6.0 ** (1.0 / 4.0))
