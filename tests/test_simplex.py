import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirstein.simplex import (
    DirichletParams,
    RngStream,
    SimplexError,
    SimplexPoint,
    _dirichlet_moments,
    _dirichlet_rule,
    dirichlet_density,
    dirichlet_mixed_moment,
    dirichlet_sample,
    theta_exponent,
)

# Oracle: arcsine density 1/(pi*sqrt(x(1-x))) at x=0.25, frozen before build.
ARCSINE_AT_QUARTER = 0.7351051938957185  # 1/(pi*sqrt(0.1875))


class TestSimplexPoint:
    def test_basic(self):
        x = SimplexPoint([0.2, 0.3])
        assert x.dim == 3
        assert x.last == pytest.approx(0.5)
        assert x.interior()

    def test_rejects_negative(self):
        with pytest.raises(SimplexError):
            SimplexPoint([-0.1, 0.3])

    def test_rejects_oversum(self):
        with pytest.raises(SimplexError):
            SimplexPoint([0.7, 0.4])

    def test_boundary_tolerance(self):
        # exactly on the boundary is fine, slightly beyond tolerance is not
        SimplexPoint([1.0])
        with pytest.raises(SimplexError):
            SimplexPoint([1.0 + 1e-9])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    @example([1.0, 1e-12])
    def test_never_accepts_invalid(self, coords):
        try:
            x = SimplexPoint(coords)
        except SimplexError:
            return
        assert all(c >= 0 for c in x.coords)
        assert sum(x.coords) <= 1 + 1e-12
        assert x.last >= -1e-12


class TestDensity:
    def test_uniform_on_triangle(self):
        # Gamma(3) = 2 for the flat Dirichlet on the 2-simplex
        p = DirichletParams([1, 1, 1])
        assert dirichlet_density(p, SimplexPoint([0.2, 0.3])) == pytest.approx(2.0)

    def test_beta_2_1(self):
        p = DirichletParams([2, 1])
        assert dirichlet_density(p, SimplexPoint([0.5])) == pytest.approx(1.0)

    def test_arcsine(self):
        p = DirichletParams([0.5, 0.5])
        got = dirichlet_density(p, SimplexPoint([0.25]))
        assert got == pytest.approx(ARCSINE_AT_QUARTER, rel=1e-12)

    def test_boundary_below_one_rejected(self):
        p = DirichletParams([0.5, 0.5])
        with pytest.raises(SimplexError):
            dirichlet_density(p, SimplexPoint([0.0]))

    def test_boundary_limit_above_one(self):
        p = DirichletParams([2, 2])
        assert dirichlet_density(p, SimplexPoint([0.0])) == 0.0
        # all parameters exactly 1: boundary value equals the constant density
        p1 = DirichletParams([1, 1])
        assert dirichlet_density(p1, SimplexPoint([1.0])) == pytest.approx(1.0)

    def test_integrates_to_one_importance(self):
        # mean of 1/density over its own samples estimates the simplex volume
        p = DirichletParams([2, 3])
        w = dirichlet_sample(p, RngStream(5), size=200_000)
        dens = np.array(
            [dirichlet_density(p, SimplexPoint([v])) for v in w[:5000, 0]]
        )
        inv = 1.0 / dens
        est = inv.mean()
        se = inv.std(ddof=1) / math.sqrt(len(inv))
        assert abs(est - 1.0) <= 4 * se


class TestSampling:
    def test_symmetric_mean(self):
        w = dirichlet_sample(DirichletParams([1, 1]), RngStream(11), size=10**6)
        m = w[:, 0].mean()
        se = w[:, 0].std(ddof=1) / 1000.0
        assert abs(m - 0.5) <= 4 * se

    def test_mean_matches_ratio(self):
        # E Z_1 = a_1/s oracle
        w = dirichlet_sample(DirichletParams([2, 3]), RngStream(12), size=10**6)
        m = w[:, 0].mean()
        se = w[:, 0].std(ddof=1) / 1000.0
        assert abs(m - 0.4) <= 4 * se

    def test_mean_below_one_params(self):
        w = dirichlet_sample(DirichletParams([0.5, 0.5, 1]), RngStream(13), size=10**6)
        for j in range(2):
            m = w[:, j].mean()
            se = w[:, j].std(ddof=1) / 1000.0
            assert abs(m - 0.25) <= 4 * se

    def test_moments_match_exact_many_params(self):
        # all mixed moments of total degree <= 3 against the exact formula,
        # for five parameter vectors including one below 1
        params = [(1, 1), (2, 3), (0.5, 0.5), (1, 1, 1), (0.5, 2, 1)]
        rng = RngStream(99)
        for idx, a in enumerate(params):
            p = DirichletParams(a)
            K = p.dim
            w = dirichlet_sample(p, rng.child(idx), size=200_000)
            full = np.column_stack([w, 1.0 - w.sum(axis=1)])
            for c in _exponents(K, 3):
                vals = np.prod(full ** np.array(c), axis=1)
                est = vals.mean()
                se = vals.std(ddof=1) / math.sqrt(len(vals))
                exact = float(dirichlet_mixed_moment(p, c))
                assert abs(est - exact) <= 4 * se + 1e-12, (a, c)

    def test_stream_reproducibility(self):
        a = DirichletParams([2, 1])
        w1 = dirichlet_sample(a, RngStream(7, (3,)), size=100)
        w2 = dirichlet_sample(a, RngStream(7, (3,)), size=100)
        assert np.array_equal(w1, w2)
        w3 = dirichlet_sample(a, RngStream(7, (4,)), size=100)
        assert not np.array_equal(w1, w3)


def _exponents(K, deg):
    if K == 0:
        yield ()
        return
    for e in range(deg + 1):
        for rest in _exponents(K - 1, deg - e):
            yield (e,) + rest


class TestMixedMoment:
    def test_beta_second_moment(self):
        # integral oracle: E Z^2 for Beta(1,1) is 1/3
        assert dirichlet_mixed_moment(DirichletParams([1, 1]), (2, 0)) == Fraction(1, 3)

    def test_first_moment(self):
        assert dirichlet_mixed_moment(DirichletParams([2, 3]), (1, 0)) == Fraction(2, 5)

    def test_empty_product(self):
        assert dirichlet_mixed_moment(DirichletParams([0.3, 9.0]), (0, 0)) == 1

    def test_exact_fraction_arithmetic(self):
        p = DirichletParams([Fraction(1, 2), Fraction(1, 2)])
        m = dirichlet_mixed_moment(p, (2, 1))
        # ((1/2)(3/2)) * (1/2) / (1*2*3) = 3/8 / 6
        assert m == Fraction(3, 8) / 6
        assert isinstance(m, Fraction)

    @given(
        st.lists(st.integers(1, 6), min_size=2, max_size=3),
        st.lists(st.integers(0, 3), min_size=2, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_recursion_property(self, a, c):
        # lowering one exponent multiplies by (a_i + c_i - 1)/(s + |c| - 1)
        if len(a) != len(c) or sum(c) == 0:
            return
        p = DirichletParams(a)
        i = next(j for j in range(len(c)) if c[j] > 0)
        lower = list(c)
        lower[i] -= 1
        m_hi = dirichlet_mixed_moment(p, c)
        m_lo = dirichlet_mixed_moment(p, lower)
        assert m_hi * (p.s + sum(c) - 1) == m_lo * (a[i] + c[i] - 1)

    @pytest.mark.parametrize("big", [10**300, int(5e306)], ids=["1e300", "5e306"])
    @pytest.mark.parametrize("c", [(1, 0), (2, 0), (3, 0), (2, 1), (0, 2)])
    def test_huge_int_beside_float(self, big, c):
        # the int rising factorials pass the float range before the float
        # ones join them; the moment itself is a product of ratios near 1
        p = DirichletParams([big, 1.5])
        m = dirichlet_mixed_moment(p, c)
        want = math.prod((big + t) / (big + 1.5 + t) for t in range(c[0]))
        want *= math.prod((1.5 + t) / (big + 1.5 + c[0] + t) for t in range(c[1]))
        assert isinstance(m, float) and m == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("a", [(2, 3), (Fraction(1, 3), 5, Fraction(7, 2)), (Fraction(1, 10**300), Fraction(1, 10**300), 1)])
    def test_ratio_products_match_the_exact_moments(self, a):
        # the float ratio products that huge weights fall back on, against
        # the exact rising factorials of the same rational law
        p = DirichletParams(a)
        exps = list(itertools.product(range(4), repeat=len(a)))
        got = _dirichlet_moments(p, exps)
        for c, m in zip(exps, got):
            assert m == pytest.approx(float(dirichlet_mixed_moment(p, c)), rel=1e-14, abs=0)
        # the leading coordinates alone, any leading shape
        assert _dirichlet_moments(p, np.array(exps)[None, :, :2]).shape == (1, len(exps))

    @pytest.mark.parametrize("a, c", [([2, 1.5], (1, 0)), ([2, 1.5], (2, 1)), ([0.3, 7], (3, 0))])
    def test_float_weights_divide_once(self, a, c):
        # within the float range the moment stays num / den, bit for bit
        p = DirichletParams(a)
        num = math.prod(ai + t for ai, ci in zip(p.a, c) for t in range(ci))
        den = math.prod(p.s + t for t in range(sum(c)))
        assert dirichlet_mixed_moment(p, c) == num / den


class TestGaussRule:
    def test_zero_weight_rows_take_no_inner_rule(self):
        # under Dir(1e6, 2e6, 1e6) about half of the outer nodes in the
        # bump's window have weight exactly 0; each used to take the inner
        # factor's whole window rule, 2.15e6 nodes in all
        a = DirichletParams((1e6, 2e6, 1e6))
        window = [(1 / 3 - 0.25, 1 / 3 + 0.25)] * 2
        z, wt = _dirichlet_rule(a, window)
        assert len(wt) == len(z) < 1.2e6
        # the window holds the whole law, and dropping nodes lost no mass
        assert abs(float(wt.sum()) - 1.0) < 1e-9


class TestTheta:
    def test_all_ones(self):
        th, rate = theta_exponent(DirichletParams([1, 1]))
        assert th == 1 and rate == 0.25

    def test_below_one(self):
        p = DirichletParams([0.5, 0.5])
        assert p.theta_wedge == 0.5
        assert p.theta_circ == 1.0
        th, rate = theta_exponent(p)
        assert th == pytest.approx(1 / 3)
        assert rate == pytest.approx(0.1)

    def test_large_params(self):
        th, rate = theta_exponent(DirichletParams([2, 3, 4]))
        assert th == 1 and rate == 0.25

    @given(st.lists(st.floats(1.0, 50.0), min_size=2, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_at_least_one_forces_theta_one(self, a):
        th, _ = theta_exponent(DirichletParams(a))
        assert th == 1


class TestParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(SimplexError):
            DirichletParams([1, 0])
        with pytest.raises(SimplexError):
            DirichletParams([1, -2])

    def test_sum_exact_for_fractions(self):
        p = DirichletParams([Fraction(1, 3), Fraction(2, 3)])
        assert p.s == 1

