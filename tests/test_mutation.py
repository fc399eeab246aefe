"""Mutation matrices, their summary scalars, and the drift remainder."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirstein.mutation import (
    MutationError,
    MutationMatrix,
    fit_dirichlet_params,
    remainder_R,
    summarize,
    transition_probs,
)
from dirstein.simplex import DirichletParams, SimplexPoint

# Frozen worked examples.
TAU_LOPSIDED = Fraction(1, 50)  # p12=0.06, p21=0.04 against a=(1,1), N=10
R1_LOPSIDED_AT_HALF = Fraction(-1, 100)

F = Fraction


def lopsided_k2():
    return MutationMatrix([[F(94, 100), F(6, 100)], [F(4, 100), F(96, 100)]])


def rational_matrix(K, seed):
    """Arbitrary strictly positive rational stochastic matrix."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(K):
        raw = [F(int(v), 1000) for v in rng.integers(1, 200, size=K)]
        raw[len(rows) % K] += 1 - sum(raw) if sum(raw) < 1 else 0
        total = sum(raw)
        rows.append([v / total for v in raw])
    return MutationMatrix(rows)


class TestMatrix:
    def test_row_sum_enforced(self):
        with pytest.raises(MutationError, match="sums to"):
            MutationMatrix([[0.9, 0.2], [0.5, 0.5]])
        with pytest.raises(MutationError, match="negative"):
            MutationMatrix([[1.1, -0.1], [0.5, 0.5]])
        with pytest.raises(MutationError, match="expected 2"):
            MutationMatrix([[1.0, 0.0], [0.2, 0.3, 0.5]])
        with pytest.raises(MutationError, match="2 types"):
            MutationMatrix([[1.0]])

    def test_renormalization_is_exact(self):
        eps = F(1, 10**13)
        m = MutationMatrix([[F(1, 2) + eps, F(1, 2)], [F(1, 2), F(1, 2)]])
        assert sum(m.p[0]) == 1
        assert sum(m.p[1]) == 1

    def test_pim_constructor_and_flag(self):
        m = MutationMatrix.pim([F(1, 20), F(1, 10), F(1, 20)])
        assert m.K == 3
        assert m.is_pim
        assert m.pim_rates == (F(1, 20), F(1, 10), F(1, 20))
        assert m.p[0][0] == 1 - F(1, 10) - F(1, 20)
        for row in m.p:
            assert sum(row) == 1

    def test_pim_flag_rejects_near_miss(self):
        m = MutationMatrix(
            [
                [F(9, 10), F(1, 20), F(1, 20)],
                [F(1, 20) + F(1, 10**9), F(85, 100) - F(1, 10**9), F(1, 10)],
                [F(1, 20), F(1, 10), F(85, 100)],
            ]
        )
        assert not m.is_pim
        assert m.pim_rates is None

    def test_pim_rejects_oversized_rates(self):
        # row 2 would need diagonal 1 - (0.5 + 0.6) < 0
        with pytest.raises(MutationError, match="too large"):
            MutationMatrix.pim([F(1, 2), F(3, 5), F(1, 5)])

    def test_k2_is_always_pim(self):
        # a single off-diagonal entry per column is trivially constant
        assert lopsided_k2().is_pim
        assert lopsided_k2().pim_rates == (F(4, 100), F(6, 100))

    def test_array_roundtrip(self):
        arr = lopsided_k2().array()
        assert arr.dtype == np.float64
        assert arr[0, 1] == pytest.approx(0.06)


class TestSummarize:
    def test_matched_rates_zero_tau(self):
        # p_ij = a_j/(2N) off the diagonal: tau vanishes, by construction
        a = DirichletParams([1, 1])
        m = MutationMatrix.pim([F(1, 20), F(1, 20)])
        s = summarize(m, a, 10)
        assert s.tau == 0
        assert s.mu == F(1, 10)
        assert s.sigma == F(1, 10)

    def test_lopsided_frozen(self):
        s = summarize(lopsided_k2(), DirichletParams([1, 1]), 10)
        assert s.tau == TAU_LOPSIDED
        assert s.mu == F(1, 10)

    def test_sigma_tau_per_type(self):
        # K=3: sigma_j = p_Kj + (1 - p_jj), tau_j = p_Kj + sum |p_kj - p_Kj|
        m = rational_matrix(3, seed=5)
        s = summarize(m, DirichletParams([1, 2, 3]), 8)
        p = m.p
        for j in range(2):
            assert s.sigma_j[j] == p[2][j] + sum(p[j][k] for k in range(3) if k != j)
            assert s.tau_j[j] == p[2][j] + sum(
                abs(p[k][j] - p[2][j]) for k in range(3) if k != j
            )
        assert s.sigma is None

    def test_dimension_mismatch(self):
        with pytest.raises(MutationError, match="dimension"):
            summarize(lopsided_k2(), DirichletParams([1, 1, 1]), 10)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), N=st.integers(2, 50))
    def test_tau_nonnegative_and_zero_iff_matched(self, seed, N):
        m = rational_matrix(3, seed)
        a = fit_dirichlet_params(m, N)
        s = summarize(m, a, N)
        assert s.tau >= 0
        matched = MutationMatrix.pim([v / (2 * N) for v in a.a])
        assert summarize(matched, a, N).tau == 0


class TestFit:
    def test_pim_recovers_rates(self):
        m = MutationMatrix.pim([F(1, 20), F(1, 20)])
        assert fit_dirichlet_params(m, 10).a == (1, 1)

    def test_k2_single_entries(self):
        a = fit_dirichlet_params(lopsided_k2(), 10)
        assert a.a == (F(4, 5), F(6, 5))  # 2N * p_21, 2N * p_12

    def test_k3_midpoint_median(self):
        d = F(96, 100)
        m = MutationMatrix(
            [
                [d, F(1, 100), F(3, 100)],
                [F(3, 100), d, F(1, 100)],
                [F(1, 100), F(3, 100), d],
            ]
        )
        assert fit_dirichlet_params(m, 50).a == (2, 2, 2)

    def test_zero_column_rejected(self):
        m = MutationMatrix([[1, 0], [F(1, 10), F(9, 10)]])
        with pytest.raises(MutationError, match="median is 0"):
            fit_dirichlet_params(m, 10)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        trial=st.lists(
            st.fractions(min_value=F(1, 100), max_value=2), min_size=3, max_size=3
        ),
    )
    def test_median_minimizes_tau(self, seed, trial):
        # any other positive a does no better on the L1 objective
        m = rational_matrix(3, seed)
        N = 10
        best = summarize(m, fit_dirichlet_params(m, N), N).tau
        assert summarize(m, DirichletParams(trial), N).tau >= best


class TestTransitionProbs:
    def test_identity_matrix_no_mutation(self):
        m = MutationMatrix([[1, 0], [0, 1]])
        t = transition_probs(m, [3], 8)
        assert t.q == (F(3, 8), F(5, 8))

    def test_symmetric_half(self):
        m = MutationMatrix([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        t = transition_probs(m, [2], 2)
        assert t.q[0] == F(1, 2)

    def test_substitution_frozen(self):
        m = MutationMatrix([[F(9, 10), F(1, 10)], [F(1, 5), F(4, 5)]])
        t = transition_probs(m, [2], 4)
        assert t.q[0] == F(11, 20)  # 0.9/2 + 0.2/2

    def test_validation(self):
        m = lopsided_k2()
        with pytest.raises(MutationError, match="expected 1 counts"):
            transition_probs(m, [1, 2], 8)
        with pytest.raises(MutationError, match="> N"):
            transition_probs(m, [9], 8)
        with pytest.raises(MutationError, match="negative"):
            transition_probs(m, [-1], 8)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), x1=st.integers(0, 8), x2=st.integers(0, 8))
    def test_probability_vector_and_decomposition(self, seed, x1, x2):
        m = rational_matrix(3, seed)
        N = 20
        if x1 + x2 > N:
            x1, x2 = x2 % 5, x1 % 5
        t = transition_probs(m, [x1, x2], N)
        assert sum(t.q) == 1
        assert all(v >= 0 for v in t.q)
        # q_j recombines from decay + inflow exactly
        for j in range(2):
            assert t.decay[j] + t.inflow[j] == t.q[j]


class TestRemainder:
    def test_matched_rates_vanish(self):
        a = DirichletParams([1, 2, 1])
        N = 10
        m = MutationMatrix.pim([v / (2 * N) for v in a.a])
        for w in ([F(1, 3), F(1, 3)], [0, 0], [F(7, 10), F(1, 10)]):
            assert remainder_R(m, a, N, w) == (0, 0)

    def test_lopsided_frozen(self):
        r = remainder_R(lopsided_k2(), DirichletParams([1, 1]), 10, [F(1, 2)])
        assert r == (R1_LOPSIDED_AT_HALF,)

    def test_corner_kills_column_term(self):
        # at w_j = 1 the (p_Kj - a_j/(2N)) bracket is multiplied by zero, so
        # two matrices differing only in p_K1 (balanced on the diagonal)
        # give identical R there but not elsewhere
        a = DirichletParams([1, 1, 1])
        N = 10
        base = [[F(9, 10), F(1, 20), F(1, 20)] for _ in range(3)]
        base[1] = [F(1, 20), F(9, 10), F(1, 20)]
        base[2] = [F(1, 20), F(1, 20), F(9, 10)]
        m1 = MutationMatrix(base)
        bumped = [row[:] for row in base]
        bumped[2] = [F(1, 10), F(1, 20), F(85, 100)]
        m2 = MutationMatrix(bumped)
        corner = [1, 0]
        assert remainder_R(m1, a, N, corner) == remainder_R(m2, a, N, corner)
        mid = [F(1, 2), F(1, 4)]
        assert remainder_R(m1, a, N, mid) != remainder_R(m2, a, N, mid)

    def test_accepts_simplex_point(self):
        r = remainder_R(lopsided_k2(), DirichletParams([1, 1]), 10, SimplexPoint([0.5]))
        assert r[0] == pytest.approx(-0.01)

    def test_dimension_checks(self):
        with pytest.raises(MutationError, match="dimension"):
            remainder_R(lopsided_k2(), DirichletParams([1, 1, 1]), 10, [F(1, 2)])
        with pytest.raises(MutationError, match="dimension"):
            remainder_R(lopsided_k2(), DirichletParams([1, 1]), 10, [F(1, 4), F(1, 4)])

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        x=st.lists(st.integers(0, 6), min_size=2, max_size=2),
        aseed=st.lists(st.integers(1, 8), min_size=3, max_size=3),
    )
    def test_drift_linearization_identity(self, seed, x, aseed):
        # q_j - w_j = (a_j - s w_j)/(2N) + R_j(w), exactly, for any matrix
        m = rational_matrix(3, seed)
        N = 12
        a = DirichletParams([F(v, 2) for v in aseed])
        t = transition_probs(m, x, N)
        w = [F(v, N) for v in x]
        r = remainder_R(m, a, N, w)
        for j in range(2):
            lin = (a.a[j] - a.s * w[j]) / (2 * N)
            assert t.q[j] - w[j] == lin + r[j]
