import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st_

from dirstein.simplex import DirichletParams, RngStream
from dirstein.offspring import OffspringModel, OffspringMoments, moments
from dirstein.mutation import (
    MutationMatrix,
    MutationSummary,
    fit_dirichlet_params,
    summarize,
)
from dirstein.chains import ChainModel, run_to_stationarity, _batch_step_wf
from dirstein import bounds as B
from dirstein import stein as st
from _oracles import second_bound_exact

SQRT2 = math.sqrt(2.0)


def pim_for(a: DirichletParams, N: int):
    rates = [F(v) / (2 * N) for v in a.a]
    p = MutationMatrix.pim(rates)
    return p, summarize(p, a, N)


def flat_summary(tau, mu, K):
    return MutationSummary(
        tau=tau, mu=mu, sigma_j=(0,) * (K - 1), tau_j=(0,) * (K - 1)
    )


class TestTheorem1:
    def test_pim_matched_rates(self):
        N = 100
        a = DirichletParams((1, 1))
        _, s = pim_for(a, N)
        rep = B.theorem1_bound(s, a, N, 2)
        assert rep.a1 == 0
        assert rep.a2 == F(8, N)
        assert rep.a3 == pytest.approx(64 / N**2 + 128 * SQRT2 / math.sqrt(N), abs=1e-12)
        assert rep.theta == 1.0

    def test_mu_zero_limit(self):
        rep = B.theorem1_bound(
            flat_summary(0, 0, 3), DirichletParams((1, 1, 1)), 50, 3
        )
        assert rep.a1 == 0 and rep.a2 == 0
        assert rep.a3 == pytest.approx(16 * SQRT2 * 27 / math.sqrt(50), abs=1e-12)

    def test_substitution(self):
        rep = B.theorem1_bound(
            flat_summary(F(1, 50), F(1, 10), 2), DirichletParams((1, 1)), 10, 2
        )
        assert rep.a1 == F(6, 5)

    def test_k_mismatch_raises(self):
        with pytest.raises(B.BoundError):
            B.theorem1_bound(flat_summary(0, 0, 2), DirichletParams((1, 1)), 10, 3)

    def test_rate_slopes(self):
        # matched PIM rates: A2 ~ 1/N, A3 ~ 1/sqrt(N)
        a = DirichletParams((1, 1))
        ns = [100, 1000, 10000]
        reps = [B.theorem1_bound(pim_for(a, N)[1], a, N, 2) for N in ns]
        ln = np.log(ns)
        s2 = np.polyfit(ln, np.log([float(r.a2) for r in reps]), 1)[0]
        s3 = np.polyfit(ln, np.log([float(r.a3) for r in reps]), 1)[0]
        assert abs(s2 - (-1.0)) < 0.1
        assert abs(s3 - (-0.5)) < 0.1


class TestTheorem2:
    def test_moran_exact_value(self):
        m = moments(OffspringModel.moran(4))
        rep = B.theorem2_bound(m, [F(1, 12), F(1, 12)], 4, 2)
        assert rep.a == (1, 1)
        assert rep.inputs["eta"] == F(4, 3)
        assert rep.a2 == F(41, 9)
        assert rep.inputs["radicand_eta"] == 1
        assert rep.a3 == pytest.approx(19.96, abs=0.01)

    def test_matches_independent_evaluation(self):
        cases = [
            (OffspringModel.wright_fisher(8), [F(1, 100), F(1, 50), F(3, 100)], 8, 3),
            (OffspringModel.dirichlet_multinomial(6, F(1, 2)), [F(1, 30), F(1, 20)], 6, 2),
        ]
        for model, pi, N, K in cases:
            m = moments(model)
            rep = B.theorem2_bound(m, pi, N, K)
            ora = second_bound_exact(m.alpha, m.beta, m.gamma, pi, N, K)
            assert rep.a2 == ora["A2"]
            assert rep.inputs["radicand_eta"] == ora["radical"]
            assert rep.a3 == pytest.approx(ora["A3"], abs=1e-12)

    def test_offspring_radicand(self):
        pi = [F(1, 30), F(1, 30)]
        moran = B.theorem2_bound(moments(OffspringModel.moran(6)), pi, 6, 2)
        assert moran.inputs["radicand_bg"] == 0
        dm = B.theorem2_bound(
            moments(OffspringModel.dirichlet_multinomial(6, 1)), pi, 6, 2
        )
        assert dm.inputs["radicand_bg"] > 0
        assert dm.a3 > moran.a3

    def test_small_n_raises(self):
        m = moments(OffspringModel.moran(4))
        with pytest.raises(B.BoundError):
            B.theorem2_bound(m, [F(1, 12), F(1, 12)], 3, 2)

    def test_degenerate_offspring_raises(self):
        dead = OffspringMoments(alpha=F(0), beta=F(0), gamma=F(0), delta=F(0))
        with pytest.raises(B.BoundError):
            B.theorem2_bound(dead, [F(1, 12), F(1, 12)], 6, 2)

    def test_bad_rates_raise(self):
        m = moments(OffspringModel.moran(6))
        with pytest.raises(B.BoundError):
            B.theorem2_bound(m, [F(1, 12), 0], 6, 2)
        with pytest.raises(B.BoundError):
            B.theorem2_bound(m, [F(1, 12), F(6, 5)], 6, 2)

    def test_moran_decreasing_in_n(self):
        # fixed target a=(1,1): pi_i = a_i alpha / (2(N-1)) = 1/(N(N-1))
        vals = []
        for N in (100, 1000, 10000):
            pi = [F(1, N * (N - 1))] * 2
            rep = B.theorem2_bound(moments(OffspringModel.moran(N)), pi, N, 2)
            assert rep.a == (1, 1)
            vals.append((float(rep.a2), rep.a3))
        assert vals[0][0] > vals[1][0] > vals[2][0]
        assert vals[0][1] > vals[1][1] > vals[2][1]


class TestTheorem4:
    def test_coefficients_k2(self):
        rep = B.theorem4_bound(DirichletParams((1, 1)), 10)
        assert rep.a1 == 0
        assert rep.a2 == F(2, 5)
        assert rep.coeff_h2 == pytest.approx(1 / 15)
        # (K-1)(3K-5) = 1 at K=2, so the second coefficient is (n+1)/(72 n^2)
        assert rep.a3 == F(11, 100)
        assert rep.coeff_h21 == pytest.approx(11 / (18 * 4 * 100))

    def test_coefficients_k3(self):
        rep = B.theorem4_bound(DirichletParams((1, 1, 1)), 100)
        assert rep.coeff_h21 == pytest.approx(8 * 102 / (18 * 100**2 * 5))

    def test_bad_n(self):
        with pytest.raises(B.BoundError):
            B.theorem4_bound(DirichletParams((1, 1)), 0)

    def test_check_finite(self):
        B.theorem4_bound(DirichletParams((1e300, 1e300)), 1).check_finite()
        # 18(s+2) overflows, so coeff_h21 would read 0; at n = 1, A2 = 2s
        # does not fit a float at all
        for law, n in (((10**308, 1), 20), ((10**308, 1), 1), ((5e307, 1.5), 20)):
            with pytest.raises(B.BoundError, match="overflows"):
                B.theorem4_bound(DirichletParams(law), n).check_finite()


class TestLemmaBudgets:
    def test_zero_rates(self):
        s = MutationSummary(tau=0, mu=0, sigma_j=(0, 0), tau_j=(0, 0))
        quad, cubic = B.lemma_budgets_wf(s, 25, 3)
        assert quad == 0
        assert cubic == pytest.approx((2 / 5) * (2 * SQRT2) ** 2 * 2)

    def test_single_term(self):
        s = MutationSummary(
            tau=0, mu=0, sigma_j=(F(1, 100),), tau_j=(F(1, 100),)
        )
        quad, _ = B.lemma_budgets_wf(s, 100, 2)
        assert quad == F(2, 25)

    def test_budgets_dominate_sampled_terms(self):
        # run the chain, estimate the error terms from the exact one-step
        # conditional moments, and check the closed-form budgets cover them
        N, K = 30, 2
        p = MutationMatrix.pim([F(1, 50), F(3, 100)])
        a = fit_dirichlet_params(p, N)
        summ = summarize(p, a, N)
        model = ChainModel(N=N, mutation=p)
        run = run_to_stationarity(model, 3000, RngStream(101), replicates=512)
        X = np.rint(run.samples * N).astype(np.int64)
        Pm = p.array()
        af = np.array([float(v) for v in a.a[:-1]])
        s = float(a.s)
        lam = np.eye(K - 1) / (2.0 * N)

        def sampler(g, size):
            take = X[:size]
            xp = _batch_step_wf(g, take.copy(), Pm, N)
            return take / N, xp / N

        def q_of(W):
            full = np.concatenate([W, 1.0 - W.sum(axis=1, keepdims=True)], axis=1)
            return (full @ Pm)[:, : K - 1]

        def cond_second(W):
            q = q_of(W)
            drift = q - W
            cov = (
                np.eye(K - 1)[None, :, :] * q[:, :, None]
                - q[:, :, None] * q[:, None, :]
            ) / N
            return cov + drift[:, :, None] * drift[:, None, :]

        def remainder(W):
            return (q_of(W) - W) - (af - s * W) / (2.0 * N)

        out = st.exchangeable_pair_bound(
            sampler,
            lam,
            a,
            RngStream(102),
            hooks=st.PairHooks(remainder=remainder, cond_second=cond_second),
            outer_samples=2000,
        )
        quad, cubic = B.lemma_budgets_wf(summ, N, K)
        # matched PIM rates make the drift linearization exact
        assert out.a1 < 1e-12
        assert out.a2 + 4 * out.a2_se <= float(quad)
        assert out.a3 + 4 * out.a3_se <= cubic


class TestRho:
    def test_moran_zero(self):
        assert B.rho_budget(moments(OffspringModel.moran(10)), 10) == 0

    def test_wf4_exact(self):
        assert B.rho_budget(moments(OffspringModel.wright_fisher(4)), 4) == F(215, 4)

    def test_small_n_raises(self):
        with pytest.raises(B.BoundError):
            B.rho_budget(moments(OffspringModel.moran(4)), 3)


nonneg = st_.fractions(min_value=0, max_value=1, max_denominator=40)


class TestMonotonicity:
    @given(tau=nonneg, mu=nonneg, dt=nonneg, dm=nonneg)
    @settings(max_examples=60, deadline=None)
    def test_theorem1(self, tau, mu, dt, dm):
        a = DirichletParams((1, 1))
        base = B.theorem1_bound(flat_summary(tau, mu, 2), a, 50, 2)
        up_t = B.theorem1_bound(flat_summary(tau + dt, mu, 2), a, 50, 2)
        up_m = B.theorem1_bound(flat_summary(tau, mu + dm, 2), a, 50, 2)
        assert base.a1 >= 0 and base.a2 >= 0 and base.a3 >= 0
        assert up_t.smooth_bound(1, 1, 1) >= base.smooth_bound(1, 1, 1)
        assert up_m.smooth_bound(1, 1, 1) >= base.smooth_bound(1, 1, 1)

    @given(beta=nonneg, gamma=nonneg, db=nonneg, dg=nonneg)
    @settings(max_examples=60, deadline=None)
    def test_theorem2_offspring_terms(self, beta, gamma, db, dg):
        pi = [F(1, 30), F(1, 30)]

        def a3_of(b, g):
            mom = OffspringMoments(alpha=F(1, 2), beta=b, gamma=g, delta=F(0))
            return B.theorem2_bound(mom, pi, 6, 2).a3

        base = a3_of(beta, gamma)
        assert base >= 0
        assert a3_of(beta + db, gamma) >= base
        assert a3_of(beta, gamma + dg) >= base

    @given(beta=nonneg, gamma=nonneg, delta=nonneg, d=nonneg)
    @settings(max_examples=60, deadline=None)
    def test_rho(self, beta, gamma, delta, d):
        def rho(b, g, de):
            return B.rho_budget(
                OffspringMoments(alpha=F(1, 2), beta=b, gamma=g, delta=de), 8
            )

        base = rho(beta, gamma, delta)
        assert base >= 0
        assert rho(beta + d, gamma, delta) >= base
        assert rho(beta, gamma + d, delta) >= base
        assert rho(beta, gamma, delta + d) >= base


class TestRecord:
    def test_fields_roundtrip(self):
        rep = B.theorem2_bound(
            moments(OffspringModel.moran(4)), [F(1, 12), F(1, 12)], 4, 2
        )
        text = rep.record()
        got = {}
        for line in text.strip().splitlines():
            key, _, val = line.partition(" = ")
            got[key] = val
        assert got["theorem"] == '"theorem2"'
        assert got["N"] == "4"
        assert got["K"] == "2"
        assert float(got["A2"]) == float(F(41, 9))
        assert float(got["coeff_h21"]) == rep.coeff_h21
        assert float(got["convex_rate"]) == rep.convex_rate

    def test_convex_rate_exponent(self):
        rep = B.theorem4_bound(DirichletParams((1, 1)), 10)
        total = float(rep.a2) + float(rep.a3)
        assert rep.convex_rate == pytest.approx(total ** (1 / 4))
