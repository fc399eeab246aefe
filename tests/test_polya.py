"""Urn end-state sampling, the redraw pair's exact law and identity
checks, certification."""

import csv
import io
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import dm_law, urn_count_law
from dirstein.polya import (
    PolyaError,
    certify_theorem4,
    sample_final,
    urn_law,
    urn_mixed_moment,
    verify_pair_identities,
)
from dirstein.metrics import make_battery
from dirstein.simplex import DirichletParams, RngStream

# the four reference laws of the exactness suites
LAWS = [(1, 1), (F(1, 2), 2), (1, 1, 1), (F(1, 2), F(1, 2), 2)]


def rng(i=0):
    return RngStream(20_000 + i)


class TestSampleFinal:
    def test_long_urn_mean(self):
        w = sample_final((1, 1), 100_000, rng(5), 10_000)
        se = w[:, 0].std(ddof=1) / math.sqrt(len(w))
        assert abs(w[:, 0].mean() - 0.5) < 4 * se

    def test_matches_exact_moments_k3(self):
        w = sample_final((2, 1, 1), 7, rng(6), 20_000)
        for c in [(1, 0, 0), (2, 0, 0), (1, 1, 0)]:
            vals = w[:, 0] ** c[0] * w[:, 1] ** c[1]
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - float(urn_mixed_moment((2, 1, 1), 7, c))) < 4 * se

    def test_tiny_weights_leave_no_nan_rows(self):
        # the mixing weights of most urns underflow to a vertex, and of some
        # to 0/0 in every color
        a = (0.001, 0.002)
        w = sample_final(a, 30, rng(1), 2000)
        assert np.isfinite(w).all()
        for c in [(1, 0), (2, 0), (0, 1)]:
            vals = w[:, 0] ** c[0] * (1.0 - w[:, 0]) ** c[1]
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - float(urn_mixed_moment(a, 30, c))) <= 5 * se, c

    def test_rejects_empty(self):
        with pytest.raises(PolyaError):
            sample_final((1, 1), 5, rng(), 0)
        with pytest.raises(PolyaError):
            sample_final((1, 1), 0, rng(), 5)


class TestMixedMoment:
    def test_first_draw_square(self):
        assert urn_mixed_moment((1, 1), 1, (2, 0)) == F(1, 2)

    def test_martingale_mean(self):
        for n in (1, 10, 1000):
            assert urn_mixed_moment((2, 3, 1), n, (1, 0, 0)) == F(1, 3)
            assert urn_mixed_moment((2, 3, 1), n, (0, 1, 0)) == F(1, 2)

    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_martingale_mean_property(self, n, a1, a2):
        assert urn_mixed_moment((a1, a2), n, (1, 0)) == F(a1, a1 + a2)

    def test_matches_enumeration(self):
        a = (F(1), F(2))
        law = urn_count_law(a, 5)
        for c in [(1, 0), (2, 0), (3, 0), (2, 1)]:
            direct = sum(
                p * F(x[0], 5) ** c[0] * F(x[1], 5) ** c[1] for x, p in law.items()
            )
            assert urn_mixed_moment(a, 5, c) == direct

    def test_matches_enumeration_k3(self):
        a = (F(1), F(1), F(2))
        law = urn_count_law(a, 4)
        direct = sum(p * F(x[0] * x[1], 16) for x, p in law.items())
        assert urn_mixed_moment(a, 4, (1, 1, 0)) == direct

    def test_float_parameters(self):
        got = urn_mixed_moment((1.0, 1.0), 6, (2, 0))
        assert isinstance(got, float)
        assert abs(got - float(urn_mixed_moment((1, 1), 6, (2, 0)))) < 1e-14

    def test_rejects_bad_input(self):
        with pytest.raises(PolyaError):
            urn_mixed_moment((1, 1), 3, (1,))
        with pytest.raises(PolyaError):
            urn_mixed_moment((1, 1), 3, (-1, 0))
        with pytest.raises(PolyaError):
            urn_mixed_moment((1, 1), 0, (1, 0))


class TestUrnLaw:
    @pytest.mark.parametrize("a", LAWS, ids=str)
    def test_closed_form_matches_recursion(self, a):
        for n in range(9):
            assert dm_law(a, n) == urn_count_law(a, n), n

    @pytest.mark.parametrize(
        "a, n",
        [
            ((F(1, 2), 3), 800),
            ((2, F(1, 3), 1), 40),
            ((1e300, 1), 30),
            ((5e-324, 1), 30),
        ],
        ids=["k2-n800", "k3-n40", "a1e300", "a5e-324"],
    )
    def test_float_table_within_resolution(self, a, n):
        table = urn_law(a, n)
        law = dm_law(a, n)
        assert len(table.probs) == len(law) == math.comb(n + len(a) - 1, len(a) - 1)
        l1 = sum(
            abs(F(float(pr)) - law[tuple(x) + (n - sum(x),)])
            for pr, x in zip(table.probs, table.counts.tolist())
        )
        assert l1 <= table.resolution, (float(l1), table.resolution)
        # the stated floor is not vacuous
        assert table.resolution < 1e-9

    def test_rejects_zero_draws(self):
        with pytest.raises(PolyaError):
            urn_law((1, 1), 0)


class TestResamplePair:
    """The pair that redraws the final ball, by its exact joint law."""

    @staticmethod
    def _two_draw_joint():
        """Exact joint law of (W, W') for a=(1,1), n=2: all 8 outcomes."""
        joint = {}
        for d1 in (0, 1):
            x1 = [0, 0]
            x1[d1] = 1
            q = [F(x1[i] + 1, 3) for i in (0, 1)]
            for d2 in (0, 1):
                for rd in (0, 1):
                    pr = F(1, 2) * q[d2] * q[rd]
                    w = F(x1[0] + (d2 == 0), 2)
                    w2 = w + F((rd == 0) - (d2 == 0), 2)
                    joint[(w, w2)] = joint.get((w, w2), F(0)) + pr
        return joint

    def test_exchangeable(self):
        joint = self._two_draw_joint()
        assert sum(joint.values()) == 1
        for (w, w2), p in joint.items():
            assert joint[(w2, w)] == p


class TestVerifyIdentities:
    @pytest.mark.parametrize("a", [(1, 1), (2, 1), (1, 1, 1), (F(1, 2), F(1, 2))])
    def test_exact_sweep(self, a):
        for n in range(1, 9):
            rep = verify_pair_identities(a, n)
            assert rep.exact and rep.ok, (a, n)
            assert rep.drift_residual == 0
            assert rep.second_residual == 0
            assert rep.triple_excess <= 0
            assert rep.distinct_triple == 0

    def test_drift_examples(self):
        # a=(1,1), n=1: at W=1 the drift is (1 - 2)/(1*2) = -1/2, and the
        # zero-residual report certifies every reachable state hits its
        # closed form, so the formula value is the realized drift
        rep = verify_pair_identities((1, 1), 1)
        assert rep.ok and rep.states == 2
        # at W=1 the redraw moves the ball with chance 1/2, so
        # E[|D|^3 | W] = 1/2 against the cap n^-3 = 1
        assert rep.triple_excess == F(-1, 2)
        assert (F(1) - 2 * F(1)) / (1 * (1 + 2 - 1)) == F(-1, 2)
        # at W = a/s the drift target vanishes
        assert (F(1) - 2 * F(1, 2)) == 0

    def test_distinct_triple_nontrivial_for_k3(self):
        rep = verify_pair_identities((1, 1, 1), 4)
        assert rep.exact and rep.distinct_triple == 0
        # non-distinct triples do carry mass, so the zero is not vacuous
        assert rep.triple_excess < 0

    @pytest.mark.parametrize("a", LAWS, ids=str)
    def test_last_draw_color_is_exchangeable(self, a):
        # the step the check rests on: given X(n) = x, the last draw has
        # color y with chance x_y / n, whatever the weights
        s = sum(a)
        for n in range(1, 9):
            prev, law = dm_law(a, n - 1), dm_law(a, n)
            for x, pr in law.items():
                for y in range(len(a)):
                    back = list(x)
                    back[y] -= 1
                    q = F(back[y] + a[y]) / (n - 1 + s)
                    assert prev.get(tuple(back), 0) * q / pr == F(x[y], n), (x, y)

    @pytest.mark.parametrize(
        "a, n",
        [
            ((1, 1), 12),
            ((1, 1, 1, 1), 4),
            ((F(7, 3), F(5, 2)), 10_000),
            ((F(7, 3), F(5, 2), 3), 200),
            ((1, 1, 1, 1), 30),
            ((1e300, 1), 50),
            ((5e-324, 1), 50),
        ],
        ids=["k2-n12", "k4-n4", "k2-n1e4", "k3-n200", "k4-n30", "a1e300", "a5e-324"],
    )
    def test_exact_at_any_size(self, a, n):
        rep = verify_pair_identities(a, n)
        assert rep.exact and rep.ok
        assert rep.states == math.comb(n + len(a) - 1, len(a) - 1)
        assert rep.drift_residual == 0 and rep.second_residual == 0
        assert rep.triple_excess < 0 and rep.distinct_triple == 0

    def test_rejects_zero_draws(self):
        with pytest.raises(PolyaError):
            verify_pair_identities((1, 1), 0)


class TestCertify:
    def test_first_draw_goldens(self):
        cert = certify_theorem4((1, 1), 1, rng=rng(12), replicates=20_000)
        by_tag = {g.h_tag: g for g in cert.gaps}
        lin = by_tag[("monomial", (1,))]
        assert lin.gap == 0.0 and lin.stderr == 0.0 and lin.passed
        sq = by_tag[("monomial", (2,))]
        assert abs(sq.gap - 1 / 6) < 1e-15
        assert abs(sq.bound - 4 / 3) < 1e-15
        assert cert.passed

    def test_k3_certifies(self):
        cert = certify_theorem4((2, 3, 1), 1000, rng=rng(13), replicates=40_000)
        assert cert.passed
        assert len(cert.gaps) == len(make_battery(3))

    def test_square_gap_slope(self):
        # |E W1^2 - E Z1^2| decays like 1/n; monomial gaps are exact, so
        # the log-log slope is clean
        mono2 = [h for h in make_battery(2) if h.tag == ("monomial", (2,))]
        ns = [100, 1000, 10_000]
        gaps = [certify_theorem4((1, 1), n, battery=mono2).gaps[0].gap for n in ns]
        slope = np.polyfit(np.log10(ns), np.log10(gaps), 1)[0]
        assert -1.2 < slope < -0.8

    def test_monomials_need_no_rng(self):
        mono = [h for h in make_battery(2) if h.tag[0] == "monomial"]
        cert = certify_theorem4((1, 1), 50, battery=mono)
        assert cert.passed and all(g.stderr == 0.0 for g in cert.gaps)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=3),
        n=st.integers(1, 500),
    )
    @example(a=[1.293, 1.075], n=392)
    def test_float_weights_certify(self, a, n):
        # linear gaps are exactly zero against a bound of exactly zero,
        # whatever the binary value of the float weights
        mono = [h for h in make_battery(len(a)) if h.tag[0] == "monomial"]
        cert = certify_theorem4(a, n, battery=mono)
        assert cert.passed
        for g in cert.gaps:
            if sum(g.h_tag[1]) == 1:
                assert g.gap == 0.0 and g.bound == 0.0

    def test_full_battery_needs_rng(self):
        # 501501 states exceed the 1000 replicates, so the gaps are sampled
        with pytest.raises(PolyaError):
            certify_theorem4((2, 3, 1), 1000, replicates=1000)

    def test_replicates_decide_the_law(self):
        a, n = (1, 2, 1), 10
        S = math.comb(n + 2, 2)
        cert = certify_theorem4(a, n, replicates=S)
        assert (cert.law, cert.states) == ("exact", S)
        assert cert.passed and all(g.stderr == 0.0 for g in cert.gaps)
        assert 0.0 < cert.resolution < 1e-9
        with pytest.raises(PolyaError):
            certify_theorem4(a, n, replicates=S - 1)
        sampled = certify_theorem4(a, n, replicates=S - 1, rng=rng(15))
        assert (sampled.law, sampled.states, sampled.resolution) == ("sampled", S, 0.0)
        assert any(g.stderr > 0.0 for g in sampled.gaps)

    def test_k2_exact_to_1e4_draws(self):
        # criterion 4's certifications: deterministic, whatever the rng
        for n in (1, 100, 1000, 10_000):
            cert = certify_theorem4((1, 1), n, rng=rng(16))
            assert cert.law == "exact" and cert.passed, n
            assert all(g.stderr == 0.0 for g in cert.gaps), n
            assert cert.gaps == certify_theorem4((1, 1), n).gaps, n

    def test_exact_gaps_match_sampled(self):
        # 125751 states: exact at 2e5 replicates, sampled at 1e5
        a, n = (F(5, 2), F(3), F(7, 2)), 500
        exact = certify_theorem4(a, n, replicates=200_000)
        sampled = certify_theorem4(a, n, replicates=100_000, rng=rng(17))
        assert (exact.law, sampled.law) == ("exact", "sampled")
        for e, s_ in zip(exact.gaps, sampled.gaps):
            assert e.h_tag == s_.h_tag
            if e.h_tag[0] == "monomial":
                assert e == s_
            else:
                assert abs(e.gap - s_.gap) <= 4.0 * s_.stderr, e.h_tag

    def test_record_and_csv(self):
        cert = certify_theorem4((1, 1), 100, rng=rng(14), replicates=10_000)
        text = cert.record()
        assert "passed = true" in text and "A2 = 0.04" in text
        assert "law = exact" in text and "states = 101" in text
        rows = list(csv.reader(io.StringIO(cert.csv())))
        assert rows[0] == ["h_tag", "gap", "stderr", "bound", "pass"]
        assert len(rows) == len(cert.gaps) + 1
        assert {r[4] for r in rows[1:]} == {"true"}
        # numbers round-trip
        float(rows[1][1]), float(rows[1][3])
