"""Offspring-law moments, identities, and samplers."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirstein.offspring import (
    IdentityCheck,
    OffspringError,
    OffspringModel,
    _identity_rows,
    aggregate_moments,
    falling_moment,
    mohle_diagnostics,
    moments,
    ordered_moment,
    sample_offspring,
    verify_moment_identities,
)
from dirstein.simplex import RngStream, _falling
from _oracles import distinct_moment_bruteforce, enumerate_law, offspring_law

# Hand-computed values, frozen.
WF4_ALPHA = Fraction(3, 4)
WF4_BETA = Fraction(3, 8)
WF4_GAMMA = Fraction(3, 32)
WF4_EV1_CUBED = Fraction(29, 8)
WF4_EV1SQ_V2V3 = Fraction(15, 32)
MORAN4_EV1V2 = Fraction(5, 6)
MORAN4_EV1SQ = Fraction(3, 2)
MORAN4_AGG_EM2_X2 = Fraction(14, 3)


def takeover_table(N):
    """One parent gets all N offspring, surely."""
    return OffspringModel.explicit(N, {tuple([N] + [0] * (N - 1)): Fraction(1)})


class TestConstruction:
    def test_small_population_rejected(self):
        with pytest.raises(OffspringError):
            OffspringModel.wright_fisher(1)

    def test_bad_phi_rejected(self):
        with pytest.raises(OffspringError):
            OffspringModel.dirichlet_multinomial(5, 0)

    def test_explicit_validation(self):
        with pytest.raises(OffspringError, match="sum to N"):
            OffspringModel.explicit(3, {(2, 0, 0): 1})
        with pytest.raises(OffspringError, match="negative count"):
            OffspringModel.explicit(3, {(4, -1, 0): 1})
        with pytest.raises(OffspringError, match="N=3 entries"):
            OffspringModel.explicit(3, {(2, 1): 1})
        with pytest.raises(OffspringError, match="not 1"):
            OffspringModel.explicit(3, {(3, 0, 0): Fraction(1, 2)})

    def test_degenerate_rejected(self):
        with pytest.raises(OffspringError, match="degenerate"):
            OffspringModel.explicit(3, {(1, 1, 1): 1})
        # alpha = 0 is equivalent, reached through moments() for near-misses
        m = OffspringModel.explicit(
            3, {(1, 1, 1): Fraction(1, 2), (2, 1, 0): Fraction(1, 2)}
        )
        assert moments(m).alpha == Fraction(1, 3)

    def test_probabilities_renormalized_exactly(self):
        # off by 5e-10, inside the tolerance; stored probs must sum to 1
        eps = Fraction(5, 10**10)
        m = OffspringModel.explicit(
            2, {(2, 0): Fraction(1, 2) + eps, (1, 1): Fraction(1, 2)}
        )
        assert sum(p for _, p in m.table) == 1

    def test_from_file(self, tmp_path):
        path = tmp_path / "law.txt"
        path.write_text(
            "# takeover with a neutral escape\n"
            "multiset: 3,0,0 ; prob: 1/4\n"
            "multiset: 1,1,1 ; prob: 0.5\n"
            "multiset: 0,1,2 ; prob: 1/4\n"
        )
        m = OffspringModel.from_file(path)
        assert m.N == 3
        table = dict(m.table)
        assert table[(0, 0, 3)] == Fraction(1, 4)
        assert table[(1, 1, 1)] == Fraction(1, 2)
        assert table[(0, 1, 2)] == Fraction(1, 4)

    def test_from_file_bad_line(self, tmp_path):
        path = tmp_path / "law.txt"
        path.write_text("multiset: 3,0,0 prob 1\n")
        with pytest.raises(OffspringError, match="cannot parse"):
            OffspringModel.from_file(path)


class TestEnumeration:
    # Wright-Fisher and Dirichlet-multinomial laws are enumerated only by
    # the test oracle, whose laws these cases check
    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(2),
            OffspringModel.wright_fisher(5),
            OffspringModel.wright_fisher(8),
            OffspringModel.moran(6),
            OffspringModel.dirichlet_multinomial(6, Fraction(1, 2)),
            takeover_table(4),
        ],
        ids=["wf2", "wf5", "wf8", "moran6", "dm6", "table4"],
    )
    def test_total_probability_one(self, m):
        law = list(offspring_law(m))
        assert sum(p for _, p in law) == 1
        assert all(sum(c) == m.N for c, _ in law)
        assert all(p > 0 for _, p in law)

    def test_wf2_law(self):
        law = dict(offspring_law(OffspringModel.wright_fisher(2)))
        assert law == {(1, 1): Fraction(1, 2), (0, 2): Fraction(1, 2)}

    def test_moran_law(self):
        law = dict(enumerate_law(OffspringModel.moran(5)))
        assert law == {(0, 1, 1, 1, 2): Fraction(1)}

    def test_closed_form_laws_not_enumerated(self):
        # their falling moments are closed forms at every N
        for m in (OffspringModel.wright_fisher(4), OffspringModel.dirichlet_multinomial(4, 1)):
            with pytest.raises(OffspringError, match="per multiset"):
                list(enumerate_law(m))

    def test_moran_enumeration_any_size(self):
        law = list(enumerate_law(OffspringModel.moran(500)))
        assert len(law) == 1


def oracle_factorial_moments(m):
    """Independent route to (alpha, beta, gamma, delta): plain sums over the
    enumerated law, no permutation machinery."""

    def fall(v, k):
        out = 1
        for t in range(k):
            out *= v - t
        return out

    N = m.N
    alpha = beta = gamma = delta = Fraction(0)
    for counts, prob in offspring_law(m):
        alpha += prob * Fraction(sum(fall(c, 2) for c in counts), N)
        beta += prob * Fraction(sum(fall(c, 3) for c in counts), N)
        delta += prob * Fraction(sum(fall(c, 4) for c in counts), N)
        pair = sum(
            fall(counts[i], 2) * fall(counts[j], 2)
            for i in range(N)
            for j in range(N)
            if i != j
        )
        gamma += prob * Fraction(pair, N * (N - 1))
    return alpha, beta, gamma, delta


class TestMoments:
    def test_wright_fisher_frozen(self):
        mom = moments(OffspringModel.wright_fisher(4))
        assert mom.alpha == WF4_ALPHA
        assert mom.beta == WF4_BETA
        assert mom.gamma == WF4_GAMMA
        assert mom.delta == WF4_GAMMA

    def test_moran_frozen(self):
        mom = moments(OffspringModel.moran(4))
        assert mom.alpha == Fraction(1, 2)
        assert mom.beta == mom.gamma == mom.delta == 0

    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(4),
            OffspringModel.wright_fisher(7),
            OffspringModel.moran(5),
            OffspringModel.dirichlet_multinomial(5, 2),
            OffspringModel.dirichlet_multinomial(6, Fraction(1, 3)),
            takeover_table(5),
        ],
        ids=["wf4", "wf7", "moran5", "dm5", "dm6", "table5"],
    )
    def test_closed_forms_match_enumeration(self, m):
        mom = moments(m)
        assert (mom.alpha, mom.beta, mom.gamma, mom.delta) == oracle_factorial_moments(m)

    def test_takeover_moments(self):
        # single parent takes the whole next generation
        mom = moments(takeover_table(6))
        assert mom.alpha == 5
        assert mom.beta == 20
        assert mom.delta == 60
        assert mom.gamma == 0

    def test_dm_interpolates_wright_fisher(self):
        # phi -> infinity recovers equal weights; at phi = 10^6 the gap is tiny
        big = moments(OffspringModel.dirichlet_multinomial(5, 10**6))
        wf = moments(OffspringModel.wright_fisher(5))
        assert abs(float(big.alpha - wf.alpha)) < 1e-5
        assert abs(float(big.beta - wf.beta)) < 1e-5


class TestIdentities:
    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(4),
            OffspringModel.wright_fisher(6),
            OffspringModel.wright_fisher(8),
            OffspringModel.moran(4),
            OffspringModel.moran(6),
            OffspringModel.dirichlet_multinomial(5, Fraction(3, 2)),
            takeover_table(4),
        ],
        ids=["wf4", "wf6", "wf8", "moran4", "moran6", "dm5", "table4"],
    )
    def test_exact_residuals_zero(self, m):
        checks = verify_moment_identities(m)
        assert len(checks) == 10
        live = [c for c in checks if not c.skipped]
        assert len(live) == 10
        for c in live:
            assert c.mode == "exact"
            assert c.lhs == c.rhs, c.name
            assert c.residual == 0.0

    def test_frozen_ordered_moments(self):
        wf4 = OffspringModel.wright_fisher(4)
        assert ordered_moment(wf4, (3,)) == WF4_EV1_CUBED
        assert ordered_moment(wf4, (2, 1, 1)) == WF4_EV1SQ_V2V3
        moran4 = OffspringModel.moran(4)
        assert ordered_moment(moran4, (1, 1)) == MORAN4_EV1V2
        assert ordered_moment(moran4, (2,)) == MORAN4_EV1SQ

    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.dirichlet_multinomial(8, Fraction(1, 3)),
            OffspringModel.wright_fisher(7),
            OffspringModel.moran(12),
            OffspringModel.explicit(4, {(0, 0, 1, 3): Fraction(1, 2), (0, 1, 1, 2): Fraction(1, 2)}),
            OffspringModel.explicit(
                6, {(0, 0, 0, 2, 2, 2): Fraction(1, 3), (0, 0, 1, 1, 1, 3): Fraction(2, 3)}
            ),
        ],
        ids=["dm8", "wf7", "moran12", "table4", "table6"],
    )
    def test_value_classes_match_permutation_loop(self, m):
        # every identity's powers, and the falling orders behind alpha..delta
        law = list(offspring_law(m))
        for _, powers, _ in _identity_rows(m.N, moments(m)):
            assert ordered_moment(m, powers) == distinct_moment_bruteforce(
                law, m.N, pow, powers
            ), powers
        mom = moments(m)
        if m.kind == "explicit-table":
            fall = [
                distinct_moment_bruteforce(law, m.N, _falling, orders)
                for orders in ((2,), (3,), (2, 2), (4,))
            ]
            assert [mom.alpha, mom.beta, mom.gamma, mom.delta] == fall

    def test_small_population_skips_flagged(self):
        checks = verify_moment_identities(OffspringModel.wright_fisher(2))
        skipped = {c.name for c in checks if c.skipped}
        assert skipped == {"E V1V2V3", "E V1V2V3V4", "E V1^2V2V3"}
        checks3 = verify_moment_identities(OffspringModel.wright_fisher(3))
        skipped3 = {c.name for c in checks3 if c.skipped}
        assert skipped3 == {"E V1V2V3V4"}

    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(20),
            OffspringModel.wright_fisher(10**6),
            OffspringModel.dirichlet_multinomial(1000, Fraction(2, 3)),
            OffspringModel.dirichlet_multinomial(10**6, Fraction(5, 2)),
            OffspringModel.moran(10**6),
        ],
        ids=["wf20", "wf1e6", "dm1000", "dm1e6", "moran1e6"],
    )
    def test_large_population_is_exact(self, m):
        t0 = time.perf_counter()
        checks = verify_moment_identities(m)
        assert time.perf_counter() - t0 < 0.1
        for c in checks:
            assert c.mode == "exact" and c.lhs == c.rhs and c.residual == 0.0, c.name

    @pytest.mark.parametrize("N", range(2, 9))
    def test_closed_forms_match_oracle_enumeration(self, N):
        # every identity's powers, their falling orders and alpha..delta
        # against plain loops over the oracle's enumerated multisets
        for m in (
            OffspringModel.wright_fisher(N),
            OffspringModel.dirichlet_multinomial(N, Fraction(1, 3)),
            OffspringModel.dirichlet_multinomial(N, Fraction(5, 2)),
        ):
            law = list(offspring_law(m))
            for _, powers, _ in _identity_rows(N, moments(m)):
                if len(powers) > N:
                    continue
                assert ordered_moment(m, powers) == distinct_moment_bruteforce(
                    law, N, pow, powers
                ), (m, powers)
                assert falling_moment(m, powers) == distinct_moment_bruteforce(
                    law, N, _falling, powers
                ), (m, powers)
            mom = moments(m)
            assert (mom.alpha, mom.beta, mom.gamma, mom.delta) == oracle_factorial_moments(m)

    @settings(max_examples=25, deadline=None)
    @given(
        weights=st.lists(
            st.integers(min_value=0, max_value=5), min_size=5, max_size=5
        ).filter(lambda w: sum(w) > 0)
    )
    def test_identities_hold_for_any_exchangeable_law(self, weights):
        # compositions of 4 into 4 parts, weighted arbitrarily: the ten
        # identities are structural, not model-specific
        multisets = [(0, 0, 1, 3), (0, 1, 1, 2), (1, 1, 1, 1), (0, 0, 2, 2), (0, 0, 0, 4)]
        total = sum(weights)
        table = {
            ms: Fraction(w, total) for ms, w in zip(multisets, weights) if w > 0
        }
        if table.get((1, 1, 1, 1)) == 1:
            table[(0, 1, 1, 2)] = Fraction(1, 10**12)  # dodge the degenerate law
        m = OffspringModel.explicit(4, table)
        for c in verify_moment_identities(m):
            assert c.lhs == c.rhs, c.name


class TestAggregate:
    def test_moran_frozen(self):
        em1, em2, em3, em4 = aggregate_moments(OffspringModel.moran(4), 2)
        assert em1 == 2
        assert em2 == MORAN4_AGG_EM2_X2

    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(4),
            OffspringModel.wright_fisher(8),
            OffspringModel.moran(6),
            OffspringModel.dirichlet_multinomial(4, Fraction(1, 2)),
        ],
        ids=["wf4", "wf8", "moran6", "dm4"],
    )
    def test_full_population_is_deterministic(self, m):
        N = m.N
        assert aggregate_moments(m, N) == (N, N**2, N**3, N**4)

    def test_zero_parents(self):
        assert aggregate_moments(OffspringModel.wright_fisher(5), 0) == (0, 0, 0, 0)

    def test_out_of_range(self):
        with pytest.raises(OffspringError):
            aggregate_moments(OffspringModel.wright_fisher(5), 6)

    @pytest.mark.parametrize("x", [1, 2, 3])
    def test_against_direct_enumeration(self, x):
        # brute force: M over the enumerated law with a fixed parent set
        m = OffspringModel.wright_fisher(4)
        want = [Fraction(0)] * 4
        for counts, prob in offspring_law(m):
            perms = set(itertools.permutations(counts))
            share = prob / len(perms)
            for v in perms:
                M = sum(v[:x])
                for k in range(4):
                    want[k] += share * M ** (k + 1)
        assert aggregate_moments(m, x) == tuple(want)


class TestSampling:
    def test_shapes_and_conservation(self):
        rng = RngStream(7)
        for m in [
            OffspringModel.wright_fisher(6),
            OffspringModel.moran(6),
            OffspringModel.dirichlet_multinomial(6, 0.5),
            takeover_table(3),
        ]:
            one = sample_offspring(m, rng.child(0))
            assert one.shape == (m.N,)
            many = sample_offspring(m, rng.child(1), size=40)
            assert many.shape == (40, m.N)
            assert (many.sum(axis=1) == m.N).all()

    def test_moran_structure(self):
        V = sample_offspring(OffspringModel.moran(8), RngStream(11), size=300)
        assert ((V == 2).sum(axis=1) == 1).all()
        assert ((V == 0).sum(axis=1) == 1).all()
        # doubling and vanishing positions occupy every index pair
        assert len(np.unique(V.argmax(axis=1))) == 8

    @pytest.mark.parametrize(
        "m",
        [
            OffspringModel.wright_fisher(6),
            OffspringModel.dirichlet_multinomial(6, Fraction(1, 2)),
            OffspringModel.explicit(
                4, {(0, 0, 1, 3): Fraction(1, 3), (0, 1, 1, 2): Fraction(2, 3)}
            ),
        ],
        ids=["wf", "dm", "table"],
    )
    def test_sampler_matches_alpha(self, m):
        S = 30_000
        V = sample_offspring(m, RngStream(404, (hash(m.kind) % 100,)), size=S).astype(
            float
        )
        est = (V * (V - 1)).mean(axis=1)
        se = est.std(ddof=1) / np.sqrt(S)
        assert abs(est.mean() - float(moments(m).alpha)) < 4 * se + 1e-12

    def test_explicit_sampler_hits_all_orderings(self):
        m = OffspringModel.explicit(3, {(0, 1, 2): 1})
        V = sample_offspring(m, RngStream(5), size=600)
        seen = {tuple(row) for row in V}
        assert seen == set(itertools.permutations((0, 1, 2)))

    def test_stream_reproducibility(self):
        m = OffspringModel.dirichlet_multinomial(5, 0.7)
        a = sample_offspring(m, RngStream(99, (1,)), size=17)
        b = sample_offspring(m, RngStream(99, (1,)), size=17)
        assert (a == b).all()


class TestMohle:
    def test_takeover_literal(self):
        # beta/(alpha N) = (N-2)/N when one parent always takes over
        diag = mohle_diagnostics(takeover_table(6))
        assert diag[1] == pytest.approx(4 / 6)
        assert diag[2] == 0.0

    def test_moran_and_wf_scalings(self):
        a_over_n, b_ratio, g_ratio = mohle_diagnostics(OffspringModel.moran(100))
        assert a_over_n == pytest.approx(2 / 100**2)
        assert b_ratio == 0 and g_ratio == 0
        _, b_wf, _ = mohle_diagnostics(OffspringModel.wright_fisher(100))
        assert b_wf == pytest.approx(98 / 100**2)

    def test_identity_check_dataclass_shape(self):
        c = IdentityCheck("x", 1, 1, 0.0, "exact")
        assert not c.skipped
