"""Chain stepping and stationary sampling."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import _oracles as oracles
from dirstein import chains
from dirstein.chains import (
    BURN_IN_CAP,
    ChainError,
    ChainModel,
    ChainState,
    RunawayError,
    _batch_step,
    check_forward,
    check_genealogy,
    check_irreducible,
    redraw_types,
    run_to_stationarity,
    step_cannings,
    step_wright_fisher,
    uses_genealogy,
)
from dirstein.metrics import _cannings_matrix, _state_grid, exact_stationary
from dirstein.mutation import MutationMatrix
from dirstein.offspring import OffspringModel
from dirstein.simplex import RngStream, as_generator

F = Fraction

IDENTITY2 = MutationMatrix([[1, 0], [0, 1]])
SYM2 = MutationMatrix.pim([F(1, 200), F(1, 200)])
# parent-dependent, so its runs take the forward kernel
CYCLIC3 = MutationMatrix(
    [
        [F(9, 10), F(3, 50), F(1, 25)],
        [F(1, 50), F(9, 10), F(2, 25)],
        [F(1, 20), F(3, 100), F(23, 25)],
    ]
)


class TestChainState:
    def test_validation(self):
        with pytest.raises(ChainError, match="negative"):
            ChainState([-1], 10)
        with pytest.raises(ChainError, match="exceed"):
            ChainState([6, 5], 10)

    def test_accessors(self):
        x = ChainState([3, 2], 10)
        assert x.K == 3
        assert x.full == (3, 2, 5)

    def test_model_validation(self):
        with pytest.raises(ChainError, match="N="):
            ChainModel(10, IDENTITY2, OffspringModel.moran(8))
        m = ChainModel(10, IDENTITY2)
        assert m.kind == "wright-fisher"
        assert m.K == 2


class TestStepWrightFisher:
    def test_absorbing_without_mutation(self):
        x = ChainState([10], 10)
        for trial in range(20):
            assert step_wright_fisher(x, IDENTITY2, RngStream(trial)).counts == (10,)

    def test_forced_mutation_single_individual(self):
        m = MutationMatrix([[0, 1], [0, 1]])
        assert step_wright_fisher(ChainState([1], 1), m, RngStream(3)).counts == (0,)

    def test_symmetric_drift_fixed_point(self):
        x = ChainState([50], 100)
        g = RngStream(17).gen
        vals = [step_wright_fisher(x, SYM2, g).counts[0] for _ in range(4000)]
        vals = np.array(vals, dtype=float)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - 50) < 4 * se

    @settings(max_examples=20, deadline=None)
    @given(x1=st.integers(0, 6), x2=st.integers(0, 6), seed=st.integers(0, 1000))
    def test_conservation(self, x1, x2, seed):
        m = MutationMatrix.pim([0.1, 0.05, 0.2])
        x = ChainState([x1, x2], 12)
        nxt = step_wright_fisher(x, m, RngStream(seed))
        assert sum(nxt.full) == 12
        assert all(c >= 0 for c in nxt.full)

    def test_dimension_check(self):
        with pytest.raises(ChainError, match="dimension"):
            step_wright_fisher(ChainState([1, 1], 5), IDENTITY2, RngStream(0))


def _chi2_pvalue(rows, states, probs):
    """Pearson chi-square of the count rows drawn against the law probs on
    the state grid; the least likely states are pooled into one cell that
    expects at least 5 draws."""
    index = {tuple(int(c) for c in row): i for i, row in enumerate(states)}
    observed = np.zeros(len(probs))
    uniq, hits = np.unique(rows, axis=0, return_counts=True)
    for row, h in zip(uniq, hits):
        observed[index[tuple(int(c) for c in row)]] += h
    expected = probs * len(rows)
    order = np.argsort(expected)
    cut = int(np.searchsorted(np.cumsum(expected[order]), 5.0)) + 1
    pooled, rest = order[:cut], order[cut:]
    o = np.append(observed[rest], observed[pooled].sum())
    e = np.append(expected[rest], expected[pooled].sum())
    stat = float(((o - e) ** 2 / e).sum())
    return scipy_stats.chi2.sf(stat, len(o) - 1)


# (chain, start counts) for one forward step against its exact row
_ONE_STEP_CASES = {
    "dm-k3-n6": (ChainModel(6, CYCLIC3, OffspringModel.dirichlet_multinomial(6, F(1, 2))), (2, 3)),
    "explicit-k2-n4": (
        ChainModel(
            4,
            MutationMatrix.pim([F(1, 10), F(1, 5)]),
            OffspringModel.explicit(4, {(0, 0, 1, 3): F(1, 2), (0, 1, 1, 2): F(1, 2)}),
        ),
        (1,),
    ),
    "moran-k3-n6": (ChainModel(6, CYCLIC3, OffspringModel.moran(6)), (1, 2)),
    "wf-k3-n6": (ChainModel(6, CYCLIC3, OffspringModel.wright_fisher(6)), (1, 2)),
}


class TestStepCannings:
    def test_moran_absorbing(self):
        x = ChainState([6], 6)
        m = OffspringModel.moran(6)
        for trial in range(10):
            assert step_cannings(x, m, IDENTITY2, RngStream(trial)).counts == (6,)

    def test_moran_one_step_law(self):
        # X1=2 of N=4, no mutation: X' is 1, 2, 3 with probability 1/3 each
        x = ChainState([2], 4)
        m = OffspringModel.moran(4)
        g = RngStream(23).gen
        vals = np.array(
            [step_cannings(x, m, IDENTITY2, g).counts[0] for _ in range(6000)]
        )
        for target in (1, 2, 3):
            freq = (vals == target).mean()
            se = np.sqrt(freq * (1 - freq) / len(vals))
            assert abs(freq - 1 / 3) < 4 * se + 1e-9

    def test_wf_offspring_takes_the_multinomial_kernel(self):
        # one kernel per chain type: the same stream gives the same states;
        # the runs need parent-dependent mutation to take the forward kernel
        N = 12
        mut = MutationMatrix.pim([0.04, 0.08, 0.02])
        wf = OffspringModel.wright_fisher(N)
        for seed, sx in enumerate([(4, 4), (0, 0), (12, 0), (1, 7), (5, 2)]):
            x = ChainState(sx, N)
            a = step_cannings(x, wf, mut, RngStream(seed))
            b = step_wright_fisher(x, mut, RngStream(seed))
            assert a == b
        model = ChainModel(N, CYCLIC3, wf)
        run = run_to_stationarity(model, 64, RngStream(5), burn_in=20, thin=2)
        ref = run_to_stationarity(ChainModel(N, CYCLIC3), 64, RngStream(5), burn_in=20, thin=2)
        assert run.meta["sampler"] == "forward"
        assert (run.samples == ref.samples).all()

    def test_explicit_table_conservation(self):
        table = OffspringModel.explicit(
            4, {(0, 0, 1, 3): F(1, 2), (0, 1, 1, 2): F(1, 2)}
        )
        mut = MutationMatrix.pim([0.1, 0.1])
        x = ChainState([2], 4)
        for trial in range(30):
            nxt = step_cannings(x, table, mut, RngStream(trial, (5,)))
            assert sum(nxt.full) == 4

    @pytest.mark.parametrize("name", sorted(_ONE_STEP_CASES))
    def test_one_step_follows_the_exact_rows(self, name):
        """One forward step from x against its exact row.  The step gives
        each type's parents consecutive slots of V, which has the row's law
        only because sample_offspring draws exchangeable vectors: every
        ordering of a drawn multiset equally likely.  This guards that
        invariant; p < 1e-4 fails."""
        model, x = _ONE_STEP_CASES[name]
        states = _state_grid(model.N, model.K)
        exact = model
        if model.kind == "wright-fisher":
            # the step takes the multinomial kernel; the row is that of the
            # same chain driven by an explicit table of the Wright-Fisher law
            law = dict(oracles.offspring_law(model.offspring))
            exact = ChainModel(model.N, model.mutation, OffspringModel.explicit(model.N, law))
        row = _cannings_matrix(exact, states)[np.flatnonzero((states == x).all(axis=1))[0]]
        counts = np.tile(x, (200_000, 1)).astype(np.int64)
        nxt = _batch_step(RngStream(91).gen, counts, model, model.mutation.array())
        assert _chi2_pvalue(nxt, states, row) > 1e-4


class TestIrreducibility:
    def test_pim_positive_passes(self):
        check_irreducible(MutationMatrix.pim([0.1, 0.2, 0.05]))

    def test_identity_rejected(self):
        with pytest.raises(ChainError, match="reducible"):
            check_irreducible(IDENTITY2)

    def test_one_way_rejected(self):
        m = MutationMatrix([[F(9, 10), F(1, 10)], [0, 1]])
        with pytest.raises(ChainError, match="type 1"):
            check_irreducible(m)

    def test_cycle_passes(self):
        m = MutationMatrix(
            [
                [F(9, 10), F(1, 10), 0],
                [0, F(9, 10), F(1, 10)],
                [F(1, 10), 0, F(9, 10)],
            ]
        )
        check_irreducible(m)


class TestBurnIn:
    def test_formula(self):
        # the default burn-in of a forward run, 20 N max(1, 1/(N p_min))
        m = ChainModel(50, MutationMatrix.pim([F(1, 20), F(1, 20)]))
        assert check_forward(m, 1)[0] == 1000  # rate 1/20 is fast: 20 N
        slow = ChainModel(10, MutationMatrix.pim([F(1, 1000), F(1, 1000)]))
        assert check_forward(slow, 1)[0] == 20 * 10 * 100

    def test_cap(self):
        # a default burn-in past BURN_IN_CAP is refused, not cut short
        tiny = ChainModel(100, MutationMatrix.pim([F(1, 10**9), F(1, 10**9)]))
        with pytest.raises(RunawayError) as err:
            check_forward(tiny, 1)
        assert err.value.part == "mutation"


class TestRunToStationarity:
    def test_symmetric_two_type_mean(self):
        model = ChainModel(100, SYM2)
        run = run_to_stationarity(model, 2048, RngStream(2024))
        assert run.n == 2048
        # parent-independent mutation: exact draws, no burn-in or thinning
        assert (run.burn_in, run.thin, run.meta["replicates"]) == (0, 1, 2048)
        assert abs(run.samples[:, 0].mean() - 0.5) < 0.02

    def test_asymmetric_mean_near_dirichlet(self):
        # rates (0.01, 0.005) target a = (2, 1): stationary mean near 2/3
        model = ChainModel(100, MutationMatrix.pim([F(1, 100), F(1, 200)]))
        run = run_to_stationarity(model, 2048, RngStream(77))
        assert abs(run.samples[:, 0].mean() - 2 / 3) < 0.02

    def test_moran_symmetric_mean(self):
        model = ChainModel(
            20, MutationMatrix.pim([F(1, 20), F(1, 20)]), OffspringModel.moran(20)
        )
        run = run_to_stationarity(model, 1024, RngStream(5))
        assert abs(run.samples[:, 0].mean() - 0.5) < 0.025

    def test_reducible_rejected(self):
        with pytest.raises(ChainError, match="reducible"):
            run_to_stationarity(ChainModel(10, IDENTITY2), 10, RngStream(0))

    def test_two_seeds_agree(self):
        model = ChainModel(50, MutationMatrix.pim([F(1, 50), F(1, 50)]))
        r1 = run_to_stationarity(model, 1024, RngStream(101))
        r2 = run_to_stationarity(model, 1024, RngStream(202))
        m1, m2 = r1.samples[:, 0].mean(), r2.samples[:, 0].mean()
        se = np.sqrt(
            r1.samples[:, 0].var() / r1.n + r2.samples[:, 0].var() / r2.n
        )
        # correlated within chains: allow 5 crude stderr
        assert abs(m1 - m2) < 5 * se + 0.01

    def test_reproducible_and_diagnostic(self):
        model = ChainModel(30, MutationMatrix.pim([0.05, 0.02]))
        r1 = run_to_stationarity(model, 256, RngStream(9, (4,)))
        r2 = run_to_stationarity(model, 256, RngStream(9, (4,)))
        assert (r1.samples == r2.samples).all()
        assert np.isfinite(r1.drift_z).all()

    def test_k3_means_near_dirichlet(self):
        # symmetric three-type rates: stationary mean 1/3 per coordinate
        model = ChainModel(60, MutationMatrix.pim([F(1, 60)] * 3))
        run = run_to_stationarity(model, 2048, RngStream(404))
        assert np.abs(run.samples.mean(axis=0) - 1 / 3).max() < 0.025


# (chain, draws): draw counts keep each case near a second of sampling
_GENEALOGY_CASES = {
    "wf-k2-n20": (ChainModel(20, MutationMatrix.pim([F(3, 80), F(5, 80)])), 40_000),
    "wf-k3-n12": (ChainModel(12, MutationMatrix.pim([F(1, 24), F(1, 12), F(1, 16)])), 40_000),
    "moran-k2-n20": (
        ChainModel(20, MutationMatrix.pim([F(1, 100), F(1, 50)]), OffspringModel.moran(20)),
        20_000,
    ),
    "dm-k3-n8": (
        ChainModel(
            8,
            MutationMatrix.pim([F(3, 100), F(1, 20), F(1, 25)]),
            OffspringModel.dirichlet_multinomial(8, 1),
        ),
        40_000,
    ),
    "explicit-k3-n6": (
        ChainModel(
            6,
            MutationMatrix.pim([F(1, 20), F(1, 25), F(3, 100)]),
            OffspringModel.explicit(
                6,
                {
                    (0, 0, 1, 1, 2, 2): F(1, 2),
                    (0, 1, 1, 1, 1, 2): F(1, 4),
                    (0, 0, 0, 1, 2, 3): F(1, 4),
                },
            ),
        ),
        40_000,
    ),
}


@functools.lru_cache(maxsize=None)
def _genealogy_run(name):
    """The run of a genealogy case, shared by the tests of its draws and of
    their type redraws."""
    model, n = _GENEALOGY_CASES[name]
    return run_to_stationarity(model, n, RngStream(61))


class TestGenealogy:
    @pytest.mark.parametrize("name", sorted(_GENEALOGY_CASES))
    def test_draws_follow_the_exact_table(self, name):
        # the draws are independent, so Pearson's statistic is chi-square
        # distributed; p < 1e-4 fails, a false-alarm rate of 1e-4 per case
        # and 5e-4 over the five
        model, n = _GENEALOGY_CASES[name]
        run = _genealogy_run(name)
        assert run.meta["sampler"] == "genealogy"
        table = exact_stationary(model)
        draws = np.rint(run.samples * table.N).astype(np.int64)
        assert _chi2_pvalue(draws, table.counts, table.probs) > 1e-4

    @pytest.mark.parametrize("name", sorted(_GENEALOGY_CASES))
    def test_redrawn_types_follow_the_exact_table(self, name):
        # the blocks of each draw with fresh iid types from pi/|pi|: every
        # copy is an exact stationary draw, so one copy passes the same
        # chi-square test (false-alarm rate 1e-4 per case)
        model, n = _GENEALOGY_CASES[name]
        run = _genealogy_run(name)
        copies = redraw_types(run, 2, RngStream(61).child(0))
        assert copies.shape == (2, n, model.K - 1)
        assert (copies[0] == run.samples).all()
        assert (copies[1] != run.samples).any()
        table = exact_stationary(model)
        draws = np.rint(copies[1] * table.N).astype(np.int64)
        assert (draws == copies[1] * table.N).all()
        assert _chi2_pvalue(draws, table.counts, table.probs) > 1e-4

    def test_redraws_are_seeded_and_leave_the_run_alone(self):
        model = ChainModel(20, MutationMatrix.pim([F(1, 40), F(1, 30), F(1, 50)]))
        run = run_to_stationarity(model, 200, RngStream(3))
        before = run.samples.copy()
        a = redraw_types(run, 5, RngStream(3).child(0))
        b = redraw_types(run, 5, RngStream(3).child(0))
        assert a.shape == (5, 200, 2) and (a == b).all()
        assert (run.samples == before).all()
        # every copy counts whole individuals
        assert (np.rint(a * 20) == a * 20).all()
        # a longer redraw starts with the same copies
        assert (redraw_types(run, 7, RngStream(3).child(0))[:5] == a).all()
        assert (redraw_types(run, 1, RngStream(3).child(0))[0] == run.samples).all()

    def test_redraws_need_the_blocks(self):
        model = ChainModel(10, MutationMatrix.pim([F(1, 20), F(1, 20)]))
        run = run_to_stationarity(model, 10, RngStream(0))
        with pytest.raises(ChainError, match="at least one copy"):
            redraw_types(run, 0, RngStream(0))
        forward = run_to_stationarity(ChainModel(6, CYCLIC3), 20, RngStream(0), burn_in=10, thin=2)
        assert forward.partition is None
        with pytest.raises(ChainError, match="only a genealogy run"):
            redraw_types(forward, 2, RngStream(0))

    def test_provenance(self):
        model = ChainModel(20, MutationMatrix.pim([F(1, 40), F(1, 40)]))
        run = run_to_stationarity(model, 300, RngStream(4), replicates=7)
        assert (run.burn_in, run.thin) == (0, 1)
        assert run.meta["replicates"] == 300  # every draw is its own chain
        assert run.meta["sampler"] == "genealogy"
        assert 0 < run.meta["generations"] < BURN_IN_CAP
        assert ((run.samples * 20) == np.rint(run.samples * 20)).all()

    def test_wf_offspring_and_none_draw_alike(self):
        mut = MutationMatrix.pim([F(1, 30), F(1, 20), F(1, 40)])
        a = run_to_stationarity(
            ChainModel(15, mut, OffspringModel.wright_fisher(15)), 500, RngStream(8)
        )
        b = run_to_stationarity(ChainModel(15, mut), 500, RngStream(8))
        assert a.meta["sampler"] == b.meta["sampler"] == "genealogy"
        assert (a.samples == b.samples).all()

    def test_blocks_do_not_depend_on_the_sample_count(self, monkeypatch):
        # two draws per block at N=20: a 5-draw run takes three blocks, and
        # its first block consumes the stream as a 2-draw run does
        monkeypatch.setattr(chains, "GENEALOGY_LINEAGES", 40)
        model = ChainModel(20, MutationMatrix.pim([F(1, 40), F(1, 40)]))
        five = run_to_stationarity(model, 5, RngStream(12))
        two = run_to_stationarity(model, 2, RngStream(12))
        assert five.n == 5
        assert (five.samples[:2] == two.samples).all()

    def test_rates_above_one_take_the_forward_kernel(self):
        # every K=2 matrix is parent independent, but p12 + p21 > 1 has no
        # kill form: the forward kernel samples it
        flip = MutationMatrix([[F(2, 5), F(3, 5)], [F(7, 10), F(3, 10)]])
        assert flip.is_pim and not uses_genealogy(ChainModel(10, flip))
        run = run_to_stationarity(ChainModel(10, flip), 64, RngStream(2), burn_in=30, thin=2)
        assert run.meta["sampler"] == "forward"
        assert (run.burn_in, run.thin) == (30, 2)

    def test_forward_knobs_refused(self):
        model = ChainModel(10, MutationMatrix.pim([F(1, 20), F(1, 20)]))
        for kwargs in ({"burn_in": 10}, {"thin": 2}, {"burn_in": 0, "thin": 1}):
            with pytest.raises(ChainError, match="forward chains"):
                run_to_stationarity(model, 10, RngStream(0), **kwargs)

    def test_runaway_refused(self):
        # ln(n N)/|pi| generations: 1e-9 rates would take about 1e10
        tiny = ChainModel(30, MutationMatrix.pim([F(1, 10**9), F(1, 10**9)]))
        with pytest.raises(ChainError, match="more than 10000000"):
            run_to_stationarity(tiny, 64, RngStream(0))
        check_genealogy(ChainModel(30, MutationMatrix.pim([F(1, 10**5)] * 2)), 64)


def _pim_model(N, rates, offspring=None):
    return ChainModel(N, MutationMatrix.pim(rates), offspring)


# (chain, draws per block): N at and one below a power of two puts the size
# and parent fields at their bit-width edges; N = 2^16 and 2^16 - 1 take
# the int64 layout even for two draws
_PACKED_CASES = {
    "wf-k2-n16": (_pim_model(16, [F(1, 40), F(1, 20)]), 300),
    "wf-k2-n15": (_pim_model(15, [F(1, 40), F(1, 20)]), 300),
    "wf-k3-n64": (_pim_model(64, [F(1, 128)] * 3), 200),
    "wf-k3-n63": (_pim_model(63, [F(1, 128), F(1, 64), F(1, 100)]), 200),
    "wf-k2-n65536": (_pim_model(2**16, [F(1, 20), F(1, 20)]), 2),
    "wf-k2-n65535": (_pim_model(2**16 - 1, [F(1, 20), F(1, 30)]), 2),
    "moran-k2-n20": (_pim_model(20, [F(1, 100), F(1, 50)], OffspringModel.moran(20)), 100),
    "dm-k3-n8": (
        _pim_model(8, [F(3, 100), F(1, 20), F(1, 25)], OffspringModel.dirichlet_multinomial(8, 1)),
        300,
    ),
    "explicit-k3-n6": (_GENEALOGY_CASES["explicit-k3-n6"][0], 300),
}


class TestPackedGenealogy:
    @pytest.mark.parametrize("name", sorted(_PACKED_CASES))
    def test_block_matches_two_array_reference(self, name):
        model, B = _PACKED_CASES[name]
        cum = np.cumsum([float(r) for r in model.mutation.pim_rates])
        got = chains._genealogy_block(np.random.default_rng(5), model, B, cum)
        ref = oracles.genealogy_block(np.random.default_rng(5), model, B, cum)
        assert (got[0] == ref[0]).all() and got[1] == ref[1]
        # the same blocks, killed in the same order
        assert (got[2] == ref[2]).all() and (got[3] == ref[3]).all()
        wide = model.N.bit_length() + (model.N - 1).bit_length() + (B - 1).bit_length() > 31
        assert chains._lineage_layout(model.N, B)[0] == (np.int64 if wide else np.int32)

    @pytest.mark.parametrize("name", ["wf-k2-n15", "moran-k2-n20"])
    def test_runs_across_blocks_match_reference(self, name, monkeypatch):
        # seven draws per block: a 30-draw run takes five blocks
        model = _PACKED_CASES[name][0]
        monkeypatch.setattr(chains, "GENEALOGY_LINEAGES", 7 * model.N)
        run = run_to_stationarity(model, 30, RngStream(21))
        samples, gens, cells, sizes = oracles.genealogy_samples(
            as_generator(RngStream(21)), model, 30, 7 * model.N
        )
        assert (run.samples == samples).all() and run.meta["generations"] == gens
        assert (run.partition.cells == cells).all() and (run.partition.sizes == sizes).all()

    @pytest.mark.parametrize("name", sorted(_PACKED_CASES))
    def test_partition_rebuilds_the_counts(self, name):
        # each draw's blocks hold its N individuals, and with the types
        # they were killed with they give its counts exactly
        model, B = _PACKED_CASES[name]
        N, K = model.N, model.K
        cum = np.cumsum([float(r) for r in model.mutation.pim_rates])
        counts, _, cells, sizes = chains._genealogy_block(np.random.default_rng(9), model, B, cum)
        assert (sizes >= 1).all()
        assert (np.bincount(cells // K, weights=sizes, minlength=B) == N).all()
        assert (np.bincount(cells, weights=sizes, minlength=B * K).reshape(B, K) == counts).all()
        # and the run keeps them, numbered over its draws, with the cuts of pi/|pi|
        run = run_to_stationarity(model, 3, RngStream(9))
        part = run.partition
        assert np.allclose(part.cuts, cum[:-1] / cum[-1])
        full = np.bincount(part.cells, weights=part.sizes, minlength=3 * K).reshape(3, K)
        assert (full.sum(axis=1) == N).all() and (full[:, :-1] / N == run.samples).all()

    def test_layout_widths(self):
        # N = 2^k - 1 takes k bits for the parent and k for the size
        assert chains._lineage_layout(1023, 2048)[0] == np.int32  # 11 + 10 + 10 = 31
        assert chains._lineage_layout(1023, 2049)[0] == np.int64  # 32 bits
        assert chains._lineage_layout(2**26 - 1, 2048)[0] == np.int64  # 63 bits
        with pytest.raises(ChainError, match="64 bits per lineage, more than 63"):
            chains._lineage_layout(2**26 - 1, 2049)
        # the largest draw, parent and size round-trip at both widths
        for N, B in ((1023, 2048), (2**26 - 1, 2048), (2**16, 1), (16, 300)):
            dtype, PS, DS = chains._lineage_layout(N, B)
            lin = np.array([((B - 1) << DS) | ((N - 1) << PS) | N], dtype=dtype)
            assert lin[0] >= 0
            assert (int(lin[0] >> DS), int(lin[0] >> PS) & ((1 << (DS - PS)) - 1)) == (B - 1, N - 1)
            assert int(lin[0]) & ((1 << PS) - 1) == N

    def test_too_wide_refused_before_sampling(self):
        # one draw of N = 2^40 lineages needs 40 + 41 bits: refused, not wrapped
        huge = _pim_model(2**40, [F(1, 10), F(1, 10)])
        with pytest.raises(ChainError, match="more than 63"):
            run_to_stationarity(huge, 1, RngStream(0))


class TestForwardRunaway:
    # parent dependent, so forward; the smallest rate is 1e-9
    SLOW = MutationMatrix(
        [
            [1 - F(3, 10**9), F(1, 10**9), F(2, 10**9)],
            [F(2, 10**9), 1 - F(3, 10**9), F(1, 10**9)],
            [F(1, 10**9), F(2, 10**9), 1 - F(3, 10**9)],
        ]
    )

    def test_default_burn_in_past_the_cap_refused(self):
        model = ChainModel(30, self.SLOW)
        assert not uses_genealogy(model)
        with pytest.raises(ChainError, match="default burn-in"):
            run_to_stationarity(model, 64, RngStream(0))

    def test_explicit_lengths_past_the_cap_refused(self):
        model = ChainModel(10, CYCLIC3)
        for kwargs, part in (
            ({"burn_in": BURN_IN_CAP, "thin": 1}, "burn_in"),
            ({"burn_in": 0, "thin": BURN_IN_CAP}, "thin"),
            ({"burn_in": 10, "thin": BURN_IN_CAP // 4}, "thin"),  # 8 rounds
        ):
            with pytest.raises(chains.RunawayError, match="more than 10000000") as err:
                run_to_stationarity(model, 64, RngStream(0), replicates=8, **kwargs)
            assert err.value.part == part

    def test_plan_at_the_cap_accepted(self):
        model = ChainModel(10, CYCLIC3)
        plan = chains.check_forward(model, 64, BURN_IN_CAP - 80, 10, replicates=8)
        assert plan == (BURN_IN_CAP - 80, 10, 8, 8)
        # the default burn-in 20 N / (N p_min) with p_min = 1/50
        assert chains.check_forward(model, 64) == (1000, 10, 64, 1)
