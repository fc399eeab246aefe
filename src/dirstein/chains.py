"""Allele-count Markov chains: Wright-Fisher and general exchangeable-
genealogy reproduction with mutation.

State is the count vector X of the first K-1 types in a population of fixed
size N (the last count is implicit).  One generation is reproduction followed
by independent per-child mutation:

* Wright-Fisher: X' is multinomial with success probabilities
  q_j(X) = sum_k p_kj X_k / N;
* general: an exchangeable offspring vector V is drawn and every child
  mutates independently given its parent's type.  Only the offspring
  totals of the type groups matter, and by exchangeability the total of
  any fixed block of x parents has the law of the total of a uniformly
  chosen x-subset, so the parents of each type take consecutive slots of V.

Stationary samples come from one of two samplers, picked by the mutation
matrix.  Under parent-independent mutation with rates pi summing to at most
1, a child mutates with probability |pi| to a type drawn from pi/|pi|,
whatever its parent's type.  Tracing the N present individuals backwards
then gives an exact stationary draw: each generation every lineage is killed
with probability |pi| and hands its block of descendants a type from
pi/|pi|, and the survivors find parents and merge, until none is left.
Draws are independent and need no burn-in.  The run keeps each draw's
blocks, and since their types are iid given the blocks, `redraw_types`
gives further exact copies of every draw at the cost of one uniform per
block.  Every other mutation matrix steps replicate blocks of forward
chains (vectorized across independent chains) through a burn-in and then
records every thin-th generation.  The module also checks the one-step
conditional moment formulas that the approximation bounds are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .mutation import MutationMatrix, transition_probs
from .offspring import KIND_WRIGHT_FISHER, OffspringModel, sample_offspring
from .simplex import RngStream, SimplexPoint, as_generator

BURN_IN_CAP = 10**7
# lineages the genealogy sampler holds at once: its draws go in blocks of
# max(1, GENEALOGY_LINEAGES // N), so memory stays bounded at any N and a
# seed gives the same samples on every machine
GENEALOGY_LINEAGES = 2**18


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class ChainState:
    """Counts of the first K-1 types; the last type holds the remainder."""

    counts: tuple
    N: int

    def __init__(self, counts: Sequence[int], N: int):
        counts = tuple(int(c) for c in counts)
        if any(c < 0 for c in counts):
            raise ChainError(f"negative count in {counts}")
        if sum(counts) > N:
            raise ChainError(f"counts {counts} exceed population size {N}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "N", int(N))

    @property
    def K(self) -> int:
        return len(self.counts) + 1

    @property
    def full(self) -> tuple:
        return self.counts + (self.N - sum(self.counts),)

    def w(self) -> tuple:
        """Frequencies as exact rationals."""
        return tuple(Fraction(c, self.N) for c in self.counts)

    def point(self) -> SimplexPoint:
        return SimplexPoint([c / self.N for c in self.counts])


@dataclass(frozen=True)
class ChainModel:
    """A reproduction kernel plus mutation; offspring=None means
    Wright-Fisher."""

    N: int
    mutation: MutationMatrix
    offspring: OffspringModel | None = None

    def __post_init__(self):
        if self.N < 1:
            raise ChainError("N must be >= 1")
        if self.offspring is not None and self.offspring.N != self.N:
            raise ChainError(
                f"offspring law is for N={self.offspring.N}, chain has N={self.N}"
            )

    @property
    def K(self) -> int:
        return self.mutation.K

    @property
    def kind(self) -> str:
        return KIND_WRIGHT_FISHER if self.offspring is None else self.offspring.kind


# ---------------------------------------------------------------------------
# batched stepping kernels; counts arrays are (R, K-1) int64


def _batch_multinomial(g, n, Q):
    """Multinomial draws row by row through conditional binomials.

    n: (R,) trial counts; Q: (R, K) success probabilities."""
    R, K = Q.shape
    out = np.zeros((R, K), dtype=np.int64)
    remaining = np.asarray(n, dtype=np.int64).copy()
    rest = np.ones(R)
    for j in range(K - 1):
        pj = np.divide(Q[:, j], rest, out=np.zeros(R), where=rest > 1e-300)
        c = g.binomial(remaining, np.clip(pj, 0.0, 1.0))
        out[:, j] = c
        remaining -= c
        rest = rest - Q[:, j]
    out[:, K - 1] = remaining
    return out


def _batch_step_wf(g, counts, P, N):
    full = np.column_stack([counts, N - counts.sum(axis=1)])
    q = full @ P / N
    return _batch_multinomial(g, np.full(len(counts), N), q)[:, :-1]


def _batch_step_cannings(g, counts, model, P, N):
    # V is exchangeable, so type r's parents take the consecutive slots
    # edges[r]..edges[r+1] and their offspring total is read off cumsum(V)
    R, Km1 = counts.shape
    K = Km1 + 1
    csum = np.zeros((R, N + 1), dtype=np.int64)
    np.cumsum(sample_offspring(model, g, size=R), axis=1, out=csum[:, 1:])
    full = np.column_stack([counts, N - counts.sum(axis=1)])
    edges = np.zeros((R, K + 1), dtype=np.int64)
    np.cumsum(full, axis=1, out=edges[:, 1:])
    n = np.diff(np.take_along_axis(csum, edges, axis=1), axis=1)
    child = np.zeros((R, K), dtype=np.int64)
    for r in range(K):
        child += _batch_multinomial(g, n[:, r], np.broadcast_to(P[r], (R, K)))
    return child[:, :-1]


def _batch_step(g, counts, model: ChainModel, P):
    # Wright-Fisher draws no offspring vector; Moran and every other
    # exchangeable law share the group-total step
    if model.kind == KIND_WRIGHT_FISHER:
        return _batch_step_wf(g, counts, P, model.N)
    return _batch_step_cannings(g, counts, model.offspring, P, model.N)


def step_wright_fisher(x: ChainState, p: MutationMatrix, rng) -> ChainState:
    """One Wright-Fisher generation: X' ~ MN(N; q(X)), first K-1 coords."""
    if p.K != x.K:
        raise ChainError("dimension mismatch")
    g = as_generator(rng)
    counts = np.array([x.counts], dtype=np.int64)
    return ChainState(_batch_step_wf(g, counts, p.array(), x.N)[0], x.N)


def step_cannings(
    x: ChainState, m: OffspringModel, p: MutationMatrix, rng
) -> ChainState:
    """One general generation: offspring vector, type-group totals,
    per-child mutation."""
    if p.K != x.K:
        raise ChainError("dimension mismatch")
    if m.N != x.N:
        raise ChainError(f"offspring law N={m.N} != state N={x.N}")
    g = as_generator(rng)
    counts = np.array([x.counts], dtype=np.int64)
    model = ChainModel(x.N, p, m)
    return ChainState(_batch_step(g, counts, model, p.array())[0], x.N)


# ---------------------------------------------------------------------------
# backward steps of the genealogy.  A lineage is one integer
# (draw << (PB + SB)) | (parent << SB) | size: the draw it belongs to, its
# parent label in the generation just stepped, and its block of present
# individuals, with SB = bit_length(N) and PB = bit_length(N - 1).  Sorting
# the packed lineages orders them by (draw, parent), so one sort per
# generation finds the lineages that merge.


def _lineage_layout(N: int, B: int):
    """Integer dtype and shifts (parent, draw) of B draws' packed lineages:
    int32 when the fields fit in 31 bits, int64 when they fit in 63."""
    SB, PB = N.bit_length(), (N - 1).bit_length()
    bits = (B - 1).bit_length() + PB + SB
    if bits > 63:
        raise ChainError(
            f"{B} genealogy draws of N={N} lineages need {bits} bits per lineage, more than 63"
        )
    return (np.int32 if bits <= 31 else np.int64), SB, PB + SB


def _back_cannings(g, draw, m: OffspringModel):
    """Parent labels of lineages sorted by draw.  The k lineages of a draw
    take k distinct child slots: the first k places of a uniformly shuffled
    list holding parent j's label V_j times."""
    first = np.flatnonzero(np.concatenate(([True], draw[1:] != draw[:-1])))
    k = np.diff(np.append(first, draw.size))
    rank = np.arange(draw.size) - np.repeat(first, k)
    D, N = len(first), m.N
    V = sample_offspring(m, g, size=D)
    labels = np.repeat(np.tile(np.arange(N), D), V.ravel()).reshape(D, N)
    g.permuted(labels, axis=1, out=labels)
    return labels[np.repeat(np.arange(D), k), rank]


def _genealogy_block(g, model: ChainModel, B: int, cum):
    """Type counts (B, K) of B exact stationary draws, the backward
    generations stepped, and the (draw, type) cell and size of every
    killed lineage's block, cell = draw * K + type.  cum is the cumulative
    sum of the rates pi."""
    N, K = model.N, model.K
    dtype, PS, DS = _lineage_layout(N, B)
    size_mask = (1 << PS) - 1
    parent_mask = ((1 << DS) - 1) ^ size_mask
    kill = cum[-1]
    lin = (np.arange(B, dtype=dtype) << DS).repeat(N) | 1
    cells, sizes = [], []  # (draw, type) cell and size of every killed lineage
    generations = 0
    while lin.size:
        generations += 1
        u = g.random(lin.size)
        draw = lin >> DS
        # a lineage alone in its draw can no longer merge, so only the type
        # it is killed with matters: draw that type now
        split = draw[1:] != draw[:-1]
        alone = np.ones(lin.size, dtype=bool)
        alone[1:] = split
        alone[:-1] &= split
        np.multiply(u, kill, out=u, where=alone)
        dead = u < kill
        killed = np.flatnonzero(dead)
        types = np.searchsorted(cum, u.take(killed), side="right")
        cells.append(draw.take(killed) * np.intp(K) + types)
        sizes.append(lin.take(killed) & size_mask)
        live = ~dead
        lin = lin[live]
        if not lin.size:
            break
        if model.kind == KIND_WRIGHT_FISHER:
            # a uniform parent each, read off the survival uniform
            v = (u[live] - kill) / (1 - kill)
            parent = np.minimum((v * N).astype(dtype), N - 1)
        else:
            parent = _back_cannings(g, draw[live], model.offspring).astype(dtype)
        # lineages of one draw with one parent become one lineage
        lin &= ~parent_mask
        lin |= parent << PS
        lin.sort()
        key = lin >> PS
        end = np.empty(lin.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=end[:-1])
        end[-1] = True
        if not end.all():
            # a boolean gather at this density mispredicts; gather by index
            ends = np.flatnonzero(end)
            total = np.cumsum(lin & size_mask, dtype=dtype).take(ends)
            total[1:] -= total[:-1].copy()
            lin = lin.take(ends)
            lin &= ~size_mask
            lin |= total
    cells, sizes = np.concatenate(cells), np.concatenate(sizes)
    counts = np.bincount(cells, weights=sizes, minlength=B * K)
    return counts.reshape(B, K), generations, cells, sizes


# ---------------------------------------------------------------------------
# stationary sampling


def check_irreducible(p: MutationMatrix):
    """Conservative static test: the off-diagonal positivity graph must be
    strongly connected, else some type dies out or is never replenished."""
    K = p.K
    adj = np.array(
        [[int(float(p.p[i][j]) > 0 and i != j) for j in range(K)] for i in range(K)]
    )
    reach = np.eye(K, dtype=np.int64) + adj
    for _ in range(K):
        reach = np.minimum(reach + reach @ reach, 1)
    if not reach.all():
        bad = int(np.argwhere(~reach)[0][1])
        raise ChainError(
            f"mutation matrix leaves type {bad + 1} unreachable; chain is reducible"
        )


def _burn_in_need(model: ChainModel) -> float:
    """20 N max(1, 1/(N p_min)) generations; p_min is the smallest positive
    off-diagonal mutation probability."""
    off = [
        float(v)
        for i, row in enumerate(model.mutation.p)
        for j, v in enumerate(row)
        if i != j and float(v) > 0
    ]
    pmin = min(off)
    return 20 * model.N * max(1.0, 1.0 / (model.N * pmin))


def default_burn_in(model: ChainModel) -> int:
    """20 N max(1, 1/(N p_min)) generations, capped at BURN_IN_CAP; p_min is
    the smallest positive off-diagonal mutation probability.  check_forward
    refuses a run that the cap would cut short."""
    return int(min(_burn_in_need(model), BURN_IN_CAP))


def uses_genealogy(model: ChainModel) -> bool:
    """True when run_to_stationarity draws the model's samples exactly from
    its genealogy: mutation is parent independent with rates pi summing to
    at most 1.  Every K=2 matrix is parent independent, but one with
    p12 + p21 > 1 has no kill form and takes the forward kernel."""
    rates = model.mutation.pim_rates
    return rates is not None and sum(rates) <= 1


class RunawayError(ChainError):
    """A run that would step more than BURN_IN_CAP generations.  `part`
    names what makes it long: "mutation" (the rates), "burn_in" or "thin"."""

    def __init__(self, part: str, message: str):
        super().__init__(message)
        self.part = part


def check_genealogy(model: ChainModel, n_samples: int):
    """Refuse a genealogy that would run away: a lineage lives about
    1/|pi| generations, so n draws of N lineages take about ln(nN)/|pi|."""
    kill = sum(model.mutation.pim_rates)
    if math.log(n_samples * model.N) > BURN_IN_CAP * kill:
        raise RunawayError(
            "mutation",
            f"mutation rates sum to {float(kill):.3g}: {n_samples} draws of "
            f"N={model.N} lineages would take about ln(nN)/|pi| generations, "
            f"more than {BURN_IN_CAP}",
        )


def check_forward(
    model: ChainModel,
    n_samples: int,
    burn_in: int | None = None,
    thin: int | None = None,
    replicates: int = 512,
):
    """The (burn_in, thin, chains, rounds) of a forward run of n_samples.

    burn_in defaults to default_burn_in and thin to N.  A run is refused
    with RunawayError when its default burn-in exceeds BURN_IN_CAP before
    capping, or when burn_in + thin * rounds does, where rounds =
    ceil(n / chains) and chains = min(replicates, n)."""
    if burn_in is None:
        need = _burn_in_need(model)
        if need > BURN_IN_CAP:
            raise RunawayError(
                "mutation",
                f"the default burn-in 20 N max(1, 1/(N p_min)) is {need:.3g} "
                f"generations, more than {BURN_IN_CAP}; p_min, the smallest "
                "mutation probability, is too small",
            )
        burn_in = int(need)
    if thin is None:
        thin = model.N
    if thin < 1 or burn_in < 0:
        raise ChainError("burn_in must be >= 0 and thin >= 1")
    R = max(1, min(int(replicates), n_samples))
    rounds = -(-n_samples // R)
    if burn_in + thin * rounds > BURN_IN_CAP:
        raise RunawayError(
            "burn_in" if burn_in >= thin * rounds else "thin",
            f"burn_in {burn_in} + thin {thin} x {rounds} rounds of {R} chains "
            f"is {burn_in + thin * rounds} generations, more than {BURN_IN_CAP}",
        )
    return burn_in, thin, R, rounds


@dataclass(frozen=True)
class BlockPartition:
    """The blocks of a genealogy run's draws.  Block i holds sizes[i] of
    the N individuals of draw cells[i] // K, and the lineage killed there
    handed all of them the type cells[i] % K.  Under parent-independent
    mutation that type is drawn from pi/|pi| independently of the blocks;
    cuts are the cumulative sums of pi/|pi| over the first K-1 types."""

    cells: np.ndarray
    sizes: np.ndarray
    cuts: np.ndarray


def _genealogy_samples(g, model: ChainModel, n_samples: int):
    cum = np.cumsum([float(r) for r in model.mutation.pim_rates])
    per_block = max(1, GENEALOGY_LINEAGES // model.N)
    rows, cells, sizes, generations = [], [], [], 0
    for start in range(0, n_samples, per_block):
        counts, gens, c, s = _genealogy_block(g, model, min(per_block, n_samples - start), cum)
        rows.append(counts[:, :-1] / model.N)
        cells.append(c + start * model.K)
        sizes.append(s)
        generations += gens
    partition = BlockPartition(np.concatenate(cells), np.concatenate(sizes), cum[:-1] / cum[-1])
    return np.concatenate(rows, axis=0), generations, partition


def _initial_counts(N, K):
    base, rem = divmod(N, K)
    full = [base + (1 if i < rem else 0) for i in range(K)]
    return full[: K - 1]


@dataclass(frozen=True)
class StationaryRun:
    """Stationary frequency samples with their provenance.

    samples rows are W = X/N (first K-1 coordinates); row i comes from
    chain i % meta["replicates"], and a genealogy run has one chain per
    row.  drift_z is the between-halves drift of first and second moments
    in crude combined stderr units; large values flag under-burning.  A
    genealogy run keeps the blocks of its draws in partition
    (`redraw_types`); a forward run has none.  The run lives in memory:
    the command line writes its samples to samples.csv."""

    samples: np.ndarray
    burn_in: int
    thin: int
    seed: str
    meta: dict = field(default_factory=dict)
    drift_z: tuple = (float("nan"), float("nan"))
    partition: BlockPartition | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.samples)

    def point(self, i: int) -> SimplexPoint:
        return SimplexPoint(self.samples[i])


def _seed_descriptor(rng) -> str:
    if isinstance(rng, RngStream):
        path = ".".join(str(v) for v in rng.path)
        return f"{rng.seed}/{path}" if path else str(rng.seed)
    return type(rng).__name__


def run_to_stationarity(
    model: ChainModel,
    n_samples: int,
    rng,
    burn_in: int | None = None,
    thin: int | None = None,
    replicates: int = 512,
) -> StationaryRun:
    """Stationary samples W = X/N of the chain.

    When uses_genealogy(model), every sample is an exact, independent draw
    traced back through the genealogy: the run has burn_in 0, thin 1 and
    n replicates, an explicit burn_in or thin raises ChainError, and
    `replicates` is not used; the run keeps the block partition of its
    draws, which `redraw_types` hands fresh types without touching the
    samples or the stream they came from.  Otherwise `replicates`
    independent chains are stepped in one vectorized block: they burn in,
    then record every thin-th generation, so wall time scales with
    burn_in + thin * n/replicates generations rather than with the total
    sample count; check_forward refuses a run of more than BURN_IN_CAP
    generations.
    meta["generations"] counts the backward generations stepped, or the
    forward chain-generations.
    """
    check_irreducible(model.mutation)
    if n_samples < 1:
        raise ChainError("need at least one sample")
    g = as_generator(rng)
    N, K = model.N, model.K
    if uses_genealogy(model):
        if burn_in is not None or thin is not None:
            raise ChainError(
                "burn_in and thin apply to forward chains; this model's "
                "samples are exact draws from its genealogy"
            )
        check_genealogy(model, n_samples)
        samples, generations, partition = _genealogy_samples(g, model, n_samples)
        sampler, burn_in, thin, R = "genealogy", 0, 1, n_samples
    else:
        partition = None
        burn_in, thin, R, rounds = check_forward(model, n_samples, burn_in, thin, replicates)
        P = model.mutation.array()
        counts = np.tile(_initial_counts(N, K), (R, 1)).astype(np.int64)
        for _ in range(burn_in):
            counts = _batch_step(g, counts, model, P)
        rows = []
        for _ in range(rounds):
            for _ in range(thin):
                counts = _batch_step(g, counts, model, P)
            rows.append(counts / N)
        samples = np.concatenate(rows, axis=0)[:n_samples]
        sampler, generations = "forward", R * (burn_in + thin * rounds)
    half = n_samples // 2
    drift = (float("nan"), float("nan"))
    if half >= 2:
        a, b = samples[:half], samples[half:]
        zs = []
        for mom in (1, 2):
            da, db = a**mom, b**mom
            se = np.sqrt(da.var(axis=0) / len(da) + db.var(axis=0) / len(db))
            z = np.abs(da.mean(axis=0) - db.mean(axis=0)) / np.where(se > 0, se, 1)
            zs.append(float(z.max()))
        drift = tuple(zs)
    return StationaryRun(
        samples=samples,
        burn_in=burn_in,
        thin=thin,
        seed=_seed_descriptor(rng),
        meta={
            "N": N,
            "K": K,
            "kind": model.kind,
            "n_samples": n_samples,
            "replicates": R,
            "sampler": sampler,
            "generations": generations,
        },
        drift_z=drift,
        partition=partition,
    )


def redraw_types(run: StationaryRun, copies: int, rng) -> np.ndarray:
    """(copies, n, K-1) frequency rows of the n draws of a genealogy run.

    Copy 0 is run.samples.  Every other copy keeps the run's block
    partition and hands each block a fresh type from pi/|pi|, iid across
    blocks and copies: the number of the K-1 cuts that one raw 64-bit
    draw per block reaches, the cuts scaled to 2^64.  Given its blocks a
    draw's types are iid from pi/|pi|, so every copy is an exact
    stationary draw, and the mean of h over the copies of a draw has the
    mean of h(W) and no more variance (conditional Monte Carlo).  The
    copies of one draw are correlated, so only that mean, one per draw,
    is iid."""
    part = run.partition
    if part is None:
        raise ChainError("only a genealogy run keeps the blocks that types are redrawn on")
    if copies < 1:
        raise ChainError("need at least one copy")
    g = as_generator(rng)
    n, K, N = run.n, int(run.meta["K"]), int(run.meta["N"])
    out = np.empty((copies,) + run.samples.shape)
    out[0] = run.samples
    base = part.cells - part.cells % K  # draw * K
    sizes = part.sizes.astype(np.float64)
    # raw bits cost less than g.random's doubles; a cut that rounds to
    # 2^64 stays at the largest float below it
    cuts = np.minimum(np.ceil(part.cuts * 2.0**64), 2.0**64 - 2**11).astype(np.uint64)
    cells = np.empty_like(base)
    for r in range(1, copies):
        bits = g.bit_generator.random_raw(len(sizes))
        np.add(base, bits >= cuts[0], out=cells)
        for cut in cuts[1:]:
            cells += bits >= cut
        counts = np.bincount(cells, weights=sizes, minlength=n * K)
        out[r] = counts.reshape(n, K)[:, :-1] / N
    return out


# ---------------------------------------------------------------------------
# conditional-moment verification (Wright-Fisher one-step formulas)


@dataclass(frozen=True)
class CondMomentCheck:
    """One state's comparison of the closed second-moment forms against
    exact multinomial moments and against simulation."""

    state: ChainState
    closed_same: tuple  # E[(W'_j - W_j)^2 | W], j = 1..K-1
    closed_cross: tuple  # E[(W'_i - W_i)(W'_j - W_j) | W], i < j
    exact_residual: float
    mc_z: float


def _closed_second_moments(p: MutationMatrix, x: ChainState):
    """Same and cross closed forms through (q, sigma_j, T_j)."""
    N, K = x.N, x.K
    t = transition_probs(p, x.counts, N)
    w = x.w()
    sig = [
        p.p[K - 1][j] + sum(p.p[j][k] for k in range(K) if k != j)
        for j in range(K - 1)
    ]
    dev = [t.inflow[j] - sig[j] * w[j] for j in range(K - 1)]
    same = tuple(
        t.q[j] * (1 - t.q[j]) / Fraction(N) + dev[j] ** 2 for j in range(K - 1)
    )
    cross = tuple(
        -t.q[i] * t.q[j] / Fraction(N) + dev[i] * dev[j]
        for i in range(K - 1)
        for j in range(i + 1, K - 1)
    )
    return t, dev, same, cross


def verify_conditional_moments_wf(
    p: MutationMatrix,
    N: int,
    states: Sequence[ChainState],
    rng,
    mc_steps: int = 20_000,
) -> list:
    """Check the one-step second-moment formulas at each supplied state.

    Closed forms are compared (i) against exact multinomial factorial
    moments of X' given X, reported as a max absolute residual, and (ii)
    against a Monte-Carlo average over steps, reported as a max z-score.
    """
    g = as_generator(rng)
    out = []
    for x in states:
        if x.K != p.K or x.N != N:
            raise ChainError("state inconsistent with matrix or N")
        t, dev, same, cross = _closed_second_moments(p, x)
        w = x.w()
        K = x.K
        res = 0.0
        # exact: E (X'_j)_2 = N(N-1) q_j^2, E X'_i X'_j = N(N-1) q_i q_j
        for j in range(K - 1):
            ex2 = (Fraction(N * (N - 1)) * t.q[j] ** 2 + Fraction(N) * t.q[j]) / N**2
            exact = ex2 - 2 * w[j] * t.q[j] + w[j] ** 2
            res = max(res, abs(float(exact - same[j])))
        idx = 0
        for i in range(K - 1):
            for j in range(i + 1, K - 1):
                exij = Fraction(N * (N - 1)) * t.q[i] * t.q[j] / N**2
                exact = exij - w[i] * t.q[j] - w[j] * t.q[i] + w[i] * w[j]
                res = max(res, abs(float(exact - cross[idx])))
                idx += 1
        # MC: average the same products over simulated steps
        counts = np.tile(x.counts, (mc_steps, 1)).astype(np.int64)
        nxt = _batch_step_wf(g, counts, p.array(), N)
        d = nxt / N - np.array([float(v) for v in w])
        zmax = 0.0
        for j in range(K - 1):
            vals = d[:, j] ** 2
            se = vals.std(ddof=1) / np.sqrt(mc_steps)
            zmax = max(zmax, abs(vals.mean() - float(same[j])) / max(se, 1e-300))
        idx = 0
        for i in range(K - 1):
            for j in range(i + 1, K - 1):
                vals = d[:, i] * d[:, j]
                se = vals.std(ddof=1) / np.sqrt(mc_steps)
                zmax = max(zmax, abs(vals.mean() - float(cross[idx])) / max(se, 1e-300))
                idx += 1
        out.append(
            CondMomentCheck(
                state=x,
                closed_same=tuple(float(v) for v in same),
                closed_cross=tuple(float(v) for v in cross),
                exact_residual=res,
                mc_z=zmax,
            )
        )
    return out
