"""Exchangeable offspring laws V = (V_1, ..., V_N) with sum V_i = N.

The reproduction step of a neutral fixed-size population is described by an
exchangeable non-negative integer vector V summing to N, V_i being the number
of offspring of individual i.  Four families are supported:

* wright-fisher: V multinomial with N trials and uniform probabilities;
* moran: a uniform ordered pair (I, J) with V_I = 2, V_J = 0, all others 1;
* dirichlet-multinomial(phi): V multinomial with Dirichlet(phi, ..., phi)
  weights, a tunable heavy-reproduction family (phi small means heavy);
* explicit-table: a user-supplied law given per multiset of offspring counts,
  symmetrized over orderings on expansion.

The factorial moments

    alpha = E V1(V1-1)            beta  = E V1(V1-1)(V1-2)
    gamma = E V1(V1-1)V2(V2-1)    delta = E V1(V1-1)(V1-2)(V1-3)

drive every approximation bound downstream: alpha sets the pair-merger
timescale and beta/(alpha N) -> 0 is the classical condition for convergence
of the genealogy to the Kingman coalescent.  Each family states its mixed
falling moments E prod_t (V_t)_(k_t) over distinct coordinates once, in
`falling_moment`: closed forms for wright-fisher and dirichlet-multinomial
at every N, a sum over the value classes of moran and explicit tables
(`_value_classes`, which the exact tables of `metrics` also read).  The four
moments above, every ordered power moment (through the Stirling expansion
x^p = sum_k S(p, k) (x)_k) and the ten identity checks follow from it in
exact rational arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .simplex import _dirichlet_rows, _falling, _power_moment, _rising, as_generator

KIND_WRIGHT_FISHER = "wright-fisher"
KIND_MORAN = "moran"
KIND_DIRICHLET_MULTINOMIAL = "dirichlet-multinomial"
KIND_EXPLICIT = "explicit-table"


class OffspringError(ValueError):
    pass


@dataclass(frozen=True)
class OffspringModel:
    """An exchangeable offspring-count law for a population of size N.

    Construct through the classmethods; `table` is only set for the
    explicit kind and maps sorted count tuples to exact probabilities.
    """

    N: int
    kind: str
    phi: Fraction | None = None
    table: tuple | None = None  # ((sorted_counts, Fraction prob), ...)

    def __post_init__(self):
        if self.N < 2:
            raise OffspringError("population size N must be >= 2")

    @classmethod
    def wright_fisher(cls, N: int) -> "OffspringModel":
        return cls(N=N, kind=KIND_WRIGHT_FISHER)

    @classmethod
    def moran(cls, N: int) -> "OffspringModel":
        return cls(N=N, kind=KIND_MORAN)

    @classmethod
    def dirichlet_multinomial(cls, N: int, phi) -> "OffspringModel":
        phi = Fraction(phi)
        if phi <= 0:
            raise OffspringError("phi must be positive")
        return cls(N=N, kind=KIND_DIRICHLET_MULTINOMIAL, phi=phi)

    @classmethod
    def explicit(cls, N: int, table: dict) -> "OffspringModel":
        """Explicit law over multisets of counts; probabilities are
        normalized exactly after a 1e-9 sanity check on their sum."""
        rows = []
        total = Fraction(0)
        for counts, prob in table.items():
            counts = tuple(sorted(int(c) for c in counts))
            if len(counts) != N:
                raise OffspringError(f"multiset {counts} does not have N={N} entries")
            if any(c < 0 for c in counts):
                raise OffspringError(f"negative count in {counts}")
            if sum(counts) != N:
                raise OffspringError(f"multiset {counts} does not sum to N={N}")
            prob = Fraction(prob)
            if prob < 0:
                raise OffspringError("negative probability")
            rows.append([counts, prob])
            total += prob
        if abs(float(total) - 1.0) > 1e-9:
            raise OffspringError(f"probabilities sum to {float(total)}, not 1")
        if not rows:
            raise OffspringError("empty table")
        merged: dict = {}
        for counts, prob in rows:
            merged[counts] = merged.get(counts, Fraction(0)) + prob / total
        ones = tuple([1] * N)
        if merged.get(ones, Fraction(0)) == 1:
            raise OffspringError("degenerate law: V = (1,...,1) almost surely")
        return cls(N=N, kind=KIND_EXPLICIT, table=tuple(sorted(merged.items())))

    @classmethod
    def from_file(cls, path) -> "OffspringModel":
        """Load an explicit table: lines 'multiset: v1,...,vN ; prob: p'."""
        table = {}
        N = None
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    left, right = line.split(";", 1)
                    counts = tuple(
                        int(t) for t in left.split(":", 1)[1].replace(" ", "").split(",")
                    )
                    prob = Fraction(right.split(":", 1)[1].strip())
                except (ValueError, IndexError, ZeroDivisionError) as exc:
                    raise OffspringError(f"{path}:{lineno}: cannot parse {line!r}") from exc
                if N is None:
                    N = len(counts)
                key = tuple(sorted(counts))
                table[key] = table.get(key, Fraction(0)) + prob
        if N is None:
            raise OffspringError(f"{path}: no table rows")
        return cls.explicit(N, table)


@dataclass(frozen=True)
class OffspringMoments:
    """Factorial moments of a single offspring law, exact rationals."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    delta: Fraction


def _value_classes(m: OffspringModel):
    """Yield ({count: coordinates with that count}, exact probability) per
    offspring multiset of positive probability of moran (one multiset,
    stated without its N coordinates) and explicit tables, for
    `falling_moment` and for the group law of `metrics.exact_stationary`."""
    if m.kind == KIND_MORAN:
        yield {0: 1, 1: m.N - 2, 2: 1}, Fraction(1)
    elif m.kind == KIND_EXPLICIT:
        yield from ((Counter(counts), prob) for counts, prob in m.table if prob)
    else:
        raise OffspringError(f"kind {m.kind!r} is not given per multiset")


def _distinct_sum(left, terms, t=0):
    """Sum over ordered tuples of distinct coordinates, from position t on,
    of prod_t terms[t][j] for the count class j of each coordinate.  left[j]
    coordinates of class j are still free, so picking class j can be done
    in left[j] ways."""
    if t == len(terms):
        return 1
    s = 0
    for j, c in enumerate(left):
        if c and terms[t][j]:
            left[j] = c - 1
            s += c * terms[t][j] * _distinct_sum(left, terms, t + 1)
            left[j] = c
    return s


def falling_moment(m: OffspringModel, orders: Sequence[int]) -> Fraction:
    """Exact E[prod_t (V_t)_(k_t)] over r = len(orders) distinct
    coordinates, (v)_k being the falling factorial v (v-1) ... (v-k+1).

    With K = sum k_t this is (N)_K / N^K for wright-fisher and
    (N)_K prod_t (phi)^(k_t) / (N phi)^(K) for dirichlet-multinomial,
    (x)^(k) the rising factorial.  Laws given per multiset are summed
    over each multiset's c classes of equal counts, symmetrized over
    position assignments: at most c^r terms instead of N!/(N-r)!."""
    N, K = m.N, sum(orders)
    if m.kind == KIND_WRIGHT_FISHER:
        return Fraction(_falling(N, K), N**K)
    if m.kind == KIND_DIRICHLET_MULTINOMIAL:
        num = Fraction(_falling(N, K))
        for k in orders:
            num *= _rising(m.phi, k)
        return num / _rising(N * m.phi, K)
    total = Fraction(0)
    norm = _falling(N, len(orders))
    for classes, prob in _value_classes(m):
        terms = [[_falling(v, k) for v in classes] for k in orders]
        total += prob * Fraction(_distinct_sum(list(classes.values()), terms), norm)
    return total


def ordered_moment(m: OffspringModel, powers: Sequence[int]) -> Fraction:
    """Exact E[V_1^{p_1} ... V_r^{p_r}] over r distinct coordinates, from
    the falling moments.

    Symmetrized over position assignments, so the result is well defined for
    any exchangeable law given per multiset.
    """
    powers = tuple(int(p) for p in powers)
    if len(powers) > m.N:
        raise OffspringError(f"{len(powers)} distinct coordinates exceed N={m.N}")
    return _power_moment(powers, lambda k: falling_moment(m, k))


def moments(m: OffspringModel) -> OffspringMoments:
    """Exact factorial moments alpha, beta, gamma, delta of the law."""
    alpha, beta, gamma, delta = (
        falling_moment(m, orders) for orders in ((2,), (3,), (2, 2), (4,))
    )
    if alpha == 0:
        raise OffspringError("degenerate law: alpha = 0, no pair mergers ever")
    return OffspringMoments(alpha, beta, gamma, delta)


# The ten product-moment identities expressible through (alpha, beta, gamma,
# delta, N).  Each entry: (label, coordinate powers, closed form).

def _identity_rows(N: int, mom: OffspringMoments):
    a, b, g, d = mom.alpha, mom.beta, mom.gamma, mom.delta
    N = Fraction(N)
    return [
        ("E V1^2", (2,), 1 + a),
        ("E V1V2", (1, 1), 1 - a / (N - 1)),
        ("E V1^3", (3,), 1 + 3 * a + b),
        (
            "E V1V2V3",
            (1, 1, 1),
            1 - 3 * a / (N - 1) + 2 * b / ((N - 1) * (N - 2)) if N > 2 else None,
        ),
        ("E V1^2V2", (2, 1), 1 + a * (N - 3) / (N - 1) - b / (N - 1)),
        ("E V1^2V2^2", (2, 2), 1 + a * (2 * N - 5) / (N - 1) - 2 * b / (N - 1) + g),
        ("E V1^4", (4,), 1 + 7 * a + 6 * b + d),
        (
            "E V1V2V3V4",
            (1, 1, 1, 1),
            1
            - 6 * a / (N - 1)
            + 8 * b / ((N - 1) * (N - 2))
            + 3 * g / ((N - 2) * (N - 3))
            - 3 * d / ((N - 1) * (N - 2) * (N - 3))
            if N > 3
            else None,
        ),
        (
            "E V1^2V2V3",
            (2, 1, 1),
            1
            + a * (N - 6) / (N - 1)
            - b * (2 * N - 8) / ((N - 1) * (N - 2))
            - g / (N - 2)
            + d / ((N - 1) * (N - 2))
            if N > 2
            else None,
        ),
        (
            "E V1^3V2",
            (3, 1),
            1 + a * (3 * N - 7) / (N - 1) + b * (N - 6) / (N - 1) - d / (N - 1),
        ),
    ]


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    lhs: object
    rhs: object
    residual: float
    mode: str  # "exact" or "skipped"
    skipped: bool = False


def verify_moment_identities(m: OffspringModel) -> list:
    """Check the ten mixed-moment identities of the offspring law.

    The left side is an ordered product moment over distinct coordinates,
    the right side its closed form in (alpha, beta, gamma, delta, N); both
    are exact rationals for every kind and N.  Identities needing more
    distinct coordinates than N are flagged as skipped.
    """
    out = []
    for name, powers, rhs in _identity_rows(m.N, moments(m)):
        if len(powers) > m.N or rhs is None:
            out.append(IdentityCheck(name, None, None, float("nan"), "skipped", skipped=True))
            continue
        lhs = ordered_moment(m, powers)
        out.append(IdentityCheck(name, lhs, rhs, abs(float(lhs - rhs)), "exact"))
    return out


def sample_offspring(m: OffspringModel, rng, size: int | None = None):
    """Draw offspring vectors; shape (N,) or (size, N).

    Each vector is exchangeable, with every ordering of its multiset
    equally likely: the forward chain step gives each type's parents
    consecutive coordinates of V and relies on this."""
    g = as_generator(rng)
    one = size is None
    S = 1 if one else int(size)
    N = m.N
    if m.kind == KIND_WRIGHT_FISHER:
        V = g.multinomial(N, np.full(N, 1.0 / N), size=S)
    elif m.kind == KIND_MORAN:
        I = g.integers(0, N, size=S)
        J = (I + 1 + g.integers(0, N - 1, size=S)) % N
        V = np.ones((S, N), dtype=np.int64)
        V[np.arange(S), I] = 2
        V[np.arange(S), J] = 0
    elif m.kind == KIND_DIRICHLET_MULTINOMIAL:
        V = g.multinomial(N, _dirichlet_rows(np.full(N, float(m.phi)), g, S))
    elif m.kind == KIND_EXPLICIT:
        keys = np.array([k for k, _ in m.table], dtype=np.int64)
        probs = np.array([float(p) for _, p in m.table])
        probs = probs / probs.sum()
        idx = g.choice(len(keys), size=S, p=probs)
        # one independent shuffle per row keeps every ordering equally likely
        V = g.permuted(keys[idx], axis=1)
    else:
        raise OffspringError(f"unknown kind {m.kind}")
    return V[0] if one else V


def mohle_diagnostics(m: OffspringModel):
    """The ratios (alpha/N, beta/(alpha N), gamma/(alpha N)).

    Small values place the genealogy in the Kingman-coalescent domain: pair
    mergers dominate and triple mergers vanish on the coalescent timescale.
    """
    mom = moments(m)
    return (
        float(mom.alpha / m.N),
        float(mom.beta / (mom.alpha * m.N)),
        float(mom.gamma / (mom.alpha * m.N)),
    )
