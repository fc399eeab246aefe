"""Independent closed-form targets for the equation solver tests, and
reference copies of code paths the library has made faster.

Everything in the first part is derived by a different route than the
library uses: level means of monomials come from a rising-to-falling
factorial basis change, so agreement with the sampling engines is a real
cross-check, and offspring moments come from a loop over every tuple of
coordinates.  Dirichlet means of the battery's waves come from their
moment series and windowed (bump) means from nested adaptive quadrature
and, for two types, from a power expansion over truncated Beta moments;
none of these shares the library's Gauss nodes.  The reference copies
(the two-array genealogy block, the level rule) do the library's
arithmetic in its earlier, plainer form; the fast paths must match them
bit for bit.  The dense Wright-Fisher rows are the one reference the
library's factorised product matches only to rounding (on small grids
also an exact Fraction left product of the multinomial rows), the exact
Fraction convolution of per-group multinomials checks the Fourier
mutation kernel of Cannings rows, every slot arrangement of every
offspring multiset checks the value-class group law, and the urn's
forward recursion over count states checks the closed
Dirichlet-multinomial law that in turn checks the urn's float table and
the exchangeability of its draws.  Last, a finite-difference probe
re-derives every certified seminorm of the shipped battery."""

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

import numpy as np


def rising(v, k):
    out = 1.0
    for t in range(k):
        out *= v + t
    return out


def falling_coeffs(c, a1):
    """Coefficients A_j with rising(a1+N, c) = sum_j A_j (N)_j(falling).

    Recurrence: multiplying by (a1 + t + N) sends A_j to
    A_{j-1} + (j + a1 + t) A_j.
    """
    A = {0: 1.0}
    for t in range(c):
        A = {
            j: A.get(j - 1, 0.0) + (j + a1 + t) * A.get(j, 0.0)
            for j in range(t + 2)
        }
    return A


def level_mean_monomial(c, a1, s, n_arr, x):
    """E[Z^c | level n] for the two-type composition: N ~ Bin(n, x),
    Z ~ Beta(a1 + N, s - a1 + n - N).  Uses E (N)_j = (n)_j x^j."""
    n_arr = np.asarray(n_arr, dtype=float)
    A = falling_coeffs(c, a1)
    num = np.zeros_like(n_arr)
    for j in range(c + 1):
        fall = np.ones_like(n_arr)
        for t in range(j):
            fall *= n_arr - t
        num += A.get(j, 0.0) * fall * x**j
    den = np.ones_like(n_arr)
    for t in range(c):
        den *= s + n_arr + t
    return num / den


def distinct_moment_bruteforce(law, N, fn, orders):
    """E[prod_t fn(V_{i_t}, k_t)] over r = len(orders) distinct coordinates
    of an exchangeable law given as (count multiset, probability) pairs, by
    the plain loop over all N!/(N-r)! ordered coordinate tuples."""
    from fractions import Fraction

    r = len(orders)
    total = Fraction(0)
    norm = math.perm(N, r)
    for counts, prob in law:
        s = 0
        for idx in itertools.permutations(range(N), r):
            term = 1
            for i, k in zip(idx, orders):
                term *= fn(counts[i], k)
            s += term
        total += prob * Fraction(s, norm)
    return total


def _partitions_into(n, maxpart):
    """Partitions of n with parts <= maxpart (list of parts, descending)."""
    if n == 0:
        yield []
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_into(n - first, first):
            yield [first] + rest


def enumerate_law(m):
    """(sorted count multiset, exact probability) pairs of the laws given
    per multiset, moran and explicit tables, read off the library's value
    classes."""
    from dirstein.offspring import _value_classes

    for classes, prob in _value_classes(m):
        yield tuple(sorted(Counter(classes).elements())), prob


def offspring_law(m):
    """(sorted count multiset, exact probability) pairs of an offspring law
    over all its multisets, each multiset's ordered probability times its
    number of orderings: Wright-Fisher and Dirichlet-multinomial by the
    multinomial and Polya weights (feasible for N up to about 8), moran
    and explicit tables as the library gives them."""
    from fractions import Fraction

    N = m.N
    if m.kind not in ("wright-fisher", "dirichlet-multinomial"):
        yield from enumerate_law(m)
        return
    for part in _partitions_into(N, N):
        counts = tuple(sorted(part + [0] * (N - len(part))))
        per = Fraction(math.factorial(N), math.prod(math.factorial(c) for c in counts))
        if m.kind == "wright-fisher":
            per /= N**N
        else:
            for c in counts:
                per *= math.prod(m.phi + t for t in range(c))
            per /= math.prod(N * m.phi + t for t in range(N))
        orderings = math.factorial(N) // math.prod(
            math.factorial(len(list(g))) for _, g in itertools.groupby(counts)
        )
        yield counts, per * orderings


def arrangement_rows(law, states):
    """G[x, m] = P(M = m | x) on `states` for an offspring law given per
    multiset (`offspring_law`, so N up to about 8): every distinct slot
    arrangement of every multiset, all equally likely within it, read off
    at the group edges of each x.  The library sums value-class
    allocations instead and never forms an arrangement."""
    from dirstein.metrics import _grid_index

    N, S = law.N, len(states)
    full = np.column_stack([states, N - states.sum(axis=1)])
    edges = np.column_stack([np.zeros(S, dtype=np.int64), full.cumsum(axis=1)])
    G = np.zeros((S, S))
    for counts, prob in offspring_law(law):
        arr = np.array(sorted(set(itertools.permutations(counts))), dtype=np.int64)
        cum = np.column_stack([np.zeros(len(arr), dtype=np.int64), arr.cumsum(axis=1)])
        for row, e in enumerate(edges):
            m = np.diff(cum[:, e], axis=1)
            np.add.at(G[row], _grid_index(states, m, N), float(prob) / len(arr))
    return G


def arrangement_matrix(model, states):
    """Cannings rows P = G B normalised by rows, G from
    `arrangement_rows` and B the library's mutation kernel (which
    `mutation_rows` checks)."""
    from dirstein.metrics import _mutation_kernel

    full = np.column_stack([states, model.N - states.sum(axis=1)])
    B = _mutation_kernel(model.mutation, states, model.N)(full)
    P = arrangement_rows(model.offspring, states) @ B
    return P / P.sum(axis=1, keepdims=True)


def level_mean_trig(kind, w, a1, s, n_arr, x):
    """E[cos(w Z)] or E[sin(w Z)] at level n for two types, from the
    Taylor series over level_mean_monomial, summed until the coefficient
    drops below 1e-17."""
    total = np.full(np.shape(n_arr), 1.0 if kind == "cos" else 0.0)
    for c in itertools.count(1 if kind == "sin" else 2, 2):
        coef = (-1) ** (c // 2) * w**c / math.factorial(c)
        if abs(coef) <= 1e-17:
            return total
        total = total + coef * level_mean_monomial(c, a1, s, n_arr, x)


def level_mean_piecewise(coeffs, support, a, x, n):
    """E h(Z) at level n for two types with integer a, where h is the
    polynomial sum_k coeffs[k] z^k on the interval `support` and 0 off it.

    Given N = j, Z ~ Beta(p, q) with p = a1 + j, q = a2 + n - j, and
    E[Z^k; Z <= t] = (p)_k/(p+q)_k P(Beta(p+k, q) <= t).  For integers
    P(Beta(p, q) <= t) = P(Bin(p+q-1, t) >= p), and p + q does not depend
    on j, so one binomial law per (k, t) serves every j."""
    a1, a2 = int(a.a[0]), int(a.a[1])
    s = a1 + a2
    top = s + n + len(coeffs)
    lg = np.array([math.lgamma(v + 1.0) for v in range(top + 1)])

    def binom_pmf(N, t):
        i = np.arange(N + 1)
        return np.exp(lg[N] - lg[i] - lg[N - i] + i * math.log(t) + (N - i) * math.log1p(-t))

    j = np.arange(n + 1)
    wj = binom_pmf(n, x)
    total = 0.0
    for k, ck in enumerate(coeffs):
        ratio = np.ones(n + 1)
        for u in range(k):
            ratio *= (a1 + j + u) / (s + n + u)
        mass = 0.0
        for t, sign in zip(support, (-1.0, 1.0)):
            upper = np.cumsum(binom_pmf(s + n + k - 1, t)[::-1])[::-1]
            mass = mass + sign * upper[a1 + k + j]
        total += ck * float(wj @ (ratio * mass))
    return total


def holding_tail(s, M, L=10**6):
    """sum_{n > M} 2/(n(n-1+s)): summed to L, then 2/(L + 1/2 + (s-1)/2),
    the midpoint integral past L, which is off by O(L^-3)."""
    n = np.arange(M + 1, L + 1, dtype=float)
    return float((2.0 / (n * (n - 1.0 + s))).sum()) + 2.0 / (L + 0.5 + (s - 1.0) / 2.0)


def solution_partial_monomial(c, a, x, M):
    """The level sum -(1/2) sum_{n<=M} (E[Z^c | n] - E Z^c) E Y_n, exactly."""
    a1, s = float(a.a[0]), float(a.s)
    n = np.arange(1, M + 1, dtype=float)
    ey = 2.0 / (n * (n - 1.0 + s))
    m = rising(a1, c) / rising(s, c)
    g = level_mean_monomial(c, a1, s, n, x)
    return -0.5 * float(((g - m) * ey).sum())


def solution_partial_cos(w, a, x, M):
    """The level sum for h(x) = cos(w x) from its Taylor series: the terms
    (-1)^k w^2k x^2k / (2k)! over solution_partial_monomial, summed until
    the coefficient drops below 1e-17 (the constant term sums to zero)."""
    total = 0.0
    for k in itertools.count(1):
        coef = (-w * w) ** k / math.factorial(2 * k)
        if abs(coef) <= 1e-17:
            return total
        total += coef * solution_partial_monomial(2 * k, a, x, M)


def solution_partial_pair(a, x, M):
    """The level sum for h(x) = x1 x2 with three types: given the counts
    N ~ MN(n; x), E[Z1 Z2 | N] = (a1 + N1)(a2 + N2)/((s + n)(s + n + 1)),
    and E[(a1 + N1)(a2 + N2)] = a1 a2 + n (a1 x2 + a2 x1) + n(n-1) x1 x2."""
    a1, a2, s = float(a.a[0]), float(a.a[1]), float(a.s)
    x1, x2 = x
    n = np.arange(1, M + 1, dtype=float)
    ey = 2.0 / (n * (n - 1.0 + s))
    num = a1 * a2 + n * (a1 * x2 + a2 * x1) + n * (n - 1.0) * x1 * x2
    g = num / ((s + n) * (s + n + 1.0))
    m = a1 * a2 / (s * (s + 1.0))
    return -0.5 * float(((g - m) * ey).sum())


def solution_partial_quadrature(fn, support, a, x, M, nodes=64):
    """The level sum for a two-type h that vanishes off the interval
    `support` and is a polynomial on it.  A level mean is the binomial
    mixture over j of the Beta(a1 + j, a2 + n - j) integrals of h, each by
    Gauss-Legendre quadrature on the support: exact up to rounding for
    integer a while the degree stays below 2 nodes.  The stationary mean
    E h(Z) is the n = 0 case."""
    a1, a2, s = float(a.a[0]), float(a.a[1]), float(a.s)
    lo, hi = support
    t, wq = np.polynomial.legendre.leggauss(nodes)
    z = lo + (hi - lo) * (t + 1.0) / 2.0
    wh = wq * (hi - lo) / 2.0 * np.asarray(fn(z[:, None]), dtype=float)

    def level_mean(n):
        total = 0.0
        for j in range(n + 1):
            p, q = a1 + j, a2 + n - j
            logc = math.lgamma(p + q) - math.lgamma(p) - math.lgamma(q)
            dens = np.exp(logc + (p - 1.0) * np.log(z) + (q - 1.0) * np.log1p(-z))
            total += math.comb(n, j) * x**j * (1.0 - x) ** (n - j) * float(dens @ wh)
        return total

    n = np.arange(1, M + 1, dtype=float)
    ey = 2.0 / (n * (n - 1.0 + s))
    g = np.array([level_mean(k) for k in range(1, M + 1)])
    return -0.5 * float(((g - level_mean(0)) * ey).sum())


def solution_partial_linear(a, x, M):
    """Closed form of the level sum for h(x) = x: the per-level telescope
    gives -(x - a1/s)(1/s - 1/(M+s))."""
    a1, s = float(a.a[0]), float(a.s)
    return -(x - a1 / s) * (1.0 / s - 1.0 / (M + s))


def second_bound_exact(alpha, beta, gamma, pi, N, K):
    """Exact-rational evaluation of the stationary-Cannings error terms.

    Returns eta, the quadratic term A2 and the two radicands as Fractions
    (float only for the assembled A3, whose fourth roots are irrational).
    Written directly from the displayed formulas, separately from the
    library implementation.
    """
    import math
    from fractions import Fraction

    alpha = Fraction(alpha)
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    spi = sum(Fraction(v) for v in pi)
    eta = N * spi / alpha
    aN = Fraction(alpha, N)
    A2 = (
        aN**2 * eta**2 * K**2
        + aN * (eta**2 * (K**2 + 1) + 2 * eta * K**2)
        + Fraction(3 * eta * K, N)
    )
    radical = 3 * eta**2 * aN + Fraction(eta, N)
    quart = 12 * beta / (alpha * N) + 24 * gamma / (alpha * N)
    A3 = (
        2
        * K**3
        * (1.0 + float(eta) * math.sqrt(float(aN)) + math.sqrt(float(eta) / N))
        * (
            float(eta) * float(aN) ** 0.75
            + float(quart) ** 0.25
            + float(radical) ** 0.25 / math.sqrt(N)
        )
        ** 2
    )
    return {"eta": eta, "A2": A2, "radical": radical, "quart": quart, "A3": A3}


# ---------------------------------------------------------------------------
# reference genealogy block: lineages as a (draw, size) array pair, merged
# by an argsort of draw * N + parent.  The packed sampler in dirstein.chains
# must give the same counts, generations and killed blocks from the same
# stream.


def _runs(draw):
    first = np.flatnonzero(np.concatenate(([True], draw[1:] != draw[:-1])))
    k = np.diff(np.append(first, draw.size))
    return first, k, np.arange(draw.size) - np.repeat(first, k)


def _back_cannings(g, draw, m):
    from dirstein.offspring import sample_offspring

    first, k, rank = _runs(draw)
    D, N = len(first), m.N
    V = sample_offspring(m, g, size=D)
    labels = np.repeat(np.tile(np.arange(N), D), V.ravel()).reshape(D, N)
    g.permuted(labels, axis=1, out=labels)
    return labels[np.repeat(np.arange(D), k), rank]


def _merge(draw, parent, size, N):
    key = draw * N + parent
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    return key[first] // N, np.add.reduceat(size[order], first)


def genealogy_block(g, model, B, cum):
    """Type counts (B, K) of B stationary draws, the generations stepped,
    and the cell draw * K + type and size of every killed lineage's block,
    in the order they were killed."""
    N, K = model.N, model.K
    kill = cum[-1]
    counts = np.zeros(B * K)
    cells, sizes = [], []
    draw = np.repeat(np.arange(B), N)
    size = np.ones(B * N)
    generations = 0
    while draw.size:
        generations += 1
        u = g.random(draw.size)
        alone = np.ones(draw.size, dtype=bool)
        same = draw[1:] == draw[:-1]
        alone[1:] &= ~same
        alone[:-1] &= ~same
        u[alone] *= kill
        dead = u < kill
        types = np.searchsorted(cum, u[dead], side="right")
        counts += np.bincount(draw[dead] * K + types, weights=size[dead], minlength=B * K)
        cells.append(draw[dead] * K + types)
        sizes.append(size[dead])
        live = ~dead
        draw, size = draw[live], size[live]
        if draw.size:
            v = (u[live] - kill) / (1 - kill)
            if model.offspring is None or model.offspring.kind == "wright-fisher":
                parent = np.minimum((v * N).astype(np.int64), N - 1)
            else:
                parent = _back_cannings(g, draw, model.offspring)
            draw, size = _merge(draw, parent, size, N)
    return counts.reshape(B, K), generations, np.concatenate(cells), np.concatenate(sizes)


def genealogy_samples(g, model, n_samples, lineages):
    """Frequencies of n_samples draws in blocks of max(1, lineages // N),
    the generations stepped, and the cells and sizes of the killed
    lineages' blocks, numbered by draw over the whole run."""
    cum = np.cumsum([float(r) for r in model.mutation.pim_rates])
    per_block = max(1, lineages // model.N)
    rows, cells, sizes, generations = [], [], [], 0
    for start in range(0, n_samples, per_block):
        counts, gens, c, s = genealogy_block(g, model, min(per_block, n_samples - start), cum)
        rows.append(counts[:, :-1] / model.N)
        cells.append(c + start * model.K)
        sizes.append(s)
        generations += gens
    return np.concatenate(rows, axis=0), generations, np.concatenate(cells), np.concatenate(sizes)


# ---------------------------------------------------------------------------
# Dirichlet means by other routes than the library's nested Gauss rule: the
# moment series for waves and adaptive quadrature for windowed means


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def trig_mean_series(a, w, kind):
    """E cos(w.x) or E sin(w.x) under Dir(a) from the Taylor series over
    exact mixed moments, summed until the bound (max w)^k / k! on the
    terms drops below 1e-17."""
    from dirstein.simplex import dirichlet_mixed_moment

    w = tuple(float(v) for v in w)
    wmax = max(abs(v) for v in w)
    total = 0.0
    sign = 1.0
    k = 0 if kind == "cos" else 1
    while wmax**k / math.factorial(k) > 1e-17 or k < 2:
        mk = 0.0
        for expo in _compositions(k, len(w)):
            coef = math.factorial(k)
            for e in expo:
                coef //= math.factorial(e)
            wterm = 1.0
            for wv, e in zip(w, expo):
                wterm *= wv**e
            if wterm != 0.0:
                expo = expo + (0,) * (a.dim - len(w))
                mk += coef * wterm * float(dirichlet_mixed_moment(a, expo))
        total += sign * mk / math.factorial(k)
        sign = -sign
        k += 2
    return total


def beta_window_mean(g, p, q, lo, hi):
    """Integral of g against the Beta(p, q) density over [lo, hi] within
    [0, 1] by scipy's adaptive quadrature.  At an end clipped to 0 or 1
    the density's factor there is quad's algebraic weight (weight='alg'),
    so the singularity of a parameter below one is integrated exactly."""
    from scipy import integrate

    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi <= lo:
        return 0.0
    # the density's factor at a clipped end becomes quad's weight
    e0 = p - 1.0 if lo == 0.0 else 0.0
    e1 = q - 1.0 if hi == 1.0 else 0.0

    def f(x):
        return g(x) * x ** (p - 1.0 - e0) * (1.0 - x) ** (q - 1.0 - e1)

    kw = dict(epsabs=1e-15, epsrel=1e-13, limit=400)
    if e0 or e1:
        v = integrate.quad(f, lo, hi, weight="alg", wvar=(e0, e1), **kw)[0]
    else:
        v = integrate.quad(f, lo, hi, **kw)[0]
    return v / math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def _bump1(x, c, rho):
    u = (x - c) / rho
    return max(1.0 - u * u, 0.0) ** 3


def bump_mean_quad(a, centers, rho):
    """E of the separable bump prod_i (1 - ((Z_i - c_i)/rho)^2)_+^3 under
    Dir(a) for two or three types, nested in stick-breaking coordinates:
    Z_1 ~ Beta(a_1, a_2 + a_3) and Z_2 = (1 - Z_1) Y, Y ~ Beta(a_2, a_3).
    The outer integral is split where the inner window [(c_2 -+ rho) /
    (1 - Z_1)] crosses 1, where the inner mean has an algebraic kink."""
    af = [float(v) for v in a.a]
    if len(af) == 2:
        (c,) = centers
        return beta_window_mean(lambda x: _bump1(x, c, rho), af[0], af[1], c - rho, c + rho)
    a1, a2, a3 = af
    c1, c2 = centers

    def outer(x1):
        r = 1.0 - x1
        inner = beta_window_mean(
            lambda y: _bump1(r * y, c2, rho), a2, a3, (c2 - rho) / r, (c2 + rho) / r
        )
        return _bump1(x1, c1, rho) * inner

    lo1, hi1 = max(c1 - rho, 0.0), min(c1 + rho, 1.0)
    cuts = sorted({lo1, hi1} | {v for v in (1.0 - c2 - rho, 1.0 - c2 + rho) if lo1 < v < hi1})
    return sum(beta_window_mean(outer, a1, a2 + a3, u, v) for u, v in zip(cuts[:-1], cuts[1:]))


def bump_mean_k2(a, c, rho):
    """E (1 - ((Z_1 - c)/rho)^2)_+^3 under Dir(a_1, a_2) in closed form:
    the bump is a degree-six polynomial on its window, so its mean is a
    sum of truncated Beta moments B(p+k, q)/B(p, q) (I_hi - I_lo)(p+k, q)
    with scipy's incomplete beta.  A center above 1/2 is mirrored through
    Z_1 -> 1 - Z_1, which keeps the power coefficients, and so the
    cancellation among them, at most about 10^4."""
    from numpy.polynomial import polynomial as P
    from scipy.special import betainc

    p, q = (float(v) for v in a.a)
    if c > 0.5:
        p, q, c = q, p, 1.0 - c
    u = np.array([-c / rho, 1.0 / rho])
    coeffs = P.polypow(P.polysub([1.0], P.polymul(u, u)), 3)
    lo, hi = max(c - rho, 0.0), min(c + rho, 1.0)
    total, scale = 0.0, 1.0
    for k, ck in enumerate(coeffs):
        total += ck * scale * (betainc(p + k, q, hi) - betainc(p + k, q, lo))
        scale *= (p + k) / (p + q + k)
    return total


def bump_mean_concentrated(law, centers, rho):
    """E prod_k (1 - ((Z_k - c_k)/rho)^2)^3 under Dir(law), in exact
    rationals, for a law with all but a negligible part of its mass inside
    the bump's window (integer weights of 1e5 and more, hundreds of sds
    from the window's edges).  There the product is a polynomial, and its
    mean is a sum of mixed moments prod (a_k)^(i_k) / (s)^(|i|), rising
    factorials throughout."""
    law = [Fraction(v) for v in law]
    rho = Fraction(rho)
    polys = []
    for c in centers:
        c = Fraction(c)
        factor = [1 - c * c / rho**2, 2 * c / rho**2, -1 / rho**2]
        poly = [Fraction(1)]
        for _ in range(3):
            poly = [
                sum(poly[i] * factor[k - i] for i in range(len(poly)) if 0 <= k - i < 3)
                for k in range(len(poly) + 2)
            ]
        polys.append(poly)

    def up(v, k):
        out = Fraction(1)
        for t in range(k):
            out *= v + t
        return out

    total = Fraction(0)
    for idx in itertools.product(*(range(len(poly)) for poly in polys)):
        coef = math.prod(poly[i] for poly, i in zip(polys, idx))
        moment = math.prod(up(a, i) for a, i in zip(law, idx)) / up(sum(law), sum(idx))
        total += coef * moment
    return float(total)


# ---------------------------------------------------------------------------
# reference level rule: the remainder rate's vertex terms rebuilt at every
# bisection step


def remainder_rate_rebuilt(a, h, M):
    s = float(a.s)
    af = a.floats()[:-1]
    d = len(af)
    dev = af - s * np.vstack([np.zeros(d), np.eye(d)])
    d1 = float(np.abs(dev).sum(axis=1).max())
    d2 = float((dev * dev).sum(axis=1).max())
    return h.h1 * d1 + 0.5 * h.h2 * d * (0.5 * d + d2 / (s + M + 1.0))


def level_for_tolerance(a, h, tol):
    """(M, certified remainder) of the smallest M >= 8 whose remainder is at
    most tol, by the same bisection as DeathProcessSchedule.for_tolerance."""
    from dirstein.stein import _tail_exact

    s = float(a.s)

    def charge(M):
        rate = remainder_rate_rebuilt(a, h, M)
        return _tail_exact(M, s) * min(rate / (2.0 * (s + M + 1.0)), h.sup_tilde)

    lo = hi = 8
    while charge(hi) > tol:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if charge(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return hi, charge(hi)


def wf_matrix(model, states):
    """The dense Wright-Fisher transition matrix on `states`: every
    multinomial row from one exp over all S^2 log-probabilities, then
    normalised.  The library applies these rows as a factorised product
    without forming them."""
    N = model.N
    Pm = model.mutation.array()
    full = np.column_stack([states, N - states.sum(axis=1)]).astype(np.float64)
    q = (full / N) @ Pm
    logq = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), -1e30)
    lgfact = np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    coef = lgfact[N] - lgfact[full.astype(np.int64)].sum(axis=1)
    L = logq @ full.T
    L += coef[None, :]
    P = np.exp(L, out=L)
    P /= P.sum(axis=1, keepdims=True)
    return P


def wf_left_product_exact(model, states, v):
    """v @ P for the Wright-Fisher rows on `states`, each row the exact
    multinomial law Mult(N, x Pm / N) in Fractions and v read exactly, so
    the float result is rounded once.  For small grids only."""
    N, K = model.N, model.K
    Pm = model.mutation.p
    full = [tuple(int(c) for c in s) + (N - int(sum(s)),) for s in states]
    out = [Fraction(0)] * len(full)
    for vx, x in zip(v, full):
        q = [sum(Fraction(x[i]) * Pm[i][j] for i in range(K)) / N for j in range(K)]
        vx = Fraction(float(vx))
        for col, y in enumerate(full):
            term = Fraction(math.factorial(N))
            for qj, yj in zip(q, y):
                term *= qj**yj / math.factorial(yj)
            out[col] += vx * term
    return np.array([float(o) for o in out])


def mutation_rows(groups, mutation, states):
    """The exact law of the children's free counts on `states` for each
    row of group totals in `groups`, in Fractions: the children of type-t
    parents take types by Mult(m_t, mutation[t]), and these K laws are
    convolved by a plain loop over every outcome of every group."""
    K = mutation.K
    rows = []
    for m in groups:
        law = {(0,) * (K - 1): Fraction(1)}
        for t, mt in enumerate(m):
            p = mutation.p[t]
            step = {}
            for c in _compositions(int(mt), K):
                w = Fraction(math.factorial(int(mt)))
                for cj, pj in zip(c, p):
                    w *= Fraction(pj) ** cj / math.factorial(cj)
                for y, v in law.items():
                    key = tuple(a + b for a, b in zip(y, c))
                    step[key] = step.get(key, 0) + v * w
            law = step
        rows.append([law.get(tuple(int(v) for v in s), Fraction(0)) for s in states])
    return rows


def urn_count_law(a, n):
    """Exact law of the full count vector after n urn draws, {tuple:
    Fraction}, by the forward recursion over count states: each draw picks
    color i with probability (x_i + a_i) / (j + s).  The library takes the
    closed Dirichlet-multinomial form instead."""
    law = {(0,) * len(a): Fraction(1)}
    s = sum(a)
    for j in range(n):
        nxt = {}
        for x, pr in law.items():
            for i, ai in enumerate(a):
                wt = pr * (x[i] + ai) / (j + s)
                if wt:
                    y = list(x)
                    y[i] += 1
                    nxt[tuple(y)] = nxt.get(tuple(y), 0) + wt
        law = nxt
    return law


def dm_law(a, n):
    """Exact law of the full count vector after n draws, {tuple: Fraction}:
    the Dirichlet-multinomial DM(n; a), with probability
    n! / prod x_i! * prod a_i^(x_i) / s^(n) in rising factorials."""
    a = tuple(Fraction(v) for v in a)
    # rising[t][k] = a_t^(k), one product per step
    rising = [
        list(itertools.accumulate((v + k for k in range(n)), operator.mul, initial=Fraction(1)))
        for v in a
    ]
    total = math.prod(sum(a) + k for k in range(n))
    law = {}
    for x in _compositions(n, len(a)):
        pr = Fraction(math.factorial(n))
        for xi, r in zip(x, rising):
            pr *= r[xi] / math.factorial(xi)
        law[x] = pr / total
    return law


def _set_partitions(items):
    """Every set partition of the list `items`, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _poly_mul(p, q):
    out = {}
    for e, u in p.items():
        for f, v in q.items():
            key = tuple(x + y for x, y in zip(e, f))
            out[key] = out.get(key, 0) + u * v
    return out


def _wf_next_types(mutation):
    """q_j(w) = (w P)_j for every type j, as polynomials in the free
    coordinates w_1..w_(K-1) (w_K = 1 - sum w), dicts of Fractions."""
    K = mutation.K
    d = K - 1
    q = []
    for j in range(K):
        poly = {(0,) * d: Fraction(mutation.p[K - 1][j])}
        for k in range(d):
            e = tuple(int(i == k) for i in range(d))
            poly[e] = Fraction(mutation.p[k][j]) - Fraction(mutation.p[K - 1][j])
        q.append(poly)
    return q


def _gauss_jordan(rows):
    """Solve the Fraction system whose augmented rows are `rows`, in place;
    returns the solution."""
    n = len(rows)
    for i in range(n):
        piv = next(r for r in range(i, n) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = 1 / rows[i][i]
        rows[i] = [v * inv for v in rows[i]]
        for r in range(n):
            if r != i and rows[r][i] != 0:
                f = rows[r][i]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[i])]
    return [row[n] for row in rows]


def wf_stationary_moments(mutation, N, degree):
    """Exact stationary E[W^c], 1 <= |c| <= degree, of a Wright-Fisher
    chain, {c: Fraction}.  The next counts are sums over N children of
    one-hot type indicators with probabilities q(w) = w P, so E[X'^c | w]
    sums, over the set partitions of the |c| labelled factors into blocks
    of one type each (the factors one child carries), (N)_blocks times
    the product of the blocks' q.  Polynomials are dicts of Fractions, and
    the stationary system is solved by Gauss-Jordan elimination."""
    d = mutation.K - 1
    one = (0,) * d
    q = _wf_next_types(mutation)
    cs = [c for c in itertools.product(range(degree + 1), repeat=d) if 1 <= sum(c) <= degree]
    step = {}
    for c in cs:
        factors = [j for j in range(d) for _ in range(c[j])]
        total = {}
        for part in _set_partitions(list(range(len(factors)))):
            types = [{factors[i] for i in block} for block in part]
            if any(len(t) > 1 for t in types):
                continue
            term = {one: Fraction(math.perm(N, len(part)), N ** len(factors))}
            for t in types:
                term = _poly_mul(term, q[t.pop()])
            for e, v in term.items():
                total[e] = total.get(e, 0) + v
        step[c] = total
    # mu_c - sum_e step[c][e] mu_e = step[c][0]
    n = len(cs)
    col = {c: i for i, c in enumerate(cs)}
    rows = []
    for c in cs:
        row = [Fraction(0)] * n + [step[c].get(one, Fraction(0))]
        row[col[c]] += 1
        for e, v in step[c].items():
            if e != one:
                row[col[e]] -= v
        rows.append(row)
    return dict(zip(cs, _gauss_jordan(rows)))


def wf_moments_by_degree(mutation, N, degree):
    """Exact stationary E[W^c], 1 <= |c| <= degree, of a Wright-Fisher
    chain, {c: Fraction}, from the falling-factorial form: the multinomial
    falling moments E prod_j (X'_j)_(i_j) = (N)_|i| q(w)^i and
    x^c = sum_i S(c, i) (x)_i, S the Stirling numbers of the second kind,
    give E[W'^c | w] = N^-|c| sum_(i <= c) prod_j S(c_j, i_j) (N)_|i|
    q(w)^i, a polynomial of degree |c|.  Given the lower moments, those of
    one degree solve a small system in Fractions.  The set-partition form
    of `wf_stationary_moments` takes Bell(|c|) terms per moment; this one
    reaches degree 12 (about 0.3 s at K=3)."""
    d = mutation.K - 1
    one = (0,) * d
    q = _wf_next_types(mutation)
    S = [[1]]
    for n in range(1, degree + 1):
        S.append([0] + [k * S[-1][k] + S[-1][k - 1] for k in range(1, n)] + [1])
    by_degree = [
        [c for c in itertools.product(range(k + 1), repeat=d) if sum(c) == k]
        for k in range(degree + 1)
    ]
    # q(w)^i for every |i| <= degree, one factor at a time
    powers = {one: {one: Fraction(1)}}
    for cs in by_degree[1:]:
        for i in cs:
            j = next(k for k in range(d) if i[k])
            powers[i] = _poly_mul(powers[i[:j] + (i[j] - 1,) + i[j + 1 :]], q[j])
    mu = {one: Fraction(1)}
    for k, cs in enumerate(by_degree[1:], start=1):
        col = {c: n for n, c in enumerate(cs)}
        rows = []
        for c in cs:
            row = [Fraction(0)] * (len(cs) + 1)
            row[col[c]] += 1
            for i in itertools.product(*(range(cj + 1) for cj in c)):
                coef = math.prod(S[cj][ij] for cj, ij in zip(c, i))
                if coef == 0:
                    continue
                coef = Fraction(coef * math.perm(N, sum(i)), N**k)
                for e, v in powers[i].items():
                    if sum(e) == k:
                        row[col[e]] -= coef * v
                    else:
                        row[-1] += coef * v * mu[e]
            rows.append(row)
        mu.update(zip(cs, _gauss_jordan(rows)))
    del mu[one]
    return mu


def wf_stationary_law(mutation, N):
    """The exact stationary law of a Wright-Fisher chain, {free counts:
    Fraction}, so its moments of any degree are exact: every row is the
    multinomial law Mult(N, x P / N) in Fractions, and pi P = pi with
    sum(pi) = 1 is solved by Gauss-Jordan elimination.  The set-partition
    sums of wf_stationary_moments grow with the Bell numbers of the
    degree; this grows with the states instead, so it serves high degrees
    at small N."""
    K = mutation.K
    full = list(_compositions(N, K))
    n = len(full)
    # row i of the system: sum_x pi(x) (P[x, y_i] - [x == y_i]) = 0, the
    # last replaced by sum_x pi(x) = 1
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]
    for col, x in enumerate(full):
        q = [sum(Fraction(x[i]) * Fraction(mutation.p[i][j]) for i in range(K)) / N for j in range(K)]
        for r, y in enumerate(full):
            term = Fraction(math.factorial(N))
            for qj, yj in zip(q, y):
                term *= qj**yj / math.factorial(yj)
            rows[r][col] += term
        rows[col][col] -= 1
    rows[-1] = [Fraction(1)] * n + [Fraction(1)]
    for i in range(n):
        piv = next(r for r in range(i, n) if rows[r][i] != 0)
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = 1 / rows[i][i]
        rows[i] = [v * inv for v in rows[i]]
        for r in range(n):
            if r != i and rows[r][i] != 0:
                f = rows[r][i]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[i])]
    return {x[:-1]: rows[i][n] for i, x in enumerate(full)}

# ---------------------------------------------------------------------------
# the battery's certified seminorms, re-derived by dense finite-difference
# probing, so a stale constant in `make_battery` cannot survive a refactor


def _probe_points(K, step, margin):
    """Lattice over the open simplex plus dense axis-parallel lines, so
    both interior extrema and boundary-attained ones are seen."""
    if K == 2:
        return np.arange(margin, 1.0 - margin, step / 16)[:, None]
    pts = [
        (x1, x2)
        for x1 in np.arange(margin, 1.0 - margin, step)
        for x2 in np.arange(margin, 1.0 - margin - x1, step)
    ]
    dense = np.arange(margin, 1.0 - margin, step / 8)
    for other in (margin, 1.0 / 3.0):
        for v in dense:
            if v + other <= 1.0 - margin:
                pts.append((v, other))
                pts.append((other, v))
    return np.array(pts)


# centered stencils per derivative order, as offset -> coefficient / h^k
_STENCILS = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
}


def _fd_partial_max(fn, pts, orders, h):
    """Max abs of one mixed partial over pts by tensor-product stencils."""
    d = pts.shape[1]
    terms = [(np.zeros(d), 1.0)]
    for axis, k in orders.items():
        new = []
        for off, coef in _STENCILS[k].items():
            for base, c in terms:
                v = base.copy()
                v[axis] += off
                new.append((v, c * coef))
        terms = new
    total = np.zeros(len(pts))
    for off, coef in terms:
        total += coef * np.asarray(fn(pts + off * h), dtype=np.float64)
    return float(np.max(np.abs(total))) / h ** sum(orders.values())


def validate_battery(fns, K):
    """Dense finite-difference probing of every certified constant.

    Each seminorm must cover the probed maximum (validity) and the probe
    must reach at least 95% of it wherever the certified value is
    nonzero (tightness); failures raise.  The constants never change at
    run time, so the probe runs in the test suite, not in `make_battery`.

    The step is small because the bump's third derivative jumps at its
    support edge and a wide stencil would average the jump away.
    """
    from dirstein.metrics import MetricsError

    h = 5e-4
    pts = _probe_points(K, 1.0 / 120.0, 0.005)
    d = K - 1
    for f in fns:
        vals = np.asarray(f.fn(pts), dtype=np.float64)
        lo, hi = f.value_range
        if vals.min() < lo - 1e-9 or vals.max() > hi + 1e-9:
            raise MetricsError(f"{f.tag}: probed values escape value_range")
        if vals.max() > f.sup_norm + 1e-9:
            raise MetricsError(f"{f.tag}: probed sup exceeds certified sup_norm")
        for cert, combos in (
            (f.h1, [{i: 1} for i in range(d)]),
            (
                f.h2,
                [
                    {i: c.count(i) for i in set(c)}
                    for c in itertools.combinations_with_replacement(range(d), 2)
                ],
            ),
            (
                f.h21,
                [
                    {i: c.count(i) for i in set(c)}
                    for c in itertools.combinations_with_replacement(range(d), 3)
                ],
            ),
        ):
            probed = max(_fd_partial_max(f.fn, pts, orders, h) for orders in combos)
            if probed > cert * 1.05 + 1e-5:
                raise MetricsError(
                    f"{f.tag}: probed derivative {probed:.6g} exceeds "
                    f"certified {cert:.6g}"
                )
            if cert > 0 and probed < cert * 0.95 - 1e-5:
                raise MetricsError(
                    f"{f.tag}: certified {cert:.6g} is loose, probe only "
                    f"reached {probed:.6g}"
                )
