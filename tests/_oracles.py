"""Independent closed-form targets for the equation solver tests.

Everything here is derived by a different route than the library uses:
level means of monomials come from a rising-to-falling factorial basis
change, so agreement with the sampling engines is a real cross-check, and
offspring moments come from a loop over every tuple of coordinates.
"""

import itertools
import math

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
