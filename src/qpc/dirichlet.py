"""Euler factors of the double Dirichlet series and zeta evaluation.

The generating function of the counts is

    F(s, w) = sum_n n^-s sum_{d | n^4, n^4/d square} d^-w r4*(d)
            = zeta(s) zeta(s+2w-2) zeta(s+4w-4) * G(s, w),

where G is an Euler product.  Each local factor F_p is built as an exact
polynomial in X = p^-s, Y = p^-w two ways: from the definition (divisor
sums of r4* on prime powers), and from the closed form, the right side of
a formal power-series identity (_RHS_1 at z = p, or _RHS_2 at a = 3 for
p = 2).  The identities are checked as truncated series and exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import primes_up_to, r4_star_p2b, square_divisor_blocks
from .errors import DomainError
from .series import RationalFunction, TruncSeries

# Bernoulli numbers B_2k for the Euler-Maclaurin tail.
_BERNOULLI = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
]

# B_2k / (2k)! as floats, for k = 1..len(_BERNOULLI), taken once.
_EM_COEFFS = [
    (b.numerator / b.denominator) / math.factorial(2 * k) for k, b in enumerate(_BERNOULLI, 1)
]

_EM_N = 24
_EM_K = 11

ZETA_TOLERANCE = 1e-12

CONVERGENCE_MARGIN = 1e-3  # epsilon in min_j Re(s+2jw-2j) >= 1/2 + epsilon


@dataclass(frozen=True)
class ZetaValue:
    s: float
    value: float
    error_bound: float


def _em_terms(s: float, N: int, K: int) -> tuple[list[float], float]:
    """The Euler-Maclaurin corrections B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k)
    for k = 1..K, and the size of the first omitted one."""
    terms = []
    rising = s  # s(s+1)...(s+2k-2)
    npow = N ** (-s - 1.0)
    for k in range(1, K + 1):
        terms.append(_EM_COEFFS[k - 1] * rising * npow)
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        npow /= N * N
    omitted = abs(_EM_COEFFS[K]) * abs(rising) * npow
    return terms, omitted


def zeta(s: float) -> ZetaValue:
    """Riemann zeta on the real axis s > 1 by Euler-Maclaurin summation.

    The error bound combines the first omitted correction term with a
    float-rounding allowance; the cutoff grows until the truncation part
    meets ZETA_TOLERANCE.  Near s = 1 the rounding floor scales with the
    value (which blows up), so an absolute tolerance may be unreachable;
    the achievable bound is reported rather than failing.
    """
    if s <= 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")
    N = _EM_N
    while True:
        head = math.fsum(n ** (-s) for n in range(1, N))
        pole = N ** (1.0 - s) / (s - 1.0)
        half = 0.5 * N ** (-s)
        terms, omitted = _em_terms(s, N, _EM_K)
        if omitted <= ZETA_TOLERANCE or N >= 1024:
            break
        N *= 2
    tail = 0.0
    for term in terms:  # in order, not fsum: the values stay as they were
        tail += term
    value = head + pole + half + tail
    rounding = 8.0 * abs(value) * 2.2e-16
    return ZetaValue(s, value, omitted + rounding)


def zeta_derivative(s: float) -> ZetaValue:
    """zeta'(s) on the real axis s > 1: the Euler-Maclaurin sum of zeta,
    differentiated term by term in s.

    The correction B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) differentiates to
    itself times H - log N, H = sum_{j < 2k-1} 1/(s+j).  The remainder is
    that of the summand -x^-s log x, whose m-th derivative has the sign of
    (-1)^m (log x - sum_{j<m} 1/(s+j)); once log N exceeds that sum for the
    first omitted order, the derivative keeps one sign on x >= N and the
    remainder is at most twice the first omitted term.  The cutoff N doubles
    until this holds and the bound meets ZETA_TOLERANCE, as in zeta; the
    error bound adds the same kind of float-rounding allowance.
    """
    if s <= 1.0:
        raise DomainError(f"zeta_derivative requires s > 1, got {s}")
    # harmonic[m] = 1/s + 1/(s+1) + ... + 1/(s+m-1)
    reciprocals = (1.0 / (s + j) for j in range(2 * _EM_K + 2))
    harmonic = list(itertools.accumulate(reciprocals, initial=0.0))
    N = _EM_N
    while math.log(N) <= harmonic[-1]:
        N *= 2
    while True:
        log_n = math.log(N)
        head = -math.fsum(math.log(n) * n ** (-s) for n in range(2, N))
        pole = -(N ** (1.0 - s)) * (log_n / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
        half = -0.5 * log_n * N ** (-s)
        terms, omitted = _em_terms(s, N, _EM_K)
        tail = math.fsum(t * (harmonic[2 * k + 1] - log_n) for k, t in enumerate(terms))
        omitted *= 2.0 * (log_n - harmonic[-2])
        if omitted <= ZETA_TOLERANCE or N >= 1024:
            break
        N *= 2
    rounding = 8.0 * (abs(head) + abs(pole) + abs(half) + abs(tail)) * 2.2e-16
    return ZetaValue(s, head + pole + half + tail, omitted + rounding)


# ----------------------------------------------------------------------
# local factors as exact polynomials in X = p^-s, Y = p^-w, to X-degree deg
# ----------------------------------------------------------------------

_LOCAL_DEG_CAP = 200


def _over_binomial(rows: list[dict], a: int, b: int) -> None:
    """rows / (1 - a X Y^b) in place, by the recurrence
    c[(nu, mu)] = f[(nu, mu)] + a c[(nu-1, mu-b)] in ascending X-degree."""
    for nu in range(1, len(rows)):
        row = rows[nu]
        for mu, v in rows[nu - 1].items():
            row[mu + b] = row.get(mu + b, 0) + a * v


def _xw_series(rows: list[dict]) -> TruncSeries:
    """The exact polynomial sum_nu X^nu rows[nu] in X, Y, of X-degree at
    most len(rows) - 1, with the zeros dropped and no other filter pass."""
    out = TruncSeries(2)
    out.coeffs = {(nu, mu): v for nu, row in enumerate(rows) for mu, v in row.items() if v}
    return out


def _check_local_args(p: int, deg: int) -> None:
    if not (0 <= deg <= _LOCAL_DEG_CAP):
        raise ValueError(f"truncation degree must be in [0, {_LOCAL_DEG_CAP}]")
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


def local_factor_definition(p: int, deg: int = 30) -> TruncSeries:
    """The part of F_p(s, w) of X-degree <= deg, as an exact polynomial,
    from the definition:

        sum_{nu <= deg} X^nu sum_{0 <= mu <= 2 nu} Y^(2 mu) r4*(p^(2 mu)).

    No r4* value is zero, so every term is stored."""
    _check_local_args(p, deg)
    r4s = [r4_star_p2b(p, mu) for mu in range(2 * deg + 1)]
    out = TruncSeries(2)
    out.coeffs = {(nu, 2 * mu): r4s[mu] for nu in range(deg + 1) for mu in range(2 * nu + 1)}
    return out


def local_factor_closed_form(p: int, deg: int = 30) -> TruncSeries:
    """The part of F_p(s, w) of X-degree <= deg, as an exact polynomial,
    from its closed form: the right side of formal identity 1 at z = p (odd
    p), or of identity 2 at a = 3 (p = 2), with x = X and y = Y.

    That is G_p times the zeta-type factors prod_{0<=j<=2} (1 - p^(2j) X
    Y^(2j))^-1, since G_p's factor 1 - p^2 X Y^2 cancels the one of j = 1,
    and G_2's 1 - 4 X Y^2 and 1 - 16 X Y^4 those of j = 1 and 2.  The
    numerator goes into one dict of Y-exponents per X-degree, and each
    binomial of the denominator is divided out by _over_binomial, in
    O(terms), with no series inverse and no series product."""
    _check_local_args(p, deg)
    (monomials, binomials), value = (_RHS_2, 3) if p == 2 else (_RHS_1, p)
    rows = [{} for _ in range(deg + 1)]
    for c, (nu, mu, k) in monomials:
        if nu <= deg:
            rows[nu][mu] = rows[nu].get(mu, 0) + c * value**k
    for _, mu, k in binomials:
        _over_binomial(rows, value**k, mu)
    return _xw_series(rows)


# ----------------------------------------------------------------------
# the two formal power-series identities
# ----------------------------------------------------------------------

_IDENTITY_DEGREE = 40

# The right sides as (numerator monomials (coef, exponents), denominator
# binomials 1 - m by the exponents of m): identity 1 in (x, y, z), identity
# 2 in (x, y, a), with numerator 1 + a x y^2 + (a - 1) x y^4.  The local
# closed form reads them at z = p and at a = 3.
_RHS_1 = (
    ((1, (0, 0, 0)), (1, (1, 2, 0)), (1, (1, 2, 1)), (1, (1, 2, 2)),
     (1, (1, 4, 1)), (1, (1, 4, 2)), (1, (1, 4, 3)), (1, (2, 6, 3))),
    ((1, 0, 0), (1, 4, 0), (1, 4, 4)),
)
_RHS_2 = (
    ((1, (0, 0, 0)), (1, (1, 2, 1)), (1, (1, 4, 1)), (-1, (1, 4, 0))),
    ((1, 0, 0), (1, 4, 0)),
)


def _tri(coef: int, exps: tuple[int, int, int], deg: int | None) -> TruncSeries:
    return TruncSeries.monomial(coef, exps, max_degree=deg)


def _rf(coef: int, exps: tuple[int, int, int]) -> RationalFunction:
    return RationalFunction.from_poly(_tri(coef, exps, None))


def _rhs(terms, deg: int | None) -> tuple[TruncSeries, TruncSeries]:
    """(numerator, denominator) of a right side, truncated at deg (None:
    exact), summed and multiplied left to right."""
    monomials, binomials = terms
    num = _tri(*monomials[0], deg)
    for coef, exps in monomials[1:]:
        num = num + _tri(coef, exps, deg)
    one = _tri(1, (0, 0, 0), deg)
    den = one - _tri(1, binomials[0], deg)
    for exps in binomials[1:]:
        den = den * (one - _tri(1, exps, deg))
    return num, den


def _two_routes(lhs: dict, terms, closed) -> bool:
    """Check an identity both ways: the defining sum, whose coefficients lhs
    holds to total degree _IDENTITY_DEGREE, equals the right side expanded
    to that degree, and closed(), the geometric-series closed form of the
    left side, equals the right side exactly, by cross-multiplication."""
    deg = _IDENTITY_DEGREE
    num, den = _rhs(terms, deg)
    if TruncSeries(3, lhs, max_degree=deg) != num * den.inverse():
        return False
    return closed() == RationalFunction(*_rhs(terms, None))


def _geom_closed_lhs_1() -> RationalFunction:
    """Closed form of sum_nu x^nu sum_{mu<=2nu} y^(2mu) (1-z^(2mu+1))/(1-z)
    after summing the geometric series in nu."""
    one = _rf(1, (0, 0, 0))
    inv_1mx = one / (one - _rf(1, (1, 0, 0)))
    inv_1mxy4 = one / (one - _rf(1, (1, 4, 0)))
    inv_1mxy4z4 = one / (one - _rf(1, (1, 4, 4)))
    y2 = _rf(1, (0, 2, 0))
    y2z2 = _rf(1, (0, 2, 2))
    z = _rf(1, (0, 0, 1))
    term1 = (inv_1mx - y2 * inv_1mxy4) / (one - y2)
    term2 = z * (inv_1mx - y2z2 * inv_1mxy4z4) / (one - y2z2)
    return (term1 - term2) / (one - z)


def formal_identity_1() -> bool:
    """Verify the trivariate generating identity in (x, y, z) both ways
    (_two_routes): the truncated route at total degree 40, then the exact
    route by cross-multiplication."""
    deg = _IDENTITY_DEGREE
    coeffs = {
        (nu, 2 * mu, j): 1
        for nu in range(deg + 1)
        for mu in range(min(2 * nu, (deg - nu) // 2) + 1)
        for j in range(min(2 * mu, deg - nu - 2 * mu) + 1)
    }
    return _two_routes(coeffs, _RHS_1, _geom_closed_lhs_1)


def _geom_closed_lhs_2() -> RationalFunction:
    """Closed form of 1 + sum_{nu>=1} x^nu (1 + a sum_{1<=mu<=2nu} y^(2mu))."""
    one = _rf(1, (0, 0, 0))
    x = _rf(1, (1, 0, 0))
    y2 = _rf(1, (0, 2, 0))
    a = _rf(1, (0, 0, 1))
    inv_1mx = one / (one - x)
    inv_1my2 = one / (one - y2)
    inv_1mxy4 = one / (one - _rf(1, (1, 4, 0)))
    return inv_1mx + a * x * y2 * inv_1mx * inv_1my2 - a * _rf(1, (1, 6, 0)) * inv_1my2 * inv_1mxy4


def formal_identity_2() -> bool:
    """Same two-route verification for the bivariate-with-parameter identity
    in the variables (x, y, a)."""
    deg = _IDENTITY_DEGREE
    coeffs = {(nu, 0, 0): 1 for nu in range(deg + 1)}
    for nu in range(1, deg + 1):
        for mu in range(1, min(2 * nu, (deg - nu - 1) // 2) + 1):
            coeffs[(nu, 2 * mu, 1)] = 1
    return _two_routes(coeffs, _RHS_2, _geom_closed_lhs_2)


# ----------------------------------------------------------------------
# the Euler product G(s, w) and the global factorization
# ----------------------------------------------------------------------


def _exponent_triple(s: float, w: float) -> tuple[float, float, float]:
    return (s, s + 2 * w - 2, s + 4 * w - 4)


def _check_convergence_domain(s: float, w: float) -> tuple[float, float, float]:
    es = _exponent_triple(s, w)
    if min(es) < 0.5 + CONVERGENCE_MARGIN:
        raise DomainError(
            f"(s, w)=({s}, {w}) outside the absolute-convergence domain: "
            f"min exponent {min(es):.6f} < {0.5 + CONVERGENCE_MARGIN}"
        )
    return es


def g_factor_odd(p, s: float, w: float):
    """G_p(s, w) for odd p, a float or a numpy array of them, in five pows:
    the closed form

        [1 + (p^2+p+1) x + (p^3+p^2+p) y + p^3 z] (1 - p^2 x) / (1 - y),

    x = p^-(s+2w), y = p^-(s+4w), z = p^-(2s+6w)."""
    x = p ** (-(s + 2 * w))
    y = p ** (-(s + 4 * w))
    t = 1.0 + (p * p + p + 1) * x + (p**3 + p * p + p) * y + p**3.0 * p ** (-(2 * s + 6 * w))
    return t * (1.0 - p * p * x) / (1.0 - y)


def g_factor_2(s: float, w: float) -> float:
    """G_2(s, w) from its own closed form (the prime 2 is special)."""
    val = (1.0 + 3.0 * 2 ** (-s - 2 * w) + 2 ** (-s - 4 * w + 1)) / (
        1.0 - 2 ** (-s - 4 * w)
    )
    for j in (1, 2):
        val *= 1.0 - 2 ** (-(s + 2 * j * w - 2 * j))
    return val


def _g_tail_log_bound(s: float, w: float, pmin: float) -> float:
    """Rigorous bound on sum_{p > P} |log G_p| for P >= pmin >= 3.

    G_p - 1 = (sum of signed p-power monomials) / (1 - p^-(e2+4)); the
    monomial exponents follow from expanding the closed form, and exact
    cancellations between them (decisive at (s,w)=(1,1)) are kept by
    merging equal exponents before bounding.
    """
    _, e1, e2 = _exponent_triple(s, w)
    monomials = [
        (1.0, e1 + 1),
        (1.0, e1 + 2),
        (1.0, e2 + 1),
        (1.0, e2 + 2),
        (1.0, e2 + 3),
        (-1.0, 2 * e1),
        (-1.0, 2 * e1 + 1),
        (-1.0, 2 * e1 + 2),
        (-1.0, e1 + e2 + 1),
        (-1.0, e1 + e2 + 2),
        (-1.0, 2 * e1 + e2 + 3),
        (1.0, e2 + 4),
    ]
    merged: dict[float, float] = {}
    for c, e in monomials:
        key = round(e, 9)
        merged[key] = merged.get(key, 0.0) + c
    merged = {e: c for e, c in merged.items() if abs(c) > 1e-12}
    m = min(merged)
    # |numerator| <= C p^-m for p >= pmin, folding the exponent gaps into C
    c_num = sum(abs(c) * pmin ** (-(e - m)) for e, c in merged.items())
    c_all = c_num / (1.0 - pmin ** (-(e2 + 4)))
    top = c_all * pmin ** (-m)
    if top >= 0.5:
        # far from the asymptotic regime; fall back to a crude doubling
        return math.inf
    c_log = c_all / (1.0 - top)
    # sum_{n > P} n^-m <= P^(1-m)/(m-1)
    return c_log * pmin ** (1.0 - m) / (m - 1.0)


def g_value(s: float, w: float, prime_limit: int) -> tuple[float, float]:
    """Partial Euler product of G over p <= prime_limit, with a certified
    absolute tail bound.

    Raises DomainError outside min_j(s + 2jw - 2j) >= 1/2 + margin.  The
    odd factors are g_factor_odd over one array of the primes, multiplied by
    one sequential np.prod, so results are reproducible.
    """
    _check_convergence_domain(s, w)
    ps = primes_up_to(prime_limit)
    odd = ps[ps > 2].astype(np.float64)
    value = 1.0
    log_tail = 0.0
    if prime_limit >= 2:
        value *= g_factor_2(s, w)
    else:
        log_tail += abs(math.log(g_factor_2(s, w)))
    if odd.size:
        value *= float(np.prod(g_factor_odd(odd, s, w)))
    # analytic bound beyond max(prime_limit, 10); explicit factors in between
    analytic_from = max(prime_limit, 10)
    for p in (3, 5, 7):
        if p > prime_limit:
            log_tail += abs(math.log(g_factor_odd(float(p), s, w)))
    log_tail += _g_tail_log_bound(s, w, float(analytic_from))
    tail_bound = abs(value) * math.expm1(log_tail) if math.isfinite(log_tail) else math.inf
    return value, tail_bound


def global_series_check(points, N: int, prime_limit: int) -> list[float]:
    """|LHS - RHS| at each (s, w) of points, for the factorization of the
    double Dirichlet series:

      LHS = sum_{n <= N} n^-s sum_{m | n^2} (n^4/m^2)^-w r4*(n^4/m^2)
      RHS = zeta(s) zeta(s+2w-2) zeta(s+4w-4) G(s, w)  (product to prime_limit).

    The LHS is n-ordered, and one pass of arith.square_divisor_blocks
    (N <= 2^15, else ResourceError) serves every point: per block of 256 n,
    one np.add.reduceat per n of (q^2)^-w r4*(q^2) for q = n^2/m, times
    n^-s; math.fsum adds the N terms.  Each residual is the one a call with
    that point alone returns.
    """
    for s, w in points:
        if s <= 5 or w <= 0:
            raise DomainError(f"series converges for s > 5, w > 0; got ({s}, {w})")
    terms = [[] for _ in points]
    for lo, counts, q, g in square_divisor_blocks(N):
        q2 = (q * q).astype(np.float64)
        weights = g.astype(np.float64)
        starts = np.cumsum(counts) - counts
        n = np.arange(lo, lo + len(counts), dtype=np.float64)
        for (s, w), out in zip(points, terms):
            inner = np.add.reduceat(q2 ** (-w) * weights, starts)
            out.extend((n ** (-s) * inner).tolist())
    residuals = []
    for (s, w), out in zip(points, terms):
        e0, e1, e2 = _exponent_triple(s, w)
        rhs = (
            zeta(e0).value
            * zeta(e1).value
            * zeta(e2).value
            * g_value(s, w, prime_limit)[0]
        )
        residuals.append(abs(math.fsum(out) - rhs))
    return residuals
