"""Exact evaluation of the height-count sums S(x,y), T(B), N*(B), N_U(B).

Every count here reduces to sums of r4*(q^2) over divisors q of n^2:
a divisor d of n^4 with square cofactor is exactly d = (n^2/m)^2 = q^2
for a divisor m of n^2, so

    S(x, y)  = sum_{n<=x} sum_{q | n^2, q^2 <= y} r4*(q^2)
    T(B)     = sum_{n<=B} sum_{q | n^2, q*B < n^2} r4*(q^2)
    N*(B)/32 = sum_{n<=B} sum_{q | n^2, q <= B, n^2 <= q*B} r4*(q^2)

and the primitive count N_U(B) = sum_j mu(j) N*(B/j), with j summed
innermost, is the Mertens form

    N_U(B)/32 = sum_{q<=B} r4*(q^2) sum_{m>=1} M(min(B//q, q*B//(kappa(q)^2 m^2)))

for M the Mertens function: O(B) work, against O(B log B) for one N* pass
per squarefree j.

All of them are evaluated in the swapped order by one kernel: q | n^2
exactly when kappa(q) | n, so each q contributes r4*(q^2) times a count over
the multiples n = kappa(q)*m (for N_U, the sum of M above).  All bound
comparisons are integer cross-multiplications; all accumulators are exact
(Python integers never wrap).  The n-ordered divisor enumeration
(arith.square_divisor_weights) is the independent oracle that
partition_witness checks the kernel against."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import SpfSieve, mertens_table, square_divisor_weights
from .errors import ResourceError

BRUTE_STAR_CAP = 60
BRUTE_PRIMITIVE_CAP = 40

# Tuples on the hypersurface come in sign families: 2 signs for x, 2 for z,
# and 8*r4*(d) quadruples for y, giving the overall factor 32.
SIGN_FACTOR = 32


@dataclass(frozen=True)
class CountRecord:
    """One output row: exact count vs. predicted main term at one bound."""

    kind: str
    bound: int
    exact_count: int
    predicted_main: float | None
    ratio: float | None
    elapsed: float

    def __post_init__(self):
        if self.exact_count < 0:
            raise ValueError("exact_count must be >= 0")
        if (self.ratio is not None) != (
            self.predicted_main is not None and self.predicted_main > 0
        ):
            raise ValueError("ratio must be present iff predicted_main > 0")


@dataclass(frozen=True)
class PartitionWitness:
    """Independently computed S(B,B^2), T(B), N*(B) tied by N* = 32(S-T)."""

    B: int
    s_part: int
    t_part: int
    n_star: int

    def __post_init__(self):
        if self.n_star != SIGN_FACTOR * (self.s_part - self.t_part):
            raise ArithmeticError(
                f"partition identity violated at B={self.B}: "
                f"n_star={self.n_star}, 32*(s-t)={SIGN_FACTOR * (self.s_part - self.t_part)}"
            )


@dataclass(frozen=True)
class TelescopeReport:
    lower_ok: bool
    partition_ok: bool
    k0: int
    t_value: int
    lower_bound_sum: int
    upper_bound_sum: int


# ----------------------------------------------------------------------
# counting kernel
# ----------------------------------------------------------------------


def _kappa_sum(spf, K: int, Q: int, count) -> int:
    """Sum of r4*(q^2) * count(q, kappa(q)) over q <= Q with kappa(q) <= K.

    This is the (n, q) double sum taken in the swapped order: q | n^2
    exactly when kappa(q) | n, with kappa(q) = prod p^ceil(a/2) over p^a || q,
    so count(q, k) is the number of admissible multiples n of k = kappa(q)
    (or, for N_U, a sum of such numbers).
    For each k <= K the q with kappa(q) = k follow from k's factorization:
    every p^e || k puts p^(2e-1) or p^(2e) into q, and r4*(q^2) is the
    product of the r4*(p^(2a)).  A q above Q is dropped as soon as it is
    formed; since q >= kappa(q), no k above Q contributes.
    """
    item = spf.item
    total = 0
    for k in range(1, min(K, Q) + 1):
        qs = [1]
        ws = [1]
        m = k
        while m > 1 and qs:
            p = item(m)
            m //= p
            pe1 = 1  # p^(e-1)
            while m % p == 0:
                m //= p
                pe1 *= p
            q_lo = p * pe1 * pe1  # p^(2e-1)
            if p == 2:
                w_lo = w_hi = 3
            else:
                # r4*(p^(2a)) = (p^(2a+1) - 1)/(p - 1) for a = 2e-1, 2e
                top = q_lo * q_lo * p
                w_lo = (top - 1) // (p - 1)
                w_hi = (top * p * p - 1) // (p - 1)
            nq = []
            nw = []
            for i in range(len(qs)):
                q = qs[i] * q_lo
                if q > Q:
                    continue
                w = ws[i]
                nq.append(q)
                nw.append(w * w_lo)
                q *= p
                if q <= Q:
                    nq.append(q)
                    nw.append(w * w_hi)
            qs = nq
            ws = nw
        for i in range(len(qs)):
            total += ws[i] * count(qs[i], k)
    return total


def _s_window(spf, a: int, c: int, Q: int) -> int:
    """S restricted to a < n <= c: the q <= Q with q | n^2."""
    return _kappa_sum(spf, c, Q, lambda q, k: c // k - a // k)


def _t_window(spf, a: int, c: int, B: int) -> int:
    """T(B) restricted to a < n <= c: the q | n^2 with q*B < n^2, i.e.
    n > isqrt(q*B)."""
    isqrt = math.isqrt

    def count(q, k):
        lo = max(a, isqrt(q * B))
        return c // k - lo // k if lo < c else 0

    return _kappa_sum(spf, c, B, count)


def _n_star_window(spf, bn: int, bd: int) -> int:
    """N*(bn/bd)/32: the q | n^2 with q <= bn/bd and n^2 <= q*bn/bd."""
    isqrt = math.isqrt
    return _kappa_sum(spf, bn // bd, bn // bd, lambda q, k: isqrt(q * bn // bd) // k)


# ----------------------------------------------------------------------
# public counting operations
# ----------------------------------------------------------------------


def _as_num_den(bound) -> tuple[int, int]:
    if isinstance(bound, Fraction):
        return bound.numerator, bound.denominator
    if isinstance(bound, int):
        return bound, 1
    raise TypeError(f"unsupported bound type {type(bound)!r}")


def _check_range(n_max: int, sieve: SpfSieve) -> None:
    if n_max > sieve.limit:
        raise ResourceError(
            f"count needs integers up to {n_max}, sieve limit is {sieve.limit}"
        )


def s_exact(x: int, y, sieve: SpfSieve) -> int:
    """S(x, y): sum over n <= x, d | n^4 with d <= y and n^4/d square, of r4*(d).

    y may be an int or a Fraction; the divisor condition
    d = q^2 <= y is evaluated exactly.
    """
    if x < 1:
        return 0
    _check_range(x, sieve)
    ynum, yden = _as_num_den(y)
    return _s_window(sieve.spf, 0, x, math.isqrt(ynum // yden))


def t_exact(B: int, sieve: SpfSieve) -> int:
    """T(B): sum over n <= B, d | n^4 with d < n^4/B^2 and n^4/d square, of r4*(d)."""
    if B < 1:
        return 0
    _check_range(B, sieve)
    return _t_window(sieve.spf, 0, B, B)


def n_star(bound, sieve: SpfSieve) -> int:
    """N*(bound): integer tuples (x, y1..y4, z) on x^4 = (y1^2+..+y4^2) z^2
    with 1 <= |x| <= bound, 1 <= sum y_i^2 <= bound^2, |z| <= bound.

    bound may be an int or a Fraction; returns 0 for bound < 1.
    """
    bn, bd = _as_num_den(bound)
    n_max = bn // bd
    if n_max < 1:
        return 0
    _check_range(n_max, sieve)
    return SIGN_FACTOR * _n_star_window(sieve.spf, bn, bd)


def n_u(B, sieve: SpfSieve) -> int:
    """N_U(B): primitive tuples (gcd of all six coordinates = 1) of height <= B.

    Mobius inversion gives N_U(B) = sum_{j <= B} mu(j) N*(B/j); summed with
    j innermost it becomes the Mertens form

        N_U(B)/32 = sum_{q<=B} r4*(q^2) sum_{m>=1} M(min(B//q, q*B//(kappa(q)^2 m^2))),

    one kernel pass over q <= B with a table of M(0..B): O(B) work where
    one N* pass per squarefree j costs O(B log B).  B may be an int or a
    Fraction; every floor is taken exactly.
    """
    bn, bd = _as_num_den(B)
    n_max = bn // bd
    if n_max < 1:
        return 0
    _check_range(n_max, sieve)
    isqrt = math.isqrt
    mertens = mertens_table(n_max)

    # With k = kappa(q) and c = B//q, the pair (q, n = k*m) lies in N*(B/j)
    # exactly when j <= c and j <= q*B//(k^2 m^2); the first
    # m0 = isqrt(q*B//(k^2 c)) values of m are capped at M(c), the rest run
    # until the floor reaches 0.
    def count(q, k):
        c = bn // (bd * q)
        top = q * bn
        den = bd * k * k
        m = isqrt(top // (den * c))
        total = m * mertens[c]
        m += 1
        v = top // (den * m * m)
        while v:
            total += mertens[v]
            m += 1
            v = top // (den * m * m)
        return total

    return SIGN_FACTOR * _kappa_sum(sieve.spf, n_max, n_max, count)


def partition_witness(B: int, sieve: SpfSieve) -> PartitionWitness:
    """S(B,B^2) and T(B) from the counting kernel, N*(B) from the divisors
    of each n^2 in turn; constructing the witness verifies N* = 32 (S - T).

    The two orders of summation share no code past the sieve, so a kernel
    that loses or repeats a term breaks the identity.
    """
    s_val = s_exact(B, B * B, sieve)
    t_val = t_exact(B, sieve)
    ns = 0
    for n in range(1, B + 1):
        n2 = n * n
        for q, w in square_divisor_weights(sieve.factor_list(n)):
            if q <= B and n2 <= q * B:
                ns += w
    return PartitionWitness(B, s_val, t_val, SIGN_FACTOR * ns)


# ----------------------------------------------------------------------
# brute-force oracles (independent of the divisor identities)
# ----------------------------------------------------------------------


def _r4_table_by_convolution(dmax: int) -> np.ndarray:
    """r4(d) for d <= dmax by convolving the one-square counting sequence.

    Counts pairs, then quadruples, by exact integer convolution; no divisor
    formula is involved.
    """
    r1 = np.zeros(dmax + 1, dtype=np.int64)
    r1[0] = 1
    k = 1
    while k * k <= dmax:
        r1[k * k] = 2
        k += 1
    r2 = np.convolve(r1, r1)[: dmax + 1]
    return np.convolve(r2, r2)[: dmax + 1]


def brute_force_star(B: int) -> int:
    """Oracle for N*(B): enumerate (x, z) pairs and weight by a brute-force
    four-square representation table.  Guarded to B <= 60."""
    if B > BRUTE_STAR_CAP:
        raise ValueError(f"brute_force_star capped at B={BRUTE_STAR_CAP}")
    if B < 1:
        return 0
    B2 = B * B
    r4t = _r4_table_by_convolution(B2)
    total = 0
    for x in range(1, B + 1):
        x4 = x**4
        for z in range(1, B + 1):
            z2 = z * z
            if x4 % z2 == 0:
                d = x4 // z2
                if d <= B2:
                    total += 4 * int(r4t[d])
    return total


def brute_force_primitive(B: int) -> int:
    """Oracle for N_U(B): exhaustive tuple enumeration with a gcd filter.

    The y-quadruples are enumerated once (numpy grids chunked over y1) into
    a table counting (sum of squares, gcd of the quadruple); each (x, z)
    pair then keeps the classes with gcd(x, z, gcd_y) = 1.  Guarded to B <= 40.
    """
    if B > BRUTE_PRIMITIVE_CAP:
        raise ValueError(f"brute_force_primitive capped at B={BRUTE_PRIMITIVE_CAP}")
    if B < 1:
        return 0
    B2 = B * B
    axis = np.arange(-B, B + 1)
    sq = axis * axis
    sum3 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
    gcd3 = np.gcd(
        np.gcd.outer(np.abs(axis), np.abs(axis))[:, :, None],
        np.abs(axis)[None, None, :],
    )
    counts = np.zeros((B2 + 1, B + 1), dtype=np.int64)
    for y1 in axis:
        d = int(y1) * int(y1) + sum3
        g = np.gcd(gcd3, abs(int(y1)))
        mask = (d >= 1) & (d <= B2)
        np.add.at(counts, (d[mask], g[mask]), 1)
    total = 0
    for x in range(1, B + 1):
        x4 = x**4
        for z in range(1, B + 1):
            z2 = z * z
            if x4 % z2:
                continue
            d = x4 // z2
            if d > B2:
                continue
            row = counts[d]
            xz = math.gcd(x, z)
            sub = 0
            for g in range(1, B + 1):
                c = int(row[g])
                if c and math.gcd(xz, g) == 1:
                    sub += c
            total += 4 * sub
    return total


# ----------------------------------------------------------------------
# telescoping partition of T(B)
# ----------------------------------------------------------------------


def _dyadic_bracket(x, bits: int = 160) -> tuple[Fraction, Fraction]:
    """Enclose an mpmath float in a dyadic Fraction interval of width 3*2^-bits."""
    import mpmath

    scaled = mpmath.mpf(x) * (1 << bits)
    lo = (int(mpmath.floor(scaled)) - 1, 1 << bits)
    hi = (int(mpmath.ceil(scaled)) + 1, 1 << bits)
    return Fraction(*lo), Fraction(*hi)


class _AmbiguousBracket(Exception):
    pass


def _floor_of_bracket(lo: Fraction, hi: Fraction) -> int:
    f_lo = lo.numerator // lo.denominator
    f_hi = hi.numerator // hi.denominator
    if f_lo != f_hi:
        raise _AmbiguousBracket
    return f_lo


def _telescope_thresholds(B: int, dps: int) -> tuple[int, list[int], list[int]]:
    """k0 plus exact floors x_k = floor(delta^k B), y_k = floor(delta^{4k} B^2).

    delta = 1 - 1/log B is irrational; every threshold is bracketed by
    outward-rounded dyadic rationals and each floor is accepted only when
    both bracket ends agree, so the shell partition is exact.
    """
    import mpmath

    with mpmath.workdps(dps):
        log_lo, log_hi = _dyadic_bracket(mpmath.log(B))
    if log_lo <= 1:
        raise ValueError("telescoping needs log B > 1")
    delta_lo = 1 - 1 / log_lo
    delta_hi = 1 - 1 / log_hi
    thresh_lo = 1 / log_hi**3
    thresh_hi = 1 / log_lo**3

    xs = [B]
    ys = [B * B]
    pow_lo = Fraction(1)
    pow_hi = Fraction(1)
    k = 0
    while True:
        k += 1
        if k > 100000:
            raise ArithmeticError("telescoping index k0 did not terminate")
        pow_lo *= delta_lo
        pow_hi *= delta_hi
        below = pow_hi < thresh_lo          # definitely delta^k < (log B)^-3
        at_or_above = pow_lo >= thresh_hi   # definitely not
        if not below and not at_or_above:
            raise _AmbiguousBracket
        xs.append(_floor_of_bracket(pow_lo * B, pow_hi * B))
        ys.append(_floor_of_bracket(pow_lo**4 * B * B, pow_hi**4 * B * B))
        if below:
            return k, xs, ys


def telescoping_check(B: int, sieve: SpfSieve) -> TelescopeReport:
    """Verify the geometric-shell partition and lower bound for T(B).

    With delta = 1 - 1/log B and k0 minimal with delta^k0 < (log B)^-3:

      partition:  T(B) equals the shell sums over delta^k B < n <= delta^(k-1) B
                  for k = 1..k0 plus the remainder over n <= delta^k0 B;
      lower bound: T(B) >= sum_k [S(delta^(k-1) B, delta^(4k) B^2)
                                  - S(delta^k B, delta^(4k) B^2)].

    Both sides are exact integers once the irrational shell edges are
    resolved through ambiguity-checked rational brackets.
    """
    if B < 10:
        raise ValueError("telescoping_check requires B >= 10")
    _check_range(B, sieve)
    last_err = None
    for dps in (60, 130, 260):
        try:
            k0, xs, ys = _telescope_thresholds(B, dps)
            break
        except _AmbiguousBracket as err:  # pragma: no cover - astronomically rare
            last_err = err
    else:  # pragma: no cover
        raise ArithmeticError("could not disambiguate delta-power brackets") from last_err

    t_val = t_exact(B, sieve)
    spf = sieve.spf

    # per shell k = 1..k0: its T-window for the partition (plus the remainder
    # below x_{k0}), its S-window at cutoff y_k for the lower bound, and the
    # companion upper-shell S-window at the slower-shrinking cutoff y_{k-1}
    t_shells = _t_window(spf, 0, xs[k0], B)
    lower = 0
    upper = 0
    for k in range(1, k0 + 1):
        if xs[k] >= xs[k - 1]:
            continue
        t_shells += _t_window(spf, xs[k], xs[k - 1], B)
        lower += _s_window(spf, xs[k], xs[k - 1], math.isqrt(ys[k]))
        upper += _s_window(spf, xs[k], xs[k - 1], math.isqrt(ys[k - 1]))
    partition_ok = t_shells == t_val
    lower_ok = t_val >= lower

    return TelescopeReport(lower_ok, partition_ok, k0, t_val, lower, upper)
