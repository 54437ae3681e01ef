"""Exact evaluation of the height-count sums S(x,y), T(B), N*(B), N_U(B).

Every count here reduces to sums of r4*(q^2) over divisors q of n^2:
a divisor d of n^4 with square cofactor is exactly d = (n^2/m)^2 = q^2
for a divisor m of n^2, so

    S(x, y)  = sum_{n<=x} sum_{q | n^2, q^2 <= y} r4*(q^2)
    T(B)     = sum_{n<=B} sum_{q | n^2, q*B < n^2} r4*(q^2)
    N*(B)/32 = sum_{n<=B} sum_{q | n^2, q <= B, n^2 <= q*B} r4*(q^2)

and N_U(B) = sum_j mu(j) N*(B/j) counts the primitive tuples.

Swap the order: q | n^2 exactly when kappa(q) | n, kappa(q) = prod p^ceil(a/2)
over p^a || q.  Write q = s u^2 with s squarefree; then kappa(q) = s u, and
floor(isqrt(q B) / kappa(q)) = isqrt(B // s).  With g(q) = r4*(q^2),

    N*(B)/32 = sum_{q<=B} g(q) isqrt(B // s(q))
    T(B)     = sum_{q<=B} g(q) (B // kappa(q) - isqrt(B // s(q)))
    S(x, y)  = sum_{q <= min(isqrt(y), x^2)} g(q) (x // kappa(q))
    N_U(B)/32 = sum_{q<=B} g(q) (u M(B // q) + sum_{m>u} M(B // (s m^2)))

for M the Mertens function: the last is the Mobius sum with j innermost,
since the pair (q, n = kappa(q) m) lies in N*(B/j) exactly when
j <= min(B // q, B // (s m^2)), and the minimum is B // q for m <= u.

Each count takes the tables g, kappa and mu of arith.q_tables, built once
to the caller's largest bound, and raises ValueError for a bound past
their end: s and u are the exact quotients kappa^2 / q and q / kappa, and
M is the cumulative sum of mu.  A count is one reduction (_q_sum) of g
against a per-q term over the tables, block by block: the terms are int64
numpy arrays, and each block's dot product is taken in int64 only where
an overflow bound proves it exact (_exact_dot); the block sums are added
as Python integers.

The independent order is n_star_by_divisors: the divisors of each n^2 in
turn, a block of n at a time (arith.square_divisor_blocks, over an SPF
table of its own).  A pair (n, q) counts in N*(B) exactly when q <= B and
n^2/q <= B, that is when max(q, n^2/q) <= B, whence n <= B; so one pass
to the largest bound, with each weight binned at max(q, n^2/q) and
prefix-summed, gives N*(B) at every smaller B, and partition_witness
checks the reduction against it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .arith import Q_BLOCK, square_divisor_blocks
from .errors import ResourceError

BRUTE_STAR_CAP = 60
BRUTE_PRIMITIVE_CAP = 40

# Tuples on the hypersurface come in sign families: 2 signs for x, 2 for z,
# and 8*r4*(d) quadruples for y, giving the overall factor 32.
SIGN_FACTOR = 32
# Bytes per q that n_u allocates beside the q-tables, charged to their budget:
# M(0..B) and tail as C ints (8), and at m = 2 the int64 indices of the
# squarefree s <= B/4 and their gathers (4.9).  Traced peak: 12.86, B = 3*10^5..10^7.
N_U_BYTES = 13


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
# the reduction over q
# ----------------------------------------------------------------------

_INT64_MAX = 2**63 - 1


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) elementwise, for an int64 array with 0 <= v < 2^53.

    Such v convert to float64 exactly and the root is correctly rounded,
    so it is floor(sqrt(v)) or one more; the second case is corrected.
    """
    if int(v.max(initial=0)) >= 2**53:
        raise ArithmeticError("float isqrt needs arguments below 2^53")
    r = np.sqrt(v).astype(np.int64)
    r -= r * r > v
    return r


def _exact_dot(g: np.ndarray, t: np.ndarray) -> int:
    """sum(g * t) exactly, for int64 arrays g >= 0 and t.

    No partial sum of an int64 dot over L terms can wrap when
    max g * max|t| * L < 2^63.  A block that fails this for L = len(g) is
    split into the 32-bit limbs of g, each dotted in chunks whose length L
    meets the same bound for that limb; when max|t| >= 2^31 no chunk is
    safe and the block is summed in Python integers.  Chunk sums are added
    as Python integers.
    """
    mt = max(int(t.max(initial=0)), -int(t.min(initial=0)))
    n = len(g)
    if int(g.max(initial=0)) * mt * n <= _INT64_MAX:
        return int(np.dot(g, t))
    if mt >= 1 << 31:
        return sum(x * y for x, y in zip(g.tolist(), t.tolist()))
    total = 0
    for shift, limb in ((0, g & 0xFFFFFFFF), (32, g >> 32)):
        m = int(limb.max())
        if m:
            L = _INT64_MAX // (m * mt)
            part = sum(int(np.dot(limb[i : i + L], t[i : i + L])) for i in range(0, n, L))
            total += part << shift
    return total


def _covering(tables: tuple, Q: int) -> tuple:
    """The (g, k, mu) of arith.q_tables, after checking that they hold q = Q."""
    if Q >= len(tables[0]):
        raise ValueError(f"the count needs q up to {Q}; the q-tables end at {len(tables[0]) - 1}")
    return tables


def _q_sum(tables: tuple, Q: int, term) -> int:
    """sum_{q <= Q} g(q) * term(block, q, k), exactly, over the (g, k, mu)
    of arith.q_tables; ValueError when they end before Q.

    term maps one block of at most Q_BLOCK consecutive q, given as a slice
    and as int64 arrays of q and k = kappa(q), to an int64 array of the
    per-q count.
    """
    if Q < 1:
        return 0
    g_all, k_all, _ = _covering(tables, Q)
    total = 0
    for lo in range(1, Q + 1, Q_BLOCK):
        hi = min(lo + Q_BLOCK, Q + 1)
        block = slice(lo, hi)
        q = np.arange(lo, hi, dtype=np.int64)
        k = k_all[block].astype(np.int64)
        total += _exact_dot(g_all[block], term(block, q, k))
    return total


def _b_over_s(B: int, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """B // s(q) for int64 arrays q and k = kappa(q), as (B q) // kappa^2:
    s = kappa^2 / q exactly, and B q < 2^52 for B, q < arith.Q_TABLE_CAP."""
    return (B * q) // (k * k)


def _s_terms(a: int, c: int, Q: int):
    """S restricted to a < n <= c and q <= Q, as the arguments (Q', term)
    of _q_sum: each q counts the multiples of kappa(q) in (a, c].  Only
    q <= c^2 can count, since kappa(q)^2 >= q."""
    # a == 0 skips a divide and a subtract per q: S(30000, 30000^2) in 0.6 of the time
    if a == 0:
        return min(Q, c * c), lambda block, q, k: c // k
    return min(Q, c * c), lambda block, q, k: c // k - a // k


def _t_terms(a: int, c: int, B: int):
    """T(B) restricted to a < n <= c, as the arguments (Q', term) of _q_sum:
    each q <= B counts the multiples of kappa(q) in (max(a, isqrt(q B)), c],
    and isqrt(q B) // kappa(q) = isqrt(B // s(q)).  Only q <= c^2 can count."""
    return min(B, c * c), (
        lambda block, q, k: np.maximum(c // k - np.maximum(a // k, _isqrt(_b_over_s(B, q, k))), 0)
    )


# ----------------------------------------------------------------------
# public counting operations
# ----------------------------------------------------------------------


def _floor(bound) -> int:
    if isinstance(bound, Fraction):
        return bound.numerator // bound.denominator
    if isinstance(bound, int):
        return bound
    raise TypeError(f"unsupported bound type {type(bound)!r}")


def s_exact(x, y, tables: tuple) -> int:
    """S(x, y): sum over n <= x, d | n^4 with d <= y and n^4/d square, of r4*(d).

    x and y may be ints or Fractions: S(x, y) = S(floor(x), y) as n is an
    integer, and d = q^2 <= y is q <= isqrt(floor(y)); y < 1 admits no d.
    Raises ResourceError for x >= 2^63, beyond the int64 per-q terms
    x // kappa(q).
    """
    x = _floor(x)
    if x < 1:
        return 0
    if x > _INT64_MAX:
        raise ResourceError(f"S(x, y) needs x < 2^63, got x = {x}")
    return _q_sum(tables, *_s_terms(0, x, math.isqrt(max(_floor(y), 0))))


def t_exact(B: int, tables: tuple) -> int:
    """T(B): sum over n <= B, d | n^4 with d < n^4/B^2 and n^4/d square, of r4*(d).

    B must be an int: T at a rational bound is not T at its floor.
    """
    if not isinstance(B, int):
        raise TypeError(f"unsupported bound type {type(B)!r}")
    if B < 1:
        return 0
    return _q_sum(tables, *_t_terms(0, B, B))


def n_star(bound, tables: tuple) -> int:
    """N*(bound): integer tuples (x, y1..y4, z) on x^4 = (y1^2+..+y4^2) z^2
    with 1 <= |x| <= bound, 1 <= sum y_i^2 <= bound^2, |z| <= bound.

    bound may be an int or a Fraction; returns 0 for bound < 1.  For
    rational b, N*(b) = N*(floor(b)): a tuple is a pair q | n^2 with q <= b
    and r = n^2/q <= b, and q and r are integers, so q <= b and r <= b
    exactly when q <= floor(b) and r <= floor(b) (and then n^2 = q r).
    """
    B = _floor(bound)
    if B < 1:
        return 0
    return SIGN_FACTOR * _q_sum(tables, B, lambda block, q, k: _isqrt(_b_over_s(B, q, k)))


def n_u(bound, tables: tuple) -> int:
    """N_U(bound): primitive tuples (gcd of all six coordinates = 1) of height <= bound.

    Mobius inversion gives N_U(B) = sum_{j <= B} mu(j) N*(B/j); summed with
    j innermost it becomes the Mertens form

        N_U(B)/32 = sum_{q<=B} g(q) (u M(B // q) + sum_{m>u} M(B // (s m^2)))

    for q = s u^2, s squarefree: O(B) work over the q-tables and M(0..B),
    the cumulative sum of their mu.  bound may be an int or a Fraction, and
    N_U(b) = N_U(floor(b)): N*(b/j) = N*(floor(b/j)) = N*(floor(floor(b)/j))
    for every j (see n_star).
    Its working arrays (M, tail and the temporaries of m = 2) take
    N_U_BYTES = 13 bytes per q of the memory budget that the tables leave;
    ResourceError, before they are allocated, when they do not fit.
    """
    B = _floor(bound)
    if B < 1:
        return 0
    g, _, mu = _covering(tables, B)
    need = N_U_BYTES * (B + 1)
    room = arith.DEFAULT_MEMORY_BUDGET - arith.Q_TABLE_BYTES * len(g)
    if need > room:
        raise ResourceError(
            f"N_U({B}) needs {need} bytes beside the q-tables; the budget leaves {room}"
        )
    mu = mu[: B + 1]
    # |M(x)| <= x <= B < 2^31
    mertens = np.cumsum(mu, dtype=np.intc)
    # tail[s u^2] = sum_{m>u} M(B // (s m^2)), summed downwards over m for all
    # squarefree s <= B // m^2 at once; |tail| <= sum_{m>=2} B/m^2 < B < 2^31
    tail = np.zeros(B + 1, dtype=np.intc)
    for m in range(math.isqrt(B), 1, -1):
        sf = np.flatnonzero(mu[: B // (m * m) + 1])
        hi = sf * (m * m)
        tail[sf * ((m - 1) * (m - 1))] = tail[hi] + mertens[B // hi]

    def term(block, q, k):
        return q // k * mertens[B // q] + tail[block]  # u = q / kappa

    return SIGN_FACTOR * _q_sum(tables, B, term)


def n_star_by_divisors(limit: int) -> list[int]:
    """N*(B) for 0 <= B <= limit, from the divisors of each n^2 in turn.

    A pair (n, q) with q | n^2 and weight r4*(q^2) counts in N*(B)/32
    exactly when q <= B and n^2/q <= B, that is when max(q, n^2/q) <= B;
    then n <= B, as n^2 = q (n^2/q) <= B^2.  So one pass of
    arith.square_divisor_blocks over n <= limit bins each weight at
    max(q, n^2/q), and the prefix sums of the bins, exact in int64 (at most
    limit^2 pairs of weight < 7 limit^2, limit <= 2^15) and then times 32 in
    Python ints, are the whole curve.  The pass shares no table and no code
    with the reduction over q: the independent order of partition_witness.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    bins = np.zeros(limit + 1, dtype=np.int64)
    for lo, counts, q, g in square_divisor_blocks(limit):
        n = np.repeat(np.arange(lo, lo + len(counts), dtype=np.int64), counts)
        height = np.maximum(q, n * n // q)
        keep = height <= limit
        np.add.at(bins, height[keep], g[keep])
    return [SIGN_FACTOR * total for total in np.cumsum(bins).tolist()]


def partition_witness(B: int, tables: tuple, curve: list[int]) -> PartitionWitness:
    """S(B,B^2) and T(B) from the reduction over q, N*(B) = curve[B] from
    n_star_by_divisors; constructing the witness verifies N* = 32 (S - T).

    The curve sums the pairs q | n^2 with q <= B and n^2/q <= B, which is
    max(q, n^2/q) <= B and forces n <= B, in the n-ordered divisor
    enumeration: the two orders share no table and no code, so a reduction
    that loses or repeats a term breaks the identity.  Raises ValueError
    when B lies past the curve's end.
    """
    if not 0 <= B < len(curve):
        raise ValueError(f"B={B} outside the N* curve, which ends at {len(curve) - 1}")
    s_val = s_exact(B, B * B, tables)
    t_val = t_exact(B, tables)
    return PartitionWitness(B, s_val, t_val, curve[B])


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


def brute_force_primitive_curve(limit: int) -> list[int]:
    """Oracle for N_U(b) at every 0 <= b <= limit: exhaustive tuple
    enumeration with a gcd filter.  Guarded to limit <= 40.

    The y-quadruples with 1 <= sum of squares d <= limit^2 are enumerated
    once (numpy grids chunked over y1) into a table counting (d, gcd of the
    quadruple); every such quadruple has |y_i| <= limit.  Each (x, z) pair
    keeps the classes with gcd(x, z, gcd_y) = 1, and its tuples count at
    bound b exactly when x, z <= b and d <= b^2, so they are binned at the
    minimal height max(x, z, sqrt(d)) and prefix-summed; d = (x^2/z)^2 is a
    square, as z^2 | x^4 means z | x^2.
    """
    if limit > BRUTE_PRIMITIVE_CAP:
        raise ValueError(f"brute_force_primitive capped at B={BRUTE_PRIMITIVE_CAP}")
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    L2 = limit * limit
    axis = np.arange(-limit, limit + 1)
    sq = axis * axis
    sum3 = sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
    # gcd[a, b] for 0 <= a, b <= limit, looked up in place of np.gcd on the grids
    gcd = np.gcd.outer(np.arange(limit + 1), np.arange(limit + 1))
    a = np.abs(axis)
    gcd3 = gcd[a[:, None, None], gcd[a[:, None], a][None, :, :]]
    counts = np.zeros((L2 + 1) * (limit + 1), dtype=np.int64)
    for y1 in axis:
        d = int(y1) * int(y1) + sum3
        g = gcd[abs(int(y1))][gcd3]
        mask = (d >= 1) & (d <= L2)
        counts += np.bincount(d[mask] * (limit + 1) + g[mask], minlength=len(counts))
    counts = counts.reshape(L2 + 1, limit + 1)
    curve = [0] * (limit + 1)
    for x in range(1, limit + 1):
        x4 = x**4
        for z in range(1, limit + 1):
            z2 = z * z
            if x4 % z2:
                continue
            d = x4 // z2
            if d > L2:
                continue
            coprime = gcd[math.gcd(x, z)] == 1
            curve[max(x, z, math.isqrt(d))] += 4 * int(counts[d][coprime].sum())
    total = 0
    for b, c in enumerate(curve):
        total += c
        curve[b] = total
    return curve


def brute_force_primitive(B: int) -> int:
    """Oracle for N_U(B): the last entry of brute_force_primitive_curve(B),
    0 for B < 1.  Guarded to B <= 40."""
    return brute_force_primitive_curve(max(B, 0))[-1]


# ----------------------------------------------------------------------
# telescoping partition of T(B)
# ----------------------------------------------------------------------


# Working precisions, in bits, of the interval thresholds: each rung
# recomputes every threshold from log B at twice the previous precision.
TELESCOPE_PRECISIONS = (256, 512, 1024)


def _telescope_thresholds(B: int) -> tuple[int, list[int], list[int]]:
    """k0 plus exact floors x_k = floor(delta^k B), y_k = floor(delta^{4k} B^2).

    delta = 1 - 1/log B is irrational.  Every threshold is an mpmath.iv
    interval, whose arithmetic rounds outward, so it encloses the true
    value; a comparison counts only when it is decided (not None) and a
    floor only when both endpoints agree, so the shell partition is exact.
    Anything undecided restarts the computation at the next precision;
    ArithmeticError is raised when the last precision is not enough.
    """
    from mpmath import iv

    saved = iv.prec
    try:
        for prec in TELESCOPE_PRECISIONS:
            iv.prec = prec
            log = iv.log(B)
            delta = 1 - 1 / log
            thresh = 1 / log**3
            power = iv.mpf(1)
            xs = [B]
            ys = [B * B]
            while True:
                power *= delta
                below = power < thresh
                # the intervals are positive, so int() of an endpoint is its floor
                x, y = power * B, power**4 * (B * B)
                if below is None or int(x.a) != int(x.b) or int(y.a) != int(y.b):
                    break
                xs.append(int(x.a))
                ys.append(int(y.a))
                if below:
                    return len(xs) - 1, xs, ys
    finally:
        iv.prec = saved
    raise ArithmeticError(
        f"telescope thresholds for B={B} undecided at {TELESCOPE_PRECISIONS[-1]} bits"
    )


def telescoping_check(B: int, tables: tuple) -> TelescopeReport:
    """Verify the geometric-shell partition and lower bound for T(B).

    With delta = 1 - 1/log B and k0 minimal with delta^k0 < (log B)^-3:

      partition:  T(B) equals the shell sums over delta^k B < n <= delta^(k-1) B
                  for k = 1..k0 plus the remainder over n <= delta^k0 B;
      lower bound: T(B) >= sum_k [S(delta^(k-1) B, delta^(4k) B^2)
                                  - S(delta^k B, delta^(4k) B^2)].

    Both sides are exact integers once the irrational shell edges are
    decided in outward-rounded interval arithmetic (_telescope_thresholds);
    ArithmeticError when they cannot be decided.
    """
    if B < 10:
        raise ValueError("telescoping_check requires B >= 10")
    k0, xs, ys = _telescope_thresholds(B)

    t_val = t_exact(B, tables)

    # per shell k = 1..k0: its T-window for the partition (plus the remainder
    # below x_{k0}), its S-window at cutoff y_k for the lower bound, and the
    # companion upper-shell S-window at the slower-shrinking cutoff y_{k-1}
    t_shells = _q_sum(tables, *_t_terms(0, xs[k0], B))
    lower = 0
    upper = 0
    for k in range(1, k0 + 1):
        a, c = xs[k], xs[k - 1]
        if a >= c:
            continue
        t_shells += _q_sum(tables, *_t_terms(a, c, B))
        lower += _q_sum(tables, *_s_terms(a, c, math.isqrt(ys[k])))
        upper += _q_sum(tables, *_s_terms(a, c, math.isqrt(ys[k - 1])))
    partition_ok = t_shells == t_val
    lower_ok = t_val >= lower

    return TelescopeReport(lower_ok, partition_ok, k0, t_val, lower, upper)
