"""Sieves and the multiplicative functions behind the counts.

Everything downstream (counting, Euler factors, constants) is built on

    r4*(d) = sum of divisors l of d with l not divisible by 4,

so that 8*r4*(d) counts representations of d as a sum of four squares.
Only its values at squares enter, and on a prime power r4*(p^(2b)) is
r4_star_p2b(p, b).  The counts read three q-indexed tables, g(q) =
r4*(q^2), kappa(q) and the Mobius function mu(q), which one segmented
sieve builds once, block by block (q_tables), with a few scalar updates
on the strided multiples of each prime power in each block; the
squarefree part of q is kappa(q)^2 / q.  Each qpc command builds them
once, to its largest bound.  The n-ordered oracle square_divisor_blocks
factors n through a smallest-prime-factor (SPF) table instead, with p^a
and a for the smallest prime of each n filled in the same strided loop,
and the factors p^b and r4*(p^(2b)) built once per prime power p^a;
primes_up_to lists the primes of the Euler products.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ResourceError

# The cap, in bytes, of the SPF tables, of a prime list and of the q-tables
# (13 bytes per q: g as int64, kappa as int32, mu as int8) with a count's
# own arrays, read at each call and checked before anything is allocated.
DEFAULT_MEMORY_BUDGET = 1 << 29
Q_TABLE_BYTES = 13
# The counts are reduced Q_BLOCK q at a time, so the temporaries of a pass
# stay O(Q_BLOCK) whatever its range.  The q-tables are sieved
# Q_TABLE_BLOCK q at a time: a block costs one Python step per prime power,
# which a long block spreads.  Its one block-long temporary is u as int16
# (512 KiB), and its cofactor step walks it Q_BLOCK q at a time, so the
# build's temporaries stay under 1 MiB (tracemalloc peak less the tables:
# 0.93 MiB at 10^7, 0.98 at the budget's largest tables).  On 2 vCPUs a
# build to 10^7 takes 0.39-0.51 s in process, and 1.6 s in 2^14-long blocks.
Q_BLOCK = 1 << 14
Q_TABLE_BLOCK = 1 << 18
# Below this cap g(q) = r4*(q^2) <= sigma(q^2) < 7 q^2 < 2^55 fits an int64
# (q^2 < 2^52 has at most 13 distinct primes, so sigma(q^2)/q^2 is below
# prod_{p <= 41} p/(p-1) < 6.9), kappa(q) <= q fits an int32, and products
# such as kappa(q)^2 and B q for B, q below it stay under 2^52.
Q_TABLE_CAP = 1 << 26
# square_divisor_blocks covers n up to this cap (7 n^4 < 2^63), SQUARE_BLOCK
# n at a time.  The two-point global series check at N = 10^4 peaks at
# 1.8 MB (tracemalloc) with 256 n per block, at 2.6 MB with 512 and at 13 MB
# with 4096, and takes 22, 22 and 31 ms: a longer block buys no time for
# its memory.
SQUARE_DIVISOR_CAP = 1 << 15
SQUARE_BLOCK = 256


class SpfSieve(NamedTuple):
    """The smallest prime of each i <= limit, with its power and exponent,
    through which square_divisor_blocks factors n.

    Three read-only numpy arrays of length limit+1: for 2 <= i <= limit,
    spf[i] (uint32) is the smallest prime p of i (spf[p] == p for primes),
    and pk[i] = p^a (int32) and e[i] = a (int8) for p^a || i.  Entry 1 holds
    1, 1, 0 and entry 0 holds 0, 1, 0.
    """

    limit: int
    spf: np.ndarray
    pk: np.ndarray
    e: np.ndarray


def q_tables(top: int, spare: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, k, mu) for 0 <= q <= top, as read-only arrays of length top + 1:
    g[q] = r4*(q^2) as int64, k[q] = kappa(q) = prod p^ceil(a/2) over p^a
    || q as int32 and mu[q] the Mobius function as int8.  Entry 0 is 0 in
    each, so cumsum(mu) is the Mertens function.  With q = s u^2, s
    squarefree, kappa(q) = s u, so s = kappa^2 / q and u = q / kappa.

    The tables are sieved once, Q_TABLE_BLOCK q at a time.  Raises
    ResourceError, before anything is allocated, when top reaches
    Q_TABLE_CAP or the Q_TABLE_BYTES * (top + 1) bytes of the tables and the
    spare bytes the caller needs beside them exceed DEFAULT_MEMORY_BUDGET.
    """
    need = Q_TABLE_BYTES * (top + 1)
    if top >= Q_TABLE_CAP or need + spare > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(
            f"q-tables up to {top} need {need} bytes beside "
            f"{spare} for the count; budget is {DEFAULT_MEMORY_BUDGET}"
        )
    tables = tuple(np.empty(top + 1, dtype=dtype) for dtype in (np.int64, np.int32, np.int8))
    plan = _prime_plan(top)
    for lo in range(1, top + 1, Q_TABLE_BLOCK):
        block = slice(lo, min(lo + Q_TABLE_BLOCK, top + 1))
        _q_table_block(lo, plan, *(table[block] for table in tables))
    for table in tables:
        table[0] = 0
        table.setflags(write=False)
    return tables


def _prime_plan(top: int) -> list[tuple[int, int, int, int, int]]:
    """(p, p^j, j, r4*(p^(2j-2)), r4*(p^(2j))) for each prime power p^j <=
    top with p <= max(2, isqrt(top)), in order of p and then j."""
    plan = []
    for p in primes_up_to(max(2, math.isqrt(top))).tolist():
        pj, j = p, 1
        while pj <= top:
            plan.append((p, pj, j, r4_star_p2b(p, j - 1), r4_star_p2b(p, j)))
            pj, j = pj * p, j + 1
    return plan


def _q_table_block(lo: int, plan, g: np.ndarray, k: np.ndarray, mu: np.ndarray) -> None:
    """Fill g, k and mu with r4*(q^2), kappa(q) and mu(q) for lo <= q < hi =
    lo + len(g), in place.

    A segmented sieve (Bays & Hudson, BIT 17, 1977) over the prime powers
    of plan, which must hold every p^j <= hi - 1 with p <= max(2, isqrt(hi -
    1)).  Each p^j makes a few scalar updates on the strided slice of its
    multiples, with no per-q exponent: j = 1 negates mu and multiplies g by
    r4*(p^2); j = 2 zeroes mu; for odd p and j >= 2, g is divided by
    r4*(p^(2j-2)), exactly, since that factor went in at step j - 1, and
    multiplied by r4*(p^(2j)) (for p = 2 both are 3); an odd j multiplies
    kappa by p and an even j multiplies u by p, so that kappa * u is the
    part of q the plan sieves (u = q / kappa, as in q_tables).  The
    cofactor P = q // (kappa * u) left is 1 or a single odd prime above
    isqrt(hi - 1), which multiplies g by r4*(P^2) = P^2 + P + 1 and kappa
    by P and flips the sign of mu; this step walks the block Q_BLOCK q at
    a time, in place.  It has no mask: with [P > 1] as 0 or 1, g is
    multiplied by t = (P^2 + P) [P > 1] + 1, kappa by P and mu by 1 - 2 [P >
    1], and where P = 1 the three factors are exactly 1, 1 and +1.  (On
    the cofactor mask at 10^5, where= loops take 9-11 ns per element and
    the plain loops 0.5 or less.)

    Overflow: g divides before it multiplies, so every intermediate is at
    most the final r4*(q^2) < 7 q^2 < 2^55 (see Q_TABLE_CAP); kappa, kappa
    * u and P are at most q < 2^26 and fit int32; u^2 divides q, so u <=
    isqrt(q) < 2^13 fits int16; t = (P^2 + P) [P > 1] + 1 <= P^2 + P + 1 <
    2^53 in int64, and the sign 1 - 2 [P > 1] is +1 or -1 in int8.
    """
    u = np.ones(len(g), dtype=np.int16)
    for out in (g, k, mu):
        out.fill(1)
    for p, pj, j, below, local in plan:
        first = -(-lo // pj) * pj - lo
        if first >= len(g):
            continue
        s = slice(first, None, pj)
        if j == 1:
            np.negative(mu[s], out=mu[s])
            g[s] *= local
        else:
            if j == 2:
                mu[s] = 0
            if p != 2:
                g[s] //= below
                g[s] *= local
        if j % 2:
            k[s] *= p
        else:
            u[s] *= p
    for start in range(0, len(g), Q_BLOCK):
        sub = slice(start, min(start + Q_BLOCK, len(g)))
        P = np.arange(lo + sub.start, lo + sub.stop, dtype=np.int32)
        P //= k[sub] * u[sub]
        big = P > 1
        t = P + np.int64(1)
        t *= P
        t *= big
        t += 1
        g[sub] *= t
        k[sub] *= P
        mu[sub] *= 1 - 2 * big.view(np.int8)
        del P, big, t  # before the next sub-slice allocates its own


def build_spf_sieve(limit: int) -> SpfSieve:
    """Build the SPF, p^a and a tables up to limit in one strided loop.

    Each prime p <= isqrt(limit), largest first, stores p at every multiple
    from p^2 on, then p^a and a at every multiple of p^a for a = 1, 2, ...
    while p^a <= limit, with no mask: the smallest prime of a composite i,
    which is at most isqrt(i), writes last, and among its stores the highest
    power dividing i writes last.  A prime above isqrt(limit) keeps i, i and
    1 from the first fill.  Raises ResourceError when the 9*(limit+1) bytes
    of the three tables would exceed DEFAULT_MEMORY_BUDGET.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    need = 9 * (limit + 1)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(
            f"sieve of limit {limit} needs {need} bytes, budget is {DEFAULT_MEMORY_BUDGET}"
        )
    spf = np.arange(limit + 1, dtype=np.uint32)
    pk = np.arange(limit + 1, dtype=np.int32)
    e = np.ones(limit + 1, dtype=np.int8)
    for p in primes_up_to(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
        pa, a = p, 1
        while pa <= limit:
            pk[pa::pa] = pa
            e[pa::pa] = a
            pa, a = pa * p, a + 1
    spf[1] = pk[0] = 1
    e[:2] = 0
    for table in (spf, pk, e):
        table.setflags(write=False)
    return SpfSieve(limit, spf, pk, e)


def r4_star_p2b(p: int, b: int) -> int:
    """r4*(p^(2b)) for a prime p and b >= 0, in Python ints: 3 (= 1 + 2)
    for p = 2 and b >= 1, else sigma(p^(2b)) = (p^(2b+1) - 1)/(p - 1)."""
    if p == 2 and b:
        return 3
    return (p ** (2 * b + 1) - 1) // (p - 1)


def _prime_power_segments(spf: np.ndarray, pk: np.ndarray, e: np.ndarray):
    """(off, pb, local) for the prime powers p^a of the tables of an
    SpfSieve: the segment of p^a, at off[p^a] in pb and local, holds p^b and
    r4*(p^(2b)) for b = 0..2a, int64, and that of 1 holds 1 and 1.  off is
    int32, zero off the prime powers.
    """
    pp = np.flatnonzero(pk == np.arange(len(pk), dtype=np.int32))  # 1, p^a
    width = 2 * e[pp].astype(np.int64) + 1
    off = np.zeros(len(pk), dtype=np.int32)
    off[pp] = np.cumsum(width) - width
    p = np.repeat(spf[pp].astype(np.int64), width)
    b = np.arange(len(p)) - np.repeat(off[pp], width)
    pb = p**b
    p2b = pb * pb
    local = p2b + (p2b - 1) // np.maximum(p - 1, 1)
    local[(p == 2) & (b > 0)] = 3  # r4*(2^(2b)) = 1 + 2
    return off, pb, local


def square_divisor_blocks(limit: int):
    """Yield (lo, counts, q, g) for 1 <= n <= limit, SQUARE_BLOCK n at a time.

    q holds every divisor of n^2 and g = r4*(q^2), both int64, grouped by
    n in ascending order: counts[i] rows for n = lo + i.  Each call builds
    the SPF, p^a and a tables once (build_spf_sieve, 9 bytes per n) and,
    once for each prime power p^a <= limit, a segment of p^b and
    r4*(p^(2b)), b = 0..2a (_prime_power_segments); it shares no table and
    no code with the reduction over q.  A block is then factored one
    distinct prime per pass, with no exponent loop: p^a = pk(rest), a =
    e(rest), rest //= p^a.  Each row of n is repeated 2a + 1 times (once, b
    = 0, where rest = 1) and multiplied by the entries of the segment of
    p^a, so rows run over the primes ascending with the b of the largest
    prime fastest.  There are at most 6 passes below 2^15 (2*3*5*7*11*13*17
    > 2^15).

    Overflow: the segments hold p^b <= n^2 <= 2^30, (p^b)^2 <= 2^60 and
    r4*(p^(2b)) = p^(2b) + (p^(2b) - 1) // (p - 1) < 2^61, never (p^(2b+1)
    - 1) // (p - 1), which wraps (p = 6211, b = 2: p^5 > 2^63).  A row's q
    <= n^2 and g = r4*(q^2) <= sigma(q^2) < 7 q^2 (prod p/(p-1) over the 6
    smallest primes is below 5.3), so g < 7 limit^4 < 2^63 for limit <=
    SQUARE_DIVISOR_CAP = 2^15, and every partial product is at most the
    final g.  Raises ResourceError past the cap, before anything is
    allocated.
    """
    if limit > SQUARE_DIVISOR_CAP:
        raise ResourceError(
            f"divisors of n^2 for n up to {limit} overflow int64 past n = {SQUARE_DIVISOR_CAP}"
        )
    _, spf, pk, e = build_spf_sieve(max(limit, 2))
    off, pb, local = _prime_power_segments(spf, pk, e)
    for lo in range(1, limit + 1, SQUARE_BLOCK):
        rest = np.arange(lo, min(lo + SQUARE_BLOCK, limit + 1), dtype=np.int64)
        counts = np.ones(len(rest), dtype=np.int64)
        q = np.ones(len(rest), dtype=np.int64)
        g = np.ones(len(rest), dtype=np.int64)
        while (rest > 1).any():
            power = pk[rest]  # pk[1] == 1, where a = e[1] = 0
            width = 2 * e[rest].astype(np.int64) + 1
            seg = off[power]
            rest //= power
            # row r of n goes to rows first[r] + b, which read seg[n] + b
            reps = np.repeat(width, counts)
            first = np.cumsum(reps) - reps
            at = np.repeat(np.repeat(seg, counts) - first, reps)
            at += np.arange(len(at))
            q = np.repeat(q, reps)
            q *= pb[at]
            g = np.repeat(g, reps)
            g *= local[at]
            counts *= width
        yield lo, counts, q, g


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array (empty for limit < 2).

    Sieves the odd numbers only, one mask entry per odd number.  Raises
    ResourceError, before allocating, when 5*(limit+1) bytes exceed
    DEFAULT_MEMORY_BUDGET: the mask takes half a byte per integer, and `qpc
    constant`, which takes Euler products over the primes, peaks at 4.0
    bytes per integer at limit 10^6 and 3.2 at 10^7 (tracemalloc).
    """
    if limit < 2:
        return np.array([], dtype=np.int64)
    need = 5 * (limit + 1)
    if need > DEFAULT_MEMORY_BUDGET:
        raise ResourceError(
            f"primes up to {limit} need {need} bytes, budget is {DEFAULT_MEMORY_BUDGET}"
        )
    # index i > 0 stands for 2i + 1, and index 0 (for 1) for the prime 2
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    primes = np.nonzero(odd)[0].astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes
