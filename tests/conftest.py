import math
from fractions import Fraction

import numpy as np
import pytest

from qpc import TruncSeries, build_spf_sieve, q_tables
from qpc.dirichlet import _EM_K, _EM_N, _em_terms


@pytest.fixture(scope="session")
def tables():
    """One set of q-tables for the session's counts, built once: the
    largest q a test reads is x^2 <= 2000^2, for S(x, y) in
    test_kernel_matches_n_ordered_oracle."""
    return q_tables(2000**2)


@pytest.fixture(scope="session")
def sieve_small():
    return build_spf_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_mid():
    return build_spf_sieve(10**5)


@pytest.fixture(scope="session")
def sieve_big():
    return build_spf_sieve(10**6)


# per-integer oracles: integers as (p, a) lists, primes ascending


def factor(n, spf):
    """The (p, a) pairs of n >= 1, read off an SPF table covering n."""
    out = []
    while n > 1:
        p, a = int(spf[n]), 0
        while n % p == 0:
            n //= p
            a += 1
        out.append((p, a))
    return out


def masked_spf_sieve(limit):
    """The SPF table of 0..limit (uint32, entry 1 is 1) by a masked store
    per prime: each p <= isqrt(limit), taken ascending, writes itself only
    where no smaller prime has: the oracle of arith.build_spf_sieve, which
    stores unconditionally in descending order instead."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    spf[1] = 1
    return spf


def q_tables_by_factoring(spf):
    """(g, kappa, mu) for every 0 <= q < len(spf), as int64, int32 and int8
    arrays with entry 0 zero: each q is factored through the SPF table, one
    distinct prime per pass and its exponent by repeated division, with no
    strided sieve: the whole-table oracle of arith.q_tables.  Below
    2^20 every p^(2a+1) <= q^3 fits an int64."""
    n = len(spf)
    assert n <= 1 << 20
    rest = np.arange(n, dtype=np.int64)
    rest[0] = 1
    g = np.ones(n, dtype=np.int64)
    k = np.ones(n, dtype=np.int64)
    mu = np.ones(n, dtype=np.int64)
    live = np.flatnonzero(rest > 1)
    while len(live):
        p = spf[rest[live]].astype(np.int64)
        a = np.zeros(len(live), dtype=np.int64)
        pa = np.ones(len(live), dtype=np.int64)
        more = np.ones(len(live), dtype=bool)
        while more.any():
            a += more
            pa[more] *= p[more]
            rest[live[more]] //= p[more]
            more = rest[live] % p == 0
        sigma = (pa * pa * p - 1) // (p - 1)
        g[live] *= np.where(p == 2, 3, sigma)
        k[live] *= p ** ((a + 1) // 2)
        mu[live] *= np.where(a == 1, -1, 0)
        live = live[rest[live] > 1]
    for table in (g, k, mu):
        table[0] = 0
    return g, k.astype(np.int32), mu.astype(np.int8)


def r4_star(factors):
    """r4*(prod p^a): 3 for each power of 2, sigma(p^a) for odd p."""
    return math.prod(3 if p == 2 else (p ** (a + 1) - 1) // (p - 1) for p, a in factors)


def mobius(factors):
    return 0 if any(a > 1 for _, a in factors) else (-1) ** len(factors)


def square_divisor_weights(factors):
    """(q, r4*(q^2)) for every divisor q = prod p_i^b_i of n^2, 0 <= b_i <=
    2 a_i, built one prime power p^b at a time in Python ints: the
    per-integer oracle of arith.square_divisor_blocks, rows and their order.
    Each prime's b varies inside every row so far, so the rows come in
    itertools.product order over b_1..b_k, the b of the largest prime
    fastest."""
    pairs = [(1, 1)]
    for p, a in factors:
        powers = [(1, 1)] + [(p**b, r4_star([(p, 2 * b)])) for b in range(1, 2 * a + 1)]
        pairs = [(q * pb, w * wb) for q, w in pairs for pb, wb in powers]
    return pairs


def set_zero(f, var):
    """f with 0 put for one variable: the terms free of it."""
    return TruncSeries(f.nvars, {e: c for e, c in f.coeffs.items() if not e[var]},
                       f.max_degree)


def geometric_inverse(f):
    """1/f for a truncated series f with a unit constant term c0, as the sum
    (1/c0) sum_k u^k, u = 1 - f/c0, by up to max_degree series products:
    the oracle of TruncSeries.inverse, whose recurrence takes no product."""
    zero = (0,) * f.nvars
    c0 = f.coeffs[zero]
    inv_c0 = Fraction(1, c0) if not (c0 == 1 or c0 == -1) else (1 if c0 == 1 else -1)
    u = -(f * inv_c0)
    u.coeffs.pop(zero, None)
    out = TruncSeries.constant(1, f.nvars, f.max_degree)
    term = TruncSeries.constant(1, f.nvars, f.max_degree)
    for _ in range(f.max_degree):
        term = term * u
        if not term.coeffs:
            break
        out = out + term
    return out * inv_c0


def divisors_from_factors(factors):
    """All divisors of prod p^e, from (p, e) pairs."""
    divs = [1]
    for p, e in factors:
        pk = 1
        new = []
        for _ in range(e + 1):
            new.extend(d * pk for d in divs)
            pk *= p
        divs = new
    return divs


def r4_star_divisor_oracle(d_factors):
    """r4*(d) the slow way: literally sum divisors not divisible by 4."""
    return sum(l for l in divisors_from_factors(d_factors) if l % 4 != 0)


def xw_rows(f, deg):
    """The X-degree rows 0..deg of a polynomial in X, Y of X-degree <= deg,
    as the local-factor binomial steps take them: row nu maps each
    Y-exponent to its coefficient of X^nu."""
    rows = [{} for _ in range(deg + 1)]
    for (nu, mu), v in f.coeffs.items():
        rows[nu][mu] = v
    return rows


def zeta_star(sigma: float) -> float:
    """(sigma - 1) * zeta(sigma), analytic through sigma = 1, for the
    Richardson cross-check of p_coefficients: the Euler-Maclaurin sum of
    dirichlet.zeta, whose pole term contributes N^(1-sigma) exactly, so no
    cancellation occurs near (or at) sigma = 1."""
    s = float(sigma)
    head = math.fsum(n ** (-s) for n in range(1, _EM_N))
    tail = 0.0
    for term in _em_terms(s, _EM_N, _EM_K)[0]:
        tail += term
    return (s - 1.0) * (head + 0.5 * _EM_N ** (-s) + tail) + _EM_N ** (1.0 - s)
