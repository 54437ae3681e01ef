import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from qpc import ResourceError, build_spf_sieve, primes_up_to, q_tables, square_divisor_blocks
from qpc import arith
from qpc.arith import (
    Q_BLOCK,
    Q_TABLE_BLOCK,
    Q_TABLE_BYTES,
    SQUARE_BLOCK,
    SQUARE_DIVISOR_CAP,
    r4_star_p2b,
)
from conftest import (
    divisors_from_factors,
    factor,
    masked_spf_sieve,
    mobius,
    q_tables_by_factoring,
    r4_star,
    r4_star_divisor_oracle,
    square_divisor_weights,
)


def trial_division_spf(n):
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


class TestSieve:
    def test_small_table(self):
        s = build_spf_sieve(10)
        assert [int(s.spf[i]) for i in range(2, 11)] == [2, 3, 2, 5, 2, 7, 2, 3, 2]

    def test_smallest_case(self):
        s = build_spf_sieve(2)
        assert int(s.spf[2]) == 2

    def test_primes_marked_as_themselves(self):
        s = build_spf_sieve(2000)
        for n in range(2, 2001):
            assert int(s.spf[n]) == trial_division_spf(n)

    @pytest.mark.parametrize("limit", [2, 3, 4, 3938, 1 << 15, 10**6])
    def test_matches_the_masked_sieve(self, limit):
        # the stores of every prime p <= isqrt(limit), largest first, leave
        # each multiple of p from p^2 on holding its smallest prime, and
        # those of p^a and a at each multiple of p^a, a ascending, leave each
        # i holding p^a || i for that same smallest prime p
        s = build_spf_sieve(limit)
        want = masked_spf_sieve(limit)
        assert s.limit == limit and s.spf.dtype == want.dtype
        assert np.array_equal(s.spf, want)
        assert s.pk.dtype == np.int32 and s.e.dtype == np.int8
        assert len(s.pk) == len(s.e) == limit + 1
        # entries 0 and 1 of spf, pk and e
        assert [(int(t[0]), int(t[1])) for t in s[1:]] == [(0, 1), (1, 1), (0, 0)]
        assert not (s.spf.flags.writeable or s.pk.flags.writeable or s.e.flags.writeable)
        if limit <= 1 << 15:
            sample = range(2, limit + 1)
        else:
            sample = [*random.Random(limit).sample(range(2, limit + 1), 2000), limit - 1, limit]
        for i in sample:
            p, a = factor(i, want)[0]
            assert (int(s.pk[i]), int(s.e[i])) == (p**a, a), i

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", 1000)
        with pytest.raises(ResourceError):
            build_spf_sieve(10**6)

    def test_budget_boundary(self, monkeypatch):
        # the three tables take 4 + 4 + 1 bytes per entry, all charged
        limit = 10**4
        monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", 9 * (limit + 1))
        assert build_spf_sieve(limit).limit == limit
        monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", 9 * (limit + 1) - 1)
        with pytest.raises(ResourceError):
            build_spf_sieve(limit)

    def test_memory_is_the_tables(self):
        # strided stores only: no temporary of the tables' size
        tracemalloc.start()
        try:
            s = build_spf_sieve(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * (s.spf.nbytes + s.pk.nbytes + s.e.nbytes), peak

    def test_limit_too_small(self):
        with pytest.raises(ValueError):
            build_spf_sieve(1)

    @pytest.mark.slow
    def test_spot_check_large_prime(self):
        # 9999991 is prime (trial division oracle)
        assert trial_division_spf(9999991) == 9999991
        s = build_spf_sieve(10**7)
        assert int(s.spf[9999991]) == 9999991


def q_table_row(q, spf):
    """(r4*(q^2), kappa(q), mu(q)) through the per-integer oracles."""
    fac = factor(q, spf)
    kappa = math.prod(p ** ((a + 1) // 2) for p, a in fac)
    return r4_star([(p, 2 * a) for p, a in fac]), kappa, mobius(fac)


class TestQTables:
    def test_against_factorization_at_each_size(self, sieve_small):
        # fresh builds to 1, 2, 3, 9, 5000 and 10000, each a prefix of the
        # largest
        stages = [q_tables(n) for n in (1, 2, 3, 9, 5000, 10**4)]
        g, k, mu = stages[-1]
        assert [len(stage[0]) - 1 for stage in stages] == [1, 2, 3, 9, 5000, 10000]
        for stage in stages:
            assert [a.dtype for a in stage] == [np.int64, np.int32, np.int8]
            assert len({len(a) for a in stage}) == 1
            assert not any(a.flags.writeable for a in stage)
            assert [int(a[0]) for a in stage] == [0, 0, 0]
            top = len(stage[0])
            assert all(np.array_equal(a, b[:top]) for a, b in zip(stage, stages[-1]))
        for q in range(1, 10**4 + 1):
            fac = factor(q, sieve_small.spf)
            kappa = math.prod(p ** ((a + 1) // 2) for p, a in fac)
            assert (int(g[q]), int(k[q]), int(mu[q])) == q_table_row(q, sieve_small.spf), q
            # the squarefree part of q is kappa^2 / q
            assert kappa * kappa // q == math.prod(p for p, a in fac if a % 2), q

    @pytest.mark.parametrize(
        "top",
        [
            2 * Q_BLOCK,
            3 * Q_BLOCK + 5,
            131**2 - 1,
            131**2 + 1,
            2 * Q_TABLE_BLOCK,
            3 * Q_TABLE_BLOCK + 5,
        ],
    )
    def test_block_edges_and_table_end(self, sieve_big, top):
        # a fresh build sieves 1..top in blocks starting at 1 + m *
        # Q_TABLE_BLOCK and takes each block's cofactor step in sub-slices
        # starting at 1 + m * Q_BLOCK, which include the block edges; 131^2
        # + 1 puts the square of the largest sieving prime in a short last
        # sub-slice, and 131^2 - 1 leaves 131 out of the plan
        assert Q_TABLE_BLOCK % Q_BLOCK == 0
        g, k, mu = q_tables(top)
        assert len(g) == top + 1
        window = set(range(max(1, top - 40), top + 1))
        for edge in range(1 + Q_BLOCK, top + 1, Q_BLOCK):
            window.update(range(edge - 40, min(edge + 40, top + 1)))
        for q in sorted(window):
            assert (int(g[q]), int(k[q]), int(mu[q])) == q_table_row(q, sieve_big.spf), q

    def test_every_entry_past_one_build_block(self, sieve_big):
        # every q <= top, in every cofactor sub-slice of every build block,
        # against factoring it; the cofactor is a prime above isqrt(top) =
        # 886 for most q, so both values of each branch-free factor occur
        top = 3 * Q_TABLE_BLOCK + 5
        got = q_tables(top)
        want = q_tables_by_factoring(sieve_big.spf[: top + 1])
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_every_size_agrees_with_the_largest(self):
        # a fresh build to each n <= 300 sieves with the primes up to
        # max(2, isqrt(n)) only, so its leftover cofactors differ from the
        # largest build's
        largest = q_tables(300)
        for n in range(1, 301):
            tables = q_tables(n)
            assert len(tables[0]) == n + 1
            for a, b in zip(tables, largest):
                assert np.array_equal(a, b[: n + 1]), n

    def test_build_stops_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", Q_TABLE_BYTES * 1001)
        assert len(q_tables(1000)[0]) == 1001
        # refused before anything is allocated: no sieving plan, no table
        monkeypatch.setattr(arith, "_prime_plan", None)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError):
                q_tables(1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Q_TABLE_BYTES * 1001

    def test_build_stops_below_the_cap(self, monkeypatch):
        # whatever the budget, top must stay below Q_TABLE_CAP, which the
        # overflow proofs of the build and of the counts assume
        monkeypatch.setattr(arith, "Q_TABLE_CAP", 1000)
        assert len(q_tables(999)[0]) == 1000
        with pytest.raises(ResourceError):
            q_tables(1000)

    def test_build_holds_one_set_of_tables(self):
        # the traced peak of a build is its tables plus the temporaries of
        # one block
        n = 3 * 10**5
        tracemalloc.start()
        try:
            assert len(q_tables(n)[0]) == n + 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - Q_TABLE_BYTES * (n + 1) <= 64 * Q_BLOCK


class TestFactorize:
    # the tests' factor oracle reads the SPF table
    def test_twelve(self, sieve_small):
        assert factor(12, sieve_small.spf) == [(2, 2), (3, 1)]

    def test_unit(self, sieve_small):
        assert factor(1, sieve_small.spf) == []

    def test_prime(self, sieve_small):
        assert factor(97, sieve_small.spf) == [(97, 1)]

    def test_round_trip_to_million(self, sieve_big):
        for n in range(1, 10**6 + 1):
            fac = factor(n, sieve_big.spf)
            if math.prod(p**e for p, e in fac) != n:
                pytest.fail(f"round trip failed at {n}: {fac}")


class TestR4Star:
    def test_unit(self):
        assert r4_star([]) == 1

    def test_two(self):
        # value 3 on any power of two
        assert r4_star([(2, 1)]) == 3
        for mu in range(2, 8):
            assert r4_star([(2, mu)]) == 3

    def test_small_values(self, sieve_small):
        assert r4_star(factor(3, sieve_small.spf)) == 4
        assert r4_star(factor(12, sieve_small.spf)) == 12

    def test_divisor_sum_oracle(self, sieve_small):
        for d in range(1, 2001):
            fac = factor(d, sieve_small.spf)
            assert r4_star(fac) == r4_star_divisor_oracle(fac), d

    def test_prime_powers_match_the_divisor_sum(self):
        # r4_star_p2b on the range verify --suite local takes, b <= 2 * 30
        for p in primes_up_to(97).tolist():
            for b in range(61):
                assert r4_star_p2b(p, b) == r4_star_divisor_oracle([(p, 2 * b)]), (p, b)

    def test_prime_plan_local_column(self):
        # one entry (p, p^j, j, r4*(p^(2j-2)), r4*(p^(2j))) per prime power
        # p^j <= top, ascending in p and then in j
        top = 10**6
        plan = arith._prime_plan(top)
        powers = [(p, j) for p in primes_up_to(1000).tolist() for j in range(1, 20) if p**j <= top]
        assert [(p, j) for p, _, j, _, _ in plan] == powers
        for p, pj, j, below, local in plan:
            assert pj == p**j
            assert (below, local) == (r4_star_p2b(p, j - 1), r4_star_p2b(p, j)), (p, j)
        # p = 2 is always sieved, so a cofactor left above 1 is odd
        assert arith._prime_plan(1) == []
        assert arith._prime_plan(3) == [(2, 2, 1, 1, 3)]

    def test_multiplicative(self, sieve_small):
        rng = random.Random(7)
        pairs = [(a, b) for a in range(1, 120) for b in range(1, 120) if math.gcd(a, b) == 1]
        pairs += [
            (a, b)
            for a, b in zip(rng.sample(range(1, 10**4), 500), rng.sample(range(1, 10**4), 500))
            if math.gcd(a, b) == 1
        ]
        for a, b in pairs:
            fa, fb = factor(a, sieve_small.spf), factor(b, sieve_small.spf)
            # coprime, so the factorization of a*b is the union
            assert r4_star(fa + fb) == r4_star(fa) * r4_star(fb)


def brute_quadruple_count(d):
    """Representation count by scanning all integer quadruples."""
    r = math.isqrt(d)
    count = 0
    for y1 in range(-r, r + 1):
        for y2 in range(-r, r + 1):
            t2 = d - y1 * y1 - y2 * y2
            if t2 < 0:
                continue
            for y3 in range(-math.isqrt(t2), math.isqrt(t2) + 1):
                rem = t2 - y3 * y3
                y4 = math.isqrt(rem)
                if y4 * y4 == rem:
                    count += 1 if y4 == 0 else 2
    return count


class TestR4:
    def test_tiny_values(self, sieve_small):
        assert 8 * r4_star(factor(1, sieve_small.spf)) == 8
        assert 8 * r4_star(factor(2, sieve_small.spf)) == 24
        assert 8 * r4_star(factor(4, sieve_small.spf)) == 24

    def test_brute_force_small(self, sieve_small):
        for d in range(1, 80):
            assert 8 * r4_star(factor(d, sieve_small.spf)) == brute_quadruple_count(d), d

    def test_representation_oracle_to_5000(self, sieve_small):
        # quadruple counts via exact convolution of the square-indicator sequence
        dmax = 5000
        r1 = np.zeros(dmax + 1, dtype=np.int64)
        r1[0] = 1
        for k in range(1, math.isqrt(dmax) + 1):
            r1[k * k] = 2
        table = np.convolve(np.convolve(r1, r1)[: dmax + 1], np.convolve(r1, r1)[: dmax + 1])
        for d in range(1, dmax + 1):
            assert 8 * r4_star(factor(d, sieve_small.spf)) == int(table[d])


class TestMobius:
    def test_values(self, sieve_small):
        assert mobius(factor(1, sieve_small.spf)) == 1
        assert mobius(factor(4, sieve_small.spf)) == 0
        assert mobius(factor(6, sieve_small.spf)) == 1
        assert mobius(factor(30, sieve_small.spf)) == -1

    def test_sum_over_divisors(self, sieve_small):
        # sum_{d | n} mu(d) = [n == 1]
        for n in range(1, 500):
            fac = factor(n, sieve_small.spf)
            total = sum(
                mobius(factor(d, sieve_small.spf)) for d in divisors_from_factors(fac)
            )
            assert total == (1 if n == 1 else 0)


class TestMobiusTable:
    # mu is the third column of the q-tables, built once for the class; M
    # is its cumulative sum
    @pytest.fixture(scope="class")
    def mu(self):
        return q_tables(10**4)[2]

    def test_matches_per_integer_mobius(self, mu, sieve_small):
        assert len(mu) == 10**4 + 1 and mu[0] == 0
        for n in range(1, 10**4 + 1):
            assert int(mu[n]) == mobius(factor(n, sieve_small.spf)), n

    def test_mertens_known_values(self, mu):
        M = np.cumsum(mu, dtype=np.intc)
        assert M.itemsize == 4 and len(M) == 10**4 + 1
        assert [int(M[x]) for x in (0, 1, 10, 100, 1000, 10**4)] == [0, 1, -1, 1, 2, -23]

    def test_mertens_is_cumulative_mu(self, mu):
        M = np.cumsum(mu, dtype=np.intc)
        running = 0
        for x in range(10**4 + 1):
            running += int(mu[x])
            assert int(M[x]) == running, x


class TestSquareDivisorPairs:
    def test_unit(self, sieve_small):
        assert square_divisor_weights(factor(1, sieve_small.spf)) == [(1, 1)]

    def test_two(self, sieve_small):
        pairs = sorted(square_divisor_weights(factor(2, sieve_small.spf)))
        assert pairs == [(1, 1), (2, 3), (4, 3)]

    def test_pair_count_six(self, sieve_small):
        assert len(square_divisor_weights(factor(6, sieve_small.spf))) == 9  # tau(36)

    @pytest.mark.parametrize("n", [12, 2310, 9240])
    def test_rows_in_product_order(self, sieve_small, n):
        # the order square_divisor_blocks yields: the b of the largest prime fastest
        fac = factor(n, sieve_small.spf)
        want = [
            math.prod(p**b for (p, _), b in zip(fac, bs))
            for bs in itertools.product(*(range(2 * a + 1) for _, a in fac))
        ]
        assert [q for q, _ in square_divisor_weights(fac)] == want

    def test_reparametrization(self, sieve_small):
        # {q^2 : q | n^2} equals {d : d | n^4, n^4/d square}, for all n <= 1e4
        ns = range(1, 10**4 + 1)
        for n in ns:
            fac = factor(n, sieve_small.spf)
            via_pairs = sorted(q * q for q, _ in square_divisor_weights(fac))
            n4 = n**4
            fac4 = [(p, 4 * a) for p, a in fac]
            direct = sorted(
                d
                for d in divisors_from_factors(fac4)
                if math.isqrt(n4 // d) ** 2 == n4 // d
            )
            assert via_pairs == direct, n

    def test_factored_d_is_consistent(self, sieve_small):
        # d = q^2 has the square cofactor (n^2/q)^2, and the weight is r4*(d)
        # by the literal divisor sum
        for n in (12, 90, 97):
            fac = factor(n, sieve_small.spf)
            for q, w in square_divisor_weights(fac):
                assert (n * n // q) ** 2 * q * q == n**4
                d_factors = []
                for p, _ in fac:
                    e = 0
                    while q % p**(e + 1) == 0:
                        e += 1
                    if e:
                        d_factors.append((p, 2 * e))
                assert w == r4_star_divisor_oracle(d_factors), (n, q)


# tracemalloc peaks of one square_divisor_blocks pass, 10 % above the
# 0.975 MB (at 10^4) and 1.50 MB (at SQUARE_DIVISOR_CAP) it measures
BOUND_10K_MB = 1.07
BOUND_CAP_MB = 1.65


def block_rows(blocks):
    """{n: [(q, r4*(q^2)), ...] in the order yielded} from the blocks of
    square_divisor_blocks."""
    rows = {}
    for lo, counts, q, g in blocks:
        assert counts.dtype == q.dtype == g.dtype == np.int64
        assert len(q) == len(g) == int(counts.sum())
        ends = np.cumsum(counts).tolist()
        for i, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
            rows[lo + i] = list(zip(q[start:end].tolist(), g[start:end].tolist()))
    return rows


def assert_rows_in_oracle_order(rows, spf):
    # unsorted: np.add.reduceat sums each n's rows in this order
    for n, got in rows.items():
        assert got == square_divisor_weights(factor(n, spf)), n


class TestSquareDivisorBlocks:
    def test_matches_the_per_integer_oracle(self, sieve_small):
        rows = block_rows(square_divisor_blocks(10**4))
        assert list(rows) == list(range(1, 10**4 + 1))
        assert_rows_in_oracle_order(rows, sieve_small.spf)

    @pytest.mark.parametrize("limit", [0, 1, 2, 255, 256, 257, 513])
    def test_block_edges(self, sieve_small, limit):
        blocks = list(square_divisor_blocks(limit))
        assert [lo for lo, *_ in blocks] == list(range(1, limit + 1, SQUARE_BLOCK))
        assert sum(len(counts) for _, counts, _, _ in blocks) == limit
        rows = block_rows(blocks)
        assert list(rows) == list(range(1, limit + 1))
        assert_rows_in_oracle_order(rows, sieve_small.spf)

    def test_order_at_the_cap(self):
        # the block of 30030 = 2*3*5*7*11*13 (six primes, the most below
        # 2^15) and the last block, which ends at 2^15 (31 rows)
        spf = build_spf_sieve(SQUARE_DIVISOR_CAP).spf
        blocks = list(square_divisor_blocks(SQUARE_DIVISOR_CAP))
        assert blocks[-1][0] + len(blocks[-1][1]) - 1 == SQUARE_DIVISOR_CAP
        wanted = [blk for blk in blocks if blk[0] <= 30030 < blk[0] + SQUARE_BLOCK]
        rows = block_rows(wanted + blocks[-1:])
        assert len(rows[30030]) == 3**6 and len(rows[SQUARE_DIVISOR_CAP]) == 31
        assert len(rows) == 2 * SQUARE_BLOCK
        assert_rows_in_oracle_order(rows, spf)

    def test_prime_power_tables(self):
        _, spf, pk, e = build_spf_sieve(SQUARE_DIVISOR_CAP)
        assert pk.dtype == np.int32 and e.dtype == np.int8
        assert len(pk) == len(e) == SQUARE_DIVISOR_CAP + 1
        assert (pk[1], e[1]) == (1, 0)
        for i in [*range(2, 10**4 + 1), *range(SQUARE_DIVISOR_CAP - 299, SQUARE_DIVISOR_CAP + 1)]:
            p, a = factor(i, spf)[0]
            assert (int(pk[i]), int(e[i])) == (p**a, a), i

    def test_prime_power_segments(self, sieve_small):
        _, spf, pk, e = sieve_small
        off, pb, local = arith._prime_power_segments(spf, pk, e)
        assert off.dtype == np.int32 and pb.dtype == local.dtype == np.int64
        assert (pb[off[1]], local[off[1]]) == (1, 1)
        powers = [i for i in range(2, len(spf)) if len(factor(i, spf)) == 1]
        for i in powers:
            (p, a), = factor(i, spf)
            seg = slice(int(off[i]), int(off[i]) + 2 * a + 1)
            assert pb[seg].tolist() == [p**b for b in range(2 * a + 1)], i
            assert local[seg].tolist() == [r4_star_p2b(p, b) for b in range(2 * a + 1)], i
        # the segments tile pb and local in order of p^a
        assert int(off[powers[-1]]) + 2 * int(e[powers[-1]]) + 1 == len(pb)

    @pytest.mark.parametrize("limit", [0, 1, 3999])
    def test_one_spf_table_per_pass(self, monkeypatch, limit):
        limits = []
        build = arith.build_spf_sieve

        def counted(limit, *args, **kwargs):
            limits.append(limit)
            return build(limit, *args, **kwargs)

        monkeypatch.setattr(arith, "build_spf_sieve", counted)
        for _ in square_divisor_blocks(limit):
            pass
        assert limits == [max(limit, 2)]

    @pytest.mark.parametrize(
        "limit, bound_mb", [(10**4, BOUND_10K_MB), (SQUARE_DIVISOR_CAP, BOUND_CAP_MB)]
    )
    def test_memory_of_a_pass(self, limit, bound_mb):
        # one whole pass, tables and blocks: a longer SQUARE_BLOCK or a wider
        # dtype in the tables shows here
        tracemalloc.start()
        try:
            for _ in square_divisor_blocks(limit):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mb * 2**20, peak

    def test_weights_at_large_prime_squares(self):
        # at n = p = 6211, r4*(p^4) = p^4 + p^3 + p^2 + p + 1 fits an int64,
        # but (p^5 - 1)/(p - 1) would pass through p^5 > 2^63
        p = 6211
        got = dict(block_rows(square_divisor_blocks(p))[p])
        assert got == {1: 1, p: p * p + p + 1, p * p: p**4 + p**3 + p**2 + p + 1}

    def test_cap_raises_before_allocating(self, monkeypatch):
        def no_sieve(*args, **kwargs):
            raise AssertionError("allocated past the cap")

        monkeypatch.setattr(arith, "build_spf_sieve", no_sieve)
        with pytest.raises(ResourceError):
            next(square_divisor_blocks(SQUARE_DIVISOR_CAP + 1))


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).tolist() == []

    def test_counts(self):
        assert len(primes_up_to(10**4)) == 1229
        assert len(primes_up_to(10**6)) == 78498

    @staticmethod
    def _reference(limit):
        # trial division by the primes found so far, one n at a time
        found = []
        for n in range(2, limit + 1):
            if all(n % p for p in found if p * p <= n):
                found.append(n)
        return found

    def test_matches_reference_at_every_small_limit(self):
        want = self._reference(300)
        for limit in range(301):
            got = primes_up_to(limit)
            assert got.dtype == np.int64, limit
            assert got.tolist() == [p for p in want if p <= limit], limit

    def test_matches_reference_near_a_million(self):
        mask = np.ones(10**6 + 4, dtype=bool)
        mask[:2] = False
        for p in range(2, math.isqrt(10**6 + 3) + 1):
            if mask[p]:
                mask[p * p :: p] = False
        for limit in range(10**6 - 3, 10**6 + 4):
            got = primes_up_to(limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.flatnonzero(mask[: limit + 1])), limit

    def test_empty_below_two_is_int64(self):
        for limit in (-5, 0, 1):
            got = primes_up_to(limit)
            assert got.dtype == np.int64 and got.size == 0


def test_r4_star_promotes_past_machine_words():
    # sigma(p^4) for p = 2^31 - 1 exceeds 2^64; the result stays exact
    p = 2147483647
    value = r4_star_p2b(p, 2)
    assert value == (p**5 - 1) // (p - 1) == p**4 + p**3 + p**2 + p + 1
    assert value > 2**64


def test_spf_entries_divide_and_are_prime(sieve_small):
    spf = sieve_small.spf
    for i in range(2, 5001):
        p = int(spf[i])
        assert i % p == 0
        assert int(spf[p]) == p  # p itself is prime
