import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qpc import (
    ResourceError,
    brute_force_primitive,
    brute_force_primitive_curve,
    brute_force_star,
    build_spf_sieve,
    n_star,
    n_star_by_divisors,
    n_u,
    partition_witness,
    q_tables,
    s_exact,
    t_exact,
    telescoping_check,
)
from qpc import arith, counting
from qpc.arith import Q_BLOCK, Q_TABLE_BYTES
from qpc.counting import PartitionWitness
from conftest import (
    divisors_from_factors,
    factor,
    mobius,
    r4_star,
    r4_star_divisor_oracle,
    square_divisor_weights,
)


# ----------------------------------------------------------------------
# naive reference implementation: divisors of n^4, square-cofactor filter,
# r4* by literal divisor sums
# ----------------------------------------------------------------------


def naive_inner_terms(n, sieve):
    """Sorted (d, r4*(d)) over d | n^4 with n^4/d a perfect square."""
    fac = factor(n, sieve.spf)
    fac4 = [(p, 4 * a) for p, a in fac]
    n4 = n**4
    out = []
    for d in divisors_from_factors(fac4):
        cof = n4 // d
        r = math.isqrt(cof)
        if r * r != cof:
            continue
        d_factors = []
        dd = d
        for p, _ in fac4:
            e = 0
            while dd % p == 0:
                e += 1
                dd //= p
            if e:
                d_factors.append((p, e))
        out.append((d, r4_star_divisor_oracle(d_factors)))
    out.sort()
    return out


def naive_s(x, y, terms_by_n):
    total = 0
    for n in range(1, x + 1):
        total += sum(w for d, w in terms_by_n[n] if d <= y)
    return total


def naive_t(B, terms_by_n):
    total = 0
    for n in range(1, B + 1):
        n4 = n**4
        total += sum(w for d, w in terms_by_n[n] if d * B * B < n4)
    return total


@pytest.fixture(scope="module")
def naive_terms(sieve_small):
    return {n: naive_inner_terms(n, sieve_small) for n in range(1, 501)}


class TestSExact:
    def test_unit_row(self, tables):
        for y in (1, 5, 10**9, Fraction(7, 3)):
            assert s_exact(1, y, tables) == 1

    def test_spec_values(self, tables):
        assert s_exact(2, 4, tables) == 5  # r4*(1)+r4*(1)+r4*(4)
        assert s_exact(2, 16, tables) == 8  # + r4*(16)=3
        assert s_exact(3, 9, tables) == 19

    def test_zero_x(self, tables):
        assert s_exact(0, 100, tables) == 0

    def test_y_below_one(self, tables):
        # no d >= 1 has d <= y
        for y in (-1, Fraction(-1, 2), 0, Fraction(1, 2), -(10**30)):
            assert s_exact(5, y, tables) == 0, y

    def test_rational_y_cutoff(self, tables):
        # d = 4 admitted exactly when y >= 4
        assert s_exact(2, Fraction(15, 4), tables) == 2
        assert s_exact(2, Fraction(16, 4), tables) == 5
        # and S(x, y) = S(floor(x), y), since n is an integer
        assert s_exact(Fraction(999, 2), 10**6, tables) == s_exact(499, 10**6, tables)

    def test_against_naive(self, tables, naive_terms):
        rng = random.Random(501)
        ys = [rng.randint(1, 500**4) for _ in range(6)] + [1, 3, 500**4]
        xs = list(range(1, 60)) + rng.sample(range(60, 501), 25)
        for y in ys:
            for x in xs:
                assert s_exact(x, y, tables) == naive_s(x, y, naive_terms), (x, y)

    def test_saturation(self, tables):
        rng = random.Random(77)
        for x in rng.sample(range(1, 1001), 25):
            base = s_exact(x, x**4, tables)
            assert s_exact(x, x**4 + 1, tables) == base
            assert s_exact(x, 7 * x**4, tables) == base

    def test_monotone(self, tables):
        rng = random.Random(78)
        for _ in range(40):
            x = rng.randint(1, 800)
            y = rng.randint(1, x**4 + 10)
            v = s_exact(x, y, tables)
            assert s_exact(x + 1, y, tables) >= v
            assert s_exact(x, y + rng.randint(1, 50), tables) >= v

    def test_trivial_upper_bound(self, sieve_small, tables):
        # r4*(d) <= d tau(d) gives S(x,y) <= y * sum_{n<=x} tau(n^4)
        rng = random.Random(79)
        for _ in range(15):
            x = rng.randint(2, 1000)
            y = rng.randint(1, x**4)
            tau4 = 0
            for n in range(1, x + 1):
                t = 1
                for _, a in factor(n, sieve_small.spf):
                    t *= 4 * a + 1
                tau4 += t
            assert s_exact(x, y, tables) <= y * tau4

    def test_resource_guard(self, sieve_small, tables):
        # x is bounded only by the int64 per-q terms x // kappa(q): with
        # y = 10 the sum runs over q | n^2 with q <= 3, against an n-ordered sum
        weight = {q: r4_star(factor(q * q, sieve_small.spf)) for q in (1, 2, 3)}
        x = 10**5
        want = sum(w for n in range(1, x + 1) for q, w in weight.items() if n * n % q == 0)
        assert s_exact(x, 10, tables) == want
        x = 2**63 - 1
        assert s_exact(x, 10, tables) == x + weight[2] * (x // 2) + weight[3] * (x // 3)
        with pytest.raises(ResourceError):
            s_exact(2**63, 10, tables)


class TestTExact:
    def test_spec_values(self, tables):
        assert t_exact(1, tables) == 0
        assert t_exact(2, tables) == 1
        assert t_exact(3, tables) == 2

    def test_against_naive(self, tables, naive_terms):
        for B in range(1, 501):
            assert t_exact(B, tables) == naive_t(B, naive_terms), B

    def test_degenerate(self, tables):
        assert t_exact(0, tables) == 0


class TestNStar:
    def test_spec_values(self, tables):
        assert n_star(1, tables) == 32
        assert n_star(2, tables) == 128
        assert n_star(3, tables) == 544

    def test_degenerate(self, tables):
        assert n_star(0, tables) == 0
        assert n_star(Fraction(1, 2), tables) == 0

    def test_rational_bounds(self, tables):
        assert n_star(Fraction(3, 2), tables) == 32
        # hand-checked: at bound 7/2 the admissible (n, q) pairs coincide
        # with those at bound 3, so the count is again 544
        assert n_star(Fraction(7, 2), tables) == 544

    def test_float_bounds_rejected(self, tables):
        # bounds are int or Fraction only; Fraction(2.5) would silently accept
        # a float, so the check has to stay explicit
        with pytest.raises(TypeError):
            n_star(2.5, tables)
        with pytest.raises(TypeError):
            n_u(2.5, tables)
        with pytest.raises(TypeError):
            s_exact(3, 2.5, tables)
        # a float x would reach the sum as a float, and T at a rational
        # bound is not T at its floor
        with pytest.raises(TypeError):
            s_exact(float(10**18 + 7), 10, tables)
        with pytest.raises(TypeError):
            t_exact(100.0, tables)
        with pytest.raises(TypeError):
            t_exact(Fraction(201, 2), tables)
        assert n_star(Fraction(7, 2), tables) == 544

    def test_monotone(self, tables):
        vals = [n_star(B, tables) for B in range(0, 60)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestNU:
    def test_spec_values(self, tables):
        assert n_u(1, tables) == 32
        assert n_u(2, tables) == 96
        assert n_u(3, tables) == 480

    def test_scaling_identity(self, tables):
        # N*(B) = sum_{k<=B} N_U(B/k): every tuple is k times a primitive one
        for B in range(1, 41):
            total = sum(n_u(Fraction(B, k), tables) for k in range(1, B + 1))
            assert total == n_star(B, tables), B


class TestBruteForceOracles:
    def test_star_spec_values(self):
        assert brute_force_star(0) == 0
        assert brute_force_star(1) == 32
        assert brute_force_star(2) == 128

    def test_primitive_spec_values(self):
        assert brute_force_primitive(1) == 32
        assert brute_force_primitive(2) == 96
        assert brute_force_primitive(3) == 480

    def test_caps(self):
        with pytest.raises(ValueError):
            brute_force_star(61)
        with pytest.raises(ValueError):
            brute_force_primitive(41)

    def test_star_matches_fast_path_to_25(self, tables):
        for B in range(0, 26):
            assert brute_force_star(B) == n_star(B, tables), B

    def test_primitive_matches_fast_path_to_25(self, tables):
        curve = brute_force_primitive_curve(25)
        assert len(curve) == 26
        for B in range(0, 26):
            assert curve[B] == n_u(B, tables), B

    def test_primitive_curve_bins_at_the_minimal_height(self):
        # the curve to 12 enumerates quadruples and (x, z) pairs past each
        # smaller bound; binned at max(x, z, sqrt(d)) it must agree
        # with the enumeration that stops at that bound
        curve = brute_force_primitive_curve(12)
        assert [brute_force_primitive(B) for B in range(-1, 13)] == [0] + curve


def n_star_per_bound(B):
    """N*(B) as partition_witness took it before the curve: one SPF table
    and one n-ordered pass per bound, kept verbatim as the curve's oracle."""
    sieve = build_spf_sieve(max(B, 2))
    ns = 0
    for n in range(1, B + 1):
        n2 = n * n
        for q, w in square_divisor_weights(factor(n, sieve.spf)):
            if q <= B and n2 <= q * B:
                ns += w
    return counting.SIGN_FACTOR * ns


def n_star_curve_per_n(limit):
    """N*(B) for B <= limit as n_star_by_divisors took it before the divisor
    blocks: one Python loop over n and the divisors of n^2, kept verbatim
    as the vectorised curve's oracle."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    sieve = build_spf_sieve(max(limit, 2))
    curve = [0] * (limit + 1)
    for n in range(1, limit + 1):
        n2 = n * n
        for q, w in square_divisor_weights(factor(n, sieve.spf)):
            height = max(q, n2 // q)
            if height <= limit:
                curve[height] += w
    # the bins become their prefix sums in place, so no second list is held
    total = 0
    for B, w in enumerate(curve):
        total += w
        curve[B] = counting.SIGN_FACTOR * total
    return curve


class TestNStarByDivisors:
    def test_matches_the_per_bound_loop(self):
        curve = n_star_by_divisors(300)
        assert curve == [n_star_per_bound(B) for B in range(301)]

    def test_matches_the_per_n_loop(self):
        # 300 and the block edges of the divisor generator around it
        for limit in (255, 256, 257, 300, 513):
            assert n_star_by_divisors(limit) == n_star_curve_per_n(limit), limit

    def test_matches_the_reduction_over_q(self, tables):
        curve = n_star_by_divisors(3000)
        assert len(curve) == 3001
        assert curve == [n_star(B, tables) for B in range(3001)]

    def test_shares_no_code_with_the_reduction_over_q(self, monkeypatch):
        # the pass is the q-ordered kernel's oracle only while it builds and
        # reads none of the kernel's tables
        def forbidden(*args, **kwargs):
            raise AssertionError("the n-ordered pass reached the q-tables")

        for name in ("_prime_plan", "_q_table_block", "q_tables"):
            monkeypatch.setattr(arith, name, forbidden)
        for _ in arith.square_divisor_blocks(10**4):
            pass
        assert len(n_star_by_divisors(4000)) == 4001

    def test_small_limits(self):
        assert n_star_by_divisors(0) == [0]
        assert n_star_by_divisors(1) == [0, 32]
        assert n_star_by_divisors(3) == [0, 32, 128, 544]
        with pytest.raises(ValueError):
            n_star_by_divisors(-1)


class TestPartitionWitness:
    def test_spec_values(self, tables):
        curve = n_star_by_divisors(3)
        w = partition_witness(2, tables, curve)
        assert (w.s_part, w.t_part, w.n_star) == (5, 1, 128)
        w = partition_witness(1, tables, curve)
        assert (w.s_part, w.t_part, w.n_star) == (1, 0, 32)
        w = partition_witness(3, tables, curve)
        assert (w.s_part, w.t_part, w.n_star) == (19, 2, 544)

    def test_invariant_enforced(self):
        with pytest.raises(ArithmeticError):
            PartitionWitness(2, 5, 1, 129)

    def test_bound_past_the_curve(self, tables):
        curve = n_star_by_divisors(10)
        partition_witness(10, tables, curve)
        for B in (11, -1):
            with pytest.raises(ValueError):
                partition_witness(B, tables, curve)

    def test_sampled(self, tables):
        rng = random.Random(4)
        sample = rng.sample(range(1, 3000), 25)
        curve = n_star_by_divisors(max(sample))
        for B in sample:
            partition_witness(B, tables, curve)  # raises on violation


class TestTelescoping:
    def test_requires_b_at_least_10(self, tables):
        with pytest.raises(ValueError):
            telescoping_check(9, tables)

    @pytest.mark.parametrize("B", [10, 100, 1000])
    def test_spec_bounds(self, tables, B):
        rep = telescoping_check(B, tables)
        assert rep.lower_ok and rep.partition_ok
        assert rep.k0 >= 1
        assert rep.lower_bound_sum <= rep.t_value

    def test_k0_definition(self, tables):
        # k0 minimal with delta^k0 < (log B)^-3
        B = 100
        rep = telescoping_check(B, tables)
        delta = 1 - 1 / math.log(B)
        thresh = math.log(B) ** -3
        assert delta**rep.k0 < thresh <= delta ** (rep.k0 - 1)

    def test_sandwich_upper_witness(self, tables):
        # T <= upper-shell sum + C B^3 for a modest witnessed C
        for B in (100, 1000):
            rep = telescoping_check(B, tables)
            c_witness = max(0, rep.t_value - rep.upper_bound_sum) / B**3
            assert c_witness < 50.0


def mpf_powers(B, k0):
    """delta^k for k <= k0 and (log B)^-3, in plain mpmath at 120 digits."""
    import mpmath

    with mpmath.workdps(120):
        log = mpmath.log(B)
        delta = 1 - 1 / log
        return [delta**k for k in range(k0 + 1)], log**-3


class TestTelescopeThresholds:
    """The exact shell edges against floors taken in plain mpmath at 120
    digits, whose rounding error is far below the 1e-100 margin kept from
    every integer and from the k0 threshold."""

    BOUNDS = (
        list(range(10, 301))
        + sorted(random.Random(10).sample(range(301, 10**5 + 1), 100))
        + [10**6, 10**7]
    )

    def test_edges_match_mpf_floors(self):
        import mpmath

        tol = mpmath.mpf(10) ** -100
        checked = 0
        for B in self.BOUNDS:
            k0, xs, ys = counting._telescope_thresholds(B)
            assert (len(xs), len(ys), xs[0], ys[0]) == (k0 + 1, k0 + 1, B, B * B)
            powers, thresh = mpf_powers(B, k0)
            # k0 is minimal with delta^k0 < (log B)^-3
            assert powers[k0] < thresh - tol and powers[k0 - 1] > thresh + tol, B
            with mpmath.workdps(120):
                edges = [(x, p * B) for x, p in zip(xs, powers)]
                edges += [(y, p**4 * B * B) for y, p in zip(ys, powers)]
                for got, value in edges:
                    floor = mpmath.floor(value)
                    if value - floor > tol and floor + 1 - value > tol:
                        assert got == int(floor), B
                        checked += 1
        assert checked > 10**4

    def test_escalation_reaches_the_same_edges(self, monkeypatch):
        # a low first rung either decides every edge exactly or hands the
        # bound to 256 bits, however few of its floors it can decide
        from mpmath import iv

        prec = iv.prec
        bounds = (10, 100, 1000, 10**4)
        want = [counting._telescope_thresholds(B) for B in bounds]
        for first in range(4, 65):
            monkeypatch.setattr(counting, "TELESCOPE_PRECISIONS", (first, 256))
            assert [counting._telescope_thresholds(B) for B in bounds] == want, first
        assert iv.prec == prec

    def test_undecided_comparison_escalates(self, monkeypatch):
        # no B up to 2*10^4 leaves delta^k0 < (log B)^-3 undecided at a
        # precision that decides every floor, so withhold the first decided "below" once: the bound
        # must go to the next rung, not read None as "not below"
        from mpmath import iv
        from mpmath.ctx_iv import ivmpf

        want = counting._telescope_thresholds(100)
        less = ivmpf.__lt__
        withheld = []

        def less_but_once(a, b):
            below = less(a, b)
            if below and not withheld:
                withheld.append(iv.prec)
                return None
            return below

        monkeypatch.setattr(ivmpf, "__lt__", less_but_once)
        assert counting._telescope_thresholds(100) == want
        assert withheld == [256]

    def test_undecided_edges_raise(self, tables, monkeypatch):
        from mpmath import iv

        prec = iv.prec
        monkeypatch.setattr(counting, "TELESCOPE_PRECISIONS", (4,))
        with pytest.raises(ArithmeticError):
            telescoping_check(100, tables)
        assert iv.prec == prec


# ----------------------------------------------------------------------
# the reduction over q against the n-ordered divisor enumeration
# ----------------------------------------------------------------------


def t_window(tables, a, c, B):
    """T(B) restricted to a < n <= c, as telescoping_check sums its shells."""
    return counting._q_sum(tables, *counting._t_terms(a, c, B))


def s_window(tables, a, c, Q):
    """S restricted to a < n <= c and q <= Q, as telescoping_check sums its shells."""
    return counting._q_sum(tables, *counting._s_terms(a, c, Q))


@pytest.fixture(scope="module")
def divisor_terms(sieve_small):
    """(q, r4*(q^2)) over q | n^2, for every n <= 2000."""
    return {n: square_divisor_weights(factor(n, sieve_small.spf)) for n in range(1, 2001)}


def oracle_s(a, c, y, terms):
    """S restricted to a < n <= c: q | n^2 with q^2 <= y."""
    return sum(w for n in range(a + 1, c + 1) for q, w in terms[n] if q * q <= y)


def oracle_t(a, c, B, terms):
    """T(B) restricted to a < n <= c: q | n^2 with q*B < n^2."""
    return sum(w for n in range(a + 1, c + 1) for q, w in terms[n] if q * B < n * n)


def oracle_n_star(b, terms):
    """N*(b) for rational b: q | n^2 with q <= b and n^2 <= q*b."""
    return 32 * sum(
        w for n in range(1, math.floor(b) + 1) for q, w in terms[n] if q <= b and n * n <= q * b
    )


@pytest.mark.parametrize("seed", range(4))
def test_n_u_mertens_form_matches_mobius_sum(seed, sieve_small, tables):
    # the Mertens form against the Mobius sum it is derived from, one N*
    # pass per j, at integer and rational bounds up to about 5000
    rng = random.Random(seed)
    d = rng.randint(2, 10)
    for b in (rng.randint(1000, 5000), Fraction(rng.randint(1000 * d, 5000 * d), d)):
        nu = sum(
            mobius(factor(j, sieve_small.spf)) * n_star(Fraction(b) / j, tables)
            for j in range(1, math.floor(b) + 1)
        )
        assert n_u(b, tables) == nu, b


def test_n_u_matches_mobius_sum_over_n_ordered_curve(sieve_mid, tables):
    # N_U(B) = sum_{j<=B} mu(j) N*(B // j), with N* from the n-ordered
    # divisor enumeration and mu from factoring j: no q-table on this side.
    # Every B <= 300, 40 seeded B and the curve's end, 2^15
    top = 2**15
    curve = n_star_by_divisors(top)
    mu = [0] + [mobius(factor(j, sieve_mid.spf)) for j in range(1, top + 1)]
    rng = random.Random(15)
    bounds = [*range(301), *(rng.randint(301, top) for _ in range(40)), top]
    for B in bounds:
        want = sum(mu[j] * curve[B // j] for j in range(1, B + 1) if mu[j])
        assert n_u(B, tables) == want, B


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_n_ordered_oracle(seed, sieve_small, tables, divisor_terms):
    rng = random.Random(seed)
    for _ in range(3):
        x = rng.randint(1, 2000)
        for y in (rng.randint(1, x**4), Fraction(rng.randint(1, x**4), rng.randint(2, 99))):
            assert s_exact(x, y, tables) == oracle_s(0, x, y, divisor_terms), (x, y)
    for _ in range(3):
        b = Fraction(rng.randint(1, 2000), rng.randint(1, 9))
        assert n_star(b, tables) == oracle_n_star(b, divisor_terms), b
    b = Fraction(rng.randint(1, 300), rng.randint(1, 3))
    nu = sum(
        mobius(factor(j, sieve_small.spf)) * oracle_n_star(b / j, divisor_terms)
        for j in range(1, math.floor(b) + 1)
    )
    assert n_u(b, tables) == nu, b
    for _ in range(3):
        c = rng.randint(1, 2000)
        a = rng.randint(0, c)
        B = rng.randint(c, 2000)
        y = rng.randint(1, c**4)
        assert t_window(tables, a, c, B) == oracle_t(a, c, B, divisor_terms), (a, c, B)
        assert s_window(tables, a, c, math.isqrt(y)) == oracle_s(
            a, c, y, divisor_terms
        ), (a, c, y)


@pytest.mark.parametrize("seed", range(3))
def test_rational_bounds_count_as_their_floor(seed, tables):
    # q | n^2 with q <= b and n^2/q <= b are conditions on integers
    rng = random.Random(100 + seed)
    for i in range(9):
        d = rng.randint(2, 97)
        b = Fraction(rng.randint(1, 5000 * d), d)
        assert n_star(b, tables) == n_star(math.floor(b), tables), b
        if i % 3 == 0:
            assert n_u(b, tables) == n_u(math.floor(b), tables), b


# ----------------------------------------------------------------------
# edges of the q-table blocks, against the n-ordered divisor enumeration
# ----------------------------------------------------------------------

EDGES = (Q_BLOCK - 1, Q_BLOCK, Q_BLOCK + 1, 2 * Q_BLOCK - 1, 2 * Q_BLOCK + 1)


@pytest.fixture(scope="module")
def pair_arrays(sieve_mid):
    """n, q, r4*(q^2) over the pairs q | n^2 with q <= max(EDGES), as int64
    arrays; every oracle sum below needs no larger q."""
    top = max(EDGES)
    ns, qs, ws = [], [], []
    for n in range(1, top + 1):
        for q, w in square_divisor_weights(factor(n, sieve_mid.spf)):
            if q <= top:
                ns.append(n)
                qs.append(q)
                ws.append(w)
    return np.array(ns), np.array(qs), np.array(ws)


def test_block_edges_match_n_ordered_oracle(pair_arrays, sieve_mid, tables):
    n, q, w = pair_arrays
    n2 = n * n
    # N*(b)/32 for every b <= max(EDGES): the pairs with max(q, n^2/q) <= b
    height = np.maximum(q, n2 // q)
    hist = np.zeros(max(EDGES) + 1, dtype=np.int64)
    np.add.at(hist, height[height <= max(EDGES)], w[height <= max(EDGES)])
    star = np.cumsum(hist).tolist()
    mu = [0] + [mobius(factor(j, sieve_mid.spf)) for j in range(1, max(EDGES) + 1)]
    for B in EDGES:
        a = B // 3
        want = {
            "n_star": 32 * star[B],
            "n_u": 32 * sum(mu[j] * star[B // j] for j in range(1, B + 1)),
            "s": int(w[(n <= B) & (q <= B)].sum()),
            "t": int(w[(n <= B) & (q * B < n2)].sum()),
            "s_window": int(w[(n > a) & (n <= B) & (q <= B // 2)].sum()),
            "t_window": int(w[(n > a) & (n <= B) & (q * B < n2)].sum()),
        }
        # fresh tables are built to exactly the q each sum reads (B, or B //
        # 2 for s_window), so the last table block and the last reduction
        # block end together; it may hold no multiple of some p <= isqrt(B)
        got = {}
        for kind in want:
            fresh = q_tables(B // 2 if kind == "s_window" else B)
            got[kind] = {
                "n_star": lambda: n_star(B, fresh),
                "n_u": lambda: n_u(B, fresh),
                "s": lambda: s_exact(B, B * B, fresh),
                "t": lambda: t_exact(B, fresh),
                "s_window": lambda: s_window(fresh, a, B, B // 2),
                "t_window": lambda: t_window(fresh, a, B, B),
            }[kind]()
        assert got == want, B
        # the same counts on the session's tables, which run past B
        assert n_star(B, tables) == want["n_star"]
        assert t_exact(B, tables) == want["t"]


@pytest.mark.parametrize("B", [1, 2, 3, 4])
def test_tables_below_the_first_prime_square(B):
    # for B < 4 no prime is sieved, so q = 2 is a leftover prime and must
    # take r4*(4) = 3, not 2^2 + 2 + 1
    fresh = q_tables(B)
    assert n_star(B, fresh) == brute_force_star(B)
    assert n_u(B, fresh) == brute_force_primitive(B)
    assert 32 * (s_exact(B, B * B, fresh) - t_exact(B, fresh)) == brute_force_star(B)


def test_exact_dot_at_every_overflow_choice():
    # one case per path of the overflow guard, each against a Python-int sum:
    # a plain int64 dot, 32-bit limbs in one chunk each, limbs in chunks
    # shorter than the block, and Python integers
    rng = random.Random(9)
    top = 2**63 - 1
    cases = [
        ([rng.randint(0, 2**40) for _ in range(1000)], [rng.randint(-4096, 4096) for _ in range(1000)]),
        ([rng.randint(2**61, top) for _ in range(1000)], [rng.randint(-256, 256) for _ in range(1000)]),
        # the largest limbs against a constant t: every chunk sum is as
        # large as the chunk length allows
        ([top] * 1000, [2**8] * 1000),
        ([top] * 1000, [-(2**30)] * 1000),
        ([top] * 1000, [2**31 - 1] * 1000),
        ([rng.randint(2**61, top) for _ in range(1000)], [rng.randint(-2**40, 2**40) for _ in range(1000)]),
    ]
    for gs, ts in cases:
        want = sum(x * y for x, y in zip(gs, ts))
        got = counting._exact_dot(np.array(gs, dtype=np.int64), np.array(ts, dtype=np.int64))
        assert got == want and type(got) is int, ts[0]
    # the plain dot is taken only while its bound holds; past it the
    # wrapped int64 result would differ
    g = np.full(4, 2**61, dtype=np.int64)
    t = np.full(4, 3, dtype=np.int64)
    assert counting._exact_dot(g, t) == 12 * 2**61 != int(np.dot(g, t))


def test_float_isqrt_near_squares():
    rng = random.Random(10)
    ks = [1, 2, 3, 2**26, 94906265] + [rng.randint(2**20, 94906265) for _ in range(200)]
    v = np.array([k * k + d for k in ks for d in (-1, 0, 2 * k) if k * k + d < 2**53])
    assert counting._isqrt(v).tolist() == [math.isqrt(int(x)) for x in v]


def test_float_isqrt_refuses_2_to_the_53():
    # a check, not an assert, so python -O keeps it
    counting._isqrt(np.array([2**53 - 1]))
    with pytest.raises(ArithmeticError):
        counting._isqrt(np.array([2**53]))


def test_table_budget(tables, monkeypatch):
    # reference values first, on the session's tables
    star, s = n_star(1000, tables), s_exact(40, 10**6, tables)
    monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", Q_TABLE_BYTES * 1001)
    small = q_tables(1000)
    assert n_star(1000, small) == star
    with pytest.raises(ResourceError):
        q_tables(10**4)
    with pytest.raises(ValueError):
        s_exact(1000, 10**8, small)  # needs q up to 10^4
    with pytest.raises(ResourceError):
        q_tables(40**2)
    with pytest.raises(ValueError):
        s_exact(40, 10**12, small)  # needs q up to 40^2 = 1600
    assert s_exact(40, 10**6, small) == s


def test_counts_refuse_bounds_past_their_tables(monkeypatch):
    # a count reads the tables it is given and never builds them: each
    # reads q up to its bound (S(x, y) up to min(isqrt(y), x^2)), and a
    # bound past the tables' end is refused
    tables = q_tables(100)
    monkeypatch.setattr(arith, "_prime_plan", None)  # a build would fail
    star = n_star(100, tables)
    assert star == n_star_by_divisors(100)[100]
    assert star == 32 * (s_exact(100, 100**2, tables) - t_exact(100, tables))
    assert n_u(100, tables) < star
    for count, args in ((n_star, (101,)), (n_star, (Fraction(203, 2),)), (n_u, (101,)),
                        (t_exact, (101,)), (s_exact, (11, 101**2))):
        with pytest.raises(ValueError, match="q-tables end at 100"):
            count(*args, tables)


def test_n_u_charges_its_arrays_to_the_table_budget(tables, monkeypatch):
    # room for the q-tables of N*(B) but not for the arrays of N_U(B)
    B = 5000
    star, prim = n_star(B, tables), n_u(B, tables)
    monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", Q_TABLE_BYTES * (B + 1) + 1000)
    small = q_tables(B)
    assert n_star(B, small) == star
    with pytest.raises(ResourceError):
        n_u(B, small)
    budget = (Q_TABLE_BYTES + counting.N_U_BYTES) * (B + 1)
    monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", budget)
    roomy = q_tables(B)
    assert n_u(B, roomy) == prim


def test_n_u_bytes_is_its_traced_peak():
    # N_U_BYTES is the traced peak of n_u's arrays per q, rounded up: the
    # budget it charges is neither short of them nor a byte per q over
    B = 10**6
    fresh = q_tables(B)
    tracemalloc.start()
    try:
        n_u(B, fresh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (counting.N_U_BYTES - 1) * (B + 1) <= peak <= counting.N_U_BYTES * (B + 1) + 64 * Q_BLOCK
