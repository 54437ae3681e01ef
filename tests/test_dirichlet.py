import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qpc import (
    DomainError,
    TruncSeries,
    formal_identity_1,
    formal_identity_2,
    g_value,
    global_series_check,
    local_factor_definition,
    local_factor_closed_form,
    primes_up_to,
    zeta,
)
from conftest import r4_star, set_zero, xw_rows, zeta_star
from qpc.dirichlet import (
    _BERNOULLI,
    _EM_K,
    _check_convergence_domain,
    _check_local_args,
    _em_terms,
    _g_tail_log_bound,
    _over_binomial,
    _times_binomial,
    _xw_series,
    g_factor_2,
    g_factor_odd,
    zeta_derivative,
)

mpmath.mp.dps = 40


class TestZeta:
    def test_zeta2_pi_identity(self):
        z = zeta(2.0)
        assert abs(z.value - math.pi**2 / 6) <= 1e-12
        assert z.error_bound <= 1e-12

    def test_zeta4_pi_identity(self):
        z = zeta(4.0)
        assert abs(z.value - math.pi**4 / 90) <= 1e-12
        assert z.error_bound <= 1e-12

    def test_zeta3_high_precision(self):
        z = zeta(3.0)
        assert abs(z.value - 1.2020569031595942854) <= 1e-12

    def test_against_mpmath_sweep(self):
        for s in (1.001, 1.5, 2.5, 5.0, 7.0, 11.0, 30.0, 60.0):
            z = zeta(s)
            ref = float(mpmath.zeta(s))
            assert abs(z.value - ref) <= max(z.error_bound, 1e-15 * abs(ref)), s

    def test_near_pole_reports_achievable_bound(self):
        s = 1.0 + 1e-6
        z = zeta(s)
        ref = float(mpmath.zeta(mpmath.mpf(s)))  # same binary argument
        # absolute tolerance 1e-12 is unreachable against a ~1e6 value; the
        # reported bound must cover the actual error instead of lying
        assert abs(z.value - ref) <= z.error_bound
        assert z.error_bound > 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta(1.0)
        with pytest.raises(DomainError):
            zeta_derivative(1.0)

    def test_derivative_against_mpmath_sweep(self):
        for s in (1.001, 1.01, 1.5, 2.0, 2.5, 3.0, 5.0, 7.0, 10.0, 11.0, 30.0, 60.0):
            z = zeta_derivative(s)
            ref = float(mpmath.zeta(s, derivative=1))
            assert abs(z.value - ref) <= max(z.error_bound, 1e-15 * abs(ref)), s
            assert z.error_bound <= max(1e-12, 1e-14 * abs(ref)), s

    def test_cached_em_coefficients_give_the_same_terms(self):
        # the corrections B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) and the
        # first omitted one, with B_2k/(2k)! from the Fractions each time
        def reference(s, N, K):
            terms, rising, npow = [], s, N ** (-s - 1.0)
            for k in range(1, K + 1):
                b = _BERNOULLI[k - 1]
                terms.append((b.numerator / b.denominator) / math.factorial(2 * k) * rising * npow)
                rising *= (s + 2 * k - 1) * (s + 2 * k)
                npow /= N * N
            b = _BERNOULLI[K]
            omitted = abs(b.numerator / b.denominator) / math.factorial(2 * K + 2)
            return terms, omitted * abs(rising) * npow

        for s in (1.001, 1.5, 2.0, math.pi, 7.0, 60.0):
            for N in (1, 24, 48, 1000):
                for K in (1, _EM_K, len(_BERNOULLI) - 1):
                    assert _em_terms(s, N, K) == reference(s, N, K), (s, N, K)

    def test_euler_product_cross_check(self):
        ps = primes_up_to(10**6).astype(np.float64)
        for s in (2.0, 4.0, 6.0, 8.0):
            prod = float(np.prod(1.0 / (1.0 - ps ** (-s))))
            z = zeta(s)
            # product tail: log missing factors <= zeta-tail of n^-s
            tail = 10**6 ** (1.0 - s) / (s - 1.0)
            assert abs(prod - z.value) <= z.error_bound + z.value * tail + 1e-13


class TestZetaStar:
    def test_at_one(self):
        assert abs(zeta_star(1.0) - 1.0) < 1e-13

    def test_matches_zeta_away_from_pole(self):
        for s in (1.5, 2.0, 3.0):
            assert abs(zeta_star(s) - (s - 1) * zeta(s).value) < 1e-12

    def test_stieltjes_slope(self):
        # (s-1) zeta(s) = 1 + gamma (s-1) + O((s-1)^2)
        eps = 1e-5
        slope = (zeta_star(1 + eps) - zeta_star(1 - eps)) / (2 * eps)
        assert abs(slope - 0.5772156649015329) < 1e-6


class TestLocalFactors:
    def test_definition_p3_deg1(self):
        got = local_factor_definition(3, 1)
        want = TruncSeries(2, {(0, 0): 1, (1, 0): 1, (1, 2): 13, (1, 4): 121})
        assert got == want

    def test_definition_p2_deg1(self):
        got = local_factor_definition(2, 1)
        want = TruncSeries(2, {(0, 0): 1, (1, 0): 1, (1, 2): 3, (1, 4): 3})
        assert got == want

    def test_deg0_is_one(self):
        for p in (2, 3, 11):
            assert local_factor_definition(p, 0) == TruncSeries.constant(1, 2)
            assert local_factor_closed_form(p, 0) == TruncSeries.constant(1, 2)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 97])
    def test_closed_form_matches_definition_deg30(self, p):
        assert local_factor_definition(p, 30) == local_factor_closed_form(p, 30)

    def test_all_primes_to_100_deg12(self):
        for p in [int(q) for q in primes_up_to(100)]:
            assert local_factor_definition(p, 12) == local_factor_closed_form(p, 12), p

    @pytest.mark.parametrize("p", [2, 3, 97])
    def test_closed_form_matches_definition_deg100(self, p):
        # a degree the dense inverse-and-product build could not afford
        assert local_factor_definition(p, 100) == local_factor_closed_form(p, 100)

    def test_closed_form_uses_no_dense_arithmetic(self, monkeypatch):
        want = {p: local_factor_definition(p, 30) for p in (2, 3)}

        def dense(*args):
            raise AssertionError("the closed form called a dense series operation")

        monkeypatch.setattr(TruncSeries, "inverse", dense)
        monkeypatch.setattr(TruncSeries, "__mul__", dense)
        monkeypatch.setattr(TruncSeries, "__rmul__", dense)
        for p, series in want.items():
            assert local_factor_closed_form(p, 30) == series


def _random_xw_series(rng, deg):
    """A random polynomial in X, Y with terms drawn at every X-degree up to
    deg, and at least one nonzero term at X-degree deg."""
    coeffs = {}
    for nu in range(deg + 1):
        for mu in rng.sample(range(4 * deg + 7), 3):
            coeffs[nu, mu] = rng.randint(-9, 9)
    coeffs[deg, rng.randrange(4 * deg + 7)] = rng.choice((-7, -1, 1, 5))
    return TruncSeries(2, coeffs)


def _on_rows(step, f, deg, a, b):
    """A binomial step of the closed form applied to the polynomial f of
    X-degree <= deg, through its rows and back."""
    rows = xw_rows(f, deg)
    step(rows, a, b)
    return _xw_series(rows)


def _x_cut(coeffs, deg):
    """The polynomial in X, Y of the terms of coeffs of X-degree <= deg."""
    return TruncSeries(2, {e: c for e, c in coeffs.items() if e[0] <= deg})


class TestBinomialHelpers:
    # the oracle is the dense route: an exact product with 1 - a X Y^b, or
    # with sum_{k <= deg} (a X Y^b)^k, cut at X-degree deg

    @pytest.mark.parametrize("deg", [0, 1, 2, 6])
    def test_match_the_dense_route(self, deg):
        rng = random.Random(800 + deg)
        one = TruncSeries.constant(1, 2)
        for a in (1, -1, 3**2, 3**4, 97**2, 97**4):
            for b in (0, 2, 4):
                step = TruncSeries.monomial(a, (1, b))
                binomial = one - step
                geometric = sum((step**k for k in range(1, deg + 1)), one)
                for _ in range(3):
                    f = _random_xw_series(rng, deg)
                    times = _x_cut((f * binomial).coeffs, deg)
                    over = _x_cut((f * geometric).coeffs, deg)
                    for got, want in (
                        (_on_rows(_times_binomial, f, deg, a, b), times),
                        (_on_rows(_over_binomial, f, deg, a, b), over),
                    ):
                        assert got == want, (a, b)
                        # no stored zero and no missing term
                        assert got.coeffs == want.coeffs, (a, b)
                        assert got.max_degree is None


# The local factors as they were built before the closed form kept X-degree
# rows: each binomial step rebuilt a TruncSeries, whose constructor dropped
# the zeros, and the terms of X-degree > deg were cut.  Kept verbatim as the
# oracle that the row-based build must match coefficient for coefficient.
def reference_times_binomial(f: TruncSeries, a: int, b: int, deg: int) -> TruncSeries:
    """f * (1 - a X Y^b) in one pass: c[(nu, mu)] = f[(nu, mu)] - a f[(nu-1, mu-b)]."""
    c = dict(f.coeffs)
    for (nu, mu), v in f.coeffs.items():
        c[nu + 1, mu + b] = c.get((nu + 1, mu + b), 0) - a * v
    return _x_cut(c, deg)


def reference_over_binomial(f: TruncSeries, a: int, b: int, deg: int) -> TruncSeries:
    """f / (1 - a X Y^b) by the recurrence c[(nu, mu)] = f[(nu, mu)] + a c[(nu-1, mu-b)],
    taken in ascending X-degree."""
    rows = [{} for _ in range(deg + 1)]
    for (nu, mu), v in f.coeffs.items():
        rows[nu][mu] = v
    for nu in range(1, len(rows)):
        row = rows[nu]
        for mu, v in rows[nu - 1].items():
            row[mu + b] = row.get(mu + b, 0) + a * v
    c = {(nu, mu): v for nu, row in enumerate(rows) for mu, v in row.items()}
    return _x_cut(c, deg)


def reference_local_factor_definition(p: int, deg: int = 30) -> TruncSeries:
    _check_local_args(p, deg)
    coeffs = {}
    r4s_cache = [1]
    for mu in range(1, 2 * deg + 1):
        r4s_cache.append(r4_star([(p, 2 * mu)]))
    for nu in range(deg + 1):
        for mu in range(2 * nu + 1):
            key = (nu, 2 * mu)
            coeffs[key] = coeffs.get(key, 0) + r4s_cache[mu]
    return _x_cut(coeffs, deg)


def reference_local_factor_closed_form(p: int, deg: int = 30) -> TruncSeries:
    _check_local_args(p, deg)
    if p == 2:
        numerator = {(0, 0): 1, (1, 2): 3, (1, 4): 2}
        times = ((4, 2), (16, 4))
    else:
        numerator = {(0, 0): 1, (1, 2): p * p + p + 1, (1, 4): p**3 + p * p + p, (2, 6): p**3}
        times = ((p * p, 2),)
    f = _x_cut(numerator, deg)
    for a, b in times:
        f = reference_times_binomial(f, a, b, deg)
    # over G's 1 - X Y^4, then the zeta-type factors j = 0, 1, 2
    for a, b in ((1, 4), (1, 0), (p * p, 2), (p**4, 4)):
        f = reference_over_binomial(f, a, b, deg)
    return f


class TestLocalFactorsMatchReference:
    @pytest.mark.parametrize("deg", [0, 1, 2, 30])
    def test_every_prime_to_100(self, deg):
        for p in [int(q) for q in primes_up_to(100)]:
            self._check(p, deg)

    @pytest.mark.parametrize("p", [2, 3, 97])
    def test_degree_100(self, p):
        self._check(p, 100)

    @staticmethod
    def _check(p, deg):
        for got, want in (
            (local_factor_closed_form(p, deg), reference_local_factor_closed_form(p, deg)),
            (local_factor_definition(p, deg), reference_local_factor_definition(p, deg)),
        ):
            assert got.coeffs == want.coeffs, (p, deg)
            assert (got.nvars, got.max_degree) == (2, None)
            assert all(got.coeffs.values()), (p, deg)


class TestFormalIdentities:
    def test_identity_1(self):
        assert formal_identity_1()

    def test_identity_2(self):
        assert formal_identity_2()

    def test_identity_1_specializations(self):
        # x = 0: both sides 1; y = 0: both sides 1/(1-x)
        from qpc.dirichlet import _RHS_1, _rhs

        num, den = _rhs(_RHS_1, 12)
        rhs = num * den.inverse()
        assert set_zero(rhs, 0) == TruncSeries.constant(1, 3, 12)
        geo = TruncSeries(3, {(k, 0, 0): 1 for k in range(13)}, max_degree=12)
        assert set_zero(rhs, 1) == geo

    def test_identity_2_specializations(self):
        from qpc.dirichlet import _RHS_2, _rhs

        num, den = _rhs(_RHS_2, 12)
        rhs = num * den.inverse()
        geo = TruncSeries(3, {(k, 0, 0): 1 for k in range(13)}, max_degree=12)
        # a = 0: numerator reduces to 1 - x y^4 and the sum collapses to sum x^nu
        assert set_zero(set_zero(rhs, 2), 1) == set_zero(geo, 1)
        a0 = set_zero(rhs, 2)
        lhs_a0 = TruncSeries(3, {(k, 0, 0): 1 for k in range(13)}, max_degree=12)
        assert a0 == lhs_a0
        # y = 0: both sides 1/(1-x)
        assert set_zero(rhs, 1) == geo


class TestGValue:
    def test_g2_special_value(self):
        # closed form at (1,1) works out to the exact rational 23/62
        assert abs(g_factor_2(1.0, 1.0) - 23.0 / 62.0) < 1e-15

    def test_gp_local_identity_at_11(self):
        # G_p(1,1) = (1 + 1/p + 2/p^2 + 2/p^3 + 1/p^4 + 1/p^5)(1 - 1/p)/(1 - 1/p^5)
        for p in (3, 5, 7, 101, 9973):
            u = Fraction(1, p)
            want = (1 + u + 2 * u**2 + 2 * u**3 + u**4 + u**5) * (1 - u) / (1 - u**5)
            assert abs(float(g_factor_odd(float(p), 1.0, 1.0)) - float(want)) < 1e-14

    def test_value_at_11(self):
        val, tail = g_value(1.0, 1.0, 10**6)
        assert abs(val - 0.4465289) < 5e-7
        assert 0 < tail <= 1e-6

    def test_stability_at_62(self):
        v1, _ = g_value(6.0, 2.0, 10**3)
        v2, _ = g_value(6.0, 2.0, 10**4)
        assert abs(v1 - v2) < 1e-8

    def test_empty_product(self):
        val, tail = g_value(6.0, 2.0, 1)
        assert val == 1.0
        assert 0 < tail < math.inf

    def test_tail_bound_covers_truth(self):
        # enlarging the prime cut must stay within the smaller cut's bound
        for s, w in ((1.0, 1.0), (2.0, 1.5), (6.0, 2.0)):
            v_small, tail_small = g_value(s, w, 10**3)
            v_big, _ = g_value(s, w, 10**5)
            assert abs(v_big - v_small) <= tail_small

    def test_gp_size_near_one(self):
        # |G_p(1,1) - 1| <= c / p^2 with c <= 2 for p <= 10^4
        ps = primes_up_to(10**4).astype(np.float64)
        odd = ps[ps > 2]
        vals = g_factor_odd(odd, 1.0, 1.0)
        c = np.max(np.abs(vals - 1.0) * odd * odd)
        assert c <= 2.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            g_value(0.4, 1.0, 100)
        with pytest.raises(DomainError):
            g_value(6.0, -2.0, 100)


# G as it was evaluated before the prime-side arrays were shared between
# points: a fresh expression, seven pows, at every (s, w).  Kept verbatim as
# the oracle that the shared evaluation must match bit for bit.
def reference_g_factor_odd(p, s: float, w: float):
    """G_p(s, w) for odd p (works on numpy arrays of p)."""
    t = (
        1.0
        + (p * p + p + 1) * p ** (-(s + 2 * w))
        + (p**3 + p * p + p) * p ** (-(s + 4 * w))
        + p**3.0 * p ** (-(2 * s + 6 * w))
    )
    return t * (1.0 - p * p * p ** (-(s + 2 * w))) / (1.0 - p ** (-(s + 4 * w)))


def reference_g_value(s: float, w: float, prime_limit: int, ps: np.ndarray) -> tuple[float, float]:
    _check_convergence_domain(s, w)
    value = 1.0
    log_tail = 0.0
    if prime_limit >= 2:
        value *= g_factor_2(s, w)
    else:
        log_tail += abs(math.log(g_factor_2(s, w)))
    odd = ps[ps > 2]
    if odd.size:
        value *= float(np.prod(reference_g_factor_odd(odd.astype(np.float64), s, w)))
    # analytic bound beyond max(prime_limit, 10); explicit factors in between
    analytic_from = max(prime_limit, 10)
    for p in (3, 5, 7):
        if p > prime_limit:
            log_tail += abs(math.log(float(reference_g_factor_odd(float(p), s, w))))
    log_tail += _g_tail_log_bound(s, w, float(analytic_from))
    tail_bound = abs(value) * math.expm1(log_tail) if math.isfinite(log_tail) else math.inf
    return value, tail_bound


# (1, 1) and the Richardson points of the cross-check of p_coefficients in
# test_asymptotics, on the line w = (5 - s)/4
RESIDUE_POINTS = [(1.0, 1.0)] + [
    (s, (5.0 - s) / 4.0)
    for eps in (1e-3, 5e-4, 1e-4, 5e-5)
    for s in (1.0 + eps, 1.0 - eps)
]
# off the line s + 4w = 5, each followed by a point on it; (1, 1 + 2^-40)
# misses 5 by 2^-38
OFF_LINE_POINTS = [(6.0, 2.0), (7.0, 3.0), (2.0, 1.5), (1.0, 1.0 + 2.0**-40), (1.001, 1.2)]
G_SEQUENCE = RESIDUE_POINTS[:3] + [
    pt for pair in zip(OFF_LINE_POINTS, RESIDUE_POINTS[3:]) for pt in pair
] + RESIDUE_POINTS[3 + len(OFF_LINE_POINTS):]


class TestGBitIdentity:
    def test_residue_line_is_exact_in_float(self):
        # the sequence covers G with y = p^-5 exactly and with y off it
        assert all(s + 4 * w == 5.0 for s, w in RESIDUE_POINTS)
        assert all(s + 4 * w != 5.0 for s, w in OFF_LINE_POINTS)

    @pytest.mark.parametrize("prime_limit", [1, 2, 3, 7, 10, 10**3, 5000, 10**6])
    def test_g_value_matches_reference(self, prime_limit):
        ps = primes_up_to(prime_limit)
        for s, w in G_SEQUENCE:
            assert g_value(s, w, prime_limit) == reference_g_value(s, w, prime_limit, ps), (s, w)

    def test_g_factor_odd_matches_reference(self):
        # in the convergence domain p^3 z <= p^-4, so its last bits vanish
        # from G_p; past it, as at (1.1, -0.9), p^3 z outweighs the other
        # terms and a last-bit change in any power shows
        primes = primes_up_to(10**5)
        ps = primes.astype(np.float64)[1:]
        for s, w in G_SEQUENCE + [(1.1, -0.9), (0.3, 0.05), (-0.5, 0.2)]:
            want = reference_g_factor_odd(ps, s, w)
            assert np.array_equal(g_factor_odd(ps, s, w), want), (s, w)
            for p in (3.0, 5.0, 7.0, 101.0, 9973.0):
                assert g_factor_odd(p, s, w) == reference_g_factor_odd(p, s, w), (p, s, w)


class TestGlobalSeries:
    def test_residual_62(self):
        assert global_series_check([(6.0, 2.0)], 10**4, 10**4)[0] < 1e-8

    def test_residual_73(self):
        assert global_series_check([(7.0, 3.0)], 10**4, 10**4)[0] < 1e-8

    @pytest.mark.parametrize("N", [1, 255, 256, 257, 3000])
    def test_one_pass_equals_one_point_at_a_time(self, N):
        # the points share one divisor pass, not one accumulator
        points = [(6.0, 2.0), (7.0, 3.0), (5.5, 0.7), (8.25, 1.3)]
        alone = [global_series_check([point], N, 1000)[0] for point in points]
        assert global_series_check(points, N, 1000) == alone

    def test_truncation_sanity(self):
        # N = 1 keeps only the n = 1 term: residual is |1 - RHS| > 0
        [res] = global_series_check([(6.0, 2.0)], 1, 100)
        e0, e1, e2 = 6.0, 8.0, 10.0
        rhs = zeta(e0).value * zeta(e1).value * zeta(e2).value * g_value(6.0, 2.0, 100)[0]
        assert res == pytest.approx(abs(1.0 - rhs))
        assert res > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            global_series_check([(4.0, 2.0)], 100, 100)
        with pytest.raises(DomainError):
            global_series_check([(6.0, 2.0), (6.0, 0.0)], 100, 100)


def test_local_factor_argument_guards():
    with pytest.raises(ValueError):
        local_factor_definition(4, 3)
    with pytest.raises(ValueError):
        local_factor_closed_form(3, 201)
