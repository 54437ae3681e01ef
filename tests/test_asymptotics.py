import math
from fractions import Fraction

import mpmath
import pytest

from qpc import (
    DomainError,
    s_exact,
    NSTAR_VARIANTS,
    RESIDUE_JACOBIAN,
    ResiduePolynomial,
    convergence_table,
    euler_product_C4,
    n_star,
    n_star_main_term,
    n_u_main_term,
    p_coefficients,
    prime_zeta,
    primes_up_to,
    s_main_term,
    t_exact,
    t_main_term,
    zeta,
)
from conftest import zeta_star
from qpc import arith, asymptotics, dirichlet
from test_dirichlet import reference_g_value

mpmath.mp.dps = 40

# closed form of the constant: the local factor simplifies to
# (1+p^-2)(1-p^-4), so the product is zeta(2)/zeta(4)^2 and
# C4 = (23/150) zeta(5) zeta(2) / zeta(4)^2 = 207 zeta(5) / pi^6
C4_ORACLE = float(207 * mpmath.zeta(5) / mpmath.pi**6)


class TestPrimeZeta:
    def test_against_mpmath(self):
        for s in (2.0, 3.0, 4.0):
            assert abs(prime_zeta(s) - float(mpmath.primezeta(s))) < 1e-13


class TestEulerProductC4:
    def test_closed_form_oracle(self):
        value, _ = euler_product_C4(10**6)
        assert abs(value - C4_ORACLE) < 1e-9

    def test_tail_bound_is_honest(self):
        for P in (0, 3, 10**3, 10**4, 10**5, 10**6):
            value, tail = euler_product_C4(P)
            assert abs(value - C4_ORACLE) <= tail, P

    def test_stability_1e5_vs_1e6(self):
        v5, _ = euler_product_C4(10**5)
        v6, _ = euler_product_C4(10**6)
        assert abs(v5 - v6) < 1e-8

    def test_tail_bound_certifies_8_decimals(self):
        _, tail = euler_product_C4(10**6)
        assert tail < 0.5e-8
        _, tail5 = euler_product_C4(10**5)
        assert tail5 < 0.5e-8

    def test_tail_monotone(self):
        _, t3 = euler_product_C4(10**3)
        _, t6 = euler_product_C4(10**6)
        assert t3 > t6 > 0

    def test_small_limits_differ(self):
        v2, _ = euler_product_C4(2)
        v3, _ = euler_product_C4(3)
        assert abs(v2 - v3) > 1e-8


@pytest.fixture(scope="module")
def poly():
    return p_coefficients()


# log G_p on the residue line as a Fraction series sum c_ij X^i V^j, with
# X = p^-(s+1)/2 and V = 1/p, summed over p > ORACLE_N as c_ij P(i(s+1)/2 + j):
# at s = 1 that is c_ij P(i + j) and its s-derivative c_ij (i/2) P'(i + j),
# with mpmath's prime zeta and zeta'.  An order of summation of its own,
# beside the one-variable series in V and the Mobius sums of p_coefficients.
ORACLE_N, ORACLE_K = 50, 20
# the constants at 30 digits, stable across the N and K of the oracle
C1_30 = mpmath.mpf("0.22326446640869670832")
C0_30 = mpmath.mpf("0.052481309696205396")


def _log_g_series():
    """{(i, j): c_ij} for log G_p, i + j <= ORACLE_K."""

    def mul(a, b):
        out = {}
        for (i, j), x in a.items():
            for (k, l), y in b.items():
                if i + j + k + l <= ORACLE_K:
                    out[i + k, j + l] = out.get((i + k, j + l), 0) + x * y
        return out

    def log1p(u, sign=1):
        power = dict(u)
        for m in range(1, ORACLE_K + 1):
            for key, v in power.items():
                coeffs[key] = coeffs.get(key, 0) + sign * Fraction((-1) ** (m + 1), m) * v
            power = mul(power, u)

    coeffs = {}
    log1p({(1, 0): 1, (1, 1): 1, (1, 2): 1, (0, 2): 1, (0, 3): 1, (0, 4): 1, (1, 4): 1})
    log1p({(1, 0): -1})
    log1p({(0, 5): -1}, sign=-1)
    return {key: c for key, c in coeffs.items() if c}


def _mobius(r):
    mu, p = 1, 2
    while r > 1:
        if r % p == 0:
            r //= p
            if r % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def _prime_zeta_derivative(k):
    """P'(k) = sum_r mu(r) zeta'(rk)/zeta(rk), to the working precision."""
    total, r = mpmath.mpf(0), 1
    while mpmath.mpf(2) ** (-r * k) > mpmath.eps:
        if _mobius(r):
            total += _mobius(r) * mpmath.zeta(r * k, derivative=1) / mpmath.zeta(r * k)
        r += 1
    return total


def residue_constants_oracle():
    """(c1, c0) in mpmath at the working precision."""
    small = [p for p in range(2, ORACLE_N + 1) if all(p % q for q in range(2, p))]
    two = mpmath.mpf(2)

    def log_explicit(s):
        # G_2 and the odd p <= ORACLE_N, at s on the residue line
        g2 = (1 + 3 * two ** (-(s + 5) / 2) + two**-4) / (1 - two**-5) * (
            1 - two ** (-(s + 1) / 2)
        ) / 2
        total = mpmath.log(g2)
        for p in small[1:]:
            x, v = mpmath.mpf(p) ** (-(s + 1) / 2), mpmath.mpf(1) / p
            total += mpmath.log(
                (1 + x + x * v + x * v**2 + v**2 + v**3 + v**4 + x * v**4) * (1 - x) / (1 - v**5)
            )
        return total

    # at s = 1 the exponent i(s+1)/2 + j is k = i + j, and its s-derivative i/2
    by_k = {}
    for (i, j), c in _log_g_series().items():
        c_k, d_k = by_k.get(i + j, (0, 0))
        by_k[i + j] = (c_k + c, d_k + c * Fraction(i, 2))
    log_g = log_explicit(mpmath.mpf(1))
    dlog_g = mpmath.diff(log_explicit, 1)
    for k, (c_k, d_k) in by_k.items():
        head = mpmath.fsum(mpmath.mpf(p) ** -k for p in small)
        dhead = -mpmath.fsum(mpmath.log(p) * mpmath.mpf(p) ** -k for p in small)
        log_g += c_k * (mpmath.primezeta(k) - head)
        dlog_g += d_k * (_prime_zeta_derivative(k) - dhead)
    c1 = mpmath.exp(log_g) / 2
    return c1, c1 * (3 * mpmath.euler / 2 + dlog_g - mpmath.mpf(9) / 8)


class TestPCoefficients:
    def test_c1_matches_product_route(self, poly):
        value, tail = euler_product_C4(10**6)
        assert abs(poly.c1 - value) <= poly.c1_error + tail

    def test_c1_within_its_bound_of_the_closed_form(self, poly):
        # the check the benchmark applies to `constant`
        assert abs(poly.c1 - C4_ORACLE) <= poly.c1_error
        assert poly.c0_error < 1e-12

    def test_against_the_mpmath_oracle(self, poly):
        with mpmath.workdps(40):
            c1, c0 = residue_constants_oracle()
            assert abs(c1 - C1_30) < 1e-20 and abs(c0 - C0_30) < 1e-18
            closed_form = mpmath.mpf(23) / 150 * mpmath.zeta(5) * mpmath.zeta(2) / mpmath.zeta(4) ** 2
            assert abs(c1 - closed_form) < 1e-30
            assert abs(poly.c1 - c1) <= poly.c1_error
            assert abs(poly.c0 - c0) <= poly.c0_error

    def test_no_prime_list_and_no_g_value(self, poly, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("p_coefficients walked a prime list")

        for module, name in ((arith, "primes_up_to"), (asymptotics, "primes_up_to"),
                             (dirichlet, "g_value")):
            monkeypatch.setattr(module, name, refused)
        assert p_coefficients() == poly

    def test_h_regular_through_one(self):
        ps = primes_up_to(10**4)
        hplus = richardson_h(1.0 + 1e-3, 10**4, ps)
        hminus = richardson_h(1.0 - 1e-3, 10**4, ps)
        assert math.isfinite(hplus) and math.isfinite(hminus)
        assert abs(hplus - hminus) < 1e-3

    def test_c0_stable_across_steps(self):
        # 3 significant digits between step scales is the documented bar
        P = 10**5
        ps = primes_up_to(P)

        def central(eps):
            return (richardson_h(1.0 + eps, P, ps) - richardson_h(1.0 - eps, P, ps)) / (2 * eps)

        r3 = (4 * central(5e-4) - central(1e-3)) / 3
        r4 = (4 * central(5e-5) - central(1e-4)) / 3
        assert abs(r3 - r4) < 1e-3 * abs(r4)

    def test_errors_reported(self, poly):
        assert 0 < poly.c1_error < 1e-5
        assert 0 < poly.c0_error < 1e-6
        assert abs(poly.c0 - 0.0524812) < 1e-4

    def test_polynomial_evaluation(self):
        P = ResiduePolynomial(0.25, 0.05, 0.0, 0.0)
        assert P(2.0) == pytest.approx(0.55)


# The route p_coefficients took before the prime-zeta expansion, kept as a
# coarse cross-check: h(1) and Richardson-extrapolated central differences
# of h at steps 1e-3 and 1e-4, over G's Euler product to prime_limit.
def richardson_h(s: float, prime_limit: int, ps) -> float:
    """h(s), written through (sigma - 1) zeta(sigma) so s = 1 is regular."""
    g = reference_g_value(s, (5.0 - s) / 4.0, prime_limit, ps)[0]
    return (
        32.0
        * zeta_star(s)
        * zeta_star((s + 1.0) / 2.0)
        * g
        / ((5.0 - s) * (9.0 - s) * s * (s + 1.0))
    )


def richardson_p_coefficients(prime_limit: int) -> ResiduePolynomial:
    """c1 with the tail bound of the product; c0 with the Richardson spread
    only, which leaves out the truncation of the product."""
    ps = primes_up_to(prime_limit)
    g11, g11_tail = reference_g_value(1.0, 1.0, prime_limit, ps)

    def central(eps: float) -> float:
        return (
            richardson_h(1.0 + eps, prime_limit, ps) - richardson_h(1.0 - eps, prime_limit, ps)
        ) / (2.0 * eps)

    richardson = []
    for eps in (1e-3, 1e-4):
        d1 = central(eps)
        d2 = central(eps / 2.0)
        richardson.append((4.0 * d2 - d1) / 3.0)
    spread = abs(richardson[0] - richardson[1])
    assert spread <= 1e-5 * abs(richardson[1]), richardson
    return ResiduePolynomial(g11 / 2.0, richardson[1], g11_tail / 2.0 + 1e-12, spread + 1e-9)


@pytest.mark.parametrize("prime_limit", [10**3, 5000, 10**5, 10**6])
def test_p_coefficients_match_reference(prime_limit, poly):
    # the product to P misses sum_{p > P} log G_p, so c1 by its tail bound;
    # c0 also misses (1/2) sum_{p > P} log p |R(1/p)|, with |R(V)| <= 1.1 V^2
    # for V <= 1/1000 and sum_{n > P} log n / n^2 <= (log P + 1)/P
    want = richardson_p_coefficients(prime_limit)
    assert abs(poly.c1 - want.c1) <= want.c1_error + poly.c1_error
    missed = 0.55 * (math.log(prime_limit) + 1) / prime_limit
    c0_bound = want.c0_error + want.c1 * missed + poly.c0 * want.c1_error / want.c1
    assert abs(poly.c0 - want.c0) <= c0_bound + poly.c0_error


class TestMainTerms:
    POLY = ResiduePolynomial(0.22326446640869338, 0.05248119434012969, 1e-8, 1e-6)

    def test_s_boundary_psi(self):
        # y = x^2: psi = (1/2) log x
        x = 100.0
        psi = math.log(x) - 0.25 * math.log(x * x)
        want = x**3 * (4 * self.POLY(psi) + 1.5 * self.POLY.c1) * RESIDUE_JACOBIAN
        assert s_main_term(x, x * x, self.POLY) == pytest.approx(want)

    def test_s_positive_and_reproducible(self):
        x, y = 1e3, 10**7.5
        val = s_main_term(x, y, self.POLY)
        psi = math.log(x) - 0.25 * math.log(y)
        again = x * y * (4 * self.POLY(psi) + 1.5 * self.POLY.c1) * RESIDUE_JACOBIAN
        assert val > 0
        assert val == pytest.approx(again)

    def test_s_domain(self):
        with pytest.raises(DomainError):
            s_main_term(5.0, 10.0, self.POLY)
        with pytest.raises(DomainError):
            s_main_term(100.0, 100.0**4, self.POLY)
        with pytest.raises(DomainError):
            s_main_term(100.0, 100.0**1.5, self.POLY)

    def test_t_at_e(self):
        B = math.e
        want = 0.4 * self.POLY.c1 * B**3 * RESIDUE_JACOBIAN
        assert t_main_term(B, self.POLY) == pytest.approx(want)

    def test_t_positive(self):
        for B in (10, 100, 10**5):
            assert t_main_term(B, self.POLY) > 0

    def test_nstar_at_e(self):
        B = math.e
        want = NSTAR_VARIANTS["chain"] * self.POLY.c1 * B**3 * RESIDUE_JACOBIAN
        assert n_star_main_term(B, self.POLY) == pytest.approx(want)

    def test_nu_constant_is_nstar_over_zeta3(self):
        B = 120.0
        z3 = zeta(3.0).value
        assert n_u_main_term(B, self.POLY) == pytest.approx(n_star_main_term(B, self.POLY) / z3)


class TestConvergenceTable:
    POLY = ResiduePolynomial(0.22326446640869338, 0.05248119434012969, 1e-8, 1e-6)

    def test_structure_T(self, tables):
        recs = convergence_table("T", [100, 1000], tables, self.POLY)
        assert [r.bound for r in recs] == [100, 1000]
        for r in recs:
            assert r.kind == "T"
            assert r.ratio is not None and math.isfinite(r.ratio)
            assert r.exact_count == t_exact(r.bound, tables)

    def test_cross_module_equality(self, tables, monkeypatch):
        recs = convergence_table("N_star", [10, 100], tables, self.POLY)
        assert [r.exact_count for r in recs] == [
            n_star(10, tables),
            n_star(100, tables),
        ]
        # each kind calls its count by name when it runs, so a wrapper set
        # over the module's name afterwards is the one called
        monkeypatch.setattr(asymptotics, "n_star", lambda B, tb: 7 * B)
        assert convergence_table("N_star", [10], tables, self.POLY)[0].exact_count == 70

    def test_empty_bounds(self, tables):
        assert convergence_table("S", [], tables, self.POLY) == []

    def test_bad_kind_and_order(self, tables):
        with pytest.raises(ValueError):
            convergence_table("X", [10], tables, self.POLY)
        with pytest.raises(ValueError):
            convergence_table("T", [100, 10], tables, self.POLY)

    def test_ratio_absent_at_bound_one(self, tables):
        recs = convergence_table("N_star", [1, 10], tables, self.POLY)
        assert recs[0].predicted_main is None and recs[0].ratio is None
        assert recs[1].ratio is not None

    def test_t_ratio_decreasing_toward_one(self, tables):
        poly = p_coefficients()
        ratios = []
        for B in (10**3, 10**4, 10**5):
            ratios.append(t_exact(B, tables) / t_main_term(B, poly))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_s_ratio_band_at_spec_point(tables, poly):
    exact = s_exact(10**4, 10**10, tables)
    ratio = exact / s_main_term(10**4, 10**10, poly)
    assert 0.5 < ratio < 1.5


def test_convergence_table_n_u_kind(tables, poly):
    recs = convergence_table("N_u", [40], tables, poly)
    from qpc import n_u

    assert recs[0].exact_count == n_u(40, tables)
    assert recs[0].ratio is not None
