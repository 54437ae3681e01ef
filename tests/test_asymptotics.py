import math

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
    UnstableDifferentiationError,
    zeta,
    zeta_star,
)
from qpc.asymptotics import _h
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
    return p_coefficients(10**6)


class TestPCoefficients:
    def test_c1_matches_product_route(self, poly):
        value, _ = euler_product_C4(10**6)
        assert abs(poly.c1 - value) < 1e-6

    def test_h_regular_through_one(self):
        ps = primes_up_to(10**4)
        hplus = _h(1.0 + 1e-3, 10**4, ps)
        hminus = _h(1.0 - 1e-3, 10**4, ps)
        assert math.isfinite(hplus) and math.isfinite(hminus)
        assert abs(hplus - hminus) < 1e-3

    def test_c0_stable_across_steps(self):
        # 3 significant digits between step scales is the documented bar
        P = 10**5
        ps = primes_up_to(P)

        def central(eps):
            return (_h(1.0 + eps, P, ps) - _h(1.0 - eps, P, ps)) / (2 * eps)

        r3 = (4 * central(5e-4) - central(1e-3)) / 3
        r4 = (4 * central(5e-5) - central(1e-4)) / 3
        assert abs(r3 - r4) < 1e-3 * abs(r4)

    def test_errors_reported(self, poly):
        assert 0 < poly.c1_error < 1e-5
        assert 0 < poly.c0_error < 1e-6
        assert abs(poly.c0 - 0.0524812) < 1e-4

    def test_prime_limit_guard(self):
        with pytest.raises(ValueError):
            p_coefficients(100)

    def test_polynomial_evaluation(self):
        P = ResiduePolynomial(0.25, 0.05, 0.0, 0.0)
        assert P(2.0) == pytest.approx(0.55)


# p_coefficients as it was before G's prime-side arrays were shared between
# its nine points, kept verbatim (over the verbatim G of test_dirichlet) as
# the oracle that the shared evaluation must match field by field.
def reference_h(s: float, prime_limit: int, ps) -> float:
    g = reference_g_value(s, (5.0 - s) / 4.0, prime_limit, ps)[0]
    return (
        32.0
        * zeta_star(s)
        * zeta_star((s + 1.0) / 2.0)
        * g
        / ((5.0 - s) * (9.0 - s) * s * (s + 1.0))
    )


def reference_p_coefficients(
    prime_limit: int, rel_tolerance: float = 1e-5
) -> ResiduePolynomial:
    if prime_limit < 10**3:
        raise ValueError("prime_limit must be >= 1000 for stable coefficients")
    ps = primes_up_to(prime_limit)
    g11, g11_tail = reference_g_value(1.0, 1.0, prime_limit, ps)
    c1 = g11 / 2.0
    c1_error = g11_tail / 2.0 + 1e-12

    def central(eps: float) -> float:
        return (
            reference_h(1.0 + eps, prime_limit, ps) - reference_h(1.0 - eps, prime_limit, ps)
        ) / (2.0 * eps)

    richardson = []
    for eps in (1e-3, 1e-4):
        d1 = central(eps)
        d2 = central(eps / 2.0)
        richardson.append((4.0 * d2 - d1) / 3.0)
    spread = abs(richardson[0] - richardson[1])
    scale = max(abs(richardson[1]), 1e-30)
    if spread > rel_tolerance * scale:
        raise UnstableDifferentiationError(
            f"h'(1) estimates differ by {spread:.3e} (relative {spread / scale:.3e})",
            estimates=tuple(richardson),
        )
    c0 = richardson[1]
    c0_error = spread + 1e-9
    return ResiduePolynomial(c1, c0, c1_error, c0_error)


@pytest.mark.parametrize("prime_limit", [10**3, 5000, 10**5, 10**6])
def test_p_coefficients_match_reference(prime_limit):
    got = p_coefficients(prime_limit)
    want = reference_p_coefficients(prime_limit)
    assert (got.c1, got.c0, got.c1_error, got.c0_error) == (
        want.c1, want.c0, want.c1_error, want.c0_error
    )


class TestMainTerms:
    POLY = ResiduePolynomial(0.22326446640869338, 0.05248119434012969, 1e-8, 1e-6)

    def test_s_boundary_psi(self):
        # y = x: psi = (3/4) log x
        x = 100.0
        psi = math.log(x) - 0.25 * math.log(x)
        want = x * x * (4 * self.POLY(psi) + 1.5 * self.POLY.c1) * RESIDUE_JACOBIAN
        assert s_main_term(x, x, self.POLY) == pytest.approx(want)

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

    def test_t_at_e(self):
        B = math.e
        want = 0.4 * self.POLY.c1 * B**3 * RESIDUE_JACOBIAN
        assert t_main_term(B, self.POLY) == pytest.approx(want)

    def test_t_positive(self):
        for B in (10, 100, 10**5):
            assert t_main_term(B, self.POLY) > 0

    def test_nstar_variant_ratio(self):
        B = 50.0
        chain = n_star_main_term(B, self.POLY, "chain")
        paper = n_star_main_term(B, self.POLY, "paper")
        assert chain / paper == pytest.approx(4.0 / 3.0)

    def test_nstar_at_e(self):
        B = math.e
        want = NSTAR_VARIANTS["chain"] * self.POLY.c1 * B**3 * RESIDUE_JACOBIAN
        assert n_star_main_term(B, self.POLY, "chain") == pytest.approx(want)

    def test_nu_constant_is_nstar_over_zeta3(self):
        B = 120.0
        z3 = zeta(3.0).value
        for variant in ("paper", "chain"):
            assert n_u_main_term(B, self.POLY, variant) == pytest.approx(
                n_star_main_term(B, self.POLY, variant) / z3
            )


class TestConvergenceTable:
    POLY = ResiduePolynomial(0.22326446640869338, 0.05248119434012969, 1e-8, 1e-6)

    def test_structure_T(self, tables):
        recs = convergence_table("T", [100, 1000], tables, self.POLY)
        assert [r.bound for r in recs] == [100, 1000]
        for r in recs:
            assert r.kind == "T"
            assert r.ratio is not None and math.isfinite(r.ratio)
            assert r.exact_count == t_exact(r.bound, tables)

    def test_cross_module_equality(self, tables):
        recs = convergence_table("N_star", [10, 100], tables, self.POLY)
        assert [r.exact_count for r in recs] == [
            n_star(10, tables),
            n_star(100, tables),
        ]

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
        poly = p_coefficients(10**5)
        ratios = []
        for B in (10**3, 10**4, 10**5):
            ratios.append(t_exact(B, tables) / t_main_term(B, poly))
        assert ratios[0] > ratios[1] > ratios[2] > 1.0


def test_s_ratio_band_at_spec_point(tables, poly):
    exact = s_exact(10**4, 10**10, tables)
    ratio = exact / s_main_term(10**4, 10**10, poly)
    assert 0.5 < ratio < 1.5


def test_p_coefficients_instability_is_reported():
    from qpc import UnstableDifferentiationError

    with pytest.raises(UnstableDifferentiationError) as exc:
        p_coefficients(10**3, rel_tolerance=1e-18)
    assert exc.value.estimates is not None and len(exc.value.estimates) == 2


def test_convergence_table_n_u_kind(tables, poly):
    recs = convergence_table("N_u", [40], tables, poly)
    from qpc import n_u

    assert recs[0].exact_count == n_u(40, tables)
    assert recs[0].ratio is not None
