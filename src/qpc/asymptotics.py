"""The leading constant, the residue polynomial, and main-term comparisons.

Two independent numerical routes to the constant C4:

  * euler_product_C4: the literal Euler product
        (23/150) zeta(5) prod_p (1 + 1/p + 2/p^2 + 2/p^3 + 1/p^4 + 1/p^5)(1 - 1/p),
    with a prime-zeta tail correction that pins the limit to
    ~1e-11 (the local factor simplifies to (1+p^-2)(1-p^-4), so the tail of
    its logarithm is a combination of prime zeta values);

  * p_coefficients: the residue route c1 = h(1), c0 = h'(1) for
        h(s) = 16 (s-1)^2 zeta(s) zeta((s+1)/2) G(s, (5-s)/4)
               / ((5-s)(9-s) s (s+1)),
    evaluated through the entire function (s-1) zeta(s), with h(1) = G(1,1)/2.

Main-term note.  The double-pole residue that produces P(t) arises from the
w-integral over the factor zeta(s + 4w - 4); a residue in w at that pole
carries the Jacobian 1/(d(s+4w-4)/dw) = 1/4 (and the simple-pole route at
zeta(s+2w-2) carries 1/2).  The constant chain defined above omits that
Jacobian, so predicted main terms apply RESIDUE_JACOBIAN = 1/4 on top of
the reported constants; exact counts confirm the corrected normalization
(ratios drift toward 1, not toward 4).  Divide a main term by
RESIDUE_JACOBIAN to evaluate it in the uncorrected normalization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import QTables, primes_up_to
from .counting import CountRecord, n_star, n_u, s_exact, t_exact
from .dirichlet import _OddFactors, _g_value, zeta, zeta_star
from .errors import DomainError, UnstableDifferentiationError

RESIDUE_JACOBIAN = 0.25

# N*(B) ~ C4star * B^3 log B: the stated theorem constant vs. the constant
# the decomposition chain 32*(2 - 2/5) actually produces.  Never silently
# pick one; every report carries both.
NSTAR_VARIANTS = {
    "paper": 192.0 / 5.0,
    "chain": 256.0 / 5.0,
}


@dataclass(frozen=True)
class ResiduePolynomial:
    """P(t) = c1 * t + c0 from the double pole at s = 1, with error estimates.

    c0_error covers only the Richardson spread of h'(1), not the truncation
    of the Euler product at prime_limit: c0 moves by 1.04e-6 between prime
    limits 10^5 and 10^6 while each run reports about 1e-9.
    """

    c1: float
    c0: float
    c1_error: float
    c0_error: float

    def __post_init__(self):
        if self.c1 <= 0:
            raise ValueError("leading coefficient must be positive")
        if self.c1_error < 0 or self.c0_error < 0:
            raise ValueError("error estimates must be non-negative")

    def __call__(self, t: float) -> float:
        return self.c1 * t + self.c0


def prime_zeta(s: float) -> float:
    """P(s) = sum_p p^-s for s > 1, via sum_r mu(r)/r * log zeta(r s)."""
    if s <= 1.0:
        raise DomainError("prime_zeta requires s > 1")
    mu = QTables().upto(127)[2].tolist()
    total = 0.0
    for r in range(1, 128):
        lz = math.log(zeta(r * s).value)
        if r > 1 and abs(lz) < 1e-19:
            break
        if mu[r]:
            total += mu[r] / r * lz
    return total


def euler_product_C4(prime_limit: int) -> tuple[float, float]:
    """(23/150) zeta(5) times the Euler product over p <= prime_limit of

        (1 + 1/p + 2/p^2 + 2/p^3 + 1/p^4 + 1/p^5)(1 - 1/p),

    returned with a certified absolute tail bound.

    The local factor equals (1 + p^-2)(1 - p^-4) exactly, so
    log(tail) = sum_{p > P} [log(1 + p^-2) + log(1 - p^-4)]; the dominant
    prime-zeta term sum_{p>P} p^-2 is added back, which stabilizes the value
    to ~1e-11 for any P >= 2 and lets the tail bound certify 8 decimals.
    """
    if prime_limit < 0:
        raise ValueError("prime_limit must be >= 0")
    z5 = zeta(5.0)
    ps = primes_up_to(prime_limit).astype(np.float64)
    inv = 1.0 / ps
    local = (1.0 + inv * (1.0 + inv * (2.0 + inv * (2.0 + inv * (1.0 + inv))))) * (1.0 - inv)
    value = (23.0 / 150.0) * z5.value * float(np.prod(local))

    zeta4_minus_1 = zeta(4.0).value - 1.0
    if prime_limit >= 2:
        # |sum_{k>=2} a_k sum_{p>P} p^-2k| <= 2 sum_{n>P} n^-4
        higher_order = 2.0 * (prime_limit**-3.0 / 3.0 + prime_limit**-4.0)
    else:
        higher_order = 2.0 * zeta4_minus_1

    value *= math.exp(prime_zeta(2.0) - float(np.sum(1.0 / (ps * ps))))
    # residual uncertainty: omitted k >= 2 terms plus an evaluation budget
    eval_budget = 3e-11
    tail_bound = abs(value) * math.expm1(higher_order + eval_budget)
    return value, tail_bound


def _h(s: float, prime_limit: int, ps) -> float:
    """16 (s-1)^2 zeta(s) zeta((s+1)/2) G(s, (5-s)/4) / ((5-s)(9-s) s (s+1)),
    written through (sigma-1) zeta(sigma) so s = 1 is a regular point;
    ps holds the primes up to prime_limit, as an array or as the
    dirichlet._OddFactors built from them."""
    g = _g_value(s, (5.0 - s) / 4.0, prime_limit, ps)[0]
    return (
        32.0
        * zeta_star(s)
        * zeta_star((s + 1.0) / 2.0)
        * g
        / ((5.0 - s) * (9.0 - s) * s * (s + 1.0))
    )


def p_coefficients(
    prime_limit: int, rel_tolerance: float = 1e-5
) -> ResiduePolynomial:
    """Residue polynomial coefficients: c1 = h(1), c0 = h'(1).

    h'(1) uses Richardson-extrapolated central differences at step sizes
    1e-3 and 1e-4; if the two extrapolations disagree beyond rel_tolerance
    (relative), the differentiation is reported as unstable.  c0_error is
    their spread plus 1e-9; it does not bound the Euler-product truncation.

    G is evaluated at nine points, (1, 1) and the eight on w = (5 - s)/4,
    over one sieve and one dirichlet._OddFactors: 21 float pows over the
    odd primes in all, p^3.0, p^3 and p^-(s+4w) once (s + 4w is 5.0 at
    every point) and two per point, where nine g_value calls take 45.
    """
    if prime_limit < 10**3:
        raise ValueError("prime_limit must be >= 1000 for stable coefficients")
    ps = _OddFactors(primes_up_to(prime_limit))
    g11, g11_tail = _g_value(1.0, 1.0, prime_limit, ps)
    c1 = g11 / 2.0
    c1_error = g11_tail / 2.0 + 1e-12

    def central(eps: float) -> float:
        return (_h(1.0 + eps, prime_limit, ps) - _h(1.0 - eps, prime_limit, ps)) / (2.0 * eps)

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


# ----------------------------------------------------------------------
# main terms
# ----------------------------------------------------------------------


def s_main_term(x: float, y: float, P: ResiduePolynomial) -> float:
    """Predicted S(x, y) = x y (4 P(psi) + (3/2) P'(psi)), psi = log x - log(y)/4.

    Valid in the theorem range 10 <= x <= y <= x^3 (enforced).
    """
    if not (x >= 10 and x <= y <= x**3):
        raise DomainError(f"s_main_term needs 10 <= x <= y <= x^3, got ({x}, {y})")
    psi = math.log(x) - 0.25 * math.log(y)
    return x * y * (4.0 * (P.c1 * psi + P.c0) + 1.5 * P.c1) * RESIDUE_JACOBIAN


def t_main_term(B: float, P: ResiduePolynomial) -> float:
    """Predicted T(B) = (2/5) c1 B^3 log B (asymptotic regime is B >= 10)."""
    if B <= 1:
        raise DomainError("t_main_term needs B > 1")
    return 0.4 * P.c1 * B**3 * math.log(B) * RESIDUE_JACOBIAN


def n_star_main_term(B: float, P: ResiduePolynomial, variant: str = "chain") -> float:
    """Predicted N*(B) = C4star * c1 * B^3 log B for the chosen constant branch."""
    if B <= 1:
        raise DomainError("n_star_main_term needs B > 1")
    return NSTAR_VARIANTS[variant] * P.c1 * B**3 * math.log(B) * RESIDUE_JACOBIAN


def n_u_main_term(B: float, P: ResiduePolynomial, variant: str = "chain") -> float:
    """Predicted N_U(B): the N* constant divided by zeta(3)."""
    return n_star_main_term(B, P, variant) / zeta(3.0).value


# ----------------------------------------------------------------------
# convergence tables
# ----------------------------------------------------------------------

_TABLE_KINDS = ("S", "T", "N_star", "N_u")


def convergence_table(
    kind: str,
    bounds,
    tables: QTables,
    P: ResiduePolynomial,
    variant: str = "chain",
) -> list[CountRecord]:
    """One CountRecord per bound: exact count, predicted main term, ratio, timing.

    kind S is evaluated on the diagonal (x, y) = (B, B^2).  Bounds must be
    ascending, and their q-tables must fit the budget of tables.
    """
    if kind not in _TABLE_KINDS:
        raise ValueError(f"kind must be one of {_TABLE_KINDS}")
    bounds = list(bounds)
    if bounds != sorted(bounds):
        raise ValueError("bounds must be ascending")
    records = []
    for B in bounds:
        start = time.perf_counter()
        if kind == "S":
            exact = s_exact(B, B * B, tables)
        elif kind == "T":
            exact = t_exact(B, tables)
        elif kind == "N_star":
            exact = n_star(B, tables)
        else:
            exact = n_u(B, tables)
        elapsed = time.perf_counter() - start

        predicted = None
        if B > 1:
            logB = math.log(B)
            if kind == "S":
                psi = 0.5 * logB
                predicted = B**3 * (4.0 * (P.c1 * psi + P.c0) + 1.5 * P.c1) * RESIDUE_JACOBIAN
            elif kind == "T":
                predicted = t_main_term(B, P)
            elif kind == "N_star":
                predicted = n_star_main_term(B, P, variant)
            else:
                predicted = n_u_main_term(B, P, variant)
        ratio = exact / predicted if predicted and predicted > 0 else None
        records.append(CountRecord(kind, B, exact, predicted, ratio, elapsed))
    return records
