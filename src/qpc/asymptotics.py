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
    with h(1) = G(1,1)/2, from a prime-zeta expansion of log G that needs
    no prime limit.

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

from .arith import primes_up_to, q_tables
from .counting import CountRecord, n_star, n_u, s_exact, t_exact
from .dirichlet import zeta, zeta_derivative
from .errors import DomainError

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
    """P(t) = c1 * t + c0 from the double pole at s = 1, with error bounds.

    p_coefficients bounds every error it knows of: the truncated series, the
    zeta evaluations and float rounding, so c1_error and c0_error bound the
    distance to the true constants.
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


# mu(r) for r <= 127 from the q-tables, taken once: prime_zeta reads all of
# it, p_coefficients r <= _TERMS
_MU = q_tables(127)[2].tolist()


def prime_zeta(s: float) -> float:
    """P(s) = sum_p p^-s for s > 1, via sum_r mu(r)/r * log zeta(r s)."""
    if s <= 1.0:
        raise DomainError("prime_zeta requires s > 1")
    total = 0.0
    for r in range(1, 128):
        lz = math.log(zeta(r * s).value)
        if r > 1 and abs(lz) < 1e-19:
            break
        if _MU[r]:
            total += _MU[r] / r * lz
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


# p_coefficients takes the odd primes p <= _EXPLICIT one at a time and the
# primes p > _EXPLICIT through prime-zeta series, to the terms in p^-_TERMS.
_EXPLICIT = 100
_TERMS = 10
# allowance for float rounding, per term, relative to the term's size
_ROUND = 32 * 2.0**-53
_EULER_GAMMA = 0.5772156649015329
_PRIMES = primes_up_to(_EXPLICIT).tolist()


def _log_zeta_tail(sigma: int, primes: list[int]) -> tuple[float, float, float, float]:
    """log zeta_N(sigma), zeta_N(sigma) = prod (1 - p^-sigma)^-1 over the primes
    p not in primes, its sigma-derivative, and error bounds on both: log
    zeta(sigma) and zeta'/zeta(sigma) less the Euler factors of primes."""
    z, dz = zeta(float(sigma)), zeta_derivative(float(sigma))
    u = [float(p) ** -sigma for p in primes]
    logs = [math.log(z.value)] + [math.log1p(-x) for x in u]
    dlogs = [dz.value / z.value] + [math.log(p) * x / (1.0 - x) for p, x in zip(primes, u)]
    low = z.value - z.error_bound
    err = z.error_bound / low + _ROUND * sum(map(abs, logs))
    derr = (dz.error_bound + abs(dlogs[0]) * z.error_bound) / low + _ROUND * sum(map(abs, dlogs))
    return math.fsum(logs), math.fsum(dlogs), err, derr


def p_coefficients() -> ResiduePolynomial:
    """Residue polynomial coefficients c1 = h(1), c0 = h'(1), with true
    error bounds and no prime limit.

    On the residue line w = (5 - s)/4 put X = p^-(s+1)/2 and V = 1/p; then
    G_p = (1 + X + XV + XV^2 + V^2 + V^3 + V^4 + XV^4)(1 - X)/(1 - V^5), and
    c1 = G(1)/2, c0 = c1 (3 gamma/2 + (log G)'(1) - 9/8).  At s = 1, X = V:

      * log G_p(1) = log((1 + V^2)(1 - V^4)/(1 - V^5)) = sum_k C_k V^k, with
        C_k = [2|k] (-1)^(k/2+1) 2/k - [4|k] 4/k + [5|k] 5/k, |C_k| <= 1.5;
      * d/ds log G_p at s = 1 is -(1/2) log p R(1/p) for
        R(V) = -V^2 (1 + 2V + 3V^2 + 2V^4)/((1 - V^4)(1 + V^2)) = sum r_k V^k,
        integers with |r_k| <= (k + 3)/2.

    G_2 and the odd p <= N = _EXPLICIT are taken one by one; the primes
    beyond give sum_k C_k P_N(k) and (1/2) sum_k r_k P_N'(k), where
    P_N(k) = sum_{p > N} p^-k = sum_r mu(r)/r log zeta_N(r k) (Cohen 1998;
    Ettahri, Ramare and Surel 2021), summed over r k <= _TERMS.  The error
    bounds add the omitted r k > _TERMS, each zeta's error bound and an
    allowance of _ROUND per term for float rounding.  Nothing here sieves
    or evaluates G over a prime list.
    """
    # k C_k, an integer; and r_k from R (1 + V^2 - V^4 - V^6) = -V^2 - 2V^3 - 3V^4 - 2V^6
    kc = [(k % 2 == 0) * (-1) ** (k // 2 + 1) * 2 - (k % 4 == 0) * 4 + (k % 5 == 0) * 5
          for k in range(_TERMS + 1)]
    r_coef = {}
    for k in range(_TERMS + 1):
        r_coef[k] = {2: -1, 3: -2, 4: -3, 6: -2}.get(k, 0) - r_coef.get(k - 2, 0)
        r_coef[k] += r_coef.get(k - 4, 0) + r_coef.get(k - 6, 0)
    # the terms of log G(1) and of (log G)'(1), and the sums of their error
    # bounds: G_2(1) = 23/62 with (log G_2)'(1) = (17/46) log 2, then the odd p <= N
    log_g, dlog_g = [math.log(23.0 / 62.0)], [17.0 / 46.0 * math.log(2.0)]
    err = derr = 0.0
    for p in _PRIMES[1:]:
        v = 1.0 / p
        log_g.append(math.log1p(v * v) + math.log1p(-(v**4)) - math.log1p(-(v**5)))
        r = -v * v * (1 + v * (2 + v * (3 + 2 * v * v))) / ((1 - v**4) * (1 + v * v))
        dlog_g.append(-0.5 * math.log(p) * r)
    # p > N, gathered by sigma = r k: C_k mu(r)/r = k C_k mu(r)/sigma, and r_k mu(r)/2
    for sigma in range(2, _TERMS + 1):
        ks = [k for k in range(2, sigma + 1) if sigma % k == 0]
        w = sum(kc[k] * _MU[sigma // k] for k in ks) / sigma
        dw = sum(r_coef[k] * _MU[sigma // k] for k in ks) / 2
        value, dvalue, e, de = _log_zeta_tail(sigma, _PRIMES)
        log_g.append(w * value)
        dlog_g.append(dw * dvalue)
        err += abs(w) * e
        derr += abs(dw) * de
    # the omitted r k = sigma > _TERMS: at most sigma pairs each, with
    # |C_k| <= 1.5 and |r_k|/2 <= (sigma + 3)/4; |log zeta_N(sigma)| and its
    # derivative are at most sum_{n > N} log(n) n^-sigma / (1 - N^-sigma),
    # below the bound taken here, which falls by 1/N per sigma: the sum over
    # sigma > _TERMS is at most twice its first term
    n, s = float(_EXPLICIT), _TERMS + 1
    bound = n ** (1 - s) * (math.log(n) / (s - 1) + (s - 1) ** -2) / (1 - n**-s)
    err += 3 * s * bound
    derr += s * (s + 3) / 2 * bound
    lg, dlg = math.fsum(log_g), math.fsum(dlog_g)
    lg_err = err + _ROUND * (sum(map(abs, log_g)) + abs(lg))
    dlg_err = derr + _ROUND * (sum(map(abs, dlog_g)) + abs(dlg))
    c1 = math.exp(lg) / 2.0
    c1_error = c1 * (math.expm1(lg_err) + _ROUND)
    d = 1.5 * _EULER_GAMMA + dlg - 1.125
    c0 = c1 * d
    d_error = dlg_err + _ROUND * (1.5 * _EULER_GAMMA + abs(dlg) + 1.125)
    c0_error = abs(d) * c1_error + (c1 + c1_error) * d_error + _ROUND * abs(c0)
    return ResiduePolynomial(c1, c0, c1_error, c0_error)


# ----------------------------------------------------------------------
# main terms
# ----------------------------------------------------------------------


def s_main_term(x: float, y: float, P: ResiduePolynomial) -> float:
    """Predicted S(x, y) = x y (4 P(psi) + (3/2) P'(psi)), psi = log x - log(y)/4.

    Defined on 10 <= x <= y <= x^3 (enforced), but it matches exact counts
    only for y well above x^2.  Exact S / s_main_term at x = 10^6 is 0.443
    at y = x, 0.715 at y = x^1.5, 1.051 at y = x^2 and 1.000 at y = x^2.5:
    for y <= x^2 every q <= sqrt(y) has kappa(q) <= x, and S takes another
    main term.
    """
    if not (x >= 10 and x <= y <= x**3):
        raise DomainError(f"s_main_term needs 10 <= x <= y <= x^3, got ({x}, {y})")
    return _s_prediction(x * y, math.log(x) - 0.25 * math.log(y), P)


def _s_prediction(xy, psi: float, P: ResiduePolynomial) -> float:
    """x y (4 P(psi) + (3/2) P'(psi)), with the residue Jacobian."""
    return xy * (4.0 * (P.c1 * psi + P.c0) + 1.5 * P.c1) * RESIDUE_JACOBIAN


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
    tables: tuple,
    P: ResiduePolynomial,
    variant: str = "chain",
) -> list[CountRecord]:
    """One CountRecord per bound: exact count, predicted main term, ratio, timing.

    kind S is evaluated on the diagonal (x, y) = (B, B^2).  Bounds must be
    ascending, and tables are the (g, k, mu) of arith.q_tables up to at
    least the largest.
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
            if kind == "S":
                predicted = _s_prediction(B**3, 0.5 * math.log(B), P)
            elif kind == "T":
                predicted = t_main_term(B, P)
            elif kind == "N_star":
                predicted = n_star_main_term(B, P, variant)
            else:
                predicted = n_u_main_term(B, P, variant)
        ratio = exact / predicted if predicted and predicted > 0 else None
        records.append(CountRecord(kind, B, exact, predicted, ratio, elapsed))
    return records
