"""Independent references for the benchmark's checks.

Nothing here imports qpc.  The exact counts use the swapped order of
summation: a divisor q of n^2 exists exactly when kappa(q) | n, where
kappa(q) = prod p^ceil(a/2), so every count becomes one pass over q with
the weights r4*(q^2), kappa(q) and mu(k) from this module's own sieve.
The program sums over n and enumerates the divisors of n^2 instead.

    N*(b)/32 = sum_{q <= b} r4*(q^2) floor(isqrt(floor(q b)) / kappa(q))
    N_U(B)   = sum_{k <= B} mu(k) N*(B/k)
    T(B)     = sum_{q <= B} r4*(q^2) (floor(B/kappa) - floor(isqrt(q B)/kappa))
    S(B,B^2) = sum_{q <= B} r4*(q^2) floor(B/kappa)
"""

from __future__ import annotations

import math

SIGN_FACTOR = 32


class Tables:
    """r4*(q^2), kappa(q) and mu(q) for 1 <= q <= limit, as Python int lists."""

    def __init__(self, limit: int):
        limit = max(limit, 1)
        self.limit = limit
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for j in range(p * p, limit + 1, p):
                    if spf[j] == j:
                        spf[j] = p
        r4s = [0, 1] + [0] * (limit - 1)
        kappa = [0, 1] + [0] * (limit - 1)
        mu = [0, 1] + [0] * (limit - 1)
        for q in range(2, limit + 1):
            p = spf[q]
            m = q // p
            a = 1
            while m % p == 0:
                m //= p
                a += 1
            # r4*(p^(2a)): divisors of p^(2a) not divisible by 4
            local = 3 if p == 2 else (p ** (2 * a + 1) - 1) // (p - 1)
            r4s[q] = r4s[m] * local
            kappa[q] = kappa[m] * p ** ((a + 1) // 2)
            mu[q] = -mu[m] if a == 1 else 0
        self.r4s = r4s
        self.kappa = kappa
        self.mu = mu

    def _need(self, n: int) -> None:
        if n > self.limit:
            raise ValueError(f"tables cover q <= {self.limit}, need {n}")

    def n_star(self, num: int, den: int = 1) -> int:
        """N*(num/den), exact."""
        top = num // den
        self._need(top)
        r4s, kappa = self.r4s, self.kappa
        isqrt = math.isqrt
        total = 0
        for q in range(1, top + 1):
            total += r4s[q] * (isqrt(q * num // den) // kappa[q])
        return SIGN_FACTOR * total

    def n_u(self, B: int) -> int:
        """N_U(B) by Mobius inversion over the exact rational bounds B/k."""
        self._need(B)
        mu = self.mu
        return sum(mu[k] * self.n_star(B, k) for k in range(1, B + 1) if mu[k])

    def t(self, B: int) -> int:
        self._need(B)
        r4s, kappa = self.r4s, self.kappa
        isqrt = math.isqrt
        return sum(
            r4s[q] * (B // kappa[q] - isqrt(q * B) // kappa[q]) for q in range(1, B + 1)
        )

    def s(self, B: int) -> int:
        """S(B, B^2)."""
        self._need(B)
        r4s, kappa = self.r4s, self.kappa
        return sum(r4s[q] * (B // kappa[q]) for q in range(1, B + 1))


def c4_closed_form(digits: int = 40) -> float:
    """C4 = (23/150) zeta(5) zeta(2) / zeta(4)^2.

    The local factor (1 + 1/p + 2/p^2 + 2/p^3 + 1/p^4 + 1/p^5)(1 - 1/p)
    equals (1 + p^-2)(1 - p^-4) = (1 - p^-4)^2 / (1 - p^-2), whose Euler
    product is zeta(2) / zeta(4)^2.
    """
    import mpmath

    with mpmath.workdps(digits):
        value = mpmath.mpf(23) / 150 * mpmath.zeta(5) * mpmath.zeta(2) / mpmath.zeta(4) ** 2
        return float(value)
