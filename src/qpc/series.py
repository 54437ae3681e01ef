"""Exact multivariate polynomials and truncated power series.

Coefficients are Python ints or Fractions (never floats).  A series is a
dict from exponent tuples to coefficients, plus a truncation rule: every
term of total degree above max_degree is dropped.  max_degree None means
no truncation, i.e. an exact polynomial.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from fractions import Fraction


class TruncSeries:
    __slots__ = ("nvars", "max_degree", "coeffs")

    def __init__(self, nvars, coeffs=None, max_degree=None):
        self.nvars = nvars
        self.max_degree = max_degree
        top = math.inf if max_degree is None else max_degree
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c and sum(e) <= top}

    # -- construction helpers ------------------------------------------

    @classmethod
    def constant(cls, value, nvars, max_degree=None):
        out = cls(nvars, None, max_degree)
        if value:
            out.coeffs[(0,) * nvars] = value
        return out

    @classmethod
    def monomial(cls, coef, exps, max_degree=None):
        return cls(len(exps), {tuple(exps): coef}, max_degree)

    def _like(self) -> "TruncSeries":
        return TruncSeries(self.nvars, None, self.max_degree)

    def _compatible(self, other: "TruncSeries") -> None:
        if self.nvars != other.nvars or self.max_degree != other.max_degree:
            raise ValueError("series have different variable/truncation profiles")

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.nvars, self.max_degree)
        self._compatible(other)
        out = self._like()
        out.coeffs = dict(self.coeffs)
        for exps, c in other.coeffs.items():
            new = out.coeffs.get(exps, 0) + c
            if new:
                out.coeffs[exps] = new
            else:
                out.coeffs.pop(exps, None)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = self._like()
        out.coeffs = {e: -c for e, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.nvars, self.max_degree)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = self._like()
            if other:
                out.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return out
        self._compatible(other)
        out = self._like()
        acc = out.coeffs
        a_items = list(self.coeffs.items())
        b_items = list(other.coeffs.items())
        if len(a_items) > len(b_items):
            a_items, b_items = b_items, a_items
        # each term of the smaller operand meets only the terms of the larger,
        # sorted by total degree, whose products stay within the truncation
        top = math.inf if self.max_degree is None else self.max_degree
        add = operator.add
        b_items.sort(key=lambda t: sum(t[0]))
        b_degs = [sum(e) for e, _ in b_items]
        for e1, c1 in a_items:
            for e2, c2 in b_items[: bisect_right(b_degs, top - sum(e1))]:
                exps = tuple(map(add, e1, e2))
                new = acc.get(exps, 0) + c1 * c2
                if new:
                    acc[exps] = new
                else:
                    del acc[exps]
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported; use inverse()")
        out = TruncSeries.constant(1, self.nvars, self.max_degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse up to the truncation degree.

        Requires a nonzero constant term c0 and truncation enabled.  The
        inverse b of a = self solves a b = 1 term by term: b_0 = 1/c0 and,
        for e != 0, b_e = -(1/c0) sum_{t != 0} a_t b_(e-t).  The b_e are
        finished in ascending total degree, and each finished b_e is pushed
        at once, as a_t b_e, into the sum of every e + t within the
        truncation, so no series product is taken.
        """
        if self.max_degree is None:
            raise ValueError("inverse is only defined for truncated series")
        zero = (0,) * self.nvars
        c0 = self.coeffs.get(zero, 0)
        if not c0:
            raise ZeroDivisionError("series has zero constant term")
        add = operator.add
        terms = [(sum(exps), exps, c) for exps, c in self.coeffs.items() if exps != zero]
        terms.sort(key=operator.itemgetter(0))
        inv_c0 = Fraction(1, c0) if not (c0 == 1 or c0 == -1) else (1 if c0 == 1 else -1)
        out = self._like()
        top = self.max_degree
        # pending[d][e] = sum_t a_t b_(e-t) so far, for e of total degree
        # d; -1 at e = 0 gives b_0 = 1/c0
        pending = {0: {zero: -1}}
        while pending:
            d = min(pending)
            for e, acc in pending.pop(d).items():
                if not acc:
                    continue
                b = -acc * inv_c0
                out.coeffs[e] = b
                for degree, exps, c in terms:
                    if d + degree > top:
                        break
                    sums = pending.setdefault(d + degree, {})
                    e2 = tuple(map(add, e, exps))
                    sums[e2] = sums.get(e2, 0) + c * b
        return out

    # -- queries ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = TruncSeries.constant(other, self.nvars, self.max_degree)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        # no operation stores a zero, and an int equals, and hashes like,
        # the Fraction of the same value
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        n = len(self.coeffs)
        return f"TruncSeries(nvars={self.nvars}, terms={n}, max_degree={self.max_degree})"


class RationalFunction:
    """Quotient of exact polynomials; equality by cross-multiplication.

    Just enough arithmetic to assemble closed forms of geometric series and
    compare them exactly, with no normalization or gcd computation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: TruncSeries, den: TruncSeries):
        if den.max_degree is not None or num.max_degree is not None:
            raise ValueError("rational functions are built from exact polynomials")
        if not den.coeffs:
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, poly: TruncSeries) -> "RationalFunction":
        return cls(poly, TruncSeries.constant(1, poly.nvars))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if not other.num.coeffs:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den
