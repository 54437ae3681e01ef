import random
from fractions import Fraction

import pytest

from qpc import RationalFunction, TruncSeries


def random_series(rng, nvars=2, max_degree=8, weights=None, unit=False):
    s = TruncSeries(nvars, None, max_degree, weights)
    coeffs = {}
    for _ in range(rng.randint(3, 10)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        coeffs[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    if unit:
        coeffs[(0,) * nvars] = Fraction(rng.choice([1, -1, 2, 3]))
        # keep the inverse well-defined under weighted truncation
        coeffs = {
            e: c
            for e, c in coeffs.items()
            if e == (0,) * nvars or sum(w * x for w, x in zip(s.weights, e)) >= 1
        }
    return TruncSeries(nvars, coeffs, max_degree, weights)


def test_constant_and_monomial():
    one = TruncSeries.constant(1, 2, max_degree=5)
    xy = TruncSeries.monomial(3, (1, 1), max_degree=5)
    assert (one + xy).coefficient((1, 1)) == 3
    assert (one + xy).coefficient((0, 0)) == 1


def test_truncation_drops_high_degree():
    x = TruncSeries.monomial(1, (1, 0), max_degree=3)
    assert (x**4).coeffs == {}
    assert (x**3).coefficient((3, 0)) == 1


def test_weighted_truncation_ignores_second_variable():
    xy = TruncSeries.monomial(1, (1, 9), max_degree=2, weights=(1, 0))
    sq = xy * xy
    assert sq.coefficient((2, 18)) == 1
    assert (sq * xy).coeffs == {}


def test_geometric_inverse():
    deg = 10
    one = TruncSeries.constant(1, 1, max_degree=deg)
    x = TruncSeries.monomial(1, (1,), max_degree=deg)
    inv = (one - x).inverse()
    assert all(inv.coefficient((k,)) == 1 for k in range(deg + 1))
    assert (one - x) * inv == one


def test_inverse_requires_unit_and_truncation():
    x = TruncSeries.monomial(1, (1,), max_degree=4)
    with pytest.raises(ZeroDivisionError):
        x.inverse()
    poly = TruncSeries.monomial(1, (0,))
    with pytest.raises(ValueError):
        poly.inverse()  # exact polynomial, no truncation
    bad = TruncSeries(2, {(0, 0): 1, (0, 1): 1}, max_degree=4, weights=(1, 0))
    with pytest.raises(ValueError):
        bad.inverse()  # y has weighted degree 0: geometric expansion diverges


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(60):
        a = random_series(rng)
        b = random_series(rng)
        c = random_series(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == TruncSeries(2, None, 8)


def test_inverse_roundtrip_random():
    rng = random.Random(99)
    one = TruncSeries.constant(1, 2, max_degree=8)
    for _ in range(30):
        a = random_series(rng, unit=True)
        assert a * a.inverse() == one


def test_set_zero():
    s = TruncSeries(2, {(0, 0): 1, (1, 2): 5, (2, 0): 7}, max_degree=9)
    restricted = s.set_zero(1)
    assert restricted.coeffs == {(0, 0): 1, (2, 0): 7}


def test_int_coefficients_equal_and_hash_like_fractions():
    ints = TruncSeries(
        2, {(0, 0): 1, (1, 2): -5, (2, 0): 7, (3, 1): 0}, max_degree=3, weights=(1, 0)
    )
    fracs = TruncSeries(
        2, {e: Fraction(c) for e, c in ints.coeffs.items()}, max_degree=3, weights=(1, 0)
    )
    assert all(type(c) is int for c in ints.coeffs.values())
    assert all(type(c) is Fraction for c in fracs.coeffs.values())
    assert ints == fracs and fracs == ints
    assert hash(ints) == hash(fracs)
    assert len({ints, fracs}) == 1
    assert ints != fracs + Fraction(1, 2)


def test_scalar_arithmetic():
    x = TruncSeries.monomial(1, (1,), max_degree=3)
    assert (2 * x + 1) - 1 == x + x
    assert (x * Fraction(1, 2)).coefficient((1,)) == Fraction(1, 2)


def test_rational_function_equality():
    # (1 - x^2)/(1 - x) == (1 + x) as rational functions
    one = TruncSeries.constant(1, 1)
    x = TruncSeries.monomial(1, (1,))
    lhs = RationalFunction(one - x * x, one - x)
    rhs = RationalFunction.from_poly(one + x)
    assert lhs == rhs
    assert not (lhs == RationalFunction.from_poly(one))


def test_rational_function_arithmetic():
    one = TruncSeries.constant(1, 1)
    x = TruncSeries.monomial(1, (1,))
    a = RationalFunction(one, one - x)
    b = RationalFunction(x, one - x)
    assert a - b == RationalFunction.from_poly(one)
    assert a + b == RationalFunction(one + x, one - x)
    assert a / a == RationalFunction.from_poly(one)
    assert a * b == RationalFunction(x, (one - x) * (one - x))
