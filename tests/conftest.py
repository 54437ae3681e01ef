import pytest

from qpc import QTables, build_spf_sieve


@pytest.fixture(scope="session")
def tables():
    """One set of q-tables for the session's counts, grown as they need."""
    return QTables()


@pytest.fixture(scope="session")
def sieve_small():
    return build_spf_sieve(10**4)


@pytest.fixture(scope="session")
def sieve_mid():
    return build_spf_sieve(10**5)


@pytest.fixture(scope="session")
def sieve_big():
    return build_spf_sieve(10**6)


def divisors_from_factors(factors):
    """All divisors of prod p^e, from (p, e) pairs."""
    divs = [1]
    for p, e in factors:
        pk = 1
        new = []
        for _ in range(e + 1):
            new.extend(d * pk for d in divs)
            pk *= p
        divs = new
    return divs


def r4_star_divisor_oracle(d_factors):
    """r4*(d) the slow way: literally sum divisors not divisible by 4."""
    return sum(l for l in divisors_from_factors(d_factors) if l % 4 != 0)


def xw_rows(f):
    """The X-degree rows of a series in X, Y, as the local-factor binomial
    steps take them: row nu maps each Y-exponent to its coefficient of X^nu."""
    rows = [{} for _ in range(f.max_degree + 1)]
    for (nu, mu), v in f.coeffs.items():
        rows[nu][mu] = v
    return rows
