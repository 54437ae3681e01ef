"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavy shared computations (the million-bound counts)
are computed once in fixtures and reused.
"""

import json
import math
import multiprocessing
import random
import subprocess
import sys
import time

import mpmath
import pytest

from qpc import (
    NSTAR_VARIANTS,
    RESIDUE_JACOBIAN,
    brute_force_primitive_curve,
    brute_force_star,
    build_spf_sieve,
    euler_product_C4,
    formal_identity_1,
    formal_identity_2,
    global_series_check,
    local_factor_closed_form,
    local_factor_definition,
    n_star,
    n_star_by_divisors,
    n_star_main_term,
    n_u,
    n_u_main_term,
    p_coefficients,
    partition_witness,
    primes_up_to,
    q_tables,
    s_exact,
    s_main_term,
    t_exact,
    t_main_term,
    telescoping_check,
    zeta,
)
from test_counting import naive_inner_terms, naive_s, naive_t

mpmath.mp.dps = 40


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ----------------------------------------------------------------------
# shared heavy values
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def nstar_1e6_timed(tables):
    start = time.perf_counter()
    value = n_star(10**6, tables)
    elapsed = time.perf_counter() - start
    return value, elapsed


@pytest.fixture(scope="module")
def poly_1e6():
    return p_coefficients()


_NAIVE_STATE = {}


def _naive_state():
    """The q-tables and the naive terms of every n <= 500, built once: the
    test body builds them before the fork, so the pool's workers inherit
    them, and reuses them for its T loop.  S(x, y) reads q <= x^2, so
    tables to 500^2 cover every x <= 500."""
    if not _NAIVE_STATE:
        sieve = build_spf_sieve(500)
        _NAIVE_STATE["tables"] = q_tables(500 * 500)
        _NAIVE_STATE["terms"] = {n: naive_inner_terms(n, sieve) for n in range(1, 501)}
    return _NAIVE_STATE["tables"], _NAIVE_STATE["terms"]


def _naive_vs_fast_one_y(y):
    tables, terms = _naive_state()
    prefix = 0
    for x in range(1, 501):
        prefix += sum(w for d, w in terms[x] if d <= y)
        if s_exact(x, y, tables) != prefix:
            return (x, y)
    return None


def test_criterion_1_oracle_equivalence(tables):
    start = time.perf_counter()
    spots = {1: 32, 2: 128, 3: 544}
    prim_spots = {2: 96, 3: 480}
    primitive = brute_force_primitive_curve(40)
    for B in range(0, 41):
        ns = n_star(B, tables)
        nu = n_u(B, tables)
        assert ns == brute_force_star(B), f"n_star mismatch at B={B}"
        assert nu == primitive[B], f"n_u mismatch at B={B}"
        if B in spots:
            assert ns == spots[B]
        if B in prim_spots:
            assert nu == prim_spots[B]
    elapsed = time.perf_counter() - start
    report(1, elapsed < 120, f"B in [0,40] exact, single-threaded, {elapsed:.1f}s")


def test_criterion_2_partition_identity(tables):
    start = time.perf_counter()
    rng = random.Random(20260808)
    samples = sorted(rng.sample(range(1, 10**4 + 1), 200))
    # N* at every sampled bound from one n-ordered pass
    curve = n_star_by_divisors(max(samples))
    for B in samples:
        w = partition_witness(B, tables, curve)
        assert w.n_star == 32 * (w.s_part - w.t_part), f"partition identity failed at B={B}"
    elapsed = time.perf_counter() - start
    report(2, elapsed < 60, f"200 sampled B <= 1e4, {elapsed:.1f}s")


def test_criterion_3_definition_vs_fast_path():
    start = time.perf_counter()
    rng = random.Random(31337)
    ys = [rng.randint(1, 500**4) for _ in range(20)]
    tables, terms = _naive_state()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(4) as pool:
        failures = [f for f in pool.map(_naive_vs_fast_one_y, ys) if f]
    assert not failures, f"s_exact disagreed with the naive double loop at {failures}"

    for B in range(1, 501):
        assert t_exact(B, tables) == naive_t(B, terms), f"t mismatch at B={B}"
    elapsed = time.perf_counter() - start
    report(3, True, f"all x,B <= 500, 20 random y, {elapsed:.1f}s")


def test_criterion_4_local_factor_suite():
    start = time.perf_counter()
    for p in [int(q) for q in primes_up_to(100)]:
        assert local_factor_definition(p, 30) == local_factor_closed_form(p, 30), p
    assert formal_identity_1()
    assert formal_identity_2()
    elapsed = time.perf_counter() - start
    report(4, elapsed < 30, f"p <= 100 at degree 30 + both identities, {elapsed:.1f}s")


def test_criterion_5_global_factorization():
    res1, res2 = global_series_check([(6.0, 2.0), (7.0, 3.0)], 10**4, 10**4)
    report(5, res1 < 1e-8 and res2 < 1e-8, f"residuals {res1:.2e}, {res2:.2e}")


def test_criterion_6_constant_two_routes(poly_1e6):
    v5, _ = euler_product_C4(10**5)
    v6, tail6 = euler_product_C4(10**6)
    _, tail5 = euler_product_C4(10**5)
    stability = abs(v5 - v6)
    # independent high-precision oracle: the local factor is
    # (1+p^-2)(1-p^-4), so the product closes to 207 zeta(5) / pi^6
    oracle = float(207 * mpmath.zeta(5) / mpmath.pi**6)
    ok = (
        stability < 1e-8
        and tail6 < 0.5e-8
        and tail5 < 0.5e-8
        and abs(v6 - oracle) < 1e-9
        and abs(poly_1e6.c1 - v6) < 1e-6
    )
    report(
        6,
        ok,
        f"|v(1e5)-v(1e6)|={stability:.1e}, tail={tail6:.1e}, "
        f"|v-oracle|={abs(v6 - oracle):.1e}, |c1-v|={abs(poly_1e6.c1 - v6):.1e}",
    )


def test_criterion_7a_t_ratio_trend(tables, poly_1e6):
    r3 = abs(t_exact(10**3, tables) / t_main_term(10**3, poly_1e6) - 1)
    r5 = abs(t_exact(10**5, tables) / t_main_term(10**5, poly_1e6) - 1)
    report("7a", r5 < r3, f"|ratio-1|: {r3:.4f} at 1e3 -> {r5:.4f} at 1e5")


def test_criterion_7b_s_ratio_trend(tables, poly_1e6):
    # along y = x^(5/2)
    r2 = abs(
        s_exact(10**2, 10**5, tables)
        / s_main_term(10**2, 10**5, poly_1e6)
        - 1
    )
    r4 = abs(
        s_exact(10**4, 10**10, tables)
        / s_main_term(10**4, 10**10, poly_1e6)
        - 1
    )
    report("7b", r4 < r2, f"|ratio-1|: {r2:.4f} at x=1e2 -> {r4:.4f} at x=1e4")


def test_criterion_7c_mobius_ratio(tables, nstar_1e6_timed):
    inv_zeta3 = 1.0 / zeta(3.0).value
    ratio_small = n_u(10**3, tables) / n_star(10**3, tables)
    nu6 = n_u(10**6, tables)
    ratio_big = nu6 / nstar_1e6_timed[0]
    gap_big = abs(ratio_big - inv_zeta3)
    gap_small = abs(ratio_small - inv_zeta3)
    # N_U(10^6) as summed by the Mobius form sum_j mu(j) N*(10^6/j)
    pinned = nu6 == 38458647686959339872
    report(
        "7c",
        pinned and gap_big < 0.05 and gap_big < gap_small,
        f"n_u/n_star: {ratio_small:.4f} at 1e3 -> {ratio_big:.4f} at 1e6, "
        f"1/zeta(3)={inv_zeta3:.4f}, N_U(1e6) pinned: {pinned}",
    )


def test_criterion_7d_lower_sandwich(tables):
    oks = []
    for B in (10**2, 10**3, 10**4):
        rep = telescoping_check(B, tables)
        oks.append(rep.lower_ok and rep.partition_ok)
    report("7d", all(oks), "exact lower bound at B in {1e2, 1e3, 1e4}")


def test_criterion_8_constant_discrepancy_report(tables, poly_1e6):
    # the slope of count/B^3 against log B over [1e5, 1e6], exact counts
    # against the package's own main terms; S runs on the diagonal y = B^2
    lo, hi = 10**5, 10**6

    def slope(f):
        return (f(hi) / hi**3 - f(lo) / lo**3) / math.log(hi / lo)

    kinds = {
        "N*": (lambda B: n_star(B, tables), lambda B: n_star_main_term(B, poly_1e6)),
        "N_U": (lambda B: n_u(B, tables), lambda B: n_u_main_term(B, poly_1e6)),
        "S": (lambda B: s_exact(B, B * B, tables), lambda B: s_main_term(B, B * B, poly_1e6)),
        "T": (lambda B: t_exact(B, tables), lambda B: t_main_term(B, poly_1e6)),
    }
    measured = {name: slope(count) for name, (count, _) in kinds.items()}
    gaps = {name: measured[name] / slope(main_term) - 1 for name, (_, main_term) in kinds.items()}
    # the N* slope rules out the paper constant and the chain without the 1/4
    c1 = poly_1e6.c1
    paper = measured["N*"] / (NSTAR_VARIANTS["paper"] * c1 * RESIDUE_JACOBIAN) - 1
    bare = measured["N*"] / (NSTAR_VARIANTS["chain"] * c1) - 1
    # the CLI still emits both constants, in the ratio 4/3
    res = subprocess.run(
        [sys.executable, "-m", "qpc.cli", "constant", "--prime-limit", "100000",
         "--format", "json"],
        capture_output=True, text=True, timeout=300,
    )
    data = json.loads(res.stdout)
    emitted = (
        abs(data["variant_ratio_chain_over_paper"]["value"] - 4.0 / 3.0) < 1e-12
        and "C4star_paper" in data and "C4star_chain" in data
    )
    ok = all(abs(g) < 0.01 for g in gaps.values()) and abs(paper) > 0.2 and abs(bare) > 0.2
    detail = ", ".join(f"{name} {100 * g:+.2f} %" for name, g in gaps.items())
    report(8, ok and emitted, f"slopes vs main terms: {detail}; N* vs paper {100 * paper:+.1f} %, "
           f"vs chain without 1/4 {100 * bare:+.1f} %; constant rows emitted: {emitted}")


def test_criterion_9_performance(sieve_big, nstar_1e6_timed):
    value, elapsed = nstar_1e6_timed

    # oracle: the swapped (n, q) double sum as one plain loop over q, with
    # r4*(q^2) and kappa(q) = prod p^ceil(a/2) from each q's own factorization
    B = 10**6
    spf = sieve_big.spf
    total = 0
    isqrt = math.isqrt
    for q in range(1, B + 1):
        m = q
        r4s = 1
        kappa = 1
        while m > 1:
            p = int(spf[m])
            a = 0
            while m % p == 0:
                a += 1
                m //= p
            kappa *= p ** ((a + 1) // 2)
            r4s *= 3 if p == 2 else (p ** (2 * a + 1) - 1) // (p - 1)
        total += r4s * (isqrt(q * B) // kappa)
    swap_value = 32 * total

    ok = elapsed < 60 and value == swap_value
    report(
        9,
        ok,
        f"n_star(1e6)={value} in {elapsed:.1f}s, one process, "
        f"q-loop oracle match={value == swap_value}",
    )


def test_criterion_10_cli_golden(tmp_path):
    def run(*args, env=None):
        import os

        environ = dict(os.environ)
        if env:
            environ.update(env)
        return subprocess.run(
            [sys.executable, "-m", "qpc.cli", *args],
            capture_output=True, text=True, env=environ, timeout=600,
        )

    args = ("table", "--kind", "N_star", "--bounds", "10,100,1000", "--no-timing")
    outs = {
        run(*args, env={"QPC_THREADS": "1"}).stdout,
        run(*args, env={"QPC_THREADS": "1"}).stdout,
        run(*args, env={"QPC_THREADS": "6"}).stdout,
        run(*args, "--threads", "2").stdout,
    }
    csv_golden = len(outs) == 1

    jargs = args + ("--format", "json")
    j1 = run(*jargs, env={"QPC_THREADS": "2"})
    j2 = run(*jargs, env={"QPC_THREADS": "7"})
    json_golden = j1.stdout == j2.stdout and bool(json.loads(j1.stdout))

    codes_ok = (
        run("count", "--kind", "star", "--B", "3").returncode == 0
        and run("count", "--kind", "bogus", "--B", "3").returncode == 1
        and run("count", "--kind", "star", "--B", "1000000000").returncode == 2
        and run("verify", "--suite", "global", "--tolerance", "1e-30").returncode == 3
    )
    report(10, csv_golden and json_golden and codes_ok,
           f"csv_golden={csv_golden}, json_golden={json_golden}, exit_codes={codes_ok}")
