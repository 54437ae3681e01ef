"""Tests of the benchmark's own references and checks.

    python3 -m pytest -q qpcbench/test_bench.py
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import refs  # noqa: E402
import run  # noqa: E402
from qpc import brute_force_primitive, brute_force_star, euler_product_C4  # noqa: E402


@pytest.fixture(scope="module")
def tables():
    return refs.Tables(200)


def test_n_star_matches_brute_force(tables):
    for B in range(0, 61):
        assert tables.n_star(B) == brute_force_star(B), B


def test_n_u_matches_brute_force(tables):
    for B in range(0, 31):
        assert tables.n_u(B) == brute_force_primitive(B), B


def test_partition_identity(tables):
    for B in (1, 10, 97, 200):
        assert tables.n_star(B) == 32 * (tables.s(B) - tables.t(B))


def test_closed_form_c4_matches_euler_product():
    value, tail = euler_product_C4(10**6)
    assert abs(value - refs.c4_closed_form()) <= tail


def _one_digit_changed(text: str, field: int) -> str:
    """text with one digit of the given CSV field of its last row changed."""
    lines = text.splitlines()
    row = lines[-1].split(",")
    digit = row[field][-3]
    row[field] = row[field][:-3] + str((int(digit) + 1) % 10) + row[field][-2:]
    lines[-1] = ",".join(row)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", ["exact_counts", "pooled_counts"])
def test_changed_digit_is_a_failed_operation(workload):
    import qpc.cli as cli

    ops = [op for op in run.workload_ops(workload, seed=3) if op.rows]
    references = run.References(ops)
    for op in ops:
        code, out, _ = run.run_op(cli, op)
        assert code == 0
        assert run.check_output(op, out, references) is None
        assert run.check_output(op, _one_digit_changed(out, 2), references) is not None


def test_changed_constant_is_a_failed_operation():
    import qpc.cli as cli

    op = run.workload_ops("certify", seed=0)[-1]
    code, out, _ = run.run_op(cli, op)
    assert code == 0
    assert run.check_output(op, out, None) is None
    changed = out.replace('"C4":{"value":0.2', '"C4":{"value":0.3', 1)
    assert changed != out
    assert run.check_output(op, changed, None) is not None


def test_failed_suite_line_is_a_failed_operation():
    op = run.workload_ops("certify", seed=0)[1]
    assert op.suite == "formal"
    good = "PASS formal_identity_1 x\nPASS formal_identity_2 x\n"
    assert run.check_output(op, good, None) is None
    assert run.check_output(op, good.replace("PASS", "FAIL", 1), None) is not None
