"""Command-line surface: count / table / verify / constant.

Batch-oriented: count, table and constant print CSV (default) or JSON to
stdout, verify one PASS or FAIL line per check.  Each subcommand takes only
the flags it reads.  Every command exits with 0 on success, 1 on invalid
arguments, 2 on resource errors, 3 on a failed verification check.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import arith, asymptotics, counting, dirichlet
from .errors import DomainError, ResourceError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_CHECK_FAILED = 3

CSV_HEADER = "kind,bound,exact,predicted,ratio,seconds"


def _real(x: float) -> str:
    return "%.17g" % x


def _record_fields(rec: counting.CountRecord, timing: bool) -> list[str | None]:
    return [
        rec.kind,
        str(rec.bound),
        str(rec.exact_count),
        _real(rec.predicted_main) if rec.predicted_main is not None else None,
        _real(rec.ratio) if rec.ratio is not None else None,
        _real(rec.elapsed if timing else 0.0),
    ]


def _emit_records(records, args) -> None:
    rows = [_record_fields(r, not args.no_timing) for r in records]
    if args.format == "csv":
        print(CSV_HEADER)
        for row in rows:
            print(",".join("" if f is None else f for f in row))
    else:
        keys = CSV_HEADER.split(",")
        items = []
        for row in rows:
            pairs = []
            for key, field in zip(keys, row):
                if field is None:
                    pairs.append(f'"{key}":null')
                elif key in ("kind", "exact"):  # exact is a wide integer: decimal string
                    pairs.append(f'"{key}":"{field}"')
                else:
                    pairs.append(f'"{key}":{field}')
            items.append("{" + ",".join(pairs) + "}")
        print("[" + ",".join(items) + "]")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_count(args) -> int:
    B = args.B
    if args.projective and args.kind != "primitive":
        raise DomainError("--projective needs --kind primitive")
    start = time.perf_counter()
    if args.kind == "star":
        exact = counting.n_star(B, arith.q_tables(B))
    else:
        exact = counting.n_u(B, arith.q_tables(B, counting.N_U_BYTES * (B + 1)))
        if args.projective:
            exact //= 2
    elapsed = time.perf_counter() - start
    rec = counting.CountRecord(args.kind, B, exact, None, None, elapsed)
    _emit_records([rec], args)
    return EXIT_OK


def cmd_table(args) -> int:
    bounds = args.bounds
    if not bounds:
        _emit_records([], args)
        return EXIT_OK
    top = max(bounds)
    # refused before it is built when N_U's arrays would not fit beside it
    spare = counting.N_U_BYTES * (top + 1) if args.kind == "N_u" else 0
    tables = arith.q_tables(top, spare)
    poly = asymptotics.p_coefficients()
    records = asymptotics.convergence_table(
        args.kind, bounds, tables, poly, args.variant
    )
    _emit_records(records, args)
    return EXIT_OK


def _suite_local(args):
    checks = []
    for p in [int(q) for q in arith.primes_up_to(100)]:
        same = dirichlet.local_factor_definition(p, 30) == dirichlet.local_factor_closed_form(p, 30)
        checks.append((f"local_factor p={p} deg=30", same, ""))
    return checks

def _suite_formal(args):
    return [
        ("formal_identity_1", dirichlet.formal_identity_1(), "series+cross-multiplied"),
        ("formal_identity_2", dirichlet.formal_identity_2(), "series+cross-multiplied"),
    ]

def _suite_global(args):
    points = ((6.0, 2.0), (7.0, 3.0))
    residuals = dirichlet.global_series_check(points, 10**4, 10**4)
    return [
        (f"global_series s={s:g} w={w:g}", res < args.tolerance, f"residual={res:.3e}")
        for (s, w), res in zip(points, residuals)
    ]

def _suite_partition(args):
    import random

    rng = random.Random(47)
    sample = sorted(rng.sample(range(1, 4001), 40))
    tables = arith.q_tables(max(sample))
    # one n-ordered pass gives N* at every sampled bound
    curve = counting.n_star_by_divisors(max(sample))
    checks = []
    for B in sample:
        try:
            counting.partition_witness(B, tables, curve)
            ok = True
        except ArithmeticError:
            ok = False
        checks.append((f"partition B={B}", ok, ""))
    return checks

def _suite_oracle(args):
    tables = arith.q_tables(40)
    primitive = counting.brute_force_primitive_curve(40)
    checks = []
    for B in range(0, 41):
        star_ok = counting.n_star(B, tables) == counting.brute_force_star(B)
        prim_ok = counting.n_u(B, tables) == primitive[B]
        checks.append((f"oracle B={B}", star_ok and prim_ok, ""))
    return checks

def _suite_telescope(args):
    bounds = (10, 100, 1000)
    tables = arith.q_tables(max(bounds))
    checks = []
    for B in bounds:
        try:
            rep = counting.telescoping_check(B, tables)
        except ArithmeticError:
            checks.append((f"telescope B={B}", False, "undecided"))
            continue
        checks.append(
            (f"telescope B={B}", rep.lower_ok and rep.partition_ok, f"k0={rep.k0}")
        )
    return checks


SUITES = {
    "local": _suite_local,
    "formal": _suite_formal,
    "global": _suite_global,
    "partition": _suite_partition,
    "oracle": _suite_oracle,
    "telescope": _suite_telescope,
}


def cmd_verify(args) -> int:
    checks = SUITES[args.suite](args)
    failed = []
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status} {name}"
        if detail:
            line += f" {detail}"
        print(line)
        if not ok:
            failed.append(name)
    if failed:
        print(f"FAILED {len(failed)} check(s): {', '.join(failed)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_constant(args) -> int:
    P = args.prime_limit
    value, tail = asymptotics.euler_product_C4(P)
    poly = asymptotics.p_coefficients()
    z3 = dirichlet.zeta(3.0).value
    star_paper = asymptotics.NSTAR_VARIANTS["paper"] * value
    star_chain = asymptotics.NSTAR_VARIANTS["chain"] * value
    fields = [
        ("C4", value, tail),
        ("c1_residue_route", poly.c1, poly.c1_error),
        ("c0", poly.c0, poly.c0_error),
        ("C4star_paper", star_paper, tail * asymptotics.NSTAR_VARIANTS["paper"]),
        ("C4star_chain", star_chain, tail * asymptotics.NSTAR_VARIANTS["chain"]),
        ("C4star_paper_over_zeta3", star_paper / z3, tail * asymptotics.NSTAR_VARIANTS["paper"] / z3),
        ("C4star_chain_over_zeta3", star_chain / z3, tail * asymptotics.NSTAR_VARIANTS["chain"] / z3),
        ("variant_ratio_chain_over_paper", star_chain / star_paper, 0.0),
        ("residue_jacobian", asymptotics.RESIDUE_JACOBIAN, 0.0),
    ]
    if args.format == "csv":
        print("name,value,error_bound")
        for name, v, err in fields:
            print(f"{name},{_real(v)},{_real(err)}")
    else:
        items = ",".join(
            f'"{name}":{{"value":{_real(v)},"error_bound":{_real(err)}}}'
            for name, v, err in fields
        )
        print("{" + items + "}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad arguments, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as err:
            raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from err
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _positive_real(text: str) -> float:
    """argparse type: a finite float > 0."""
    try:
        value = float(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"invalid float value {text!r}") from err
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _bounds_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        bounds = [int(part) for part in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"malformed bounds list {text!r}") from err
    if any(b < 0 for b in bounds):
        raise argparse.ArgumentTypeError("bounds must be non-negative")
    if bounds != sorted(bounds):
        raise argparse.ArgumentTypeError("bounds must be ascending")
    return bounds


_THREADS_HELP = "accepted for compatibility; no effect, counts run in one process"


def _add_record_flags(parser: _Parser) -> None:
    """The output, bound and --threads flags of count and table."""
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the seconds column for byte-reproducible output",
    )
    parser.add_argument("--threads", type=_int_at_least(0), default=0, help=_THREADS_HELP)


def build_parser() -> _Parser:
    parser = _Parser(prog="qpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact point count at one bound")
    p_count.add_argument("--kind", choices=("star", "primitive"), required=True)
    p_count.add_argument("--B", type=_int_at_least(0), required=True)
    p_count.add_argument("--projective", action="store_true",
                         help="report projective points (primitive tuples / 2); "
                              "--kind primitive only")
    _add_record_flags(p_count)
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", help="exact counts vs. predicted main terms")
    p_table.add_argument("--kind", choices=("S", "T", "N_star", "N_u"), required=True)
    p_table.add_argument("--bounds", type=_bounds_list, required=True)
    p_table.add_argument("--variant", choices=("paper", "chain"), default="chain")
    _add_record_flags(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run one invariant suite")
    p_verify.add_argument("--suite", choices=tuple(SUITES), required=True)
    p_verify.add_argument("--tolerance", type=_positive_real, default=1e-8,
                          help="largest residual --suite global passes")
    p_verify.add_argument("--threads", type=_int_at_least(0), default=0, help=_THREADS_HELP)
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constant", help="print the leading constants")
    p_const.add_argument("--prime-limit", type=_int_at_least(10**3), default=10**6)
    p_const.add_argument("--format", choices=("csv", "json"), default="csv")
    p_const.set_defaults(func=cmd_constant)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ValueError) as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
