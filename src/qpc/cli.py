"""Command-line surface: count / table / verify / constant.

Batch-oriented: every command prints CSV (default) or JSON to stdout and
exits with 0 on success, 1 on invalid arguments, 2 on resource errors,
3 on a failed verification check.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

from . import arith, asymptotics, counting, dirichlet
from .errors import DomainError, ResourceError

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RESOURCE = 2
EXIT_CHECK_FAILED = 3

CSV_HEADER = "kind,bound,exact,predicted,ratio,seconds"


@dataclass
class RunConfig:
    sieve_limit: int = arith.DEFAULT_SIEVE_LIMIT
    format: str = "csv"
    prime_limit: int = 10**6
    tolerance: float = 1e-8
    variant: str = "chain"
    timing: bool = True

    def __post_init__(self):
        if self.sieve_limit < 2 or self.prime_limit < 1:
            raise ValueError("limits must be positive")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be csv or json")


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


def _emit_records(records, cfg: RunConfig) -> None:
    rows = [_record_fields(r, cfg.timing) for r in records]
    if cfg.format == "csv":
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
                elif key in ("kind",):
                    pairs.append(f'"{key}":"{field}"')
                elif key == "exact":
                    pairs.append(f'"{key}":"{field}"')  # wide integer: decimal string
                else:
                    pairs.append(f'"{key}":{field}')
            items.append("{" + ",".join(pairs) + "}")
        print("[" + ",".join(items) + "]")


def _tables_for(cfg: RunConfig, needed: int) -> arith.QTables:
    if needed > cfg.sieve_limit:
        raise ResourceError(
            f"bound {needed} exceeds configured sieve limit {cfg.sieve_limit}"
        )
    return arith.QTables()


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_count(args, cfg: RunConfig) -> int:
    B = args.B
    tables = _tables_for(cfg, B)
    start = time.perf_counter()
    if args.kind == "star":
        exact = counting.n_star(B, tables)
    else:
        exact = counting.n_u(B, tables)
        if args.projective:
            exact //= 2
    elapsed = time.perf_counter() - start
    rec = counting.CountRecord(args.kind, B, exact, None, None, elapsed)
    _emit_records([rec], cfg)
    return EXIT_OK


def cmd_table(args, cfg: RunConfig) -> int:
    bounds = args.bounds
    if not bounds:
        _emit_records([], cfg)
        return EXIT_OK
    tables = _tables_for(cfg, max(bounds))
    poly = asymptotics.p_coefficients(cfg.prime_limit)
    records = asymptotics.convergence_table(
        args.kind, bounds, tables, poly, cfg.variant
    )
    _emit_records(records, cfg)
    return EXIT_OK


def _suite_local():
    checks = []
    for p in [int(q) for q in arith.primes_up_to(100)]:
        same = dirichlet.local_factor_definition(p, 30) == dirichlet.local_factor_closed_form(p, 30)
        checks.append((f"local_factor p={p} deg=30", same, ""))
    return checks

def _suite_formal():
    return [
        ("formal_identity_1", dirichlet.formal_identity_1(), "series+cross-multiplied"),
        ("formal_identity_2", dirichlet.formal_identity_2(), "series+cross-multiplied"),
    ]

def _suite_global(cfg: RunConfig):
    checks = []
    for s, w in ((6.0, 2.0), (7.0, 3.0)):
        res = dirichlet.global_series_check(s, w, 10**4, 10**4)
        checks.append(
            (f"global_series s={s:g} w={w:g}", res < cfg.tolerance, f"residual={res:.3e}")
        )
    return checks

def _suite_partition(cfg: RunConfig):
    import random

    rng = random.Random(47)
    sample = sorted(rng.sample(range(1, 4001), 40))
    tables = _tables_for(cfg, 4000)
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

def _suite_oracle(cfg: RunConfig):
    tables = _tables_for(cfg, 64)
    primitive = counting.brute_force_primitive_curve(40)
    checks = []
    for B in range(0, 41):
        star_ok = counting.n_star(B, tables) == counting.brute_force_star(B)
        prim_ok = counting.n_u(B, tables) == primitive[B]
        checks.append((f"oracle B={B}", star_ok and prim_ok, ""))
    return checks

def _suite_telescope(cfg: RunConfig):
    tables = _tables_for(cfg, 1000)
    checks = []
    for B in (10, 100, 1000):
        try:
            rep = counting.telescoping_check(B, tables)
        except ArithmeticError:
            checks.append((f"telescope B={B}", False, "undecided"))
            continue
        checks.append(
            (f"telescope B={B}", rep.lower_ok and rep.partition_ok, f"k0={rep.k0}")
        )
    return checks


def cmd_verify(args, cfg: RunConfig) -> int:
    suites = {
        "local": lambda: _suite_local(),
        "formal": lambda: _suite_formal(),
        "global": lambda: _suite_global(cfg),
        "partition": lambda: _suite_partition(cfg),
        "oracle": lambda: _suite_oracle(cfg),
        "telescope": lambda: _suite_telescope(cfg),
    }
    checks = suites[args.suite]()
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


def cmd_constant(args, cfg: RunConfig) -> int:
    P = cfg.prime_limit
    value, tail = asymptotics.euler_product_C4(P)
    poly = asymptotics.p_coefficients(max(P, 10**3))
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
    if cfg.format == "csv":
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


def _bounds_list(text: str) -> list[int]:
    if not text:
        return []
    try:
        bounds = [int(part) for part in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"malformed bounds list {text!r}") from err
    if any(b < 0 for b in bounds):
        raise argparse.ArgumentTypeError("bounds must be non-negative")
    return bounds


def _common(parser: _Parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--threads", type=int, default=0,
                        help="accepted for compatibility; no effect, counts run in one process")
    parser.add_argument("--sieve-limit", type=int, default=arith.DEFAULT_SIEVE_LIMIT)
    parser.add_argument("--prime-limit", type=int, default=10**6)
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the seconds column for byte-reproducible output",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="qpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", parents=[], help="exact point count at one bound")
    p_count.add_argument("--kind", choices=("star", "primitive"), required=True)
    p_count.add_argument("--B", type=int, required=True)
    p_count.add_argument("--projective", action="store_true",
                         help="report projective points (primitive tuples / 2); "
                              "--kind primitive only")
    _common(p_count)

    p_table = sub.add_parser("table", help="exact counts vs. predicted main terms")
    p_table.add_argument("--kind", choices=("S", "T", "N_star", "N_u"), required=True)
    p_table.add_argument("--bounds", type=_bounds_list, required=True)
    p_table.add_argument("--variant", choices=("paper", "chain"), default="chain")
    _common(p_table)

    p_verify = sub.add_parser("verify", help="run one invariant suite")
    p_verify.add_argument(
        "--suite",
        choices=("local", "formal", "global", "partition", "oracle", "telescope"),
        required=True,
    )
    _common(p_verify)

    p_const = sub.add_parser("constant", help="print the leading constants")
    _common(p_const)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 0) < 0:
        parser.error("--threads must be >= 0")
    try:
        cfg = RunConfig(
            sieve_limit=args.sieve_limit,
            format=args.format,
            prime_limit=args.prime_limit,
            tolerance=args.tolerance,
            variant=getattr(args, "variant", "chain"),
            timing=not args.no_timing,
        )
        if args.command == "count":
            if args.B < 0:
                parser.error("--B must be non-negative")
            if args.projective and args.kind != "primitive":
                parser.error("--projective needs --kind primitive")
            return cmd_count(args, cfg)
        if args.command == "table":
            if args.bounds != sorted(args.bounds):
                parser.error("--bounds must be ascending")
            return cmd_table(args, cfg)
        if args.command == "verify":
            return cmd_verify(args, cfg)
        if args.command == "constant":
            if cfg.prime_limit < 2:
                parser.error("--prime-limit must be >= 2")
            return cmd_constant(args, cfg)
        parser.error(f"unknown command {args.command!r}")
    except ResourceError as err:
        print(f"resource error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DomainError, ValueError) as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
