"""Benchmark for qpc: exact counts, the worker pool, and the certification suites.

    python3 qpcbench/run.py --workload exact_counts --seed 1 --seconds 32 --trace 0

Runs from the root of a source checkout and imports qpc from ./src.  Each
run is one fresh process: it times a fresh interpreter importing qpc
(setup_s), then repeats whole passes of the workload's CLI commands through
qpc.cli.main, in process, while another pass fits in --seconds.  Afterwards it
checks every output against the references in refs.py, computed outside
the timed section, and prints one JSON object as its last line.  --trace 1
wraps the public functions of each layer and reports per-layer metrics
instead; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")

SETUP_SAMPLES = 9
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import qpc.cli; qpc.cli.build_parser()"

CSV_HEADER = "kind,bound,exact,predicted,ratio,seconds"
SUITE_LINES = {"local": 25, "formal": 2, "global": 2, "telescope": 3, "partition": 40}


@dataclass
class Op:
    """One CLI command and what its output must show."""

    argv: list[str]
    rows: list[tuple[str, int]] = field(default_factory=list)  # (kind, bound) of CSV rows
    suite: str | None = None
    constant: bool = False
    serial: bool = False  # output must equal that of the same command at --threads 1


def _near(center: int, rng: random.Random) -> int:
    """A bound within +-0.5 % of center."""
    return center + rng.randint(-center // 200, center // 200)


def workload_ops(name: str, seed: int) -> list[Op]:
    rng = random.Random(seed)
    b_star = _near(10**5, rng)
    b_prim = _near(3 * 10**4, rng)
    b_table = _near(3 * 10**4, rng)
    bounds = [10**4, b_table]

    def counts(threads: int) -> list[Op]:
        flags = ["--threads", str(threads), "--no-timing"]
        pooled = threads > 1
        return [
            Op(["count", "--kind", "star", "--B", str(b_star), *flags], [("star", b_star)],
               serial=pooled),
            Op(["count", "--kind", "primitive", "--B", str(b_prim), *flags],
               [("primitive", b_prim)], serial=pooled),
        ]

    if name == "exact_counts":
        tables = [
            Op(["table", "--kind", kind, "--bounds", ",".join(map(str, bounds)),
                "--threads", "1", "--no-timing"], [(kind, b) for b in bounds])
            for kind in ("T", "S")
        ]
        return counts(1) + tables
    if name == "pooled_counts":
        threads = min(2, os.cpu_count() or 1)
        partition = Op(["verify", "--suite", "partition", "--threads", str(threads)],
                       suite="partition")
        return [partition] + counts(threads)
    if name == "certify":
        return [
            Op(["verify", "--suite", "local"], suite="local"),
            Op(["verify", "--suite", "formal"], suite="formal"),
            Op(["verify", "--suite", "global"], suite="global"),
            Op(["verify", "--suite", "telescope", "--threads", "1"], suite="telescope"),
            Op(["constant", "--prime-limit", str(10**6), "--format", "json"], constant=True),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("exact_counts", "pooled_counts", "certify")


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------


class References:
    """Exact values from refs.Tables, built on first use."""

    def __init__(self, ops: list[Op]):
        self.limit = max([b for op in ops for _, b in op.rows], default=1)
        self._tables = None
        self._cache: dict[tuple[str, int], int] = {}

    def exact(self, kind: str, B: int) -> int:
        import refs

        if self._tables is None:
            self._tables = refs.Tables(self.limit)
        key = (kind, B)
        if key not in self._cache:
            t = self._tables
            fn = {"star": t.n_star, "primitive": t.n_u, "T": t.t, "S": t.s}[kind]
            self._cache[key] = fn(B)
        return self._cache[key]


def check_output(op: Op, out: str, refs: References) -> str | None:
    """None if the output of op is right, else what is wrong with it."""
    lines = out.splitlines()
    if op.rows:
        if not lines or lines[0] != CSV_HEADER:
            return "missing CSV header"
        body = [line.split(",") for line in lines[1:]]
        if len(body) != len(op.rows):
            return f"{len(body)} rows, expected {len(op.rows)}"
        exact = {}
        for (kind, B), row in zip(op.rows, body):
            if len(row) != 6 or row[0] != kind or row[1] != str(B):
                return f"unexpected row {row}"
            want = refs.exact(kind, B)
            if row[2] != str(want):
                return f"{kind}({B}) = {row[2]}, reference {want}"
            if row[4]:
                ratio, predicted = float(row[4]), float(row[3])
                if not math.isclose(ratio, want / predicted, rel_tol=1e-12):
                    return f"{kind}({B}) ratio {ratio} != exact/predicted"
            exact[kind, B] = want
        for kind, B in exact:
            if kind == "S" and ("T", B) in exact:
                if refs.exact("star", B) != 32 * (exact["S", B] - exact["T", B]):
                    return f"N*({B}) != 32 (S - T)"
        return None
    if op.suite:
        want = SUITE_LINES[op.suite]
        if len(lines) != want or not all(line.startswith("PASS ") for line in lines):
            return f"suite {op.suite}: expected {want} PASS lines, got {lines[:3]}..."
        if op.suite == "partition":
            bs = [int(line.split("B=")[1]) for line in lines]
            if bs != sorted(set(bs)) or not 1 <= bs[0] <= bs[-1] <= 4000:
                return "partition bounds are not 40 distinct ascending B <= 4000"
        return None
    if op.constant:
        return _check_constant(json.loads(out))
    return None


def _check_constant(fields: dict) -> str | None:
    import refs

    c4 = refs.c4_closed_form()
    got = fields["C4"]
    if not abs(got["value"] - c4) <= got["error_bound"]:
        return f"C4 {got['value']} not within {got['error_bound']} of {c4}"
    c1 = fields["c1_residue_route"]
    if not abs(c1["value"] - c4) <= c1["error_bound"]:
        return f"c1 {c1['value']} not within {c1['error_bound']} of C4 {c4}"
    ratio = fields["variant_ratio_chain_over_paper"]["value"]
    if not abs(ratio - 4 / 3) <= 1e-12:
        return f"chain/paper ratio {ratio} != 4/3"
    return None


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def _steal() -> tuple[int, int]:
    """(steal, total) jiffies of the machine, from /proc/stat; (0, 0) where unreadable.

    Steal is time the host ran something else on this machine's virtual CPUs.
    It inflates wall times but not CPU times, so each run reports its share.
    """
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing qpc and building its parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def serial_op(op: Op) -> Op:
    argv = list(op.argv)
    argv[argv.index("--threads") + 1] = "1"
    return Op(argv, op.rows)


def run_op(cli, op: Op) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command run through qpc.cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed operation, not a failed run
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qpc", "cli.py")):
        print(f"no qpc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # the commands pass --threads where the pool matters; keep the rest fixed
    os.environ.pop("QPC_THREADS", None)

    ops = workload_ops(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup()

    sys.path.insert(0, SRC)
    import qpc.cli as cli

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        recorder.install()

    passes = []  # per pass: wall, cpu, worker cpu, first span index
    outputs = []  # (op, code, stdout, stderr) for every command run
    steal0 = _steal()
    start = time.perf_counter()
    while True:
        first_span = len(recorder.spans) if recorder else 0
        wall0 = time.perf_counter()
        self0, kids0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        for op in ops:
            if recorder:
                recorder.op += 1
            outputs.append((op, *run_op(cli, op)))
        wall = time.perf_counter() - wall0
        kids = _cpu(resource.RUSAGE_CHILDREN) - kids0
        cpu = _cpu(resource.RUSAGE_SELF) - self0 + kids
        passes.append((wall, cpu, kids, first_span))
        # whole passes only: stop before a pass that would overrun --seconds
        if time.perf_counter() - start + statistics.median(p[0] for p in passes) > args.seconds:
            break
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    timed_spans = len(recorder.spans) if recorder else 0
    steal = [b - a for a, b in zip(steal0, _steal())]

    # everything below is outside the measurement
    references = References(ops)
    serial = {id(op): run_op(cli, serial_op(op))[:2] for op in ops if op.serial}
    failed = 0
    correct = True
    for op, code, out, err in outputs:
        if code != 0:
            failed += 1
            print(f"FAILED {' '.join(op.argv)}: exit {code}\n{err}", file=sys.stderr)
            continue
        try:
            problem = check_output(op, out, references)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"malformed output: {exc!r}"
        if not problem and op.serial and serial[id(op)] != (0, out):
            problem = "output differs from the same command at --threads 1"
        if problem:
            failed += 1
            correct = False
            print(f"WRONG {' '.join(op.argv)}: {problem}", file=sys.stderr)

    wall_s = statistics.median(p[0] for p in passes)
    print(f"workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"nproc={os.cpu_count()} trace={args.trace} "
          f"steal={steal[0] / steal[1] if steal[1] else 0.0:.3f} pass_wall_s="
          + ",".join(f"{p[0]:.3f}" for p in passes))
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if recorder:
        ends = [p[3] for p in passes[1:]] + [timed_spans]
        per_pass = [spans.layer_metrics(recorder.spans, p[3], end, p[2])
                    for p, end in zip(passes, ends)]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass), "unit": unit}
                   for name, unit in spans.metric_units().items()}
        spans.write(recorder.spans[:timed_spans], os.path.join(RESULTS, f"trace-{tag}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": statistics.median(p[1] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": len(outputs), "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
