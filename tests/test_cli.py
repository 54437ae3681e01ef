import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import xw_rows
from qpc import TruncSeries, arith, cli, counting, dirichlet

QPC = [sys.executable, "-m", "qpc.cli"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        QPC + list(args), capture_output=True, text=True, env=env, timeout=600
    )


class TestCount:
    def test_star_b3(self):
        res = run_cli("count", "--kind", "star", "--B", "3", "--no-timing")
        assert res.returncode == 0
        assert res.stdout.splitlines() == [
            "kind,bound,exact,predicted,ratio,seconds",
            "star,3,544,,,0",
        ]

    def test_primitive_b2(self):
        res = run_cli("count", "--kind", "primitive", "--B", "2", "--no-timing")
        assert res.returncode == 0
        assert res.stdout.splitlines()[1] == "primitive,2,96,,,0"

    def test_star_b0(self):
        res = run_cli("count", "--kind", "star", "--B", "0", "--no-timing")
        assert res.returncode == 0
        assert res.stdout.splitlines()[1] == "star,0,0,,,0"

    def test_projective_halves(self):
        res = run_cli("count", "--kind", "primitive", "--B", "2", "--projective", "--no-timing")
        assert res.stdout.splitlines()[1] == "primitive,2,48,,,0"

    def test_projective_rejected_for_star(self):
        res = run_cli("count", "--kind", "star", "--B", "10", "--projective", "--no-timing")
        assert res.returncode == 1
        assert res.stdout == ""
        assert "--projective" in res.stderr

    def test_json_schema(self):
        res = run_cli("count", "--kind", "star", "--B", "3", "--format", "json", "--no-timing")
        rows = json.loads(res.stdout)
        assert rows == [
            {
                "kind": "star",
                "bound": 3,
                "exact": "544",
                "predicted": None,
                "ratio": None,
                "seconds": 0,
            }
        ]

    def test_resource_exit_2(self):
        # past the q-table budget: refused before anything is allocated
        res = run_cli("count", "--kind", "star", "--B", "1000000000")
        assert res.returncode == 2

    def test_invalid_args_exit_1(self):
        assert run_cli("count", "--kind", "star").returncode == 1
        assert run_cli("count", "--kind", "wat", "--B", "3").returncode == 1
        assert run_cli("count", "--kind", "star", "--B", "3", "--threads", "-1").returncode == 1


class TestTable:
    def test_rows_match_counting(self):
        res = run_cli(
            "table", "--kind", "N_star", "--bounds", "10,100", "--no-timing",
        )
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "kind,bound,exact,predicted,ratio,seconds"
        assert lines[1].startswith("N_star,10,19840,")
        assert lines[2].startswith("N_star,100,21467264,")

    def test_empty_bounds_header_only(self):
        res = run_cli("table", "--kind", "T", "--bounds", "", "--no-timing")
        assert res.returncode == 0
        assert res.stdout.splitlines() == ["kind,bound,exact,predicted,ratio,seconds"]

    def test_malformed_bounds_exit_1(self):
        assert run_cli("table", "--kind", "T", "--bounds", "10,x").returncode == 1

    def test_variants_emitted(self):
        paper = run_cli(
            "table", "--kind", "N_star", "--bounds", "100", "--variant", "paper", "--no-timing",
        ).stdout
        chain = run_cli(
            "table", "--kind", "N_star", "--bounds", "100", "--variant", "chain", "--no-timing",
        ).stdout
        p_pred = float(paper.splitlines()[1].split(",")[3])
        c_pred = float(chain.splitlines()[1].split(",")[3])
        assert c_pred / p_pred == pytest.approx(4.0 / 3.0, abs=1e-12)


class TestVerify:
    def test_formal_suite_passes(self):
        res = run_cli("verify", "--suite", "formal")
        assert res.returncode == 0
        assert "PASS formal_identity_1" in res.stdout
        assert "PASS formal_identity_2" in res.stdout

    def test_unknown_suite_exit_1(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 1

    def test_impossible_tolerance_exit_3(self):
        res = run_cli("verify", "--suite", "global", "--tolerance", "1e-30")
        assert res.returncode == 3
        assert "FAIL" in res.stdout

    def test_telescope_suite(self):
        res = run_cli("verify", "--suite", "telescope")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 3

    def test_telescope_suite_fails_loudly_when_undecided(self, monkeypatch, capsys):
        # 4 bits cannot decide a shell edge: each bound is a FAIL, not a traceback
        monkeypatch.setattr(counting, "TELESCOPE_PRECISIONS", (4,))
        assert cli.main(["verify", "--suite", "telescope"]) == cli.EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert captured.out == "".join(
            f"FAIL telescope B={B} undecided\n" for B in (10, 100, 1000)
        )
        assert "Traceback" not in captured.err

    def test_startup_loads_no_mpmath(self):
        # the telescope imports mpmath when it runs, not when the CLI starts;
        # the residue constants of table and constant are float only
        for run in (
            "qpc.cli.build_parser()",
            "qpc.cli.main(['table', '--kind', 'S', '--bounds', '10,100', '--no-timing'])",
            "qpc.cli.main(['constant', '--prime-limit', '1000'])",
        ):
            code = f"import sys, qpc.cli; {run}; print('mpmath' in sys.modules)"
            res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
            assert res.stdout.splitlines()[-1:] == ["False"], (run, res.stderr)


class TestConstant:
    def test_deterministic_and_parsable(self):
        a = run_cli("constant", "--prime-limit", "20000", "--format", "json")
        b = run_cli("constant", "--prime-limit", "20000", "--format", "json")
        assert a.returncode == 0 and a.stdout == b.stdout
        data = json.loads(a.stdout)
        for key in (
            "C4",
            "c1_residue_route",
            "c0",
            "C4star_paper",
            "C4star_chain",
            "C4star_paper_over_zeta3",
            "C4star_chain_over_zeta3",
        ):
            assert key in data
            assert "value" in data[key] and "error_bound" in data[key]
        ratio = data["variant_ratio_chain_over_paper"]["value"]
        assert ratio == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_small_prime_limits_differ(self):
        # 1009 is prime, so the product gains a factor
        a = run_cli("constant", "--prime-limit", "1000").stdout
        b = run_cli("constant", "--prime-limit", "1009").stdout
        a_c4 = float(a.splitlines()[1].split(",")[1])
        b_c4 = float(b.splitlines()[1].split(",")[1])
        assert a_c4 != b_c4

    def test_prime_limit_guard(self):
        assert run_cli("constant", "--prime-limit", "1").returncode == 1
        assert run_cli("constant", "--prime-limit", "999").returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("constant",),
            ("constant", "--format", "json"),
        ],
    )
    def test_huge_prime_limit_exit_2(self, argv):
        # the prime list is refused before its mask is allocated
        res = run_cli(*argv, "--prime-limit", str(10**12))
        assert res.returncode == 2
        assert res.stdout == "" and "resource error" in res.stderr


BASE_ARGV = {
    "count": ["count", "--kind", "primitive", "--B", "3"],
    "table": ["table", "--kind", "T", "--bounds", "10"],
    "verify": ["verify", "--suite", "formal"],
    "constant": ["constant"],
}


def _parser_flags():
    """Each subcommand's option strings, from build_parser()."""
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


class TestFlags:
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("count", ["--prime-limit", "5000"]),
            ("count", ["--tolerance", "1e-6"]),
            ("table", ["--tolerance", "1e-6"]),
            ("verify", ["--format", "json"]),
            ("verify", ["--sieve-limit", "100"]),
            ("verify", ["--prime-limit", "5000"]),
            ("verify", ["--no-timing"]),
            ("constant", ["--sieve-limit", "100"]),
            ("constant", ["--tolerance", "1e-6"]),
            ("constant", ["--no-timing"]),
            ("constant", ["--threads", "1"]),
            ("table", ["--prime-limit", "5000"]),
            ("count", ["--sieve-limit", "100"]),
            ("table", ["--sieve-limit", "100"]),
        ],
    )
    def test_flag_the_command_does_not_read_exit_1(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(BASE_ARGV[command] + flag)
        assert exc.value.code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("count", ["--kind", "star"]),
            ("count", ["--B", "5"]),
            ("count", ["--projective"]),
            ("count", ["--format", "json"]),
            ("count", ["--no-timing"]),
            ("count", ["--B", "1000000000"]),  # no flag caps the bound
            ("count", ["--threads", "2"]),
            ("table", ["--kind", "S"]),
            ("table", ["--bounds", "10,20"]),
            ("table", ["--variant", "paper"]),
            ("table", ["--format", "json"]),
            ("table", ["--no-timing"]),
            ("table", ["--bounds", "10,20000000"]),
            ("table", ["--bounds", ""]),
            ("table", ["--threads", "2"]),
            ("verify", ["--suite", "local"]),
            ("verify", ["--tolerance", "1e-6"]),
            ("verify", ["--threads", "2"]),
            ("constant", ["--prime-limit", "5000"]),
            ("constant", ["--format", "json"]),
        ],
    )
    def test_flag_the_command_reads_is_parsed(self, command, flag):
        parser = cli.build_parser()
        plain = vars(parser.parse_args(BASE_ARGV[command]))
        assert plain["func"] is getattr(cli, f"cmd_{command}")
        assert vars(parser.parse_args(BASE_ARGV[command] + flag)) != plain

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--kind", "T", "--bounds", "10,x"),
            ("table", "--kind", "T", "--bounds", "10,-5"),
            ("table", "--kind", "T", "--bounds", "100,10"),
            ("count", "--kind", "star", "--B", "-1"),
            ("count", "--kind", "star", "--B", "3", "--threads", "-1"),
            ("constant", "--prime-limit", "1"),
            ("verify", "--suite", "formal", "--threads", "-1"),
            ("verify", "--suite", "global", "--tolerance", "inf"),
            ("verify", "--suite", "global", "--tolerance", "nan"),
            ("verify", "--suite", "global", "--tolerance", "-1"),
        ],
    )
    def test_out_of_range_value_refused_by_the_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and "error: argument" in captured.err

    def test_readme_lists_each_commands_flags(self):
        # the README's per-command lists and the parser must not drift apart
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("Flags by command")[1].split("\n\n")[1]
        documented = {
            command: set(re.findall(r"`(--[\w-]+)", body))
            for command, body in re.findall(r"^- `(\w+)`:(.*?)(?=^- `|\Z)", section, re.M | re.S)
        }
        parsed = _parser_flags()
        assert documented == parsed
        assert sum(len(flags) for flags in parsed.values()) == 17

    def test_readme_states_the_budgets_reach(self):
        # the largest N* and N_U bounds the README states are the ones the
        # budget admits: q-tables alone, and q-tables plus N_U's arrays
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        star, prim = re.search(r"up to B = ([\d,]+) and N_U up to B = ([\d,]+);", readme).groups()
        budget = arith.DEFAULT_MEMORY_BUDGET
        assert int(star.replace(",", "")) == budget // arith.Q_TABLE_BYTES - 1
        assert int(prim.replace(",", "")) == budget // (arith.Q_TABLE_BYTES + counting.N_U_BYTES) - 1


class TestGolden:
    def test_byte_identical_across_runs_and_threads(self):
        args = (
            "table", "--kind", "T", "--bounds", "10,100,1000", "--no-timing",
        )
        runs = [
            run_cli(*args, env_extra={"QPC_THREADS": "1"}).stdout,
            run_cli(*args, env_extra={"QPC_THREADS": "1"}).stdout,
            run_cli(*args, env_extra={"QPC_THREADS": "4"}).stdout,
            run_cli(*args, "--threads", "3").stdout,
        ]
        assert len(set(runs)) == 1

        jargs = args + ("--format", "json")
        j1 = run_cli(*jargs, env_extra={"QPC_THREADS": "2"}).stdout
        j2 = run_cli(*jargs, env_extra={"QPC_THREADS": "5"}).stdout
        assert j1 == j2
        json.loads(j1)

    # Stdout pinned byte for byte, so a refactor that moves the last bit of
    # any printed float fails here even though it passes the run-vs-run
    # checks above.  B = 9170 is a bound where psi = 0.5*log(B) and
    # log(B) - 0.25*log(B*B) differ in the last bit.
    PINNED = {
        ("table", "--kind", "S", "--bounds", "10,100,9170", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "S,10,699,393.24820067343427,1.777503365057916,0\n"
            "S,100,795036,650290.91674740182,1.2225851223273703,0\n"
            "S,9170,955981948762,890386465221.1615,1.0736708003805351,0\n"
        ),
        ("table", "--kind", "T", "--bounds", "10,100,9170", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "T,10,79,51.408543214793504,1.5367095634265451,0\n"
            "T,100,124184,102817.08642958701,1.2078148128136839,0\n"
            "T,9170,176949582800,157071813612.43353,1.1265521084299301,0\n"
        ),
        ("table", "--kind", "N_star", "--bounds", "10,100,9170", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "N_star,10,19840,6580.2935314935685,3.0150630674824619,0\n"
            "N_star,100,21467264,13160587.062987138,1.6311782975376972,0\n"
            "N_star,9170,24929035710784,20105192142391.492,1.2399302396231024,0\n"
        ),
        ("table", "--kind", "N_u", "--bounds", "10,100,9170", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "N_u,10,17440,5474.1947025946392,3.1858567236809923,0\n"
            "N_u,100,17994976,10948389.405189279,1.6436185573990274,0\n"
            "N_u,9170,21027432745824,16725657570407.191,1.2571961764318293,0\n"
        ),
        # counts over several table and reduction blocks
        ("count", "--kind", "star", "--B", "100000", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "star,100000,39224170662221696,,,0\n"
        ),
        ("count", "--kind", "primitive", "--B", "100000", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "primitive,100000,33027727982076960,,,0\n"
        ),
        ("constant", "--prime-limit", "5000"): (
            "name,value,error_bound\n"
            "C4,0.22326446640879782,7.8893922595427557e-12\n"
            "c1_residue_route,0.22326446640869677,5.0347670000403638e-15\n"
            "c0,0.052481309696205403,5.3992729033786559e-15\n"
            "C4star_paper,8.5733555100978354,3.029526627664418e-10\n"
            "C4star_chain,11.431140680130449,4.0393688368858913e-10\n"
            "C4star_paper_over_zeta3,7.1322376566058212,2.5202855369835974e-10\n"
            "C4star_chain_over_zeta3,9.5096502088077628,3.3603807159781303e-10\n"
            "variant_ratio_chain_over_paper,1.3333333333333335,0\n"
            "residue_jacobian,0.25,0\n"
        ),
        # C4 over all 78,498 primes below the default prime limit, as the
        # benchmark's constant command takes it
        ("constant", "--prime-limit", "1000000", "--format", "json"): (
            '{"C4":{"value":0.22326446640869343,"error_bound":6.6979341412046951e-12},'
            '"c1_residue_route":{"value":0.22326446640869677,"error_bound":5.0347670000403638e-15},'
            '"c0":{"value":0.052481309696205403,"error_bound":5.3992729033786559e-15},'
            '"C4star_paper":{"value":8.5733555100938279,"error_bound":2.5720067102226029e-10},'
            '"C4star_chain":{"value":11.431140680125104,"error_bound":3.4293422802968039e-10},'
            '"C4star_paper_over_zeta3":{"value":7.1322376566024879,'
            '"error_bound":2.1396713445612347e-10},'
            '"C4star_chain_over_zeta3":{"value":9.5096502088033166,'
            '"error_bound":2.8528951260816462e-10},'
            '"variant_ratio_chain_over_paper":{"value":1.3333333333333333,"error_bound":0},'
            '"residue_jacobian":{"value":0.25,"error_bound":0}}\n'
        ),
        ("table", "--kind", "S", "--bounds", "10000,30000", "--no-timing"): (
            "kind,bound,exact,predicted,ratio,seconds\n"
            "S,10000,1243482577325,1164376348895.3369,1.0679387111432763,0\n"
            "S,30000,37004720401265,34749456086837.652,1.0649007083389024,0\n"
        ),
        ("verify", "--suite", "local"): "".join(
            f"PASS local_factor p={p} deg=30\n"
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
        ),
        ("verify", "--suite", "formal"): (
            "PASS formal_identity_1 series+cross-multiplied\n"
            "PASS formal_identity_2 series+cross-multiplied\n"
        ),
        # the n-ordered left-hand side's last bits show in the residuals
        ("verify", "--suite", "global"): (
            "PASS global_series s=6 w=2 residual=1.998e-15\n"
            "PASS global_series s=7 w=3 residual=1.110e-15\n"
        ),
        # k0 and every shell edge come from the interval thresholds
        ("verify", "--suite", "telescope"): (
            "PASS telescope B=10 k0=5\n"
            "PASS telescope B=100 k0=19\n"
            "PASS telescope B=1000 k0=38\n"
        ),
    }

    def test_stdout_matches_pinned_bytes(self):
        for args, want in self.PINNED.items():
            res = run_cli(*args)
            assert res.returncode == 0, args
            assert res.stdout == want, args

    @pytest.mark.slow
    def test_largest_recorded_counts(self):
        """N*(10^7) and N_U(10^7) as recorded in CHANGES.md, one process
        each, so their tables (314 MB peak for N_U) leave with it.

        A regression pin, not an independent oracle: the q-ordered kernel
        computed these values, and the n-ordered pass stops at 2^15."""
        for kind, count in (("star", 52303461198040517409664),
                            ("primitive", 43901778234890958394528)):
            res = run_cli("count", "--kind", kind, "--B", str(10**7), "--no-timing")
            assert res.returncode == 0, kind
            assert res.stdout.splitlines()[1] == f"{kind},{10**7},{count},,,0"

    def test_reals_carry_17_significant_digits(self):
        res = run_cli(
            "table", "--kind", "T", "--bounds", "100", "--no-timing"
        )
        predicted = res.stdout.splitlines()[1].split(",")[3]
        mantissa = predicted.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa) >= 16


class TestVerifySuitesEndToEnd:
    def test_oracle_suite(self):
        res = run_cli("verify", "--suite", "oracle")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 41 and "FAIL" not in res.stdout

    def test_local_suite(self):
        res = run_cli("verify", "--suite", "local")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 25

    def test_partition_suite(self):
        res = run_cli("verify", "--suite", "partition")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 40

    def test_partition_suite_builds_one_spf_table(self, monkeypatch, capsys):
        # one n-ordered pass to the largest sampled bound serves all 40
        limits = []
        build = arith.build_spf_sieve

        def counted(limit, *args, **kwargs):
            limits.append(limit)
            return build(limit, *args, **kwargs)

        # the n-ordered divisor blocks look the sieve up in arith
        monkeypatch.setattr(arith, "build_spf_sieve", counted)
        assert cli.main(["verify", "--suite", "partition"]) == cli.EXIT_OK
        assert capsys.readouterr().out.count("PASS partition") == 40
        assert limits == [3955]

    def test_global_suite_passes_at_default_tolerance(self):
        res = run_cli("verify", "--suite", "global")
        assert res.returncode == 0
        assert res.stdout.count("PASS") == 2

    def test_partition_suite_fails_on_a_kernel_that_loses_a_term(self, monkeypatch, capsys):
        # the witness takes N* from the n-ordered divisor enumeration, so a
        # reduction that drops its last q breaks N* = 32 (S - T)
        reduction = counting._q_sum
        monkeypatch.setattr(
            counting, "_q_sum", lambda tables, Q, term: reduction(tables, Q - 1, term)
        )
        assert cli.main(["verify", "--suite", "partition"]) == cli.EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL partition B=3955" in lines
        # every bound still gets its own line
        assert len(lines) == 40
        assert all(line.split()[0] in ("PASS", "FAIL") for line in lines)

    @pytest.mark.parametrize("bad", [2, 7])
    def test_local_suite_fails_on_a_numerator_off_by_one(self, bad, monkeypatch, capsys):
        # G_p's X Y^2 numerator coefficient one too large at p = bad.  The
        # numerator enters linearly, so the sabotaged form is the true one
        # plus X Y^2 times the same binomial factors.
        closed_form = dirichlet.local_factor_closed_form

        def skewed(p, deg=30):
            if p != bad:
                return closed_form(p, deg)
            bump = TruncSeries.monomial(1, (1, 2))
            # the binomial steps act on X-degree rows: polynomial to rows and back
            rows = xw_rows(bump, deg)
            for a, b in ((4, 2), (16, 4)) if p == 2 else ((p * p, 2),):
                dirichlet._times_binomial(rows, a, b)
            for a, b in ((1, 4), (1, 0), (p * p, 2), (p**4, 4)):
                dirichlet._over_binomial(rows, a, b)
            return closed_form(p, deg) + dirichlet._xw_series(rows)

        monkeypatch.setattr(dirichlet, "local_factor_closed_form", skewed)
        assert cli.main(["verify", "--suite", "local"]) == cli.EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            f"FAIL local_factor p={bad} deg=30"
        ]
        assert sum(line.startswith("PASS") for line in lines) == 24

    @pytest.mark.parametrize("bad", [1, 2])
    def test_formal_suite_fails_on_a_missing_numerator_term(self, bad, monkeypatch, capsys):
        # one identity's right side loses its last numerator monomial; the
        # other identity still holds
        monomials, binomials = getattr(dirichlet, f"_RHS_{bad}")
        monkeypatch.setattr(dirichlet, f"_RHS_{bad}", (monomials[:-1], binomials))
        assert cli.main(["verify", "--suite", "formal"]) == cli.EXIT_CHECK_FAILED
        status = {bad: "FAIL", 3 - bad: "PASS"}
        assert capsys.readouterr().out.splitlines() == [
            f"{status[k]} formal_identity_{k} series+cross-multiplied" for k in (1, 2)
        ]

    def test_global_suite_fails_on_a_wrong_factor_at_2(self, monkeypatch, capsys):
        # G_2 one part in 10^6 too large moves both residuals far past the
        # default tolerance
        g2 = dirichlet.g_factor_2
        monkeypatch.setattr(dirichlet, "g_factor_2", lambda s, w: g2(s, w) * (1 + 1e-6))
        assert cli.main(["verify", "--suite", "global"]) == cli.EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines] == [
            ["FAIL", "global_series", "s=6"], ["FAIL", "global_series", "s=7"]
        ]
        for line in lines:
            assert 5e-7 < float(line.rsplit("residual=", 1)[1]) < 2e-6, line

    def test_oracle_suite_fails_on_a_wrong_brute_force_count(self, monkeypatch, capsys):
        brute = counting.brute_force_star
        monkeypatch.setattr(
            counting, "brute_force_star", lambda B: brute(B) + (32 if B == 17 else 0)
        )
        assert cli.main(["verify", "--suite", "oracle"]) == cli.EXIT_CHECK_FAILED
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{'FAIL' if B == 17 else 'PASS'} oracle B={B}" for B in range(41)]

    def test_table_budget_exit_2(self, monkeypatch, capsys):
        # a budget with room for the q-tables of N*(5000) but not for the
        # working arrays N_U(5000) needs beside them
        monkeypatch.setattr(arith, "DEFAULT_MEMORY_BUDGET", arith.Q_TABLE_BYTES * 5001)
        tops = []
        plan = arith._prime_plan

        def counted(n):
            tops.append(n)
            return plan(n)

        monkeypatch.setattr(arith, "_prime_plan", counted)
        assert cli.main(["count", "--kind", "star", "--B", "5001"]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == "" and "q-tables" in captured.err
        assert cli.main(["count", "--kind", "star", "--B", "5000", "--no-timing"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[1] == "star,5000,3778310313216,,,0"
        assert tops == [5000]
        assert cli.main(["count", "--kind", "primitive", "--B", "5000"]) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == "" and "q-tables" in captured.err
        # table refuses N_U's bounds before it builds the tables
        argv = ["table", "--kind", "N_u", "--bounds", "10,5000"]
        assert cli.main(argv) == cli.EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == "" and "q-tables" in captured.err
        assert tops == [5000]

    @pytest.mark.parametrize("argv, top", [
        (["table", "--kind", "T", "--bounds", "10,100,9170", "--no-timing"], 9170),
        (["table", "--kind", "N_u", "--bounds", "10,100,9170", "--no-timing"], 9170),
        (["verify", "--suite", "partition"], 3955),
        (["verify", "--suite", "telescope"], 1000),
        (["verify", "--suite", "oracle"], 40),
    ])
    def test_each_command_sieves_its_q_tables_once(self, argv, top, monkeypatch, capsys):
        # one q_tables call per command, to its largest bound
        tops = []
        plan = arith._prime_plan

        def counted(n):
            tops.append(n)
            return plan(n)

        monkeypatch.setattr(arith, "_prime_plan", counted)
        assert cli.main(argv) == cli.EXIT_OK
        assert "FAIL" not in capsys.readouterr().out
        assert tops == [top]

    def test_counts_build_no_spf_table(self, monkeypatch, capsys):
        # every count reads the q-tables alone; the SPF table belongs to the
        # n-ordered oracles
        commands = [
            ["count", "--kind", "star", "--B", "3000", "--no-timing"],
            ["count", "--kind", "primitive", "--B", "3000", "--no-timing"],
            *(["table", "--kind", kind, "--bounds", "10,1000", "--no-timing"]
              for kind in ("S", "T", "N_star", "N_u")),
            ["verify", "--suite", "telescope"],
        ]
        want = []
        for argv in commands:
            assert cli.main(argv) == cli.EXIT_OK, argv
            want.append(capsys.readouterr().out)
        # the oracle suite's output is known without running it twice
        commands.append(["verify", "--suite", "oracle"])
        want.append("".join(f"PASS oracle B={B}\n" for B in range(41)))

        def no_sieve(*args, **kwargs):
            raise AssertionError("a count built an SPF table")

        monkeypatch.setattr(arith, "build_spf_sieve", no_sieve)
        for argv, out in zip(commands, want):
            assert cli.main(argv) == cli.EXIT_OK, argv
            assert capsys.readouterr().out == out, argv
