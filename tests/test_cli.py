"""End-to-end CLI contract: output formats, exit codes, determinism."""

import dataclasses
import re
import subprocess
import sys

import numpy as np
import pytest

from chanleak import Channel, cli, measures, properties, write_channel_csv


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "chanleak", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@pytest.fixture(scope="module")
def channels(tmp_path_factory):
    root = tmp_path_factory.mktemp("channels")
    paths = {}
    for name, matrix in (
        ("bsc02", [[0.8, 0.2], [0.2, 0.8]]),
        ("bsc011", [[0.89, 0.11], [0.11, 0.89]]),
        ("const", [[0.3, 0.7], [0.3, 0.7]]),
        ("asym33", [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]),
    ):
        path = root / f"{name}.csv"
        write_channel_csv(Channel(np.array(matrix, dtype=float)), path)
        paths[name] = str(path)
    return paths


class TestCompute:
    def test_ldp_digits(self, channels):
        r = run_cli("compute", "--channel", channels["bsc02"], "--measure", "ldp")
        assert r.returncode == 0
        assert r.stdout == "1.386294361120\n"

    def test_bits_unit(self, channels):
        # log 4 in bits is exactly 2
        r = run_cli("compute", "--channel", channels["bsc02"], "--measure", "ldp", "--unit", "bits")
        assert r.stdout == "2.000000000000\n"

    def test_constant_channel_is_zero(self, channels):
        r = run_cli(
            "compute", "--channel", channels["const"], "--measure", "abl",
            "--alpha", "2", "--beta", "1.5",
        )
        assert r.returncode == 0
        assert r.stdout == "0.000000000000\n"

    def test_beta_at_alpha_matches_lrdp_digits(self, channels):
        a = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "2", "--beta", "2",
        )
        b = run_cli("compute", "--channel", channels["bsc02"], "--measure", "lrdp", "--alpha", "2")
        assert a.stdout == b.stdout == "1.178654996342\n"

    def test_inf_literals_select_exact_variants(self, channels):
        both = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "inf", "--beta", "inf",
        )
        assert both.stdout == "1.386294361120\n"
        at_one = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "inf", "--beta", "1",
        )
        maxl = run_cli("compute", "--channel", channels["bsc02"], "--measure", "maxl")
        assert at_one.stdout == maxl.stdout == "0.470003629246\n"

    def test_capacity_digits(self, channels):
        r = run_cli("compute", "--channel", channels["bsc011"], "--measure", "capacity")
        assert r.stdout == "0.346631843641\n"

    def test_report_fields(self, channels):
        r = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "4", "--beta", "2", "--report",
        )
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert re.fullmatch(r"0\.\d{12}", lines[0])
        assert lines[1] == "x_prime: 1"
        assert re.fullmatch(r"p_tilde:( 0\.\d{12}){2}", lines[2])
        assert re.fullmatch(r"iterations: \d+", lines[3])
        assert re.fullmatch(r"certified_gap: \d\.\d{3}e[-+]\d+", lines[4])
        assert lines[5] == "converged: true"

    def test_missing_file_exits_two(self, channels):
        r = run_cli("compute", "--channel", "no-such-file.csv", "--measure", "ldp")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert r.stdout == ""

    def test_missing_parameters_exit_two(self, channels):
        r = run_cli("compute", "--channel", channels["bsc02"], "--measure", "abl", "--alpha", "2")
        assert r.returncode == 2
        r = run_cli("compute", "--channel", channels["bsc02"], "--measure", "lrdp")
        assert r.returncode == 2

    def test_illegal_orders_exit_two(self, channels):
        r = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "1", "--beta", "2",
        )
        assert r.returncode == 2
        for tau in ("1.5", "inf"):
            r = run_cli(
                "compute", "--channel", channels["bsc02"], "--measure", "alpha-tau",
                "--alpha", "2", "--tau", tau,
            )
            assert r.returncode == 2

    def test_infinite_tolerance_exits_two(self, channels):
        # an infinite tolerance would certify the start point's value
        for command in (("compute", "--measure", "abl", "--beta", "2", "--report"), ("sweep", "--beta", "2")):
            r = run_cli(*command[:1], "--channel", channels["asym33"], "--alpha", "4",
                        *command[1:], "--tolerance", "inf")
            assert r.returncode == 2
            assert r.stderr.startswith("error:")
            assert r.stdout == ""

    def test_unknown_measure_exits_two(self, channels):
        r = run_cli("compute", "--channel", channels["bsc02"], "--measure", "entropy")
        assert r.returncode == 2

    def test_corrupt_csv_exits_two(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.5,oops\n")
        r = run_cli("compute", "--channel", str(bad), "--measure", "ldp")
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_nonconvergence_exits_three_with_value(self, channels):
        r = run_cli(
            "compute", "--channel", channels["asym33"], "--measure", "abl",
            "--alpha", "2", "--beta", "1", "--tolerance", "1e-18",
        )
        assert r.returncode == 3
        value = float(r.stdout.splitlines()[0])
        assert value == pytest.approx(0.341556946085, abs=1e-6)
        assert "warning:" in r.stderr

    def test_uncertified_capacity_exits_three_with_value(self, channels):
        args = ("compute", "--channel", channels["asym33"], "--measure", "capacity", "--tolerance", "1e-18")
        r = run_cli(*args)
        assert r.returncode == 3
        assert r.stdout == "0.230739458559\n"
        assert re.match(r"warning: search gap \d\.\d{3}e-\d+ exceeds the tolerance", r.stderr)
        # --report prints the capacity loop's own figures; capacity has no x'
        lines = run_cli(*args, "--report").stdout.splitlines()
        assert lines[0] == "0.230739458559"
        assert re.fullmatch(r"iterations: \d+", lines[1])
        assert lines[3] == "converged: false"
        assert not any(line.startswith(("x_prime", "p_tilde")) for line in lines)


class TestSweep:
    def test_single_cell_reproduces_compute(self, channels):
        sweep = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2", "--beta", "1.5")
        comp = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "abl",
            "--alpha", "2", "--beta", "1.5",
        )
        header, row = sweep.stdout.splitlines()
        assert header == "alpha,beta,value_nats"
        assert row == f"2,1.5,{comp.stdout.strip()}"

    def test_row_major_order(self, channels):
        r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2,4", "--beta", "1,2")
        cells = [line.split(",")[:2] for line in r.stdout.splitlines()[1:]]
        assert cells == [["2", "1"], ["2", "2"], ["4", "1"], ["4", "2"]]

    def test_infinite_row_equals_ldp(self, channels):
        r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "inf", "--beta", "inf")
        assert r.stdout.splitlines()[1] == "inf,inf,1.386294361120"

    def test_beta_column_is_monotone(self, channels):
        r = run_cli(
            "sweep", "--channel", channels["asym33"], "--alpha", "2",
            "--beta", "1,1.5,2,4,inf",
        )
        values = [float(line.split(",")[2]) for line in r.stdout.splitlines()[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_tau_header_and_endpoints(self, channels):
        r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2", "--tau", "0,0.5,1")
        lines = r.stdout.splitlines()
        assert lines[0] == "alpha,tau,value_nats"
        lrdp_out = run_cli("compute", "--channel", channels["bsc02"], "--measure", "lrdp", "--alpha", "2")
        assert lines[1] == f"2,0,{lrdp_out.stdout.strip()}"
        sibson = run_cli(
            "compute", "--channel", channels["bsc02"], "--measure", "max-alpha-l", "--alpha", "2",
        )
        assert lines[3] == f"2,1,{sibson.stdout.strip()}"

    def test_out_file_matches_stdout(self, channels, tmp_path):
        out = tmp_path / "sweep.csv"
        to_file = run_cli(
            "sweep", "--channel", channels["bsc02"], "--alpha", "2,inf", "--beta", "1,inf",
            "--out", str(out),
        )
        assert to_file.returncode == 0
        to_stdout = run_cli(
            "sweep", "--channel", channels["bsc02"], "--alpha", "2,inf", "--beta", "1,inf",
        )
        assert out.read_text() == to_stdout.stdout

    def test_unwritable_out_exits_two(self, channels):
        r = run_cli(
            "sweep", "--channel", channels["bsc02"], "--alpha", "2", "--beta", "1",
            "--out", "/nonexistent-dir/sweep.csv",
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error:")

    def test_beta_and_tau_are_mutually_exclusive(self, channels):
        r = run_cli(
            "sweep", "--channel", channels["bsc02"], "--alpha", "2",
            "--beta", "1", "--tau", "0.5",
        )
        assert r.returncode == 2
        r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2")
        assert r.returncode == 2

    def test_illegal_grid_entries_exit_two(self, channels, tmp_path):
        r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2", "--beta", "0.5")
        assert r.returncode == 2
        for tau in ("2", "inf"):
            r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2", "--tau", tau)
            assert r.returncode == 2
        # a bad last entry fails before any cell is solved or written
        out = tmp_path / "sweep.csv"
        for grid in (("--beta", "1,2,0.5"), ("--tau", "0,0.5,2"), ("--tau", "0,0.5,inf")):
            r = run_cli("sweep", "--channel", channels["bsc02"], "--alpha", "2,4", *grid, "--out", str(out))
            assert r.returncode == 2
            assert r.stdout == ""
            assert r.stderr.startswith("error:")
            assert not out.exists()

    def test_uncertified_cell_states_its_gap(self, channels):
        r = run_cli(
            "sweep", "--channel", channels["asym33"], "--alpha", "2", "--beta", "1,2",
            "--tolerance", "1e-18",
        )
        assert r.returncode == 3
        assert len(r.stdout.splitlines()) == 3
        assert re.fullmatch(
            r"warning: grid point \(2, 1\) did not certify convergence \(gap \d\.\d{3}e[-+]\d+\)\n",
            r.stderr,
        )


class TestVerify:
    def test_seeded_reports_are_byte_identical(self):
        first = run_cli("verify", "--random", "20", "--seed", "7")
        second = run_cli("verify", "--random", "20", "--seed", "7")
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0
        assert first.stdout.strip().endswith("14 of 14 properties passed")

    def test_line_format(self):
        r = run_cli("verify", "--random", "1", "--seed", "0")
        lines = r.stdout.splitlines()
        for line in lines[:-1]:
            assert re.fullmatch(r"[a-z-]+\s+(PASS|FAIL)\s+worst_slack=-?\d\.\d{3}e[-+]\d+", line)
        assert lines[-1] == "14 of 14 properties passed"

    def test_property_names_in_order(self, capsys):
        assert cli.main(["verify", "--random", "1", "--seed", "5"]) == 0
        names = [line.split()[0] for line in capsys.readouterr().out.splitlines()[:-1]]
        assert names == [
            "non-negativity", "independence-zero", "beta-monotonicity", "tau-monotonicity",
            "tau-alpha-monotonicity", "data-processing", "additivity", "lrdp-bridge", "maxl-bridge",
            "ldp-bridge", "saddle-form", "grid-oracle", "definitional-lower-bound", "capacity-limit",
        ]

    def test_constant_channel_passes_everything(self, channels):
        r = run_cli("verify", "--channel", channels["const"], "--seed", "3")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout

    def test_explicit_channel_passes(self, channels):
        r = run_cli("verify", "--channel", channels["bsc02"], "--seed", "1")
        assert r.returncode == 0

    def test_channel_count_below_one_exits_two(self):
        for count in ("0", "-3"):
            r = run_cli("verify", "--random", count, "--seed", "5")
            assert r.returncode == 2
            assert r.stdout == ""
            assert "--random must be at least 1" in r.stderr

    def test_tolerance_must_be_positive_and_finite(self, channels):
        for value in ("0", "-1", "nan", "inf"):
            r = run_cli("verify", "--channel", channels["bsc02"], "--tolerance", value)
            assert r.returncode == 2
            assert r.stdout == ""
            assert "--tolerance must be a positive number" in r.stderr

    def test_each_channel_and_order_is_solved_once(self, monkeypatch, capsys):
        solved = []
        solve = measures.maximize_power_sum

        def counting(logP, colmax, alpha, beta, config):
            solved.append((logP.tobytes(), alpha, beta))
            return solve(logP, colmax, alpha, beta, config)

        monkeypatch.setattr(measures, "maximize_power_sum", counting)
        assert cli.main(["verify", "--random", "1", "--seed", "5"]) == 0
        assert capsys.readouterr().out.endswith("14 of 14 properties passed\n")
        assert solved
        assert len(set(solved)) == len(solved)

    def test_uncertified_capacity_fails_its_check(self, monkeypatch, capsys):
        solve = properties.maximize_information

        def capped(matrix, config):
            return dataclasses.replace(solve(matrix, config), converged=False)

        monkeypatch.setattr(properties, "maximize_information", capped)
        assert cli.main(["verify", "--random", "1", "--seed", "5"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^capacity-limit +FAIL  worst_slack=inf$", out, re.MULTILINE)
        assert out.endswith("13 of 14 properties passed\n")

    def test_allow_zeros_is_deterministic(self):
        first = run_cli("verify", "--random", "2", "--seed", "11", "--allow-zeros")
        second = run_cli("verify", "--random", "2", "--seed", "11", "--allow-zeros")
        assert first.stdout == second.stdout
        assert first.returncode == 0


class TestVerifyEdges:
    def test_unreachable_grid_oracle_is_skipped_not_passed(self, tmp_path, capsys):
        # the grid oracle takes at most 4 inputs; a 5x5 channel leaves it
        # nothing to check, and the count covers the checked properties
        path = tmp_path / "five.csv"
        write_channel_csv(Channel(np.random.default_rng(4).dirichlet(np.ones(5), size=5)), path)
        assert cli.main(["verify", "--channel", str(path), "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "grid-oracle                SKIP  every channel has more than 4 inputs" in lines
        for line in lines[:-1]:
            assert re.fullmatch(r"[a-z-]+\s+((PASS|FAIL)\s+worst_slack=-?\d\.\d{3}e[-+]\d+|SKIP\s+\S.*)", line)
        assert lines[-1] == "13 of 13 properties passed"

    @pytest.mark.parametrize("rows", [[[0.2, 0.3, 0.5]] * 3, [[0.2, 0.3, 0.5]]])
    def test_zero_values_give_a_positive_zero_slack(self, rows, tmp_path, capsys):
        # a constant channel and a 1x3 channel leak nothing at every order
        path = tmp_path / "zero.csv"
        write_channel_csv(Channel(np.array(rows)), path)
        assert cli.main(["verify", "--channel", str(path), "--seed", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "non-negativity             PASS  worst_slack=0.000e+00"


class TestSharedParser:
    def test_in_process_calls_print_what_fresh_processes_print(self, channels, monkeypatch, capsys):
        # argparse wraps its usage text at the terminal width; fix it for
        # both sides (the subprocesses inherit the environment)
        monkeypatch.setenv("COLUMNS", "80")
        abl = ["compute", "--channel", channels["asym33"], "--measure", "abl", "--alpha", "4", "--beta", "2"]
        calls = [
            [*abl, "--report"],
            abl,
            ["sweep", "--channel", channels["bsc02"], "--alpha", "2,inf", "--tau", "0,1"],
            ["compute", "--channel", channels["bsc02"], "--measure", "lrdp", "--alpha", "two"],
            ["compute", "--channel", channels["bsc02"], "--measure", "ldp"],
        ]
        for argv in calls:
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert cli._parser.cache_info().currsize == 1

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
        assert cli._parser() is cli._parser()

    def test_import_builds_no_parser(self):
        code = "import chanleak.cli as c; print(c._parser.cache_info().currsize)"
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert r.stdout == "0\n"


class TestTopLevel:
    def test_no_subcommand_exits_two(self):
        r = run_cli()
        assert r.returncode == 2

    def test_unknown_subcommand_exits_two(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_help_exits_zero(self):
        r = run_cli("--help")
        assert r.returncode == 0
        assert "compute" in r.stdout and "sweep" in r.stdout and "verify" in r.stdout
