"""Command line behavior: flags, config files, outputs, exit codes."""

import csv
import subprocess
import sys

import pytest

from dpcvar.cli import _SUBCOMMANDS, build_parser, main


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRateCommands:
    def test_one_row_per_cell_plus_slope_file(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code, stdout, _ = run_cli(
            ["scalar-rate", "--seed", "5", "--out", str(out),
             "--n-grid", "100,400,1600", "--tau-grid", "0.5",
             "--eps-grid", "0.25", "--reps", "8"],
            capsys,
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["100", "400", "1600"]
        slope_rows = read_csv(tmp_path / "rates_slopes.csv")
        assert len(slope_rows) == 1
        assert slope_rows[0]["variable"] == "n"
        assert stdout.rstrip().splitlines()[-1].startswith("RESULT pass rows=3 slopes=1")

    def test_result_line_is_last(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, stdout, _ = run_cli(
            ["finite-rate", "--seed", "2", "--out", str(out), "--n-grid", "200",
             "--tau-grid", "0.25", "--eps-grid", "0.5", "--M-grid", "4",
             "--reps", "5"],
            capsys,
        )
        assert code == 0
        lines = stdout.rstrip().splitlines()
        assert lines[-1].startswith("RESULT pass ")
        assert sum(1 for ln in lines if ln.startswith("RESULT")) == 1

    def test_reruns_byte_identical(self, tmp_path, capsys):
        argv_for = lambda name: [
            "convex-rate", "--seed", "11", "--out", str(tmp_path / name),
            "--n-grid", "300", "--tau-grid", "0.5", "--eps-grid", "2.0",
            "--d-grid", "2", "--reps", "2", "--iters", "30",
        ]
        assert run_cli(argv_for("a.csv"), capsys)[0] == 0
        assert run_cli(argv_for("b.csv"), capsys)[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a_slopes.csv").read_bytes() == (
            tmp_path / "b_slopes.csv"
        ).read_bytes()

    def test_convex_delta_column_defaults_to_inverse_n_squared(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["convex-rate", "--seed", "1", "--out", str(out), "--n-grid", "200",
             "--tau-grid", "0.5", "--eps-grid", "2.0", "--d-grid", "2",
             "--reps", "1", "--iters", "10"],
            capsys,
        )
        assert code == 0
        assert float(read_csv(out)[0]["delta"]) == pytest.approx(1.0 / 200 ** 2)

    def test_explicit_delta_flag_lands_in_column(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["convex-rate", "--seed", "1", "--out", str(out), "--n-grid", "500",
             "--tau-grid", "0.5", "--eps-grid", "2.0", "--d-grid", "2",
             "--reps", "1", "--iters", "10", "--delta", "0.000001"],
            capsys,
        )
        assert code == 0
        assert float(read_csv(out)[0]["delta"]) == pytest.approx(1e-6)

    def test_exponent_scope_note_precedes_result(self, tmp_path, capsys):
        code, stdout, _ = run_cli(
            ["scalar-rate", "--seed", "4", "--out", str(tmp_path / "n.csv"),
             "--n-grid", "100", "--tau-grid", "0.5", "--eps-grid", "0.5",
             "--reps", "2"],
            capsys,
        )
        assert code == 0
        lines = stdout.rstrip().splitlines()
        assert any("exponents and ratio laws" in line for line in lines[:-1])


class TestUsageErrors:
    def test_missing_out_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scalar-rate", "--seed", "5"])
        assert exc.value.code == 2

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scalar-rate", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quantile-rate", "--seed", "1"])
        assert exc.value.code == 2

    def test_malformed_grid_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
                  "--n-grid", "10,abc"])
        assert exc.value.code == 2

    def test_capped_cell_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
             "--n-grid", "100", "--tau-grid", "0.001"],
            capsys,
        )
        assert code == 2
        assert "allow_capped" in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("warp-factor = 9\n")
        code, _, err = run_cli(
            ["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "warp-factor" in err

    def test_bad_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("threads = abc\n")
        code, _, err = run_cli(
            ["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "threads" in err

    @pytest.mark.parametrize("argv, message", [
        (["convex-rate", "--iters", "0"], "iterations"),
        (["convex-rate", "--D", "0"], "diameter"),
        (["convex-rate", "--step-rule", "classic"], "step-rule"),
        (["mech-audit", "--M-grid", "1"], "M >= 2"),
        (["mech-audit", "--draws", "0"], "draws"),
        (["embed-check", "--trials", "0"], "trials"),
        (["sensitivity-audit", "--n-max", "0"], "n_max"),
        (["sensitivity-audit", "--levels", "1"], "value_levels"),
        # 50**8 x 8 and 5**40 x 40 entries: validation rejects them before allocating
        (["sensitivity-audit", "--levels", "50", "--n-max", "8"], "over the cap"),
        (["sensitivity-audit", "--n-max", "40"], "over the cap"),
        # mech-audit runs one (n, tau, eps) cell; a longer grid was read only at its head
        (["mech-audit", "--n-grid", "200,5"], "one n value"),
        (["mech-audit", "--tau-grid", "0.25,0.001"], "one tau value"),
        (["mech-audit", "--eps-grid", "0.5,1000"], "one eps value"),
        # absolute constants are fixed, not options; audits never read --threads
        (["scalar-rate", "--c1", "0.2"], "--c1"),
        (["finite-rate", "--c0", "0.2"], "--c0"),
        (["mech-audit", "--threads", "2"], "--threads"),
        # a prefix is no second spelling: --n once ran as --n-max, and --t was ambiguous
        (["sensitivity-audit", "--n", "3"], "unrecognized arguments: --n 3"),
        (["embed-check", "--t", "5"], "unrecognized arguments: --t 5"),
        # non-finite or zero budgets and constants once exited 1; --gamma nan passed
        (["scalar-rate", "--eps-grid", "inf"], "epsilons must be positive and finite"),
        (["scalar-rate", "--pair-eps", "0"], "pair_eps"),
        (["finite-rate", "--pair-eps", "nan"], "pair_eps"),
        (["scalar-rate", "--B", "nan"], "B, G, D must be finite"),
        (["finite-rate", "--B", "inf"], "B, G, D must be finite"),
        (["convex-rate", "--G", "inf"], "B, G, D must be finite"),
        (["convex-rate", "--D", "nan"], "B, G, D must be finite"),
        (["convex-rate", "--gamma", "nan"], "gamma"),
        # finite options whose noise scale is not: each once passed validation, then exited 1
        (["convex-rate", "--reps", "2", "--iters", "5", "--delta", "1e-308"],
         "no finite Gaussian scale"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--eps-grid", "1e-310"],
         "no finite Gaussian scale"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--D", "1e-320"],
         "l2 sensitivity must be finite"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--G", "1e308", "--B", "1e308"],
         "l2 sensitivity must be finite"),
        (["scalar-rate", "--reps", "2", "--B", "1e308", "--eps-grid", "1e-300"],
         "no finite Laplace scale"),
        # finite options whose step size overflows or divides by zero: each once exited 1
        (["convex-rate", "--reps", "2", "--iters", "5", "--D", "1e300"], "convex cell"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--G", "1e154"], "convex cell"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--G", "1e150", "--eps-grid", "1e-10"],
         "convex cell"),
        (["convex-rate", "--reps", "2", "--iters", "5", "--D", "1e200", "--B", "1e-300"],
         "convex cell"),
    ])
    def test_out_of_range_option_exits_2(self, argv, message, tmp_path, capsys):
        # each of these once crashed with exit 1 or passed without checking anything
        argv = [*argv, "--seed", "1", "--out", str(tmp_path / "x.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("embed-check", "threads"), ("sensitivity-audit", "tau"), ("mech-audit", "c0"),
    ])
    def test_audit_config_key_it_does_not_read_exits_2(self, command, key, tmp_path, capsys):
        # each key, at a legal value, was once accepted: threads unread, tau as a
        # second spelling of tau-grid, c0 as the packing constant
        cfg = tmp_path / "audit.cfg"
        cfg.write_text(f"{key} = 1\n")
        code, _, err = run_cli([command, "--seed", "1", "--config", str(cfg)], capsys)
        assert code == 2
        assert repr(key) in err

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_bytes(b"reps = 5 # \xff\xfe\n")
        code, _, err = run_cli(
            ["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "cannot read config file" in err

    @pytest.mark.parametrize("out", ["nope/x.csv", "."])
    def test_bad_out_path_exits_2_before_any_cell(self, out, tmp_path, capsys, monkeypatch):
        # both once exited 1, and only after the whole sweep had run
        import dpcvar.harness as harness

        monkeypatch.setattr(harness, "_run_cells", lambda jobs, threads: pytest.fail("ran"))
        code, _, err = run_cli(["scalar-rate", "--seed", "1", "--out", str(tmp_path / out)],
                               capsys)
        assert code == 2
        assert "is a directory or in one that does not exist" in err

    @pytest.mark.parametrize("option", [["--delta", "1e-320"], ["--eps-grid", "1e-310"]])
    def test_overflowing_single_release_calibration_exits_2(self, option, tmp_path):
        # each once bisected forever; a subprocess with a timeout keeps a regression from hanging
        proc = subprocess.run(
            [sys.executable, "-m", "dpcvar.cli", "convex-rate", "--seed", "1",
             "--out", str(tmp_path / "e.csv"), "--reps", "2", "--iters", "1", *option],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "no finite Gaussian scale" in proc.stderr

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scalar-rate", "--seed", "1", "--out", str(tmp_path / "x.csv"),
             "--config", str(tmp_path / "nope.cfg")],
            capsys,
        )
        assert code == 2
        assert "config" in err


class TestConfigFile:
    def test_flags_override_config_values(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "# two-cell smoke sweep\n"
            "n-grid = 100,400\n"
            "tau-grid = 0.5\n"
            "eps-grid = 0.9\n"
            "reps = 6\n"
        )
        flag_out = tmp_path / "flags.csv"
        run_cli(
            ["scalar-rate", "--seed", "5", "--out", str(flag_out),
             "--n-grid", "100,400", "--tau-grid", "0.5", "--eps-grid", "0.3",
             "--reps", "6"],
            capsys,
        )
        merged_out = tmp_path / "merged.csv"
        code, _, _ = run_cli(
            ["scalar-rate", "--seed", "5", "--out", str(merged_out),
             "--config", str(cfg), "--eps-grid", "0.3"],
            capsys,
        )
        assert code == 0
        assert flag_out.read_bytes() == merged_out.read_bytes()

    def test_config_value_used_when_flag_absent(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n-grid = 250\ntau-grid = 0.5\neps-grid = 0.7\nreps = 4\n")
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            ["scalar-rate", "--seed", "3", "--out", str(out), "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        row = read_csv(out)[0]
        assert row["n"] == "250"
        assert float(row["eps"]) == pytest.approx(0.7)


class TestAuditCommands:
    def test_sensitivity_audit_passes(self, capsys):
        code, stdout, _ = run_cli(
            ["sensitivity-audit", "--seed", "1", "--n-max", "4", "--levels", "4"],
            capsys,
        )
        assert code == 0
        assert stdout.rstrip().splitlines()[-1].startswith("RESULT pass ")

    @pytest.mark.parametrize("argv, stdout", [
        (["sensitivity-audit", "--seed", "1", "--n-max", "6"],
         "witness: n=6 tau=1.0 sample=[1.0, 0.0, 0.25, 1.0, 1.0, 1.0] record=0 new_value=0.0\n"
         "RESULT pass max_change=1 bound=1 max_dev=8.32667e-17\n"),
        (["sensitivity-audit", "--seed", "1", "--n-max", "4", "--levels", "4", "--B", "2.5"],
         "witness: n=3 tau=0.5 sample=[2.5, 0.0, 0.0] record=0 new_value=0.0\n"
         "RESULT pass max_change=2.5 bound=2.5 max_dev=2.22045e-16\n"),
        (["mech-audit", "--seed", "2", "--M-grid", "2,8", "--draws", "5000",
          "--trials", "200", "--B", "1"],
         "RESULT pass max_tv=0.0197664 tv_limit=0.02 max_shortfall_ratio=0.0251669\n"),
        (["mech-audit", "--seed", "2", "--M-grid", "2,8", "--draws", "5000",
          "--trials", "200", "--B", "0.3"],
         "RESULT pass max_tv=0.0197664 tv_limit=0.02 max_shortfall_ratio=0.0251669\n"),
    ])
    def test_audit_stdout_is_pinned(self, argv, stdout, capsys):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == stdout

    def test_audit_scalar_flag_spellings(self, capsys):
        code, stdout, _ = run_cli(
            ["sensitivity-audit", "--seed", "1", "--n-max", "3", "--tau-grid", "0.5",
             "--B", "1"],
            capsys,
        )
        assert code == 0
        assert "max_change=" in stdout
        code, stdout, _ = run_cli(
            ["mech-audit", "--seed", "2", "--M-grid", "2", "--draws", "5000",
             "--trials", "50"],
            capsys,
        )
        assert code == 0

    def test_embed_check_writes_report(self, tmp_path, capsys):
        report = tmp_path / "embed.txt"
        code, stdout, _ = run_cli(
            ["embed-check", "--seed", "2", "--trials", "10", "--out", str(report)],
            capsys,
        )
        assert code == 0
        text = report.read_text()
        assert text.rstrip().splitlines()[-1].startswith("RESULT pass ")
        assert text.rstrip().splitlines()[-1] in stdout

    def test_failed_audit_exits_3(self, capsys):
        code, stdout, _ = run_cli(
            ["mech-audit", "--seed", "0", "--M-grid", "8", "--draws", "60",
             "--trials", "10"],
            capsys,
        )
        assert code == 3
        assert stdout.rstrip().splitlines()[-1].startswith("RESULT fail ")

    def test_mech_audit_passes_at_default_scale(self, capsys):
        code, stdout, _ = run_cli(
            ["mech-audit", "--seed", "1", "--M-grid", "2,8", "--draws", "30000",
             "--trials", "400"],
            capsys,
        )
        assert code == 0
        assert "max_tv=" in stdout


class TestEntryPoint:
    def test_module_invocation_round_trip(self, tmp_path):
        out = tmp_path / "rates.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "dpcvar.cli", "scalar-rate", "--seed", "8",
             "--out", str(out), "--n-grid", "100", "--tau-grid", "0.5",
             "--eps-grid", "0.5", "--reps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.rstrip().splitlines()[-1].startswith("RESULT pass ")
        assert out.exists()

    def test_each_command_registers_its_flags_once(self):
        # one spelling per flag, and only the flags the command reads
        parser = build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(commands) == set(_SUBCOMMANDS)
        for name, sub in commands.items():
            spellings = {s for a in sub._actions for s in a.option_strings}
            expected = {"-h", "--help", "--seed", "--out", "--config"}
            expected |= {f"--{flag}" for flag in _SUBCOMMANDS[name]["flags"]}
            assert spellings == expected
            assert set(_SUBCOMMANDS[name]["defaults"]) <= set(_SUBCOMMANDS[name]["flags"])
        threaded = {name for name, entry in _SUBCOMMANDS.items() if "threads" in entry["flags"]}
        assert threaded == {"scalar-rate", "finite-rate", "convex-rate"}

    def test_help_mentions_each_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        stdout = capsys.readouterr().out
        for name in ("scalar-rate", "finite-rate", "convex-rate",
                     "sensitivity-audit", "mech-audit", "embed-check"):
            assert name in stdout
