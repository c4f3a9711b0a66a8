import numpy as np
import pytest

from conftest import SWEEP_CONFIG, corrupt_solve, run_child
from evowaves import cli
from evowaves.cli import main
from evowaves.config import ConfigError, parse_scenario

GOOD_CONFIG = """
[grid]
t0 = -4.8
window = 16.0
n = 256
rho = auto

[space]
length = 1.0
cells = 16

[material]
r = 1.0
m0_re = 1.5 0 0 1.0
m1_const_re = 0.1 0 0 0.05
m1_poles_re = -0.5
m1_res_re = 0.2 0 0 0.1

[boundary]
robin_k = 0.8
alpha = normal

[source]
kind = gaussian
component = p
amplitude = 1.0
t_center = 1.0
t_width = 0.4
x_center = 0.5
x_width = 0.12

[output]
checks = positivity_1 boundary_sign
"""


# a fresh interpreter that runs one command and prints the scipy modules it loaded
NO_SCIPY_CHILD = """
import sys
import evowaves
import evowaves.config

if sys.argv[1] == "build":
    evowaves.config.load_scenario(sys.argv[2]).build()
else:
    from evowaves.cli import main

    if main(sys.argv[1:]) != 0:
        sys.exit("the command failed")
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""

# a fresh interpreter that runs the time stepper, which alone needs scipy
TIMESTEP_CHILD = """
import sys
import evowaves.config
from evowaves.solver import solve_timestep

prob = evowaves.config.load_scenario(sys.argv[1]).build()
before = "scipy.sparse.linalg" in sys.modules
report = solve_timestep(prob)
print(before, "scipy.sparse.linalg" in sys.modules, report.residual_rel)
"""


@pytest.fixture
def good_cfg(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(GOOD_CONFIG)
    return str(path)


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_CONFIG)
    return str(path)


class TestParsing:
    def test_full_scenario(self):
        sc = parse_scenario(GOOD_CONFIG)
        assert sc.n == 256 and sc.cells == 16
        assert sc.rho == "auto"
        assert sc.robin_k == 0.8
        assert sc.checks == ("positivity_1", "boundary_sign")
        assert sc.m1.n_poles == 1

    def test_builds_problem(self):
        prob = parse_scenario(GOOD_CONFIG).build()
        assert prob.sd.n_cells == 16
        assert prob.grid.rho > 0.5

    def test_malformed_line_number_reported(self):
        bad = GOOD_CONFIG.replace("n = 256", "n = lots")
        with pytest.raises(ConfigError, match=r"line 5"):
            parse_scenario(bad)

    def test_unknown_key_line_number(self):
        bad = GOOD_CONFIG.replace("cells = 16", "cells = 16\nfrogs = 2")
        with pytest.raises(ConfigError, match="frogs"):
            parse_scenario(bad)

    def test_duplicate_key_rejected(self):
        bad = GOOD_CONFIG.replace("length = 1.0", "length = 1.0\nlength = 2.0")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_scenario(bad)

    def test_missing_section_rejected(self):
        bad = GOOD_CONFIG.replace("[source]", "[output2]")
        with pytest.raises(ConfigError):
            parse_scenario(bad)

    def test_robin_and_g_exclusive(self):
        bad = GOOD_CONFIG.replace("robin_k = 0.8", "robin_k = 0.8\ng_lin_re = 1.0")
        with pytest.raises(ConfigError, match="not both"):
            parse_scenario(bad)

    def test_unknown_check_rejected(self):
        bad = GOOD_CONFIG.replace("boundary_sign", "vibes")
        with pytest.raises(ConfigError, match="vibes"):
            parse_scenario(bad)

    @pytest.mark.parametrize(
        "old, new",
        [
            ("t0 = -4.8", "t0 = inf"),
            ("amplitude = 1.0", "amplitude = nan"),
            ("length = 1.0", "length = -1.0"),
            ("x_width = 0.12", "x_width = inf"),
        ],
    )
    def test_nonfinite_or_nonpositive_length_exits_2(self, old, new, tmp_path, capsys):
        text = GOOD_CONFIG.replace(old, new)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        line = text.splitlines().index(new) + 1
        assert f"config error: line {line}: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dump_round_trip_equivalent(self):
        sc = parse_scenario(GOOD_CONFIG)
        sc2 = parse_scenario(sc.dump())
        assert sc2.dump() == sc.dump()
        p1, p2 = sc.build(), sc2.build()
        assert p1.grid == p2.grid
        assert np.array_equal(p1.f.values, p2.f.values)
        assert np.array_equal(p1.law.m0, p2.law.m0)

    def test_csv_source_round_trip(self, tmp_path):
        from evowaves.signals import write_signal_csv

        sc = parse_scenario(GOOD_CONFIG)
        prob = sc.build()
        csv_path = tmp_path / "src.csv"
        write_signal_csv(prob.f, str(csv_path))
        text = GOOD_CONFIG.replace(
            "kind = gaussian", "kind = csv"
        ).replace("component = p", f"path = {csv_path}")
        prob2 = parse_scenario(text).build()
        assert np.array_equal(prob2.f.values, prob.f.values)


class TestCliSolve:
    def test_solve_writes_outputs(self, good_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--config", good_cfg, "--out", str(out)])
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["U.csv", "report.txt"]
        assert "energy_ratio" in capsys.readouterr().out

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(GOOD_CONFIG.replace("n = 256", "n = lots"))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "line 5" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_rho_below_threshold_exit_3(self, tmp_path, capsys):
        path = tmp_path / "lowrho.cfg"
        path.write_text(GOOD_CONFIG.replace("rho = auto", "rho = 0.51"))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "mu0/gamma0" in capsys.readouterr().err

    def test_corrupted_solve_exit_4(self, good_cfg, tmp_path, capsys, monkeypatch):
        corrupt_solve(monkeypatch)
        assert main(["solve", "--config", good_cfg, "--out", str(tmp_path / "o")]) == 4
        assert "residual_ok=False" in capsys.readouterr().err

    def test_deterministic_csv(self, good_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", good_cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", good_cfg, "--out", str(out2)]) == 0
        assert (out1 / "U.csv").read_bytes() == (out2 / "U.csv").read_bytes()

    def test_deterministic_report(self, tmp_path):
        # every line but wall_time_s repeats, on a finer grid (399 unknowns)
        path = tmp_path / "fine.cfg"
        path.write_text(GOOD_CONFIG.replace("cells = 16", "cells = 200"))
        reports = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
            lines = (out / "report.txt").read_bytes().splitlines(keepends=True)
            reports.append(b"".join(ln for ln in lines if not ln.startswith(b"wall_time_s")))
        assert reports[0] == reports[1]

    def test_dump_config_flag_round_trips(self, good_cfg, tmp_path, capsys):
        assert main(["dump-config", "--config", good_cfg]) == 0
        dumped = capsys.readouterr().out
        sc2 = parse_scenario(dumped)
        assert sc2.dump() == dumped


class TestCliVerify:
    def test_admissible_exit_0(self, good_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["verify", "--config", good_cfg, "--out", str(out)])
        assert code == 0
        assert (out / "checks.csv").exists()
        assert "pass" in capsys.readouterr().out

    def test_inadmissible_boundary_exit_4(self, tmp_path, capsys):
        path = tmp_path / "neg.cfg"
        path.write_text(GOOD_CONFIG.replace("robin_k = 0.8", "g_lin_re = -1.0"))
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "boundary_sign" in err

    def test_empty_check_list_warns_exit_0(self, tmp_path, capsys):
        path = tmp_path / "none.cfg"
        path.write_text(GOOD_CONFIG.replace(
            "checks = positivity_1 boundary_sign", "checks = none"
        ))
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert "warning" in capsys.readouterr().out

    def test_seed_changes_margins_not_verdict(self, good_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", good_cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["verify", "--config", good_cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "checks.csv").read_text() != (out2 / "checks.csv").read_text()

    def test_verify_deterministic_given_seed(self, good_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["verify", "--config", good_cfg, "--out", str(out), "--seed", "5"]) == 0
        assert (out1 / "checks.csv").read_bytes() == (out2 / "checks.csv").read_bytes()


class TestCliSweep:
    def test_reflection_small_grid(self, sweep_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(out),
            "--k-list", "0,1,4",
        ])
        assert code == 0
        table = (out / "reflection.csv").read_text().splitlines()
        assert table[0].startswith("k,R_measured,R_analytic")
        assert len(table) == 4
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all("residual_bound=" in line for line in lines)

    def test_reflection_csv_repeats(self, sweep_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            argv = ["sweep-reflection", "--config", sweep_cfg, "--out", str(out), "--k-list", "0,0.5,4"]
            assert main(argv) == 0
        assert (out1 / "reflection.csv").read_bytes() == (out2 / "reflection.csv").read_bytes()

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_exit_2(self, sweep_cfg, tmp_path, k):
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(tmp_path / "o"),
            "--k-list", f"0,{k}",
        ])
        assert code == 2
        assert not (tmp_path / "o" / "reflection.csv").exists()

    @pytest.mark.parametrize("k", ["-1", "-0.5"])
    def test_inadmissible_k_exit_4_before_solving(self, sweep_cfg, tmp_path, capsys, monkeypatch, k):
        def no_solve(*args, **kwargs):
            raise AssertionError("an inadmissible k-list was solved")

        monkeypatch.setattr(cli, "solve_boundary_family", no_solve)
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(tmp_path / "o"),
            "--k-list", f"1,{k}",
        ])
        assert code == 4
        assert f"k={k} min_real_flux={k}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "reflection.csv").exists()

    def test_residual_above_pass_exit_4(self, sweep_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "RESIDUAL_PASS", 0.0)
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(tmp_path / "o"),
            "--k-list", "1",
        ])
        assert code == 4
        assert "k=1 residual_rel=" in capsys.readouterr().err

    def test_requires_rightward_source(self, good_cfg, tmp_path):
        code = main(["sweep-reflection", "--config", good_cfg, "--out", str(tmp_path / "o")])
        assert code == 2

    def test_empty_k_list_rejected(self, sweep_cfg, tmp_path):
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(tmp_path / "o"),
            "--k-list", "",
        ])
        assert code == 2


class TestCliOutputErrors:
    @pytest.mark.parametrize(
        "argv", [["solve"], ["verify"], ["sweep-reflection", "--k-list", "0"]]
    )
    def test_out_below_a_file_exit_3(self, good_cfg, sweep_cfg, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = blocker / "out"
        cfg = sweep_cfg if argv[0] == "sweep-reflection" else good_cfg
        assert main([*argv, "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "output error" in err and str(out) in err

    def test_unwritable_u_csv_exit_3(self, good_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "U.csv").mkdir(parents=True)
        assert main(["solve", "--config", good_cfg, "--out", str(out)]) == 3
        assert str(out / "U.csv") in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["U.csv"]


class TestCliSourceErrors:
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_missing_csv_source_exit_3(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)  # the relative path resolves here, to no file
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(
            GOOD_CONFIG.replace("kind = gaussian", "kind = csv").replace(
                "component = p", "path = missing.csv"
            )
        )
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("source error:") and "missing.csv" in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestShippedScenarios:
    scenarios_dir = __import__("pathlib").Path(__file__).resolve().parent.parent / "scenarios"

    def test_default_scenario_builds_and_verifies(self, tmp_path):
        cfg = self.scenarios_dir / "default.cfg"
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_causality_violation_exit_4(self, tmp_path, capsys):
        # a source centred near the window end wraps around: the residual and
        # the energy bound still pass, but the causality margin does not
        text = (self.scenarios_dir / "default.cfg").read_text()
        path = tmp_path / "late.cfg"
        path.write_text(text.replace("t_center = 1.0", "t_center = 10.5"))
        code = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "residual_ok=True" in err and "energy_bound_ok=True" in err
        assert "causality_ok=False" in err

    def test_reflection_scenario_parses_and_builds(self):
        from evowaves.config import load_scenario

        sc = load_scenario(str(self.scenarios_dir / "reflection.cfg"))
        assert sc.source_kind == "rightward"
        prob = sc.build()
        assert prob.sd.n_cells == 512


class TestCliMisc:
    def test_dump_config_subcommand(self, good_cfg, capsys):
        assert main(["dump-config", "--config", good_cfg]) == 0
        assert "[grid]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--dump-config"],
            ["verify", "--dump-config"],
            ["solve", "--seed", "7"],
            ["sweep-reflection", "--seed", "7"],
            ["dump-config", "--seed", "7"],
            ["dump-config", "--out", "o"],
        ],
    )
    def test_dead_flags_rejected(self, good_cfg, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", good_cfg])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_console_entry_point(self, good_cfg):
        proc = run_child("-m", "evowaves.cli", "dump-config", "--config", good_cfg)
        assert proc.returncode == 0
        assert "[grid]" in proc.stdout

    @pytest.mark.parametrize("command", ["build", "solve", "verify", "sweep-reflection", "dump-config"])
    def test_cli_path_loads_no_scipy(self, command, sweep_cfg, tmp_path):
        # scipy is imported only where the time stepper and the pivoted fallback use it
        default, out = str(TestShippedScenarios.scenarios_dir / "default.cfg"), str(tmp_path / "o")
        argv = {
            "build": [default],
            "solve": ["--config", default, "--out", out],
            "verify": ["--config", default, "--out", out],
            "sweep-reflection": ["--config", sweep_cfg, "--out", out, "--k-list", "0,1"],
            "dump-config": ["--config", default],
        }[command]
        proc = run_child("-c", NO_SCIPY_CHILD, command, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_time_stepper_imports_scipy_sparse_linalg(self, good_cfg):
        proc = run_child("-c", TIMESTEP_CHILD, good_cfg)
        assert proc.returncode == 0, proc.stderr
        before, after, residual = proc.stdout.split()
        assert (before, after) == ("False", "True")
        assert float(residual) < 0.1
