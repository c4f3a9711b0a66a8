import csv
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import SWEEP_CONFIG, corrupt_solve, run_child
from evowaves import cli
from evowaves.cli import main
from evowaves.config import ConfigError, parse_scenario
from evowaves.rational import RationalMatrixFunction
from evowaves.signals import rho_norm
from evowaves.solver import solve_frequency

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


# a fresh interpreter that runs one command, prints the scipy modules it loaded
# and exits with the command's exit code
NO_SCIPY_CHILD = """
import sys
import evowaves
import evowaves.config

code = 0
if sys.argv[1] == "build":
    evowaves.config.load_scenario(sys.argv[2]).build()
else:
    from evowaves.cli import main

    code = main(sys.argv[1:])
print(sorted(name for name in sys.modules if name.startswith("scipy")))
sys.exit(code)
"""

# a fresh interpreter that runs the time stepper, which alone needs scipy: its LAPACK LU
TIMESTEP_CHILD = """
import sys
import evowaves.config
from evowaves.solver import solve_timestep

prob = evowaves.config.load_scenario(sys.argv[1]).build()
before = "scipy.linalg" in sys.modules
report = solve_timestep(prob)
sparse = any(name.startswith("scipy.sparse") for name in sys.modules)
print(before, "scipy.linalg" in sys.modules, sparse, report.residual_rel)
"""


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def kernels(draw, d: int, r: float) -> RationalMatrixFunction:
    """A d x d kernel: complex const, lin and residues, and 0 to 3 poles outside B(r, r)."""

    def complex_array(n: int, near: float | None = None) -> np.ndarray:
        numbers = FINITE if near is None else st.floats(-near, near)
        out = np.empty(n, dtype=complex)
        out.real, out.imag = (draw(st.lists(numbers, min_size=n, max_size=n)) for _ in range(2))
        return out

    def matrix() -> np.ndarray:
        # dump writes no all-zero m1 const or lin, so it reads back as +0
        a = complex_array(d * d).reshape(d, d)
        return a if a.any() else np.zeros((d, d), dtype=complex)

    const, lin = matrix(), matrix()
    poles = complex_array(draw(st.integers(0, 3)), near=50.0)
    assume(np.all(np.abs(poles - r) > 1.01 * r))
    assume(np.all(np.abs(poles[:, None] - poles)[np.triu_indices(poles.size, 1)] > 1e-3))
    residues = complex_array(poles.size * d * d)
    return RationalMatrixFunction(const, lin, poles, residues)


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

    @pytest.mark.parametrize("g_key", ["g_lin_re", "g_lin_im", "g_const_im", "g_poles_im", "g_res_re"])
    def test_robin_and_g_exclusive(self, g_key):
        bad = GOOD_CONFIG.replace("robin_k = 0.8", f"robin_k = 0.8\n{g_key} = 3.0")
        with pytest.raises(ConfigError, match=rf"line 20: .*robin_k.*not both \({g_key}"):
            parse_scenario(bad)

    def test_any_g_key_selects_the_boundary_kernel(self):
        sc = parse_scenario(GOOD_CONFIG.replace("robin_k = 0.8", "g_const_im = 0.5"))
        assert sc.robin_k is None and sc.g is not None
        assert sc.g.const.tolist() == [[0.5j]] and not sc.g.lin.any() and sc.g.n_poles == 0

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
            ("alpha = normal", "alpha = constant:nan"),
            ("alpha = normal", "alpha = constant:inf"),
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

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("m1_poles_re = -0.5", "m1_poles_re = -0.5\nm1_poles_im = 0.1 0.2", "m1_poles_im"),
            ("m1_res_re = 0.2 0 0 0.1", "m1_res_re = 0.2 0 0.1", "m1_res_re"),
            ("robin_k = 0.8", "g_poles_re = -1.0", "g_res_re"),
            ("m1_poles_re = -0.5", "m1_poles_re = 0.5", "m1_poles_re"),
            ("m1_poles_re = -0.5\nm1_res_re = 0.2 0 0 0.1", "m1_res_re = 0.2 0 0 0.1", "m1_res_re"),
        ],
        ids=["poles-im-length", "residue-count", "poles-without-residues", "pole-in-ball", "residues-without-poles"],
    )
    def test_malformed_kernel_exits_2(self, old, new, key, tmp_path, capsys):
        # the line at fault is the last one replaced; missing residues point at their poles
        text = GOOD_CONFIG.replace(old, new)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        err = capsys.readouterr().err
        assert f"config error: line {line}: " in err and key in err
        assert not (tmp_path / "o").exists()

    def test_dump_round_trip_equivalent(self):
        sc = parse_scenario(GOOD_CONFIG)
        sc2 = parse_scenario(sc.dump())
        assert sc2.dump() == sc.dump()
        p1, p2 = sc.build(), sc2.build()
        assert p1.grid == p2.grid
        assert np.array_equal(p1.f.values, p2.f.values)
        assert np.array_equal(p1.law.m0, p2.law.m0)

    @given(m1=kernels(2, 1.0), g=kernels(1, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_dump_rebuilds_every_kernel_bit(self, m1, g):
        sc = dataclasses.replace(parse_scenario(GOOD_CONFIG), m1=m1, g=g, robin_k=None)
        text = sc.dump()
        back = parse_scenario(text)
        for fn, read in ((m1, back.m1), (g, back.g)):
            for part in ("const", "lin", "poles", "residues"):
                a, b = getattr(fn, part), getattr(read, part)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), part
        assert back.dump() == text

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
        # the samples read back solve to the separable analytic source's solution
        assert prob.f.profiles is not None and prob2.f.profiles is None
        u, u2 = (solve_frequency(p).solution for p in (prob, prob2))
        assert rho_norm(u2.with_values(u2.values - u.values)) <= 1e-14 * rho_norm(u)


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
        # gamma0 = 0.9 and mu0 = 0.5: rho = 0.51 clears 1/(2r) but not mu0/gamma0
        text = GOOD_CONFIG.replace("rho = auto", "rho = 0.51").replace("m0_re = 1.5 0 0 1.0", "m0_re = 1.5 0 0 0.9")
        path.write_text(text)
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

    def test_empty_check_list_replaces_earlier_checks(self, tmp_path):
        # a run with no checks must not leave another scenario's rows in checks.csv
        root, out = TestShippedScenarios.scenarios_dir.parent, tmp_path / "o"
        assert main(["verify", "--config", str(root / "scenarios" / "default.cfg"), "--out", str(out)]) == 0
        assert len((out / "checks.csv").read_text().splitlines()) == 6
        memory = root / "bench" / "scenarios" / "memory.cfg"
        assert main(["verify", "--config", str(memory), "--out", str(out)]) == 0
        assert (out / "checks.csv").read_text().splitlines() == ["name,margin,tolerance,pass,details"]
        with open(out / "checks.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == []

    def test_seed_changes_margins_not_verdict(self, good_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify", "--config", good_cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["verify", "--config", good_cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "checks.csv").read_text() != (out2 / "checks.csv").read_text()

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_is_a_parse_error(self, good_cfg, tmp_path, capsys, monkeypatch, seed):
        # exit 2 from argparse, before any check runs: not numpy's error at exit 3
        def no_checks(*args, **kwargs):
            raise AssertionError("checks ran on a bad seed")

        monkeypatch.setattr(cli, "run_all_checks", no_checks)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", good_cfg, "--out", str(tmp_path / "o"), "--seed", seed])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def test_min_flux_failure_names_k(self, sweep_cfg, tmp_path, capsys):
        # k rho overflows in the [rho, i rho] product, and numpy's polyroots refuses
        # the coefficients: still exit 3 and one stderr line, which names the k
        code = main([
            "sweep-reflection", "--config", sweep_cfg, "--out", str(tmp_path / "o"),
            "--k-list", "1,1e308",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("solver error: k=1e+308: min_real_flux ")
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

    @pytest.mark.parametrize(
        "command,cfg", [("solve", "default.cfg"), ("sweep-reflection", "reflection.cfg")]
    )
    def test_overflowing_source_exit_3(self, command, cfg, tmp_path, capsys):
        # the operator is fine: the source spectrum overflows, and the error says so
        text = (self.scenarios_dir / cfg).read_text()
        assert "amplitude = 1.0" in text
        path = tmp_path / cfg
        path.write_text(text.replace("amplitude = 1.0", "amplitude = 1e308"))
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "solver error: the source spectrum is not finite at frequency s = 0: "
            "the source overflows its weighted transform\n"
        )
        assert not out.exists()

    def test_overflowing_residual_names_itself_alone_exit_3(self, tmp_path):
        # the sweep's solution is finite but its residual squares overflow: one
        # line names the cause, and no numpy RuntimeWarning precedes it
        text = (self.scenarios_dir / "reflection.cfg").read_text()
        path = tmp_path / "reflection.cfg"
        path.write_text(text.replace("amplitude = 1.0", "amplitude = 1e200"))
        out = tmp_path / "o"
        proc = run_child("-m", "evowaves.cli", "sweep-reflection", "--config", str(path), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr == "solver error: the residual norm overflowed at frequency s = 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_overflowing_corner_term_names_itself_exit_3(self, command, tmp_path):
        # k / dx overflows where the boundary faces are eliminated: one line names
        # that corner term, not a singular operator or non-finite samples
        text = (self.scenarios_dir / "default.cfg").read_text()
        assert "robin_k = 0.8" in text
        path = tmp_path / "k1e308.cfg"
        path.write_text(text.replace("robin_k = 0.8", "robin_k = 1e308"))
        out = tmp_path / "o"
        proc = run_child("-m", "evowaves.cli", command, "--config", str(path), "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr == (
            "solver error: the left boundary corner term flux * (n . alpha) / dx overflows "
            "at point 0 of 512 (flux = 1e+308+0j, dx = 0.03125)\n"
        )
        assert not out.exists()

    def test_non_finite_solution_names_its_time_exit_3(self, tmp_path):
        # at rho = 70, exp(rho t) times rounding overflows in the inverse
        # transform late in the window; the error names that grid time
        text = (self.scenarios_dir / "default.cfg").read_text().replace("rho = auto", "rho = 70")
        path = tmp_path / "rho70.cfg"
        path.write_text(text)
        out = str(tmp_path / "o")
        proc = run_child("-m", "evowaves.cli", "solve", "--config", str(path), "--out", out)
        assert proc.returncode == 3
        found = re.search(r"non-finite samples, the first at t = (\S+) \(row (\d+)\)\n", proc.stderr)
        sc = parse_scenario(text)
        assert found and float(found[1]) == pytest.approx(sc.t0 + int(found[2]) * sc.dt, abs=1e-12)

    # Every norm squares before it sums, so a finite source above about 1e154
    # overflows them: the sweep's residual sums overflow, which it reports as
    # such at s = 0 and exits 3, and solve reports NaN norms and exits 4.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2: norms that cannot overflow")
    @pytest.mark.parametrize(
        "command,cfg", [("solve", "default.cfg"), ("sweep-reflection", "reflection.cfg")]
    )
    def test_huge_finite_source_solves(self, command, cfg, tmp_path):
        text = (self.scenarios_dir / cfg).read_text()
        path = tmp_path / cfg
        path.write_text(text.replace("amplitude = 1.0", "amplitude = 1e200"))
        out = str(tmp_path / "o")
        proc = run_child("-m", "evowaves.cli", command, "--config", str(path), "--out", out)
        assert proc.returncode == 0, proc.stderr

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

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_non_positive_margin_loads_no_scipy(self, command, tmp_path):
        # default.cfg with g_lin_re = -1.0 in place of robin_k: the margin is negative
        # at every solved frequency, so solve takes every frequency's smallest Thomas
        # pivot.  None breaks down, so the pivoted LU, and scipy, are never loaded
        text = (TestShippedScenarios.scenarios_dir / "default.cfg").read_text()
        cfg = tmp_path / "inadmissible.cfg"
        cfg.write_text(text.replace("\nrobin_k = 0.8\n", "\ng_lin_re = -1.0\n"))
        assert "g_lin_re = -1.0" in cfg.read_text()
        proc = run_child("-c", NO_SCIPY_CHILD, command, "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_time_stepper_imports_scipy_linalg_not_sparse(self, good_cfg):
        proc = run_child("-c", TIMESTEP_CHILD, good_cfg)
        assert proc.returncode == 0, proc.stderr
        before, after, sparse, residual = proc.stdout.split()
        assert (before, after, sparse) == ("False", "True", "False")
        assert float(residual) < 0.1
