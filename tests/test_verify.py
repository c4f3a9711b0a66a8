import csv
import dataclasses
import os
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import flux_boundary, identity_law, make_problem, run_child, zero_signal
from evowaves import signals, verify
from evowaves.cli import main
from evowaves.config import load_scenario
from evowaves.rational import scalar_rational
from evowaves.signals import rho_norm, truncate_before
from evowaves.solver import EvoProblem, SolverError
from evowaves.spatial import BoundaryLaw, ReducedOperator
from evowaves.verify import (
    ALL_CHECKS,
    CheckResult,
    check_adjoint_projection,
    check_boundary_sign,
    check_causal_estimate,
    check_positivity,
    check_positivity_shift_invariance,
    run_all_checks,
    write_checks_csv,
)


def negative_boundary(prob):
    bl = BoundaryLaw(
        scalar_rational(lin=-1.0), BoundaryLaw.normal_profile(prob.sd), 1.0
    )
    return dataclasses.replace(prob, bl=bl)


class TestCheckResult:
    def test_pass_rule(self):
        assert CheckResult("x", 0.0, 1e-9).passed
        assert CheckResult("x", -5e-10, 1e-9).passed
        assert not CheckResult("x", -2e-9, 1e-9).passed

    def test_nonfinite_rejected(self):
        for margin in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CheckResult("x", margin, 1e-9)

    def test_minus_infinity_fails(self):
        # boundary_sign's margin for a flux unbounded below
        assert not CheckResult("x", -np.inf, 1e-9).passed


class TestPositivity:
    def test_admissible_passes(self, problem):
        res = check_positivity(problem, seed=0)
        assert res.passed
        assert "worst" in res.details

    def test_identity_neumann_margin(self):
        # no memory, no boundary coupling: margin stays above -1e-6
        prob = make_problem(robin_k=None, law=identity_law())
        res = check_positivity(prob, seed=0)
        assert res.margin >= -1e-6

    def test_negative_boundary_fails(self, problem):
        res = check_positivity(negative_boundary(problem), seed=0)
        assert res.margin < 0 and not res.passed

    def test_deterministic(self, problem):
        a = check_positivity(problem, seed=3)
        b = check_positivity(problem, seed=3)
        assert a.margin == b.margin

    def test_margin_monotone_in_rho(self):
        margins = [
            check_positivity(make_problem(rho=rho), seed=0).margin
            for rho in (3.0, 6.0, 12.0)
        ]
        assert margins[0] <= margins[1] <= margins[2]


class TestShiftInvariance:
    def test_reweighted_margins_agree(self, problem):
        res = check_positivity_shift_invariance(problem, seed=1)
        assert res.passed
        assert res.margin >= -1e-8

    def test_edge_window_inconclusive(self):
        # four samples: the +-2dt cut shifts reach the window edges exactly
        prob = make_problem(n=4, n_cells=8, window=0.05, t0_frac=-0.5, t_width=0.01)
        res = check_positivity_shift_invariance(prob, seed=1)
        assert "inconclusive" in res.details

    def test_time_varying_operator_fails(self, monkeypatch):
        # T v scaled by 1 + 0.5 (t - t0) / window is not translation invariant:
        # the reweighted margins at the three cuts no longer agree
        prob = load_scenario(DEFAULT_CFG).build()
        grid = prob.grid
        ramp = 1.0 + 0.5 * (grid.times - grid.t0) / (grid.n * grid.dt)
        apply = verify.apply_evo_operator

        def ramped(p, v):
            tv = apply(p, v)
            return tv.with_values(tv.values * ramp[:, None])

        assert check_positivity_shift_invariance(prob, seed=1).passed
        monkeypatch.setattr(verify, "apply_evo_operator", ramped)
        res = check_positivity_shift_invariance(prob, seed=1)
        assert not res.passed and res.margin < -1e3 * res.tolerance


class TestCausalEstimate:
    def test_solution_operator_causal(self, problem):
        res = check_causal_estimate(problem, seed=2)
        assert res.passed

    def test_zero_source_trivial(self, problem):
        prob = EvoProblem(
            problem.grid, problem.sd, problem.law, problem.bl,
            zero_signal(problem.grid, problem.sd.n_reduced),
        )
        res = check_causal_estimate(prob, seed=2)
        assert res.passed and "trivially" in res.details

    def test_names_the_worst_cut(self, problem, monkeypatch):
        # a solution that leads its source fails at every cut before the
        # source catches up, and the details name the worst of them
        grid = problem.grid
        vals = np.zeros((grid.n, problem.sd.n_reduced))
        vals[0, 0] = 1.0
        u = problem.f.with_values(vals)
        monkeypatch.setattr(verify, "_solve_spectral", lambda prob: (u,))
        margins = verify.causality_margins(problem, u, problem.margin_constants()[2])
        worst = int(np.argmin(margins))
        res = check_causal_estimate(problem, seed=2)
        assert not res.passed and res.margin == margins[worst]
        assert f"worst at a={grid.times[worst]:.4g}" in res.details


class TestAdjointProjection:
    def test_band_projection_identity(self, problem):
        res = check_adjoint_projection(problem, seed=3)
        assert res.passed
        assert res.margin >= -1e-12

    def test_full_band_reduces_to_plain_adjoint(self, problem):
        s_max = np.pi / problem.grid.dt
        res = check_adjoint_projection(problem, n_band=2 * s_max, seed=3)
        assert res.passed

    def test_zero_band_trivial(self, problem):
        res = check_adjoint_projection(problem, n_band=0.0, seed=3)
        assert res.passed

    @pytest.mark.parametrize("defect", ["unconjugated", "off_sign"])
    def test_wrong_adjoint_fails(self, problem, monkeypatch, defect):
        def wrong_adjoint(op):
            if defect == "unconjugated":
                return ReducedOperator(op.sym_p, op.sym_v, op.corner0, op.cornerL, -op.off, op.n_cells)
            return ReducedOperator(
                np.conj(op.sym_p), np.conj(op.sym_v), np.conj(op.corner0), np.conj(op.cornerL),
                op.off, op.n_cells,
            )

        monkeypatch.setattr(ReducedOperator, "adjoint", wrong_adjoint)
        res = check_adjoint_projection(problem, seed=3)
        assert not res.passed
        block_defect = float(res.details.split("block defect ")[1].split(",")[0])
        assert block_defect > 1e-3


class TestBoundarySign:
    def test_robin_margin_is_k(self, problem):
        res = check_boundary_sign(problem, seed=4)
        # frequency margin equals the proportionality constant exactly;
        # the reported margin is the min with the (small) time-domain one
        assert res.passed
        assert res.margin <= 0.8 + 1e-12

    def test_negative_fails_with_power(self, problem):
        res = check_boundary_sign(negative_boundary(problem), seed=4)
        assert not res.passed
        assert res.margin == pytest.approx(-1.0, rel=1e-9)

    def test_memory_kernel_margin_decays(self):
        # flux response const + res/(w - pole): real part positive, shrinking
        prob = make_problem()
        bl = flux_boundary(prob.sd, 0.2, poles_w=[-0.5], residues_w=[0.4])
        res = check_boundary_sign(dataclasses.replace(prob, bl=bl), seed=4)
        assert res.passed


class TestMemory:
    # peak traced allocations allowed, in signals
    BOUNDS = {"adjoint_lemma": 12, "positivity_1": 5, "positivity_equivalence": 5, "boundary_sign": 5}

    @pytest.mark.parametrize("name", list(BOUNDS))
    def test_check_holds_few_signals(self, name, tmp_path):
        # scenarios/reflection.cfg at 128 cells and 1024 samples, where one
        # full complex signal is 4.0 MiB: the bands of 48 blocks, not dense
        # blocks, and one trial at a time, not the whole batch (66, 30 and
        # 17 signals of traced allocations when they were stored).  The
        # problem is real in time, so the trials are real and every
        # operator application but adjoint_lemma's runs on the half spectrum:
        # positivity_1, positivity_equivalence and boundary_sign peak at
        # 3.2, 3.1 and 2.3 signals, against 9.2, 8.0 and 5.5 with complex
        # trials on the full spectrum (adjoint_lemma: 7.4)
        text = Path(DEFAULT_CFG).with_name("reflection.cfg").read_text()
        cfg = tmp_path / "reflection.cfg"
        cfg.write_text(text.replace("n = 2048", "n = 1024").replace("cells = 512", "cells = 128"))
        prob = load_scenario(str(cfg)).build()
        assert (prob.grid.n, prob.sd.n_cells) == (1024, 128)
        prob.grid_operator  # built once, before the checks, as run_all_checks does
        signal = 16 * prob.grid.n * prob.sd.n_reduced
        tracemalloc.start()
        try:
            assert verify._CHECK_FUNCS[name](prob, seed=1).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUNDS[name] * signal

    # A trial's transforms fill small signals (252 KiB on default.cfg) that
    # come from the heap and reuse its pages, with the grid's vectors
    # computed once: in a fresh interpreter positivity_1 and boundary_sign
    # add 4,344 and 1,445 minor page faults (first touches of fresh pages)
    # here, against 11,368 and 2,392 when every inverse transform had a
    # fresh mapping of its own.  The counts depend on glibc's heap state,
    # which is why the child runs nothing else first.
    MAX_FAULTS = 9000

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_minflt counts faults on Linux")
    def test_small_checks_fault_in_few_pages(self):
        code = (
            "import resource, sys\n"
            "from evowaves.config import load_scenario\n"
            "from evowaves.verify import check_boundary_sign, check_positivity\n"
            "prob = load_scenario(sys.argv[1]).build()\n"
            "for check in (check_positivity, check_boundary_sign):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert check(prob).passed\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = run_child("-c", code, DEFAULT_CFG)
        assert proc.returncode == 0, proc.stderr
        positivity, boundary = map(int, proc.stdout.split())
        assert positivity + boundary <= self.MAX_FAULTS, (positivity, boundary)


class TestRealTrials:
    """A problem real in time is checked with real trials on the half spectrum."""

    @pytest.fixture
    def default(self):
        return load_scenario(DEFAULT_CFG).build()

    def test_complex_margin_is_the_mean_of_its_parts(self, default, monkeypatch):
        # T commutes with conjugation, so for u = a + i b the forward quotient
        # is the |chi a|^2, |chi b|^2 weighted mean of those of a and b, and
        # the adjoint one the |a|^2, |b|^2 weighted mean: real trials suffice
        assert default.real_in_time
        a, b = verify.trial_fields(default, 2, np.random.default_rng(7))
        u = a.with_values(a.values + 1j * b.values)
        monkeypatch.setattr(verify, "trial_fields", lambda prob, n, rng: iter([a, b, u]))
        recorded = []
        monkeypatch.setattr(verify, "_worst_three", lambda m: recorded.append(list(m)) or "")
        check_positivity(default, seed=0)
        forward, adjoint = recorded
        cut = verify._cutoff_time(default)
        for margins, wa, wb in (
            (forward, rho_norm(truncate_before(a, cut)) ** 2, rho_norm(truncate_before(b, cut)) ** 2),
            (adjoint, rho_norm(a) ** 2, rho_norm(b) ** 2),
        ):
            mean = (wa * margins[0] + wb * margins[1]) / (wa + wb)
            assert margins[2] == pytest.approx(mean, rel=1e-12)
            assert min(margins[:2]) <= margins[2]

    @pytest.mark.parametrize("real", [True, False])
    def test_trials_follow_the_problem(self, default, real):
        if not real:
            default.__dict__["real_in_time"] = False
        dtypes = {u.values.dtype for u in verify.trial_fields(default, 3, np.random.default_rng(0))}
        assert dtypes == {np.dtype(float if real else complex)}
        results = run_all_checks(default, seed=0)
        assert [r.name for r in results] == list(ALL_CHECKS)
        assert all(r.passed for r in results), [(r.name, r.margin) for r in results]

    @pytest.mark.parametrize("seed", [1549, 3863])
    def test_adjoint_pairs_complex_combinations(self, default, monkeypatch, seed):
        # at these seeds the pairing of two real trials cancels to near zero,
        # and its relative defect exceeds the tolerance; u = a + i b keeps the
        # pairing complex
        assert check_adjoint_projection(default, seed=seed).passed
        draw = verify.trial_fields

        def real_pair(prob, n, rng):
            a, b = draw(prob, 2, rng)
            zero = a.with_values(np.zeros_like(a.values))
            return iter([a, zero, b, zero])

        monkeypatch.setattr(verify, "trial_fields", real_pair)
        assert not check_adjoint_projection(default, seed=seed).passed

    @pytest.mark.parametrize("seed", range(10))
    def test_all_pass_on_default_cfg(self, default, seed):
        assert all(r.passed for r in run_all_checks(default, seed=seed))


class TestRunAll:
    def test_all_pass_on_default(self, problem):
        results = run_all_checks(problem, seed=0)
        assert [r.name for r in results] == list(ALL_CHECKS)
        assert all(r.passed for r in results)

    def test_unknown_name_rejected(self, problem):
        with pytest.raises(ValueError, match="unknown"):
            run_all_checks(problem, names=("no_such_check",))

    def test_subset_runs(self, problem):
        results = run_all_checks(problem, names=("boundary_sign",))
        assert len(results) == 1 and results[0].name == "boundary_sign"

    def test_negative_scenario_isolated_failure(self, problem):
        results = run_all_checks(
            negative_boundary(problem), seed=0,
            names=("adjoint_lemma", "boundary_sign"),
        )
        by_name = {r.name: r for r in results}
        assert by_name["adjoint_lemma"].passed       # structure still fine
        assert not by_name["boundary_sign"].passed   # sign condition fails

    def test_csv_output(self, problem, tmp_path):
        results = run_all_checks(problem, names=("boundary_sign",))
        path = tmp_path / "checks.csv"
        write_checks_csv(results, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "name,margin,tolerance,pass,details"
        assert lines[1].startswith("boundary_sign,")

    def test_csv_details_round_trip(self, problem, tmp_path):
        # the details hold commas, colons and semicolons (adjoint_lemma's a
        # comma), so the writer quotes them and a DictReader gets them back
        names = ("positivity_1", "adjoint_lemma", "boundary_sign")
        results = run_all_checks(problem, seed=0, names=names)
        assert any("," in r.details for r in results)
        path = tmp_path / "checks.csv"
        write_checks_csv(results, str(path))
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["name", "margin", "tolerance", "pass", "details"]
        assert [row["name"] for row in rows] == list(names)
        for row, res in zip(rows, results):
            assert row["details"] == res.details != ""
            assert float(row["margin"]) == res.margin and row["pass"] == str(res.passed)


DEFAULT_CFG = str(Path(__file__).resolve().parent.parent / "scenarios" / "default.cfg")


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count, and so the number of check workers."""

    def set_cpus(n):
        monkeypatch.setattr(signals, "_usable_cpus", lambda: n)

    return set_cpus


def child_then_parent(marker, in_child, in_parent):
    """A check that runs in_child in a forked worker, and in_parent here once a worker has run.

    Given two copies of it and two workers, each worker takes one copy:
    the copy here waits until the child's copy has started.
    """
    parent = os.getpid()

    def check(prob, seed):
        if os.getpid() != parent:
            marker.touch()
            return in_child(prob, seed=seed)
        deadline = time.monotonic() + 60.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return in_parent(prob, seed=seed)

    return check


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """run_all_checks shared over forked workers gives the one-process results."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_results_do_not_depend_on_workers(self, problem, cpus, monkeypatch, tmp_path, seed):
        # every process appends the seed of each check it runs: each check runs once
        calls = tmp_path / "calls"

        def logged(func):
            def check(prob, seed):
                with open(calls, "a") as fh:
                    fh.write(f"{seed}\n")
                return func(prob, seed=seed)

            return check

        for name, func in list(verify._CHECK_FUNCS.items()):
            monkeypatch.setitem(verify._CHECK_FUNCS, name, logged(func))
        runs = {}
        for n in (1, 2, 5):
            cpus(n)
            calls.write_text("")
            runs[n] = run_all_checks(problem, seed=seed)
            assert sorted(map(int, calls.read_text().split())) == [seed + 17 * i for i in range(5)]
        assert runs[2] == runs[1] and runs[5] == runs[1]
        assert [r.name for r in runs[1]] == list(ALL_CHECKS)

    def test_checks_of_a_dead_worker_run_here(self, problem, cpus, monkeypatch, tmp_path):
        names = ("adjoint_lemma", "adjoint_lemma")
        cpus(1)
        expected = run_all_checks(problem, seed=5, names=names)

        def die(prob, seed):
            os._exit(9)

        check = child_then_parent(tmp_path / "forked", die, verify._CHECK_FUNCS["adjoint_lemma"])
        monkeypatch.setitem(verify._CHECK_FUNCS, "adjoint_lemma", check)
        cpus(2)
        assert run_all_checks(problem, seed=5, names=names) == expected
        assert (tmp_path / "forked").exists()
        assert_no_child_left()

    def test_child_exception_reaches_parent(self, problem, cpus, monkeypatch, tmp_path):
        def singular(prob, seed):
            raise SolverError(f"singular operator at frequency s = {seed}.5")

        def passes(prob, seed):
            return CheckResult("boundary_sign", 0.0, 1.0)

        check = child_then_parent(tmp_path / "forked", singular, passes)
        monkeypatch.setitem(verify._CHECK_FUNCS, "boundary_sign", check)
        cpus(2)
        with pytest.raises(SolverError, match=r"^singular operator at frequency s = (7|24)\.5$") as info:
            run_all_checks(problem, seed=7, names=("boundary_sign", "boundary_sign"))
        assert type(info.value) is SolverError
        assert (tmp_path / "forked").exists()
        assert_no_child_left()

    def test_cli_exit_and_stderr_match_one_process(self, cpus, monkeypatch, tmp_path, capsys):
        def singular(prob, seed):
            raise SolverError("singular operator at frequency s = 1.25")

        monkeypatch.setitem(verify._CHECK_FUNCS, "adjoint_lemma", singular)
        outcomes = []
        for n in (1, 5):
            cpus(n)
            code = main(["verify", "--config", DEFAULT_CFG, "--out", str(tmp_path / f"o{n}")])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] == (3, "solver error: singular operator at frequency s = 1.25\n")
        assert_no_child_left()

    def test_first_exception_in_check_order(self, problem, cpus, monkeypatch):
        def failing(message):
            def check(prob, seed):
                raise ValueError(message)

            return check

        monkeypatch.setitem(verify._CHECK_FUNCS, "causal_estimate", failing("third"))
        monkeypatch.setitem(verify._CHECK_FUNCS, "boundary_sign", failing("fifth"))
        for n in (1, 2, 5):
            cpus(n)
            with pytest.raises(ValueError, match="^third$"):
                run_all_checks(problem)
            assert_no_child_left()

    @pytest.mark.parametrize("case", ["one check", "one CPU", "no os.fork"])
    def test_one_process_never_forks(self, problem, cpus, monkeypatch, case):
        def no_fork():
            raise AssertionError("forked")

        names = ("boundary_sign",) if case == "one check" else ALL_CHECKS
        cpus(1 if case == "one CPU" else 4)
        if case == "no os.fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        results = run_all_checks(problem, names=names)
        assert [r.name for r in results] == list(names)

    def test_failed_fork_leaves_the_checks_to_fewer_processes(self, problem, cpus, monkeypatch):
        cpus(1)
        expected = run_all_checks(problem, seed=4)
        fork = os.fork
        forks = []

        def fork_once():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", fork_once)
        cpus(5)
        assert run_all_checks(problem, seed=4) == expected
        assert len(forks) == 1
        assert_no_child_left()

    def test_fork_safe_with_blas_threads(self, tmp_path, cpus):
        # the workers make BLAS calls after the parent may have started
        # OpenBLAS threads; a deadlock shows as the timeout
        proc = run_child(
            "-m", "evowaves.cli", "verify", "--config", DEFAULT_CFG, "--out", str(tmp_path / "child"),
            timeout=120, OPENBLAS_NUM_THREADS="2",
        )
        assert proc.returncode == 0, proc.stderr
        cpus(1)
        assert main(["verify", "--config", DEFAULT_CFG, "--out", str(tmp_path / "here")]) == 0
        child = (tmp_path / "child" / "checks.csv").read_bytes()
        assert child == (tmp_path / "here" / "checks.csv").read_bytes()
