import dataclasses

import numpy as np
import pytest

from conftest import flux_boundary, identity_law, make_problem
from evowaves.rational import scalar_rational
from evowaves.signals import WeightedSignal
from evowaves.solver import EvoProblem
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
        scalar_rational(lin=-1.0), *BoundaryLaw.normal_profile(prob.sd), 1.0
    )
    return dataclasses.replace(prob, bl=bl)


class TestCheckResult:
    def test_pass_rule(self):
        assert CheckResult("x", 0.0, 1e-9).passed
        assert CheckResult("x", -5e-10, 1e-9).passed
        assert not CheckResult("x", -2e-9, 1e-9).passed

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            CheckResult("x", float("nan"), 1e-9)


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


class TestCausalEstimate:
    def test_solution_operator_causal(self, problem):
        res = check_causal_estimate(problem, seed=2)
        assert res.passed

    def test_zero_source_trivial(self, problem):
        prob = EvoProblem(
            problem.grid, problem.sd, problem.law, problem.bl,
            WeightedSignal.zeros(problem.grid, problem.sd.n_reduced),
        )
        res = check_causal_estimate(prob, seed=2)
        assert res.passed and "trivially" in res.details


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
        assert lines[0] == "name,margin,tolerance,pass"
        assert lines[1].startswith("boundary_sign,")
