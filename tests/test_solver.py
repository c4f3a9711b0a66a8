import dataclasses
import importlib.util
import pathlib
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.signal

from conftest import (
    SWEEP_CONFIG,
    apply_symbol,
    bump,
    constant_fn,
    corrupt_solve,
    flux_boundary,
    identity_law,
    interior_signal,
    interleave,
    make_problem,
    memory_law,
    stored_pivot_thomas,
    transposed_source,
    zero_fn,
    zero_signal,
)
from evowaves import solver, spatial
from evowaves.cli import RESIDUAL_PASS, measure_reflection, probe_rows
from evowaves.config import load_scenario, parse_scenario
from evowaves.material import MaterialLaw
from evowaves.rational import RationalMatrixFunction, scalar_rational
from evowaves.signals import WeightedGrid, WeightedSignal, rho_norm
from evowaves.solver import (
    EvoProblem,
    ImproperKernelError,
    SolverError,
    apply_evo_adjoint_operator,
    apply_evo_operator,
    realize,
    realize_flux,
    residual_norm,
    solve_boundary_family,
    solve_frequency,
    solve_timestep,
)
from evowaves.spatial import BoundaryLaw, ReducedOperator, SpatialDiscretization
from evowaves.transform import (
    SpectralSignal,
    _spectrum,
    forward_transform,
    inverse_transform,
)
from evowaves.verify import check_adjoint_projection

ROOT = pathlib.Path(__file__).resolve().parent.parent


def rel_gap(a, b):
    return rho_norm(a.with_values(a.values - b.values)) / rho_norm(b)


class TestProblemSetup:
    def test_rho_threshold_names_bounds(self):
        with pytest.raises(SolverError, match="mu0/gamma0"):
            make_problem(rho=0.4)

    @pytest.mark.parametrize(
        "cfg,mu0,rho", [("scenarios/default.cfg", 0.5, 2.5), ("bench/scenarios/memory.cfg", 0.4, 2.3)]
    )
    def test_exact_memory_bound_and_auto_rho(self, cfg, mu0, rho):
        # the sup of |m_jj| is reached at s = +-inf, where z = 0: |c - r/p|
        prob = load_scenario(str(ROOT / cfg)).build()
        assert mu0 <= prob.margin_constants()[1] <= mu0 * (1 + 2e-12)
        assert prob.grid.rho == pytest.approx(rho, rel=1e-9)

    def test_near_pole_mu0_bounds_the_sup(self):
        # the sampled bound read 0.0053 here; the benchmark's own sup is 0.3704
        spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)
        prob = load_scenario(str(ROOT / "bench/scenarios/near_pole.cfg")).build()
        assert prob.margin_constants()[1] >= checks.sup_memory_norm(prob.law.m1, prob.grid.rho) > 0.37

    def test_near_pole_weight_rejected(self):
        # gamma0 = 0.5 puts mu0/gamma0 at 0.74, above rho = 0.51; the sampled
        # bound put it at 0.011 and admitted the weight
        text = (ROOT / "bench/scenarios/near_pole.cfg").read_text()
        sc = parse_scenario(text.replace("m0_re = 1 0 0 1", "m0_re = 0.5 0 0 0.5"))
        with pytest.raises(SolverError, match="mu0/gamma0"):
            sc.build()

    def test_offdiagonal_material_rejected(self):
        law = MaterialLaw(np.array([[1.0, 0.2], [0.2, 1.0]]), zero_fn(2), r=1.0)
        with pytest.raises(ValueError, match="diagonal"):
            make_problem(law=law)

    def test_source_dim_checked(self):
        prob = make_problem()
        with pytest.raises(ValueError, match="reduced"):
            EvoProblem(
                prob.grid,
                prob.sd,
                prob.law,
                prob.bl,
                zero_signal(prob.grid, prob.sd.n_reduced + 1),
            )


class TestOperatingCurve:
    """Every symbol is evaluated at the points its caller passes: the grid's w, or the Euler step's."""

    def test_grid_forms_its_points_once(self):
        grid = WeightedGrid(-1.0, 0.05, 64, 2.5)
        assert grid.w is grid.w and not grid.w.flags.writeable
        assert np.array_equal(grid.w.view(np.int64), (1j * grid.freqs + grid.rho).view(np.int64))

    def test_symbols_take_their_points_from_grid_w(self, monkeypatch):
        prob = load_scenario(str(ROOT / "scenarios/default.cfg")).build()
        grid, seen = prob.grid, []
        flux, operator_at = BoundaryLaw.flux_symbol, EvoProblem.operator_at
        monkeypatch.setattr(BoundaryLaw, "flux_symbol", lambda bl, w: seen.append(w) or flux(bl, w))
        monkeypatch.setattr(EvoProblem, "operator_at", lambda p, w: seen.append(w) or operator_at(p, w))

        def points(call):
            seen.clear()
            call()
            assert seen
            return list(seen)

        # the operator, both operators of the sweep and the boundary functional: rows 0 .. k of grid.w
        pressures = WeightedSignal(grid, prob.f.values[:, 0::2])
        for call in (
            lambda: prob.grid_operator,
            lambda: solve_boundary_family(prob, [prob.bl, BoundaryLaw.robin(0.5, prob.sd)], [0]),
            lambda: spatial.boundary_sign_functional(prob.sd, prob.bl, pressures),
        ):
            for w in points(call):
                assert np.shares_memory(w, grid.w) and np.array_equal(w, grid.w[: w.size])
        # the adjoint check's sampled frequencies are some of the grid's points
        [w, w_flux] = points(lambda: check_adjoint_projection(prob))
        assert w is w_flux and w.size < grid.n and np.isin(w, grid.w).all()
        # the stepper's one point, 1/delta, lies off the curve; its report's wall
        # check, BoundaryLaw.min_real_flux, values the flux on the line Re w = rho
        [w, w_flux, *line] = points(lambda: solve_timestep(prob))
        assert w is w_flux and w.tolist() == [1.0 / grid.dt]
        assert len(line) == 1 and np.allclose(line[0].real, grid.rho)


class TestRealize:
    def test_constant_kernel(self):
        kern = constant_fn(0.7 * np.eye(2))
        real = realize(kern, rho=2.0)
        assert real.poles.size == 0
        assert np.allclose(real.const, 0.7 * np.eye(2))

    def test_response_matches_direct_evaluation(self):
        kern = memory_law().m1
        real = realize(kern, rho=3.0)
        ws = 1j * np.linspace(-40, 40, 64) + 3.0
        direct = kern.eval_many(1.0 / ws)
        got = real.eval_many(ws)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()
        assert not real.lin.any()  # proper in w

    def test_robin_flux_is_pure_constant(self):
        sd = SpatialDiscretization(1.0, 8)
        real = realize_flux(BoundaryLaw.robin(0.9, sd), rho=2.0)
        assert real.poles.size == 0
        assert real.const[0, 0] == pytest.approx(0.9)

    def test_flux_response_matches_symbol(self):
        sd = SpatialDiscretization(1.0, 8)
        bl = flux_boundary(sd, 0.3, poles_w=[-1.5 + 2.0j, -0.7], residues_w=[0.4 - 0.1j, 0.9])
        real = realize_flux(bl, rho=2.0)
        s = np.linspace(-30, 30, 64)
        direct = bl.flux_symbol(1j * s + 2.0)
        got = real.eval_many(1j * s + 2.0)[:, 0, 0]
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_improper_flux_rejected(self):
        sd = SpatialDiscretization(1.0, 8)
        bl = BoundaryLaw(scalar_rational(const=0.3), BoundaryLaw.normal_profile(sd), 1.0)
        with pytest.raises(ImproperKernelError, match="time integration"):
            realize_flux(bl, rho=2.0)

    def test_unstable_realization_rejected(self):
        # kernel pole at z = 0.4 outside a tiny ball maps to 1/0.4 = 2.5 > rho;
        # const = res/pole keeps g(0) = 0 so properness is not the blocker
        sd = SpatialDiscretization(1.0, 8)
        g = scalar_rational(const=0.5, poles=[0.4], residues=[0.2])
        bl = BoundaryLaw(g, BoundaryLaw.normal_profile(sd), r=0.05)
        with pytest.raises(SolverError, match="unstable"):
            realize_flux(bl, rho=1.0)

    def test_one_pole_impulse_response(self):
        # response to a narrow bump decays like exp(pole * t) after the bump
        rho = 2.5
        grid = WeightedGrid(0.0, 16.0 / 2048, 2048, rho)
        q = -0.8 + 0.6j  # flux-domain pole
        c = 0.9
        kern = scalar_rational(const=-c / q, poles=[1.0 / q], residues=[-c / q**2])
        real = realize(kern, rho)
        ws = 1j * np.linspace(-20, 20, 64) + rho
        assert np.abs(real.eval_many(ws)[:, 0, 0] - c / (ws - q)).max() < 1e-12
        t = grid.times
        phi = bump(t, 2.0, 0.25)
        u = WeightedSignal(grid, phi[:, None])
        kern.check_holomorphic(10.0)
        out = apply_symbol(u, kern.eval_many(1.0 / (1j * grid.freqs + rho)))
        # oracle amplitude from fine quadrature of the convolution weight
        t_fine = np.linspace(0.0, 4.0, 200001)
        amp = c * np.trapezoid(np.exp(-q * t_fine) * bump(t_fine, 2.0, 0.25), t_fine)
        sel = (t > 4.0) & (t < 8.0)  # beyond 8 the exp(rho t) rounding floor bites
        exact = amp * np.exp(q * t[sel])
        err = np.abs(out.values[sel, 0] - exact)
        assert err.max() <= 1e-8 * np.abs(exact).max()


class TestFrequencySolve:
    def test_zero_source(self):
        prob = make_problem()
        prob = EvoProblem(
            prob.grid, prob.sd, prob.law, prob.bl,
            zero_signal(prob.grid, prob.sd.n_reduced),
        )
        rep = solve_frequency(prob)
        assert rho_norm(rep.solution) == 0.0
        assert not rep.residual_is_relative

    def test_residual_small_and_energy_bound(self, problem):
        rep = solve_frequency(problem)
        assert rep.residual_rel <= 1e-10
        assert rep.energy_ratio <= (1.0 / rep.beta0) * 1.02
        assert rep.causality_margin >= -1e-6

    def test_corrupted_solve_fails_the_residual(self, problem, monkeypatch):
        assert solve_frequency(problem).residual_rel <= 1e-13
        corrupt_solve(monkeypatch)
        assert solve_frequency(problem).residual_rel > RESIDUAL_PASS

    def test_singular_frequency_named(self, problem, monkeypatch):
        import evowaves.spatial as spatial_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        # an infinite floor puts every margin, and every Thomas pivot, below it,
        # so every frequency counts as broken down; and the pivoted solver fails
        monkeypatch.setattr(spatial_mod, "PIVOT_FLOOR", np.inf)
        monkeypatch.setattr(ReducedOperator, "factor", boom)
        with pytest.raises(SolverError, match="frequency s ="):
            solve_frequency(problem)

    def test_interior_pivot_collapse_takes_the_pivoted_lu(self, monkeypatch):
        # an inadmissible wall leaves every margin negative, so solve reads every
        # frequency's min |d'| from _thomas's pivots, in row blocks.  At one
        # frequency, the pivot at an interior row alone, past the first ROW_BLOCK
        # rows, is set to exactly 0, and its swept column is poisoned, so x[k] is
        # right only if the LU's solution replaces it.  The frequency must reach
        # the pivoted LU, and be named when that fails too
        prob = make_problem(n_cells=64, robin_k=-0.8)
        solved = prob.grid_operator.take(slice(prob.grid.n // 2 + 1))
        assert (solved.margin() < 0).all()
        k, row = 9, spatial.ROW_BLOCK + 37
        assert row < solved.dim - 1
        thomas, collapsed = ReducedOperator._thomas, []

        def collapse(op, y, piv):
            thomas(op, y, piv)
            at = np.flatnonzero(op.sym_p == solved.sym_p[k])
            piv[row, at] = 0.0
            y[:, at] = np.nan
            collapsed.append(piv[row, at].copy())

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(ReducedOperator, "_thomas", collapse)
        rhs = np.random.default_rng(3).standard_normal((solved.sym_p.size, solved.dim)) + 0j
        spans, source = [], transposed_source(rhs)

        def recorded(a, b, out=None):
            spans.append((b - a, out is None))
            return source(a, b, out)

        x, pivoted = solved.solve(recorded)
        assert len(collapsed) == 1 and collapsed[0].tolist() == [0j]
        assert pivoted.tolist() == [k]
        # formed whole once, in the work array; the fallback takes it a row block at a time
        assert spans[0] == (solved.dim, False)
        assert spans[1:] and all(fresh and n <= spatial.ROW_BLOCK for n, fresh in spans[1:])
        exact = np.linalg.solve(solved.dense(k), rhs[k])
        assert np.abs(x[k] - exact).max() < 1e-10 * np.abs(exact).max()
        monkeypatch.setattr(ReducedOperator, "factor", boom)
        with pytest.raises(SolverError, match=rf"^singular operator at frequency s = {prob.grid.freqs[k]:.9g} "):
            solve_frequency(prob)
        assert len(collapsed) == 2 and collapsed[1].tolist() == [0j]

    @pytest.mark.parametrize("cfg", ["scenarios/default.cfg", "bench/scenarios/memory.cfg"])
    def test_discrete_energy_identity(self, cfg, monkeypatch):
        # the differences are real and skew, so at every frequency
        # Re <f_hat, u_hat> = sum_i Re d_i |u_hat_i|^2, d the diagonal
        prob = load_scenario(str(ROOT / cfg)).build()
        op = prob.operator_at(prob.grid.w)
        f_hat = forward_transform(prob.f).values

        # a separable source's spectrum is w_hat g, exactly 0 where w_hat underflows
        zero = ~f_hat.any(axis=1)

        def defect() -> float:
            """Largest violation over the frequencies, relative to ||f_hat_k|| ||u_hat_k||.

            Where f_hat_k is exactly 0, u_hat_k must be exactly 0 too.
            """
            u_hat, _ = op.solve(transposed_source(f_hat))
            assert not u_hat[zero].any()
            f_nz, u_hat = f_hat[~zero], u_hat[~zero]
            power = np.abs(u_hat) ** 2
            dissipated = (
                op.sym_p.real[~zero] * power[:, 0::2].sum(axis=1)
                + op.sym_v.real[~zero] * power[:, 1::2].sum(axis=1)
                + op.corner0.real[~zero] * power[:, 0]
                + op.cornerL.real[~zero] * power[:, -1]
            )
            supplied = np.sum(np.conj(u_hat) * f_nz, axis=1).real
            scale = np.linalg.norm(f_nz, axis=1) * np.linalg.norm(u_hat, axis=1)
            assert (scale > 0).all()
            return float(np.max(np.abs(supplied - dissipated) / scale))

        assert defect() < 1e-12
        corrupt_solve(monkeypatch)
        assert defect() > 1e-12

    def test_pivoted_fallback_agrees(self, problem, monkeypatch):
        import evowaves.spatial as spatial_mod

        fast = solve_frequency(problem)
        assert not any("pivot" in w for w in fast.warnings)
        # every margin and every pivot below an infinite floor: all take the LU
        monkeypatch.setattr(spatial_mod, "PIVOT_FLOOR", np.inf)
        pivoted = solve_frequency(problem)
        assert rel_gap(pivoted.solution, fast.solution) < 1e-12
        s = problem.grid.freqs
        n = problem.grid.n
        assert any(
            f"broke down at {n} of {n} frequencies in s = [{s.min():.9g}, {s.max():.9g}]" in w
            for w in pivoted.warnings
        )

    def test_uniform_in_rho(self):
        # operator-norm proxy beta0 * energy_ratio stays below 1 across weights
        rho0 = 2.0
        for rho in (rho0, 2 * rho0, 4 * rho0):
            prob = make_problem(rho=rho)
            rep = solve_frequency(prob)
            assert rep.beta0 * rep.energy_ratio <= 1.02

    def test_matches_method_of_images(self):
        rel_err = images_oracle_error(n_cells=48, n=512)
        assert rel_err < 5e-3

    def test_reflection_dirichlet_limit(self):
        # very stiff proportional coupling approaches the pressure-release
        # wall: reflection coefficient -1 within 3%
        length, window, rho, n, n_cells = 1.0, 8.0, 2.0, 1024, 128
        sd = SpatialDiscretization(length, n_cells)
        grid = WeightedGrid(0.0, window / n, n, rho)
        t = grid.times
        wt = bump(t, 0.4, 0.05)
        fp = wt[:, None] * bump(sd.cell_x, 0.2, 0.05)[None, :]
        fv = wt[:, None] * bump(sd.face_x[1:-1], 0.2, 0.05)[None, :]
        f = WeightedSignal(grid, interleave(fp, fv))
        prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.robin(100.0, sd), f)
        [(probe, _)] = solve_boundary_family(prob, [prob.bl], probe_rows(sd))
        r_meas, _ = measure_reflection(sd, probe, x_source=0.2, t_source=0.4)
        assert abs(r_meas - (1.0 - 100.0) / (1.0 + 100.0)) <= 0.03

    def test_manufactured_solution_order_two_in_dx(self):
        errs = [manufactured_error(n_cells=n) for n in (16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)


def block_width(monkeypatch, prob: EvoProblem, width: int) -> None:
    """Make solve_boundary_family on prob run frequency blocks width wide."""
    monkeypatch.setattr(solver, "BLOCK_BYTES", width * 2 * prob.sd.n_reduced * 16)


def bits(signal: WeightedSignal) -> np.ndarray:
    return signal.values.view(np.uint64)


class TestBoundaryFamily:
    """One Neumann elimination plus a 2x2 correction per law, against per-law solves."""

    scenario = parse_scenario(SWEEP_CONFIG)

    def test_matches_full_solves(self, monkeypatch):
        # at the default block width (one block here) and at a width of 7 that
        # does not divide the 513 solved rows
        base = self.scenario.build()
        sd = base.sd
        laws = [BoundaryLaw.robin(k, sd) for k in (0.0, 0.5, 4.0)]
        laws.append(flux_boundary(sd, 0.5, poles_w=[-1.0], residues_w=[0.3]))
        rows = probe_rows(sd)
        x_c, t_c = self.scenario.x_center, self.scenario.t_center
        default = solve_boundary_family(base, laws, rows)
        n_rows = base.grid.n // 2 + 1
        assert n_rows % 7 != 0
        block_width(monkeypatch, base, 7)
        narrow = solve_boundary_family(base, laws, rows)
        for bl, (probe, bound), (probe_7, bound_7) in zip(laws, default, narrow):
            assert np.array_equal(bits(probe), bits(probe_7))
            assert bound_7 == pytest.approx(bound, rel=1e-12)
            full = solve_frequency(dataclasses.replace(base, bl=bl)).solution
            ref = full.with_values(full.values[:, rows])
            assert rel_gap(probe, ref) <= 1e-10
            r_sweep, _ = measure_reflection(sd, probe, x_c, t_c)
            r_full, _ = measure_reflection(sd, ref, x_c, t_c)
            assert abs(r_sweep - r_full) <= 1e-12
            assert bound <= RESIDUAL_PASS

    def test_kernel_matches_the_stored_pivot_kernel_bitwise(self, monkeypatch):
        # the sweep's source column and its Z columns, A0^-1 e_last as the running
        # product of the multipliers formed from the pivots and A0^-1 e_0 as its
        # mirror, and both squared residuals: bit for bit the values of the sweep
        # that turns a materialized diagonal into its pivots
        base = self.scenario.build()
        weight = solver._parseval_weights(base.grid, True)
        s, w = base.grid.freqs[: weight.size], base.grid.w[: weight.size]
        f_block, _ = solver._source_spectrum(base, True, s, weight)
        zero = np.zeros(s.size, dtype=complex)
        neumann = dataclasses.replace(base.operator_at(w), corner0=zero, cornerL=zero)
        rows = list(range(neumann.dim))
        work = np.empty((neumann.dim, 2, s.size), dtype=complex)
        kept = neumann._solve_with_corners(f_block(0, s.size), rows, work)

        def stored_pivots(op, y, piv):
            piv[...] = stored_pivot_thomas(op, y, np.empty_like(y))

        monkeypatch.setattr(ReducedOperator, "_thomas", stored_pivots)
        stored = neumann._solve_with_corners(f_block(0, s.size), rows, work)
        assert np.isfinite(kept[0]).all() and kept[1].max() > 0
        for got, want in zip(kept, stored):
            assert got.tobytes() == want.tobytes()

    def test_no_laws_no_solve(self, monkeypatch):
        base = self.scenario.build()

        def boom(*args, **kwargs):
            raise AssertionError("an empty law list transforms and solves nothing")

        monkeypatch.setattr(solver, "forward_transform", boom)
        monkeypatch.setattr(ReducedOperator, "_thomas", boom)
        assert solve_boundary_family(base, [], probe_rows(base.sd)) == []

    def test_full_size_sweep_memory(self):
        # scenarios/reflection.cfg, the sweep-reflection default laws: one
        # frequency block's work array, not the whole half spectrum
        # (80.3 MiB of traced allocations when it was solved at full width)
        prob = load_scenario(str(ROOT / "scenarios/reflection.cfg")).build()
        laws = [BoundaryLaw.robin(k, prob.sd) for k in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
        rows = probe_rows(prob.sd)
        tracemalloc.start()
        try:
            solve_boundary_family(prob, laws, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="the true residual is formed in extended precision",
    )
    @pytest.mark.parametrize("pivot_error", [0.0, 1e-8])
    def test_bound_is_above_the_true_residual(self, monkeypatch, pivot_error):
        # every row of each law's spectral solution x = y - Z beta, taken on its
        # way to the inverse transform: ||T_law x - f|| / ||f||, in the same
        # Parseval norm and in extended precision, must not exceed the law's
        # bound.  Pivots off by a relative 1e-8 give both corner columns a
        # residual on every row, so R_X beta dominates and the bound must count
        # the mirrored column's share: without it the k = 4 law reads 1.01
        # times its bound, against 0.71 with it
        base = self.scenario.build()
        sd = base.sd
        laws = [BoundaryLaw.robin(k, sd) for k in (0.0, 0.5, 4.0)]
        laws.append(flux_boundary(sd, 0.5, poles_w=[-1.0], residues_w=[0.3]))
        thomas, swept = ReducedOperator._thomas, []

        def off_pivots(op, y, piv):
            thomas(op, y, piv)
            piv *= 1.0 + pivot_error  # pivots d' (1 + pivot_error): every multiplier and 1/d'_last move
            swept.append(op.sym_p.size)

        spectra = []
        inverse = solver.inverse_transform

        def kept(x_hat):
            spectra.append(x_hat)
            return inverse(x_hat)

        monkeypatch.setattr(ReducedOperator, "_thomas", off_pivots)
        monkeypatch.setattr(solver, "inverse_transform", kept)
        family = solve_boundary_family(base, laws, list(range(sd.n_reduced)))
        assert len(spectra) == len(laws) and all(x_hat.half for x_hat in spectra)
        weight = solver._parseval_weights(base.grid, True)
        s = base.grid.freqs[: weight.size]
        assert sum(swept) == s.size  # every frequency went through the perturbed sweep
        f_block, f_norm = solver._source_spectrum(base, True, s, weight)
        f_hat = f_block(0, s.size)(0, sd.n_reduced).T.astype(np.clongdouble)
        for bl, (_, bound), x_hat in zip(laws, family, spectra):
            op = dataclasses.replace(base, bl=bl).operator_at(base.grid.w[: s.size])
            x = np.zeros((s.size, op.dim + 2), dtype=np.clongdouble)
            x[:, 1:-1] = x_hat.values
            r_hat = op._diagonal().T * x[:, 1:-1] + np.longdouble(op.off) * (x[:, 2:] - x[:, :-2]) - f_hat
            true = float(np.sqrt(weight @ np.sum(np.abs(r_hat) ** 2, axis=1))) / f_norm
            assert true <= bound
            assert bound <= (RESIDUAL_PASS if pivot_error == 0 else 1e3 * pivot_error)

    def test_corrupted_base_solution_fails_the_bound(self, monkeypatch):
        base = self.scenario.build()
        thomas, swept = ReducedOperator._thomas, []

        def corrupted(op, y, piv):  # y holds the source column alone
            thomas(op, y, piv)
            assert y.shape == piv.shape == (op.dim, op.sym_p.size)
            y[np.unravel_index(np.abs(y).argmax(), y.shape)] *= 1.0 + 1e-6
            swept.append(op.sym_p.size)

        monkeypatch.setattr(ReducedOperator, "_thomas", corrupted)
        [(_, bound)] = solve_boundary_family(base, [base.bl], probe_rows(base.sd))
        assert swept == [base.grid.n // 2 + 1]
        assert bound > RESIDUAL_PASS

    def test_singular_correction_names_law_and_frequency(self, monkeypatch):
        base = self.scenario.build()
        s_bad = base.grid.freqs[7]  # s >= 0: on the half spectrum
        laws = [base.bl, BoundaryLaw.robin(0.5, base.sd)]
        flux = BoundaryLaw.flux_symbol

        def nan_at_one_frequency(bl, w):
            out = flux(bl, w)
            if bl is laws[1]:
                out[w.imag == s_bad] = np.nan
            return out

        monkeypatch.setattr(BoundaryLaw, "flux_symbol", nan_at_one_frequency)
        with pytest.raises(SolverError, match=rf"boundary law 1: .* s = {s_bad:.9g}"):
            solve_boundary_family(base, laws, probe_rows(base.sd))

    def test_overflowed_residual_is_named(self):
        # a finite source whose solution is finite but whose residual
        # squares overflow: not a singular operator, and no RuntimeWarning
        # (an error under pytest) on the way
        base = dataclasses.replace(self.scenario, amplitude=1e200).build()
        with pytest.raises(SolverError, match=r"^the residual norm overflowed at frequency s = 0$"):
            solve_boundary_family(base, [base.bl], probe_rows(base.sd))

    def test_singular_neumann_operator_is_named(self, monkeypatch):
        base = self.scenario.build()
        s_bad = base.grid.freqs[5]
        thomas, poisoned = ReducedOperator._thomas, []

        def nan_at_one_frequency(op, y, piv):  # the source column and every pivot
            thomas(op, y, piv)
            bad = op.sym_p == base.grid_operator.sym_p[5]
            y[..., bad] = piv[..., bad] = np.nan
            poisoned.append(int(bad.sum()))

        monkeypatch.setattr(ReducedOperator, "_thomas", nan_at_one_frequency)
        with np.errstate(invalid="ignore"):
            with pytest.raises(SolverError, match=rf"^singular Neumann operator at frequency s = {s_bad:.9g}$"):
                solve_boundary_family(base, [base.bl], probe_rows(base.sd))
        assert poisoned == [1]


def reduced_reflection() -> EvoProblem:
    """scenarios/reflection.cfg with 4x fewer samples (same window) and cells."""
    sc = load_scenario(str(ROOT / "scenarios/reflection.cfg"))
    return dataclasses.replace(sc, n=sc.n // 4, dt=sc.dt * 4, cells=sc.cells // 4).build()


def with_samples(prob: EvoProblem) -> EvoProblem:
    """prob with its source held as samples rather than as a separable product."""
    return dataclasses.replace(prob, f=WeightedSignal(prob.grid, prob.f.values))


class TestSeparableSource:
    """Every analytic source is separable; its solves must match the source's samples."""

    problems = {
        "default": lambda: load_scenario(str(ROOT / "scenarios/default.cfg")).build(),
        "reflection/4": reduced_reflection,
    }

    @pytest.mark.parametrize("name", problems)
    def test_frequency_solvers_agree(self, name, monkeypatch):
        prob = self.problems[name]()
        assert prob.f.profiles is not None
        sampled = with_samples(prob)
        assert sampled.f.profiles is None
        assert rel_gap(solve_frequency(prob).solution, solve_frequency(sampled).solution) < 1e-14
        laws = [BoundaryLaw.robin(k, prob.sd) for k in (0.0, 1.0, 4.0)]
        rows = probe_rows(prob.sd)
        assert (prob.grid.n // 2 + 1) % 7 != 0
        runs = []
        for width in (None, 7):  # the default block width, then 7
            if width:
                block_width(monkeypatch, prob, width)
            runs.append([solve_boundary_family(p, laws, rows) for p in (prob, sampled)])
        for (probe, _), (probe_sampled, _) in zip(*runs[0]):
            assert rel_gap(probe, probe_sampled) < 1e-14
        for default, narrow in zip(runs[0], runs[1]):
            for (probe, _), (probe_7, _) in zip(default, narrow):
                assert np.array_equal(bits(probe), bits(probe_7))

    @pytest.mark.parametrize("name", problems)
    def test_solves_build_no_source_samples(self, name):
        prob = self.problems[name]()
        solve_frequency(prob)
        solve_boundary_family(prob, [prob.bl], probe_rows(prob.sd))
        solve_timestep(prob)
        assert "values" not in prob.f.__dict__

    @pytest.mark.parametrize("cfg", ["scenarios/default.cfg", "bench/scenarios/memory.cfg"])
    def test_stepper_bit_identical(self, cfg):
        prob = load_scenario(str(ROOT / cfg)).build()
        u = solve_timestep(prob).solution.values
        u_sampled = solve_timestep(with_samples(prob)).solution.values
        assert np.array_equal(u.view(np.uint64), u_sampled.view(np.uint64))

    @pytest.mark.parametrize("t_center", ["1.0", "10.5"])  # padded, then not
    def test_source_verdicts_agree(self, t_center):
        text = (ROOT / "scenarios/default.cfg").read_text()
        prob = parse_scenario(text.replace("t_center = 1.0", f"t_center = {t_center}")).build()
        sampled = with_samples(prob)
        assert prob.real_in_time is sampled.real_in_time is True
        assert prob.f_norm == pytest.approx(sampled.f_norm, rel=1e-14)
        reports = [solve_frequency(p) for p in (prob, sampled)]
        assert reports[0].f_padded_ok is reports[1].f_padded_ok is (t_center == "1.0")
        assert reports[0].warnings == reports[1].warnings
        w, g = prob.f.profiles
        complex_f = dataclasses.replace(prob, f=WeightedSignal(prob.grid, profiles=(w, g * (1 - 0.5j))))
        assert complex_f.real_in_time is with_samples(complex_f).real_in_time is False


def weighted_gap(a: np.ndarray, b: np.ndarray, grid: WeightedGrid) -> float:
    """max |a - b| e^(-rho t) over max |b| e^(-rho t): the gap on the scale the transform sees."""
    weight = np.exp(-grid.rho * grid.times)[:, None]
    return float((np.abs(a - b) * weight).max() / (np.abs(b) * weight).max())


class TestHalfSpectrum:
    """Real problems are solved on s >= 0 only; the forced full spectrum must agree."""

    @pytest.mark.parametrize(
        "cfg,n",
        [("scenarios/default.cfg", n) for n in (512, 511, 255)]
        + [("bench/scenarios/memory.cfg", n) for n in (2048, 2047, 255)],
    )
    def test_matches_the_full_spectrum(self, cfg, n):
        sc = load_scenario(str(ROOT / cfg))
        sc = dataclasses.replace(sc, n=n, dt=sc.dt * sc.n / n)
        half_prob, full_prob = sc.build(), sc.build()
        full_prob.__dict__["real_in_time"] = False
        assert half_prob.real_in_time
        half, full = solve_frequency(half_prob), solve_frequency(full_prob)
        assert not half.solution.values.imag.any()
        assert full.solution.values.imag.any()  # the full spectrum really ran
        assert weighted_gap(half.solution.values, full.solution.values, half_prob.grid) <= 1e-14
        assert half.residual_rel <= 1e-13 and full.residual_rel <= 1e-13
        assert (half.beta0_grid, half.max_condition_bound) == (full.beta0_grid, full.max_condition_bound)
        assert "spectrum              half (real source and laws)\n" in half.to_text()
        assert "spectrum              full\n" in full.to_text()

    @pytest.mark.parametrize("solve", [solve_frequency, solve_timestep])
    def test_solution_dtype_follows_the_problem(self, solve):
        real = memory_scenario()
        cplx = dataclasses.replace(real, f=real.f.with_values(real.f.values * (1.0 - 0.5j)))
        assert real.real_in_time and not cplx.real_in_time
        assert real.f.values.dtype == np.float64  # a separable source with a real g
        assert solve(real).solution.values.dtype == np.float64
        assert solve(cplx).solution.values.dtype == np.complex128
        # real in time, but the stepper marches its conjugate pole pair in complex
        assert solve(conjugate_pair_problem()).solution.values.dtype == np.float64

    def test_boundary_family_dtype_follows_the_laws(self):
        base = parse_scenario(SWEEP_CONFIG).build()
        complex_law = flux_boundary(base.sd, 0.5, poles_w=[-1.0 + 0.5j], residues_w=[0.3])
        rows = probe_rows(base.sd)
        (real_probe, _), = solve_boundary_family(base, [base.bl], rows)
        (probe, _), _ = solve_boundary_family(base, [base.bl, complex_law], rows)
        assert real_probe.values.dtype == np.float64 and probe.values.dtype == np.complex128

    @pytest.mark.parametrize("n", [512, 511])
    def test_weighted_norm_is_the_parseval_norm(self, n):
        prob = make_problem(n=n)
        weight = solver._parseval_weights(prob.grid, True)
        half = solver._parseval_norm(forward_transform(prob.f, half=True).values, weight)
        assert half == pytest.approx(np.linalg.norm(forward_transform(prob.f).values), rel=1e-14)

    @pytest.mark.parametrize("n", [1024, 1023])
    def test_boundary_family_matches_the_full_spectrum(self, monkeypatch, n):
        base = parse_scenario(SWEEP_CONFIG.replace("n = 1024", f"n = {n}")).build()
        assert base.grid.n == n
        laws = [BoundaryLaw.robin(k, base.sd) for k in (0.0, 2.0)]
        laws.append(flux_boundary(base.sd, 0.5, poles_w=[-1.0], residues_w=[0.3]))
        rows = probe_rows(base.sd)
        half = solve_boundary_family(base, laws, rows)
        monkeypatch.setattr(EvoProblem, "real_in_time", False)
        full = solve_boundary_family(base, laws, rows)
        for (h, h_bound), (f, f_bound) in zip(half, full):
            assert not h.values.imag.any()
            assert weighted_gap(h.values, f.values, base.grid) <= 1e-14
            assert h_bound <= RESIDUAL_PASS and f_bound <= RESIDUAL_PASS

    def test_boundary_family_with_a_complex_law_runs_on_the_full_spectrum(self):
        base = parse_scenario(SWEEP_CONFIG).build()
        complex_law = flux_boundary(base.sd, 0.5, poles_w=[-1.0 + 0.5j], residues_w=[0.3])
        rows = probe_rows(base.sd)
        (real_probe, _), (complex_probe, bound) = solve_boundary_family(
            base, [base.bl, complex_law], rows
        )
        full = solve_frequency(dataclasses.replace(base, bl=complex_law)).solution
        assert real_probe.values.imag.any() and complex_probe.values.imag.any()
        assert rel_gap(complex_probe, full.with_values(full.values[:, rows])) <= 1e-10
        assert bound <= RESIDUAL_PASS

    @pytest.mark.parametrize("case", ["near_pole", "complex_source"])
    def test_complex_problems_keep_the_full_spectrum(self, case):
        if case == "near_pole":
            prob = load_scenario(str(ROOT / "bench/scenarios/near_pole.cfg")).build()
        else:
            real = load_scenario(str(ROOT / "scenarios/default.cfg")).build()
            prob = dataclasses.replace(real, f=real.f.with_values(real.f.values * (1.0 - 0.5j)))
        assert not prob.real_in_time
        # the full-spectrum solve, step by step: the solver's U must be bit for bit this one,
        # with a separable source's spectrum formed as w_hat g
        if prob.f.profiles is None:
            f_hat = forward_transform(prob.f).values
        else:
            w, g = prob.f.profiles
            f_hat = forward_transform(WeightedSignal(prob.grid, w)).values * g
        u_hat, _ = prob.operator_at(prob.grid.w).solve(transposed_source(f_hat))
        ref = inverse_transform(SpectralSignal(prob.grid, u_hat)).values
        rep = solve_frequency(prob)
        assert np.array_equal(rep.solution.values.view(np.int64), ref.view(np.int64))
        assert "spectrum              full\n" in rep.to_text()


@pytest.mark.parametrize(
    "cfg",
    ["scenarios/default.cfg", "scenarios/reflection.cfg", "bench/scenarios/memory.cfg",
     "bench/scenarios/near_pole.cfg"],
)
def test_blocked_frequency_residual_is_the_matvec_residual(cfg):
    # _solve_spectral sums the residual in row blocks over the solve's (dim, n_freq)
    # layout, the source's rows formed again block by block; the reference applies
    # matvec and takes the Parseval norm of op U_hat - f_hat.  residual_norm hands the
    # same kernel a stepper solution's spectrum as its transposed view, whose rows are
    # strided by dim: on the half spectrum of a real problem and on the full one
    prob = load_scenario(str(ROOT / cfg)).build()
    stepped = solve_timestep(prob).solution
    full = load_scenario(str(ROOT / cfg)).build()
    full.__dict__["real_in_time"] = False
    for p in [prob, full] if prob.real_in_time else [prob]:
        half = p.real_in_time
        weight = solver._parseval_weights(p.grid, half)
        s = p.grid.freqs[: weight.size]
        f_block, f_norm = solver._source_spectrum(p, half, s, weight)
        source = f_block(0, s.size)
        op = p.grid_operator.take(slice(s.size))
        f_hat = source(0, op.dim).T
        step_hat = _spectrum(stepped, half).T
        assert step_hat.strides == (16, 16 * op.dim)
        inputs = [(step_hat, residual_norm(p, stepped)[0])]
        if p is prob:
            u_hat, _ = op.solve(source)
            inputs.append((u_hat.T, solve_frequency(prob).residual_rel))
        for y, got in inputs:
            blocked = np.sqrt(weight @ op._residual_sq(y[:, None], source)[0])
            want = solver._parseval_norm(op.matvec(y.T) - f_hat, weight)
            assert want > 0 and abs(blocked - want) <= 1e-14 * f_norm
            assert got == blocked / f_norm


@pytest.mark.parametrize("call", ["solve", "sweep"])
def test_full_size_peaks_in_the_work_layout(call):
    # scenarios/reflection.cfg.  The spectral solve forms the source in its one
    # (dim, n_freq) work array and solves it there, so it holds that array and the
    # Thomas pivots: 2.03 units of K dim complex, K the solved rows, against 3.01
    # with a separate source spectrum.  The six-law sweep forms each block's source
    # in its work array, and the Thomas kernel keeps its pivots in the array's
    # second column: 18.4 MiB, against 25.3 MiB with a pivot array beside it and
    # 36.7 MiB with a separate block of f_hat as well
    prob = load_scenario(str(ROOT / "scenarios/reflection.cfg")).build()
    laws = [BoundaryLaw.robin(k, prob.sd) for k in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)]
    tracemalloc.start()
    try:
        if call == "solve":
            solver._solve_spectral(prob)
        else:
            solve_boundary_family(prob, laws, probe_rows(prob.sd))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = (prob.grid.n // 2 + 1) * prob.sd.n_reduced * 16
    assert peak <= (2.25 * unit if call == "solve" else 20 * 2**20)


def images_oracle_error(n_cells: int, n: int) -> float:
    """Error of the spectral solve against the reflected-images solution.

    For the identity material law with vanishing normal velocity at both
    ends, a pressure source w(t) G(x) drives the two characteristic
    variables p +- v along straight lines; even reflection of G about both
    walls gives the exact bounded-domain solution, evaluated here by a
    causal convolution in time.
    """
    length = 1.0
    window, rho = 12.0, 2.5
    t_c, t_w, x_c, x_w = 2.0, 0.25, 0.4, 0.08
    sd = SpatialDiscretization(length, n_cells)
    grid = WeightedGrid(0.0, window / n, n, rho)
    t = grid.times
    fp = bump(t, t_c, t_w)[:, None] * bump(sd.cell_x, x_c, x_w)[None, :]
    f = WeightedSignal(grid, interleave(fp, np.zeros((n, n_cells - 1))))
    prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.robin(0.0, sd), f)
    rep = solve_frequency(prob)

    n_images = int(np.ceil(window / (2 * length))) + 1
    ms = np.arange(-n_images, n_images + 1)

    def g_images(y):
        acc = np.zeros_like(y)
        for m in ms:
            acc += bump(y - 2 * m * length, x_c, x_w) + bump(-y - 2 * m * length, x_c, x_w)
        return acc

    w_t = bump(t, t_c, t_w)

    def characteristic(xs, sign):
        # q(t_j, x) = dt * sum_m w(t_j - m dt) G~(x -+ m dt): causal convolution
        lags = grid.dt * np.arange(n)
        table = g_images(xs[None, :] - sign * lags[:, None])
        full = scipy.signal.fftconvolve(w_t[:, None], table, axes=0)[:n] * grid.dt
        full -= 0.5 * grid.dt * w_t[:, None] * table[0][None, :]  # trapezoid end correction
        return full

    p_exact_c = 0.5 * (characteristic(sd.cell_x, +1) + characteristic(sd.cell_x, -1))
    faces = sd.face_x[1:-1]
    v_exact_f = 0.5 * (characteristic(faces, +1) - characteristic(faces, -1))
    exact = WeightedSignal(grid, interleave(p_exact_c, v_exact_f))
    return rel_gap(rep.solution, exact)


def manufactured_error(n_cells: int, n: int = 512) -> float:
    """Spatial error against a closed-form solution of the identity-law system.

    p = T(t) cos(k x), v = S(t) sin(k x) with k = pi / L satisfies the
    vanishing-normal-velocity condition exactly; the source that produces
    it is f_p = (T' + k S) cos(k x), f_v = (S' - k T) sin(k x).
    """
    length, window, rho = 1.0, 12.0, 2.5
    sd = SpatialDiscretization(length, n_cells)
    grid = WeightedGrid(0.0, window / n, n, rho)
    t = grid.times
    k = np.pi / length

    def T(x):
        return bump(x, 3.0, 0.5)

    def T_dot(x):
        return -2.0 * (x - 3.0) / 0.5**2 * T(x)

    def S(x):
        return 0.7 * bump(x, 3.5, 0.6)

    def S_dot(x):
        return -2.0 * (x - 3.5) / 0.6**2 * S(x)

    fp = (T_dot(t) + k * S(t))[:, None] * np.cos(k * sd.cell_x)[None, :]
    fv = (S_dot(t) - k * T(t))[:, None] * np.sin(k * sd.face_x[1:-1])[None, :]
    f = WeightedSignal(grid, interleave(fp, fv))
    prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.robin(0.0, sd), f)
    rep = solve_frequency(prob)
    p_exact = T(t)[:, None] * np.cos(k * sd.cell_x)[None, :]
    v_exact = S(t)[:, None] * np.sin(k * sd.face_x[1:-1])[None, :]
    exact = WeightedSignal(grid, interleave(p_exact, v_exact))
    return rel_gap(rep.solution, exact)


def reference_march(prob: EvoProblem) -> np.ndarray:
    """The implicit-Euler march of solve_timestep, one kernel state array and one loop per mode.

    Complex arithmetic throughout, and a dense inverse of the step
    matrix: it shares the step matrix and the realizations with
    solve_timestep, nothing else.
    """
    grid, sd = prob.grid, prob.sd
    delta, dim = grid.dt, sd.n_reduced
    step_inverse = np.linalg.inv(prob.operator_at(np.full(1, 1.0 / delta, dtype=complex)).dense(0))
    block = np.arange(dim) % 2  # 0 pressure, 1 velocity
    mem = realize(prob.law.m1, grid.rho)
    flux = realize_flux(prob.bl, grid.rho)
    ends = [0, dim - 1]
    end_gain = np.asarray(prob.bl.normal_alpha) / sd.dx
    m0 = np.diag(prob.law.m0)[block] / delta
    mem_states = np.zeros((mem.n_poles, dim), dtype=complex)
    flux_states = np.zeros((flux.n_poles, 2), dtype=complex)
    out = np.zeros((grid.n, dim), dtype=complex)
    x = np.zeros(dim, dtype=complex)
    for k in range(1, grid.n):
        rhs = prob.f.values[k] + m0 * x
        for state, p, r in zip(mem_states, mem.poles, mem.residues):
            rhs -= r[block, block] / (1.0 - delta * p) * state
        for state, p, r in zip(flux_states, flux.poles, flux.residues):
            rhs[ends] -= r[0, 0] * end_gain / (1.0 - delta * p) * state
        x = step_inverse @ rhs
        out[k] = x
        for m, p in enumerate(mem.poles):
            mem_states[m] = (mem_states[m] + delta * x) / (1.0 - delta * p)
        for m, p in enumerate(flux.poles):
            flux_states[m] = (flux_states[m] + delta * x[ends]) / (1.0 - delta * p)
    return out


def memory_scenario(n: int = 512) -> EvoProblem:
    """bench/scenarios/memory.cfg at n samples over the same window."""
    sc = load_scenario(str(ROOT / "bench/scenarios/memory.cfg"))
    return dataclasses.replace(sc, n=n, dt=sc.dt * sc.n / n).build()


def conjugate_pair_problem() -> EvoProblem:
    """A real_in_time problem: material poles -2 +- 1j with conjugate residues, two flux poles."""
    res = np.diag([0.2 + 0.1j, 0.1 - 0.05j])
    m1 = RationalMatrixFunction(
        const=np.diag([0.1, 0.05]).astype(complex),
        lin=np.zeros((2, 2)),
        poles=[-2.0 + 1.0j, -2.0 - 1.0j],
        residues=[res, res.conj()],
    )
    law = MaterialLaw(np.diag([1.5, 1.0]).astype(complex), m1, r=1.0)
    bl = flux_boundary(SpatialDiscretization(1.0, 32), 0.5, poles_w=[-1.2, -0.7], residues_w=[0.8, 0.3])
    return make_problem(law=law, bl=bl)


class TestFusedMarch:
    """solve_timestep's single state array against the per-mode reference march."""

    @pytest.mark.parametrize("case", ["memory", "conjugate_pair", "near_pole"])
    def test_matches_the_reference_march(self, case):
        if case == "memory":  # real poles: the real march
            prob = memory_scenario()
        elif case == "conjugate_pair":  # real in time, complex modes: the complex march
            prob = conjugate_pair_problem()
        else:  # a complex law
            prob = load_scenario(str(ROOT / "bench/scenarios/near_pole.cfg")).build()
        assert prob.real_in_time == (case != "near_pole")
        got = solve_timestep(prob).solution
        assert rel_gap(got, got.with_values(reference_march(prob))) <= 1e-13

    def test_real_march_is_the_complex_march(self):
        # on real poles the forced complex march does the same arithmetic with zero imaginary parts
        real_prob, complex_prob = memory_scenario(), memory_scenario()
        complex_prob.__dict__["real_in_time"] = False
        real = solve_timestep(real_prob).solution.values
        forced = solve_timestep(complex_prob).solution.values
        assert real.dtype == np.float64 and forced.dtype == np.complex128
        assert not forced.imag.view(np.int64).any()  # +0.0 bits, not just zeros
        assert np.array_equal(real.view(np.int64), forced.real.view(np.int64))

    def test_march_peaks_at_three_solutions(self):
        # memory.cfg at n = 2048, as it is and with its material pole split into the
        # conjugate pair -0.5 +- 0.3i, which marches in complex.  The march holds U,
        # and the source is one more state row, so its (n, dim) samples are never
        # built; the residual applies the operator in the spectrum its transform
        # returns.  3.0 units of n dim float64, against 5.1 with the samples and a
        # second spectrum; the complex march's buffer is dropped once U is built:
        # 3.15 units, against 5.03 when it was held through the residual
        solve_timestep(memory_scenario())  # scipy.linalg loads outside the trace
        prob = memory_scenario(2048)
        res = np.diag([0.1, 0.05]).astype(complex)
        pair = RationalMatrixFunction(prob.law.m1.const, prob.law.m1.lin, [-0.5 + 0.3j, -0.5 - 0.3j], [res, res])
        pair_prob = dataclasses.replace(prob, law=MaterialLaw(prob.law.m0, pair, prob.law.r))
        assert pair_prob.real_in_time
        for prob in (prob, pair_prob):
            tracemalloc.start()
            try:
                solve_timestep(prob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3.5 * prob.grid.n * prob.sd.n_reduced * 8


class TestTimestep:
    def test_zero_source(self, problem):
        prob = EvoProblem(
            problem.grid, problem.sd, problem.law, problem.bl,
            zero_signal(problem.grid, problem.sd.n_reduced),
        )
        rep = solve_timestep(prob)
        assert np.abs(rep.solution.values).max() == 0.0

    @staticmethod
    def zero_prefix_march(law=None, scale=1.0) -> tuple[np.ndarray, int]:
        """The stepper's U for the source scale * f with an exact zero prefix, and its length."""
        prob = make_problem(n=512, law=law)
        vals = prob.f.values * scale
        start_idx = int(np.searchsorted(prob.grid.times, 0.2))
        vals[:start_idx] = 0.0
        prob = EvoProblem(prob.grid, prob.sd, prob.law, prob.bl, WeightedSignal(prob.grid, vals))
        u = solve_timestep(prob).solution.values
        assert np.abs(u[start_idx:]).max() > 0.0
        assert u.imag.any() != prob.real_in_time  # the real march returns a real U
        return u, start_idx

    def test_exactly_causal(self):
        # source with an exact zero prefix: solution prefix must be exactly zero too
        u, start_idx = self.zero_prefix_march()
        assert np.abs(u[:start_idx]).max() == 0.0
        assert not u[:start_idx].view(np.int64).any()  # +0.0 bits: the march starts at the source

    def test_source_at_the_first_sample_only(self):
        # U's row 0 is the initial state, never a step: a source sample there moves nothing
        prob = make_problem(n=512)
        vals = np.zeros(prob.f.values.shape)
        vals[0] = prob.f.values[np.argmax(prob.f.sample_peak())]
        prob = EvoProblem(prob.grid, prob.sd, prob.law, prob.bl, WeightedSignal(prob.grid, vals))
        u = solve_timestep(prob).solution.values
        assert not u[0].view(np.int64).any()
        assert not u.any()

    @pytest.mark.parametrize("case", ["complex_source", "complex_pole"])
    def test_exactly_causal_in_complex_arithmetic(self, case):
        # the complex march, with a real LU (complex source) and a complex one
        if case == "complex_source":
            u, start_idx = self.zero_prefix_march(scale=1.0 - 0.5j)
        else:
            u, start_idx = self.zero_prefix_march(law=memory_law(pole=-0.5 + 0.3j))
        assert np.abs(u[:start_idx]).max() == 0.0
        assert not u[:start_idx].view(np.int64).any()  # +0.0 bits, real and imaginary parts

    def test_step_matrix_is_operator_at_inverse_step(self):
        # implicit Euler replaces z by delta: the frequency operator at
        # w = 1/delta is m0/delta plus each realization's one-step transfer
        # const + delta sum res/(1 - delta p)
        sd = SpatialDiscretization(1.0, 16)
        m1 = RationalMatrixFunction(
            const=np.diag([0.1, 0.05]),
            lin=np.diag([0.3, 0.2]),
            poles=[-0.5, -2.0 + 1.0j],
            residues=[np.diag([0.2, 0.1]), np.diag([0.05j, 0.3])],
        )
        law = MaterialLaw(np.diag([1.5, 1.0]), m1, r=1.0)
        bl = flux_boundary(sd, 0.5, poles_w=[-1.2, -0.7 + 0.4j], residues_w=[0.8, 0.3 - 0.1j])
        prob = make_problem(n_cells=16, law=law, bl=bl)
        rho, delta = prob.grid.rho, prob.grid.dt
        op = prob.operator_at(np.full(1, 1.0 / delta, dtype=complex))

        def transfer(real):
            return real.const + delta * np.sum(
                real.residues / (1.0 - delta * real.poles)[:, None, None], axis=0
            )

        assert realize(m1, rho).poles.size == 3 and realize_flux(bl, rho).poles.size == 2
        sym = np.diag(law.m0) / delta + np.diag(transfer(realize(m1, rho)))
        flux = transfer(realize_flux(bl, rho))[0, 0]
        a0, aL = bl.normal_alpha
        expected = [sym[0], sym[1], flux * a0 / sd.dx, flux * aL / sd.dx]
        got = [op.sym_p[0], op.sym_v[0], op.corner0[0], op.cornerL[0]]
        for value, want in zip(got, expected):
            assert abs(value - want) <= 1e-13 * abs(want)

    def test_reports_the_step_matrix_condition_bound(self, problem):
        rep = solve_timestep(problem)
        step = problem.operator_at(np.full(1, 1.0 / problem.grid.dt, dtype=complex))
        assert rep.max_condition_bound == step.condition_bound()[0]
        assert rep.max_condition_bound >= np.linalg.cond(step.dense(0), 2)
        assert np.isnan(rep.condition_peak_s)
        assert "condition_peak_s      nan" in rep.to_text()
        assert rep.beta0_grid == step.margin()[0] and np.isnan(rep.beta0_grid_s)
        assert "residual_norm         spectral (rectangle rule)\n" in rep.to_text()

    def test_cross_solver_first_order_convergence(self):
        # halving dt halves the gap to the spectral oracle, memory included
        gaps = []
        for n in (512, 1024, 2048):
            sd = SpatialDiscretization(1.0, 24)
            bl = flux_boundary(sd, 0.5, poles_w=[-1.2], residues_w=[0.8])
            prob = make_problem(n_cells=24, n=n, rho=3.0, bl=bl, law=memory_law())
            spec = solve_frequency(prob)
            ts = solve_timestep(prob)
            gaps.append(rel_gap(ts.solution, spec.solution))
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 1.7) and np.all(ratios < 2.3)

    def test_step_outside_holomorphy_ball_rejected(self):
        # dt = 2.5 >= 2r = 2: z = dt lies outside the ball the laws are given on
        prob = make_problem(n=64, window=160.0)
        with pytest.raises(SolverError, match="time step 2.5 is not below 2r = 2"):
            solve_timestep(prob)

    def test_energy_monotone_after_source_off(self):
        # skew spatial part (vanishing normal velocity) plus implicit Euler:
        # the quadratic energy cannot grow once the source is gone
        prob = make_problem(robin_k=None, law=identity_law(), t_center=1.0, t_width=0.3)
        rep = solve_timestep(prob)
        vals = rep.solution.values
        t = prob.grid.times
        energy = np.sum(np.abs(vals) ** 2, axis=1)
        after = energy[t > 3.0]
        assert np.all(np.diff(after) <= 1e-12 * energy.max())


class TestResidual:
    def test_exact_solution(self, problem):
        rep = solve_frequency(problem)
        res, is_rel = residual_norm(problem, rep.solution)
        assert is_rel and res <= 1e-10

    def test_perturbation_slope(self, problem):
        rep = solve_frequency(problem)
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(rep.solution.values.shape)
        noise_sig = WeightedSignal(problem.grid, noise)
        noise = noise / rho_norm(noise_sig)
        res = []
        for delta in (1e-4, 2e-4):
            pert = rep.solution.with_values(rep.solution.values + delta * noise)
            res.append(residual_norm(problem, pert)[0])
        slope = res[1] / res[0]
        assert abs(slope - 2.0) < 0.2

    def test_zero_source_absolute_flag(self, problem):
        prob = EvoProblem(
            problem.grid, problem.sd, problem.law, problem.bl,
            zero_signal(problem.grid, problem.sd.n_reduced),
        )
        u = interior_signal(problem.grid, dim=problem.sd.n_reduced, seed=1)
        res, is_rel = residual_norm(prob, u)
        assert not is_rel and res > 0

    @pytest.mark.parametrize("n", [512, 511])
    def test_half_spectrum_matches_the_full_spectrum(self, n):
        # a real stepper solution of a real problem is applied on s >= 0 alone; with white
        # noise added, large at the Nyquist row of an even grid, whose imaginary part the
        # half spectrum's Parseval sum keeps
        half_prob, full_prob = memory_scenario(n), memory_scenario(n)
        full_prob.__dict__["real_in_time"] = False
        u = solve_timestep(half_prob).solution
        assert not u.values.imag.any()
        noise = 0.1 * np.random.default_rng(3).standard_normal(u.values.shape)
        for v in (u, u.with_values(u.values + noise)):
            half, full = residual_norm(half_prob, v)[0], residual_norm(full_prob, v)[0]
            assert half == pytest.approx(full, rel=1e-12)
        # an imaginary part takes the full spectrum, which the half one would drop
        half = residual_norm(half_prob, u)[0]
        w = u.with_values(u.values + 0.1j * u.values[:, ::-1])
        assert residual_norm(half_prob, w)[0] == residual_norm(full_prob, w)[0]
        assert residual_norm(half_prob, w)[0] > 1.5 * half

    @pytest.mark.parametrize(
        "case", ["memory-512", "memory-511", "noise-512", "noise-511", "near_pole", "complex_source"]
    )
    def test_spectral_residual_is_the_time_domain_residual(self, case):
        # residual_norm never leaves the spectrum; the reference applies the operator on the
        # full spectrum, transforms back to complex samples and sums the rectangle-rule
        # norms of T U - f and of f over the samples
        name, _, n = case.partition("-")
        if name == "near_pole":  # a complex law: the full spectrum
            prob = load_scenario(str(ROOT / "bench/scenarios/near_pole.cfg")).build()
        elif name == "complex_source":
            real = memory_scenario(512)
            prob = dataclasses.replace(real, f=real.f.with_values(real.f.values * (1.0 - 0.5j)))
        else:  # the half spectrum, with (512) and without (511) a Nyquist row
            prob = memory_scenario(int(n))
        u = solve_timestep(prob).solution
        if name == "noise":  # large end samples and a large Nyquist row
            u = u.with_values(u.values + 0.1 * np.random.default_rng(3).standard_normal(u.values.shape))
        assert prob.real_in_time == (name in ("memory", "noise"))
        r = solver._apply_spectral(prob.grid_operator, forward_transform(u)).values - prob.f.values
        rectangle = prob.grid.dt * np.exp(-2.0 * prob.grid.rho * prob.grid.times)
        want = np.sqrt(rectangle @ np.sum(np.abs(r) ** 2, axis=1) / (rectangle @ prob.f.sample_energy()))
        got, is_rel = residual_norm(prob, u)
        assert is_rel and got == pytest.approx(want, rel=1e-12)

    def test_source_norm_computed_once(self, problem):
        assert "f_norm" not in problem.__dict__
        rep = solve_frequency(problem)
        assert problem.__dict__["f_norm"] == rho_norm(problem.f)
        assert rep.energy_ratio == rho_norm(rep.solution) / rho_norm(problem.f)

    def test_timestep_residual_first_order(self):
        res = []
        for n in (512, 1024):
            prob = make_problem(n=n)
            rep = solve_timestep(prob)
            res.append(rep.residual_rel)
        assert 1.6 < res[0] / res[1] < 2.4


class TestReport:
    def test_text_roundtrip_fields(self, problem):
        rep = solve_frequency(problem)
        text = rep.to_text()
        for key in ("rho", "beta0", "energy_ratio", "causality_margin", "residual_rel"):
            assert key in text
        assert "residual_norm         spectral (rectangle rule)\n" in text
        assert "spectrum              half (real source and laws)\n" in text

    def test_beta0_grid_is_the_smallest_hermitian_eigenvalue(self):
        prob = make_problem(n_cells=6, n=128)
        rep = solve_frequency(prob)
        s = prob.grid.freqs
        op = prob.operator_at(prob.grid.w)
        hermitian = [0.5 * (op.dense(k) + op.dense(k).conj().T) for k in range(s.size)]
        lowest = np.array([np.linalg.eigvalsh(h)[0] for h in hermitian])
        assert np.allclose(op.margin(), lowest, rtol=1e-13, atol=0.0)
        assert rep.beta0_grid == op.margin().min()
        assert rep.beta0_grid_s == s[op.margin() == rep.beta0_grid].min()
        assert rep.beta0 <= rep.beta0_grid
        assert f"beta0_grid            {rep.beta0_grid:.17g}" in rep.to_text()

    def test_inadmissible_wall_fails_the_energy_bound(self):
        # reflection.cfg at a quarter size, with robin_k = -0.8: the wall supplies
        # energy, so 1/beta0 bounds nothing, though beta0 = 2 and the ratio is below it
        sc = load_scenario(str(ROOT / "scenarios/reflection.cfg"))
        sc = dataclasses.replace(sc, n=sc.n // 4, dt=sc.dt * 4, cells=sc.cells // 4)
        admissible = solve_frequency(sc.build())
        rep = solve_frequency(dataclasses.replace(sc, robin_k=-0.8).build())
        assert admissible.energy_bound_ok() and not any("wall" in w for w in admissible.warnings)
        assert rep.beta0 == 2.0 and rep.energy_ratio <= 1.0 / rep.beta0
        assert not rep.energy_bound_ok() and not rep.bounds_ok()
        [warning] = [w for w in rep.warnings if "wall" in w]
        assert warning.startswith("the boundary law's min Re flux is -0.8 < 0")
        assert warning.endswith("the energy bound 1/beta0 does not apply")
        text = rep.to_text()
        assert "energy_bound_ok       False\n" in text and f"warning               {warning}\n" in text

    def test_condition_bound_peak(self, problem):
        rep = solve_frequency(problem)
        s = problem.grid.freqs
        bound = problem.operator_at(problem.grid.w).condition_bound()
        assert rep.max_condition_bound == bound.max()
        assert rep.condition_peak_s == s[bound == bound.max()].min()
        assert f"condition_peak_s      {rep.condition_peak_s:.9g}" in rep.to_text()

    @pytest.mark.parametrize("odd", [0, 1])
    def test_ties_go_to_the_smallest_s(self, odd):
        # a memoryless law: Re of every diagonal is rho m0 at every s, so every
        # frequency reaches beta0_grid; the report names the smallest s, not
        # the first in FFT order (s = 0).  For odd n the condition bound peaks
        # at both ends, s = -s_max and s_max, and names -s_max
        sc = load_scenario(str(ROOT / "scenarios/reflection.cfg"))
        sc = dataclasses.replace(sc, n=sc.n // 4 - odd, dt=sc.dt * 4, cells=sc.cells // 4)
        prob = sc.build()
        rep = solve_frequency(prob)
        s = prob.grid.freqs
        op = prob.operator_at(prob.grid.w)
        assert np.ptp(op.margin()) == 0.0 and s[0] == 0.0
        assert rep.beta0_grid_s == s.min()
        bound = op.condition_bound()
        assert (bound == bound.max()).sum() == 1 + odd
        assert rep.condition_peak_s == s.min()

    def test_causality_margin_reads_every_cut(self, problem):
        # U is nonzero at one sample, just after one of ten evenly spaced cut
        # times, with beta0 ||U|| between ||chi_a f|| there and at the next
        # such cut: every one of the ten cuts reads a margin >= 0, yet the
        # cut at that sample reads a violation
        grid = problem.grid
        _, _, beta0 = problem.margin_constants()
        wq = grid.weights()
        energy_f = np.sqrt(np.cumsum(wq * problem.f.sample_energy()))
        ten = grid.t0 + grid.window_length * np.arange(1, 11) / 11.0
        at = np.searchsorted(grid.times, ten, side="right") - 1  # the sample of each cut
        m = int(np.argmax(energy_f[at[1:]] - energy_f[at[:-1] + 1]))
        j, nxt = at[m] + 1, at[m + 1]
        assert energy_f[j] < energy_f[nxt]
        vals = np.zeros((grid.n, problem.sd.n_reduced))
        vals[j, 0] = 0.5 * (energy_f[j] + energy_f[nxt]) / (beta0 * np.sqrt(wq[j]))
        u = WeightedSignal(grid, vals)
        margins = solver.causality_margins(problem, u, beta0)
        assert (margins[at] >= 0.0).all()
        assert np.argmin(margins) == j
        rep = solver._report(
            problem, u, "frequency", time.perf_counter(), (0.0, True),
            problem.grid_operator, grid.freqs, [],
        )
        assert rep.causality_margin == margins[j] < -solver.CAUSALITY_SLACK
        assert not rep.causality_ok()

    def test_both_solvers_warn_on_unpadded_source(self):
        # a source centred near the window end leaves too little trailing padding
        cfg = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "default.cfg"
        prob = parse_scenario(cfg.read_text().replace("t_center = 1.0", "t_center = 10.5")).build()
        freq, step = solve_frequency(prob), solve_timestep(prob)
        assert not freq.f_padded_ok and not step.f_padded_ok
        assert freq.warnings == step.warnings
        assert len(freq.warnings) == 1
        assert re.search(r"samples \[\d+, \d+\] of 512", freq.warnings[0])

    def test_operator_application_consistency(self, problem):
        # applying the operator to the solution reproduces the source
        rep = solve_frequency(problem)
        back = apply_evo_operator(problem, rep.solution)
        assert rel_gap(back, problem.f) < 1e-10

    def test_operator_rejects_a_foreign_grid(self, problem):
        # same n, other dt: the problem's frequencies would silently be wrong
        g = problem.grid
        other = WeightedGrid(g.t0, 1.5 * g.dt, g.n, g.rho)
        u = WeightedSignal(other, problem.f.values)
        for apply in (apply_evo_operator, apply_evo_adjoint_operator):
            with pytest.raises(ValueError, match="not the problem's grid"):
                apply(problem, u)
