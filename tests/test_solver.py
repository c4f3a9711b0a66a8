import numpy as np
import pytest
import scipy.signal

from conftest import bump, identity_law, interior_signal, make_problem, memory_law
from evowaves.material import MaterialLaw
from evowaves.rational import RationalMatrixFunction, scalar_rational
from evowaves.signals import WeightedGrid, WeightedSignal, rho_norm
from evowaves.solver import (
    EvoProblem,
    ImproperKernelError,
    SolverError,
    apply_evo_operator,
    realize,
    realize_flux,
    residual_norm,
    solve_frequency,
    solve_timestep,
)
from evowaves.spatial import BoundaryLaw, build_grid
from evowaves.transform import frequencies_for


def rel_gap(a, b):
    return rho_norm(a.with_values(a.values - b.values)) / rho_norm(b)


class TestProblemSetup:
    def test_rho_threshold_names_bounds(self):
        with pytest.raises(SolverError, match="mu0/gamma0"):
            make_problem(rho=0.4)

    def test_offdiagonal_material_rejected(self):
        law = MaterialLaw(
            np.array([[1.0, 0.2], [0.2, 1.0]]), RationalMatrixFunction.zero(2), r=1.0
        )
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
                WeightedSignal.zeros(prob.grid, prob.sd.n_reduced + 1),
            )


class TestRealize:
    def test_constant_kernel(self):
        kern = RationalMatrixFunction.constant(0.7 * np.eye(2))
        real = realize(kern, rho=2.0)
        assert real.n_states == 0
        assert np.allclose(real.const, 0.7 * np.eye(2))

    def test_response_matches_direct_evaluation(self):
        kern = memory_law().m1
        real = realize(kern, rho=3.0)
        ws = 1j * np.linspace(-40, 40, 64) + 3.0
        direct = kern.eval_many(1.0 / ws)
        got = real.response(ws)
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_robin_flux_is_pure_constant(self):
        sd = build_grid(1.0, 8)
        real = realize_flux(BoundaryLaw.robin(0.9, sd), rho=2.0)
        assert real.n_states == 0
        assert real.const[0, 0] == pytest.approx(0.9)

    def test_flux_response_matches_symbol(self):
        sd = build_grid(1.0, 8)
        bl = BoundaryLaw.from_flux_response(
            sd, 0.3, poles_w=[-1.5 + 2.0j, -0.7], residues_w=[0.4 - 0.1j, 0.9]
        )
        real = realize_flux(bl, rho=2.0)
        s = np.linspace(-30, 30, 64)
        direct = bl.flux_symbol(s, 2.0)
        got = real.response(1j * s + 2.0)[:, 0, 0]
        assert np.abs(got - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_improper_flux_rejected(self):
        sd = build_grid(1.0, 8)
        bl = BoundaryLaw(scalar_rational(const=0.3), *BoundaryLaw.normal_profile(sd), 1.0)
        with pytest.raises(ImproperKernelError, match="time integration"):
            realize_flux(bl, rho=2.0)

    def test_unstable_realization_rejected(self):
        # kernel pole at z = 0.4 outside a tiny ball maps to 1/0.4 = 2.5 > rho;
        # const = res/pole keeps g(0) = 0 so properness is not the blocker
        sd = build_grid(1.0, 8)
        g = scalar_rational(const=0.5, poles=[0.4], residues=[0.2])
        bl = BoundaryLaw(g, *BoundaryLaw.normal_profile(sd), r=0.05)
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
        assert np.abs(real.response(ws)[:, 0, 0] - c / (ws - q)).max() < 1e-12
        t = grid.times
        phi = bump(t, 2.0, 0.25)
        u = WeightedSignal(grid, phi[:, None])
        from evowaves.material import apply_rational_calculus

        out = apply_rational_calculus(kern, u, r=10.0)
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
            WeightedSignal.zeros(prob.grid, prob.sd.n_reduced),
        )
        rep = solve_frequency(prob)
        assert rho_norm(rep.solution) == 0.0
        assert not rep.residual_is_relative

    def test_residual_small_and_energy_bound(self, problem):
        rep = solve_frequency(problem)
        assert rep.residual_rel <= 1e-10
        assert rep.energy_ratio <= (1.0 / rep.beta0) * 1.02
        assert rep.causality_margin >= -1e-6

    def test_singular_frequency_named(self, problem, monkeypatch):
        import evowaves.spatial as spatial_mod

        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        # every Thomas pivot counts as broken down, and the pivoted solver fails
        monkeypatch.setattr(spatial_mod, "PIVOT_FLOOR", np.inf)
        monkeypatch.setattr(scipy.linalg, "solve_banded", boom)
        with pytest.raises(SolverError, match="frequency s ="):
            solve_frequency(problem)

    def test_pivoted_fallback_agrees(self, problem, monkeypatch):
        import evowaves.spatial as spatial_mod

        fast = solve_frequency(problem)
        assert not any("pivot" in w for w in fast.warnings)
        monkeypatch.setattr(spatial_mod, "PIVOT_FLOOR", np.inf)
        pivoted = solve_frequency(problem)
        assert rel_gap(pivoted.solution, fast.solution) < 1e-12
        s = frequencies_for(problem.grid)
        n = problem.grid.n
        assert any(
            f"broke down at {n} of {n} frequencies in s = [{s[0]:.9g}, {s[-1]:.9g}]" in w
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
        from evowaves.cli import measure_reflection

        length, window, rho, n, n_cells = 1.0, 8.0, 2.0, 1024, 128
        sd = build_grid(length, n_cells)
        grid = WeightedGrid(0.0, window / n, n, rho)
        t = grid.times
        wt = bump(t, 0.4, 0.05)
        fp = wt[:, None] * bump(sd.cell_x, 0.2, 0.05)[None, :]
        fv = wt[:, None] * bump(sd.face_x[1:-1], 0.2, 0.05)[None, :]
        f = WeightedSignal(grid, np.concatenate([fp, fv], axis=1))
        prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.robin(100.0, sd), f)
        r_meas, _ = measure_reflection(prob, x_source=0.2, t_source=0.4)
        assert abs(r_meas - (1.0 - 100.0) / (1.0 + 100.0)) <= 0.03

    def test_manufactured_solution_order_two_in_dx(self):
        errs = [manufactured_error(n_cells=n) for n in (16, 32, 64)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)


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
    sd = build_grid(length, n_cells)
    grid = WeightedGrid(0.0, window / n, n, rho)
    t = grid.times
    fp = bump(t, t_c, t_w)[:, None] * bump(sd.cell_x, x_c, x_w)[None, :]
    f = WeightedSignal(grid, np.concatenate([fp, np.zeros((n, n_cells - 1))], axis=1))
    prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.neumann(sd), f)
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
    exact = WeightedSignal(grid, np.concatenate([p_exact_c, v_exact_f], axis=1))
    return rel_gap(rep.solution, exact)


def manufactured_error(n_cells: int, n: int = 512) -> float:
    """Spatial error against a closed-form solution of the identity-law system.

    p = T(t) cos(k x), v = S(t) sin(k x) with k = pi / L satisfies the
    vanishing-normal-velocity condition exactly; the source that produces
    it is f_p = (T' + k S) cos(k x), f_v = (S' - k T) sin(k x).
    """
    length, window, rho = 1.0, 12.0, 2.5
    sd = build_grid(length, n_cells)
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
    f = WeightedSignal(grid, np.concatenate([fp, fv], axis=1))
    prob = EvoProblem(grid, sd, identity_law(), BoundaryLaw.neumann(sd), f)
    rep = solve_frequency(prob)
    p_exact = T(t)[:, None] * np.cos(k * sd.cell_x)[None, :]
    v_exact = S(t)[:, None] * np.sin(k * sd.face_x[1:-1])[None, :]
    exact = WeightedSignal(grid, np.concatenate([p_exact, v_exact], axis=1))
    return rel_gap(rep.solution, exact)


class TestTimestep:
    def test_zero_source(self, problem):
        prob = EvoProblem(
            problem.grid, problem.sd, problem.law, problem.bl,
            WeightedSignal.zeros(problem.grid, problem.sd.n_reduced),
        )
        rep = solve_timestep(prob)
        assert np.abs(rep.solution.values).max() == 0.0

    def test_exactly_causal(self):
        # source with an exact zero prefix: solution prefix must be zero too
        prob = make_problem(n=512)
        vals = prob.f.values.copy()
        t = prob.grid.times
        start_idx = int(np.searchsorted(t, 0.2))
        vals[:start_idx] = 0.0
        prob = EvoProblem(prob.grid, prob.sd, prob.law, prob.bl, WeightedSignal(prob.grid, vals))
        rep = solve_timestep(prob)
        assert np.abs(rep.solution.values[:start_idx]).max() <= 1e-13

    def test_dt_sub_must_divide(self, problem):
        with pytest.raises(ValueError, match="divide"):
            solve_timestep(problem, dt_sub=problem.grid.dt / 2.5)

    def test_substepping_reduces_gap(self, problem):
        spec = solve_frequency(problem)
        gap1 = rel_gap(solve_timestep(problem).solution, spec.solution)
        gap2 = rel_gap(solve_timestep(problem, dt_sub=problem.grid.dt / 2).solution, spec.solution)
        assert gap2 < gap1

    def test_cross_solver_first_order_convergence(self):
        # halving dt halves the gap to the spectral oracle, memory included
        gaps = []
        for n in (512, 1024, 2048):
            sd = build_grid(1.0, 24)
            bl = BoundaryLaw.from_flux_response(sd, 0.5, poles_w=[-1.2], residues_w=[0.8])
            prob = make_problem(n_cells=24, n=n, rho=3.0, bl=bl, law=memory_law())
            spec = solve_frequency(prob)
            ts = solve_timestep(prob)
            gaps.append(rel_gap(ts.solution, spec.solution))
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all(ratios > 1.7) and np.all(ratios < 2.3)

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
            WeightedSignal.zeros(problem.grid, problem.sd.n_reduced),
        )
        u = interior_signal(problem.grid, dim=problem.sd.n_reduced, seed=1)
        res, is_rel = residual_norm(prob, u)
        assert not is_rel and res > 0

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

    def test_operator_application_consistency(self, problem):
        # applying the operator to the solution reproduces the source
        rep = solve_frequency(problem)
        back = apply_evo_operator(problem, rep.solution)
        assert rel_gap(back, problem.f) < 1e-10
