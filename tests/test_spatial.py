import pathlib

import numpy as np
import pytest

from conftest import apply_symbol, bump, flux_boundary, interior_signal, zero_signal
from evowaves.config import load_scenario
from evowaves.rational import PoleError, scalar_rational
from evowaves.signals import WeightedGrid, WeightedSignal, rho_inner, rho_norm, truncate_before
from evowaves.spatial import (
    BoundaryLaw,
    ReducedOperator,
    apply_spatial_op_adjoint_freq,
    apply_spatial_op_freq,
    assemble_spatial_op,
    assemble_spatial_op_adjoint,
    boundary_sign_functional,
    build_grid,
    cell_to_face,
    reduced_operator,
)
from evowaves.transform import SpectralSignal, forward_transform, frequencies_for, inverse_transform


def reduced_trial(sd, grid, seed, x_profile=None):
    u = interior_signal(grid, dim=sd.n_reduced, seed=seed)
    if x_profile is not None:
        xs = np.concatenate([sd.cell_x, sd.face_x[1:-1]])
        u = u.with_values(u.values * x_profile(xs)[None, :])
    return u


class TestGridBuild:
    def test_gradient_exact_on_linear(self):
        sd = build_grid(1.0, 4)
        grad = sd.d_grad() @ sd.cell_x
        assert np.allclose(grad[1:-1], 1.0)
        assert grad[0] == 0.0 and grad[-1] == 0.0  # boundary rows are zero

    def test_divergence_of_constant(self):
        sd = build_grid(2.0, 8)
        assert np.allclose(sd.d_div() @ np.ones(sd.n_faces), 0.0)

    @pytest.mark.parametrize("n_cells", [4, 17, 64, 333])
    def test_sbp_identity(self, n_cells):
        sd = build_grid(1.3, n_cells)
        assert sd.sbp_residual() <= 1e-13

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError, match="4"):
            build_grid(1.0, 3)


class TestAssembly:
    def test_neumann_skew(self):
        sd = build_grid(1.0, 16)
        bl = BoundaryLaw.robin(0.0, sd)
        mat, elim = assemble_spatial_op(sd, bl, s=0.7, rho=2.0)
        assert np.abs(mat + mat.conj().T).max() <= 1e-13
        assert elim == (0.0, 0.0)

    def test_robin_elimination_exact(self):
        # flux symbol of g = k z is the constant k at every frequency
        sd = build_grid(1.0, 16)
        k = 0.7
        bl = BoundaryLaw.robin(k, sd)
        for s in (0.0, 3.3, -12.0):
            _, (e0, eL) = assemble_spatial_op(sd, bl, s=s, rho=2.0)
            assert e0 == pytest.approx(-k, abs=1e-14)  # x-component at the left end
            assert eL == pytest.approx(k, abs=1e-14)

    def test_adjoint_is_conjugate_transpose(self):
        sd = build_grid(1.0, 12)
        bl = flux_boundary(sd, 0.3, poles_w=[-1.5 + 2j], residues_w=[0.8])
        fwd, _ = assemble_spatial_op(sd, bl, s=1.9, rho=2.0)
        adj = assemble_spatial_op_adjoint(sd, bl, s=1.9, rho=2.0)
        assert np.abs(adj - fwd.conj().T).max() <= 1e-14

    def test_adjoint_robin_sign_flip(self):
        sd = build_grid(1.0, 8)
        k = 0.5
        bl = BoundaryLaw.robin(k, sd)
        adj = assemble_spatial_op_adjoint(sd, bl, s=0.0, rho=2.0)
        # adjoint boundary relation flips the proportionality sign
        assert adj[0, 0] == pytest.approx(k / sd.dx)
        fwd, _ = assemble_spatial_op(sd, bl, s=0.0, rho=2.0)
        assert fwd[0, 0] == pytest.approx(k / sd.dx)
        # off-diagonal blocks are the transposes of the forward ones (the
        # sign flip of the adjoint is already encoded in the grad/div pair)
        assert np.allclose(adj[: sd.n_cells, sd.n_cells :], fwd[sd.n_cells :, : sd.n_cells].T)
        assert np.allclose(adj[: sd.n_cells, sd.n_cells :], -sd.d_div()[:, 1:-1])

    def test_pole_hit_names_frequency(self):
        sd = build_grid(1.0, 8)
        g = scalar_rational(poles=[0.2], residues=[1.0])
        bl = BoundaryLaw(g, *BoundaryLaw.normal_profile(sd), r=0.01)
        with pytest.raises(PoleError, match="frequency"):
            bl.flux_symbol(np.array([0.0]), rho=5.0)

    def test_min_real_flux_finds_narrow_dip(self):
        # flux poles 0.011 off the line w = 0.51 + i s, at s = +-10: a dip about
        # 0.01 wide, where 1024 samples s = rho tan(theta) lie 0.6 apart
        sd = build_grid(1.0, 8)
        w_p = 0.499 + 10j
        bl = flux_boundary(sd, 1.0, poles_w=[w_p, w_p.conjugate()], residues_w=[-0.05, -0.05])
        brute = bl.flux_symbol(10.0 + np.linspace(-0.1, 0.1, 20001), 0.51).real.min()
        assert brute < -3.0
        assert brute - 1e-4 <= bl.min_real_flux(0.51) <= brute

    def test_min_real_flux_unbounded_for_complex_kernel(self):
        # Re flux = rho Re g(0) - s Im g(0) + O(1/s): unbounded below once Im g(0) != 0
        sd = build_grid(1.0, 8)
        bl = BoundaryLaw(scalar_rational(const=0.1j, lin=0.8), *BoundaryLaw.normal_profile(sd), 1.0)
        assert bl.min_real_flux(2.0) == -np.inf

    def test_vectorized_matches_dense(self):
        sd = build_grid(1.0, 10)
        bl = flux_boundary(sd, 0.5, poles_w=[-2.0], residues_w=[1.0])
        rng = np.random.default_rng(0)
        s = np.array([0.0, 2.4, -7.7])
        u = rng.standard_normal((3, sd.n_reduced)) + 1j * rng.standard_normal((3, sd.n_reduced))
        vec = apply_spatial_op_freq(sd, bl, u, s, rho=2.0)
        vec_adj = apply_spatial_op_adjoint_freq(sd, bl, u, s, rho=2.0)
        for k, sk in enumerate(s):
            dense, _ = assemble_spatial_op(sd, bl, float(sk), 2.0)
            assert np.abs(dense @ u[k] - vec[k]).max() < 1e-12
            assert np.abs(dense.conj().T @ u[k] - vec_adj[k]).max() < 1e-12


class TestReducedOperator:
    def make(self, n_cells=6):
        sd = build_grid(1.0, n_cells)
        bl = flux_boundary(sd, 0.5, poles_w=[-2.0], residues_w=[1.0])
        s = np.array([0.0, 2.4, -7.7])
        op = reduced_operator(sd, bl, bl.flux_symbol(s, 2.0), 1j * s + 2.0, 1.5 * (1j * s + 2.0))
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, sd.n_reduced)) + 1j * rng.standard_normal((3, sd.n_reduced))
        return op, u

    def test_matvec_and_adjoint_match_dense(self):
        op, u = self.make()
        fwd = op.matvec(u)
        adj = op.adjoint().matvec(u)
        for k in range(3):
            dense = op.dense(k)
            assert np.abs(dense @ u[k] - fwd[k]).max() < 1e-12
            assert np.abs(dense.conj().T @ u[k] - adj[k]).max() < 1e-12
            assert np.array_equal(op.adjoint().dense(k), dense.conj().T)

    def test_solve_inverts_matvec(self):
        op, u = self.make(n_cells=40)
        x, pivoted = op.solve(op.matvec(u))
        assert pivoted.size == 0
        assert np.abs(x - u).max() < 1e-12 * np.abs(u).max()

    def test_pivot_breakdown_solved_with_pivoting(self):
        # a corner term that cancels the pressure symbol makes the first
        # Thomas pivot exactly zero, yet the matrix stays invertible
        op, u = self.make()
        corner0 = op.corner0.copy()
        corner0[1] = -op.sym_p[1]
        op = ReducedOperator(op.sym_p, op.sym_v, corner0, op.cornerL, op.off, op.n_cells)
        rhs = op.matvec(u)
        x, pivoted = op.solve(rhs)
        assert pivoted.tolist() == [1]
        assert np.abs(x - u).max() < 1e-12 * np.abs(u).max()
        # the pivoted LU on its own, in the interleaved order
        rows = op.stacked_rows()
        x1 = np.empty(op.dim, dtype=complex)
        x1[rows] = op.factor(1)(rhs[1, rows])
        exact = np.linalg.solve(op.dense(1), rhs[1])
        assert np.abs(x1 - exact).max() < 1e-12 * np.abs(exact).max()

    def test_solve_with_corners_matches_dense(self, monkeypatch):
        # f, e_0 and e_last share one elimination, also through the pivoted
        # fallback; the residual pass spans two row blocks
        op, u = self.make(n_cells=40)
        corner0 = op.corner0.copy()
        corner0[1] = -op.sym_p[1]
        op = ReducedOperator(op.sym_p, op.sym_v, corner0, op.cornerL, op.off, op.n_cells)
        rows = list(range(op.dim))
        unit = np.eye(op.dim)
        rhs = [np.stack([u[k], unit[0], unit[op.n_cells - 1]], axis=1) for k in range(3)]
        x, _ = op._solve_with_corners(u, rows)
        for k in range(3):
            exact = np.linalg.solve(op.dense(k), rhs[k])
            assert np.abs(x[:, :, k] - exact).max() < 1e-12 * np.abs(exact).max()

        thomas = ReducedOperator._thomas

        def perturbed(self, y):
            broken = thomas(self, y)
            y += 1e-3
            return broken

        monkeypatch.setattr(ReducedOperator, "_thomas", perturbed)
        x, res_sq = op._solve_with_corners(u, rows)
        for k in range(3):
            expected = np.sum(np.abs(op.dense(k) @ x[:, :, k] - rhs[k]) ** 2, axis=0)
            assert np.allclose(res_sq[:, k], expected, rtol=1e-10)

    def test_singular_frequency_non_finite(self):
        # skew-symmetric matrices of odd dimension are singular
        op, u = self.make()
        zero = np.zeros(3, dtype=complex)
        sym_v = op.sym_v.copy()
        sym_v[2] = 0.0
        sym_p = op.sym_p.copy()
        sym_p[2] = 0.0
        op = ReducedOperator(sym_p, sym_v, zero, zero, op.off, op.n_cells)
        x, pivoted = op.solve(u)
        assert pivoted.tolist() == [2]
        assert np.isfinite(x[:2]).all() and not np.isfinite(x[2]).any()
        with pytest.raises(np.linalg.LinAlgError, match="frequency index 2"):
            op.factor(2)

    def test_condition_bound_above_exact(self):
        op, _ = self.make()
        bound = op.condition_bound()
        assert bound.shape == (3,) and np.isfinite(bound).all()
        for k in range(3):
            assert bound[k] >= np.linalg.cond(op.dense(k), 2)
        assert np.array_equal(op.condition_bound(), bound)

    def test_condition_bound_above_exact_on_default_scenario(self):
        cfg = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "default.cfg"
        prob = load_scenario(str(cfg)).build()
        op = prob.operator(frequencies_for(prob.grid))
        bound = op.condition_bound()
        exact = np.linalg.cond(np.stack([op.dense(k) for k in range(bound.size)]), 2)
        assert np.isfinite(bound).all() and (bound >= exact).all()

    def test_condition_bound_infinite_without_coercivity(self):
        # the zeroed symbols of the singular-frequency test leave min Re d = 0 at k = 2,
        # and the corner of the pivot test cancels the first pressure symbol at k = 1
        op, _ = self.make()
        zero = np.zeros(3, dtype=complex)
        sym_p, sym_v = op.sym_p.copy(), op.sym_v.copy()
        sym_p[2] = sym_v[2] = 0.0
        singular = ReducedOperator(sym_p, sym_v, zero, zero, op.off, op.n_cells)
        assert np.isinf(singular.condition_bound()).tolist() == [False, False, True]
        corner0 = op.corner0.copy()
        corner0[1] = -op.sym_p[1]
        cancelled = ReducedOperator(op.sym_p, op.sym_v, corner0, op.cornerL, op.off, op.n_cells)
        assert np.isinf(cancelled.condition_bound()).tolist() == [False, True, False]


class TestPairing:
    def test_adjoint_pairing_on_signals(self):
        sd = build_grid(1.0, 24)
        grid = WeightedGrid(-4.0, 16.0 / 512, 512, 3.0)
        bl = flux_boundary(sd, 0.4, poles_w=[-1.0 + 1.5j], residues_w=[0.6])
        rho = grid.rho
        u = reduced_trial(sd, grid, seed=1)
        v = reduced_trial(sd, grid, seed=2)

        def apply(sig, adjoint=False):
            sig_hat = forward_transform(sig)
            fn = apply_spatial_op_adjoint_freq if adjoint else apply_spatial_op_freq
            out = fn(sd, bl, sig_hat.values, sig_hat.freqs, rho)
            return inverse_transform(SpectralSignal(grid, out))

        lhs = rho_inner(apply(u), v)
        rhs = rho_inner(u, apply(v, adjoint=True))
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-300)


def face_to_cell(w):
    return 0.5 * (w[..., 1:] + w[..., :-1])


def apply_spatial_time(sd, bl, u):
    """The reduced spatial operator on a full stacked (p, v) signal.

    The two boundary-face velocities are dropped (they are eliminated
    through the boundary law); the result is re-stacked with zeros at the
    boundary faces, matching the zero gradient rows there.
    """
    nc = sd.n_cells
    grid = u.grid
    u_hat = forward_transform(u)
    red = np.concatenate([u_hat.values[:, :nc], u_hat.values[:, nc + 1 : -1]], axis=1)
    out_hat = apply_spatial_op_freq(sd, bl, red, u_hat.freqs, grid.rho)
    out = inverse_transform(SpectralSignal(grid, out_hat)).values
    zeros = np.zeros((grid.n, 1), dtype=complex)
    return WeightedSignal(grid, np.concatenate([out[:, :nc], zeros, out[:, nc:], zeros], axis=1))


class TestApplyTime:
    def test_zero(self):
        sd = build_grid(1.0, 8)
        grid = WeightedGrid(0.0, 0.05, 128, 2.0)
        bl = BoundaryLaw.robin(0.0, sd)
        z = zero_signal(grid, sd.n_cells + sd.n_faces)
        assert not apply_spatial_time(sd, bl, z).values.any()

    def test_matches_direct_blocks_for_consistent_input(self):
        sd = build_grid(1.0, 16)
        grid = WeightedGrid(-2.0, 12.0 / 512, 512, 2.0)
        bl = BoundaryLaw.robin(0.0, sd)
        t = grid.times
        wt = bump(t, 2.0, 0.5)
        p = wt[:, None] * np.cos(np.pi * sd.cell_x / sd.length)[None, :]
        v = wt[:, None] * np.sin(np.pi * sd.face_x / sd.length)[None, :]
        u = WeightedSignal(grid, np.concatenate([p, v], axis=1))
        out = apply_spatial_time(sd, bl, u)
        direct_p = (sd.d_div() @ v.T).T
        direct_v = (sd.d_grad() @ p.T).T
        direct = WeightedSignal(grid, np.concatenate([direct_p, direct_v], axis=1))
        gap = WeightedSignal(grid, out.values - direct.values)
        assert rho_norm(gap) < 1e-10 * rho_norm(direct)

    def test_consistency_order_two(self):
        # manufactured smooth fields: discrete operator converges at O(dx^2)
        grid = WeightedGrid(-2.0, 12.0 / 512, 512, 2.0)
        t = grid.times
        wt = bump(t, 2.0, 0.5)
        errs = []
        for n_cells in (16, 32, 64):
            sd = build_grid(1.0, n_cells)
            bl = BoundaryLaw.robin(0.0, sd)
            k = np.pi / sd.length
            p = wt[:, None] * np.cos(k * sd.cell_x)[None, :]
            v = wt[:, None] * np.sin(k * sd.face_x)[None, :]
            u = WeightedSignal(grid, np.concatenate([p, v], axis=1))
            out = apply_spatial_time(sd, bl, u)
            exact_p = wt[:, None] * (k * np.cos(k * sd.cell_x))[None, :]
            exact_v = wt[:, None] * (-k * np.sin(k * sd.face_x))[None, :]
            exact_v[:, 0] = 0.0  # zero gradient rows at the boundary faces
            exact_v[:, -1] = 0.0
            exact = np.concatenate([exact_p, exact_v], axis=1)
            gap = WeightedSignal(grid, out.values - exact)
            errs.append(rho_norm(gap) / rho_norm(WeightedSignal(grid, exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)


class TestProductRule:
    @pytest.mark.parametrize("n_cells", [32])
    def test_three_term_identity_small(self, n_cells):
        res, _ = product_rule_residual(n_cells)
        assert res < 0.01

    def test_residual_order_two(self):
        res = [product_rule_residual(n)[0] for n in (16, 32, 64)]
        orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
        assert np.all(orders > 1.8) and np.all(orders < 2.2)


def product_rule_residual(n_cells: int) -> tuple[float, float]:
    """Relative residual of div(a q) = (div a) q + a . grad q, discretized."""
    sd = build_grid(1.0, n_cells)
    grid = WeightedGrid(-2.0, 12.0 / 256, 256, 2.0)
    alpha = 1.0 + 0.3 * np.sin(2 * np.pi * sd.face_x / sd.length)
    div_alpha_cells = (0.6 * np.pi / sd.length) * np.cos(2 * np.pi * sd.cell_x / sd.length)
    g = scalar_rational(lin=0.4, poles=[-0.8], residues=[0.3])
    t = grid.times
    p_vals = bump(t, 2.0, 0.5)[:, None] * bump(sd.cell_x, 0.5, 0.12)[None, :]
    p = WeightedSignal(grid, p_vals)
    s = frequencies_for(grid)
    zs = 1.0 / (1j * s + grid.rho)
    q = apply_symbol(p, g.eval_many(zs)[:, 0, 0]).values
    term1 = ((alpha * cell_to_face(sd, q)) @ sd.d_div().T)
    term2 = div_alpha_cells[None, :] * q
    term3 = face_to_cell(alpha * (q @ sd.d_grad().T))
    resid = WeightedSignal(grid, term1 - term2 - term3)
    scale = rho_norm(WeightedSignal(grid, term1))
    return rho_norm(resid) / scale, scale


class TestBoundarySign:
    def make(self, n_cells=24):
        sd = build_grid(1.0, n_cells)
        grid = WeightedGrid(-4.0, 16.0 / 512, 512, 2.5)
        return sd, grid

    def test_zero_kernel_vanishes(self):
        sd, grid = self.make()
        bl = BoundaryLaw.robin(0.0, sd)
        p = interior_signal(grid, dim=sd.n_cells, seed=3)
        assert boundary_sign_functional(sd, bl, p) == 0.0

    def test_interior_pressure_vanishes(self):
        sd, grid = self.make()
        bl = BoundaryLaw.robin(0.8, sd)
        prof = bump(sd.cell_x, 0.5, 0.08)
        p = interior_signal(grid, dim=sd.n_cells, seed=4)
        p = p.with_values(p.values * prof[None, :])
        scale = rho_norm(p) ** 2
        assert abs(boundary_sign_functional(sd, bl, p)) <= 1e-12 * scale

    def test_robin_nonnegative(self):
        sd, grid = self.make()
        bl = BoundaryLaw.robin(1.3, sd)
        for seed in range(6):
            p = interior_signal(grid, dim=sd.n_cells, seed=10 + seed)
            assert boundary_sign_functional(sd, bl, p) >= 0.0

    def test_negative_kernel_detected(self):
        sd, grid = self.make()
        bl = BoundaryLaw(scalar_rational(lin=-1.0), *BoundaryLaw.normal_profile(sd), 1.0)
        p = interior_signal(grid, dim=sd.n_cells, seed=20)
        assert boundary_sign_functional(sd, bl, p) < 0.0


class TestNonnegativity:
    def test_forward_with_cutoff_and_adjoint_plain(self):
        sd = build_grid(1.0, 24)
        grid = WeightedGrid(-4.0, 16.0 / 512, 512, 2.5)
        bl = flux_boundary(sd, 0.5, poles_w=[-1.0], residues_w=[0.7])
        assert bl.min_real_flux(grid.rho) >= 0.0
        worst_fwd = np.inf
        worst_adj = np.inf
        for seed in range(8):
            u = reduced_trial(sd, grid, seed=30 + seed)
            u_hat = forward_transform(u)
            args = (sd, bl, u_hat.values, u_hat.freqs, grid.rho)
            au = inverse_transform(SpectralSignal(grid, apply_spatial_op_freq(*args)))
            astar_u = inverse_transform(SpectralSignal(grid, apply_spatial_op_adjoint_freq(*args)))
            nrm2 = rho_norm(u) ** 2
            chi_u = truncate_before(u, 0.0)
            worst_fwd = min(worst_fwd, rho_inner(chi_u, au).real / nrm2)
            worst_adj = min(worst_adj, rho_inner(u, astar_u).real / nrm2)
        tol = 2.0 * (sd.dx**2 + grid.dt + np.exp(-grid.rho * 0.4 * grid.window_length))
        assert worst_fwd >= -tol
        assert worst_adj >= -tol


class TestInterpolation:
    def test_cell_to_face_second_order_interior(self):
        sd = build_grid(1.0, 64)
        f = np.sin(2 * np.pi * sd.cell_x)
        exact = np.sin(2 * np.pi * sd.face_x)
        err = np.abs(cell_to_face(sd, f)[1:-1] - exact[1:-1]).max()
        assert err < 2 * (2 * np.pi * sd.dx / 2) ** 2
