import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_symbol,
    bump,
    cell_to_face,
    d_div,
    d_grad,
    flux_boundary,
    interior_signal,
    interleave,
    sbp_residual,
    stored_pivot_thomas,
    transposed_source,
    volume_sign_functional,
    zero_signal,
)
from evowaves.config import load_scenario
from evowaves.rational import PoleError, scalar_rational
from evowaves.signals import WeightedGrid, WeightedSignal, rho_inner, rho_norm, truncate_before
from evowaves.spatial import (
    BoundaryLaw,
    ReducedOperator,
    SpatialDiscretization,
    apply_spatial_op_adjoint_freq,
    apply_spatial_op_freq,
    assemble_spatial_op,
    assemble_spatial_op_adjoint,
    boundary_sign_functional,
    reduced_operator,
)
from evowaves.transform import SpectralSignal, forward_transform, inverse_transform


def reduced_trial(sd, grid, seed, x_profile=None):
    u = interior_signal(grid, dim=sd.n_reduced, seed=seed)
    if x_profile is not None:
        u = u.with_values(u.values * x_profile(sd.x)[None, :])
    return u


class TestGridBuild:
    @pytest.mark.parametrize("n_cells", [4, 17])
    def test_unknown_positions_interleave(self, n_cells):
        sd = SpatialDiscretization(1.3, n_cells)
        assert sd.x.shape == (sd.n_reduced,)
        assert np.array_equal(sd.x[0::2], sd.cell_x) and np.array_equal(sd.x[1::2], sd.face_x[1:-1])

    def test_gradient_exact_on_linear(self):
        sd = SpatialDiscretization(1.0, 4)
        grad = d_grad(sd) @ sd.cell_x
        assert np.allclose(grad[1:-1], 1.0)
        assert grad[0] == 0.0 and grad[-1] == 0.0  # boundary rows are zero

    def test_divergence_of_constant(self):
        sd = SpatialDiscretization(2.0, 8)
        assert np.allclose(d_div(sd) @ np.ones(sd.n_faces), 0.0)

    @pytest.mark.parametrize("n_cells", [4, 17, 64, 333])
    def test_sbp_identity(self, n_cells):
        sd = SpatialDiscretization(1.3, n_cells)
        assert sbp_residual(sd) <= 1e-13

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError, match="4"):
            SpatialDiscretization(1.0, 3)


class TestAssembly:
    def test_neumann_skew(self):
        sd = SpatialDiscretization(1.0, 16)
        bl = BoundaryLaw.robin(0.0, sd)
        mat, elim = assemble_spatial_op(sd, bl, s=0.7, rho=2.0)
        assert np.abs(mat + mat.conj().T).max() <= 1e-13
        assert elim == (0.0, 0.0)

    def test_robin_elimination_exact(self):
        # flux symbol of g = k z is the constant k at every frequency
        sd = SpatialDiscretization(1.0, 16)
        k = 0.7
        bl = BoundaryLaw.robin(k, sd)
        for s in (0.0, 3.3, -12.0):
            _, (e0, eL) = assemble_spatial_op(sd, bl, s=s, rho=2.0)
            assert e0 == pytest.approx(-k, abs=1e-14)  # x-component at the left end
            assert eL == pytest.approx(k, abs=1e-14)

    def test_adjoint_is_conjugate_transpose(self):
        sd = SpatialDiscretization(1.0, 12)
        bl = flux_boundary(sd, 0.3, poles_w=[-1.5 + 2j], residues_w=[0.8])
        fwd, _ = assemble_spatial_op(sd, bl, s=1.9, rho=2.0)
        adj = assemble_spatial_op_adjoint(sd, bl, s=1.9, rho=2.0)
        assert np.abs(adj - fwd.conj().T).max() <= 1e-14

    def test_adjoint_robin_sign_flip(self):
        sd = SpatialDiscretization(1.0, 8)
        k = 0.5
        bl = BoundaryLaw.robin(k, sd)
        adj = assemble_spatial_op_adjoint(sd, bl, s=0.0, rho=2.0)
        # adjoint boundary relation flips the proportionality sign
        assert adj[0, 0] == pytest.approx(k / sd.dx)
        fwd, _ = assemble_spatial_op(sd, bl, s=0.0, rho=2.0)
        assert fwd[0, 0] == pytest.approx(k / sd.dx)
        # off-diagonal blocks, pressure rows (even) against velocity
        # columns (odd), are the transposes of the forward ones (the sign
        # flip of the adjoint is already encoded in the grad/div pair)
        assert np.allclose(adj[0::2, 1::2], fwd[1::2, 0::2].T)
        assert np.allclose(adj[0::2, 1::2], -d_div(sd)[:, 1:-1])

    def test_pole_hit_names_frequency(self):
        sd = SpatialDiscretization(1.0, 8)
        g = scalar_rational(poles=[0.2], residues=[1.0])
        bl = BoundaryLaw(g, BoundaryLaw.normal_profile(sd), r=0.01)
        with pytest.raises(PoleError, match="frequency"):
            bl.flux_symbol(np.array([5.0 + 0j]))

    def test_min_real_flux_finds_narrow_dip(self):
        # flux poles 0.011 off the line w = 0.51 + i s, at s = +-10: a dip about
        # 0.01 wide, where 1024 samples s = rho tan(theta) lie 0.6 apart
        sd = SpatialDiscretization(1.0, 8)
        w_p = 0.499 + 10j
        bl = flux_boundary(sd, 1.0, poles_w=[w_p, w_p.conjugate()], residues_w=[-0.05, -0.05])
        brute = bl.flux_symbol(1j * (10.0 + np.linspace(-0.1, 0.1, 20001)) + 0.51).real.min()
        assert brute < -3.0
        assert brute - 1e-4 <= bl.min_real_flux(0.51) <= brute

    def test_min_real_flux_unbounded_for_complex_kernel(self):
        # Re flux = rho Re g(0) - s Im g(0) + O(1/s): unbounded below once Im g(0) != 0
        sd = SpatialDiscretization(1.0, 8)
        bl = BoundaryLaw(scalar_rational(const=0.1j, lin=0.8), BoundaryLaw.normal_profile(sd), 1.0)
        assert bl.min_real_flux(2.0) == -np.inf

    def test_vectorized_matches_dense(self):
        sd = SpatialDiscretization(1.0, 10)
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


def banded_residual(off: float, d: np.ndarray, x: np.ndarray, row: int) -> np.ndarray:
    """d x + off (x_{i+1} - x_{i-1}) - e_row, one row at a time: the same steps at mirrored rows."""
    pad = np.concatenate([[0.0], x, [0.0]])
    r = d * x + off * (pad[2:] - pad[:-2])
    r[row] -= 1.0
    return r


class TestReducedOperator:
    def make(self, n_cells=6):
        sd = SpatialDiscretization(1.0, n_cells)
        bl = flux_boundary(sd, 0.5, poles_w=[-2.0], residues_w=[1.0])
        s = np.array([0.0, 2.4, -7.7])
        op = reduced_operator(sd, bl, bl.flux_symbol(1j * s + 2.0), 1j * s + 2.0, 1.5 * (1j * s + 2.0))
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
        x, pivoted = op.solve(transposed_source(op.matvec(u)))
        assert pivoted.size == 0
        assert np.abs(x - u).max() < 1e-12 * np.abs(u).max()

    def test_pivot_breakdown_solved_with_pivoting(self):
        # a corner term that cancels the pressure symbol makes the margin and
        # the first Thomas pivot exactly zero, yet the matrix stays invertible
        op, u = self.make()
        corner0 = op.corner0.copy()
        corner0[1] = -op.sym_p[1]
        op = ReducedOperator(op.sym_p, op.sym_v, corner0, op.cornerL, op.off, op.n_cells)
        rhs = op.matvec(u)
        x, pivoted = op.solve(transposed_source(rhs))
        assert pivoted.tolist() == [1]
        assert np.abs(x - u).max() < 1e-12 * np.abs(u).max()
        # the pivoted LU on its own
        x1 = op.factor(1)(rhs[1].copy())
        exact = np.linalg.solve(op.dense(1), rhs[1])
        assert np.abs(x1 - exact).max() < 1e-12 * np.abs(exact).max()

    @given(
        seed=st.integers(0, 2**32 - 1),
        log_off=st.floats(-2.0, 4.0),
        log_margin=st.floats(-6.0, 2.0),
        log_imag=st.floats(-2.0, 6.0),
        n_cells=st.integers(4, 80),
    )
    @settings(max_examples=200, deadline=None)
    def test_pivots_stay_above_a_positive_margin(self, seed, log_off, log_margin, log_imag, n_cells):
        # Re d'_i >= Re d_i >= margin_k (_thomas) holds in floating point up to a
        # rounding allowance.  In the sweep, step = fl(fl(-off / d') * off) differs
        # from -off^2 / d' by at most (c + 1) u |off^2 / d'|, with c u the normwise
        # error of complex division (c < 5 for Smith's method) and u = eps / 2; the
        # exact step has Re <= 0 where Re d' > 0.  So fl(Re d_i - Re step), rounded
        # once more, is at least (1 - u) (margin_k - (c + 1) u |off^2 / d'_{i-1}|):
        # an allowance of eps margin_k + 5 eps |off^2 / d'_{i-1}| covers it, row by
        # row and without accumulation, since each row's bound rests on Re d_i alone
        rng = np.random.default_rng(seed)
        n_freq = 6
        margin = 10.0 ** (log_margin + rng.uniform(-1.0, 1.0, n_freq))
        excess = rng.exponential(1.0, (4, n_freq)) * (rng.random((4, n_freq)) < 0.7)
        excess[rng.integers(0, 4, n_freq), np.arange(n_freq)] = 0.0  # one value sits on the margin
        imag = 10.0**log_imag * rng.uniform(-1.0, 1.0, (4, n_freq))
        d_p, d_v, d_0, d_last = margin * (1.0 + excess) + 1j * imag
        op = ReducedOperator(d_p, d_v, d_0 - d_p, d_last - d_p, 10.0**log_off, n_cells)
        lowest = op.margin()
        assert (lowest > 0).all()
        pivots = np.empty((op.dim, n_freq), dtype=complex)
        op._thomas(np.zeros((op.dim, n_freq), dtype=complex), pivots)
        eps = np.finfo(float).eps
        allowance = eps * lowest + 5.0 * eps * op.off**2 / np.abs(pivots[:-1])
        assert (pivots[0].real >= lowest).all()
        assert (pivots[1:].real >= lowest - allowance).all()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_cells=st.integers(4, 150),
        log_off=st.floats(-3.0, 6.0),
        n_freq=st.integers(1, 9),
        breakdown=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_kernel_matches_the_stored_pivot_kernel_bitwise(self, seed, n_cells, log_off, n_freq, breakdown):
        # _thomas reads each row's d_i from the symbols and keeps its multipliers
        # in one reused row.  Against the sweep that turns a materialized diagonal
        # into its pivots, every bit must agree: the solution, every pivot, and the
        # multipliers -off/d' that _solve_with_corners forms again from the pivots.
        # The operators span up to five row blocks and either sign of off (the
        # adjoint's); with breakdown, one frequency's first pivot is exactly 0 and
        # its sweep turns non-finite
        rng = np.random.default_rng(seed)

        def values():
            scale = 10.0 ** rng.uniform(-4.0, 4.0, n_freq)
            return scale * (rng.standard_normal(n_freq) + 1j * rng.standard_normal(n_freq))

        sym_p, sym_v, corner0, corner_last = (values() for _ in range(4))
        if breakdown:
            corner0[0] = -sym_p[0]
        off = 10.0**log_off * rng.choice([-1.0, 1.0])
        op = ReducedOperator(sym_p, sym_v, corner0, corner_last, off, n_cells)
        y = rng.standard_normal((op.dim, n_freq)) + 1j * rng.standard_normal((op.dim, n_freq))
        y_ref, mult_ref = y.copy(), np.empty_like(y)
        pivots = stored_pivot_thomas(op, y_ref, mult_ref)
        piv = np.full_like(y, np.nan)
        op._thomas(y, piv)
        assert y.tobytes() == y_ref.tobytes()
        assert piv.tobytes() == pivots.tobytes()
        with np.errstate(divide="ignore", invalid="ignore"):
            mult = np.divide(complex(-op.off), piv[:-1])
        assert mult.tobytes() == mult_ref[:-1].tobytes()

    def neumann(self):
        """A Neumann block, zero corner terms, at n_cells = 40 and three complex frequencies."""
        op, u = self.make(n_cells=40)
        zero = np.zeros(3, dtype=complex)
        return ReducedOperator(op.sym_p, op.sym_v, zero, zero, op.off, op.n_cells), u

    def test_solve_with_corners_matches_dense(self, monkeypatch):
        # f and e_last share one elimination and e_0 mirrors e_last; the
        # residual pass spans two row blocks, and the work array's contents
        # on entry (here NaN) do not matter
        op, u = self.neumann()
        rows = list(range(op.dim))
        unit = np.eye(op.dim)
        rhs = [np.stack([u[k], unit[0], unit[-1]], axis=1) for k in range(3)]
        work = np.full((op.dim, 2, 3), np.nan, dtype=complex)
        x, _ = op._solve_with_corners(transposed_source(u), rows, work)
        for k in range(3):
            exact = np.linalg.solve(op.dense(k), rhs[k])
            for j in range(3):
                assert np.abs(x[:, j, k] - exact[:, j]).max() < 1e-12 * np.abs(exact[:, j]).max()

        thomas, calls = ReducedOperator._thomas, []

        def perturbed(self, y, piv):
            thomas(self, y, piv)
            y += 1e-3
            piv *= 1.0 + 1e-3  # pivots d' (1 + 1e-3): every multiplier and 1/d'_last move
            calls.append(y.shape)

        monkeypatch.setattr(ReducedOperator, "_thomas", perturbed)
        x, res_sq = op._solve_with_corners(transposed_source(u), rows, work)
        assert calls == [(op.dim, 3)]
        for k in range(3):
            expected = np.sum(np.abs(op.dense(k) @ x[:, :, k] - rhs[k]) ** 2, axis=0)
            assert np.allclose(res_sq[:, k], expected[[0, 2]], rtol=1e-10)
            assert 2.0 * res_sq[1, k] == pytest.approx(expected[1] + expected[2], rel=1e-10)

    def test_mirrored_corner_residual_bitwise(self):
        # J D A0 J D = A0: row r of e_0's residual is (-1)^r row dim - 1 - r of
        # e_last's, bit for bit, so R_X's squared norm is twice e_last's
        op, u = self.neumann()
        work = np.empty((op.dim, 2, 3), dtype=complex)
        x, res_sq = op._solve_with_corners(transposed_source(u), list(range(op.dim)), work)
        d = op._diagonal()
        sign = np.where(np.arange(op.dim) % 2 == 0, 1.0, -1.0)
        for k in range(3):
            r_0 = banded_residual(op.off, d[:, k], x[:, 1, k], 0)
            r_last = banded_residual(op.off, d[:, k], x[:, 2, k], -1)
            assert np.abs(r_last).max() > 0
            assert np.array_equal(r_0, sign * r_last[::-1])
            assert np.array_equal(np.abs(r_0), np.abs(r_last)[::-1])
            assert res_sq[1, k] == pytest.approx(np.sum(np.abs(r_last) ** 2), rel=1e-12)

    @pytest.mark.parametrize("corner", ["corner0", "cornerL"])
    def test_solve_with_corners_needs_neumann(self, corner):
        op, u = self.neumann()
        op = dataclasses.replace(op, **{corner: np.array([0.0, 0.5, 0.0], dtype=complex)})
        with pytest.raises(ValueError, match="Neumann operator"):
            op._solve_with_corners(transposed_source(u), [0], np.empty((op.dim, 2, 3), dtype=complex))

    def test_singular_frequency_non_finite(self):
        # skew-symmetric matrices of odd dimension are singular; their margin is 0
        op, u = self.make()
        zero = np.zeros(3, dtype=complex)
        sym_v = op.sym_v.copy()
        sym_v[2] = 0.0
        sym_p = op.sym_p.copy()
        sym_p[2] = 0.0
        op = ReducedOperator(sym_p, sym_v, zero, zero, op.off, op.n_cells)
        x, pivoted = op.solve(transposed_source(u))
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
        op = prob.operator_at(prob.grid.w)
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
        sd = SpatialDiscretization(1.0, 24)
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
    """The reduced spatial operator on a full (p, v) signal: every cell, then every face.

    The two boundary-face velocities are dropped (they are eliminated
    through the boundary law); the result is returned in the same layout,
    with zeros at the boundary faces, matching the zero gradient rows there.
    """
    nc = sd.n_cells
    grid = u.grid
    u_hat = forward_transform(u)
    red = interleave(u_hat.values[:, :nc], u_hat.values[:, nc + 1 : -1])
    out_hat = apply_spatial_op_freq(sd, bl, red, u_hat.freqs, grid.rho)
    out = inverse_transform(SpectralSignal(grid, out_hat)).values
    zeros = np.zeros((grid.n, 1), dtype=complex)
    return WeightedSignal(grid, np.concatenate([out[:, 0::2], zeros, out[:, 1::2], zeros], axis=1))


class TestApplyTime:
    def test_zero(self):
        sd = SpatialDiscretization(1.0, 8)
        grid = WeightedGrid(0.0, 0.05, 128, 2.0)
        bl = BoundaryLaw.robin(0.0, sd)
        z = zero_signal(grid, sd.n_cells + sd.n_faces)
        assert not apply_spatial_time(sd, bl, z).values.any()

    def test_matches_direct_blocks_for_consistent_input(self):
        sd = SpatialDiscretization(1.0, 16)
        grid = WeightedGrid(-2.0, 12.0 / 512, 512, 2.0)
        bl = BoundaryLaw.robin(0.0, sd)
        t = grid.times
        wt = bump(t, 2.0, 0.5)
        p = wt[:, None] * np.cos(np.pi * sd.cell_x / sd.length)[None, :]
        v = wt[:, None] * np.sin(np.pi * sd.face_x / sd.length)[None, :]
        u = WeightedSignal(grid, np.concatenate([p, v], axis=1))
        out = apply_spatial_time(sd, bl, u)
        direct_p = (d_div(sd) @ v.T).T
        direct_v = (d_grad(sd) @ p.T).T
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
            sd = SpatialDiscretization(1.0, n_cells)
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
    sd = SpatialDiscretization(1.0, n_cells)
    grid = WeightedGrid(-2.0, 12.0 / 256, 256, 2.0)
    alpha = 1.0 + 0.3 * np.sin(2 * np.pi * sd.face_x / sd.length)
    div_alpha_cells = (0.6 * np.pi / sd.length) * np.cos(2 * np.pi * sd.cell_x / sd.length)
    g = scalar_rational(lin=0.4, poles=[-0.8], residues=[0.3])
    t = grid.times
    p_vals = bump(t, 2.0, 0.5)[:, None] * bump(sd.cell_x, 0.5, 0.12)[None, :]
    p = WeightedSignal(grid, p_vals)
    s = grid.freqs
    zs = 1.0 / (1j * s + grid.rho)
    q = apply_symbol(p, g.eval_many(zs)[:, 0, 0]).values
    term1 = (alpha * cell_to_face(sd, q)) @ d_div(sd).T
    term2 = div_alpha_cells[None, :] * q
    term3 = face_to_cell(alpha * (q @ d_grad(sd).T))
    resid = WeightedSignal(grid, term1 - term2 - term3)
    scale = rho_norm(WeightedSignal(grid, term1))
    return rho_norm(resid) / scale, scale


class TestBoundarySign:
    def make(self, n_cells=24):
        sd = SpatialDiscretization(1.0, n_cells)
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
        bl = BoundaryLaw(scalar_rational(lin=-1.0), BoundaryLaw.normal_profile(sd), 1.0)
        p = interior_signal(grid, dim=sd.n_cells, seed=20)
        assert boundary_sign_functional(sd, bl, p) < 0.0

    @pytest.mark.parametrize("n_cells", [8, 24])
    @pytest.mark.parametrize("case", ["normal, real pole", "constant:0.7", "conjugate poles"])
    def test_wall_form_matches_volume_sum(self, n_cells, case):
        # summation by parts collapses the volume sum to the two wall terms
        sd, grid = self.make(n_cells)
        if case == "normal, real pole":
            bl = flux_boundary(sd, 0.5, poles_w=[-1.0], residues_w=[0.7])
        elif case == "constant:0.7":
            bl = BoundaryLaw(scalar_rational(lin=1.3), np.full(sd.n_faces, 0.7), 1.0)
        else:
            bl = flux_boundary(sd, 0.4, poles_w=[-1.0 + 1.5j, -1.0 - 1.5j], residues_w=[0.6, 0.6])
        for seed, cut in ((40, 3.2), (41, np.inf)):
            p = interior_signal(grid, dim=sd.n_cells, seed=seed)
            wall = boundary_sign_functional(sd, bl, p, cutoff=cut)
            volume = volume_sign_functional(sd, bl, p, cutoff=cut)
            assert volume != 0.0
            assert abs(wall - volume) <= 1e-13 * abs(volume)


class TestNonnegativity:
    def test_forward_with_cutoff_and_adjoint_plain(self):
        sd = SpatialDiscretization(1.0, 24)
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
        sd = SpatialDiscretization(1.0, 64)
        f = np.sin(2 * np.pi * sd.cell_x)
        exact = np.sin(2 * np.pi * sd.face_x)
        err = np.abs(cell_to_face(sd, f)[1:-1] - exact[1:-1]).max()
        assert err < 2 * (2 * np.pi * sd.dx / 2) ** 2
