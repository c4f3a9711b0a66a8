"""Staggered 1D discretization of the acoustic spatial operator.

Pressure lives at cell centers x_c = (c + 1/2) dx, velocity at faces
x_f = f dx, f = 0..n_cells.  The divergence (faces -> cells) and gradient
(cells -> faces) matrices are second-order centered; the gradient rows at
the two boundary faces are zero, which makes the summation-by-parts
identity

    W_cell @ D_div + D_grad.T @ W_face = B

hold exactly with B supported on the two corner entries (boundary cell,
boundary face) with values -1 and +1: the discrete version of
"volume terms integrate to a boundary flux".

The boundary law couples pressure and normal velocity through a scalar
rational kernel g and a spatial profile alpha living on faces:

    (outward normal velocity) = flux_symbol(s) * (n . alpha) * (boundary pressure)

per frequency, where flux_symbol(s) = (i s + rho) * g(1/(i s + rho)).
Eliminating the two boundary-face velocities with this relation (boundary
pressure taken from the adjacent cell) keeps the reduced operator square
and makes the Robin case g(z) = k z exact: its flux symbol is the
constant k.  The elimination also makes the reduced adjoint equal to the
per-frequency conjugate transpose, which the adjoint_lemma check verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .rational import PoleError, RationalMatrixFunction, scalar_rational, scalar_values
from .signals import WeightedSignal
from .transform import SpectralSignal, forward_transform, inverse_transform

__all__ = [
    "SpatialDiscretization",
    "build_grid",
    "BoundaryLaw",
    "ReducedOperator",
    "reduced_operator",
    "assemble_spatial_op",
    "assemble_spatial_op_adjoint",
    "apply_spatial_op_freq",
    "apply_spatial_op_adjoint_freq",
    "boundary_sign_functional",
    "cell_to_face",
    "split_stacked",
]

PIVOT_FLOOR = 1e-14  # Thomas pivots below this, relative to the largest entry, break down


@dataclass(frozen=True)
class SpatialDiscretization:
    """Staggered grid on (0, length) with n_cells pressure cells."""

    length: float
    n_cells: int
    dx: float = field(init=False)

    def __post_init__(self) -> None:
        if not self.length > 0:
            raise ValueError(f"domain length must be positive, got {self.length}")
        if self.n_cells < 4:
            raise ValueError(f"need at least 4 cells, got {self.n_cells}")
        object.__setattr__(self, "dx", self.length / self.n_cells)

    @property
    def n_faces(self) -> int:
        return self.n_cells + 1

    @property
    def cell_x(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def face_x(self) -> np.ndarray:
        return np.arange(self.n_faces) * self.dx

    @property
    def n_reduced(self) -> int:
        """Cells plus interior faces: the two boundary faces are eliminated."""
        return self.n_cells + self.n_faces - 2

    # dense operators (assembled on demand; the hot paths use slicing)

    def d_div(self) -> np.ndarray:
        """(n_cells, n_faces) centered divergence, exact order 2 everywhere."""
        m = np.zeros((self.n_cells, self.n_faces))
        idx = np.arange(self.n_cells)
        m[idx, idx] = -1.0 / self.dx
        m[idx, idx + 1] = 1.0 / self.dx
        return m

    def d_grad(self) -> np.ndarray:
        """(n_faces, n_cells) centered gradient; boundary-face rows are zero."""
        m = np.zeros((self.n_faces, self.n_cells))
        idx = np.arange(1, self.n_cells)
        m[idx, idx - 1] = -1.0 / self.dx
        m[idx, idx] = 1.0 / self.dx
        return m

    def w_cell(self) -> np.ndarray:
        return np.full(self.n_cells, self.dx)

    def w_face(self) -> np.ndarray:
        w = np.full(self.n_faces, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w

    def boundary_matrix(self) -> np.ndarray:
        """The corner flux matrix B in the summation-by-parts identity."""
        b = np.zeros((self.n_cells, self.n_faces))
        b[0, 0] = -1.0
        b[-1, -1] = 1.0
        return b

    def sbp_residual(self) -> float:
        lhs = self.w_cell()[:, None] * self.d_div() + self.d_grad().T * self.w_face()[None, :]
        return float(np.abs(lhs - self.boundary_matrix()).max())


def build_grid(length: float, n_cells: int) -> SpatialDiscretization:
    """Build the staggered discretization and verify the SBP identity."""
    sd = SpatialDiscretization(length, n_cells)
    res = sd.sbp_residual()
    if res > 1e-13:
        raise AssertionError(f"summation-by-parts identity violated: residual {res:.3e}")
    return sd


def cell_to_face(sd: SpatialDiscretization, q: np.ndarray) -> np.ndarray:
    """Average cell values to faces (copy at the two boundary faces).

    The boundary copy is first order, deliberately: it keeps boundary
    quadratic forms perfect squares, which the sign checks rely on.
    """
    q = np.asarray(q)
    out = np.empty(q.shape[:-1] + (sd.n_faces,), dtype=q.dtype)
    out[..., 1:-1] = 0.5 * (q[..., 1:] + q[..., :-1])
    out[..., 0] = q[..., 0]
    out[..., -1] = q[..., -1]
    return out


@dataclass(frozen=True)
class BoundaryLaw:
    """Impedance-type boundary kernel g(z) with spatial profile alpha.

    alpha lives on velocity faces; div_alpha is its divergence on cells
    (supplied, so that analytic profiles keep their exact derivative).
    Admissibility (nonnegative real part of the flux symbol) is *not*
    enforced at construction: the verification suite must be able to build
    inadmissible laws to demonstrate that its sign check has power.
    """

    g: RationalMatrixFunction
    alpha: np.ndarray
    div_alpha: np.ndarray
    r: float

    def __post_init__(self) -> None:
        if self.g.dim != 1:
            raise ValueError("boundary kernel g must be scalar valued")
        if not self.r > 0:
            raise ValueError(f"holomorphy radius must be positive, got {self.r}")
        self.g.check_holomorphic(self.r)
        a = np.asarray(self.alpha, dtype=float)
        da = np.asarray(self.div_alpha, dtype=float)
        if a.ndim != 1 or da.ndim != 1 or a.size != da.size + 1:
            raise ValueError(
                "alpha must live on faces and div_alpha on cells "
                f"(got {a.shape} and {da.shape})"
            )
        a.setflags(write=False)
        da.setflags(write=False)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "div_alpha", da)

    @property
    def normal_alpha(self) -> tuple[float, float]:
        """Outward-normal component of alpha at the left and right ends."""
        return (-float(self.alpha[0]), float(self.alpha[-1]))

    def g_values(self, zs: np.ndarray) -> np.ndarray:
        return scalar_values(self.g, zs)

    def flux_symbol(self, s: np.ndarray, rho: float) -> np.ndarray:
        """(i s + rho) * g(1/(i s + rho)) on an array of frequencies."""
        w = 1j * np.asarray(s, dtype=float) + rho
        try:
            return w * self.g_values(1.0 / w)
        except PoleError as exc:
            raise PoleError(f"boundary kernel pole hit on the frequency grid: {exc}") from exc

    def min_real_flux(self, rho: float, n_samples: int = 1024) -> float:
        """Sampled min of Re flux_symbol; >= 0 is the frequency-domain sign condition."""
        theta = np.linspace(-np.pi / 2, np.pi / 2, n_samples + 2)[1:-1]
        s = rho * np.tan(theta)
        return float(self.flux_symbol(s, rho).real.min())

    @staticmethod
    def normal_profile(sd: SpatialDiscretization) -> tuple[np.ndarray, np.ndarray]:
        """The linear profile that equals the outward normal at both ends."""
        alpha = 2.0 * sd.face_x / sd.length - 1.0
        div_alpha = np.full(sd.n_cells, 2.0 / sd.length)
        return alpha, div_alpha

    @staticmethod
    def robin(k: float, sd: SpatialDiscretization, r: float = 1.0) -> "BoundaryLaw":
        """g(z) = k z with the normal profile: normal velocity = k * pressure."""
        alpha, div_alpha = BoundaryLaw.normal_profile(sd)
        return BoundaryLaw(scalar_rational(lin=k), alpha, div_alpha, r)

    @staticmethod
    def neumann(sd: SpatialDiscretization, r: float = 1.0) -> "BoundaryLaw":
        """g = 0: vanishing normal velocity on the boundary."""
        alpha, div_alpha = BoundaryLaw.normal_profile(sd)
        return BoundaryLaw(scalar_rational(), alpha, div_alpha, r)

    @staticmethod
    def from_flux_response(
        sd: SpatialDiscretization,
        const: float,
        poles_w: np.ndarray | list | None = None,
        residues_w: np.ndarray | list | None = None,
        r: float = 1.0,
    ) -> "BoundaryLaw":
        """Build g from the flux response c(w) = const + sum res/(w - pole).

        Specifying the boundary memory directly in the Laplace variable
        w = i s + rho is often more natural; this inverts the algebra
        c(w) = w g(1/w) back into the z-domain kernel
        g(z) = const*z + sum res * z^2 / (1 - pole z), expressed in
        partial fractions.
        """
        pw = np.asarray([] if poles_w is None else poles_w, dtype=complex)
        rw = np.asarray([] if residues_w is None else residues_w, dtype=complex)
        if pw.size != rw.size:
            raise ValueError("poles_w and residues_w must have equal length")
        if np.any(np.abs(pw) < 1e-12):
            raise ValueError("flux response poles must be away from w = 0")
        # c(w)/w has partial fractions: const*1 + sum_m [res_m/p_m * (1/(w-p_m) ... )];
        # substituting w = 1/z termwise:  res/(w - p) -> res*z/(1 - p z)
        #   = -(res/p) - (res/p^2)/(z - 1/p)     (checked in tests)
        g_const = complex(-np.sum(rw / pw)) if pw.size else 0.0
        g_lin = complex(const)
        g_poles = 1.0 / pw
        g_res = -rw / pw**2
        g = scalar_rational(const=g_const, lin=g_lin, poles=g_poles, residues=g_res)
        alpha, div_alpha = BoundaryLaw.normal_profile(sd)
        return BoundaryLaw(g, alpha, div_alpha, r)


@dataclass(frozen=True, eq=False)
class ReducedOperator:
    """The reduced per-frequency operator (i s + rho) M(z_s) + A(s), batched.

    Unknowns are stacked as [p (n_cells), v_interior (n_cells - 1)].  At
    frequency k the matrix has sym_p[k] on the pressure diagonal, sym_v[k]
    on the velocity diagonal, the eliminated boundary faces as corner[k]
    terms on the first and last pressure cell, and the staggered
    differences with coefficient off = 1/dx: pressure row c reads
    off * (v_{c+1} - v_c) and velocity row f reads off * (p_f - p_{f-1}).
    The adjoint conjugates the four vectors and negates off.

    Interleaving the unknowns as (p_0, v_1, p_1, ..., v_last, p_last)
    makes every matrix tridiagonal with sub-diagonal -off and
    super-diagonal +off; only the solver kernel uses that order.
    """

    sym_p: np.ndarray      # (n_freq,) pressure symbol
    sym_v: np.ndarray      # (n_freq,) velocity symbol
    corner0: np.ndarray    # (n_freq,) left corner term
    cornerL: np.ndarray    # (n_freq,) right corner term
    off: float
    n_cells: int

    @property
    def dim(self) -> int:
        return 2 * self.n_cells - 1

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """Apply the operator to (n_freq, dim) stacked values."""
        nc = self.n_cells
        p, v = u[:, :nc], u[:, nc:]
        out = np.empty(u.shape, dtype=complex)
        out_p, out_v = out[:, :nc], out[:, nc:]
        np.multiply(self.sym_p[:, None], p, out=out_p)
        dv = self.off * v
        out_p[:, :-1] += dv
        out_p[:, 1:] -= dv
        out_p[:, 0] += self.corner0 * p[:, 0]
        out_p[:, -1] += self.cornerL * p[:, -1]
        np.multiply(self.sym_v[:, None], v, out=out_v)
        out_v += self.off * (p[:, 1:] - p[:, :-1])
        return out

    def adjoint(self) -> "ReducedOperator":
        """The per-frequency conjugate transpose."""
        return ReducedOperator(
            np.conj(self.sym_p),
            np.conj(self.sym_v),
            np.conj(self.corner0),
            np.conj(self.cornerL),
            -self.off,
            self.n_cells,
        )

    def _bands(self, k: int) -> tuple[list[np.ndarray], list[int]]:
        """Diagonals and offsets of the stacked-order matrix at frequency index k.

        The differences sit on four diagonals: +-off at offsets +-n_cells,
        and at offsets +-(n_cells - 1), whose first entry pairs the last
        pressure cell with the first one and is zero.
        """
        nc = self.n_cells
        diag = np.concatenate([np.full(nc, self.sym_p[k]), np.full(nc - 1, self.sym_v[k])])
        diag[0] += self.corner0[k]
        diag[nc - 1] += self.cornerL[k]
        near = np.full(nc, self.off)
        near[0] = 0.0
        far = np.full(nc - 1, self.off)
        return [-far, near, diag, -near, far], [-nc, 1 - nc, 0, nc - 1, nc]

    def sparse(self, k: int = 0) -> scipy.sparse.csc_array:
        """The stacked-order matrix at frequency index k."""
        bands, offsets = self._bands(k)
        return scipy.sparse.diags_array(bands, offsets=offsets, format="csc")

    def dense(self, k: int = 0) -> np.ndarray:
        """The stacked-order matrix at frequency index k, as a dense array."""
        return sum(np.diag(band, offset) for band, offset in zip(*self._bands(k)))

    def cond1(self, k: int) -> float:
        """1-norm condition number at frequency index k.

        Dense for small systems; for large ones the inverse norm comes from
        the Hager-style estimator driven by sparse LU solves.
        """
        mat = self.sparse(k)
        norm_a = float(abs(mat).sum(axis=0).max())
        if self.dim <= 384:
            return norm_a * float(np.abs(np.linalg.inv(mat.toarray())).sum(axis=0).max())
        lu = scipy.sparse.linalg.splu(mat)
        inv = scipy.sparse.linalg.LinearOperator(
            mat.shape,
            dtype=complex,
            matvec=lu.solve,
            matmat=lu.solve,
            rmatvec=lambda x: lu.solve(x, trans="H"),
        )
        return norm_a * float(scipy.sparse.linalg.onenormest(inv))

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve every frequency's system for (n_freq, dim) stacked values.

        One Thomas sweep runs across all frequencies at once.  The
        Hermitian part of each matrix is diagonal and bounded below by the
        solvability margin, which keeps the pivots away from zero without
        row exchanges.  Frequencies where a pivot still collapses (an
        inadmissible scenario) are re-solved by pivoted banded LU; their
        indices are returned next to the solution.  A frequency whose
        matrix is singular comes back as non-finite values.
        """
        d = self._diagonal()
        y = self._interleaved(rhs)
        # rows 0, 1, 2 and -1 hold every distinct diagonal value before the sweep
        floor = PIVOT_FLOOR * max(float(np.abs(d[[0, 1, 2, -1]]).max()), abs(self.off))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, self.dim):
                ell = -self.off / d[i - 1]
                d[i] = d[i] - ell * self.off
                y[i] -= ell * y[i - 1]
            y[-1] /= d[-1]
            for i in range(self.dim - 2, -1, -1):
                y[i] = (y[i] - self.off * y[i + 1]) / d[i]
        broken = np.flatnonzero(~(np.abs(d) >= floor).all(axis=0))
        del d
        out = self._stacked(y)
        if broken.size:
            _solve_range_pivoted(self, rhs, out, broken)
        return out, broken

    # interleaved (dim, n_freq) work layout of the solver kernel

    def _diagonal(self, ks: np.ndarray | slice = slice(None)) -> np.ndarray:
        sym_p = self.sym_p[ks]
        d = np.empty((self.dim, sym_p.size), dtype=complex)
        d[0::2] = sym_p
        d[1::2] = self.sym_v[ks]
        d[0] += self.corner0[ks]
        d[-1] += self.cornerL[ks]
        return d

    def _interleaved(self, x: np.ndarray) -> np.ndarray:
        nc = self.n_cells
        out = np.empty((self.dim, x.shape[0]), dtype=complex)
        out[0::2] = x[:, :nc].T
        out[1::2] = x[:, nc:].T
        return out

    def _stacked(self, y: np.ndarray) -> np.ndarray:
        nc = self.n_cells
        out = np.empty((y.shape[1], self.dim), dtype=complex)
        out[:, :nc] = y[0::2].T
        out[:, nc:] = y[1::2].T
        return out


def _solve_range_pivoted(
    op: ReducedOperator, rhs: np.ndarray, out: np.ndarray, ks: np.ndarray
) -> None:
    """Re-solve frequencies ks into out by banded LU with partial pivoting."""
    ab = np.zeros((3, op.dim), dtype=complex)
    ab[0, 1:] = op.off
    ab[2, :-1] = -op.off
    diag = op._diagonal(ks)
    y = op._interleaved(rhs[ks])
    for j in range(ks.size):
        ab[1] = diag[:, j]
        try:
            y[:, j] = scipy.linalg.solve_banded((1, 1), ab, y[:, j], check_finite=False)
        except np.linalg.LinAlgError:
            y[:, j] = np.nan
    out[ks] = op._stacked(y)


def reduced_operator(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    flux: np.ndarray,
    sym_p: np.ndarray | complex = 0.0,
    sym_v: np.ndarray | complex = 0.0,
) -> ReducedOperator:
    """The reduced operator for flux symbol values flux(s_k), plus material symbols.

    Eliminating v at a boundary face through
    (n . v) = flux * (n . alpha) * p_cell adds flux * (n . alpha) / dx to
    the matching diagonal entry of the pressure block, with the same sign
    at both ends (the outward normal absorbs the orientation).
    """
    flux = np.asarray(flux, dtype=complex)
    a0, aL = bl.normal_alpha
    return ReducedOperator(
        np.broadcast_to(np.asarray(sym_p, dtype=complex), flux.shape),
        np.broadcast_to(np.asarray(sym_v, dtype=complex), flux.shape),
        flux * a0 / sd.dx,
        flux * aL / sd.dx,
        1.0 / sd.dx,
        sd.n_cells,
    )


def assemble_spatial_op(
    sd: SpatialDiscretization, bl: BoundaryLaw, s: float, rho: float
) -> tuple[np.ndarray, tuple[complex, complex]]:
    """Dense reduced spatial operator at one frequency, plus the elimination map.

    The returned elimination pair (e0, eL) reconstructs the boundary-face
    velocities as v_0 = e0 * p_0 and v_last = eL * p_last (in x-components).
    """
    flux = bl.flux_symbol(np.asarray([s]), rho)
    a0, aL = bl.normal_alpha
    elim = (complex(-flux[0] * a0), complex(flux[0] * aL))
    return reduced_operator(sd, bl, flux).dense(0), elim


def assemble_spatial_op_adjoint(
    sd: SpatialDiscretization, bl: BoundaryLaw, s: float, rho: float
) -> np.ndarray:
    """Dense reduced adjoint spatial operator at one frequency."""
    return reduced_operator(sd, bl, bl.flux_symbol(np.asarray([s]), rho)).adjoint().dense(0)


def split_stacked(sd: SpatialDiscretization, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split (..., n_reduced) stacked values into pressure and interior velocity."""
    nc = sd.n_cells
    return values[..., :nc], values[..., nc:]


def apply_spatial_op_freq(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    u_hat: np.ndarray,
    s: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Reduced spatial operator on (n_freq, n_reduced) spectral values."""
    return reduced_operator(sd, bl, bl.flux_symbol(s, rho)).matvec(u_hat)


def apply_spatial_op_adjoint_freq(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    u_hat: np.ndarray,
    s: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Reduced adjoint spatial operator on (n_freq, n_reduced) spectral values."""
    return reduced_operator(sd, bl, bl.flux_symbol(s, rho)).adjoint().matvec(u_hat)


def boundary_sign_functional(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    p: WeightedSignal,
    cutoff: float = 0.0,
) -> float:
    """Discrete boundary sign functional truncated at the cutoff time.

    Evaluates Re of the time integral (weighted, over t <= cutoff) of

        <grad p | d/dt (a p)> + <p | div d/dt (a p)>

    with a = alpha * g as spatial/temporal kernel.  By the discrete
    integration-by-parts identity this collapses to boundary terms; a
    nonnegative value over a battery of trial pressures is the
    admissibility condition on the boundary law.
    """
    if p.dim != sd.n_cells:
        raise ValueError(f"pressure signal must have dim {sd.n_cells}, got {p.dim}")
    grid = p.grid
    p_hat = forward_transform(p)
    s = p_hat.freqs
    w = 1j * s + grid.rho
    g_vals = bl.g_values(1.0 / w)
    # d/dt (a p) per frequency: (i s + rho) * alpha * (g p interpolated to faces)
    q_hat = g_vals[:, None] * p_hat.values
    ap_faces = bl.alpha[None, :] * cell_to_face(sd, q_hat)
    dap_hat = w[:, None] * ap_faces
    dap = inverse_transform(SpectralSignal(s, dap_hat, grid.rho), grid).values
    p_vals = p.values

    grad_p = np.zeros((grid.n, sd.n_faces), dtype=complex)
    grad_p[:, 1:-1] = (p_vals[:, 1:] - p_vals[:, :-1]) / sd.dx
    div_dap = (dap[:, 1:] - dap[:, :-1]) / sd.dx

    term_face = np.sum(sd.w_face()[None, :] * np.conj(grad_p) * dap, axis=1)
    term_cell = np.sum(sd.w_cell()[None, :] * np.conj(p_vals) * div_dap, axis=1)
    integrand = term_face + term_cell

    wq = grid.weights() * (grid.times <= cutoff)
    return float(np.sum(wq * integrand).real)
