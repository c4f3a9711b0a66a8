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

Every matrix here is one tridiagonal form: the reduced operator with its
unknowns interleaved as (p_0, v_1, p_1, ..., v_last, p_last).  It runs on
numpy, except ReducedOperator.factor, which imports scipy.linalg when it
runs, not at start-up: its LAPACK LU (gttrf) is shared by the time
stepper's step matrix and by the frequencies where the Thomas pivots
break down.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .rational import PoleError, RationalMatrixFunction, _circle_fraction, _extremum, scalar_rational
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
]

PIVOT_FLOOR = 1e-14  # Thomas pivots below this, relative to the largest entry, break down
ROW_BLOCK = 64  # interleaved rows per block of the residual pass in _solve_with_corners


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

    def flux_symbol(self, s: np.ndarray, rho: float) -> np.ndarray:
        """(i s + rho) * g(1/(i s + rho)) on an array of frequencies."""
        w = 1j * np.asarray(s, dtype=float) + rho
        try:
            return w * self.g.eval_many(1.0 / w)[:, 0, 0]
        except PoleError as exc:
            raise PoleError(f"boundary kernel pole hit on the frequency grid: {exc}") from exc

    def min_real_flux(self, rho: float) -> float:
        """Min of Re flux_symbol over all s and s = +-inf; >= 0 is the frequency-domain sign condition.

        With g(1/w) = N / D it is the exact min of Re(w N conj D) / |D|^2, a
        real rational function of s, lowered by the rounding slack of
        rational._circle_fraction.
        """
        num, den, slack = _circle_fraction(self.g, rho)
        flux = np.convolve([rho, 1j * rho], num[0, 0])
        low = _extremum(
            np.convolve(flux, den.conj()).real, np.convolve(den, den.conj()).real,
            lambda t: self.flux_symbol(rho * t, rho).real, largest=False, even=self.g.is_real(),
        )
        return low - slack * abs(low)

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
    super-diagonal +off.  The solvers and dense() work in that order;
    matvec keeps the stacked one, an independent reference for residuals.
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

    def take(self, ks: np.ndarray | slice) -> "ReducedOperator":
        """The operator at the frequency indices ks; views of its symbols when ks is a slice."""
        return ReducedOperator(
            self.sym_p[ks], self.sym_v[ks], self.corner0[ks], self.cornerL[ks],
            self.off, self.n_cells,
        )

    def stacked_rows(self) -> np.ndarray:
        """The stacked row of each interleaved row: pressures at even rows, velocities at odd."""
        rows = np.empty(self.dim, dtype=int)
        rows[0::2] = np.arange(self.n_cells)
        rows[1::2] = np.arange(self.n_cells, self.dim)
        return rows

    def dense(self, k: int = 0) -> np.ndarray:
        """The stacked-order matrix at frequency index k, as a dense array."""
        rows = self.stacked_rows()  # the interleaved tridiagonal, scattered to stacked order
        out = np.zeros((self.dim, self.dim), dtype=complex)
        out[rows, rows] = self._diagonal([k])[:, 0]
        out[rows[:-1], rows[1:]] = self.off
        out[rows[1:], rows[:-1]] = -self.off
        return out

    def factor(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        """LU with partial pivoting (LAPACK gttrf) of the interleaved matrix at frequency index k.

        The LU is real (dgttrf) when the diagonal has no imaginary part,
        complex (zgttrf) otherwise.  Returns the solve (gttrs) for
        interleaved (dim,) or (dim, n_rhs) right-hand sides b, in place
        when b is contiguous and of the LU's type; a real LU solves a
        complex b as its real and imaginary parts.  Raises LinAlgError
        when U has an exact zero pivot.  scipy.linalg is imported here, on
        the first call.
        """
        from scipy.linalg import lapack

        d = self._diagonal([k])[:, 0]
        real = not d.imag.any()
        gttrf, gttrs = (lapack.dgttrf, lapack.dgttrs) if real else (lapack.zgttrf, lapack.zgttrs)
        d = d.real if real else d
        lower = np.full(self.dim - 1, -self.off, dtype=d.dtype)
        upper = np.full(self.dim - 1, self.off, dtype=d.dtype)
        *lu, info = gttrf(lower, d, upper)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"exactly singular: zero pivot in row {info - 1} at frequency index {k}"
            )

        def solve(b: np.ndarray) -> np.ndarray:
            if real and np.iscomplexobj(b):
                return gttrs(*lu, b.real)[0] + 1j * gttrs(*lu, b.imag)[0]
            return gttrs(*lu, b, overwrite_b=True)[0]

        return solve

    def _diagonal_values(self) -> tuple[np.ndarray, ...]:
        """The four values the diagonal d takes at each frequency: p, v and the two corner cells."""
        return (self.sym_p, self.sym_v, self.sym_p + self.corner0, self.sym_p + self.cornerL)

    def margin(self) -> np.ndarray:
        """min Re d at each frequency, d the diagonal: the exact coercivity constant.

        The differences are real and skew, so Re d is the Hermitian part
        and its smallest entry is the smallest eigenvalue of (T + T^H) / 2.
        """
        return np.minimum.reduce([x.real for x in self._diagonal_values()])

    def condition_bound(self) -> np.ndarray:
        """Upper bound on each frequency's 2-norm condition number; inf where min Re d <= 0.

        ||T^-1|| <= 1 / margin(); with at most two differences per row and
        column, ||T|| <= max|d| + 2 |off|.
        """
        lowest = self.margin()
        norm = np.maximum.reduce([np.abs(x) for x in self._diagonal_values()]) + 2.0 * abs(self.off)
        return np.divide(norm, lowest, out=np.full(norm.shape, np.inf), where=lowest > 0)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve every frequency's system for (n_freq, dim) stacked values.

        Returns the solution and the indices of the frequencies that the
        Thomas kernel handed to the pivoted LU of factor().  A frequency
        whose matrix is singular comes back as non-finite values.
        """
        y = self._interleaved(rhs)
        broken = self._thomas(y)
        return self._stacked(y), broken

    def _solve_with_corners(
        self, rhs: np.ndarray, rows: list[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve for stacked rhs and the unit vectors e_0, e_last of the two corner cells at once.

        Returns the three solutions at the stacked rows, (len(rows), 3,
        n_freq), and each solve's squared residual norm per frequency,
        (3, n_freq), computed in row blocks to hold no second full array.
        """
        w = np.zeros((self.dim + 2, 3, rhs.shape[0]), dtype=complex)  # a zero row at each end
        y = w[1:-1]
        y[:, 0] = self._interleaved(rhs)
        y[0, 1] = y[-1, 2] = 1.0
        self._thomas(y)
        stacked = self.stacked_rows()
        res_sq = np.zeros(y.shape[1:])
        for a in range(0, self.dim, ROW_BLOCK):
            b = min(a + ROW_BLOCK, self.dim)
            d = np.where(np.arange(a, b)[:, None] % 2 == 0, self.sym_p, self.sym_v)
            r = d[:, None] * y[a:b] + self.off * (w[a + 2 : b + 2] - w[a:b])
            r[:, 0] -= rhs[:, stacked[a:b]].T
            if a == 0:
                r[0] += self.corner0 * y[0]
                r[0, 1] -= 1.0
            if b == self.dim:
                r[-1] += self.cornerL * y[-1]
                r[-1, 2] -= 1.0
            res_sq += np.sum(r.real**2 + r.imag**2, axis=0)
        return y[np.argsort(stacked)[rows]], res_sq

    # interleaved (dim, [n_rhs,] n_freq) work layout of the solver kernel

    def _thomas(self, y: np.ndarray) -> np.ndarray:
        """Solve in place for interleaved (dim, [n_rhs,] n_freq) right-hand sides y.

        One Thomas sweep runs across all frequencies and right-hand sides
        at once.  The Hermitian part of each matrix is diagonal and bounded
        below by the solvability margin, which keeps the pivots away from
        zero without row exchanges.  The pivots are eliminated first, so
        that frequencies where one still collapses (an inadmissible
        scenario) keep their right-hand sides for the re-solve by the
        pivoted LU of factor(); their indices are returned.
        """
        d = self._diagonal()
        # rows 0, 1, 2 and -1 hold every distinct diagonal value before the sweep
        floor = PIVOT_FLOOR * max(float(np.abs(d[[0, 1, 2, -1]]).max()), abs(self.off))
        smallest = np.abs(d[0])  # per frequency; NaN once a pivot is NaN
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, self.dim):
                d[i] -= -self.off / d[i - 1] * self.off
                np.minimum(smallest, np.abs(d[i]), out=smallest)
            broken = np.flatnonzero(~(smallest >= floor))
            rhs = y[..., broken]
            for i in range(1, self.dim):
                y[i] -= -self.off / d[i - 1] * y[i - 1]
            y[-1] /= d[-1]
            for i in range(self.dim - 2, -1, -1):
                y[i] = (y[i] - self.off * y[i + 1]) / d[i]
        if broken.size:
            y[..., broken] = _solve_range_pivoted(self, rhs, broken)
        return broken

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


def _solve_range_pivoted(op: ReducedOperator, rhs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve frequencies ks with op.factor, in place; an exactly singular one becomes NaN.

    rhs holds their interleaved right-hand sides, (dim, [n_rhs,] ks.size).
    """
    for j, k in enumerate(ks):
        try:
            rhs[..., j] = op.factor(k)(rhs[..., j])
        except np.linalg.LinAlgError:
            rhs[..., j] = np.nan
    return rhs


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
    g_vals = bl.g.eval_many(1.0 / w)[:, 0, 0]
    # d/dt (a p) per frequency: (i s + rho) * alpha * (g p interpolated to faces)
    q_hat = g_vals[:, None] * p_hat.values
    ap_faces = bl.alpha[None, :] * cell_to_face(sd, q_hat)
    dap_hat = w[:, None] * ap_faces
    dap = inverse_transform(SpectralSignal(grid, dap_hat)).values
    p_vals = p.values

    grad_p = np.zeros((grid.n, sd.n_faces), dtype=complex)
    grad_p[:, 1:-1] = (p_vals[:, 1:] - p_vals[:, :-1]) / sd.dx
    div_dap = (dap[:, 1:] - dap[:, :-1]) / sd.dx

    term_face = np.sum(sd.w_face()[None, :] * np.conj(grad_p) * dap, axis=1)
    term_cell = np.sum(sd.w_cell()[None, :] * np.conj(p_vals) * div_dap, axis=1)
    integrand = term_face + term_cell

    wq = grid.weights() * (grid.times <= cutoff)
    return float(np.sum(wq * integrand).real)
