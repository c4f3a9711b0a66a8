"""Staggered 1D discretization of the acoustic spatial operator.

Pressure lives at cell centers x_c = (c + 1/2) dx, velocity at faces
x_f = f dx, f = 0..n_cells.  The divergence D_div (faces -> cells) and
gradient D_grad (cells -> faces) are second-order centered differences,
with zero gradient rows at the two boundary faces.  With the cell
weights dx and the face weights dx (dx/2 at the two boundary faces) they
satisfy the summation-by-parts identity

    W_cell D_div + D_grad^T W_face = B

exactly, with B zero but for its two corner entries (boundary cell,
boundary face), -1 and +1: the discrete version of "volume terms
integrate to a boundary flux".  It is why the boundary sign functional
is computed from the two wall terms alone.

The boundary law couples pressure and normal velocity through a scalar
rational kernel g and a spatial profile alpha living on faces:

    (outward normal velocity) = flux_symbol(w) * (n . alpha) * (boundary pressure)

per frequency, where flux_symbol(w) = w g(1/w) at w = i s + rho (grid.w).
Eliminating the two boundary-face velocities with this relation (boundary
pressure taken from the adjacent cell) keeps the reduced operator square
and makes the Robin case g(z) = k z exact: its flux symbol is the
constant k.  The elimination also makes the reduced adjoint equal to the
per-frequency conjugate transpose, which the adjoint_lemma check verifies.

Every reduced signal and matrix interleaves its unknowns as (p_0, v_1,
p_1, ..., v_last, p_last) (SpatialDiscretization.x), the order in which
the reduced operator is tridiagonal; only CSV files hold the pressures
first.  The module runs on numpy, except ReducedOperator.factor, which
imports scipy.linalg when it runs: its LAPACK LU (gttrf) is shared by the
time stepper and by frequencies of non-positive margin whose pivots break down.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .rational import PoleError, RationalMatrixFunction, _circle, _circle_fraction, _extremum, scalar_rational
from .signals import WeightedSignal
from .transform import SpectralSignal, forward_transform, inverse_transform

__all__ = [
    "SpatialDiscretization",
    "BoundaryLaw",
    "ReducedOperator",
    "reduced_operator",
    "assemble_spatial_op",
    "assemble_spatial_op_adjoint",
    "apply_spatial_op_freq",
    "apply_spatial_op_adjoint_freq",
    "boundary_sign_functional",
]

PIVOT_FLOOR = 1e-14  # Thomas pivots below this, relative to the largest entry, break down
ROW_BLOCK = 64  # rows per block of _residual_sq, _source_columns and solve's smallest pivot


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

    @property
    def x(self) -> np.ndarray:
        """The position of each reduced unknown: cell_x at even indices, face_x[1:-1] at odd ones."""
        return (np.arange(self.n_reduced) + 1) * (0.5 * self.dx)


@dataclass(frozen=True)
class BoundaryLaw:
    """Impedance-type boundary kernel g(z) with spatial profile alpha.

    alpha lives on velocity faces; the law reads it at the two boundary
    faces alone (normal_alpha).  Admissibility (nonnegative real part of the flux symbol) is *not*
    enforced at construction: the verification suite must be able to build
    inadmissible laws to demonstrate that its sign check has power.
    """

    g: RationalMatrixFunction
    alpha: np.ndarray
    r: float

    def __post_init__(self) -> None:
        if self.g.dim != 1:
            raise ValueError("boundary kernel g must be scalar valued")
        if not self.r > 0:
            raise ValueError(f"holomorphy radius must be positive, got {self.r}")
        self.g.check_holomorphic(self.r)
        a = np.asarray(self.alpha, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError(f"alpha must live on faces, got shape {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    @property
    def normal_alpha(self) -> tuple[float, float]:
        """Outward-normal component of alpha at the left and right ends."""
        return (-float(self.alpha[0]), float(self.alpha[-1]))

    def flux_symbol(self, w: np.ndarray) -> np.ndarray:
        """w * g(1/w) on an array of points w, such as WeightedGrid.w."""
        try:
            return w * self.g.eval_many(1.0 / w)[:, 0, 0]
        except PoleError as exc:
            raise PoleError(f"boundary kernel pole hit on the frequency grid: {exc}") from exc

    def min_real_flux(self, rho: float) -> float:
        """Min of Re flux_symbol at w = i s + rho over all s and s = +-inf; >= 0 is the sign condition.

        With g(1/w) = N / D it is the exact min of Re(w N conj D) / |D|^2, a
        real rational function of s, lowered by the rounding slack of
        rational._circle_fraction.
        """
        num, den, slack = _circle_fraction(self.g, rho)
        flux = np.convolve(_circle(rho), num[0, 0])
        low = _extremum(
            np.convolve(flux, den.conj()).real, np.convolve(den, den.conj()).real,
            lambda w: self.flux_symbol(w).real, rho, largest=False, even=self.g.is_real(),
        )
        return low - slack * abs(low)

    @staticmethod
    def normal_profile(sd: SpatialDiscretization) -> np.ndarray:
        """The linear profile that equals the outward normal at both ends."""
        return 2.0 * sd.face_x / sd.length - 1.0

    @staticmethod
    def robin(k: float, sd: SpatialDiscretization, r: float = 1.0) -> "BoundaryLaw":
        """g(z) = k z with the normal profile: normal velocity = k * pressure."""
        return BoundaryLaw(scalar_rational(lin=k), BoundaryLaw.normal_profile(sd), r)


@dataclass(frozen=True, eq=False)
class ReducedOperator:
    """The reduced per-frequency operator w M(1/w) + A(w), batched over points w.

    Unknowns are interleaved as (p_0, v_1, p_1, ..., v_last, p_last).  At
    frequency k the matrix has sym_p[k] on the pressure diagonal, sym_v[k]
    on the velocity diagonal, the eliminated boundary faces as corner[k]
    terms on the first and last pressure cell, and the staggered
    differences with coefficient off = 1/dx: pressure row c reads
    off * (v_{c+1} - v_c) and velocity row f reads off * (p_f - p_{f-1}).
    So every matrix is tridiagonal with sub-diagonal -off and
    super-diagonal +off.  The adjoint conjugates the four vectors and
    negates off.  matvec applies the differences on the pressure and
    velocity strides of (n_freq, dim) values; residuals are _residual_sq's.
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
        """Apply the operator to (n_freq, dim) values."""
        p, v = u[:, 0::2], u[:, 1::2]
        out = np.empty(u.shape, dtype=complex)
        out_p, out_v = out[:, 0::2], out[:, 1::2]
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

    def dense(self, k: int = 0) -> np.ndarray:
        """The matrix at frequency index k, as a dense array."""
        off = np.full(self.dim - 1, self.off)
        return np.diag(self._diagonal([k])[:, 0]) + np.diag(off, 1) - np.diag(off, -1)

    def factor(self, k: int) -> Callable[[np.ndarray], np.ndarray]:
        """LU with partial pivoting (LAPACK gttrf) of the matrix at frequency index k.

        The LU is real (dgttrf) when the diagonal has no imaginary part,
        complex (zgttrf) otherwise.  Returns the solve (gttrs) for (dim,)
        or (dim, n_rhs) right-hand sides b, in place when b is contiguous;
        a real LU solves a complex b as its real and imaginary parts and
        writes them back into b.  Raises LinAlgError when U has an exact
        zero pivot.  scipy.linalg is imported here, on the first call.
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
            if real and b.dtype.kind == "c":
                b[...] = gttrs(*lu, b.real)[0] + 1j * gttrs(*lu, b.imag)[0]
                return b
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

    def solve(self, source: Callable[..., np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Solve every frequency's system for source(a, b, out=None), unknowns a to b at every frequency.

        The source is formed whole, with out=, in a (dim, n_freq) array and
        swept there in place.  A pivot can fall below the pivot floor only
        where margin() does (_thomas); such a frequency, found in row blocks,
        is re-solved from _source_columns by the pivoted LU of factor().
        Returns the solution, a transposed view, and the re-solved indices.
        A frequency whose matrix is singular comes back as non-finite values.
        """
        y = source(0, self.dim, out=np.empty((self.dim, self.sym_p.size), dtype=complex))
        pivots = self._thomas(y)
        floor = PIVOT_FLOOR * max(float(np.abs(self._diagonal_values()).max()), abs(self.off))
        broken = np.flatnonzero(~(self.margin() >= floor))  # uncertified, a NaN margin too
        if broken.size:  # their min |d'|, NaN once a pivot is NaN
            low = [np.abs(pivots[a : a + ROW_BLOCK, broken]).min(axis=0) for a in range(0, self.dim, ROW_BLOCK)]
            broken = broken[~(np.minimum.reduce(low) >= floor)]
            y[:, broken] = _solve_range_pivoted(self, self._source_columns(source, broken), broken)
        return y.T, broken

    def _source_columns(self, source: Callable[..., np.ndarray], ks: np.ndarray) -> np.ndarray:
        """Columns ks of source(0, dim), formed ROW_BLOCK rows at a time: never the whole source."""
        blocks = range(0, self.dim, ROW_BLOCK)
        return np.concatenate([source(a, min(a + ROW_BLOCK, self.dim))[:, ks] for a in blocks], dtype=complex)

    def _solve_with_corners(
        self, source: Callable[..., np.ndarray], rows: list[int], w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve the Neumann operator A0 for a source and the unit vectors e_0, e_last of the corner cells.

        The operator, with zero corner terms (ValueError otherwise), and the
        source, as solve() takes it, are one block of frequencies; the solve
        runs in the caller's work array w, (dim, 2, n_freq), whatever it holds
        on entry: the source is formed and solved in its first column, e_last
        in the second, so one w serves every block of a sweep.  Only the source
        goes through the Thomas sweep.  A0^-1 e_last is a running product over
        its pivots d': x_last = 1/d'_last and x_i = (-off/d'_i) x_{i+1}, the
        sweep's own row multipliers, which it leaves in w.  A0's diagonal is a
        palindrome (dim is odd) and its off-diagonals are -off and +off, so
        J D A0 J D = A0, J the row reversal and D = diag((-1)^i): row r of
        A0^-1 e_0 is (-1)^r row dim - 1 - r of A0^-1 e_last, and its residual
        is the mirror of e_last's, row for row and bit for bit.  A0's margin is
        at least beta0 > 0: no pivot breaks down (_thomas).  Returns the source,
        e_0 and e_last solutions at the given rows, (len(rows), 3, n_freq), and
        their squared residual norms, (2, n_freq), from _residual_sq.
        """
        if self.corner0.any() or self.cornerL.any():
            raise ValueError("the corner columns need the Neumann operator: zero corner terms")
        z = w[:, 1]
        pivots = self._thomas(source(0, self.dim, out=w[:, 0]), mult=z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(1.0, pivots[-1], out=z[-1])
            np.multiply.accumulate(z[::-1], axis=0, out=z[::-1])
        del pivots  # not held through the residual
        rows = np.asarray(rows)
        mirror = np.where(rows % 2 == 0, 1.0, -1.0)[:, None] * z[self.dim - 1 - rows]
        return np.stack([w[rows, 0], mirror, z[rows]], axis=1), self._residual_sq(w, source)

    def _residual_sq(self, y: np.ndarray, source: Callable[..., np.ndarray]) -> np.ndarray:
        """Per-frequency squared residual norms (n_col, n_freq) of y's columns, (dim, n_col, n_freq).

        The residual of the solve, the sweep and solver.residual_norm: column 0
        against source, as solve() takes it, a second one, if any, against e_last;
        y may be a strided view.  ROW_BLOCK rows at a time: no array of y's size.
        """
        res_sq = np.zeros(y.shape[1:])
        r, diff = (np.empty((ROW_BLOCK, *y.shape[1:]), dtype=complex) for _ in range(2))
        f = np.empty((ROW_BLOCK, y.shape[2]), dtype=complex)
        for a in range(0, self.dim, ROW_BLOCK):  # ROW_BLOCK is even: row a is a pressure
            b = min(a + ROW_BLOCK, self.dim)
            lo, hi = max(a, 1), min(b, self.dim - 1)  # the rows with two neighbours
            np.multiply(self.sym_p, y[a:b:2], out=r[0 : b - a : 2])
            np.multiply(self.sym_v, y[a + 1 : b : 2], out=r[1 : b - a : 2])
            step = np.subtract(y[lo + 1 : hi + 1], y[lo - 1 : hi - 1], out=diff[: hi - lo])
            r[lo - a : hi - a] += np.multiply(self.off, step, out=step)
            if a == 0:
                r[0] += self.corner0 * y[0] + self.off * y[1]
            if b == self.dim:
                r[b - a - 1] += self.cornerL * y[-1] - self.off * y[-2]
                r[b - a - 1, 1:] -= 1.0
            r[: b - a, 0] -= source(a, b, out=f[: b - a])
            with np.errstate(over="ignore"):  # the caller names a residual that overflows
                v = r[: b - a].view(float)  # re, im pairs
                sq = np.square(v, out=v).sum(axis=0)
                res_sq += sq[..., 0::2] + sq[..., 1::2]
        return res_sq

    # (dim, n_freq) work layout of the solver kernel

    def _thomas(self, y: np.ndarray, mult: np.ndarray | None = None) -> np.ndarray:
        """Solve in place for (dim, n_freq) right-hand sides y; returns the pivots d', (dim, n_freq).

        One Thomas sweep runs across all frequencies at once, with no row
        exchanges: d'_i = d_i + off^2 / d'_{i-1}, the off-diagonals being -off
        and +off.  Re(off^2 / d'_{i-1}) >= 0 where Re d'_{i-1} > 0, so by
        induction Re d'_i >= Re d_i >= margin(): where the margin is positive
        no pivot breaks down.  Each row's multiplier -off/d'_i is computed
        once; rows 0 to dim - 2 of mult, (dim, n_freq), keep them when given.
        """
        d = self._diagonal()
        off, minus_off = complex(self.off), complex(-self.off)  # converted once, not per row
        row_mult, step, scratch = (np.empty_like(d[0]) for _ in range(3))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for i in range(1, self.dim):
                m = np.divide(minus_off, d[i - 1], out=row_mult if mult is None else mult[i - 1])
                d[i] -= np.multiply(m, off, out=step)
                y[i] -= np.multiply(m, y[i - 1], out=scratch)
            y[-1] /= d[-1]
            for i in range(self.dim - 2, -1, -1):
                y[i] -= np.multiply(off, y[i + 1], out=scratch)
                y[i] /= d[i]
        return d

    def _diagonal(self, ks: np.ndarray | slice = slice(None)) -> np.ndarray:
        sym_p = self.sym_p[ks]
        d = np.empty((self.dim, sym_p.size), dtype=complex)
        d[0::2] = sym_p
        d[1::2] = self.sym_v[ks]
        d[0] += self.corner0[ks]
        d[-1] += self.cornerL[ks]
        return d


def _solve_range_pivoted(op: ReducedOperator, rhs: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Solve frequencies ks with op.factor, in place; an exactly singular one becomes NaN.

    rhs holds their right-hand sides, (dim, [n_rhs,] ks.size).
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
    """The reduced operator for flux symbol values flux(w_k), plus material symbols.

    Eliminating v at a boundary face through
    (n . v) = flux * (n . alpha) * p_cell adds flux * (n . alpha) / dx to
    the matching diagonal entry of the pressure block, with the same sign
    at both ends (the outward normal absorbs the orientation).  A corner
    term that overflows where the flux is finite (say a Robin k near the
    float64 maximum, over dx) raises ValueError naming its end and the
    first point where it is not finite.
    """
    flux = np.asarray(flux, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing corner is named below
        corners = [flux * a / sd.dx for a in bl.normal_alpha]
    for end, corner in zip(("left", "right"), corners):
        bad = ~np.isfinite(corner) & np.isfinite(flux)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"the {end} boundary corner term flux * (n . alpha) / dx overflows at point "
                f"{k} of {flux.size} (flux = {flux[k]:.6g}, dx = {sd.dx:.6g})"
            )
    return ReducedOperator(
        np.broadcast_to(np.asarray(sym_p, dtype=complex), flux.shape),
        np.broadcast_to(np.asarray(sym_v, dtype=complex), flux.shape),
        *corners,
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
    flux = bl.flux_symbol(np.asarray([1j * s + rho]))
    a0, aL = bl.normal_alpha
    elim = (complex(-flux[0] * a0), complex(flux[0] * aL))
    return reduced_operator(sd, bl, flux).dense(0), elim


def assemble_spatial_op_adjoint(
    sd: SpatialDiscretization, bl: BoundaryLaw, s: float, rho: float
) -> np.ndarray:
    """Dense reduced adjoint spatial operator at one frequency."""
    return reduced_operator(sd, bl, bl.flux_symbol(np.asarray([1j * s + rho]))).adjoint().dense(0)


def apply_spatial_op_freq(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    u_hat: np.ndarray,
    s: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Reduced spatial operator on (n_freq, n_reduced) spectral values."""
    return reduced_operator(sd, bl, bl.flux_symbol(1j * np.asarray(s) + rho)).matvec(u_hat)


def apply_spatial_op_adjoint_freq(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    u_hat: np.ndarray,
    s: np.ndarray,
    rho: float,
) -> np.ndarray:
    """Reduced adjoint spatial operator on (n_freq, n_reduced) spectral values."""
    return reduced_operator(sd, bl, bl.flux_symbol(1j * np.asarray(s) + rho)).adjoint().matvec(u_hat)


def boundary_sign_functional(
    sd: SpatialDiscretization,
    bl: BoundaryLaw,
    p: WeightedSignal,
    cutoff: float = 0.0,
) -> float:
    """Discrete boundary sign functional truncated at the cutoff time.

    The quantity is Re of the time integral (weighted, over t <= cutoff) of

        <grad p | d/dt (a p)> + <p | div d/dt (a p)>

    with a = alpha * g as spatial/temporal kernel and a p averaged to
    faces (copied at the two boundary faces).  The identity
    W_cell D_div + D_grad^T W_face = B, with B corner-only, collapses
    this volume sum exactly to the two wall terms

        sum over the ends of (n . alpha_end) conj(p_end) (d/dt g p)_end,

    so only the first and last pressure cells are transformed, by a real
    FFT when p and the kernel g are real in time (then d/dt g p is real).
    A nonnegative value over a battery of trial pressures is the
    admissibility condition on the boundary law.
    """
    if p.dim != sd.n_cells:
        raise ValueError(f"pressure signal must have dim {sd.n_cells}, got {p.dim}")
    grid = p.grid
    ends = p.with_values(p.values[:, [0, -1]])
    half = ends.is_real and bl.g.is_real()
    ends_hat = forward_transform(ends, half)
    flux = bl.flux_symbol(grid.w[: ends_hat.values.shape[0]])  # the symbol of d/dt g
    dgp = inverse_transform(SpectralSignal(grid, flux[:, None] * ends_hat.values, half)).values
    integrand = (np.conj(ends.values) * dgp) @ np.asarray(bl.normal_alpha)
    wq = grid.weights() * (grid.times <= cutoff)
    return float(np.sum(wq * integrand).real)
