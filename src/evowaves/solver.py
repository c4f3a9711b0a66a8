"""Solvers for the evolutionary acoustic system.

The equation in the weighted space is, per frequency,

    [(i s + rho) * M(z_s) + A(s)] U_hat(s) = f_hat(s),     z_s = 1/(i s + rho),

with M the (diagonal, per-component) material law lifted onto the
staggered grid and A(s) the reduced spatial operator with eliminated
boundary faces.  Two solvers are provided and cross-checked:

* solve_frequency: exact per-frequency linear solves.  Each frequency's
  matrix (spatial.ReducedOperator) is tridiagonal up to a reordering of
  the unknowns, so all frequencies are solved together in one batched
  Thomas sweep at O(n) each.  This is the trusted oracle.  It checks
  itself with the operator it solved: the spectral residual, in the
  rectangle-rule (Parseval) norm, and an O(n) condition bound.
  solve_boundary_family runs the same kernel once for a whole family of
  boundary laws and corrects each law by a 2x2 Woodbury update.
* solve_timestep: causal implicit Euler marching.  Each step solves with
  the frequency operator at w = 1/delta plus an explicit memory history:
  every memory kernel (material and boundary) is realized as a finite
  state-space recursion, so no history is stored.  First order in the
  step, strictly causal by construction.

Both end in the same report code: a SolveReport carrying the residual,
the energy ratio against the solvability margin, a causality margin, the
source padding flag, the condition bound, the exact discrete coercivity
constant beta0_grid and the same warnings.  The stepper's residual is the
time-domain one (trapezoid norm), the only form that measures its
first-order defect.

The frequency paths run on numpy alone.  scipy is imported only when it
is needed: by solve_timestep for the sparse LU of its step matrix, and by
the pivoted fallback in spatial, so a process that never steps in time
or meets a pivot breakdown never loads it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .material import MaterialLaw, coercivity, law_symbol, memory_bound
from .rational import RationalMatrixFunction, scalar_rational
from .signals import WeightedGrid, WeightedSignal, rho_norm
from .spatial import (
    BoundaryLaw,
    ReducedOperator,
    SpatialDiscretization,
    _solve_range_pivoted,  # noqa: F401 -- bench/tracing.py counts pivot fallbacks by this name
    reduced_operator,
)
from .transform import (
    SpectralSignal,
    assert_padded,
    forward_transform,
    frequencies_for,
    inverse_transform,
)

__all__ = [
    "EvoProblem",
    "SolverError",
    "ImproperKernelError",
    "StateSpaceRealization",
    "realize",
    "realize_flux",
    "SolveReport",
    "solve_frequency",
    "solve_boundary_family",
    "solve_timestep",
    "residual_norm",
    "causality_margins",
]

ENERGY_SLACK = 0.02          # tolerated relative slack on the energy bound
CAUSALITY_SLACK = 1e-6       # tolerated causality margin, relative to ||f||
N_CUTS = 10                  # evenly spaced cut times of the report's causality margin
# the norm each solver's residual is measured in, by SolveReport.method
RESIDUAL_NORMS = {"frequency": "spectral (rectangle rule)", "timestep": "time-domain (trapezoid)"}


class SolverError(RuntimeError):
    pass


class ImproperKernelError(ValueError):
    """A kernel grows linearly in frequency and cannot be realized causally."""


@dataclass(frozen=True)
class EvoProblem:
    """Grid, discretization, laws and source defining one solve.

    The material law must be 2x2 and diagonal: entry (0, 0) acts on the
    pressure component, entry (1, 1) on velocity.  (Cross coupling between
    p and v is not liftable onto a staggered grid, where the two live at
    different points.)  The source f is a stacked reduced signal
    [p-cells, interior faces].  The constants (gamma0, mu0, beta0) are
    computed once, at construction, and the operator at the grid
    frequencies once, on first use.
    """

    grid: WeightedGrid
    sd: SpatialDiscretization
    law: MaterialLaw
    bl: BoundaryLaw
    f: WeightedSignal

    def __post_init__(self) -> None:
        if self.law.dim != 2:
            raise ValueError("material law must be 2x2 (pressure and velocity blocks)")
        m1 = self.law.m1
        named = [("m0", self.law.m0), ("m1 const", m1.const), ("m1 lin", m1.lin)]
        for name, mat in named + [("m1 residues", res) for res in m1.residues]:
            if np.abs(mat - np.diag(np.diag(mat))).max() > 1e-13 * max(np.abs(mat).max(), 1e-300):
                raise ValueError(f"material {name} must be diagonal for the staggered lift")
        if self.f.dim != self.sd.n_reduced:
            raise ValueError(
                f"source dim {self.f.dim} does not match reduced space {self.sd.n_reduced}"
            )
        rho = self.grid.rho
        floor_holo = 1.0 / (2.0 * self.r_effective)
        gamma = coercivity(self.law)
        rho_probe = max(rho, floor_holo * 1.01)
        mu = memory_bound(self.law, rho_probe)
        floor_margin = mu / gamma
        required = max(floor_holo, floor_margin)
        if rho <= required:
            raise SolverError(
                f"rho={rho} is below the admissible threshold {required:.6g} "
                f"(needs rho > 1/(2r) = {floor_holo:.6g} and rho > mu0/gamma0 = "
                f"{floor_margin:.6g})"
            )
        if rho_probe != rho:
            mu = memory_bound(self.law, rho)
        object.__setattr__(self, "_constants", (gamma, mu, rho * gamma - mu))

    @property
    def r_effective(self) -> float:
        """Holomorphy radius for the composite problem: min over both laws."""
        return min(self.law.r, self.bl.r)

    def operator(self, s: np.ndarray) -> ReducedOperator:
        """The per-frequency operator (i s + rho) M(z_s) + A(s) on frequencies s."""
        return self._operator_at(s, self.grid.rho)

    @functools.cached_property
    def grid_operator(self) -> ReducedOperator:
        """operator(s) at the grid frequencies s = frequencies_for(grid), built once."""
        return self.operator(frequencies_for(self.grid))

    def _operator_for(self, grid: WeightedGrid) -> ReducedOperator:
        """The operator at the frequencies of grid: grid_operator when grid is the problem's."""
        return self.grid_operator if grid == self.grid else self.operator(frequencies_for(grid))

    def _operator_at(self, s: np.ndarray, rho: float) -> ReducedOperator:
        """w M(1/w) + A at the points w = i s + rho, for any weight rho.

        operator(s) is this at the problem's weight; the implicit Euler step
        of size delta is it at the single point s = 0, rho = 1/delta.
        """
        w = 1j * np.asarray(s, dtype=float) + rho
        m = law_symbol(self.law, s, rho)
        flux = self.bl.flux_symbol(s, rho)
        return reduced_operator(self.sd, self.bl, flux, w * m[:, 0, 0], w * m[:, 1, 1])

    def margin_constants(self) -> tuple[float, float, float]:
        """(gamma0, mu0, beta0) for this problem at its operating weight.

        Computed once, by the admissibility check at construction.
        """
        return self._constants


def _apply_spectral(op: ReducedOperator, u_hat: SpectralSignal, grid: WeightedGrid) -> WeightedSignal:
    """op applied to the spectrum u_hat, transformed back onto grid."""
    return inverse_transform(SpectralSignal(u_hat.freqs, op.matvec(u_hat.values), u_hat.rho), grid)


def apply_evo_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the full space-time operator (time-derivative material part plus A)."""
    return _apply_spectral(prob._operator_for(u.grid), forward_transform(u), u.grid)


def apply_evo_adjoint_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the adjoint space-time operator (conjugate symbols, adjoint A)."""
    return _apply_spectral(prob._operator_for(u.grid).adjoint(), forward_transform(u), u.grid)


def residual_norm(prob: EvoProblem, u: WeightedSignal) -> tuple[float, bool]:
    """Relative residual of the operator equation; absolute if f = 0.

    Returns (value, is_relative).
    """
    r = apply_evo_operator(prob, u)
    diff = r.with_values(r.values - prob.f.values)
    f_norm = rho_norm(prob.f)
    if f_norm == 0.0:
        return rho_norm(diff), False
    return rho_norm(diff) / f_norm, True


# ---------------------------------------------------------------------------
# state-space realizations


@dataclass(frozen=True)
class StateSpaceRealization:
    """Finite recursion (F, G, H, D) with response D + H (w I - F)^{-1} G.

    F is diagonal (modal form): with simple poles that is exact, well
    conditioned, and keeps the implicit update trivially cheap.  Causal
    stability in the weighted space requires every pole to have real part
    below the operating weight; `check_stable` enforces it.
    """

    poles: np.ndarray          # (m,) diagonal of F
    residues: np.ndarray       # (m, d, d) H "rows" per mode (G is identity-stacked)
    const: np.ndarray          # (d, d) direct term D
    dim: int

    def __post_init__(self) -> None:
        p = np.asarray(self.poles, dtype=complex).reshape(-1)
        res = np.asarray(self.residues, dtype=complex).reshape(p.size, self.dim, self.dim)
        c = np.asarray(self.const, dtype=complex).reshape(self.dim, self.dim)
        for arr in (p, res, c):
            arr.setflags(write=False)
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "residues", res)
        object.__setattr__(self, "const", c)

    def check_stable(self, rho: float) -> None:
        if self.poles.size and self.poles.real.max() >= rho:
            raise SolverError(
                f"realization unstable in the weighted space: pole real part "
                f"{self.poles.real.max():.6g} >= rho = {rho:.6g}"
            )


def realize(kernel: RationalMatrixFunction, rho: float) -> StateSpaceRealization:
    """Realize the symbol kernel(1/w) as a state-space recursion.

    Substituting z = 1/w into the partial fractions gives

        kernel(1/w) = [const - sum res_m / p_m]  +  lin / (w - 0)
                      + sum (-res_m / p_m^2) / (w - 1/p_m),

    which is proper (bounded as w -> inf), so it is always realizable;
    poles 1/p_m inherit real part < 1/(2r) < rho from holomorphy.
    """
    d = kernel.dim
    poles: list[complex] = []
    residues: list[np.ndarray] = []
    const = kernel.const.astype(complex).copy()
    if np.abs(kernel.lin).max(initial=0.0) > 0.0:
        poles.append(0.0)
        residues.append(kernel.lin.astype(complex))
    for p, r in zip(kernel.poles, kernel.residues):
        if abs(p) < 1e-300:
            raise ValueError("kernel pole at z = 0 cannot be transformed")
        const -= r / p
        poles.append(1.0 / p)
        residues.append(-r / p**2)
    real = StateSpaceRealization(
        poles=np.asarray(poles, dtype=complex),
        residues=np.asarray(residues, dtype=complex).reshape(len(poles), d, d),
        const=const,
        dim=d,
    )
    real.check_stable(rho)
    return real


def realize_flux(bl: BoundaryLaw, rho: float) -> StateSpaceRealization:
    """Realize the boundary flux symbol c(w) = w * g(1/w).

    c is proper only when g(0) = 0; otherwise c grows linearly in
    frequency and has no causal finite-state realization.  Such kernels
    must be rewritten with one extra time integration (fold a factor of
    the inverse derivative into g so that it vanishes at z = 0) before the
    time stepper can use them; the frequency solver does not care.
    """
    g = bl.g
    if g.dim != 1:
        raise ValueError("boundary kernel must be scalar")
    d0 = complex(g.const[0, 0])
    lin = complex(g.lin[0, 0])
    p = g.poles
    res = g.residues[:, 0, 0]
    g_at_zero = d0 - np.sum(res / p)
    scale = abs(lin) + abs(d0) + float(np.sum(np.abs(res / p)))
    if abs(g_at_zero) > 1e-9 * (scale + 1.0):
        raise ImproperKernelError(
            "boundary flux symbol grows linearly in frequency (g(0) = "
            f"{g_at_zero:.3e} != 0); fold one time integration into the kernel "
            "so that g vanishes at z = 0, then retry the time stepper"
        )
    # with g(0) = 0, c(w) = h(1/w) for h(z) = g(z)/z = lin + sum (r/p)/(z - p)
    return realize(scalar_rational(const=lin, poles=p, residues=res / p), rho)


# ---------------------------------------------------------------------------
# reports


@dataclass
class SolveReport:
    """Solution plus the diagnostics every estimate check needs."""

    solution: WeightedSignal
    residual_rel: float
    residual_is_relative: bool
    gamma0: float
    mu0: float
    beta0: float
    beta0_grid: float
    beta0_grid_s: float
    rho: float
    energy_ratio: float
    causality_margin: float
    max_condition_bound: float
    condition_peak_s: float
    wall_time_s: float
    method: str
    f_padded_ok: bool = True
    warnings: list[str] = field(default_factory=list)

    def energy_bound_ok(self) -> bool:
        if self.beta0 <= 0:
            return False
        return self.energy_ratio <= (1.0 / self.beta0) * (1.0 + ENERGY_SLACK)

    def causality_ok(self) -> bool:
        return self.causality_margin >= -CAUSALITY_SLACK

    def bounds_ok(self) -> bool:
        return self.energy_bound_ok() and self.causality_ok()

    def to_text(self) -> str:
        lines = [
            f"method                {self.method}",
            f"rho                   {self.rho:.17g}",
            f"gamma0 (coercivity)   {self.gamma0:.17g}",
            f"mu0 (memory bound)    {self.mu0:.17g}",
            f"beta0 (margin)        {self.beta0:.17g}",
            f"beta0_grid            {self.beta0_grid:.17g}",
            f"beta0_grid_s          {self.beta0_grid_s:.9g}",
            f"residual{'_rel' if self.residual_is_relative else '_abs'}          "
            f"{self.residual_rel:.6e}",
            f"residual_norm         {RESIDUAL_NORMS[self.method]}",
            f"energy_ratio          {self.energy_ratio:.17g}",
            f"energy_bound 1/beta0  {1.0 / self.beta0 if self.beta0 > 0 else float('inf'):.17g}",
            f"energy_bound_ok       {self.energy_bound_ok()}",
            f"causality_margin      {self.causality_margin:.6e}",
            f"causality_ok          {self.causality_ok()}",
            f"max_condition_bound   {self.max_condition_bound:.6e}",
            f"condition_peak_s      {self.condition_peak_s:.9g}",
            f"source_padded_ok      {self.f_padded_ok}",
            f"wall_time_s           {self.wall_time_s:.3f}",
        ]
        for w in self.warnings:
            lines.append(f"warning               {w}")
        return "\n".join(lines) + "\n"


def causality_margins(
    prob: EvoProblem, u: WeightedSignal, cuts: np.ndarray, beta0: float
) -> np.ndarray:
    """(||chi_a f|| - beta0 ||chi_a U||) / ||f|| at each cut time a (0 if f = 0).

    Cutoff norms at all cuts come from one prefix sum of the per-sample
    weighted energies (a sharp cutoff just truncates the quadrature sum).
    """
    wq = prob.grid.weights()
    # prefix energies lead with 0, the energy before the first sample
    energy_u = np.cumsum(np.append(0.0, wq * np.sum(np.abs(u.values) ** 2, axis=1)))
    energy_f = np.cumsum(np.append(0.0, wq * np.sum(np.abs(prob.f.values) ** 2, axis=1)))
    f_norm = float(np.sqrt(energy_f[-1]))
    if f_norm == 0.0:
        return np.zeros(len(cuts))
    idx = np.searchsorted(prob.grid.times, cuts, side="right")
    return (np.sqrt(energy_f[idx]) - beta0 * np.sqrt(energy_u[idx])) / f_norm


def _report(
    prob: EvoProblem,
    u: WeightedSignal,
    method: str,
    t_start: float,
    residual: tuple[float, bool],
    op: ReducedOperator,
    s: np.ndarray,
    warnings: list[str],
) -> SolveReport:
    """The report of either solver; residual is its (value, is_relative), op at frequencies s.

    beta0_grid is the smallest op.margin() over s: the exact coercivity
    constant of the discrete problem, to set against beta0.
    """
    grid = prob.grid
    bound, margin = op.condition_bound(), op.margin()
    peak, lowest = int(np.argmax(bound)), int(np.argmin(margin))
    gamma, mu, beta0 = prob.margin_constants()
    f_norm = rho_norm(prob.f)
    energy_ratio = rho_norm(u) / f_norm if f_norm > 0 else 0.0
    cuts = grid.t0 + grid.window_length * (np.arange(1, N_CUTS + 1) / (N_CUTS + 1.0))
    try:
        assert_padded(prob.f)
        padded = True
    except ValueError as exc:
        padded = False
        warnings.append(str(exc))
    return SolveReport(
        solution=u,
        residual_rel=residual[0],
        residual_is_relative=residual[1],
        gamma0=gamma,
        mu0=mu,
        beta0=beta0,
        beta0_grid=float(margin[lowest]),
        beta0_grid_s=float(s[lowest]),
        rho=grid.rho,
        energy_ratio=energy_ratio,
        causality_margin=float(causality_margins(prob, u, cuts, beta0).min()),
        max_condition_bound=float(bound[peak]),
        condition_peak_s=float(s[peak]),
        wall_time_s=time.perf_counter() - t_start,
        method=method,
        f_padded_ok=padded,
        warnings=warnings,
    )


def _solve_spectral(
    prob: EvoProblem,
) -> tuple[WeightedSignal, ReducedOperator, np.ndarray, np.ndarray, tuple[float, bool]]:
    """The bare frequency solve: (u, op, s, pivoted frequency indices, residual).

    All frequencies are solved in one batched Thomas sweep; any frequency
    where a pivot breaks down is re-solved by pivoted banded LU.  A
    frequency the solve cannot invert raises SolverError naming it.  The
    residual is ||op U_hat - f_hat|| / ||f_hat|| (absolute if f = 0), the
    rectangle-rule (Parseval) norm of the time-domain residual.
    """
    grid = prob.grid
    s = frequencies_for(grid)
    op = prob.grid_operator
    f_hat = forward_transform(prob.f).values
    u_hat, pivoted = op.solve(f_hat)
    singular = ~np.isfinite(u_hat).all(axis=1)
    if singular.any():
        raise SolverError(
            f"singular operator at frequency s = {s[np.argmax(singular)]:.9g} "
            "(the solvability margin is not positive, or the boundary "
            "law is inadmissible)"
        )
    r_hat = op.matvec(u_hat)
    r_hat -= f_hat
    f_norm, r_norm = float(np.linalg.norm(f_hat)), float(np.linalg.norm(r_hat))
    del f_hat, r_hat  # two fewer spectra held through the inverse transform
    residual = (r_norm / f_norm, True) if f_norm > 0 else (r_norm, False)
    u = inverse_transform(SpectralSignal(s, u_hat, grid.rho), grid)
    return u, op, s, pivoted, residual


def solve_frequency(prob: EvoProblem) -> SolveReport:
    """Exact per-frequency solve (the oracle path).

    The solve and its spectral residual are _solve_spectral; the report's
    warnings name frequencies that fell back to pivoted banded LU, and
    max_condition_bound bounds every frequency's 2-norm condition number.
    """
    t_start = time.perf_counter()
    u, op, s, pivoted, residual = _solve_spectral(prob)
    warnings: list[str] = []
    if pivoted.size:
        warnings.append(
            f"Thomas pivot broke down at {pivoted.size} of {s.size} frequencies in "
            f"s = [{s[pivoted[0]]:.9g}, {s[pivoted[-1]]:.9g}]; those were solved "
            "by pivoted banded LU"
        )
    return _report(prob, u, "frequency", t_start, residual, op, s, warnings)


def solve_boundary_family(
    prob: EvoProblem, laws: list[BoundaryLaw], rows: list[int]
) -> list[tuple[WeightedSignal, float]]:
    """Solve prob once per boundary law: (stacked rows of the solution, residual bound).

    A law adds U D U^T to the Neumann operator A0, U = [e_0, e_last] and
    D = diag(corner0, cornerL).  One elimination of A0 gives y = A0^-1 f
    and Z = A0^-1 U; each law's solution is x = y - Z beta, with the 2x2
    system (I + D U^T Z) beta = D U^T y per frequency.  With r_f = A0 y - f
    and R_X = A0 Z - U, x has residual r_f - R_X beta - U rho2 exactly,
    rho2 the 2x2 residual, so the l2 sum over frequencies of ||r_f|| +
    ||R_X||_F ||beta|| + ||rho2||, over ||f_hat||, bounds the relative
    residual in the rectangle-rule (Parseval) norm (absolute if f = 0).
    """
    grid, nc = prob.grid, prob.sd.n_cells
    s = frequencies_for(grid)
    f_hat = forward_transform(prob.f).values
    zero = np.zeros(s.size, dtype=complex)
    neumann = dataclasses.replace(prob.grid_operator, corner0=zero, cornerL=zero)
    at_rows, res_sq = neumann._solve_with_corners(f_hat, [*rows, 0, nc - 1])
    singular = ~np.isfinite(res_sq).all(axis=0)
    if singular.any():
        raise SolverError(
            f"singular Neumann operator at frequency s = {s[np.argmax(singular)]:.9g}"
        )
    probe, corners = at_rows[:-2], at_rows[-2:]
    res_f, res_x = np.sqrt(res_sq[0]), np.sqrt(res_sq[1] + res_sq[2])
    f_norm = float(np.linalg.norm(f_hat))

    out = []
    for j, bl in enumerate(laws):
        law_op = dataclasses.replace(prob, bl=bl).operator(s)  # with EvoProblem's checks
        c = np.stack([law_op.corner0, law_op.cornerL])
        m = np.eye(2)[:, :, None] + c[:, None] * corners[:, 1:]
        rhs = c * corners[:, 0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            adjugate = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
            beta = np.einsum("ijk,jk->ik", adjugate, rhs) / (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        bad = ~np.isfinite(beta).all(axis=0)
        if bad.any():
            raise SolverError(
                f"boundary law {j}: the 2x2 boundary correction is singular at "
                f"frequency s = {s[np.argmax(bad)]:.9g}"
            )
        rho2 = np.einsum("ijk,jk->ik", m, beta) - rhs
        per_freq = res_f + res_x * np.linalg.norm(beta, axis=0) + np.linalg.norm(rho2, axis=0)
        bound = float(np.linalg.norm(per_freq)) / (f_norm if f_norm > 0 else 1.0)
        x = probe[:, 0] - np.einsum("rjk,jk->rk", probe[:, 1:], beta)
        out.append((inverse_transform(SpectralSignal(s, x.T, grid.rho), grid), bound))
    return out


# ---------------------------------------------------------------------------
# causal time stepper


class _ImplicitMemory:
    """Implicit-Euler states of the modes res / (w - p), one column per unknown.

    residues is (modes, unknowns): each unknown has its own residue per
    mode.  The step's instantaneous response is part of the step matrix;
    history() is what the states carried over from earlier steps add.
    """

    def __init__(self, poles: np.ndarray, residues: np.ndarray, delta: float):
        self.gain = 1.0 / (1.0 - delta * poles)
        self.weight = residues * self.gain[:, None]
        self.delta = delta
        self.x = np.zeros(residues.shape, dtype=complex)

    def history(self) -> np.ndarray:
        return np.sum(self.weight * self.x, axis=0)

    def advance(self, u_new: np.ndarray) -> None:
        self.x = self.gain[:, None] * (self.x + self.delta * u_new)


def solve_timestep(prob: EvoProblem) -> SolveReport:
    """Causal implicit-Euler march of the same equation, one step per grid sample.

    The step matrix is the frequency operator at w = 1/delta, delta the
    grid step: implicit Euler replaces the inverse derivative z by delta.
    The memory kernels (material and boundary), realized as diagonal
    state-space recursions, add an explicit history term to each step's
    right-hand side.  Step k uses data up to t_k only, so the scheme is
    strictly causal: zero source prefix gives an exactly zero solution
    prefix.  The sparse LU comes from scipy.sparse.linalg, imported on the
    first call.
    """
    import scipy.sparse.linalg

    t_start = time.perf_counter()
    grid, sd = prob.grid, prob.sd
    nc, delta = sd.n_cells, grid.dt
    if not delta < 2.0 * prob.r_effective:
        raise SolverError(
            f"time step {delta:.6g} is not below 2r = {2.0 * prob.r_effective:.6g}: implicit "
            "Euler evaluates the kernels at z = dt, outside their holomorphy ball"
        )

    mem = realize(prob.law.m1, grid.rho)
    # pressure unknowns take each mode's (0, 0) residue, velocity unknowns its (1, 1)
    memory = _ImplicitMemory(
        mem.poles, np.repeat(mem.residues[:, [0, 1], [0, 1]], [nc, nc - 1], axis=1), delta
    )
    # the flux state of each end is driven by its boundary cell's pressure and
    # enters that cell's row as (n . alpha) / dx times the flux response
    ends = [0, nc - 1]
    flux_real = realize_flux(prob.bl, grid.rho)
    end_gain = np.asarray(prob.bl.normal_alpha) / sd.dx
    flux = _ImplicitMemory(flux_real.poles, flux_real.residues[:, 0] * end_gain, delta)
    step = prob._operator_at(np.zeros(1), 1.0 / delta)
    lu = scipy.sparse.linalg.splu(step.sparse(0))

    m0 = np.repeat(np.diag(prob.law.m0), [nc, nc - 1]) / delta
    f = prob.f.values
    out = np.zeros((grid.n, sd.n_reduced), dtype=complex)
    for k in range(1, grid.n):
        rhs = f[k] + m0 * out[k - 1] - memory.history()
        rhs[ends] -= flux.history()
        out[k] = lu.solve(rhs)
        memory.advance(out[k])
        flux.advance(out[k, ends])

    u = WeightedSignal(grid, out)
    nan = np.full(1, np.nan)  # the step matrix has no frequency
    return _report(prob, u, "timestep", t_start, residual_norm(prob, u), step, nan, [])
