"""Solvers for the evolutionary acoustic system.

The equation in the weighted space is, per frequency,

    [(i s + rho) * M(z_s) + A(s)] U_hat(s) = f_hat(s),     z_s = 1/(i s + rho),

with M the (diagonal, per-component) material law lifted onto the
staggered grid and A(s) the reduced spatial operator with eliminated
boundary faces.  Two solvers are provided and cross-checked:

* solve_frequency: exact per-frequency linear solves.  Each frequency's
  matrix (spatial.ReducedOperator) is tridiagonal up to a reordering of
  the unknowns, so all frequencies are solved together in one batched
  Thomas sweep at O(n) each.  This is the trusted oracle.
* solve_timestep: causal implicit Euler marching with all memory kernels
  (material and boundary) realized as finite state-space recursions, so no
  history is stored.  First order in the step, strictly causal by
  construction.

Both end in the same report code: a SolveReport carrying the residual,
the energy ratio against the solvability margin, a causality margin, the
source padding flag, conditioning info and the same warnings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

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
    "solve_timestep",
    "residual_norm",
    "causality_margins",
]

ENERGY_SLACK = 0.02          # tolerated relative slack on the energy bound
CAUSALITY_SLACK = 1e-6       # tolerated causality margin, relative to ||f||
N_COND_SAMPLES = 8           # frequencies at which solve_frequency estimates conditioning
N_CUTS = 10                  # evenly spaced cut times of the report's causality margin


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
    [p-cells, interior faces].
    """

    grid: WeightedGrid
    sd: SpatialDiscretization
    law: MaterialLaw
    bl: BoundaryLaw
    f: WeightedSignal

    def __post_init__(self) -> None:
        if self.law.dim != 2:
            raise ValueError("material law must be 2x2 (pressure and velocity blocks)")
        for name, mat in (
            ("m0", self.law.m0),
            ("m1 const", self.law.m1.const),
            ("m1 lin", self.law.m1.lin),
        ):
            if np.abs(mat - np.diag(np.diag(mat))).max() > 1e-13 * max(np.abs(mat).max(), 1e-300):
                raise ValueError(f"material {name} must be diagonal for the staggered lift")
        for res in self.law.m1.residues:
            if np.abs(res - np.diag(np.diag(res))).max() > 1e-13 * max(np.abs(res).max(), 1e-300):
                raise ValueError("material m1 residues must be diagonal for the staggered lift")
        if self.f.dim != self.sd.n_reduced:
            raise ValueError(
                f"source dim {self.f.dim} does not match reduced space {self.sd.n_reduced}"
            )
        rho = self.grid.rho
        floor_holo = 1.0 / (2.0 * self.r_effective)
        gamma = coercivity(self.law)
        mu = memory_bound(self.law, max(rho, floor_holo * 1.01))
        floor_margin = mu / gamma
        required = max(floor_holo, floor_margin)
        if rho <= required:
            raise SolverError(
                f"rho={rho} is below the admissible threshold {required:.6g} "
                f"(needs rho > 1/(2r) = {floor_holo:.6g} and rho > mu0/gamma0 = "
                f"{floor_margin:.6g})"
            )

    @property
    def r_effective(self) -> float:
        """Holomorphy radius for the composite problem: min over both laws."""
        return min(self.law.r, self.bl.r)

    def operator(self, s: np.ndarray) -> ReducedOperator:
        """The per-frequency operator (i s + rho) M(z_s) + A(s) on frequencies s."""
        rho = self.grid.rho
        w = 1j * np.asarray(s, dtype=float) + rho
        m = law_symbol(self.law, s, rho)
        flux = self.bl.flux_symbol(s, rho)
        return reduced_operator(self.sd, self.bl, flux, w * m[:, 0, 0], w * m[:, 1, 1])

    def margin_constants(self) -> tuple[float, float, float]:
        """(gamma0, mu0, beta0) for this problem at its operating weight."""
        gamma = coercivity(self.law)
        mu = memory_bound(self.law, self.grid.rho)
        return gamma, mu, self.grid.rho * gamma - mu


def apply_evo_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the full space-time operator (time-derivative material part plus A)."""
    u_hat = forward_transform(u)
    out = prob.operator(u_hat.freqs).matvec(u_hat.values)
    return inverse_transform(SpectralSignal(u_hat.freqs, out, u_hat.rho), u.grid)


def apply_evo_adjoint_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the adjoint space-time operator (conjugate symbols, adjoint A)."""
    u_hat = forward_transform(u)
    out = prob.operator(u_hat.freqs).adjoint().matvec(u_hat.values)
    return inverse_transform(SpectralSignal(u_hat.freqs, out, u_hat.rho), u.grid)


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

    @property
    def n_states(self) -> int:
        return self.poles.size

    def response(self, ws: np.ndarray) -> np.ndarray:
        """Frequency response at Laplace points w; shape (len(ws), d, d)."""
        ws = np.asarray(ws, dtype=complex).reshape(-1)
        out = np.broadcast_to(self.const, (ws.size, self.dim, self.dim)).copy()
        for q, r in zip(self.poles, self.residues):
            out += r[None, :, :] / (ws - q)[:, None, None]
        return out

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
    rho: float
    energy_ratio: float
    causality_margin: float
    max_condition_number: float
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
            f"residual{'_rel' if self.residual_is_relative else '_abs'}          "
            f"{self.residual_rel:.6e}",
            f"energy_ratio          {self.energy_ratio:.17g}",
            f"energy_bound 1/beta0  {1.0 / self.beta0 if self.beta0 > 0 else float('inf'):.17g}",
            f"energy_bound_ok       {self.energy_bound_ok()}",
            f"causality_margin      {self.causality_margin:.6e}",
            f"causality_ok          {self.causality_ok()}",
            f"max_condition_number  {self.max_condition_number:.6e}",
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
    cond: float,
    warnings: list[str],
) -> SolveReport:
    """Residual, constants, energy ratio, causality margin and padding, for either solver."""
    grid = prob.grid
    res, res_rel = residual_norm(prob, u)
    gamma, mu, beta0 = prob.margin_constants()
    f_norm = rho_norm(prob.f)
    energy_ratio = rho_norm(u) / f_norm if f_norm > 0 else 0.0
    cuts = grid.t0 + grid.window_length * (np.arange(1, N_CUTS + 1) / (N_CUTS + 1.0))
    try:
        assert_padded(prob.f, rel_tol=1e-12)
        padded = True
    except ValueError as exc:
        padded = False
        warnings.append(str(exc))
    return SolveReport(
        solution=u,
        residual_rel=res,
        residual_is_relative=res_rel,
        gamma0=gamma,
        mu0=mu,
        beta0=beta0,
        rho=grid.rho,
        energy_ratio=energy_ratio,
        causality_margin=float(causality_margins(prob, u, cuts, beta0).min()),
        max_condition_number=cond,
        wall_time_s=time.perf_counter() - t_start,
        method=method,
        f_padded_ok=padded,
        warnings=warnings,
    )


def _solve_spectral(
    prob: EvoProblem,
) -> tuple[WeightedSignal, ReducedOperator, np.ndarray, np.ndarray]:
    """The bare frequency solve: (u, op, s, pivoted frequency indices).

    All frequencies are solved in one batched Thomas sweep; any frequency
    where a pivot breaks down is re-solved by pivoted banded LU.  A
    frequency the solve cannot invert raises SolverError naming it.
    """
    grid = prob.grid
    s = frequencies_for(grid)
    op = prob.operator(s)
    u_hat, pivoted = op.solve(forward_transform(prob.f).values)
    singular = ~np.isfinite(u_hat).all(axis=1)
    if singular.any():
        raise SolverError(
            f"singular operator at frequency s = {s[np.argmax(singular)]:.9g} "
            "(the solvability margin is not positive, or the boundary "
            "law is inadmissible)"
        )
    u = inverse_transform(SpectralSignal(s, u_hat, grid.rho), grid)
    del u_hat  # the caller's residual recheck allocates several spectra of its own
    return u, op, s, pivoted


def solve_frequency(prob: EvoProblem) -> SolveReport:
    """Exact per-frequency solve (the oracle path).

    The solve itself is _solve_spectral; frequencies that fell back to
    pivoted banded LU are named in the report's warnings.  Condition
    numbers (1-norm) are sampled on N_COND_SAMPLES frequencies, since
    estimating all of them would dominate the run time.
    """
    t_start = time.perf_counter()
    u, op, s, pivoted = _solve_spectral(prob)

    sample_idx = np.unique(np.linspace(0, s.size - 1, N_COND_SAMPLES, dtype=int))
    cond = max(op.cond1(k) for k in sample_idx)

    warnings: list[str] = []
    if pivoted.size:
        warnings.append(
            f"Thomas pivot broke down at {pivoted.size} of {s.size} frequencies in "
            f"s = [{s[pivoted[0]]:.9g}, {s[pivoted[-1]]:.9g}]; those were solved "
            "by pivoted banded LU"
        )
    return _report(prob, u, "frequency", t_start, cond, warnings)


# ---------------------------------------------------------------------------
# causal time stepper


class _ImplicitMemory:
    """Implicit-Euler advance of one diagonal realization on vector inputs."""

    def __init__(self, real: StateSpaceRealization, delta: float, n_points: int, entry: int = 0):
        # scalar (1x1) kernels applied pointwise across n_points unknowns
        self.poles = real.poles
        self.res = real.residues[:, entry, entry] if real.poles.size else np.zeros(0, complex)
        self.const = complex(real.const[entry, entry])
        self.delta = delta
        self.gain = 1.0 / (1.0 - delta * self.poles) if self.poles.size else np.zeros(0, complex)
        self.x = np.zeros((self.poles.size, n_points), dtype=complex)
        # effective instantaneous transfer of the implicit step
        self.transfer = self.const + delta * np.sum(self.res * self.gain) if self.poles.size else self.const

    def history(self) -> np.ndarray:
        """Output contribution of the current states before seeing the new input."""
        if not self.poles.size:
            return np.zeros(self.x.shape[1], dtype=complex)
        return (self.res * self.gain) @ self.x

    def advance(self, u_new: np.ndarray) -> None:
        if self.poles.size:
            self.x = self.gain[:, None] * (self.x + self.delta * u_new[None, :])


def solve_timestep(prob: EvoProblem, dt_sub: float | None = None) -> SolveReport:
    """Causal implicit-Euler march of the same equation.

    dt_sub must divide the grid step (default: equal to it).  The source
    is interpolated linearly to substeps; step n+1 uses data up to t_{n+1}
    only, so the scheme is strictly causal: zero source prefix gives an
    exactly zero solution prefix.
    """
    t_start = time.perf_counter()
    grid = prob.grid
    sd = prob.sd
    nc = sd.n_cells
    rho = grid.rho
    delta = grid.dt if dt_sub is None else float(dt_sub)
    n_sub = round(grid.dt / delta)
    if abs(n_sub * delta - grid.dt) > 1e-12 * grid.dt or n_sub < 1:
        raise ValueError(f"dt_sub={delta} does not divide the grid step {grid.dt}")
    delta = grid.dt / n_sub

    mem_real = realize(prob.law.m1, rho)
    mem_p = _ImplicitMemory(mem_real, delta, nc, entry=0)
    mem_v = _ImplicitMemory(mem_real, delta, nc - 1, entry=1)
    # one state column per boundary end: inputs (n.alpha) * p at the left and right cell
    flux = _ImplicitMemory(realize_flux(prob.bl, rho), delta, 2)
    a0, aL = prob.bl.normal_alpha

    m0_p = complex(prob.law.m0[0, 0])
    m0_v = complex(prob.law.m0[1, 1])

    inv_dx = 1.0 / sd.dx
    # the one-step operator is the reduced operator at the implicit-Euler transfer values
    step_op = reduced_operator(
        sd,
        prob.bl,
        np.asarray([flux.transfer]),
        m0_p / delta + mem_p.transfer,
        m0_v / delta + mem_v.transfer,
    )
    lu = scipy.sparse.linalg.splu(step_op.sparse(0))

    f_vals = prob.f.values
    out = np.zeros((grid.n, sd.n_reduced), dtype=complex)
    u_prev = np.zeros(sd.n_reduced, dtype=complex)  # blocked layout [p, v_int]
    m0_vec = np.concatenate([np.full(nc, m0_p), np.full(nc - 1, m0_v)])

    for step in range(1, (grid.n - 1) * n_sub + 1):
        frac = step / n_sub
        k0 = min(int(np.floor(frac)), grid.n - 1)
        w1 = frac - k0
        f_new = f_vals[k0] if w1 == 0.0 else (1.0 - w1) * f_vals[k0] + w1 * f_vals[min(k0 + 1, grid.n - 1)]

        rhs = f_new + (m0_vec / delta) * u_prev
        rhs[:nc] -= mem_p.history()
        rhs[nc:] -= mem_v.history()
        flux_hist = flux.history()
        rhs[0] -= flux_hist[0] * inv_dx
        rhs[nc - 1] -= flux_hist[1] * inv_dx
        u_new = lu.solve(rhs)

        mem_p.advance(u_new[:nc])
        mem_v.advance(u_new[nc:])
        flux.advance(np.asarray([a0 * u_new[0], aL * u_new[nc - 1]]))
        u_prev = u_new
        if step % n_sub == 0:
            out[step // n_sub] = u_new

    return _report(prob, WeightedSignal(grid, out), "timestep", t_start, float("nan"), [])
