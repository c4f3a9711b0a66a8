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
  boundary laws and corrects each law by a 2x2 Woodbury update.  When
  the source and every law are real in time (EvoProblem.real_in_time),
  T(-s) = conj T(s) and U is real, so both solve the half spectrum
  s >= 0 and Nyquist alone, by real FFTs, into a float64 U; anything
  else, every frequency.
  Every spectrum is in FFT order, where the half spectrum is the first
  n // 2 + 1 rows, so its operator is a slice of the grid operator.
* solve_timestep: causal implicit Euler marching.  Each step solves with
  the frequency operator at w = 1/delta plus an explicit memory history:
  every memory kernel (material and boundary) is realized as poles in w,
  one state each, so no history is stored.  The solution and every pole
  state live in one array, so a step is one weighted sum, one solve and
  one state update, in float64 when the problem is real in time and
  every realized pole is real, in complex otherwise; U is float64 when
  the problem is real in time.  First order in the step, strictly causal
  by construction.

Both end in the same report code: a SolveReport carrying the residual,
the energy ratio against the solvability margin, the causality margin
(the smallest over every cut), the source padding flag, the condition
bound, the exact discrete coercivity constant beta0_grid and the same
warnings.  The stepper's residual is the time-domain one (trapezoid
norm), the only form that measures its first-order defect; residual_norm
applies the operator for it on the half spectrum when the problem and
the solution are real, and then subtracts and sums in float64.

Every matrix is the interleaved tridiagonal of spatial.ReducedOperator,
and the frequency paths run on numpy alone.  scipy.linalg is imported
only by ReducedOperator.factor, the LAPACK LU that the time stepper and
the pivoted fallback share, so a process that never steps in time or
meets a pivot breakdown never loads it.
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
    computed once, at construction; the operator at the grid frequencies,
    real_in_time and the source norm f_norm once each, on first use.
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
        needs = f"needs rho > 1/(2r) = {floor_holo:.6g} and rho > mu0/gamma0"
        if not rho > floor_holo:  # mu0 is defined only above the holomorphy floor
            raise SolverError(f"rho={rho} is below the admissible threshold {floor_holo:.6g} ({needs})")
        gamma, mu = coercivity(self.law), memory_bound(self.law, rho)
        if not rho > mu / gamma:
            floor = f"{mu / gamma:.6g}"
            raise SolverError(f"rho={rho} is below the admissible threshold {floor} ({needs} = {floor})")
        object.__setattr__(self, "_constants", (gamma, mu, rho * gamma - mu))

    @property
    def r_effective(self) -> float:
        """Holomorphy radius for the composite problem: min over both laws."""
        return min(self.law.r, self.bl.r)

    def operator(self, s: np.ndarray) -> ReducedOperator:
        """The per-frequency operator (i s + rho) M(z_s) + A(s) on frequencies s."""
        return self._operator_at(s, self.grid.rho)

    @functools.cached_property
    def real_in_time(self) -> bool:
        """Whether U is real: a real source, and laws whose kernels are real in time.

        Then T(-s) = conj T(s) at every frequency, so the frequency
        solvers need only the half spectrum s >= 0.
        """
        real_data = self.f.is_real and not self.law.m0.imag.any()
        return real_data and self.law.m1.is_real() and self.bl.g.is_real()

    @functools.cached_property
    def f_norm(self) -> float:
        """rho_norm(f), the source's weighted (trapezoid) norm, computed once."""
        return rho_norm(self.f)

    @functools.cached_property
    def grid_operator(self) -> ReducedOperator:
        """operator(s) at the grid frequencies s = frequencies_for(grid), built once."""
        return self.operator(frequencies_for(self.grid))

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


def _apply_spectral(op: ReducedOperator, u_hat: SpectralSignal) -> WeightedSignal:
    """op applied to the spectrum u_hat, transformed back onto its grid."""
    return inverse_transform(SpectralSignal(u_hat.grid, op.matvec(u_hat.values)))


def _on_problem_grid(prob: EvoProblem, u: WeightedSignal, half: bool = False) -> SpectralSignal:
    """The spectrum of u, which must live on the problem's grid; with half, its half spectrum."""
    if u.grid != prob.grid:
        raise ValueError(f"signal grid {u.grid} is not the problem's grid {prob.grid}")
    return forward_transform(u, half)


def apply_evo_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the full space-time operator (time-derivative material part plus A)."""
    return _apply_spectral(prob.grid_operator, _on_problem_grid(prob, u))


def apply_evo_adjoint_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the adjoint space-time operator (conjugate symbols, adjoint A)."""
    return _apply_spectral(prob.grid_operator.adjoint(), _on_problem_grid(prob, u))


def residual_norm(prob: EvoProblem, u: WeightedSignal) -> tuple[float, bool]:
    """Relative residual of the operator equation, in the trapezoid norm; absolute if f = 0.

    The operator is applied as apply_evo_operator does, but on the half
    spectrum, as solve_frequency solves, when the problem is real_in_time
    and u has no imaginary part.  Each spectrum is freed as soon as it
    is used.  Returns (value, is_relative).
    """
    grid = prob.grid
    half = prob.real_in_time and u.is_real
    u_hat = _on_problem_grid(prob, u, half)
    op = prob.grid_operator.take(slice(u_hat.values.shape[0]))
    r_hat = SpectralSignal(grid, op.matvec(u_hat.values), half)
    del u_hat
    r = inverse_transform(r_hat).values
    del r_hat
    norm = _parseval_norm(r - prob.f.values, grid.weights())  # with trapezoid weights
    if prob.f_norm == 0.0:
        return norm, False
    return norm / prob.f_norm, True


# ---------------------------------------------------------------------------
# realizations: each kernel as poles and residues in w = 1/z


def realize(kernel: RationalMatrixFunction, rho: float) -> RationalMatrixFunction:
    """The symbol kernel(1/w) as a function of w: const plus simple poles.

    Substituting z = 1/w into the partial fractions gives

        kernel(1/w) = [const - sum res_m / p_m]  +  lin / (w - 0)
                      + sum (-res_m / p_m^2) / (w - 1/p_m),

    which is proper (bounded as w -> inf), so it is always realizable;
    poles 1/p_m inherit real part < 1/(2r) < rho from holomorphy.  A pole
    at or above rho would be unstable in the weighted space: SolverError.
    """
    poles: list[complex] = []
    residues: list[np.ndarray] = []
    const = kernel.const.copy()
    if np.abs(kernel.lin).max(initial=0.0) > 0.0:
        poles.append(0.0)
        residues.append(kernel.lin)
    for p, r in zip(kernel.poles, kernel.residues):
        if abs(p) < 1e-300:
            raise ValueError("kernel pole at z = 0 cannot be transformed")
        const -= r / p
        poles.append(1.0 / p)
        residues.append(-r / p**2)
    real = RationalMatrixFunction(const, np.zeros_like(const), poles, residues)
    if real.n_poles and real.poles.real.max() >= rho:
        raise SolverError(
            f"realization unstable in the weighted space: pole real part "
            f"{real.poles.real.max():.6g} >= rho = {rho:.6g}"
        )
    return real


def realize_flux(bl: BoundaryLaw, rho: float) -> RationalMatrixFunction:
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
    half_spectrum: bool = False

    def energy_bound_ok(self) -> bool:
        if self.beta0 <= 0:
            return False
        return self.energy_ratio <= (1.0 / self.beta0) * (1.0 + ENERGY_SLACK)

    def causality_ok(self) -> bool:
        return self.causality_margin >= -CAUSALITY_SLACK

    def bounds_ok(self) -> bool:
        return self.energy_bound_ok() and self.causality_ok()

    def to_text(self) -> str:
        spectrum = "half (real source and laws)" if self.half_spectrum else "full"
        lines = [
            f"method                {self.method}",
            f"spectrum              {spectrum}",
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


def causality_margins(prob: EvoProblem, u: WeightedSignal, beta0: float) -> np.ndarray:
    """(||chi_a f|| - beta0 ||chi_a U||) / ||f|| at every grid time a = t_j (0 if f = 0).

    A sharp cutoff just truncates the quadrature sum, so the cutoff norms
    at every cut are two prefix sums of the per-sample weighted energies;
    a cut between two samples equals the cut at the earlier one.
    """
    wq = prob.grid.weights()
    energy_u = np.cumsum(wq * u.sample_energy())
    energy_f = np.cumsum(wq * prob.f.sample_energy())
    f_norm = float(np.sqrt(energy_f[-1]))
    if f_norm == 0.0:
        return np.zeros(prob.grid.n)
    return (np.sqrt(energy_f) - beta0 * np.sqrt(energy_u)) / f_norm


def _first_extreme(values: np.ndarray, s: np.ndarray) -> int:
    """The index of the smallest of values, the one at the smallest s among ties."""
    return int(np.lexsort((s, values))[0])


def _report(
    prob: EvoProblem,
    u: WeightedSignal,
    method: str,
    t_start: float,
    residual: tuple[float, bool],
    op: ReducedOperator,
    s: np.ndarray,
    warnings: list[str],
    half_spectrum: bool = False,
) -> SolveReport:
    """The report of either solver; residual is its (value, is_relative), op at frequencies s.

    beta0_grid is the smallest op.margin() over s: the exact coercivity
    constant of the discrete problem, to set against beta0.  It and the
    largest condition bound are reported at the smallest s where they are
    reached, and the causality margin is the smallest over every cut.
    """
    grid = prob.grid
    bound, margin = op.condition_bound(), op.margin()
    peak, lowest = _first_extreme(-bound, s), _first_extreme(margin, s)
    gamma, mu, beta0 = prob.margin_constants()
    energy_ratio = rho_norm(u) / prob.f_norm if prob.f_norm > 0 else 0.0
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
        causality_margin=float(causality_margins(prob, u, beta0).min()),
        max_condition_bound=float(bound[peak]),
        condition_peak_s=float(s[peak]),
        wall_time_s=time.perf_counter() - t_start,
        method=method,
        f_padded_ok=padded,
        warnings=warnings,
        half_spectrum=half_spectrum,
    )


def _parseval_weights(grid: WeightedGrid, half: bool) -> np.ndarray:
    """The Parseval weight of each row a solve runs on, the first weight.size of frequencies_for(grid).

    All n rows, or the half spectrum's first n // 2 + 1.  A half-spectrum
    row k also stands for its mirror -s, at row -k mod n, so it has
    weight 2 in the Parseval sum, except s = 0 and Nyquist, which are
    their own mirrors; a full-spectrum row stands for itself alone.
    """
    weight = np.ones(grid.n // 2 + 1 if half else grid.n)
    if half:
        weight[1 : (grid.n + 1) // 2] = 2.0
    return weight


def _parseval_norm(x: np.ndarray, weight: np.ndarray) -> float:
    """sqrt(sum_k weight[k] ||x[k]||^2) over the rows of x, with no temporary copy of x."""
    v = x.view(np.float64)
    return float(np.sqrt(weight @ np.einsum("ij,ij->i", v, v)))


def _source_spectrum(prob: EvoProblem, half: bool, s: np.ndarray, weight: np.ndarray):
    """(f_hat, its Parseval norm) on the solved rows, at frequencies s.

    SolverError names the first frequency where f_hat is not finite; f_hat
    is searched only when the norm is not finite, which such a value makes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        f_hat = forward_transform(prob.f, half).values
        f_norm = _parseval_norm(f_hat, weight)
    bad = np.zeros(1, bool) if np.isfinite(f_norm) else ~np.isfinite(f_hat).all(axis=1)
    if bad.any():
        raise SolverError(
            f"the source spectrum is not finite at frequency s = {s[np.argmax(bad)]:.9g}: "
            "the source overflows its weighted transform"
        )
    return f_hat, f_norm


def _solve_spectral(
    prob: EvoProblem,
) -> tuple[WeightedSignal, ReducedOperator, np.ndarray, np.ndarray, tuple[float, bool]]:
    """The bare frequency solve: (u, op, s, pivoted frequency indices, residual).

    The rows of _parseval_weights are solved in one batched Thomas sweep; any
    frequency where a pivot breaks down is re-solved by the pivoted LU of
    ReducedOperator.factor, and reported with its mirror on the half
    spectrum.  A frequency the solve cannot invert, or where the source
    spectrum is not finite, raises SolverError naming it.  The residual is
    ||op U_hat - f_hat|| / ||f_hat|| (absolute if f = 0), the
    rectangle-rule (Parseval) norm of the time-domain residual.
    """
    grid, half = prob.grid, prob.real_in_time
    s, op = frequencies_for(grid), prob.grid_operator
    weight = _parseval_weights(grid, half)
    solved = op.take(slice(weight.size))
    f_hat, f_norm = _source_spectrum(prob, half, s, weight)
    u_hat, pivoted = solved.solve(f_hat)
    singular = ~np.isfinite(u_hat).all(axis=1)
    if singular.any():
        raise SolverError(
            f"singular operator at frequency s = {s[np.argmax(singular)]:.9g} "
            "(the solvability margin is not positive, or the boundary "
            "law is inadmissible)"
        )
    r_hat = solved.matvec(u_hat)
    r_hat -= f_hat
    r_norm = _parseval_norm(r_hat, weight)
    del f_hat, r_hat  # two fewer spectra held through the inverse transform
    residual = (r_norm / f_norm, True) if f_norm > 0 else (r_norm, False)
    u = inverse_transform(SpectralSignal(grid, u_hat, half))
    return u, op, s, np.union1d(pivoted, -pivoted % grid.n if half else pivoted), residual


def solve_frequency(prob: EvoProblem) -> SolveReport:
    """Exact per-frequency solve (the oracle path).

    The solve and its spectral residual are _solve_spectral; the report's
    warnings name frequencies that fell back to the pivoted LU, and
    max_condition_bound bounds every frequency's 2-norm condition number.
    """
    t_start = time.perf_counter()
    u, op, s, pivoted, residual = _solve_spectral(prob)
    warnings: list[str] = []
    if pivoted.size:
        warnings.append(
            f"Thomas pivot broke down at {pivoted.size} of {s.size} frequencies in "
            f"s = [{s[pivoted].min():.9g}, {s[pivoted].max():.9g}]; those were solved "
            "by pivoted tridiagonal LU"
        )
    return _report(prob, u, "frequency", t_start, residual, op, s, warnings, prob.real_in_time)


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
    When every law's problem is real_in_time, all of this runs on the half
    spectrum, with the Parseval weights of _solve_spectral.
    """
    grid, nc = prob.grid, prob.sd.n_cells
    law_probs = [dataclasses.replace(prob, bl=bl) for bl in laws]  # with EvoProblem's checks
    half = all(p.real_in_time for p in law_probs)
    weight = _parseval_weights(grid, half)
    s = frequencies_for(grid)[: weight.size]
    f_hat, f_norm = _source_spectrum(prob, half, s, weight)
    zero = np.zeros(s.size, dtype=complex)
    neumann = dataclasses.replace(prob.operator(s), corner0=zero, cornerL=zero)
    at_rows, res_sq = neumann._solve_with_corners(f_hat, [*rows, 0, nc - 1])
    del f_hat
    singular = ~np.isfinite(res_sq).all(axis=0)
    if singular.any():
        raise SolverError(
            f"singular Neumann operator at frequency s = {s[np.argmax(singular)]:.9g}"
        )
    probe, corners = at_rows[:-2], at_rows[-2:]
    res_f, res_x = np.sqrt(res_sq[0]), np.sqrt(res_sq[1] + res_sq[2])

    out = []
    for j, law_prob in enumerate(law_probs):
        law_op = law_prob.operator(s)
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
        bound = _parseval_norm(per_freq[:, None], weight) / (f_norm if f_norm > 0 else 1.0)
        x = probe[:, 0] - np.einsum("rjk,jk->rk", probe[:, 1:], beta)
        out.append((inverse_transform(SpectralSignal(grid, x.T, half)), bound))
    return out


# ---------------------------------------------------------------------------
# causal time stepper


def solve_timestep(prob: EvoProblem) -> SolveReport:
    """Causal implicit-Euler march of the same equation, one step per grid sample.

    The step matrix is the frequency operator at w = 1/delta, delta the
    grid step: implicit Euler replaces the inverse derivative z by delta.
    It is factored once by ReducedOperator.factor (LAPACK, via
    scipy.linalg) and the march runs in its interleaved order: even
    unknowns are pressures, odd ones velocities, and the boundary cells
    are the first and last.  The memory kernels (material and boundary),
    realized as poles in w, add an explicit history term to each step's
    right-hand side.

    The march carries one state array z of shape (1 + modes, dim): row 0
    is the last step's x, every other row the implicit-Euler state of one
    pole, over delta, for every unknown.  Material poles act on every
    unknown; a boundary-flux pole only on the two end cells, where it
    enters as (n . alpha) / dx times the flux response, so its row of coef
    is zero elsewhere.  Each step's right-hand side is sum_r coef[r] z[r]
    plus f[k], solved in place, so a step allocates nothing unless a real
    step matrix meets a complex march.  When the problem is
    real_in_time and every realized pole, gain and coefficient is real,
    the march runs in float64 with a real LU; otherwise in complex.  U is
    float64 for a real_in_time problem, so a complex march of conjugate
    pole pairs keeps only its real part, Im U being rounding.  Step
    k uses data up to t_k only, so the scheme is strictly causal: a zero
    source prefix gives an exactly zero solution prefix, in either
    arithmetic.
    """
    t_start = time.perf_counter()
    grid, sd = prob.grid, prob.sd
    delta = grid.dt
    if not delta < 2.0 * prob.r_effective:
        raise SolverError(
            f"time step {delta:.6g} is not below 2r = {2.0 * prob.r_effective:.6g}: implicit "
            "Euler evaluates the kernels at z = dt, outside their holomorphy ball"
        )

    step = prob._operator_at(np.zeros(1), 1.0 / delta)
    nc, dim = sd.n_cells, step.dim
    block = np.arange(dim) % 2  # material block of each unknown: 0 pressure, 1 velocity
    mem = realize(prob.law.m1, grid.rho)
    flux = realize_flux(prob.bl, grid.rho)
    poles = np.concatenate([mem.poles, flux.poles])
    residues = np.zeros((poles.size, dim), dtype=complex)
    residues[: mem.n_poles] = mem.residues[:, block, block]
    residues[mem.n_poles :, [0, -1]] = flux.residues[:, 0] * prob.bl.normal_alpha / sd.dx
    gain = 1.0 / (1.0 - delta * poles[:, None])
    coef = np.concatenate([np.diag(prob.law.m0)[None, block] / delta, -delta * gain * residues])
    f = prob.f.values
    if prob.real_in_time and not any(a.imag.any() for a in (poles, gain, coef)):
        coef, gain, f = coef.real.copy(), gain.real, f.real

    solve = step.factor(0)
    z = np.zeros(coef.shape, dtype=coef.dtype)
    states, rhs = z[1:], np.empty(dim, dtype=coef.dtype)
    out = np.zeros((grid.n, sd.n_reduced), dtype=coef.dtype)
    for k in range(1, grid.n):
        np.einsum("rj,rj->j", coef, z, out=rhs)
        rhs[0::2] += f[k, :nc]
        rhs[1::2] += f[k, nc:]
        x = solve(rhs)
        out[k, :nc] = x[0::2]
        out[k, nc:] = x[1::2]
        z[0] = x
        states += x
        states *= gain

    u = WeightedSignal(grid, out.real if prob.real_in_time else out)
    nan = np.full(1, np.nan)  # the step matrix has no frequency
    return _report(prob, u, "timestep", t_start, residual_norm(prob, u), step, nan, [])
