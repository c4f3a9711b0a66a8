"""Solvers for the evolutionary acoustic system.

The equation in the weighted space is, per frequency,

    [w M(1/w) + A(w)] U_hat(s) = f_hat(s)     (EvoProblem.operator_at(w)),

at the grid's points w = i s + rho (WeightedGrid.w), M the diagonal material
law lifted onto the staggered grid and A(w) the reduced spatial operator
with eliminated boundary faces.  Two solvers are provided and cross-checked:

* solve_frequency: exact per-frequency linear solves.  Each frequency's
  matrix (spatial.ReducedOperator) is tridiagonal in the interleaved
  order of the unknowns, so all frequencies are solved in one batched
  Thomas sweep at O(n) each, in the (unknowns, frequencies) array where
  the source spectrum is formed.  This is the trusted oracle.  It checks
  itself with the operator it solved: the spectral residual, in the
  rectangle-rule (Parseval) norm, and an O(n) condition bound.
  solve_boundary_family runs the same kernel once, in frequency blocks,
  for a whole family of boundary laws and corrects each law by a 2x2
  Woodbury update.  When the source and every law are real in time
  (EvoProblem.real_in_time), T(-s) = conj T(s) and U is real, so both
  solve the half spectrum s >= 0 and Nyquist alone, by real FFTs, into a
  float64 U; anything else, every frequency.
  Every spectrum is in FFT order, where the half spectrum is the first
  n // 2 + 1 rows, so its operator is a slice of the grid operator.
* solve_timestep: causal implicit Euler marching.  Each step solves with
  operator_at(1/delta), off the grid's curve, plus an explicit memory history:
  every memory kernel (material and boundary) is realized as poles in w,
  one state each, so no history is stored.  The solution, every pole
  state and the source live in one array, so a step is one weighted sum,
  one solve and one state update, in float64 when the problem is real in
  time and every realized pole is real, in complex otherwise; U is
  float64 when the problem is real in time.  A separable source's
  samples are never built.  First order in the step, strictly causal by
  construction.

Both end in the same report code: a SolveReport carrying the residual,
the energy ratio against the solvability margin, the causality margin
(the smallest over every cut), the source padding flag, the condition
bound, the exact discrete coercivity constant beta0_grid and the same
warnings.  Both report one residual, ||T U_hat - f_hat|| / ||f_hat||,
the rectangle-rule (Parseval) norm of the time-domain residual, summed
by one kernel, ReducedOperator._residual_sq: over the array the frequency
solve solved in, and the transposed view of the stepper's spectrum.

Every matrix is the interleaved tridiagonal of spatial.ReducedOperator,
and the frequency paths run on numpy alone.  scipy.linalg is imported
only by ReducedOperator.factor, the LAPACK LU that the time stepper and
the pivoted fallback share, so a process that never steps in time or
meets a pivot breakdown, which needs a non-positive margin, never loads it.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections.abc import Callable
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
    _spectrum,
    assert_padded,
    forward_transform,
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
# Bytes of the work array of one frequency block of solve_boundary_family: 2 complex
# columns, the source and e_last, of dim rows per frequency; two thirds of the 25 MiB
# that three columns took, so a block keeps its rows.  On scenarios/reflection.cfg
# (dim 1023) that is 533 of the half spectrum's 1025 rows, and its six default laws trace
# a 25.8 MiB peak, against 49.0 MiB in one block; 256 rows: 12.5 MiB, 128 rows: 6.4 MiB.
# Narrower blocks are slower, and 799 rows (25 MiB of two columns) are no faster but
# raise sweep-reflection's peak RSS from 79.9 to 98.6 MiB (CHANGES.md).
BLOCK_BYTES = 2 * (25 * 2**20) // 3


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
    different points.)  The source f is a reduced signal (interleaved
    unknowns).  The constants (gamma0, mu0, beta0) are computed once, at
    construction; the operator at the grid frequencies, real_in_time and
    the source norm f_norm once each, on first use.
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
        """operator_at(grid.w), at every grid frequency, built once."""
        return self.operator_at(self.grid.w)

    def operator_at(self, w: np.ndarray) -> ReducedOperator:
        """w M(1/w) + A(w) at an array of points w: grid.w or a slice of it, or the Euler step's 1/delta."""
        m = law_symbol(self.law, w)
        return reduced_operator(self.sd, self.bl, self.bl.flux_symbol(w), w * m[:, 0, 0], w * m[:, 1, 1])

    def margin_constants(self) -> tuple[float, float, float]:
        """(gamma0, mu0, beta0) for this problem at its operating weight.

        Computed once, by the admissibility check at construction.
        """
        return self._constants


def _apply_spectral(op: ReducedOperator, u_hat: SpectralSignal) -> WeightedSignal:
    """op, at the grid frequencies, applied to the full or half spectrum u_hat, back on its grid.

    A half spectrum meets the first n // 2 + 1 rows of op, a view, and
    returns to a real signal.
    """
    rows = op.take(slice(u_hat.values.shape[0]))
    return inverse_transform(SpectralSignal(u_hat.grid, rows.matvec(u_hat.values), u_hat.half))


def _half_on_grid(prob: EvoProblem, u: WeightedSignal) -> bool:
    """Whether prob's operators act on u's half spectrum; u must live on the problem's grid.

    They do when prob is real_in_time and u has no imaginary part: every
    operator of such a problem, and its adjoint, has T(-s) = conj T(s),
    so T u is real and its half spectrum is all of it.  Otherwise they
    act on every frequency.
    """
    if u.grid != prob.grid:
        raise ValueError(f"signal grid {u.grid} is not the problem's grid {prob.grid}")
    return prob.real_in_time and u.is_real


def apply_evo_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the full space-time operator (time-derivative material part plus A).

    On the half spectrum, into a real signal, when prob is real_in_time
    and u is real (_half_on_grid).  On an even grid the inverse real FFT
    then drops the imaginary part of the phased Nyquist row of T u_hat,
    which the full spectrum keeps: that row stands for both +-pi/dt, and T
    there is complex.
    """
    return _apply_spectral(prob.grid_operator, forward_transform(u, _half_on_grid(prob, u)))


def apply_evo_adjoint_operator(prob: EvoProblem, u: WeightedSignal) -> WeightedSignal:
    """Apply the adjoint space-time operator (conjugate symbols, adjoint A); half as apply_evo_operator."""
    return _apply_spectral(prob.grid_operator.adjoint(), forward_transform(u, _half_on_grid(prob, u)))


def residual_norm(prob: EvoProblem, u: WeightedSignal) -> tuple[float, bool]:
    """||T U_hat - f_hat|| / ||f_hat||, the rectangle-rule (Parseval) norm; absolute if f = 0.

    What _solve_spectral reports for its own solution, by its kernel, over
    the transposed view of u's spectrum: the half spectrum when prob is
    real_in_time and u is real, whose Parseval sum keeps all of its s = 0
    and Nyquist rows.  Returns (value, is_relative).
    """
    grid, half = prob.grid, _half_on_grid(prob, u)
    weight = _parseval_weights(grid, half)
    f_block, f_norm = _source_spectrum(prob, half, grid.freqs[: weight.size], weight)
    op = prob.grid_operator.take(slice(weight.size))
    res_sq = op._residual_sq(_spectrum(u, half).T[:, None], f_block(0, weight.size))[0]
    return _relative(float(np.sqrt(weight @ res_sq)), f_norm)


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
    wall_admissible: bool  # min Re flux >= 0: the energy bound 1/beta0 holds for such walls alone
    f_padded_ok: bool = True
    warnings: list[str] = field(default_factory=list)
    half_spectrum: bool = False

    def energy_bound_ok(self) -> bool:
        if self.beta0 <= 0 or not self.wall_admissible:
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
            "residual_norm         spectral (rectangle rule)",
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
    return _cut_margins(prob, u.sample_energy(), beta0)


def _cut_margins(prob: EvoProblem, energy: np.ndarray, beta0: float) -> np.ndarray:
    """causality_margins from U's per-sample energies, u.sample_energy()."""
    wq = prob.grid.weights()
    energy_u = np.cumsum(wq * energy)
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
    A boundary law with min Re flux < 0 is warned of, and fails the
    energy bound, which holds for admissible walls alone.
    """
    grid = prob.grid
    bound, margin = op.condition_bound(), op.margin()
    peak, lowest = _first_extreme(-bound, s), _first_extreme(margin, s)
    gamma, mu, beta0 = prob.margin_constants()
    energy = u.sample_energy()  # rho_norm(u) is sqrt(weights @ energy)
    energy_ratio = float(np.sqrt(grid.weights() @ energy)) / prob.f_norm if prob.f_norm > 0 else 0.0
    try:
        assert_padded(prob.f)
        padded = True
    except ValueError as exc:
        padded = False
        warnings.append(str(exc))
    flux = prob.bl.min_real_flux(grid.rho)
    if flux < 0:
        warnings.append(
            f"the boundary law's min Re flux is {flux:.6g} < 0 (an inadmissible wall): "
            "the energy bound 1/beta0 does not apply"
        )
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
        causality_margin=float(_cut_margins(prob, energy, beta0).min()),
        max_condition_bound=float(bound[peak]),
        condition_peak_s=float(s[peak]),
        wall_time_s=time.perf_counter() - t_start,
        method=method,
        wall_admissible=not flux < 0,
        f_padded_ok=padded,
        warnings=warnings,
        half_spectrum=half_spectrum,
    )


def _parseval_weights(grid: WeightedGrid, half: bool) -> np.ndarray:
    """The Parseval weight of each row a solve runs on, the first weight.size of grid.freqs.

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


def _relative(norm: float, f_norm: float) -> tuple[float, bool]:
    """(norm / f_norm, True), or (norm, False) when the source is zero."""
    return (norm / f_norm, True) if f_norm > 0 else (norm, False)


def _source_spectrum(
    prob: EvoProblem, half: bool, s: np.ndarray, weight: np.ndarray
) -> tuple[Callable[[int, int], Callable[..., np.ndarray]], float]:
    """(block, f_norm): block(lo, hi) is the source of solved rows lo to hi, f_norm f_hat's Parseval norm.

    A source(a, b, out=None) is unknowns a to b of f_hat's transpose, the
    layout of ReducedOperator.solve, written into out if given.  A
    separable source w(t) g keeps only w_hat, the transform of w (it acts
    on time alone), and forms w_hat[None, lo:hi] * g[a:b, None] (Re g with
    half), the bits of w_hat[:, None] * g; the whole f_hat is never built:
    f_norm = ||g|| sqrt(weight @ |w_hat|^2).  A sampled source is
    transformed whole, and copies a transposed slice.  SolverError names
    the first frequency where f_hat is not finite; f_hat is searched only
    when the norm is not finite, which such a value makes it.
    """
    f = prob.f
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        if f.profiles is None:
            f_hat = forward_transform(f, half).values
            f_norm = _parseval_norm(f_hat, weight)

            def block(lo: int, hi: int) -> Callable[..., np.ndarray]:  # np.positive copies into out
                return lambda a, b, out=None: np.positive(f_hat[lo:hi, a:b].T, out=out)
        else:
            w, g = f.profiles
            w_hat = forward_transform(WeightedSignal(prob.grid, w), half).values[:, 0]
            g = g.real if half else g
            f_norm = float(np.linalg.norm(g) * np.sqrt(weight @ (w_hat.real**2 + w_hat.imag**2)))

            def block(lo: int, hi: int) -> Callable[..., np.ndarray]:
                return lambda a, b, out=None: np.multiply(w_hat[None, lo:hi], g[a:b, None], out=out)

        rows = block(0, weight.size)
        bad = np.zeros(1, bool) if np.isfinite(f_norm) else ~np.isfinite(rows(0, f.dim)).all(axis=0)
    if bad.any():
        raise SolverError(
            f"the source spectrum is not finite at frequency s = {s[np.argmax(bad)]:.9g}: "
            "the source overflows its weighted transform"
        )
    return block, f_norm


def _solve_spectral(
    prob: EvoProblem,
) -> tuple[WeightedSignal, ReducedOperator, np.ndarray, np.ndarray, tuple[float, bool]]:
    """The bare frequency solve: (u, op, s, pivoted frequency indices, residual).

    The rows of _parseval_weights are solved by ReducedOperator.solve in
    one batched Thomas sweep, in the (dim, n_freq) array where the source
    is formed; U_hat is its transposed view.  A frequency of non-positive
    margin where a pivot breaks down is re-solved by the pivoted LU of
    ReducedOperator.factor, and reported with its mirror on the half
    spectrum.  A frequency the solve cannot invert, or where the source
    spectrum is not finite, raises SolverError naming it.  The residual,
    ||op U_hat - f_hat|| / ||f_hat|| (absolute if f = 0) in the Parseval
    norm, is summed by ReducedOperator._residual_sq over what solve() returns.
    """
    grid, half = prob.grid, prob.real_in_time
    s, op = grid.freqs, prob.grid_operator
    weight = _parseval_weights(grid, half)
    solved = op.take(slice(weight.size))
    f_block, f_norm = _source_spectrum(prob, half, s, weight)
    source = f_block(0, weight.size)
    u_hat, pivoted = solved.solve(source)
    singular = ~np.isfinite(u_hat).all(axis=1)
    if singular.any():
        raise SolverError(
            f"singular operator at frequency s = {s[np.argmax(singular)]:.9g} "
            "(the solvability margin is not positive, or the boundary "
            "law is inadmissible)"
        )
    r_norm = float(np.sqrt(weight @ solved._residual_sq(u_hat.T[:, None], source)[0]))
    del f_block, source  # a sampled source's f_hat is not held through the inverse transform
    residual = _relative(r_norm, f_norm)
    u = inverse_transform(SpectralSignal(grid, u_hat, half))
    return u, op, s, np.union1d(pivoted, -pivoted % grid.n if half else pivoted), residual


def solve_frequency(prob: EvoProblem) -> SolveReport:
    """Exact per-frequency solve (the oracle path).

    The solve and its spectral residual are _solve_spectral; the report's
    warnings name frequencies of non-positive margin that fell back to the
    pivoted LU; max_condition_bound bounds every 2-norm condition number.
    """
    t_start = time.perf_counter()
    u, op, s, pivoted, residual = _solve_spectral(prob)
    warnings: list[str] = []
    if pivoted.size:
        warnings.append(
            f"the margin was not positive and the Thomas pivot broke down at {pivoted.size} of "
            f"{s.size} frequencies in s = [{s[pivoted].min():.9g}, {s[pivoted].max():.9g}]; "
            "those were solved by pivoted tridiagonal LU"
        )
    return _report(prob, u, "frequency", t_start, residual, op, s, warnings, prob.real_in_time)


def solve_boundary_family(
    prob: EvoProblem, laws: list[BoundaryLaw], rows: list[int]
) -> list[tuple[WeightedSignal, float]]:
    """Solve prob once per boundary law: (the given rows of the solution, residual bound).

    A law adds U D U^T to the Neumann operator A0, U = [e_0, e_last] and
    D = diag(corner0, cornerL).  One Thomas sweep of A0 gives y = A0^-1 f,
    and its pivots give Z = A0^-1 U: A0^-1 e_last as their running
    product, A0^-1 e_0 as its mirror (ReducedOperator._solve_with_corners).
    Each law's solution is x = y - Z beta, with the 2x2 system
    (I + D U^T Z) beta = D U^T y per frequency.  With r_f = A0 y - f and
    R_X = A0 Z - U, x has residual r_f - R_X beta - U rho2 exactly, rho2
    the 2x2 residual, so the l2 sum over frequencies of ||r_f|| +
    ||R_X||_F ||beta|| + ||rho2||, over ||f_hat||, bounds the relative
    residual in the rectangle-rule (Parseval) norm (absolute if f = 0).
    R_X's two columns mirror each other row for row, so ||R_X||_F^2 is
    twice the squared residual of the e_last column.
    When every law's problem is real_in_time, all of this runs on the half
    spectrum, with the Parseval weights of _solve_spectral.

    Every frequency is independent, so the elimination walks the solved
    rows in blocks, as wide as BLOCK_BYTES allows, through one reused work
    array; only the probe and corner rows and the residual sums of each
    block are kept.  Each block's source is formed in that array, in the
    kernel's layout (_source_spectrum), so a separable source's whole
    spectrum is never built.  No laws, no transform and no solve: [].
    """
    if not laws:
        return []
    grid = prob.grid
    law_probs = [dataclasses.replace(prob, bl=bl) for bl in laws]  # with EvoProblem's checks
    half = all(p.real_in_time for p in law_probs)
    weight = _parseval_weights(grid, half)
    s, w = grid.freqs[: weight.size], grid.w[: weight.size]
    f_block, f_norm = _source_spectrum(prob, half, s, weight)
    zero = np.zeros(s.size, dtype=complex)
    neumann = dataclasses.replace(prob.operator_at(w), corner0=zero, cornerL=zero)
    picks = [*rows, 0, neumann.dim - 1]
    at_rows = np.empty((len(picks), 3, s.size), dtype=complex)
    res_sq = np.empty((2, s.size))
    width = max(1, BLOCK_BYTES // (2 * neumann.dim * 16))
    work = np.empty((neumann.dim, 2, min(width, s.size)), dtype=complex)
    for lo in range(0, s.size, width):
        hi = min(lo + width, s.size)
        block = neumann.take(slice(lo, hi))
        at_rows[..., lo:hi], res_sq[:, lo:hi] = block._solve_with_corners(
            f_block(lo, hi), picks, work[..., : hi - lo]
        )
    del f_block, work
    singular = ~np.isfinite(res_sq).all(axis=0)
    if singular.any():  # finite solved rows: only the squares of the residual overflowed
        k = int(np.argmax(singular))
        finite = np.isfinite(at_rows[..., k]).all()
        cause = "the residual norm overflowed" if finite else "singular Neumann operator"
        raise SolverError(f"{cause} at frequency s = {s[k]:.9g}")
    probe, corners = at_rows[:-2], at_rows[-2:]
    res_f, res_x = np.sqrt(res_sq[0]), np.sqrt(2.0 * res_sq[1])  # R_X's columns mirror each other

    out = []
    for j, law_prob in enumerate(law_probs):
        law_op = law_prob.operator_at(w)
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
        bound = _relative(_parseval_norm(per_freq[:, None], weight), f_norm)[0]
        x = probe[:, 0] - np.einsum("rjk,jk->rk", probe[:, 1:], beta)
        out.append((inverse_transform(SpectralSignal(grid, x.T, half)), bound))
    return out


# ---------------------------------------------------------------------------
# causal time stepper


def solve_timestep(prob: EvoProblem) -> SolveReport:
    """Causal implicit-Euler march of the same equation, one step per grid sample.

    The step matrix is operator_at the point w = 1/delta, delta the grid
    step: implicit Euler replaces the inverse derivative z by delta.
    It is factored once by ReducedOperator.factor (LAPACK, via
    scipy.linalg).  Even unknowns are pressures, odd ones velocities, and
    the boundary cells are the first and last.  The memory kernels
    (material and boundary), realized as poles in w, add an explicit
    history term to each step's right-hand side.

    The march carries one state array z of shape (2 + modes, dim): row 0
    is the last step's x, the last row the source, every other row the
    implicit-Euler state of one pole, over delta, for every unknown.
    Material poles act on every unknown; a boundary-flux pole only on the
    two end cells, where it enters as (n . alpha) / dx times the flux
    response, so its row of coef is zero elsewhere.  A separable source
    w(t) g holds g in its row (Re g in a real march), and its row of coef
    takes w[k] at step k, so the source's (n, dim) samples are never
    built; a sampled source's row takes f[k], at weight 1.  Each step's
    right-hand side is sum_r coef[r] z[r], the memory terms summed first
    and the source last, formed and solved in place in z[0], so a step
    allocates nothing unless a real step matrix meets a complex march.
    When the problem is real_in_time and every realized pole, gain and
    coefficient is real, the march runs in float64 with a real LU;
    otherwise in complex.  U is float64 for a real_in_time problem, so a
    complex march of conjugate pole pairs keeps only its real part, Im U
    being rounding.  Step k uses data up to t_k only, so the scheme is strictly
    causal: the march starts at the source's first nonzero sample, or
    t_1, and the rows before it are +0.0.
    """
    t_start = time.perf_counter()
    grid, sd = prob.grid, prob.sd
    delta = grid.dt
    if not delta < 2.0 * prob.r_effective:
        raise SolverError(
            f"time step {delta:.6g} is not below 2r = {2.0 * prob.r_effective:.6g}: implicit "
            "Euler evaluates the kernels at z = dt, outside their holomorphy ball"
        )

    step = prob.operator_at(np.full(1, 1.0 / delta, dtype=complex))
    dim = step.dim
    block = np.arange(dim) % 2  # material block of each unknown: 0 pressure, 1 velocity
    mem = realize(prob.law.m1, grid.rho)
    flux = realize_flux(prob.bl, grid.rho)
    poles = np.concatenate([mem.poles, flux.poles])
    residues = np.zeros((poles.size, dim), dtype=complex)
    residues[: mem.n_poles] = mem.residues[:, block, block]
    residues[mem.n_poles :, [0, -1]] = flux.residues[:, 0] * prob.bl.normal_alpha / sd.dx
    gain = 1.0 / (1.0 - delta * poles[:, None])
    m0 = np.diag(prob.law.m0)[None, block] / delta
    coef = np.concatenate([m0, -delta * gain * residues, np.ones((1, dim))])  # the last row weighs the source
    real = prob.real_in_time and not any(a.imag.any() for a in (poles, gain, coef))
    if real:
        coef, gain = coef.real.copy(), gain.real

    solve = step.factor(0)
    z = np.zeros(coef.shape, dtype=coef.dtype)
    x, states, terms = z[0], z[1:-1], np.empty_like(z)
    if prob.f.profiles is None:  # samples: the source row takes f[k], at weight 1
        fed, feed = z[-1], prob.f.values.real if real else prob.f.values
    else:  # w(t) g: the source row holds g, and its weight takes w[k]
        w, g = prob.f.profiles
        z[-1] = g.real if real else g
        fed, feed = coef[-1], w
    gain = np.broadcast_to(gain, states.shape).copy()
    out = np.zeros((grid.n, dim), dtype=coef.dtype)
    source = np.flatnonzero(prob.f.sample_peak())
    for k in range(max(1, source[0]) if source.size else grid.n, grid.n):
        fed[...] = feed[k]
        np.multiply(coef, z, out=terms)
        np.add.reduce(terms, axis=0, out=x)  # the memory terms, then the source
        solve(x)
        out[k] = x
        states += x
        states *= gain

    u = WeightedSignal(grid, out.real if prob.real_in_time else out)
    del out  # a complex march's buffer is not held through the residual
    nan = np.full(1, np.nan)  # the step matrix has no frequency
    return _report(prob, u, "timestep", t_start, residual_norm(prob, u), step, nan, [])
