"""Executable numerical checks for every estimate the solver relies on.

Each guaranteed property (coercivity with a time cutoff, its translation
invariance, the causal estimate for the solution operator, the
projection/adjoint interchange, the boundary sign condition) becomes a
check producing a margin: nonnegative means the property held, and a
check passes when the margin stays above minus a tolerance that scales
like C * (dx^2 + dt + exp(-rho * pad)) with a per-check constant.

Checks are deterministic given a seed.  Randomized ones report their
worst three trials so failures can be reproduced, and each has at least
one engineered failing scenario in the test suite: a check that cannot
fail verifies nothing.

When the problem is real in time (EvoProblem.real_in_time) the trial
fields are real and drawn on the half spectrum, and the operator and its
adjoint act on them there, as the solvers do; otherwise they are complex
and everything runs on the full spectrum.  The adjoint check's band
projections and spectral pairing stay on the full spectrum either way.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import pickle
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .signals import (
    WeightedSignal,
    _Forked,
    _worker_count,
    rho_inner,
    rho_norm,
    translate,
    truncate_before,
)
from .solver import (
    EvoProblem,
    _apply_spectral,
    _half_on_grid,
    _solve_spectral,
    apply_evo_adjoint_operator,
    apply_evo_operator,
    causality_margins,
)
from .spatial import boundary_sign_functional
from .transform import SpectralSignal, forward_transform, inverse_transform

__all__ = [
    "CheckResult",
    "check_positivity",
    "check_positivity_shift_invariance",
    "check_causal_estimate",
    "check_adjoint_projection",
    "check_boundary_sign",
    "run_all_checks",
    "ALL_CHECKS",
    "write_checks_csv",
]

# trial and sample counts; checks.csv for a given seed depends on every one
POSITIVITY_TRIALS = 24
SHIFT_TRIALS = 6
ADJOINT_FREQ_SAMPLES = 48
BOUNDARY_TRIALS = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    margin: float
    tolerance: float
    details: str = ""

    def __post_init__(self) -> None:
        if not self.margin < np.inf:  # -inf is a margin: boundary_sign's for an unbounded flux
            raise ValueError(f"check {self.name}: margin must be finite or -inf")

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance


def base_tolerance(prob: EvoProblem, constant: float) -> float:
    """C * (dx^2 + dt + exp(-rho * pad)) with pad = the trial padding gap.

    Trial fields are supported in the first 60% of the window, so the
    effective padding is 40% of the window length.
    """
    grid = prob.grid
    pad = 0.4 * grid.window_length
    return constant * (prob.sd.dx**2 + grid.dt + np.exp(-grid.rho * pad))


def _cutoff_time(prob: EvoProblem) -> float:
    """Cut at t = 0 when it is well inside the window, else at mid-window.

    By translation invariance the cutoff location is immaterial; midway
    keeps both sides populated when the window does not straddle zero.
    """
    grid = prob.grid
    lo = grid.t0 + 0.1 * grid.window_length
    hi = grid.t0 + 0.9 * grid.window_length
    if lo <= 0.0 <= hi:
        return 0.0
    return grid.t0 + 0.5 * grid.window_length


def trial_fields(
    prob: EvoProblem, n_trials: int, rng: np.random.Generator
) -> Iterator[WeightedSignal]:
    """Smooth random reduced fields, yielded one at a time: band-limited spectra, compact envelope.

    Random Fourier coefficients with Gaussian decay give fields the
    discrete derivative treats accurately; the time envelope keeps the
    *weighted* mass centered in the first 60% of the window (tails below
    1e-10 at both edges) so cutoffs and padding are meaningful.  Boundary
    consistency is automatic on the reduced space.  Every third trial is
    concentrated in space near one end of the domain: the boundary terms
    of the coercivity inequality are only probed by fields with real
    boundary activity, and a check blind to them would have no power
    against energy-producing boundary laws.  The trials are drawn one at
    a time, as the caller asks for them, and no array of one is kept here
    once it is yielded.

    When the problem is real_in_time the trials are real: each draws the
    half spectrum, n // 2 + 1 rows, and is float64.  Such a T commutes
    with complex conjugation, so for u = a + i b every quadratic form of
    the checks, Re <chi u | T u>, is <chi a | T a> + <chi b | T b>: the
    margin of u is a weighted mean of those of a and b, and real trials
    probe the same inequalities at least as sharply, at half the cost.
    Otherwise each draws the full spectrum and is complex.  A draw is
    one standard normal array of shape (2, rows, dim), the real and the
    imaginary parts of the coefficients, in FFT row order and the
    program's order of the unknowns.
    """
    grid = prob.grid
    sd = prob.sd
    dim = sd.n_reduced
    half = prob.real_in_time
    s = grid.freqs
    s_cut = 0.2 * np.abs(s).max()
    decay = np.exp(-((s[: grid.n // 2 + 1 if half else grid.n] / s_cut) ** 2))
    t = grid.times
    t_mid = grid.t0 + 0.32 * grid.window_length
    envelope = np.exp(-(((t - t_mid) / (0.065 * grid.window_length)) ** 2))
    for i in range(n_trials):
        re, im = rng.standard_normal((2, decay.size, dim))
        c = np.empty((decay.size, dim), dtype=complex)
        np.multiply(decay[:, None], re, out=c.real)
        np.multiply(decay[:, None], im, out=c.imag)
        del re, im  # freed before the transform's arrays are made: fewer fresh heap pages
        vals = inverse_transform(SpectralSignal(grid, c, half)).values * envelope[:, None]
        del c
        if i % 3 == 2:
            x_b = 0.0 if (i // 3) % 2 == 0 else sd.length
            profile = np.exp(-(((sd.x - x_b) / (0.1 * sd.length)) ** 2))
            vals *= profile[None, :]
        u = WeightedSignal(grid, vals)
        nrm = rho_norm(u)
        if nrm > 0:
            u = u.with_values(vals / nrm)
        del vals
        yield u


def _worst_three(margins: list[float]) -> str:
    order = np.argsort(margins)[:3]
    return "; ".join(f"trial {int(i)}: margin {margins[int(i)]:.3e}" for i in order)


def check_positivity(prob: EvoProblem, seed: int = 0) -> CheckResult:
    """Cutoff coercivity of the forward operator and plain coercivity of the adjoint.

    margin = min over trials of
        [Re <chi U | T U> - beta0 <chi U | U>] / <chi U | U>     (forward)
        [Re <V | T* V>    - beta0 <V | V>]    / <V | V>          (adjoint)
    """
    rng = np.random.default_rng(seed)
    _, _, beta0 = prob.margin_constants()
    cut = _cutoff_time(prob)
    op = prob.grid_operator
    adjoint = op.adjoint()
    margins_f: list[float] = []
    margins_a: list[float] = []
    for u in trial_fields(prob, POSITIVITY_TRIALS, rng):
        chi_u = truncate_before(u, cut)
        u_hat = forward_transform(u, _half_on_grid(prob, u))  # T and T* both act on this one spectrum
        tu = _apply_spectral(op, u_hat)
        denom = rho_norm(chi_u) ** 2
        if denom <= 0:
            continue
        margins_f.append((rho_inner(chi_u, tu).real - beta0 * denom) / denom)
        tv = _apply_spectral(adjoint, u_hat)
        denom_a = rho_norm(u) ** 2
        margins_a.append((rho_inner(u, tv).real - beta0 * denom_a) / denom_a)
    margin = min(margins_f + margins_a)
    which = "forward" if min(margins_f) <= min(margins_a) else "adjoint"
    details = (
        f"cutoff at t={cut:g}; tolerance constant C=2; worst side: {which}; "
        f"forward worst: {_worst_three(margins_f)}; adjoint worst: {_worst_three(margins_a)}"
    )
    return CheckResult("positivity_1", margin, base_tolerance(prob, 2.0), details)


def check_positivity_shift_invariance(prob: EvoProblem, seed: int = 1) -> CheckResult:
    """Shifting the cutoff and the trial together only reweights the margin.

    The raw quantity at cut a with the trial translated by -a equals
    exp(-2 rho a) times the quantity at the base cut; after reweighting
    the three values must agree to 1e-8 relative (relative to the
    quadratic-form scale).
    """
    rng = np.random.default_rng(seed)
    grid = prob.grid
    _, _, beta0 = prob.margin_constants()
    cut0 = _cutoff_time(prob)
    shifts = [-2.0 * grid.dt, 0.0, 2.0 * grid.dt]
    if not (grid.t0 < cut0 + min(shifts) and cut0 + max(shifts) < grid.t_end):
        return CheckResult(
            "positivity_equivalence",
            0.0,
            1e-8,
            "inconclusive: cutoff at the window edge leaves an empty side",
        )
    worst = 0.0
    for u in trial_fields(prob, SHIFT_TRIALS, rng):
        vals = []
        scale = 0.0
        for a in shifts:
            v = translate(u, -a)
            chi_v = truncate_before(v, cut0 + a)
            tv = apply_evo_operator(prob, v)
            energy = rho_norm(chi_v) ** 2
            vals.append((rho_inner(chi_v, tv).real - beta0 * energy) * np.exp(2.0 * grid.rho * a))
            scale = max(scale, energy * np.exp(2.0 * grid.rho * a))
        spread = max(vals) - min(vals)
        worst = max(worst, spread / max(scale, 1e-300))
    return CheckResult(
        "positivity_equivalence",
        -worst,
        1e-8,
        f"max reweighted margin disagreement over {SHIFT_TRIALS} trials: {worst:.3e}",
    )


def check_causal_estimate(prob: EvoProblem, seed: int = 2) -> CheckResult:
    """beta0 ||chi_a U|| <= ||chi_a f|| at every grid cut time a, relative to ||f||.

    The check draws nothing; it takes seed only because _run_checks
    passes seed= to every check.
    """
    if prob.f_norm == 0.0:
        return CheckResult("causal_estimate", 0.0, 1e-12, "f = 0: trivially causal")
    _, _, beta0 = prob.margin_constants()
    margins = causality_margins(prob, _solve_spectral(prob)[0], beta0)
    worst = int(np.argmin(margins))
    return CheckResult(
        "causal_estimate",
        float(margins[worst]),
        1e-6,
        f"every grid cut; worst at a={prob.grid.times[worst]:.4g}",
    )


def check_adjoint_projection(
    prob: EvoProblem, n_band: float | None = None, seed: int = 3
) -> CheckResult:
    """Band projections commute with taking adjoints, blockwise and in pairings.

    With P the sharp frequency-band projector, (P T P)^adj must equal
    P T^adj P, T being the time-derivative material part plus the spatial
    part.  Per frequency the left side is the conjugate transpose of the
    forward block and the right side the block of the operator's own
    adjoint (conjugated symbols and corner terms, negated differences).
    Both blocks are tridiagonal, so they are compared on their three
    bands, relative to the largest entry of the forward blocks, at the
    in-band samples: off the bands, and off the band of frequencies,
    both sides are exact zeros.  The pairing form
    <(P T P) U | V> = <U | (P T^adj P) V> is verified on random signals
    with the full vectorized operators.
    """
    grid = prob.grid
    s = grid.freqs
    if n_band is None:
        n_band = 0.5 * np.abs(s).max()
    sample_idx = np.unique(np.linspace(0, s.size - 1, ADJOINT_FREQ_SAMPLES, dtype=int))
    w_samp = grid.w[np.argsort(s)[sample_idx]]
    op = prob.operator_at(w_samp)
    adjoint = op.adjoint()
    d = op._diagonal()  # (dim, samples), with +off above and -off below
    in_band = np.abs(w_samp.imag) <= n_band
    # the conjugate transpose has conj(d) on the diagonal, -off above and +off below
    defect = max(
        float(np.abs(np.conj(d[:, in_band]) - adjoint._diagonal()[:, in_band]).max(initial=0.0)),
        abs(op.off + adjoint.off) if in_band.any() else 0.0,
    ) / max(float(np.abs(d).max()), abs(op.off), 1e-300)

    # pairing route on random band-projected signals; the pairing is taken
    # in the spectral representation (the rectangle-rule weighted pairing,
    # which is the quadrature the discrete adjoint is exact for -- band
    # projection rings at the window edges, where the trapezoid rule's
    # edge half-weights would otherwise leak in at the 1e-10 level)
    # Each of u and v is a complex combination a + i b of two trials: the
    # pairing of two real fields is real, and cancels to near 0 far more
    # often than a complex one, where the relative defect is rounding over
    # a tiny scale.  On default.cfg over seeds 0 to 3999, pairs of real
    # trials exceed the 1e-12 tolerance twice (1.6e-12 at worst); complex
    # combinations stay below 1.5e-14.
    rng = np.random.default_rng(seed)
    a, b, c, d = trial_fields(prob, 4, rng)
    u, v = a.with_values(a.values + 1j * b.values), c.with_values(c.values + 1j * d.values)
    del a, b, c, d
    mask = (np.abs(s) <= n_band).astype(float)
    ds = s[1] - s[0]

    def spectral_pairing(a: WeightedSignal, b: WeightedSignal) -> complex:
        a_hat = forward_transform(a)
        b_hat = forward_transform(b)
        return complex(ds * np.sum(np.conj(a_hat.values) * b_hat.values))

    def project(w: WeightedSignal) -> WeightedSignal:
        return inverse_transform(SpectralSignal(grid, mask[:, None] * forward_transform(w).values))

    ptp_u = project(apply_evo_operator(prob, project(u)))
    ptsp_v = project(apply_evo_adjoint_operator(prob, project(v)))
    lhs_pair = spectral_pairing(ptp_u, v)
    rhs_pair = spectral_pairing(u, ptsp_v)
    scale_pair = max(abs(lhs_pair), abs(rhs_pair), 1e-300)
    pairing_defect = abs(lhs_pair - rhs_pair) / scale_pair

    margin = -max(defect, float(pairing_defect))
    return CheckResult(
        "adjoint_lemma",
        margin,
        1e-12,
        f"band |s| <= {n_band:.4g}; block defect {defect:.2e}, pairing defect {pairing_defect:.2e}",
    )


def check_boundary_sign(prob: EvoProblem, seed: int = 4) -> CheckResult:
    """Sign condition on the boundary law, in frequency and in time.

    Frequency side: the exact min of Re[w g(1/w)] over the circle w = i s + rho.
    Time side: the discrete boundary functional on random pressures,
    normalized by the squared weighted norm.  The margin is the min of
    both, so an active (energy-producing) boundary law fails here.
    """
    rho = prob.grid.rho
    bl = prob.bl
    freq_margin = bl.min_real_flux(rho)

    rng = np.random.default_rng(seed)
    cut = _cutoff_time(prob)
    margins = []
    for u in trial_fields(prob, BOUNDARY_TRIALS, rng):
        p = WeightedSignal(prob.grid, u.values[:, 0::2])
        nrm2 = rho_norm(p) ** 2
        if nrm2 <= 0:
            continue
        margins.append(boundary_sign_functional(prob.sd, bl, p, cutoff=cut) / nrm2)
    time_margin = float(min(margins))
    margin = min(freq_margin, time_margin)
    return CheckResult(
        "boundary_sign",
        margin,
        base_tolerance(prob, 1.0),
        f"tolerance constant C=1; freq margin {freq_margin:.3e}; "
        f"time-domain worst: {_worst_three(margins)}",
    )


ALL_CHECKS = (
    "positivity_1",
    "positivity_equivalence",
    "causal_estimate",
    "adjoint_lemma",
    "boundary_sign",
)

_CHECK_FUNCS = {
    "positivity_1": check_positivity,
    "positivity_equivalence": check_positivity_shift_invariance,
    "causal_estimate": check_causal_estimate,
    "adjoint_lemma": check_adjoint_projection,
    "boundary_sign": check_boundary_sign,
}


def _run_checks(
    prob: EvoProblem, seed: int, selected: tuple[str, ...], indices: Iterable[int]
) -> dict[int, CheckResult | Exception]:
    """Run selected[i] for each i taken from indices until one raises; the outcome by index.

    The function is looked up in _CHECK_FUNCS at call time, so that a
    wrapper put there is used.
    """
    done: dict[int, CheckResult | Exception] = {}
    for i in indices:
        try:
            done[i] = _CHECK_FUNCS[selected[i]](prob, seed=seed + 17 * i)
        except Exception as exc:
            done[i] = exc
            break
    return done


def _send_checks(fd: int, *args) -> None:
    """Body of a forked check worker: _run_checks(*args), pickled into the pipe fd."""
    data = pickle.dumps(_run_checks(*args))
    with open(fd, "wb") as fh:
        fh.write(data)


def _run_forked(
    prob: EvoProblem, seed: int, selected: tuple[str, ...], n_workers: int
) -> dict[int, CheckResult | Exception]:
    """_run_checks in this process and in n_workers - 1 forked ones, sharing one queue.

    The queue is a pipe that holds one number, the index of the next
    check.  A process takes a check by reading the number and writing
    back its successor, so the reads hand out each index once and in
    order.  Each child sends its outcomes pickled through a pipe of its
    own; one that sends nothing readable contributes nothing.
    """
    k = len(selected)
    queue_r, queue_w = os.pipe()
    readers = []

    def take() -> Iterator[int]:
        while (i := int.from_bytes(os.read(queue_r, 8), "little")) < k:
            os.write(queue_w, (i + 1).to_bytes(8, "little"))
            yield i
        os.write(queue_w, i.to_bytes(8, "little"))  # the other takers see the end too

    prob.grid_operator  # built before the fork, so that no worker builds its own
    try:
        os.write(queue_w, (0).to_bytes(8, "little"))
        with _Forked() as workers:
            for _ in range(n_workers - 1):
                r, w = os.pipe()
                try:
                    workers.fork(functools.partial(_send_checks, w, prob, seed, selected, take()))
                except OSError:  # out of processes: the ones started share the checks
                    os.close(r)
                    break
                finally:
                    os.close(w)
                readers.append(open(r, "rb"))
            done = _run_checks(prob, seed, selected, take())
            for reader in readers:
                data = reader.read()
                workers.join()
                with contextlib.suppress(Exception):  # a worker that died mid-write
                    done.update(pickle.loads(data))
    finally:
        os.close(queue_r)
        os.close(queue_w)
        for reader in readers:
            reader.close()
    return done


def run_all_checks(
    prob: EvoProblem, seed: int = 0, names: tuple[str, ...] | list[str] | None = None
) -> list[CheckResult]:
    """Run the selected checks (all by default); failures are collected, not raised.

    The checks are shared by min(usable CPUs, number of checks) processes,
    as write_signal_csv shares its blocks: this one and forked workers,
    each taking the next check in order from one queue, so that a long
    check does not hold up the rest.  The problem's constants and grid
    operator are computed before the fork, once for every check; if a
    fork fails, the processes already started share the checks.  The
    results come back in check order, and an exception a check raised is
    re-raised, the first in check order: both are those of running the
    checks one after another.  A check whose worker died before reporting
    is run again here.
    """
    selected = ALL_CHECKS if names is None else tuple(names)
    unknown = [n for n in selected if n not in _CHECK_FUNCS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; available: {list(ALL_CHECKS)}")
    n_workers = _worker_count(len(selected))
    if n_workers == 1:
        done = _run_checks(prob, seed, selected, range(len(selected)))
    else:
        done = _run_forked(prob, seed, selected, n_workers)
    for i in range(len(selected)):
        if i not in done:
            done.update(_run_checks(prob, seed, selected, [i]))
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(len(selected))]


def write_checks_csv(results: list[CheckResult], path: str) -> None:
    """One row per result: name, margin, tolerance, pass, then its details (worst trials, cut, band)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "margin", "tolerance", "pass", "details"])
        for res in results:
            writer.writerow(
                [res.name, f"{res.margin:.17g}", f"{res.tolerance:.17g}", str(res.passed), res.details]
            )

