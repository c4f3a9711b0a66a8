"""Unitary weighted Fourier transform and frequency multipliers.

The map implemented here takes a signal u on a weighted grid to

    u_hat(s_k) = (dt / sqrt(2 pi)) * sum_j exp(-i s_k t_j) exp(-rho t_j) u(t_j),

i.e. the Fourier transform of exp(-rho t) u(t), evaluated on the uniform
frequency grid s_k implied by the window (spacing 2*pi/(n*dt)).  It is a
discretely unitary map: the rectangle-rule weighted norm of u equals the
rectangle-rule L2 norm of u_hat exactly, so Parseval holds to rounding for
signals that vanish at the window edges.

The time derivative becomes the multiplier (i s + rho), its inverse the
multiplier 1/(i s + rho).  Both are honest circular operators on the
window: wrap-around leakage is damped like exp(-rho * padding), which is
why causality-sensitive callers must leave enough trailing zeros
(assert_padded checks this).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .signals import WeightedGrid, WeightedSignal

__all__ = [
    "SpectralSignal",
    "frequencies_for",
    "forward_transform",
    "inverse_transform",
    "apply_scalar_symbol",
    "time_derivative",
    "time_antiderivative",
    "translate_spectral",
    "assert_padded",
    "WindowDecayWarning",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class WindowDecayWarning(UserWarning):
    """A signal did not decay at the window end where an operation assumed it."""


@dataclass(frozen=True)
class SpectralSignal:
    """Frequency-domain samples of a weighted signal.

    freqs is strictly increasing with uniform spacing ds = 2*pi/(n*dt);
    values has shape (n, d).  rho records which weighted space the signal
    came from (the transform is rho-dependent).
    """

    freqs: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    rho: float

    def __post_init__(self) -> None:
        f = np.asarray(self.freqs, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if f.ndim != 1 or v.shape[0] != f.shape[0]:
            raise ValueError("freqs and values are inconsistent")
        if f.shape[0] >= 2:
            ds = np.diff(f)
            if not (ds.min() > 0 and np.allclose(ds, ds[0], rtol=1e-9)):
                raise ValueError("freqs must be strictly increasing and uniform")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectral values contain non-finite entries")
        f.setflags(write=False)
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.freqs.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def frequencies_for(grid: WeightedGrid) -> np.ndarray:
    """The (shifted, increasing) frequency grid implied by a time grid."""
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid.n, grid.dt))


def forward_transform(u: WeightedSignal) -> SpectralSignal:
    g = np.exp(-u.grid.rho * u.grid.times)[:, None] * u.values
    spec = np.fft.fftshift(np.fft.fft(g, axis=0), axes=0)
    s = frequencies_for(u.grid)
    phase = np.exp(-1j * s * u.grid.t0)
    vals = (u.grid.dt / _SQRT_2PI) * phase[:, None] * spec
    return SpectralSignal(s, vals, u.grid.rho)


def _check_spectral_grid(u_hat: SpectralSignal, grid: WeightedGrid) -> None:
    if u_hat.n != grid.n:
        raise ValueError(f"spectral length {u_hat.n} does not match grid n={grid.n}")
    if abs(u_hat.rho - grid.rho) > 1e-12 * max(1.0, abs(grid.rho)):
        raise ValueError(f"rho mismatch: spectral {u_hat.rho} vs grid {grid.rho}")
    ds_expect = 2.0 * np.pi / (grid.n * grid.dt)
    ds = u_hat.freqs[1] - u_hat.freqs[0]
    if abs(ds - ds_expect) > 1e-9 * ds_expect:
        raise ValueError("frequency spacing does not match the grid")


def inverse_transform(u_hat: SpectralSignal, grid: WeightedGrid) -> WeightedSignal:
    _check_spectral_grid(u_hat, grid)
    phase = np.exp(1j * u_hat.freqs * grid.t0)
    spec = np.fft.ifftshift((_SQRT_2PI / grid.dt) * phase[:, None] * u_hat.values, axes=0)
    g = np.fft.ifft(spec, axis=0)
    vals = np.exp(grid.rho * grid.times)[:, None] * g
    return WeightedSignal(grid, vals)


def apply_scalar_symbol(u: WeightedSignal, symbol: np.ndarray) -> WeightedSignal:
    """Apply a scalar frequency multiplier symbol(s_k) to every component."""
    u_hat = forward_transform(u)
    sym = np.asarray(symbol, dtype=complex)
    if sym.shape != u_hat.freqs.shape:
        raise ValueError("symbol must be sampled on the signal's frequency grid")
    out = SpectralSignal(u_hat.freqs, sym[:, None] * u_hat.values, u_hat.rho)
    return inverse_transform(out, u.grid)


def _warn_if_undecayed(u: WeightedSignal, what: str) -> None:
    w = np.exp(-u.grid.rho * u.grid.times)[:, None] * np.abs(u.values)
    peak = w.max()
    if peak > 0 and w[-1].max() > 1e-8 * peak:
        warnings.warn(
            f"{what}: signal has weighted magnitude {w[-1].max():.2e} at the window "
            f"end (peak {peak:.2e}); derivative values near the edge are untrusted",
            WindowDecayWarning,
            stacklevel=3,
        )


def time_derivative(u: WeightedSignal) -> WeightedSignal:
    """The closed time derivative, as the frequency multiplier (i s + rho).

    Agrees with centered finite differences to O(dt^2) in the window
    interior; edge values are untrusted unless the signal decays there
    (a WindowDecayWarning is emitted otherwise).
    """
    _warn_if_undecayed(u, "time_derivative")
    s = frequencies_for(u.grid)
    return apply_scalar_symbol(u, 1j * s + u.grid.rho)


def time_antiderivative(u: WeightedSignal) -> WeightedSignal:
    """Causal antiderivative t -> integral of u up to t (multiplier 1/(i s + rho))."""
    s = frequencies_for(u.grid)
    return apply_scalar_symbol(u, 1.0 / (1j * s + u.grid.rho))


def translate_spectral(u: WeightedSignal, h: float) -> WeightedSignal:
    """Translation by h through the frequency domain (multiplier e^{(i s + rho) h}).

    Matches signals.translate on signals supported away from the window
    edges; h must be a grid multiple, as there.
    """
    u.grid.steps_of(h)
    s = frequencies_for(u.grid)
    return apply_scalar_symbol(u, np.exp((1j * s + u.grid.rho) * h))


def support_bounds(u: WeightedSignal, rel_tol: float = 1e-13) -> tuple[int, int] | None:
    """Index range [j0, j1] where the signal is above rel_tol of its peak."""
    mag = np.abs(u.values).max(axis=1)
    peak = mag.max()
    if peak == 0.0:
        return None
    idx = np.nonzero(mag > rel_tol * peak)[0]
    return int(idx[0]), int(idx[-1])


def assert_padded(u: WeightedSignal, rel_tol: float = 1e-13) -> None:
    """Require trailing zeros at least as long as the signal's support.

    Frequency multipliers act circularly on the window; without this much
    padding their wrap-around contaminates causality tests, so those tests
    refuse to run on unpadded signals.
    """
    bounds = support_bounds(u, rel_tol)
    if bounds is None:
        return
    j0, j1 = bounds
    support_len = j1 - j0 + 1
    trailing = u.grid.n - 1 - j1
    if trailing < support_len:
        raise ValueError(
            f"signal support occupies samples [{j0}, {j1}] of {u.grid.n}; "
            f"only {trailing} trailing zero samples but {support_len} are required "
            "to suppress wrap-around"
        )
