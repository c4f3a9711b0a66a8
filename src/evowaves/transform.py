"""Unitary weighted Fourier transform and its padding guard.

The map implemented here takes a signal u on a weighted grid to

    u_hat(s_k) = (dt / sqrt(2 pi)) * sum_j exp(-i s_k t_j) exp(-rho t_j) u(t_j),

i.e. the Fourier transform of exp(-rho t) u(t), evaluated on the uniform
frequency grid s_k implied by the window (spacing 2*pi/(n*dt)).  It is a
discretely unitary map: the rectangle-rule weighted norm of u equals the
rectangle-rule L2 norm of u_hat exactly, so Parseval holds to rounding for
signals that vanish at the window edges.

The time derivative becomes the multiplier (i s + rho), its inverse the
multiplier 1/(i s + rho); the solver applies its operator that way.
Frequency multipliers are circular operators on the window: wrap-around
leakage is damped like exp(-rho * padding), which is why
causality-sensitive callers must leave enough trailing zeros
(assert_padded checks this).

Every spectrum is in numpy's FFT order, s = 0 first, the positive
frequencies, then the negative ones.  A real signal has
u_hat(-s) = conj u_hat(s), so its half spectrum, the first n // 2 + 1
rows (s >= 0, plus Nyquist for even n), holds all of it:
forward_transform(u, half=True) computes it by a real FFT, and
inverse_transform returns it to a real signal, float64 samples, by the
inverse real FFT; a full spectrum returns to complex128 samples.
The transform acts on time alone, so a separable signal w(t) g is
transformed as w alone, with g applied to the spectrum.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .signals import WeightedGrid, WeightedSignal

__all__ = [
    "SpectralSignal",
    "frequencies_for",
    "forward_transform",
    "inverse_transform",
    "assert_padded",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)
PAD_REL_TOL = 1e-12  # samples above this fraction of the peak count as support


@dataclass(frozen=True)
class SpectralSignal:
    """The weighted transform of a signal on grid: values[k] sits at freqs[k].

    A spectrum lives on the line i s + rho fixed by its time grid, so it
    carries the grid and its form: all grid.n frequencies in FFT order,
    or with half the first n // 2 + 1 of them, a real signal's.  values
    has shape (rows, d) and is marked read-only; a non-finite value is
    refused by the WeightedSignal that inverse_transform builds from it.
    """

    grid: WeightedGrid
    values: np.ndarray = field(repr=False)
    half: bool = False

    def __post_init__(self) -> None:
        n = self.grid.n
        rows, form = (n // 2 + 1, "n // 2 + 1") if self.half else (n, "n")
        if self.values.ndim != 2 or self.values.shape[0] != rows:
            raise ValueError(
                f"values must have shape ({form}, d) with n={n}, got {self.values.shape}"
            )
        self.values.setflags(write=False)

    @property
    def freqs(self) -> np.ndarray:
        return frequencies_for(self.grid)[: self.values.shape[0]]


def frequencies_for(grid: WeightedGrid) -> np.ndarray:
    """The frequency grid implied by a time grid, in FFT order (np.fft.fftfreq's)."""
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dt)


def forward_transform(u: WeightedSignal, half: bool = False) -> SpectralSignal:
    """The weighted transform of u, computed in place in one new array.

    With half, the half spectrum of the real part of u, by a real FFT.
    A separable u, with profiles (w, g), is never sampled: its real w
    alone is transformed, and the spectrum is w_hat times g (Re g with
    half).  Each product keeps the operand order of the out-of-place
    expression, because for complex arrays `a *= c[:, None]` and
    `c[:, None] * a` can differ in the last bit.
    """
    grid = u.grid
    weight = np.exp(-grid.rho * grid.times)[:, None]
    samples = u.values if u.profiles is None else u.profiles[0][:, None]
    if half:
        vals = np.fft.rfft(np.multiply(weight, samples.real), axis=0)
    else:
        vals = np.multiply(weight, samples, dtype=complex)
        np.fft.fft(vals, axis=0, out=vals)
    s = frequencies_for(grid)[: vals.shape[0]]
    scaled_phase = (grid.dt / _SQRT_2PI) * np.exp(-1j * s * grid.t0)
    np.multiply(scaled_phase[:, None], vals, out=vals)
    if u.profiles is not None:
        vals = vals * (u.profiles[1].real if half else u.profiles[1])
    return SpectralSignal(grid, vals, half)


def inverse_transform(u_hat: SpectralSignal) -> WeightedSignal:
    """The time samples of u_hat on its grid, computed in place in one new array.

    A full spectrum gives complex128 samples: the phase and scale multiply
    straight into the array the inverse FFT runs in, so the spectrum is
    read once and never copied.  A half spectrum gives float64 samples by
    the inverse real FFT, which drops the imaginary part of its s = 0 and
    Nyquist rows, in an anonymous mapping: glibc would serve that size
    from its heap once a larger block has raised its mmap threshold, and
    keep the pages resident after the signal is freed.
    """
    grid = u_hat.grid
    n, d = grid.n, u_hat.values.shape[1]
    scaled_phase = (_SQRT_2PI / grid.dt) * np.exp(1j * u_hat.freqs * grid.t0)
    if u_hat.half:
        # at least one byte: an empty mapping is an error
        vals = np.frombuffer(mmap.mmap(-1, max(8 * n * d, 1)), float, n * d).reshape(n, d)
        np.fft.irfft(np.multiply(scaled_phase[:, None], u_hat.values), n, axis=0, out=vals)
    else:
        vals = np.multiply(scaled_phase[:, None], u_hat.values, dtype=complex)
        np.fft.ifft(vals, axis=0, out=vals)
    np.multiply(np.exp(grid.rho * grid.times)[:, None], vals, out=vals)
    return WeightedSignal(grid, vals)


def assert_padded(u: WeightedSignal) -> None:
    """Require trailing zeros at least as long as the signal's support.

    Frequency multipliers act circularly on the window; without this much
    padding their wrap-around contaminates causality tests, so those tests
    refuse to run on unpadded signals.  The support is the index range
    where the signal exceeds PAD_REL_TOL of its peak.
    """
    mag = u.sample_peak()
    peak = mag.max()
    if peak == 0.0:
        return
    idx = np.nonzero(mag > PAD_REL_TOL * peak)[0]
    j0, j1 = int(idx[0]), int(idx[-1])
    support_len = j1 - j0 + 1
    trailing = u.grid.n - 1 - j1
    if trailing < support_len:
        raise ValueError(
            f"signal support occupies samples [{j0}, {j1}] of {u.grid.n}; "
            f"only {trailing} trailing zero samples but {support_len} are required "
            "to suppress wrap-around"
        )
