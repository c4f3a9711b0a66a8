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
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

from .signals import WeightedGrid, WeightedSignal

__all__ = [
    "SpectralSignal",
    "forward_transform",
    "inverse_transform",
    "assert_padded",
]

PAD_REL_TOL = 1e-12  # samples above this fraction of the peak count as support
# Smallest float64 output, in bytes, that inverse_transform writes into an anonymous mapping
# of its own.  glibc raises its mmap threshold past every mapped block it frees and keeps freed
# heap pages resident: with heap memory at every size, the solve-reflection benchmark (a 16 MiB
# solution) peaks at 390.7 MiB against 375.0.  But a fresh mapping faults at each first touch,
# 2.2-2.9 us a 4 KiB page on 2 CPUs: with a mapping at every size, the five checks of verify
# on scenarios/default.cfg (252 KiB signals) took 12,600-13,400 faults a run, against 3,100-6,400.
MAP_BYTES = 2**20


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
        return self.grid.freqs[: self.values.shape[0]]


def forward_transform(u: WeightedSignal, half: bool = False) -> SpectralSignal:
    """The weighted transform of u, computed in place in one new array.

    With half, the half spectrum of the real part of u, by a real FFT.
    """
    return SpectralSignal(u.grid, _spectrum(u, half), half)


def _spectrum(u: WeightedSignal, half: bool) -> np.ndarray:
    """forward_transform's values, in a new array that stays writable for a caller that works in it.

    The phase multiplies in place with the operand order of the
    out-of-place expression, because for complex arrays
    `a *= c[:, None]` and `c[:, None] * a` can differ in the last bit.
    """
    grid = u.grid
    weight = grid.decay[:, None]
    if half:
        vals = np.fft.rfft(np.multiply(weight, u.values.real), axis=0)
    else:
        vals = np.multiply(weight, u.values, dtype=complex)
        np.fft.fft(vals, axis=0, out=vals)
    np.multiply(grid.forward_phase[: vals.shape[0], None], vals, out=vals)
    return vals


def inverse_transform(u_hat: SpectralSignal) -> WeightedSignal:
    """The time samples of u_hat on its grid, computed in place in one new array.

    A full spectrum gives complex128 samples: the phase and scale multiply
    straight into the array the inverse FFT runs in, so the spectrum is
    read once and never copied.  A half spectrum gives float64 samples by
    the inverse real FFT, which drops the imaginary part of its s = 0 and
    Nyquist rows, in an anonymous mapping from MAP_BYTES up, which returns
    a freed solution's pages to the system, and below it in heap memory,
    which a small signal reuses without faulting in fresh pages.
    """
    grid = u_hat.grid
    n, d = grid.n, u_hat.values.shape[1]
    phase = grid.inverse_phase[: u_hat.values.shape[0], None]
    if u_hat.half:
        if 8 * n * d >= MAP_BYTES:
            vals = np.frombuffer(mmap.mmap(-1, 8 * n * d), float, n * d).reshape(n, d)
        else:
            vals = np.empty((n, d))
        np.fft.irfft(np.multiply(phase, u_hat.values), n, axis=0, out=vals)
    else:
        vals = np.multiply(phase, u_hat.values, dtype=complex, order="C")
        np.fft.ifft(vals, axis=0, out=vals)
    np.multiply(grid.growth[:, None], vals, out=vals)
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
