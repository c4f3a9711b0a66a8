"""Weighted time grids and the signals living on them.

All computations happen in a Hilbert space of vector-valued time signals
measured with the weight exp(-2*rho*t).  Large rho suppresses late times,
which is what makes causal problems coercive; the price is that every
signal must decay fast enough at the right end of its window for the
weighted tail to be negligible.  A signal here is a finite uniform window
[t0, t0 + (n-1)*dt] of that axis carrying complex d-vectors per sample.

Windows are the caller's responsibility: the verification suite checks
empirically that chosen windows are adequate, nothing here enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WeightedGrid",
    "WeightedSignal",
    "rho_inner",
    "rho_norm",
    "truncate_before",
    "translate",
    "write_signal_csv",
    "read_signal_csv",
]


@dataclass(frozen=True)
class WeightedGrid:
    """Uniform time grid t_j = t0 + j*dt with exponential weight rho.

    Parameters
    ----------
    t0 : float
        Time origin of the window.
    dt : float
        Step size, > 0.
    n : int
        Number of samples, >= 2.
    rho : float
        Weight parameter, > 0.  rho = 0 (the plain L2 case) is excluded:
        the coercivity constants the solver relies on need rho large.
    """

    t0: float
    dt: float
    n: int
    rho: float

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n < 2:
            raise ValueError(f"need at least 2 samples, got n={self.n}")
        if not self.rho > 0:
            raise ValueError(f"rho must be positive, got {self.rho}")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    @property
    def window_length(self) -> float:
        return self.dt * (self.n - 1)

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights times exp(-2*rho*t_j)."""
        theta = np.ones(self.n)
        theta[0] = theta[-1] = 0.5
        return theta * self.dt * np.exp(-2.0 * self.rho * self.times)

    def steps_of(self, h: float) -> int:
        """Express h as an integer number of grid steps, or fail.

        Translations are restricted to grid multiples so that causality
        tests are not contaminated by interpolation error.
        """
        m = h / self.dt
        m_round = round(m)
        if abs(m - m_round) > 1e-9 * max(1.0, abs(m)):
            raise ValueError(
                f"shift h={h} is not an integer multiple of dt={self.dt}; "
                "resampling is not performed silently"
            )
        return int(m_round)


@dataclass(frozen=True)
class WeightedSignal:
    """Complex d-vector samples on a WeightedGrid.

    values has shape (grid.n, dim).  Instances are immutable; the sample
    array is marked read-only at construction.
    """

    grid: WeightedGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n:
            raise ValueError(
                f"values must have shape (n, d) with n={self.grid.n}, got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite samples")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, values)

    @staticmethod
    def zeros(grid: WeightedGrid, dim: int) -> "WeightedSignal":
        return WeightedSignal(grid, np.zeros((grid.n, dim), dtype=complex))


def _check_compatible(u: WeightedSignal, w: WeightedSignal) -> None:
    if u.grid != w.grid or u.dim != w.dim:
        raise ValueError(
            "signal shape mismatch: grids and dimensions must agree "
            f"(got n={u.grid.n}/{w.grid.n}, d={u.dim}/{w.dim})"
        )


def rho_inner(u: WeightedSignal, w: WeightedSignal) -> complex:
    """Weighted inner product, linear in the second factor.

    Trapezoid-rule approximation of the integral of <u(t)|w(t)> times
    exp(-2*rho*t) over the window.
    """
    _check_compatible(u, w)
    wq = u.grid.weights()
    return complex(np.sum(wq * np.sum(np.conj(u.values) * w.values, axis=1)))


def rho_norm(u: WeightedSignal) -> float:
    return float(np.sqrt(max(rho_inner(u, u).real, 0.0)))


def truncate_before(u: WeightedSignal, a: float) -> WeightedSignal:
    """Zero all samples with t_j > a (sharp cutoff multiplier).

    Idempotent, and an orthogonal projection for rho_inner.
    """
    keep = u.grid.times <= a
    vals = np.where(keep[:, None], u.values, 0.0)
    return u.with_values(vals)


def translate(u: WeightedSignal, h: float) -> WeightedSignal:
    """Time translation: output sample at t_j is the input at t_j + h.

    h must be an integer multiple of dt.  Samples shifted in from outside
    the window are zero, so the group law only holds for signals supported
    away from the window edges.
    """
    m = u.grid.steps_of(h)
    out = np.zeros_like(u.values)
    if m >= 0:
        if m < u.grid.n:
            out[: u.grid.n - m] = u.values[m:]
    else:
        if -m < u.grid.n:
            out[-m:] = u.values[: u.grid.n + m]
    return u.with_values(out)


# CSV layout: header "t,re_0,im_0,...,re_{d-1},im_{d-1}", one row per grid
# time, comma-separated without spaces, CRLF line endings, every number as
# "%.17g" (enough to round-trip doubles exactly).  Samples are finite, so no
# field ever needs quoting.

def write_signal_csv(u: WeightedSignal, path: str) -> None:
    header = ["t"]
    for j in range(u.dim):
        header += [f"re_{j}", f"im_{j}"]
    # One bytes format per row: b"%.17g" % x is format(x, ".17g") for every
    # double.  Bytes skip the text layer's per-row encode copy, which also
    # left the heap fragmented across repeated solves in one process.
    row_fmt = (",".join(["%.17g"] * (1 + 2 * u.dim)) + "\r\n").encode()
    # (n, 2*dim) float view: re_0, im_0, re_1, ... in column order
    parts = u.values.view(np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for t, row in zip(u.grid.times.tolist(), parts):
            fh.write(row_fmt % (t, *row.tolist()))


def read_signal_csv(path: str, grid: WeightedGrid) -> WeightedSignal:
    """Read a signal written by write_signal_csv onto a known grid.

    The time column must match the grid times; there is no resampling.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[0].strip() != "t":
            raise ValueError(f"{path}: expected a 't' column first")
        d = (len(header) - 1) // 2
        if len(header) != 1 + 2 * d:
            raise ValueError(f"{path}: malformed header {header!r}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # a malformed number or a ragged row
            raise ValueError(f"{path}: {exc}") from exc
    if data.shape[0] != grid.n:
        raise ValueError(f"{path}: {data.shape[0]} rows but grid has n={grid.n}")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns but the header names {len(header)}")
    if not np.allclose(data[:, 0], grid.times, rtol=0, atol=1e-9 * max(grid.dt, 1.0)):
        raise ValueError(f"{path}: time column does not match the scenario grid")
    # pairs (re_j, im_j) reinterpreted as complex, which keeps the sign of a zero
    vals = np.ascontiguousarray(data[:, 1:]).view(complex)
    return WeightedSignal(grid, vals)
