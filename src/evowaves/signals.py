"""Weighted time grids and the signals living on them.

All computations happen in a Hilbert space of vector-valued time signals
measured with the weight exp(-2*rho*t).  Large rho suppresses late times,
which is what makes causal problems coercive; the price is that every
signal must decay fast enough at the right end of its window for the
weighted tail to be negligible.  A signal here is a finite uniform window
[t0, t0 + (n-1)*dt] of that axis carrying d-vectors per sample, float64
when real and complex128 when complex, held as those samples or, when
separable, as a time and a space profile.

Windows are the caller's responsibility: the verification suite checks
empirically that chosen windows are adequate, nothing here enforces it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import signal
from dataclasses import dataclass, field
from typing import Callable

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


def _finite(x: np.ndarray) -> np.ndarray:
    """x read-only and contiguous, complex128 or else float64; non-finite raises ValueError."""
    x = np.ascontiguousarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite samples")
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class WeightedSignal:
    """d-vector samples on a WeightedGrid, held in one of two forms.

    WeightedSignal(grid, samples) holds the samples, shape (grid.n, d).
    A separable signal, WeightedSignal(grid, profiles=(w, g)), holds a
    real time profile w of shape (n,) and a spatial profile g of shape
    (d,), for the samples w_j g_d; values builds them on first access,
    as w[:, None] * g[None, :], and keeps them.  forward_transform and the
    per-sample helpers read the profiles alone.  Real samples, and the
    values of a real g, are float64 (half the memory of complex128).
    Instances are immutable: every array is read-only, and a non-finite
    entry raises ValueError.
    """

    grid: WeightedGrid
    samples: np.ndarray | None = field(default=None, repr=False)
    profiles: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.profiles is not None:
            w, g = self.profiles
            if np.iscomplexobj(w) or np.shape(w) != (self.grid.n,) or np.ndim(g) != 1:
                raise ValueError(f"profiles must be a real (n,) and a (d,) array, n={self.grid.n}")
            object.__setattr__(self, "profiles", (_finite(w), _finite(g)))
            return
        v = np.asarray(self.samples)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[0] != self.grid.n:
            raise ValueError(f"values must have shape (n, d) with n={self.grid.n}, got {v.shape}")
        object.__setattr__(self, "samples", _finite(v))

    @functools.cached_property
    def values(self) -> np.ndarray:
        if self.profiles is None:
            return self.samples
        w, g = self.profiles
        return _finite(w[:, None] * g)

    @property
    def dim(self) -> int:
        return self.samples.shape[1] if self.profiles is None else self.profiles[1].size

    def sample_energy(self) -> np.ndarray:
        """sum_d |u_jd|^2 at each sample j: |w_j|^2 ||g||^2 for a separable signal."""
        if self.profiles is not None:
            w, g = self.profiles
            return w * w * np.vdot(g, g).real
        v = self.samples.view(np.float64)
        return np.einsum("ij,ij->i", v, v)

    def sample_peak(self) -> np.ndarray:
        """max_d |u_jd| at each sample j: |w_j| max_d |g_d| for a separable signal."""
        if self.profiles is not None:
            w, g = self.profiles
            return np.abs(w) * np.abs(g).max(initial=0.0)
        return np.abs(self.samples).max(axis=1, initial=0.0)

    @property
    def is_real(self) -> bool:
        """Whether no sample has an imaginary part; a separable signal's, whether g is real."""
        x = self.samples if self.profiles is None else self.profiles[1]
        return not (np.iscomplexobj(x) and x.imag.any())

    def with_values(self, values: np.ndarray) -> "WeightedSignal":
        return WeightedSignal(self.grid, values)


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
    """sqrt(rho_inner(u, u)), summed from u.sample_energy() with no full-size temporary."""
    return float(np.sqrt(u.grid.weights() @ u.sample_energy()))


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
#
# CPython's "%.17g" costs about 0.7 us a number, so a numpy kernel formats
# a chunk of rows at a time, each number into a slot ended by a separator
# word.  Of a float64 signal (such as every solution on the half spectrum)
# only t and the re_j are formatted, and each im_j is the "0" of the word
# after its re_j: ",0," or ",0" and CRLF.  A complex signal has every
# column formatted.  The kernel writes every x with 1e-99 <= |x| < 1, which
# "%.17g" prints in fixed notation from 1e-4 up and in exponent form with
# a two-digit exponent below (all of the reflection solution but its
# zeros), and writes zeros, "0" or "-0" by the sign bit, from a table.
# For a nonzero x in decade E, the product y = |x| * 10**(16 - E), taken
# with a double-double power of ten and Dekker's exact product, is within
# 1e-14 of the exact one.  If its nearest integer D has 17 digits
# and y lies more than _TIE_MARGIN from a tie, D is the correctly rounded
# mantissa and E the printed exponent.  Every other number goes through
# "%.17g" itself: |x| >= 1, near-ties, three-digit exponents, subnormals
# and the rare mantissa ending in four zeros.  The bytes are
# therefore those of "%.17g" by construction.

# Fewest numbers a forked writer formats.  Below it the fork, the child's
# copy-on-write faults and the part file cost more than the formatting the
# child takes off the parent, so small signals are written in one process.
# Measured with the kernel on 2 CPUs (medians of 15 writes): two processes
# break even with one near 2**17 numbers in all when the second CPU is
# free, but lose up to 30% below 2**19 numbers when it is busy; from 2**19
# (2**18 a worker) they saved 24-38% in most runs.
MIN_DOUBLES_PER_WORKER = 2**18

# Numbers per kernel call, in whole rows, so that its arrays stay in a
# core's L2 cache (2 MiB here).  One process formatted the complex
# reflection solution in a median 0.54 s at 4 rows (8188 numbers) a call,
# 0.84 s at 8 and 0.90 s at 16.  A real row is 1 + dim numbers, not
# 1 + 2*dim, so a call takes about twice as many real rows.
_CHUNK_NUMBERS = 2**13
_TIE_MARGIN = 1e-9
_E_HI, _E_LO = -1, -99  # the decades the kernel writes


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _worker_count(tasks: int) -> int:
    """Processes to share tasks: one per usable CPU and per task, and one without os.fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), tasks))


class _Forked:
    """Forked children, each running one body; joined in the order they were forked.

    A child leaves by os._exit, with status 0, or 1 if its body raised:
    it runs no exit handler, flushes no buffer inherited from the parent
    and prints no traceback.  Leaving the with-block kills and reaps every
    child not yet joined, so a failure leaves no process behind.

    A child may call BLAS.  evowaves starts no thread, and numpy's
    OpenBLAS registers a pthread_atfork handler that shuts its thread pool
    down before each fork, so a child starts with one thread and no lock
    held by a thread that was not copied; its first BLAS call starts a
    fresh pool.
    """

    def __init__(self) -> None:
        self._pids: list[int] = []

    def __enter__(self) -> "_Forked":
        return self

    def fork(self, body: Callable[[], object]) -> None:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                body()
                code = 0
            finally:
                os._exit(code)
        self._pids.append(pid)

    def join(self) -> int:
        """Wait for the oldest child not yet joined; its exit code."""
        _, status = os.waitpid(self._pids[0], 0)
        self._pids.pop(0)
        return os.waitstatus_to_exitcode(status)

    def __exit__(self, *exc_info: object) -> None:
        for pid in self._pids:  # left only after a failure
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self._pids.clear()


def _split(a):
    """Dekker's split: hi + lo == a exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _words(fields: list[str]) -> np.ndarray:
    return np.frombuffer("".join(fields).encode(), "<u4")


# 10**(16 - E) = _POW_HI + _POW_LO to 2**-106 relative, for E = _E_HI down to _E_LO
_POWERS = [10 ** (16 - e) for e in range(_E_HI, _E_LO - 1, -1)]
_POW_HI = np.array([float(p) for p in _POWERS])
_POW_LO = np.array([float(p - int(float(p))) for p in _POWERS])
_POW_HH, _POW_HL = _split(_POW_HI)
# Each number gets a slot of seven little-endian 4-byte words, right-justified
# against the separator in the last one.  Exponent form fills the first six
# with " -d.", four groups of four digits and "e-XX"; fixed notation with
# "  -0.00d" (two words) and the four groups.  Spaces pad the slots and are
# never part of "%.17g", so one mask removes them, and the kept bytes of a
# slot form one run (numpy's mask indexing copies run by run).
_SLOT_WORDS = 7
_SPACE = ord(" ")
_HEAD = _words([f" {s}{d}." for s in " -" for d in range(10)])  # by digit + 10 * negative
# by digit + 10 * (zeros after the point) + 40 * negative
_FIXED_HEAD = _words(
    [f"{s}0.{'0' * z}{d}".rjust(8) for s in ("", "-") for z in range(4) for d in range(10)]
).reshape(-1, 2)
# "0000".."9999", and for the last group of a mantissa the same with trailing
# zeros dropped and spaces in front ("1200" -> "  12")
_DIGITS = (
    (48 + np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10).astype(np.uint8).view("<u4")[:, 0]
)
_LAST_DIGITS = _DIGITS.copy()
_LAST_DIGITS[::10] = _words([f"{i:04d}".rstrip("0").rjust(4) for i in range(0, 10000, 10)])
_EXPONENT = _words([f"e-{e:02d}" for e in range(100)])
_ZERO = _words([f"{z:24.17g}" for z in (0.0, -0.0)]).reshape(2, 6)  # by negative
_COMMA, _CRLF = _words([",   ", "\r\n  "])
_ZERO_COMMA, _ZERO_CRLF = _words([",0, ", ",0\r\n"])  # after re_j of a real signal


def _format_slots(x: np.ndarray, slots: np.ndarray) -> None:
    """Write "%.17g" of each x into the first six words of its row of slots."""
    a = np.abs(x)
    ok = (a >= 1e-99) & (a < 1.0)
    a[~ok] = 1e-50  # any value in range; these slots are overwritten below
    e = np.floor(np.log10(a)).astype(np.int64)
    np.clip(e, _E_LO, _E_HI, out=e)
    i = _E_HI - e
    hh, hl, lo = _POW_HH[i], _POW_HL[i], _POW_LO[i]
    p = a * _POW_HI[i]  # an integer: it is above 2**53
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    r = np.floor(err + 0.5)
    d = p.astype(np.int64) + r.astype(np.int64)
    # scalar floor division; numpy's divmod is several times slower
    lead = d // 10**16
    tail = d - lead * 10**16
    hi8 = tail // 10**8
    lo8 = tail - hi8 * 10**8
    g1 = hi8 // 10**4
    g3 = lo8 // 10**4
    g4 = lo8 - g3 * 10**4
    ok &= (lead >= 1) & (lead <= 9) & (g4 != 0) & (np.abs(err - r) < 0.5 - _TIE_MARGIN)
    np.clip(lead, 0, 9, out=lead)
    neg = np.signbit(x)
    slots[:, 0] = _HEAD[lead + 10 * neg]
    slots[:, 1] = _DIGITS[g1]
    slots[:, 2] = _DIGITS[hi8 - g1 * 10**4]
    slots[:, 3] = _DIGITS[g3]
    slots[:, 4] = _LAST_DIGITS[g4]
    slots[:, 5] = _EXPONENT[-e]
    fixed = np.flatnonzero(ok & (e >= -4))
    if fixed.size:  # the digit groups move one word right, after "0." and -E - 1 zeros
        slots[fixed, 2:6] = slots[fixed, 1:5]
        head = (lead + 10 * (-1 - e) + 40 * neg)[fixed]
        slots[fixed, :2] = _FIXED_HEAD[head]
    zero = x == 0.0
    slots[zero, :6] = _ZERO[neg[zero].view(np.uint8)]
    rest = np.flatnonzero(~(ok | zero))
    if rest.size:
        # "%24.17g" is "%.17g" padded on the left to 24 bytes, its longest output
        text = (b"%24.17g" * rest.size) % tuple(x[rest].tolist())
        slots[rest, :6] = np.frombuffer(text, "<u4").reshape(rest.size, 6)


def _write_rows(
    fh, times: np.ndarray, cols: np.ndarray, seps: np.ndarray, lo: int, hi: int
) -> None:
    """Write rows lo..hi-1: t and the cols, each number followed by its word of seps."""
    width = 1 + cols.shape[1]
    rows = max(1, _CHUNK_NUMBERS // width)
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        x = np.empty((stop - start, width))
        x[:, 0] = times[start:stop]
        x[:, 1:] = cols[start:stop]
        slots = np.empty((stop - start, width, _SLOT_WORDS), "<u4")
        _format_slots(x.ravel(), slots.reshape(-1, _SLOT_WORDS))
        slots[:, :, 6] = seps
        text = slots.view(np.uint8)
        fh.write(text[text != _SPACE].tobytes())


def _sibling(path: str, suffix: str) -> str:
    """A fresh hidden name next to path, so os.replace stays on one file system."""
    directory, name = os.path.split(os.path.abspath(path))
    return os.path.join(directory, f".{name}.{os.urandom(6).hex()}{suffix}")


def _write_part(
    part: str, times: np.ndarray, cols: np.ndarray, seps: np.ndarray, lo: int, hi: int
) -> None:
    """Body of a forked writer: format rows lo..hi-1 into part."""
    with open(part, "xb") as fh:
        _write_rows(fh, times, cols, seps, lo, hi)


def write_signal_csv(u: WeightedSignal, path: str) -> None:
    """Write u as CSV, replacing path atomically.

    Every number is written as "%.17g": the vectorized kernel above
    formats those with 1e-99 <= |x| < 1 and "%.17g" itself the rest, with
    the same bytes either way.  Of a float64 signal only t and the re_j
    are formatted and each im_j is the "0" of a fixed separator, the bytes
    of its complex copy.  Formatting is still most of the cost of a large
    file, so the rows are split into contiguous blocks, at most one
    per usable CPU and per MIN_DOUBLES_PER_WORKER numbers formatted.  The
    parent formats block 0 into a temporary file next to path; each other
    block is formatted by a child forked through _Forked into its own part
    file, which the parent appends in order.  The bytes do not depend on
    the number of blocks.  path is replaced only once every block is complete;
    on any failure the temporary and part files are removed and the
    OSError raised names path and the block.
    """
    header = ["t"]
    for j in range(u.dim):
        header += [f"re_{j}", f"im_{j}"]
    # a real signal's re_j alone, each im_j the "0" of the word after it;
    # a complex one as its (n, 2*dim) float view: re_0, im_0, re_1, ...
    if u.dim and not np.iscomplexobj(u.values):
        cols, seps = u.values, [_COMMA] + [_ZERO_COMMA] * (u.dim - 1) + [_ZERO_CRLF]
    else:
        cols, seps = u.values.view(np.float64), [_COMMA] * (2 * u.dim) + [_CRLF]
    seps = np.array(seps)
    times = u.grid.times
    n = u.grid.n
    n_blocks = _worker_count(min(n * (1 + cols.shape[1]) // MIN_DOUBLES_PER_WORKER, n))
    bounds = [n * b // n_blocks for b in range(n_blocks + 1)]
    tmp = _sibling(path, ".tmp")
    part_files = [_sibling(path, f".part{b}") for b in range(1, n_blocks)]
    blocks = [
        f"block {b} of {n_blocks} (rows {bounds[b]}-{bounds[b + 1] - 1})" for b in range(n_blocks)
    ]
    where = blocks[0]
    try:
        with _Forked() as writers:
            # Fork before the parent opens any file.
            for b, part in enumerate(part_files, 1):
                where = blocks[b]
                writers.fork(
                    functools.partial(
                        _write_part, part, times, cols, seps, bounds[b], bounds[b + 1]
                    )
                )
            where = blocks[0]
            with open(tmp, "xb") as fh:
                fh.write((",".join(header) + "\r\n").encode())
                _write_rows(fh, times, cols, seps, 0, bounds[1])
                for b, part in enumerate(part_files, 1):
                    where = blocks[b]
                    code = writers.join()
                    if code != 0:
                        raise OSError(f"its writer exited with status {code}")
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh)
        where = "the final rename"
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {where}: {exc}") from exc
    finally:
        for name in (tmp, *part_files):
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)


def read_signal_csv(path: str, grid: WeightedGrid) -> WeightedSignal:
    """Read a signal written by write_signal_csv onto a known grid.

    The time column must match the grid times; there is no resampling.
    The signal is float64 when every im_j reads as +0.0, else complex128.
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
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise ValueError(f"{path}: row {int(np.argmin(finite)) + 1} holds a non-finite sample")
    if not np.allclose(data[:, 0], grid.times, rtol=0, atol=1e-9 * max(grid.dt, 1.0)):
        raise ValueError(f"{path}: time column does not match the scenario grid")
    if data[:, 2::2].view(np.uint64).any():  # an im_j other than +0.0, or -0.0
        # pairs (re_j, im_j) reinterpreted as complex, which keeps the sign of a zero
        return WeightedSignal(grid, np.ascontiguousarray(data[:, 1:]).view(complex))
    return WeightedSignal(grid, data[:, 1::2])
