import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evowaves import cli
from evowaves.material import MaterialLaw
from evowaves.rational import RationalMatrixFunction, scalar_rational
from evowaves.signals import WeightedGrid, WeightedSignal
from evowaves.solver import EvoProblem
from evowaves.spatial import BoundaryLaw, ReducedOperator, SpatialDiscretization, build_grid
from evowaves.transform import SpectralSignal, forward_transform, frequencies_for, inverse_transform

# A small rightward-pulse scenario for the reflection sweep (1024 samples, 128 cells).
SWEEP_CONFIG = """
[grid]
t0 = 0.0
window = 8.0
n = 1024
rho = 2.0

[space]
length = 1.0
cells = 128

[material]
r = 1.0
m0_re = 1 0 0 1

[boundary]
robin_k = 1.0

[source]
kind = rightward
t_center = 0.4
t_width = 0.05
x_center = 0.2
x_width = 0.05
"""


def bump(t: np.ndarray, center: float, width: float) -> np.ndarray:
    """Gaussian envelope; effectively compactly supported for width << window."""
    return np.exp(-(((t - center) / width) ** 2))


def interior_signal(
    grid: WeightedGrid,
    dim: int = 1,
    seed: int | None = None,
    center: float | None = None,
    width: float | None = None,
) -> WeightedSignal:
    """Random smooth signal supported well inside the window.

    Band-limited via a Gaussian spectral profile (in the weighted
    representation, which is what the discrete operators act on), then
    enveloped so both window edges are below 1e-12 of the peak.
    """
    rng = np.random.default_rng(seed)
    s = frequencies_for(grid)
    decay = np.exp(-((s / (0.15 * np.abs(s).max())) ** 2))
    coeff = rng.standard_normal((grid.n, dim)) + 1j * rng.standard_normal((grid.n, dim))
    coeff = np.fft.ifftshift(coeff, axes=0)  # row k of the draw goes to the k-th smallest s
    u = inverse_transform(SpectralSignal(grid, decay[:, None] * coeff))
    w = grid.window_length
    center = grid.t0 + 0.45 * w if center is None else center
    width = 0.07 * w if width is None else width
    return u.with_values(u.values * bump(grid.times, center, width)[:, None])


def apply_symbol(u: WeightedSignal, mats: np.ndarray) -> WeightedSignal:
    """Apply a per-frequency symbol on the signal's frequency grid.

    mats holds one (d, d) matrix per frequency, or one scalar per
    frequency that multiplies every component.  This is how the solver
    applies its operator: a material law acts as
    apply_symbol(u, law_symbol(law, frequencies_for(u.grid), u.grid.rho)),
    and the time derivative as the scalar symbol i s + rho.
    """
    u_hat = forward_transform(u)
    mats = np.asarray(mats)
    if mats.ndim == 1:
        vals = mats[:, None] * u_hat.values
    else:
        vals = np.einsum("kij,kj->ki", mats, u_hat.values)
    return inverse_transform(SpectralSignal(u.grid, vals))


def flux_boundary(sd: SpatialDiscretization, const: float, poles_w=(), residues_w=()) -> BoundaryLaw:
    """Boundary law with flux response c(w) = const + sum res/(w - pole), normal profile.

    c(w) = w g(1/w) inverts termwise: const becomes const * z, and
    res/(w - p) becomes res z^2/(1 - p z) = -res/p - (res/p^2)/(z - 1/p).
    """
    pw = np.asarray(poles_w, dtype=complex)
    rw = np.asarray(residues_w, dtype=complex)
    g = scalar_rational(const=-np.sum(rw / pw), lin=const, poles=1.0 / pw, residues=-rw / pw**2)
    return BoundaryLaw(g, *BoundaryLaw.normal_profile(sd), 1.0)


def constant_fn(mat) -> RationalMatrixFunction:
    """The rational function that is the matrix mat everywhere."""
    mat = np.asarray(mat, dtype=complex)
    return RationalMatrixFunction(mat, np.zeros_like(mat), [], [])


def zero_fn(dim: int) -> RationalMatrixFunction:
    """The dim x dim rational function that is zero everywhere."""
    return constant_fn(np.zeros((dim, dim)))


def zero_signal(grid: WeightedGrid, dim: int) -> WeightedSignal:
    """The signal on grid whose dim components are zero at every sample."""
    return WeightedSignal(grid, np.zeros((grid.n, dim)))


def identity_law(dim: int = 2, r: float = 1.0) -> MaterialLaw:
    return MaterialLaw(np.eye(dim), zero_fn(dim), r=r)


def memory_law(
    m0=(1.5, 1.0), pole=-0.5, res=(0.2, 0.1), const=(0.1, 0.05), r: float = 1.0
) -> MaterialLaw:
    m1 = RationalMatrixFunction(
        const=np.diag(const).astype(complex),
        lin=np.zeros((2, 2)),
        poles=np.array([pole], dtype=complex),
        residues=np.diag(res).astype(complex)[None, :, :],
    )
    return MaterialLaw(np.diag(m0).astype(complex), m1, r=r)


def make_problem(
    n_cells: int = 32,
    n: int = 512,
    rho: float = 3.0,
    window: float = 16.0,
    t0_frac: float = -0.3,
    robin_k: float | None = 0.8,
    law: MaterialLaw | None = None,
    bl: BoundaryLaw | None = None,
    t_center: float = 1.0,
    t_width: float = 0.4,
    length: float = 1.0,
) -> EvoProblem:
    """Standard test problem: pressure pulse in a memory medium, Robin ends."""
    sd = build_grid(length, n_cells)
    grid = WeightedGrid(t0=t0_frac * window, dt=window / n, n=n, rho=rho)
    if law is None:
        law = memory_law()
    if bl is None:
        bl = BoundaryLaw.robin(0.0 if robin_k is None else robin_k, sd)
    t, x = grid.times, sd.cell_x
    fp = bump(t, t_center, t_width)[:, None] * bump(x, 0.5 * length, 0.12 * length)[None, :]
    f = WeightedSignal(grid, np.concatenate([fp, np.zeros((n, n_cells - 1))], axis=1))
    return EvoProblem(grid, sd, law, bl, f)


def run_child(*args: str, timeout: float | None = None, **env: str) -> subprocess.CompletedProcess:
    """Run python with args and env added to the environment.

    The child imports evowaves from where this process found it.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
        timeout=timeout,
    )


def corrupt_solve(monkeypatch) -> None:
    """Make ReducedOperator.solve scale U_hat by 1 + 1e-6 at the source's strongest frequency."""
    solve = ReducedOperator.solve

    def corrupted(op, rhs):
        u_hat, pivoted = solve(op, rhs)
        u_hat[np.linalg.norm(rhs, axis=1).argmax()] *= 1.0 + 1e-6
        return u_hat, pivoted

    monkeypatch.setattr(ReducedOperator, "solve", corrupted)


@pytest.fixture
def grid() -> WeightedGrid:
    return WeightedGrid(t0=-2.0, dt=0.01, n=1024, rho=2.0)


@pytest.fixture
def problem() -> EvoProblem:
    return make_problem()
