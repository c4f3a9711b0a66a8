"""Material laws: holomorphic operator functions of the inverse time derivative.

A material law is M(z) = M0 + z * M1(z) with M0 Hermitian positive
definite and M1 rational, holomorphic and bounded on the ball B(r, r).
It acts per frequency: the weighted Fourier transform turns the inverse
time derivative into multiplication by z_k = 1/(i s_k + rho), so the law
is its symbol law_symbol(law, s, rho) = M(z_k).  Those points fill the
ball exactly when rho > 1/(2 r), which is therefore a hard precondition.

Two constants summarize a law for the solvability theory: the coercivity
of the instantaneous part (smallest eigenvalue of M0) and a bound on the
memory part (sampled sup of ||M1|| over the operating frequency circle).
Their combination rho * coercivity - memory_bound is the margin that
controls the energy estimate; it must be positive, which bounds admissible
rho from below.  The sampled memory bound carries a 5% safety factor since
sampling can miss peaks between frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import RationalMatrixFunction

__all__ = [
    "MaterialLaw",
    "MaterialLawError",
    "law_symbol",
    "coercivity",
    "memory_bound",
    "select_rho",
]

MEMORY_BOUND_SAFETY = 1.05
N_MEMORY_SAMPLES = 512  # frequencies memory_bound samples on the operating circle


class MaterialLawError(ValueError):
    """A material law violates one of its structural invariants."""


@dataclass(frozen=True)
class MaterialLaw:
    """Instantaneous part m0 plus memory part z * m1(z), holomorphic on B(r, r)."""

    m0: np.ndarray
    m1: RationalMatrixFunction
    r: float

    def __post_init__(self) -> None:
        m0 = np.atleast_2d(np.asarray(self.m0, dtype=complex))
        d = m0.shape[0]
        if m0.shape != (d, d):
            raise MaterialLawError(f"m0 must be square, got {m0.shape}")
        scale = max(float(np.abs(m0).max()), 1e-300)
        if np.abs(m0 - m0.conj().T).max() > 1e-12 * scale:
            raise MaterialLawError("m0 must be Hermitian")
        if self.m1.dim != d:
            raise MaterialLawError(
                f"m1 dimension {self.m1.dim} does not match m0 dimension {d}"
            )
        if not self.r > 0:
            raise MaterialLawError(f"holomorphy radius must be positive, got {self.r}")
        self.m1.check_holomorphic(self.r)
        m0.setflags(write=False)
        object.__setattr__(self, "m0", m0)

    @property
    def dim(self) -> int:
        return self.m0.shape[0]

    def rho_floor(self) -> float:
        """Smallest admissible weight from the holomorphy constraint alone."""
        return 1.0 / (2.0 * self.r)


def _check_rho(law: MaterialLaw, rho: float) -> None:
    floor = law.rho_floor()
    if not rho > floor:
        raise MaterialLawError(
            f"rho={rho} too small: the functional calculus needs rho > 1/(2r) = {floor}"
        )


def _frequency_points(s: np.ndarray, rho: float) -> np.ndarray:
    return 1.0 / (1j * np.asarray(s, dtype=float) + rho)


def law_symbol(law: MaterialLaw, s: np.ndarray, rho: float) -> np.ndarray:
    """M evaluated at z_k = 1/(i s_k + rho); shape (len(s), d, d)."""
    _check_rho(law, rho)
    zs = _frequency_points(s, rho)
    return law.m0[None, :, :] + zs[:, None, None] * law.m1.eval_many(zs)


def coercivity(law: MaterialLaw) -> float:
    """Smallest eigenvalue of the Hermitian instantaneous part."""
    gamma = float(np.linalg.eigvalsh(law.m0).min())
    if gamma <= 0:
        raise MaterialLawError(
            f"instantaneous part is not strictly positive definite (min eig {gamma:.3e})"
        )
    return gamma


def memory_bound(law: MaterialLaw, rho: float) -> float:
    """Sampled sup of ||M1(1/(i s + rho))|| over frequencies, times a 5% safety factor.

    Frequencies are sampled through s = rho * tan(theta), which traces the
    whole circle {1/(i s + rho)} uniformly including its s -> +-inf limit.
    """
    _check_rho(law, rho)
    if law.m1.is_zero():
        return 0.0
    theta = np.linspace(-np.pi / 2, np.pi / 2, N_MEMORY_SAMPLES + 2)[1:-1]
    s = rho * np.tan(theta)
    zs = np.concatenate([_frequency_points(s, rho), [0.0 + 0.0j]])
    norms = np.linalg.norm(law.m1.eval_many(zs), ord=2, axis=(1, 2))
    if not np.all(np.isfinite(norms)):
        raise MaterialLawError("memory part is unbounded across sampled frequencies")
    return float(norms.max()) * MEMORY_BOUND_SAFETY


def select_rho(law: MaterialLaw, r_effective: float | None = None) -> float:
    """Default weight choice satisfying both lower bounds with margin.

    Picks rho = 2 * mu / gamma + 1/(2 r) + 1 where mu is the memory bound
    estimated at the smallest admissible weight (which overestimates the
    bound at the final, larger weight, so the margin is safe).
    """
    r_eff = law.r if r_effective is None else min(law.r, r_effective)
    gamma = coercivity(law)
    rho_probe = 1.0 / (2.0 * r_eff) + 1.0
    mu = memory_bound(law, rho_probe)
    return 2.0 * mu / gamma + 1.0 / (2.0 * r_eff) + 1.0
