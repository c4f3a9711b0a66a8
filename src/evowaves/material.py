"""Material laws: holomorphic operator functions of the inverse time derivative.

A material law is M(z) = M0 + z * M1(z) with M0 Hermitian positive
definite and M1 rational, holomorphic and bounded on the ball B(r, r).
It acts per frequency: the weighted Fourier transform turns the inverse time
derivative into multiplication by 1/w at the grid's points w = i s + rho
(WeightedGrid.w), so the law is its symbol law_symbol(law, w) = M(1/w).  Those
points lie in the ball exactly when Re w > 1/(2 r): a hard precondition.

Two constants summarize a law for the solvability theory: the coercivity
of the instantaneous part (smallest eigenvalue of M0) and a bound on the
memory part (the exact sup of ||M1|| over the operating frequency circle,
the end s = +-inf included).  Their combination
rho * coercivity - memory_bound is the margin that controls the energy
estimate; it must be positive, which bounds admissible rho from below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rational import RationalMatrixFunction, _circle_fraction, _extremum

__all__ = [
    "MaterialLaw",
    "MaterialLawError",
    "law_symbol",
    "coercivity",
    "memory_bound",
    "select_rho",
]


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


def _check_rho(law: MaterialLaw, rho: float) -> None:
    if not rho > 1.0 / (2.0 * law.r):
        raise MaterialLawError(
            f"rho={rho} too small: the functional calculus needs rho > 1/(2r) = {1.0 / (2.0 * law.r)}"
        )


def law_symbol(law: MaterialLaw, w: np.ndarray) -> np.ndarray:
    """M evaluated at z_k = 1/w_k, for points w_k with Re w_k > 1/(2r); shape (len(w), d, d)."""
    _check_rho(law, np.min(np.real(w)))
    zs = 1.0 / np.asarray(w)
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
    """sup of ||M1(1/w)||_2 over the circle w = i s + rho, the end s = +-inf (z = 0) included.

    For a diagonal M1, which EvoProblem requires, the exact max_j sup |m_jj|;
    for any other M1 the exact sup of the Frobenius norm, a rigorous bound.
    Either is raised by the rounding slack of rational._circle_fraction.
    """
    _check_rho(law, rho)
    m1 = law.m1
    if m1.is_zero():
        return 0.0
    num, den, slack = _circle_fraction(m1, rho)
    eye = np.eye(law.dim, dtype=bool)
    blocks = [np.diag(e) for e in eye] if not (num.any(axis=2) & ~eye).any() else [np.ones_like(eye)]
    sup2 = max(
        _extremum(
            sum(np.convolve(n, n.conj()).real for n in num[b]), np.convolve(den, den.conj()).real,
            lambda w, b=b: (np.abs(m1.eval_many(1.0 / w)[:, b]) ** 2).sum(axis=1),
            rho, largest=True, even=m1.is_real(),
        )
        for b in blocks
    )
    return float(np.sqrt(sup2)) * (1.0 + slack)


def select_rho(law: MaterialLaw, r_effective: float | None = None) -> float:
    """Default weight choice satisfying both lower bounds with margin.

    Picks rho = 2 * mu / gamma + 1/(2 r) + 1 where mu is the memory bound at
    the smallest weight probed, 1/(2 r) + 1.  A larger weight's circle lies
    inside that circle's disc, so by the maximum principle its sup is no
    greater: mu bounds the memory part at the chosen rho too.
    """
    r_eff = law.r if r_effective is None else min(law.r, r_effective)
    gamma = coercivity(law)
    mu = memory_bound(law, 1.0 / (2.0 * r_eff) + 1.0)
    return 2.0 * mu / gamma + 1.0 / (2.0 * r_eff) + 1.0
