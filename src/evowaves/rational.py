"""Matrix-valued rational functions in partial-fraction form.

The representation is

    R(z) = const + lin * z + sum_m residues[m] / (z - poles[m])

with simple poles only.  The linear term is included because the two
degree-one cases the solver needs (the plain antiderivative symbol z and
the Robin boundary kernel k*z) are polynomials; everything else lives in
the constant-plus-poles part.  The form evaluates in closed form at any
batch of points and converts directly into the poles and residues in
w = 1/z that the time stepper realizes.

Functions intended as operator symbols must be holomorphic on the ball
B(r, r) = {z : |z - r| <= r}; `check_holomorphic` verifies the pole
locations.  On the operating circle z = 1/w, w = rho (1 + i t) (`_circle`),
a norm or a real part of the function is a real rational function of t,
whose exact extrema `_extremum` finds: memory bound and boundary sign margin.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly

__all__ = [
    "RationalMatrixFunction",
    "scalar_rational",
    "PoleError",
]


class PoleError(ValueError):
    """Evaluation requested at (or too near) a pole."""


@dataclass(frozen=True)
class RationalMatrixFunction:
    const: np.ndarray = field(repr=False)
    lin: np.ndarray = field(repr=False)
    poles: np.ndarray = field(repr=False)
    residues: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.const, dtype=complex))
        d = c.shape[0]
        if c.shape != (d, d):
            raise ValueError(f"const must be square, got {c.shape}")
        lin = np.atleast_2d(np.asarray(self.lin, dtype=complex))
        if lin.shape != (d, d):
            raise ValueError(f"lin must match const shape {c.shape}, got {lin.shape}")
        p = np.asarray(self.poles, dtype=complex).reshape(-1)
        res = np.asarray(self.residues, dtype=complex).reshape(p.size, d, d)
        # nearly coincident poles make partial fractions ill-posed; repeated
        # poles are unsupported
        i, j = np.nonzero(np.triu(np.abs(p[:, None] - p) < 1e-8 * np.maximum(np.abs(p), 1e-300)[:, None], 1))
        if i.size:
            raise ValueError(
                f"poles {p[i[0]]} and {p[j[0]]} coincide or nearly coincide; "
                "only simple well-separated poles are supported"
            )
        for name, arr in (("const", c), ("lin", lin), ("poles", p), ("residues", res)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    @property
    def n_poles(self) -> int:
        return self.poles.size

    def is_zero(self) -> bool:
        return not (self.const.any() or self.lin.any() or self.residues.any())

    def is_real(self) -> bool:
        """Whether R(conj z) = conj R(z), the symbol of a kernel real in time.

        const and lin are real, and every pole is real with a real residue
        or is paired exactly with its conjugate carrying the conjugate residue.
        """
        if self.const.imag.any() or self.lin.imag.any():
            return False
        # pole j is the conjugate of pole m; the poles are distinct, so m is unique
        m, j = np.nonzero(self.poles.conj()[:, None] == self.poles[None, :])
        return m.size == self.n_poles and np.array_equal(self.residues[j], self.residues[m].conj())

    def eval_many(self, zs: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points; returns shape (len(zs), d, d)."""
        zs = np.asarray(zs, dtype=complex).reshape(-1)
        out = np.broadcast_to(self.const, (zs.size, self.dim, self.dim)).copy()
        out += zs[:, None, None] * self.lin
        for p, r in zip(self.poles, self.residues):
            dz = zs - p
            bad = np.abs(dz) < 1e-13 * max(abs(p), 1.0)
            if np.any(bad):
                raise PoleError(f"evaluation at z={zs[bad][0]} hits the pole p={p}")
            out += r[None, :, :] / dz[:, None, None]
        return out

    def check_holomorphic(self, r: float) -> None:
        """Verify holomorphy on B(r, r): every pole lies strictly outside the closed ball."""
        if not r > 0:
            raise ValueError(f"holomorphy radius must be positive, got {r}")
        dist = np.abs(self.poles - r)
        if np.any(dist <= r * (1 + 1e-12)):
            worst = self.poles[np.argmin(dist)]
            raise ValueError(
                f"pole at {worst} lies inside the closed ball of radius {r} "
                f"centered at {r}; the symbol is not holomorphic there"
            )


def _circle(rho: float) -> np.ndarray:
    """The operating circle w(t) = rho (1 + i t), t = s / rho, as ascending coefficients in t."""
    return np.array([rho, 1j * rho])


def _circle_fraction(fn: RationalMatrixFunction, rho: float) -> tuple[np.ndarray, np.ndarray, float]:
    """fn(1/w) = num(t) / den(t) on the circle w = _circle(rho), and the rounding slack there.

    num (d x d x k) and den (k) are ascending coefficients; den has no real
    root.  Rounding moves a point z of the circle |z - c| = c, c = 1/(2 rho),
    by about 1e-16 / rho, and r / (z - p) by a relative 1e-16 / (rho dist),
    dist = |p - c| - c: the slack is 1e-12 times the largest such factor above 1.
    """
    # r / (z - p) = r w / (1 - p w) and l z = l / w, over den = w prod(1 - p w)
    factors = [np.array([1.0 - p * rho, -1j * p * rho]) for p in fn.poles]
    prod = functools.reduce(np.convolve, factors, np.ones(1))
    den = np.convolve(prod, _circle(rho))
    num = fn.const[..., None] * den + fn.lin[..., None] * np.append(prod, 0.0)
    w2 = [rho**2, 2j * rho**2, -(rho**2)]  # _circle(rho) squared, in the bits of rho**2
    for m, res in enumerate(fn.residues):
        num = num + res[..., None] * functools.reduce(np.convolve, factors[:m] + factors[m + 1:], w2)
    c = 0.5 / rho
    return num, den, 1e-12 * float(np.max(1.0 / (rho * (np.abs(fn.poles - c) - c)), initial=1.0))


def _extremum(num: np.ndarray, den: np.ndarray, f, rho: float, largest: bool, even: bool) -> float:
    """Exact max (largest) or min of the real rational num/den over t in R and t = +-inf.

    The candidates are the real part of every root of num' den - num den'
    (a double root split by rounding is not lost), valued by f, the function
    itself on their points w of _circle(rho), and the ends from the leading
    coefficients, +-inf where num has the higher degree.  An even function
    (a kernel real in time) has its odd coefficients set to the zeros they are.
    """
    if even:
        num, den = num * (np.arange(num.size) % 2 == 0), den * (np.arange(den.size) % 2 == 0)
    num, den = npoly.polytrim(num), npoly.polytrim(den)
    gap = num.size - den.size
    crit = npoly.polysub(npoly.polymul(npoly.polyder(num), den), npoly.polymul(num, npoly.polyder(den)))
    if gap == 0:  # the leading terms cancel
        crit = npoly.polytrim(crit[: max(num.size + den.size - 3, 1)])
    up = np.copysign(np.inf, num[-1] / den[-1])
    ends = [0.0] if gap < 0 else [num[-1] / den[-1]] if gap == 0 else [up, up * (-1) ** gap]
    vals = np.concatenate([f(npoly.polyval(npoly.polyroots(crit).real, _circle(rho))), ends])
    return float(vals.max() if largest else vals.min())


def scalar_rational(
    const: complex = 0.0,
    lin: complex = 0.0,
    poles: np.ndarray | list | None = None,
    residues: np.ndarray | list | None = None,
) -> RationalMatrixFunction:
    """Convenience constructor for a 1x1 rational function."""
    p = np.asarray([] if poles is None else poles, dtype=complex)
    r = np.asarray([] if residues is None else residues, dtype=complex)
    return RationalMatrixFunction(
        const=np.array([[const]], dtype=complex),
        lin=np.array([[lin]], dtype=complex),
        poles=p,
        residues=r.reshape(p.size, 1, 1),
    )
