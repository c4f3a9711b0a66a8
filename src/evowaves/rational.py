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
locations and samples the boundary circle for boundedness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RationalMatrixFunction",
    "scalar_rational",
    "PoleError",
]

N_BOUNDARY = 256  # boundary-circle samples of check_holomorphic


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
        res = np.asarray(self.residues, dtype=complex)
        if p.size == 0:
            res = np.zeros((0, d, d), dtype=complex)
        else:
            res = res.reshape(p.size, d, d)
        # nearly coincident poles make partial fractions ill-posed; repeated
        # poles are unsupported
        for i in range(p.size):
            for j in range(i + 1, p.size):
                if abs(p[i] - p[j]) < 1e-8 * max(abs(p[i]), 1e-300):
                    raise ValueError(
                        f"poles {p[i]} and {p[j]} coincide or nearly coincide; "
                        "only simple well-separated poles are supported"
                    )
        for arr in (c, lin, p, res):
            arr.setflags(write=False)
        object.__setattr__(self, "const", c)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "poles", p)
        object.__setattr__(self, "residues", res)

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

    def check_holomorphic(self, r: float) -> float:
        """Verify holomorphy on B(r, r); returns the sampled sup norm there.

        Poles must lie strictly outside the closed ball.  Boundedness is
        checked by sampling the boundary circle (the maximum principle then
        covers the interior).
        """
        if not r > 0:
            raise ValueError(f"holomorphy radius must be positive, got {r}")
        dist = np.abs(self.poles - r)
        if np.any(dist <= r * (1 + 1e-12)):
            worst = self.poles[np.argmin(dist)]
            raise ValueError(
                f"pole at {worst} lies inside the closed ball of radius {r} "
                f"centered at {r}; the symbol is not holomorphic there"
            )
        theta = np.linspace(0.0, 2.0 * np.pi, N_BOUNDARY, endpoint=False)
        circle = r + r * np.exp(1j * theta)
        vals = self.eval_many(circle)
        sup = float(np.linalg.norm(vals, ord=2, axis=(1, 2)).max())
        if not np.isfinite(sup):
            raise ValueError("symbol is unbounded on the holomorphy ball")
        return sup


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
