"""Matrix-valued rational functions in partial-fraction form.

The representation is

    R(z) = const + lin * z + sum_m residues[m] / (z - poles[m])

with simple poles only.  The linear term is included because the two
degree-one cases the solver needs (the plain antiderivative symbol z and
the Robin boundary kernel k*z) are polynomials; everything else lives in
the constant-plus-poles part.  The form is closed under evaluation and
conjugate transposition and converts directly into the state-space
recursions the time stepper uses.

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
    "fit_power_series",
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

    def is_zero(self, tol: float = 0.0) -> bool:
        return (
            np.abs(self.const).max(initial=0.0) <= tol
            and np.abs(self.lin).max(initial=0.0) <= tol
            and (self.n_poles == 0 or np.abs(self.residues).max(initial=0.0) <= tol)
        )

    def eval(self, z: complex) -> np.ndarray:
        return self.eval_many(np.asarray([z], dtype=complex))[0]

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

    def conj_transpose(self) -> "RationalMatrixFunction":
        """The function z -> R(conj(z))^H (the adjoint-symbol construction)."""
        return RationalMatrixFunction(
            const=self.const.conj().T,
            lin=self.lin.conj().T,
            poles=self.poles.conj(),
            residues=np.conj(np.swapaxes(self.residues, 1, 2)),
        )

    def check_holomorphic(self, r: float, n_boundary: int = 256) -> float:
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
        theta = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
        circle = r + r * np.exp(1j * theta)
        vals = self.eval_many(circle)
        sup = float(np.linalg.norm(vals, ord=2, axis=(1, 2)).max())
        if not np.isfinite(sup):
            raise ValueError("symbol is unbounded on the holomorphy ball")
        return sup

    @staticmethod
    def zero(dim: int) -> "RationalMatrixFunction":
        z = np.zeros((dim, dim), dtype=complex)
        return RationalMatrixFunction(z, z.copy(), np.zeros(0, complex), np.zeros((0, dim, dim), complex))

    @staticmethod
    def constant(mat: np.ndarray) -> "RationalMatrixFunction":
        mat = np.atleast_2d(np.asarray(mat, dtype=complex))
        d = mat.shape[0]
        return RationalMatrixFunction(
            mat, np.zeros((d, d), complex), np.zeros(0, complex), np.zeros((0, d, d), complex)
        )


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


def scalar_values(fn: RationalMatrixFunction, zs: np.ndarray) -> np.ndarray:
    if fn.dim != 1:
        raise ValueError("expected a scalar (1x1) rational function")
    return fn.eval_many(zs)[:, 0, 0]


def fit_power_series(
    coeffs: list[np.ndarray],
    r: float,
    n_poles: int = 20,
    pole_radius_factor: float = 3.0,
    n_samples: int = 1024,
) -> tuple[RationalMatrixFunction, float]:
    """Fit a power series sum_k a_k (z - r)^k by a partial-fraction function.

    This is a convenience converter for laws supplied as series
    coefficients: the series is sampled on the boundary circle of B(r, r)
    and fitted in least squares over the basis {1, z, 1/(z - p_m)} with
    poles fixed on a circle of radius pole_radius_factor * r around r
    (safely outside the closed ball).  The reachable residual scales like
    pole_radius_factor ** (-n_poles), a plain Fourier-resolution limit on
    the circle.  Returns the fitted function and the maximum relative
    residual on a finer check circle; callers decide whether the residual
    is acceptable.
    """
    if not coeffs:
        raise ValueError("need at least one series coefficient")
    mats = [np.atleast_2d(np.asarray(a, dtype=complex)) for a in coeffs]
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise ValueError("series coefficients must share one square shape")
    if pole_radius_factor <= 1.0:
        raise ValueError("poles must sit outside the closed holomorphy ball")

    phis = 2.0 * np.pi * (np.arange(n_poles) + 0.5) / n_poles
    poles = r + pole_radius_factor * r * np.exp(1j * phis)

    def series_at(zs: np.ndarray) -> np.ndarray:
        w = zs - r
        acc = np.zeros((zs.size, d, d), dtype=complex)
        wk = np.ones_like(zs)
        for a in mats:
            acc += wk[:, None, None] * a
            wk = wk * w
        return acc

    theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
    zs = r + r * np.exp(1j * theta)
    rhs = series_at(zs)

    basis = np.empty((zs.size, 2 + n_poles), dtype=complex)
    basis[:, 0] = 1.0
    basis[:, 1] = zs
    for m, p in enumerate(poles):
        basis[:, 2 + m] = 1.0 / (zs - p)
    sol, *_ = np.linalg.lstsq(basis, rhs.reshape(zs.size, d * d), rcond=None)
    sol = sol.reshape(2 + n_poles, d, d)

    fitted = RationalMatrixFunction(sol[0], sol[1], poles, sol[2:])

    check = r + r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4 * n_samples, endpoint=False))
    target = series_at(check)
    got = fitted.eval_many(check)
    scale = max(float(np.abs(target).max()), 1e-300)
    residual = float(np.abs(got - target).max() / scale)
    return fitted, residual
