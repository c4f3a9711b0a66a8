"""Correctness checks computed apart from the program.

Each check returns an error string, or None when it holds.  The
references here use only numpy and the scenario's numbers, never the
program's solvers; `controls()` in each workload feeds every check a
deliberately wrong input and requires it to fail, because a check that
cannot fail verifies nothing.
"""

from __future__ import annotations

import numpy as np

# --- tolerances (README.md explains each) ---------------------------------
CHARACTERISTIC_TOL = 0.02      # relative max error against the transported pulse
ENERGY_TOL = 1.02              # energy_ratio * beta0, same 2% slack as the program
REFLECTION_TOL = 0.02          # |R - (1-k)/(1+k)|
ABSORBED_MIN = 0.999           # absorbed energy fraction at the matched k = 1
RESIDUAL_MAX = 1e-10           # relative residual of solve_frequency
RATIO_RANGE = (1.7, 2.3)       # gap shrink per halved step (implicit Euler: 2)
MIN_ZERO_PREFIX = 10           # samples; fewer would make the causality check vacuous


def transported_pressure(x: float, t: np.ndarray, src: dict, shift: float = 0.0) -> np.ndarray:
    """Pressure of the lossless wave equation with matched ends.

    For p_t + v_x = f_p and v_t + p_x = f_v with the rightward source
    f_p = f_v = w(t) g(x), the characteristic q+ = p + v obeys
    q+_t + q+_x = 2 w g and q- = p - v stays zero.  So
    p = q+/2 = integral of w(tau) g(x - (t - tau)) dtau, evaluated here by
    the trapezoid rule on 4001 nodes over +-8 pulse widths.  `shift`
    moves the probe point, for the negative control.
    """
    tc, tw = src["t_center"], src["t_width"]
    tau = np.linspace(tc - 8.0 * tw, tc + 8.0 * tw, 4001)
    w = src["amplitude"] * np.exp(-(((tau - tc) / tw) ** 2))
    arg = (x + shift) - (t[:, None] - tau[None, :])
    inside = (arg > 0.0) & (arg < src["length"])
    g = np.exp(-(((arg - src["x_center"]) / src["x_width"]) ** 2)) * inside
    return np.trapezoid(w[None, :] * g, tau, axis=1)


def check_characteristic(p: np.ndarray, p_ref: np.ndarray, cell: int) -> str | None:
    err = float(np.abs(p - p_ref).max() / np.abs(p_ref).max())
    if err > CHARACTERISTIC_TOL:
        return f"cell {cell}: pressure differs from the transported pulse by {err:.4f} > {CHARACTERISTIC_TOL}"
    return None


def check_round_trip(tokens: list[str], where: str) -> str | None:
    """Every number must be written with enough digits to read back bit-exactly."""
    for tok in tokens:
        if format(float(tok), ".17g") != tok:
            return f"{where}: token {tok!r} does not read back bit-exactly"
    return None


def sup_memory_norm(m1, rho: float, n_dense: int = 20000) -> float:
    """sup of ||M1(z)||_2 on the operating circle |z - c| = c, c = 1/(2 rho).

    M1 is summed from its partial fractions.  The dense circle is joined
    by the circle point nearest each pole, where a near-pole peak narrower
    than the dense spacing sits.
    """
    c = 1.0 / (2.0 * rho)
    z = c + c * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_dense, endpoint=False))
    nearest = [c + c * (q - c) / abs(q - c) for q in m1.poles if abs(q - c) > 0]
    z = np.concatenate([z, np.asarray(nearest, dtype=complex)])
    vals = m1.const[None, :, :] + z[:, None, None] * m1.lin[None, :, :]
    for q, r in zip(m1.poles, m1.residues):
        vals = vals + r[None, :, :] / (z - q)[:, None, None]
    return float(np.linalg.norm(vals, ord=2, axis=(1, 2)).max())


def own_beta0(m0: np.ndarray, m1, rho: float) -> float:
    """rho * gamma0 - sup ||M1||, with both constants computed here."""
    return rho * float(np.linalg.eigvalsh(m0).min()) - sup_memory_norm(m1, rho)


def check_energy(energy_ratio: float, beta0: float, what: str) -> str | None:
    if energy_ratio * beta0 > ENERGY_TOL:
        return f"{what}: energy_ratio * beta0 = {energy_ratio * beta0:.4f} > {ENERGY_TOL}"
    return None


def check_reflection(rows: list[dict], k_of_row=lambda k: k) -> str | None:
    """|R_measured - (1-k)/(1+k)| within tolerance; k_of_row is for the control."""
    for row in rows:
        k = k_of_row(row["k"])
        exact = (1.0 - k) / (1.0 + k)
        if abs(row["R_measured"] - exact) > REFLECTION_TOL:
            return f"k={row['k']}: R={row['R_measured']:.5f} but (1-k)/(1+k)={exact:.5f}"
    return None


def check_absorbed(reflected_fraction: float) -> str | None:
    if 1.0 - reflected_fraction < ABSORBED_MIN:
        return f"absorbed fraction {1.0 - reflected_fraction:.6f} < {ABSORBED_MIN}"
    return None


def check_verdicts(rows: list[dict], names: tuple[str, ...]) -> str | None:
    """checks.csv: each verdict recomputed as margin >= -tolerance, all passing."""
    got = tuple(row["name"] for row in rows)
    if got != names:
        return f"checks.csv lists {got}, expected {names}"
    for row in rows:
        verdict = float(row["margin"]) >= -float(row["tolerance"])
        if str(verdict) != row["pass"]:
            return f"checks.csv verdict for {row['name']} is {row['pass']}, recomputed {verdict}"
        if not verdict:
            return f"check {row['name']} failed: margin {row['margin']} tol {row['tolerance']}"
    return None


def check_inadmissible(rc: int, stderr: str) -> str | None:
    if rc != 4 or "boundary_sign" not in stderr:
        return f"inadmissible variant: exit {rc}, stderr {stderr.strip()!r}; expected exit 4 naming boundary_sign"
    return None


def check_residual(residual: float) -> str | None:
    if not residual <= RESIDUAL_MAX:
        return f"solve_frequency residual {residual:.3e} > {RESIDUAL_MAX}"
    return None


def check_zero_prefix(u: np.ndarray, f: np.ndarray) -> str | None:
    """Stepper output must be exactly zero before the first nonzero source sample."""
    nonzero = np.flatnonzero(np.any(f != 0.0, axis=1))
    start = int(nonzero[0]) if nonzero.size else f.shape[0]
    if start < MIN_ZERO_PREFIX:
        return f"source starts at sample {start}: too short a prefix to test causality"
    if np.any(u[:start] != 0.0):
        first = int(np.flatnonzero(np.any(u[:start] != 0.0, axis=1))[0])
        return f"stepper solution nonzero at sample {first}, before the source starts at {start}"
    return None


def weighted_gap(a: np.ndarray, b: np.ndarray, times: np.ndarray, dt: float, rho: float) -> float:
    """||a - b|| / ||a|| in the trapezoid exp(-2 rho t) norm."""
    w = np.full(times.size, dt) * np.exp(-2.0 * rho * times)
    w[0] *= 0.5
    w[-1] *= 0.5
    num = np.sum(w * np.sum(np.abs(a - b) ** 2, axis=1))
    den = np.sum(w * np.sum(np.abs(a) ** 2, axis=1))
    return float(np.sqrt(num / den))


def check_first_order(gaps: list[float]) -> str | None:
    lo, hi = RATIO_RANGE
    ratios = [gaps[i] / gaps[i + 1] for i in range(len(gaps) - 1)]
    if not all(lo <= r <= hi for r in ratios):
        return f"gap ratios {['%.3f' % r for r in ratios]} outside [{lo}, {hi}]"
    return None


def check_audit(mu0: float, sup: float, label: str) -> str | None:
    if mu0 < sup:
        return f"{label}: reported mu0 {mu0:.6g} is below the sup of ||M1|| on the circle, {sup:.6g}"
    return None
