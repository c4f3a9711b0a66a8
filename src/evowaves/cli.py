"""Command-line front end.

Subcommands:
    solve            solve a scenario, write U.csv and report.txt
    verify           run the estimate checks, write checks.csv
    sweep-reflection sweep the proportional boundary coefficient and
                     compare measured against analytic reflection
    dump-config      echo the canonical form of a scenario file

Exit codes: 0 success, 2 config parse error, 3 solver/setup or output
error, 4 a verified bound or check failed.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_scenario
from .signals import WeightedSignal, write_signal_csv
from .solver import SolverError, solve_boundary_family, solve_frequency
from .spatial import BoundaryLaw, SpatialDiscretization
from .verify import run_all_checks, write_checks_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_BOUNDS = 4

RESIDUAL_PASS = 1e-10
REFLECTION_TOL = 0.02


def _output_error(exc: OSError) -> int:
    """Report a failure to create or write an output; exit as a setup error."""
    print(f"output error: {exc}", file=sys.stderr)
    return EXIT_SOLVER


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        sys.stdout.write(scenario.dump())
        return EXIT_OK
    try:
        prob = scenario.build()
        report = solve_frequency(prob)
    except (SolverError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_signal_csv(report.solution, str(out / "U.csv"))
        (out / "report.txt").write_text(report.to_text())
    except OSError as exc:
        return _output_error(exc)
    sys.stdout.write(report.to_text())
    residual_ok = report.residual_rel <= RESIDUAL_PASS
    if residual_ok and report.bounds_ok():
        return EXIT_OK
    print(
        f"bound violation: residual_ok={residual_ok} "
        f"energy_bound_ok={report.energy_bound_ok()} "
        f"causality_ok={report.causality_ok()}",
        file=sys.stderr,
    )
    return EXIT_BOUNDS


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.dump_config:
        sys.stdout.write(scenario.dump())
        return EXIT_OK
    try:
        prob = scenario.build()
        if not scenario.checks:
            print("warning: empty check list, nothing verified")
            return EXIT_OK
        results = run_all_checks(prob, seed=args.seed, names=scenario.checks)
    except (SolverError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_checks_csv(results, str(out / "checks.csv"))
    except OSError as exc:
        return _output_error(exc)
    all_ok = True
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name:24s} margin={res.margin:+.6e} tol={res.tolerance:.1e}")
        all_ok = all_ok and res.passed
    if all_ok:
        return EXIT_OK
    failed = [res.name for res in results if not res.passed]
    print(f"checks failed: {', '.join(failed)}", file=sys.stderr)
    return EXIT_BOUNDS


def probe_rows(sd: SpatialDiscretization) -> list[int]:
    """Stacked rows that measure_reflection reads: p at the middle cell, v at its two faces."""
    c = sd.n_cells // 2
    return [c, sd.n_cells + c - 1, sd.n_cells + c]


def measure_reflection(
    sd: SpatialDiscretization, probe: WeightedSignal, x_source: float, t_source: float
) -> tuple[float, float]:
    """Measured reflection coefficient and reflected-energy fraction.

    probe holds the probe_rows of a solution.  The scenario's rightward
    pulse leaves clean characteristic variables: at the probe, the middle
    cell, p + v carries the incident wave and p - v the reflection off the
    far end.  Both are time-gated around their known arrival times, and
    the coefficient is a least-squares fit of the gated reflection
    against the lag-aligned incident trace.
    """
    grid = probe.grid
    p, v_left, v_right = probe.values.T
    v_cell = 0.5 * (v_left + v_right)
    x_probe = sd.cell_x[sd.n_cells // 2]
    q_plus = (p + v_cell).real
    q_minus = (p - v_cell).real
    t = grid.times
    length = sd.length
    t_inc = t_source + (x_probe - x_source)
    t_ref = t_source + (2.0 * length - x_source - x_probe)
    half_gate = 0.45 * (t_ref - t_inc)
    gate_ref = (t > t_ref - half_gate) & (t < t_ref + half_gate)
    gate_inc = (t > t_inc - half_gate) & (t < t_inc + half_gate)
    energy_inc = float(np.sum(q_plus[gate_inc] ** 2))
    energy_ref = float(np.sum(q_minus[gate_ref] ** 2))
    if energy_inc <= 0:
        raise SolverError("no incident energy at the probe; check the pulse scenario")
    lag = int(round((t_ref - t_inc) / grid.dt))
    q_plus_shifted = np.roll(q_plus, lag)
    denom = float(np.sum(q_plus_shifted[gate_ref] ** 2))
    r_measured = float(np.sum(q_minus[gate_ref] * q_plus_shifted[gate_ref]) / denom)
    return r_measured, energy_ref / energy_inc


def cmd_sweep_reflection(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.config)
        if scenario.source_kind != "rightward":
            raise ConfigError("sweep-reflection needs a source with kind = rightward")
        k_values = [float(tok) for tok in args.k_list.split(",") if tok.strip()]
        if not k_values:
            raise ConfigError("empty --k-list")
        if not np.isfinite(k_values).all():
            raise ConfigError(f"--k-list values must be finite, got {args.k_list}")
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    max_err = 0.0
    bad_residuals = []
    try:
        base = scenario.build()
        laws = [BoundaryLaw.robin(k, base.sd, r=scenario.boundary_r) for k in k_values]
        min_flux = [bl.min_real_flux(base.grid.rho) for bl in laws]
        inadmissible = [
            f"k={k:g} min_real_flux={m:.6g}" for k, m in zip(k_values, min_flux) if m < 0
        ]
        if inadmissible:
            print(f"inadmissible boundary law: {'; '.join(inadmissible)}", file=sys.stderr)
            return EXIT_BOUNDS
        family = solve_boundary_family(base, laws, probe_rows(base.sd))
        for k, (probe, bound) in zip(k_values, family):
            r_meas, energy_frac = measure_reflection(
                base.sd, probe, x_source=scenario.x_center, t_source=scenario.t_center
            )
            if bound > RESIDUAL_PASS:
                bad_residuals.append(f"k={k:g} residual_rel={bound:.3e}")
            r_exact = (1.0 - k) / (1.0 + k)
            err = abs(r_meas - r_exact)
            max_err = max(max_err, err)
            rows.append((k, r_meas, r_exact, err, energy_frac))
            print(
                f"k={k:8.3f}  R_measured={r_meas:+.6f}  R_analytic={r_exact:+.6f}  "
                f"abs_error={err:.6f}  reflected_energy_fraction={energy_frac:.3e}  "
                f"residual_bound={bound:.3e}"
            )
    except (SolverError, ValueError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "reflection.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "R_measured", "R_analytic", "abs_error", "reflected_energy_fraction"])
            for row in rows:
                writer.writerow([f"{x:.17g}" for x in row])
    except OSError as exc:
        return _output_error(exc)
    if bad_residuals:
        print(
            f"residual above {RESIDUAL_PASS:g}: {'; '.join(bad_residuals)}", file=sys.stderr
        )
    if max_err > REFLECTION_TOL:
        print(f"reflection error {max_err:.4f} exceeds tolerance {REFLECTION_TOL}", file=sys.stderr)
    return EXIT_BOUNDS if bad_residuals or max_err > REFLECTION_TOL else EXIT_OK


def cmd_dump_config(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(scenario.dump())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evowaves",
        description="Causal acoustic evolution solver with numerical estimate checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, dump_flag: bool = False) -> None:
        p.add_argument("--config", required=True, help="scenario file path")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        if dump_flag:
            p.add_argument(
                "--dump-config",
                action="store_true",
                help="print the canonical scenario and exit without running",
            )

    p_solve = sub.add_parser("solve", help="solve the scenario")
    add_common(p_solve, dump_flag=True)
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the estimate checks")
    add_common(p_verify, dump_flag=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep-reflection", help="reflection sweep over robin_k")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--k-list",
        default="0,0.25,0.5,1,2,4",
        help="comma-separated impedance coefficients (default: 0,0.25,0.5,1,2,4)",
    )
    p_sweep.set_defaults(func=cmd_sweep_reflection)

    p_dump = sub.add_parser("dump-config", help="echo the canonical scenario text")
    add_common(p_dump)
    p_dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
