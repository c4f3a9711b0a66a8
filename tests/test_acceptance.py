"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Tolerances are fixed here, not tuned per run: relative
Parseval error 1e-10, causal leakage 1e-8, energy-bound slack 2%,
causality slack 1e-6, reflection error 2% at 512 cells, adjoint pairing
1e-9, projection identity 1e-12, convergence-order windows [1.7, 2.3]
for time and [1.8, 2.2] for space.
"""

import dataclasses

import numpy as np

from conftest import (
    apply_symbol,
    bump,
    constant_fn,
    flux_boundary,
    identity_law,
    interior_signal,
    interleave,
    make_problem,
    memory_law,
    zero_fn,
)
from evowaves.cli import measure_reflection, probe_rows
from evowaves.material import MaterialLaw, law_symbol, select_rho
from evowaves.rational import scalar_rational
from evowaves.signals import (
    WeightedGrid,
    WeightedSignal,
    rho_inner,
    rho_norm,
    truncate_before,
)
from evowaves.solver import EvoProblem, solve_boundary_family, solve_frequency, solve_timestep
from evowaves.spatial import BoundaryLaw, SpatialDiscretization
from evowaves.transform import forward_transform
from evowaves.verify import (
    check_adjoint_projection,
    check_boundary_sign,
    check_causal_estimate,
    check_positivity,
)
from test_material import random_law
from test_solver import manufactured_error, rel_gap
from test_spatial import product_rule_residual, reduced_trial


def report(number: int, passed: bool, text: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {text}", flush=True)
    assert passed, f"criterion {number} failed: {text}"


def test_criterion_1_transform_unitarity():
    worst = 0.0
    for rho in (0.5, 1.0, 2.0, 5.0):
        grid = WeightedGrid(-2.0, 10.0 / 512, 512, rho)
        for seed in range(50):
            u = interior_signal(grid, dim=2, seed=seed)
            u_hat = forward_transform(u)
            ds = u_hat.freqs[1] - u_hat.freqs[0]
            lhs = float(np.sum(np.abs(u_hat.values) ** 2)) * ds
            rhs = rho_norm(u) ** 2
            worst = max(worst, abs(lhs - rhs) / rhs)
    report(1, worst <= 1e-10, f"Parseval worst relative error {worst:.2e} <= 1e-10")


def test_criterion_2_functional_calculus_causality():
    grid = WeightedGrid(0.0, 16.0 / 2048, 2048, 2.5)
    t = grid.times
    t_support = 4.5 - 5.5 * 0.35
    u = WeightedSignal(grid, bump(t, 4.5, 0.35)[:, None] * np.ones((1, 2)))
    worst = 0.0
    for seed in range(20):
        law = random_law(seed, r=1.0)
        out = apply_symbol(u, law_symbol(law, grid.w))
        pre = truncate_before(out, t_support - grid.dt)
        worst = max(worst, rho_norm(pre) / rho_norm(u))
    report(2, worst <= 1e-8, f"pre-support mass of 20 single-pole laws {worst:.2e} <= 1e-8")


def _battery_scenarios():
    """20 admissible scenarios varying memory law, boundary kernel and weight."""
    m1_variants = [
        zero_fn(2),
        constant_fn(np.diag([0.2, 0.1])),
        memory_law().m1,
        memory_law(pole=-1.5 + 0.8j, res=(0.15, 0.3), const=(0.0, 0.1)).m1,
    ]
    boundary_variants = [
        ("neumann", None),
        ("robin", 0.5),
        ("robin", 2.0),
        ("memory", None),
        ("robin", 0.25),
    ]
    scenarios = []
    for i, m1 in enumerate(m1_variants):
        for j, bdry in enumerate(boundary_variants):
            law = MaterialLaw(np.diag([1.5, 1.0]), m1, r=1.0)
            scenarios.append((law, bdry, 1.0 + 0.5 * ((i + j) % 3)))
    return scenarios


def _build_battery_problem(law, bdry, rho_scale, n_cells=24, n=512):
    sd = SpatialDiscretization(1.0, n_cells)
    kind, k = bdry
    if kind == "neumann":
        bl = BoundaryLaw.robin(0.0, sd)
    elif kind == "robin":
        bl = BoundaryLaw.robin(k, sd)
    else:
        bl = flux_boundary(sd, 0.4, poles_w=[-0.8], residues_w=[0.5])
    rho = rho_scale * select_rho(law, min(law.r, bl.r))
    grid = WeightedGrid(-4.8, 16.0 / n, n, rho)
    t, x = grid.times, sd.cell_x
    fp = bump(t, 1.0, 0.4)[:, None] * bump(x, 0.5, 0.12)[None, :]
    f = WeightedSignal(grid, interleave(fp, np.zeros((n, n_cells - 1))))
    return EvoProblem(grid, sd, law, bl, f)


def test_criterion_3_wellposedness_bound():
    worst = 0.0
    for law, bdry, rho_scale in _battery_scenarios():
        rep = solve_frequency(_build_battery_problem(law, bdry, rho_scale))
        worst = max(worst, rep.energy_ratio * rep.beta0)
    # uniformity in the weight: the same proxy across rho0, 2 rho0, 4 rho0
    law = memory_law()
    for mult in (1.0, 2.0, 4.0):
        rho = mult * select_rho(law)
        rep = solve_frequency(make_problem(rho=rho))
        worst = max(worst, rep.energy_ratio * rep.beta0)
    report(3, worst <= 1.02, f"energy_ratio * margin worst {worst:.4f} <= 1.02 over battery")


def test_criterion_4_solution_operator_causality():
    prob = make_problem()
    res = check_causal_estimate(prob, seed=11)
    spectral_ok = res.margin >= -1e-6

    ts_prob = make_problem(n=512)
    vals = ts_prob.f.values.copy()
    start_idx = int(np.searchsorted(ts_prob.grid.times, 0.2))
    vals[:start_idx] = 0.0
    ts_prob = EvoProblem(
        ts_prob.grid, ts_prob.sd, ts_prob.law, ts_prob.bl,
        WeightedSignal(ts_prob.grid, vals),
    )
    rep = solve_timestep(ts_prob)
    pre_max = float(np.abs(rep.solution.values[:start_idx]).max())
    report(
        4,
        spectral_ok and pre_max <= 1e-13,
        f"spectral margin {res.margin:+.2e} >= -1e-6; stepper pre-support {pre_max:.2e} <= 1e-13",
    )


def test_criterion_5_robin_reflection_sweep():
    length, window, rho, n, n_cells = 1.0, 8.0, 2.0, 2048, 512
    sd = SpatialDiscretization(length, n_cells)
    grid = WeightedGrid(0.0, window / n, n, rho)
    t = grid.times
    x_c, t_c, widths = 0.2, 0.4, (0.05, 0.05)
    wt = bump(t, t_c, widths[0])
    fp = wt[:, None] * bump(sd.cell_x, x_c, widths[1])[None, :]
    fv = wt[:, None] * bump(sd.face_x[1:-1], x_c, widths[1])[None, :]
    f = WeightedSignal(grid, interleave(fp, fv))
    base = EvoProblem(grid, sd, identity_law(), BoundaryLaw.robin(1.0, sd), f)
    max_err = 0.0
    absorbed_at_matched = 0.0
    ks = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)
    family = solve_boundary_family(base, [BoundaryLaw.robin(k, sd) for k in ks], probe_rows(sd))
    for k, (probe, _) in zip(ks, family):
        r_meas, energy_frac = measure_reflection(sd, probe, x_source=x_c, t_source=t_c)
        max_err = max(max_err, abs(r_meas - (1.0 - k) / (1.0 + k)))
        if k == 1.0:
            absorbed_at_matched = 1.0 - energy_frac
    ok = max_err <= 0.02 and absorbed_at_matched >= 0.999
    report(
        5, ok,
        f"reflection error {max_err:.4f} <= 0.02 at 512 cells; "
        f"absorbed fraction at matched impedance {absorbed_at_matched:.5f} >= 0.999",
    )


def test_criterion_6_adjoint_structure():
    from evowaves.solver import apply_evo_adjoint_operator, apply_evo_operator

    prob = make_problem()
    worst_pairing = 0.0
    for seed in range(5):
        u = reduced_trial(prob.sd, prob.grid, seed=40 + seed)
        v = reduced_trial(prob.sd, prob.grid, seed=60 + seed)
        lhs = rho_inner(apply_evo_operator(prob, u), v)
        rhs = rho_inner(u, apply_evo_adjoint_operator(prob, v))
        worst_pairing = max(worst_pairing, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    res = check_adjoint_projection(prob, seed=12)
    ok = worst_pairing <= 1e-9 and res.margin >= -1e-12
    report(
        6, ok,
        f"pairing defect {worst_pairing:.2e} <= 1e-9; projection identity margin "
        f"{res.margin:+.2e} >= -1e-12",
    )


def test_criterion_7_positivity_suite_with_power():
    admissible = make_problem()
    pos = check_positivity(admissible, seed=13)
    memory_bdry = dataclasses.replace(
        admissible, bl=flux_boundary(admissible.sd, 0.3, poles_w=[-1.0], residues_w=[0.6])
    )
    pos_mem = check_positivity(memory_bdry, seed=14)
    negative = dataclasses.replace(
        admissible,
        bl=BoundaryLaw(scalar_rational(lin=-1.0), BoundaryLaw.normal_profile(admissible.sd), 1.0),
    )
    neg_sign = check_boundary_sign(negative, seed=15)
    neg_pos = check_positivity(negative, seed=16)
    ok = pos.passed and pos_mem.passed and (not neg_sign.passed) and neg_pos.margin < 0
    report(
        7, ok,
        f"admissible margins {pos.margin:+.2e}, {pos_mem.margin:+.2e} pass; "
        f"engineered negative law fails sign check ({neg_sign.margin:+.2e}) "
        f"and positivity ({neg_pos.margin:+.2e})",
    )


def test_criterion_8_convergence():
    gaps = []
    for n in (512, 1024, 2048):
        sd = SpatialDiscretization(1.0, 24)
        bl = flux_boundary(sd, 0.5, poles_w=[-1.2], residues_w=[0.8])
        prob = make_problem(n_cells=24, n=n, rho=3.0, bl=bl, law=memory_law())
        gaps.append(rel_gap(solve_timestep(prob).solution, solve_frequency(prob).solution))
    ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
    time_ok = np.all(ratios > 1.7) and np.all(ratios < 2.3)

    errs = [manufactured_error(n_cells=n) for n in (16, 32, 64)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    space_ok = np.all(orders > 1.8) and np.all(orders < 2.2)
    report(
        8, bool(time_ok and space_ok),
        f"cross-solver dt ratios {np.round(ratios, 2)} in [1.7, 2.3]; "
        f"manufactured spatial orders {np.round(orders, 2)} in [1.8, 2.2]",
    )


def test_criterion_9_product_rule_order():
    res = [product_rule_residual(n)[0] for n in (16, 32, 64)]
    orders = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    ok = np.all(orders > 1.8) and np.all(orders < 2.2)
    report(9, bool(ok), f"product-rule residual orders {np.round(orders, 2)} in [1.8, 2.2]")
