"""The four benchmark workloads.

Each workload runs whole rounds of the same operations.  `round()` times
the operations that its end-to-end metric `op_s` measures through
`Runner.timed`, counts every operation it attempts through `Runner.op`,
and checks the outputs after the clock has stopped.  `controls()` feeds
each check a deliberately wrong input and returns the checks that did not
fail.

The program is driven only through `evowaves.cli.main` and the public
functions of its modules, always looked up on the module at call time so
that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import re
import time
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

import evowaves.cli as cli
import evowaves.config as config
import evowaves.solver as solver

SWEEP_K = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)   # the CLI's default k-list
LADDER = (512, 1024, 2048)
VERIFY_PER_ROUND = 3
CHECK_NAMES = ("positivity_1", "positivity_equivalence", "causal_estimate", "adjoint_lemma", "boundary_sign")


class Runner:
    """Times operations, traces them on traced rounds, counts outcomes."""

    def __init__(self, trace: bool):
        self.tracer = Tracer() if trace else None
        self.tracing = False
        self.record = True
        self.times: dict[bool, list[float]] = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def timed(self, fn, *args):
        if self.tracing:
            self.tracer.install()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if self.tracing:
                self.tracer.uninstall()
            if self.record:
                self.times[self.tracing].append(elapsed)

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, error: str | None) -> None:
        if error is not None and error not in self.errors and len(self.errors) < 50:
            self.errors.append(error)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`evowaves <argv>` in this process; returns the exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("  ")
        out[key.strip()] = value.strip()
    return out


def read_csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class SolveReflection:
    """`evowaves solve` on scenarios/reflection.cfg: the full user-facing solve."""

    name = "solve-reflection"
    config_path = "scenarios/reflection.cfg"
    warmup = False

    def __init__(self, root: Path, work: Path, seed: int):
        self.cfg = str(root / self.config_path)
        self.out = work / "solve"
        self.sc = config.load_scenario(self.cfg)
        rng = np.random.default_rng(seed)
        nc = self.sc.cells
        self.probe_cells = sorted(int(c) for c in rng.choice(np.arange(int(0.3 * nc), int(0.9 * nc)), 4, replace=False))
        self.sample_rows = set(int(j) for j in rng.choice(self.sc.n, 32, replace=False))
        self.times = self.sc.t0 + self.sc.dt * np.arange(self.sc.n)
        self.beta0 = checks.own_beta0(self.sc.m0, self.sc.m1, self.sc.resolve_rho())
        self.src = dict(
            amplitude=self.sc.amplitude, t_center=self.sc.t_center, t_width=self.sc.t_width,
            x_center=self.sc.x_center, x_width=self.sc.x_width, length=self.sc.length,
        )
        self.digest: str | None = None
        self.pressure: dict[int, np.ndarray] = {}

    def round(self, run: Runner) -> None:
        rc, err = run.timed(run_cli, ["solve", "--config", self.cfg, "--out", str(self.out)])
        run.op(rc == 0)
        if rc != 0:
            run.check(f"solve exited {rc}: {err.strip()}")
            return
        run.check(self._check_csv(self.out / "U.csv"))
        energy_ratio = float(read_report(self.out / "report.txt")["energy_ratio"])
        run.check(checks.check_energy(energy_ratio, self.beta0, "solve"))

    def _check_csv(self, path: Path) -> str | None:
        nc, dim = self.sc.cells, 2 * self.sc.cells - 1
        digest = hashlib.sha256()
        pressure = {c: np.empty(self.sc.n) for c in self.probe_cells}
        sampled: list[str] = []
        n_rows = 0
        with open(path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            expect = ["t"] + [f"{part}_{j}" for j in range(dim) for part in ("re", "im")]
            if header.decode().rstrip("\r\n").split(",") != expect:
                return "U.csv header does not match the reduced dimension"
            for raw in fh:
                digest.update(raw)
                tok = raw.decode().rstrip("\r\n").split(",")
                if n_rows >= self.sc.n or len(tok) != 1 + 2 * dim:
                    return f"U.csv row {n_rows}: wrong shape"
                if abs(float(tok[0]) - self.times[n_rows]) > 1e-12 * max(1.0, abs(self.times[n_rows])):
                    return f"U.csv row {n_rows}: time {tok[0]} is not t0 + {n_rows} dt"
                for c in self.probe_cells:
                    pressure[c][n_rows] = float(tok[1 + 2 * c])
                if n_rows in self.sample_rows:
                    sampled += tok
                n_rows += 1
        if n_rows != self.sc.n:
            return f"U.csv has {n_rows} rows, expected {self.sc.n}"
        error = checks.check_round_trip(sampled, "U.csv")
        if error:
            return error
        hexdigest = digest.hexdigest()
        if self.digest is None:
            self.digest = hexdigest
        elif hexdigest != self.digest:
            return "U.csv differs from the first solve of this run: not bit-identical"
        self.pressure = pressure
        dx = self.sc.length / nc
        for c in self.probe_cells:
            ref = checks.transported_pressure((c + 0.5) * dx, self.times, self.src)
            error = checks.check_characteristic(pressure[c], ref, c)
            if error:
                return error
        return None

    def controls(self) -> list[str]:
        dx = self.sc.length / self.sc.cells
        c = self.probe_cells[0]
        shifted = checks.transported_pressure((c + 0.5) * dx, self.times, self.src, shift=4 * dx)
        return [
            name
            for name, error in (
                ("transport reference shifted by 4 cells", checks.check_characteristic(self.pressure[c], shifted, c)),
                ("a number written with 16 digits", checks.check_round_trip(["0.1", "0.10000000000000001"], "control")),
                ("energy ratio just above 1/beta0", checks.check_energy(1.03 / self.beta0, self.beta0, "control")),
            )
            if error is None
        ]


class SweepReflection:
    """`evowaves sweep-reflection` on scenarios/reflection.cfg, six Robin laws."""

    name = "sweep-reflection"
    config_path = "scenarios/reflection.cfg"
    warmup = False

    def __init__(self, root: Path, work: Path, seed: int):
        self.cfg = str(root / self.config_path)
        self.out = work / "sweep"
        order = np.random.default_rng(seed).permutation(len(SWEEP_K))
        self.k_values = [SWEEP_K[i] for i in order]
        self.k_list = ",".join(f"{k:g}" for k in self.k_values)
        self.rows: list[dict] = []

    def round(self, run: Runner) -> None:
        argv = ["sweep-reflection", "--config", self.cfg, "--out", str(self.out), "--k-list", self.k_list]
        rc, err = run.timed(run_cli, argv)
        run.op(rc == 0)
        if rc != 0:
            run.check(f"sweep-reflection exited {rc}: {err.strip()}")
            return
        rows = [{key: float(v) for key, v in row.items()} for row in read_csv_rows(self.out / "reflection.csv")]
        if [row["k"] for row in rows] != self.k_values:
            run.check(f"reflection.csv k column {[row['k'] for row in rows]} != {self.k_values}")
            return
        self.rows = rows
        run.check(checks.check_reflection(rows))
        matched = next(row for row in rows if row["k"] == 1.0)
        run.check(checks.check_absorbed(matched["reflected_energy_fraction"]))

    def controls(self) -> list[str]:
        hard_wall = next(row for row in self.rows if row["k"] == 0.0)
        return [
            name
            for name, error in (
                ("analytic reflection at 1/k", checks.check_reflection(self.rows, lambda k: 1.0 / k if k else k)),
                ("absorbed fraction of the k=0 row", checks.check_absorbed(hard_wall["reflected_energy_fraction"])),
            )
            if error is None
        ]


class VerifyDefault:
    """`evowaves verify` on scenarios/default.cfg, plus the inadmissible
    variant and the constants audit, which are not timed."""

    name = "verify-default"
    config_path = "scenarios/default.cfg"
    warmup = True

    def __init__(self, root: Path, work: Path, seed: int):
        self.cfg = str(root / self.config_path)
        self.out = work / "verify"
        self.rng = np.random.default_rng(seed)
        text = Path(self.cfg).read_text()
        inadmissible, count = re.subn(r"(?m)^robin_k\s*=.*$", "g_lin_re = -1.0", text)
        if count != 1:
            raise RuntimeError(f"{self.config_path}: expected one robin_k line to replace")
        work.mkdir(parents=True, exist_ok=True)
        self.inadmissible_cfg = work / "inadmissible.cfg"
        self.inadmissible_cfg.write_text(inadmissible)
        self.audits = [
            ("near-pole law", str(Path(__file__).parent / "scenarios" / "near_pole.cfg")),
            ("default.cfg", self.cfg),
        ]
        self.rows: list[dict] = []
        self.audit_log: dict[str, tuple[float, float]] = {}

    def round(self, run: Runner) -> None:
        for _ in range(VERIFY_PER_ROUND):
            seed = int(self.rng.integers(0, 2**31 - 1))
            argv = ["verify", "--config", self.cfg, "--out", str(self.out), "--seed", str(seed)]
            rc, err = run.timed(run_cli, argv)
            run.op(rc == 0)
            if rc != 0:
                run.check(f"verify --seed {seed} exited {rc}: {err.strip()}")
                continue
            self.rows = read_csv_rows(self.out / "checks.csv")
            run.check(checks.check_verdicts(self.rows, CHECK_NAMES))

        rc, err = run_cli(["verify", "--config", str(self.inadmissible_cfg), "--out", str(self.out / "inadmissible")])
        run.op(rc in (0, 4))
        run.check(checks.check_inadmissible(rc, err))

        for label, path in self.audits:
            prob = config.load_scenario(path).build()
            _, mu0, _ = prob.margin_constants()
            sup = checks.sup_memory_norm(prob.law.m1, prob.grid.rho)
            self.audit_log[label] = (mu0, sup)
            run.op(checks.check_audit(mu0, sup, label) is None)

    def controls(self) -> list[str]:
        flipped = [dict(row) for row in self.rows]
        flipped[0]["pass"] = str(flipped[0]["pass"] != "True")
        mu0, sup = self.audit_log["default.cfg"]
        return [
            name
            for name, error in (
                ("checks.csv with a flipped verdict", checks.check_verdicts(flipped, CHECK_NAMES)),
                ("admissible exit taken for the inadmissible variant", checks.check_inadmissible(0, "")),
                ("mu0 just below the sup", checks.check_audit(0.99 * sup, sup, "control")),
            )
            if error is None
        ]


class MemoryCrosscheck:
    """solve_frequency against solve_timestep on a memory law, n in LADDER."""

    name = "memory-crosscheck"
    config_path = "bench/scenarios/memory.cfg"
    warmup = True

    def __init__(self, root: Path, work: Path, seed: int):
        self.cfg = str(root / self.config_path)
        dumped = io.StringIO()
        with contextlib.redirect_stdout(dumped):
            rc = cli.main(["dump-config", "--config", self.cfg])
        self.dump_text = dumped.getvalue()
        self.dump_error = f"dump-config exited {rc}" if rc else self._round_trip(self.dump_text)
        rng = np.random.default_rng(seed)
        self.amplitude = 0.5 + float(rng.random())
        self.x_center = 0.35 + 0.3 * float(rng.random())
        self.last: list = []

    @staticmethod
    def _round_trip(text: str) -> str | None:
        if config.parse_scenario(text).dump() != text:
            return "memory.cfg does not round-trip through dump-config"
        return None

    def _ladder(self) -> list:
        """Both solvers on every rung; a failed call leaves its exception in place."""
        sc = config.load_scenario(self.cfg)
        sc = dataclasses.replace(sc, amplitude=self.amplitude, x_center=self.x_center)
        results = []
        for n in LADDER:
            prob = dataclasses.replace(sc, n=n, dt=sc.dt * sc.n / n).build()
            pair = [prob]
            for solve in (solver.solve_frequency, solver.solve_timestep):
                try:
                    pair.append(solve(prob))
                except (solver.SolverError, ValueError) as exc:
                    pair.append(exc)
            results.append(pair)
        return results

    def round(self, run: Runner) -> None:
        run.check(self.dump_error)
        results = run.timed(self._ladder)
        gaps = []
        for prob, freq, step in results:
            for rep in (freq, step):
                run.op(not isinstance(rep, Exception))
            if isinstance(freq, Exception) or isinstance(step, Exception):
                run.check(f"n={prob.grid.n}: {freq if isinstance(freq, Exception) else step}")
                return
            beta0 = checks.own_beta0(prob.law.m0, prob.law.m1, prob.grid.rho)
            run.check(checks.check_residual(freq.residual_rel))
            run.check(checks.check_energy(freq.energy_ratio, beta0, f"solve_frequency n={prob.grid.n}"))
            run.check(checks.check_energy(step.energy_ratio, beta0, f"solve_timestep n={prob.grid.n}"))
            run.check(checks.check_zero_prefix(step.solution.values, prob.f.values))
            g = prob.grid
            gaps.append(checks.weighted_gap(freq.solution.values, step.solution.values, g.times, g.dt, g.rho))
        run.check(checks.check_first_order(gaps))
        self.last = [results[-1], gaps, beta0]

    def controls(self) -> list[str]:
        (prob, freq, step), gaps, beta0 = self.last
        early = np.array(step.solution.values)
        early[5, 0] = 1e-300
        return [
            name
            for name, error in (
                ("stepper sample nonzero before the source", checks.check_zero_prefix(early, prob.f.values)),
                ("second-order gap ratios", checks.check_first_order([gaps[0], gaps[0] / 4, gaps[0] / 16])),
                ("residual 1e-9", checks.check_residual(1e-9)),
                ("energy ratio just above 1/beta0", checks.check_energy(1.03 / beta0, beta0, "control")),
                ("a dump with one value respelled", self._round_trip(self.dump_text.replace("amplitude = 1\n", "amplitude = 1.0\n"))),
            )
            if error is None
        ]


WORKLOADS = {w.name: w for w in (SolveReflection, SweepReflection, VerifyDefault, MemoryCrosscheck)}
