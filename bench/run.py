"""The evowaves benchmark: one command for every workload.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the repository root is the parent of this directory.
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (setup_s, op_s, peak_rss_mb); with --trace 1 it holds
the per-layer metrics of tracing.LAYER_METRICS instead.  Lines before it
describe the environment, the checks and the timings, and the same record
is written to bench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "EVO_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import evowaves from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "evowaves" / "__init__.py").is_file():
        fail(f"no evowaves sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import evowaves

    if Path(evowaves.__file__).resolve().parent != (src / "evowaves").resolve():
        fail(f"imported evowaves from {evowaves.__file__}, not from {src}")


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def measure_setup(config_path: str) -> list[float]:
    """SETUP_PROBES cold set-ups, each in a fresh interpreter, one after another."""
    values = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(ROOT / config_path)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()}")
        values.append(float(proc.stdout.strip().splitlines()[-1]))
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import LAYER_METRICS

    work = HERE / "work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[name]
        setup = [] if trace else measure_setup(cls.config_path)
        wl = cls(ROOT, work, seed)
        run = workloads.Runner(trace)
        rounds = 0
        start = time.perf_counter()
        while True:
            run.record = not (cls.warmup and rounds == 0)
            run.tracing = False
            wl.round(run)
            if trace:
                run.tracing = True
                run.record = True
                wl.round(run)
            rounds += 1
            measured = run.times[False] and (run.times[True] or not trace)
            if measured and time.perf_counter() - start >= seconds:
                break
        wall = time.perf_counter() - start
        weak = wl.controls() if not run.errors else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = run.times[False]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": rounds, "wall_s": wall,
        "attempted": run.attempted, "failed": run.failed,
        "errors": run.errors,
        "controls_that_passed": weak,
        "op_times_s": untraced, "setup_times_s": setup,
    }
    if trace:
        traced = run.times[True]
        per_op = run.tracer.per_op(len(traced))
        per_op["trace.overhead_pct"] = 100.0 * (statistics.fmean(traced) / statistics.fmean(untraced) - 1.0)
        record["traced_op_times_s"] = traced
        metrics = {name: per_op[name] for name in LAYER_METRICS}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.fmean(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    record["metrics"] = metrics
    record["correct"] = not run.errors and not weak
    if hasattr(wl, "audit_log"):
        record["audit"] = {label: {"mu0": mu, "sup": sup} for label, (mu, sup) in wl.audit_log.items()}
    return record


def units() -> dict[str, str]:
    from tracing import LAYER_METRICS

    return {**END_TO_END_UNITS, **LAYER_METRICS}


def print_record(record: dict) -> None:
    unit = units()
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"rounds {record['rounds']}  attempted {record['attempted']}  failed {record['failed']}")
    for err in record["errors"]:
        print(f"  CHECK FAILED: {err}")
    for name in record["controls_that_passed"]:
        print(f"  CONTROL PASSED (check has no power): {name}")
    for name, value in record.get("audit", {}).items():
        print(f"  audit {name}: mu0 {value['mu0']:.6g}  sup ||M1|| {value['sup']:.6g}")
    for name, value in record["metrics"].items():
        print(f"  {name:34s} {value:14.6g} {unit[name]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")
    env = environment()
    print("environment " + json.dumps(env))

    if args.workload == "all":
        # one process per workload, so each reports its own peak memory
        results = {}
        for name in names:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                fail(f"{name} exited {proc.returncode}: {proc.stderr.strip()}")
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[1:-1]))
            results[name] = json.loads(lines[-1])
        unit = units()
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": {"value": v["value"], "unit": unit[m]}
                        for w, r in results.items() for m, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
        return 0

    record = run_workload(names[0], args.seed, args.seconds, bool(args.trace))
    record["environment"] = env
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print_record(record)
    unit = units()
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in record["metrics"].items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
