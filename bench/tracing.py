"""Span tracing of evowaves layers from outside the package.

Nothing inside `src/` knows about tracing.  `Tracer.install()` replaces
selected public functions (and a few methods) by wrappers that record a
span per call: a key, a start, an end and the index of the enclosing
span.  Every binding of a wrapped function is replaced, because modules
import each other's functions by name (`from .solver import
solve_frequency`): module globals, dict-valued module globals such as
`verify._CHECK_FUNCS`, and class attributes.  `uninstall()` restores the
originals, so untraced operations run the unmodified program.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# Per-layer metrics and their units, in report order.  Times are inclusive
# span durations, except the `_self_s` ones, which subtract the time
# covered by direct child spans.  Spans nested in a span of the same key
# are not counted twice.
LAYER_METRICS: dict[str, str] = {
    "config.load_s": "s",
    "config.build_s": "s",
    "rational.eval_s": "s",
    "rational.eval_points": "count",
    "material.memory_bound_s": "s",
    "material.memory_bound_calls": "count",
    "transform.forward_s": "s",
    "transform.inverse_s": "s",
    "transform.calls": "count",
    "transform.mb_computed": "MB",
    "spatial.apply_op_s": "s",
    "spatial.apply_op_calls": "count",
    "spatial.assemble_dense_s": "s",
    "solver.solve_frequency_s": "s",
    "solver.solve_frequency_self_s": "s",
    "solver.solve_frequency_calls": "count",
    "solver.residual_s": "s",
    "solver.apply_operator_s": "s",
    "solver.apply_operator_calls": "count",
    "solver.margin_constants_calls": "count",
    "solver.solve_timestep_s": "s",
    "solver.timestep_steps": "count",
    "solver.timestep_step_us": "us",
    "solver.pivot_fallbacks": "count",
    "signals.write_csv_s": "s",
    "signals.csv_mb": "MB",
    "signals.norm_s": "s",
    "signals.norm_calls": "count",
    "verify.positivity_1_s": "s",
    "verify.positivity_equivalence_s": "s",
    "verify.causal_estimate_s": "s",
    "verify.adjoint_lemma_s": "s",
    "verify.boundary_sign_s": "s",
    "verify.trial_fields_s": "s",
    "cli.command_self_s": "s",
    "cli.measure_reflection_self_s": "s",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _steps_of(args: tuple, kwargs: dict, result: Any) -> float:
    prob = args[0]
    dt_sub = kwargs.get("dt_sub", args[1] if len(args) > 1 else None)
    n_sub = 1 if dt_sub is None else round(prob.grid.dt / float(dt_sub))
    return float((prob.grid.n - 1) * n_sub)


def _transform_mb(args: tuple, kwargs: dict, result: Any) -> float:
    return (args[0].values.nbytes + result.values.nbytes) / 1e6


def _eval_points(args: tuple, kwargs: dict, result: Any) -> float:
    return float(result.shape[0])


def _csv_mb(args: tuple, kwargs: dict, result: Any) -> float:
    return os.path.getsize(args[1]) / 1e6


# (module, attribute, span key, {counter: fn(args, kwargs, result)}).
# An attribute "Class.method" patches the method on the class.
TARGETS: list[tuple[str, str, str, dict[str, Callable]]] = [
    ("config", "load_scenario", "config.load", {}),
    ("config", "Scenario.build", "config.build", {}),
    ("rational", "RationalMatrixFunction.eval_many", "rational.eval", {"rational.eval_points": _eval_points}),
    ("material", "memory_bound", "material.memory_bound", {}),
    ("transform", "forward_transform", "transform.forward", {"transform.mb_computed": _transform_mb}),
    ("transform", "inverse_transform", "transform.inverse", {"transform.mb_computed": _transform_mb}),
    ("spatial", "apply_spatial_op_freq", "spatial.apply_op", {}),
    ("spatial", "apply_spatial_op_adjoint_freq", "spatial.apply_op", {}),
    ("spatial", "assemble_spatial_op", "spatial.assemble_dense", {}),
    ("spatial", "assemble_spatial_op_adjoint", "spatial.assemble_dense", {}),
    ("solver", "solve_frequency", "solver.solve_frequency", {}),
    ("solver", "residual_norm", "solver.residual", {}),
    ("solver", "apply_evo_operator", "solver.apply_operator", {}),
    ("solver", "apply_evo_adjoint_operator", "solver.apply_operator", {}),
    ("solver", "EvoProblem.margin_constants", "solver.margin_constants", {}),
    ("solver", "solve_timestep", "solver.solve_timestep", {"solver.timestep_steps": _steps_of}),
    # private: the pivoted fallback after a Thomas pivot breakdown
    ("solver", "_solve_range_pivoted", "solver.pivot_fallback", {}),
    ("signals", "write_signal_csv", "signals.write_csv", {"signals.csv_mb": _csv_mb}),
    ("signals", "rho_norm", "signals.norm", {}),
    ("signals", "rho_inner", "signals.norm", {}),
    ("signals", "truncate_before", "signals.norm", {}),
    ("verify", "check_positivity", "verify.positivity_1", {}),
    ("verify", "check_positivity_shift_invariance", "verify.positivity_equivalence", {}),
    ("verify", "check_causal_estimate", "verify.causal_estimate", {}),
    ("verify", "check_adjoint_projection", "verify.adjoint_lemma", {}),
    ("verify", "check_boundary_sign", "verify.boundary_sign", {}),
    ("verify", "trial_fields", "verify.trial_fields", {}),
    ("cli", "cmd_solve", "cli.command", {}),
    ("cli", "cmd_verify", "cli.command", {}),
    ("cli", "cmd_sweep_reflection", "cli.command", {}),
    ("cli", "measure_reflection", "cli.measure_reflection", {}),
]

# metric -> (span keys, kind); kind is "total", "self" or "calls"
_SPAN_METRICS: dict[str, tuple[tuple[str, ...], str]] = {
    "config.load_s": (("config.load",), "total"),
    "config.build_s": (("config.build",), "total"),
    "rational.eval_s": (("rational.eval",), "total"),
    "material.memory_bound_s": (("material.memory_bound",), "total"),
    "material.memory_bound_calls": (("material.memory_bound",), "calls"),
    "transform.forward_s": (("transform.forward",), "total"),
    "transform.inverse_s": (("transform.inverse",), "total"),
    "transform.calls": (("transform.forward", "transform.inverse"), "calls"),
    "spatial.apply_op_s": (("spatial.apply_op",), "total"),
    "spatial.apply_op_calls": (("spatial.apply_op",), "calls"),
    "spatial.assemble_dense_s": (("spatial.assemble_dense",), "total"),
    "solver.solve_frequency_s": (("solver.solve_frequency",), "total"),
    "solver.solve_frequency_self_s": (("solver.solve_frequency",), "self"),
    "solver.solve_frequency_calls": (("solver.solve_frequency",), "calls"),
    "solver.residual_s": (("solver.residual",), "total"),
    "solver.apply_operator_s": (("solver.apply_operator",), "total"),
    "solver.apply_operator_calls": (("solver.apply_operator",), "calls"),
    "solver.margin_constants_calls": (("solver.margin_constants",), "calls"),
    "solver.solve_timestep_s": (("solver.solve_timestep",), "total"),
    "solver.pivot_fallbacks": (("solver.pivot_fallback",), "calls"),
    "signals.write_csv_s": (("signals.write_csv",), "total"),
    "signals.norm_s": (("signals.norm",), "total"),
    "signals.norm_calls": (("signals.norm",), "calls"),
    "verify.positivity_1_s": (("verify.positivity_1",), "total"),
    "verify.positivity_equivalence_s": (("verify.positivity_equivalence",), "total"),
    "verify.causal_estimate_s": (("verify.causal_estimate",), "total"),
    "verify.adjoint_lemma_s": (("verify.adjoint_lemma",), "total"),
    "verify.boundary_sign_s": (("verify.boundary_sign",), "total"),
    "verify.trial_fields_s": (("verify.trial_fields",), "total"),
    "cli.command_self_s": (("cli.command",), "self"),
    "cli.measure_reflection_self_s": (("cli.measure_reflection",), "self"),
}
_COUNTERS = sorted({name for *_, counters in TARGETS for name in counters})


@dataclass
class Tracer:
    """Spans kept in memory: parallel lists of key, start, end and parent index."""

    keys: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any, Any]] = field(default_factory=list)

    def _wrap(self, fn: Callable, key: str, counters: dict[str, Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.keys)
            self.keys.append(key)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            for name, count in counters.items():
                self.counters[name] = self.counters.get(name, 0.0) + count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("evowaves") and m]
        for mod_name, attr, key, counters in TARGETS:
            module = sys.modules[f"evowaves.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(orig, key, counters))
                continue
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, key, counters)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, orig, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                self._set(value, k, orig, wrapped)

    def _set(self, owner: Any, name: str, orig: Any, new: Any) -> None:
        if isinstance(owner, dict):
            owner[name] = new
        else:
            setattr(owner, name, new)
        self._patches.append((owner, name, orig, new))

    def uninstall(self) -> None:
        for owner, name, orig, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Every per-layer metric over the spans recorded so far, per operation."""
        n = len(self.keys)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        nested_same = [False] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += dur[i]
            while p >= 0:
                if self.keys[p] == self.keys[i]:
                    nested_same[i] = True
                    break
                p = self.parents[p]
        out: dict[str, float] = {}
        for metric, (keys, kind) in _SPAN_METRICS.items():
            idx = [i for i in range(n) if self.keys[i] in keys]
            if kind == "calls":
                out[metric] = float(len(idx))
            elif kind == "self":
                out[metric] = sum(dur[i] - child_time[i] for i in idx)
            else:
                out[metric] = sum(dur[i] for i in idx if not nested_same[i])
        for name in _COUNTERS:
            out[name] = self.counters.get(name, 0.0)
        out["trace.spans"] = float(n)
        out = {name: value / n_ops for name, value in out.items()}
        steps = out["solver.timestep_steps"]
        out["solver.timestep_step_us"] = 1e6 * out["solver.solve_timestep_s"] / steps if steps else 0.0
        return out
