"""Scenario files: a small key-value tree that builds a solvable problem.

The format is deliberately plain so runs are reproducible from a single
text file:

    # comment
    [section]
    key = value            # scalar
    key = v0 v1 v2 ...     # whitespace-separated array

Sections: grid, space, material, boundary, source, output.  Parsing is
strict: unknown sections or keys, duplicates, and malformed values are
rejected with the offending line number; so are non-finite numbers
(`nan`, `inf`).  `Scenario.dump()` emits a canonical text that re-parses
to an equivalent scenario (the config round-trip used by the
`dump-config` subcommand).

Complex data enters as `<stem>_re` and `<stem>_im` arrays; a missing
half is zero, and each half keeps its bits, signed zeros included.  The
material matrix `m0` is row-major 2x2.  The 2x2 memory kernel `m1` and the
scalar boundary kernel `g` are spelled alike, `<prefix>_{const,lin,poles,res}`,
with one row-major residue block per pole: required with poles, refused
without.  Any `g_*` key selects g and excludes `robin_k = <k>`, shorthand
for g(z) = k z; with neither, k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import MaterialLaw, select_rho
from .rational import RationalMatrixFunction, scalar_rational
from .signals import WeightedGrid, WeightedSignal, read_signal_csv
from .solver import EvoProblem
from .spatial import BoundaryLaw, SpatialDiscretization
from .verify import ALL_CHECKS

__all__ = ["ConfigError", "Scenario", "parse_scenario", "load_scenario"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# the one spelling of a rational kernel: <prefix>_<part>_re and _im for each part
_KERNEL_PARTS = ("const", "lin", "poles", "res")


def _kernel_keys(prefix: str) -> set[str]:
    return {f"{prefix}_{part}_{half}" for part in _KERNEL_PARTS for half in ("re", "im")}


_KNOWN_KEYS = {
    "grid": {"t0", "dt", "window", "n", "rho"},
    "space": {"length", "cells"},
    "material": {"r", "m0_re", "m0_im"} | _kernel_keys("m1"),
    "boundary": {"robin_k", "alpha", "r"} | _kernel_keys("g"),
    "source": {
        "kind",
        "component",
        "amplitude",
        "t_center",
        "t_width",
        "x_center",
        "x_width",
        "path",
    },
    "output": {"checks"},
}


def _tokenize(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split into sections of key -> (raw value, line number)."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _KNOWN_KEYS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ConfigError("key outside any [section]", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"unknown key {key!r} in section [{current}]", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in section [{current}]", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    def __init__(self, name: str, data: dict[str, tuple[str, int]]):
        self.name = name
        self.data = data

    def has(self, key: str) -> bool:
        return key in self.data

    def _raw(self, key: str) -> tuple[str, int]:
        if key not in self.data:
            raise ConfigError(f"missing key {key!r} in section [{self.name}]")
        return self.data[key]

    def string(self, key: str, default: str | None = None) -> str:
        if not self.has(key):
            if default is None:
                self._raw(key)
            return default
        return self._raw(key)[0]

    def number(self, key: str, default: float | None = None) -> float:
        if not self.has(key) and default is not None:
            return default
        value, line = self._raw(key)
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"{key} must be a number, got {value!r}", line) from None
        if not np.isfinite(number):
            raise ConfigError(f"{key} must be finite, got {value!r}", line)
        return number

    def integer(self, key: str) -> int:
        value, line = self._raw(key)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}", line) from None

    def array(self, key: str) -> np.ndarray:
        value, line = self._raw(key)
        try:
            numbers = np.asarray([float(tok) for tok in value.split()], dtype=float)
        except ValueError:
            raise ConfigError(f"{key} must be a list of numbers, got {value!r}", line) from None
        if not np.isfinite(numbers).all():
            raise ConfigError(f"{key} must hold finite numbers, got {value!r}", line)
        return numbers

    def line_of(self, key: str) -> int | None:
        return self.data[key][1] if key in self.data else None


def _complex(
    sec: _Section, stem: str, shape: tuple[int, ...], required: bool, line: int | None = None
) -> np.ndarray:
    """The array stem_re + i stem_im in `shape`; a shape (-1,) takes the length of the first half given.

    A missing half is zero, and so is the array where neither half is given,
    unless it is required: then that is an error at `line`.  Both halves
    keep their bits, the sign of a zero included.
    """
    halves = {key: sec.array(key) for key in (f"{stem}_re", f"{stem}_im") if sec.has(key)}
    if not halves:
        if required:
            raise ConfigError(f"missing key {stem}_re in section [{sec.name}]", line)
        return np.zeros([max(k, 0) for k in shape], dtype=complex)
    first = next(iter(halves))
    if shape == (-1,):
        size, layout = halves[first].size, f"as many as {first}"
    else:
        size, d = math.prod(shape), shape[-1]
        layout = f"row-major {d}x{d}" + (f", one block for each of {shape[0]} poles" if len(shape) == 3 else "")
    for key, arr in halves.items():
        if arr.size != size:
            raise ConfigError(f"{key} has {arr.size} numbers, not {size} ({layout})", sec.line_of(key))
    out = np.empty(size, dtype=complex)
    out.real, out.imag = (halves.get(f"{stem}_{half}", 0.0) for half in ("re", "im"))
    return out.reshape(shape)


def _kernel(sec: _Section, prefix: str, d: int, r: float, what: str) -> RationalMatrixFunction:
    """The d x d kernel <prefix>_{const,lin,poles,res}, holomorphic on B(r, r); a residue block per pole."""
    if not r > 0:
        raise ConfigError(f"r must be positive, got {r:g}", sec.line_of("r"))
    const, lin = (_complex(sec, f"{prefix}_{part}", (d, d), False) for part in _KERNEL_PARTS[:2])
    poles = _complex(sec, f"{prefix}_poles", (-1,), False)
    key = f"{prefix}_poles_re" if sec.has(f"{prefix}_poles_re") else f"{prefix}_poles_im"
    residues = _complex(sec, f"{prefix}_res", (poles.size, d, d), poles.size > 0, sec.line_of(key))
    try:
        fn = RationalMatrixFunction(const, lin, poles, residues)
        fn.check_holomorphic(r)
    except ValueError as exc:
        raise ConfigError(f"invalid {what}, {key}: {exc}", sec.line_of(key)) from None
    return fn


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; `build()` turns it into a solvable problem."""

    t0: float
    dt: float
    n: int
    rho: float | str            # number or "auto"
    length: float
    cells: int
    material_r: float
    m0: np.ndarray
    m1: RationalMatrixFunction
    boundary_r: float
    robin_k: float | None
    g: RationalMatrixFunction | None
    alpha_spec: str
    source_kind: str
    source_component: str
    amplitude: float
    t_center: float
    t_width: float
    x_center: float
    x_width: float
    source_path: str | None
    checks: tuple[str, ...]

    def boundary_law(self, sd: SpatialDiscretization) -> BoundaryLaw:
        if self.alpha_spec == "normal":
            alpha = BoundaryLaw.normal_profile(sd)
        else:
            alpha = np.full(sd.n_faces, float(self.alpha_spec.split(":", 1)[1]))
        g = scalar_rational(lin=self.robin_k) if self.g is None else self.g
        return BoundaryLaw(g, alpha, self.boundary_r)

    def material_law(self) -> MaterialLaw:
        return MaterialLaw(self.m0, self.m1, self.material_r)

    def resolve_rho(self) -> float:
        if self.rho == "auto":
            law = self.material_law()
            return select_rho(law, min(self.material_r, self.boundary_r))
        return float(self.rho)

    def source_signal(self, grid: WeightedGrid, sd: SpatialDiscretization) -> WeightedSignal:
        """A csv source's samples; any other kind is separable: a pulse in t, a Gaussian in x."""
        if self.source_kind == "csv":
            return read_signal_csv(self.source_path, grid)
        t = grid.times
        wt = self.amplitude * np.exp(-(((t - self.t_center) / self.t_width) ** 2))
        g = np.exp(-(((sd.x - self.x_center) / self.x_width) ** 2))
        if self.source_kind == "gaussian":  # zero on the other component, v at the odd unknowns
            g[(1 if self.source_component == "p" else 0)::2] = 0.0
        return WeightedSignal(grid, profiles=(wt, g))

    def build(self) -> EvoProblem:
        sd = SpatialDiscretization(self.length, self.cells)
        rho = self.resolve_rho()
        grid = WeightedGrid(self.t0, self.dt, self.n, rho)
        law = self.material_law()
        bl = self.boundary_law(sd)
        f = self.source_signal(grid, sd)
        return EvoProblem(grid, sd, law, bl, f)

    def dump(self) -> str:
        def fmt(x: float) -> str:
            return f"{x:.17g}"

        def fmt_list(arr: np.ndarray) -> str:
            return " ".join(fmt(float(v)) for v in np.asarray(arr).reshape(-1))

        def kernel(prefix: str, fn: RationalMatrixFunction, always: bool) -> list[str]:
            """const and lin (if nonzero, or always), then the poles and residues if any."""
            parts = [("const", fn.const, always or fn.const.any()), ("lin", fn.lin, always or fn.lin.any())]
            parts += [("poles", fn.poles, fn.n_poles), ("res", fn.residues, fn.n_poles)]
            return [
                f"{prefix}_{key}_{part} = {fmt_list(getattr(arr, attr))}"
                for key, arr, shown in parts if shown for part, attr in (("re", "real"), ("im", "imag"))
            ]

        lines = ["[grid]"]
        lines.append(f"t0 = {fmt(self.t0)}")
        lines.append(f"dt = {fmt(self.dt)}")
        lines.append(f"n = {self.n}")
        lines.append(f"rho = {self.rho if self.rho == 'auto' else fmt(float(self.rho))}")
        lines += ["", "[space]", f"length = {fmt(self.length)}", f"cells = {self.cells}"]
        lines += ["", "[material]", f"r = {fmt(self.material_r)}"]
        lines += [f"m0_re = {fmt_list(self.m0.real)}", f"m0_im = {fmt_list(self.m0.imag)}"]
        lines += kernel("m1", self.m1, always=False)
        lines += ["", "[boundary]", f"r = {fmt(self.boundary_r)}", f"alpha = {self.alpha_spec}"]
        lines += [f"robin_k = {fmt(self.robin_k)}"] if self.g is None else kernel("g", self.g, always=True)
        lines += ["", "[source]", f"kind = {self.source_kind}"]
        if self.source_kind == "csv":
            lines.append(f"path = {self.source_path}")
        else:
            if self.source_kind == "gaussian":
                lines.append(f"component = {self.source_component}")
            lines.append(f"amplitude = {fmt(self.amplitude)}")
            lines.append(f"t_center = {fmt(self.t_center)}")
            lines.append(f"t_width = {fmt(self.t_width)}")
            lines.append(f"x_center = {fmt(self.x_center)}")
            lines.append(f"x_width = {fmt(self.x_width)}")
        checks_text = " ".join(self.checks) if self.checks else "none"
        lines += ["", "[output]", f"checks = {checks_text}"]
        return "\n".join(lines) + "\n"


def parse_scenario(text: str) -> Scenario:
    sections = _tokenize(text)

    def section(name: str, required: bool = True) -> _Section:
        if name not in sections:
            if required:
                raise ConfigError(f"missing section [{name}]")
            return _Section(name, {})
        return _Section(name, sections[name])

    grid = section("grid")
    t0 = grid.number("t0")
    n = grid.integer("n")
    if n < 2:
        raise ConfigError("n must be at least 2", grid.line_of("n"))
    if grid.has("dt") and grid.has("window"):
        raise ConfigError("give either dt or window, not both", grid.line_of("window"))
    if grid.has("dt"):
        dt = grid.number("dt")
    elif grid.has("window"):
        dt = grid.number("window") / n
    else:
        raise ConfigError("grid needs dt or window")
    if dt <= 0:
        raise ConfigError("dt must be positive", grid.line_of("dt") or grid.line_of("window"))
    rho: float | str = "auto"
    if grid.string("rho", default="auto") != "auto":
        rho = grid.number("rho")
        if rho <= 0:
            raise ConfigError("rho must be positive", grid.line_of("rho"))

    space = section("space")
    length = space.number("length")
    if length <= 0:
        raise ConfigError("length must be positive", space.line_of("length"))
    cells = space.integer("cells")
    if cells < 4:
        raise ConfigError("need at least 4 cells", space.line_of("cells"))

    mat = section("material")
    material_r = mat.number("r", default=1.0)
    m0 = _complex(mat, "m0", (2, 2), True)
    m1 = _kernel(mat, "m1", 2, material_r, "material memory kernel")

    bnd = section("boundary")
    boundary_r = bnd.number("r", default=material_r)
    alpha_spec = bnd.string("alpha", default="normal")
    if alpha_spec != "normal":
        parts = alpha_spec.split(":")
        if len(parts) != 2 or parts[0] != "constant":
            raise ConfigError(
                f"alpha must be 'normal' or 'constant:<value>', got {alpha_spec!r}",
                bnd.line_of("alpha"),
            )
        try:
            value = float(parts[1])
        except ValueError:
            raise ConfigError(f"bad alpha value {parts[1]!r}", bnd.line_of("alpha")) from None
        if not np.isfinite(value):
            raise ConfigError(f"alpha must be finite, got {parts[1]!r}", bnd.line_of("alpha"))
    g_keys = [key for key in bnd.data if key.startswith("g_")]
    if bnd.has("robin_k") and g_keys:
        message = f"give either robin_k or the g_* kernel, not both ({g_keys[0]} is given)"
        raise ConfigError(message, bnd.line_of("robin_k"))
    g = _kernel(bnd, "g", 1, boundary_r, "boundary kernel") if g_keys else None
    robin_k = None if g_keys else bnd.number("robin_k", default=0.0)  # no key: vanishing normal velocity

    src = section("source")
    kind = src.string("kind")
    if kind not in ("gaussian", "rightward", "csv"):
        raise ConfigError(f"unknown source kind {kind!r}", src.line_of("kind"))
    component = src.string("component", default="p")
    if component not in ("p", "v"):
        raise ConfigError(f"source component must be p or v, got {component!r}", src.line_of("component"))
    path = src.string("path", default="") or None
    if kind == "csv" and path is None:
        raise ConfigError("csv source needs a path", src.line_of("kind"))
    amplitude = src.number("amplitude", default=1.0)
    t_center = src.number("t_center", default=0.0)
    t_width = src.number("t_width", default=1.0)
    x_center = src.number("x_center", default=0.5 * length)
    x_width = src.number("x_width", default=0.1 * length)
    if kind != "csv" and (t_width <= 0 or x_width <= 0):
        raise ConfigError("pulse widths must be positive", src.line_of("t_width"))

    out = section("output", required=False)
    if out.has("checks"):
        raw_checks = out.string("checks")
        if raw_checks == "none":
            checks: tuple[str, ...] = ()
        else:
            checks = tuple(raw_checks.split())
            for name in checks:
                if name not in ALL_CHECKS:
                    raise ConfigError(
                        f"unknown check {name!r}; available: {', '.join(ALL_CHECKS)}",
                        out.line_of("checks"),
                    )
    else:
        checks = tuple(ALL_CHECKS)

    return Scenario(
        t0=t0,
        dt=dt,
        n=n,
        rho=rho,
        length=length,
        cells=cells,
        material_r=material_r,
        m0=m0,
        m1=m1,
        boundary_r=boundary_r,
        robin_k=robin_k,
        g=g,
        alpha_spec=alpha_spec,
        source_kind=kind,
        source_component=component,
        amplitude=amplitude,
        t_center=t_center,
        t_width=t_width,
        x_center=x_center,
        x_width=x_width,
        source_path=path,
        checks=checks,
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return parse_scenario(fh.read())
