"""Causal solver and verification suite for weighted-space acoustic evolution.

Solves (d/dt applied to a material law of the inverse derivative, plus a
spatial divergence/gradient operator with impedance-type boundary
coupling) U = f on exponentially weighted time windows, and turns every
estimate the underlying theory guarantees (coercivity, energy bound,
causality) into an executable numerical check.
"""

from .material import MaterialLaw, coercivity, memory_bound, select_rho
from .rational import RationalMatrixFunction, scalar_rational
from .signals import WeightedGrid, WeightedSignal, rho_inner, rho_norm, translate, truncate_before
from .solver import (
    EvoProblem,
    SolveReport,
    realize,
    realize_flux,
    residual_norm,
    solve_frequency,
    solve_timestep,
)
from .spatial import BoundaryLaw, SpatialDiscretization
from .transform import SpectralSignal, forward_transform, inverse_transform

__version__ = "0.1.0"

__all__ = [
    "WeightedGrid",
    "WeightedSignal",
    "rho_inner",
    "rho_norm",
    "truncate_before",
    "translate",
    "SpectralSignal",
    "forward_transform",
    "inverse_transform",
    "RationalMatrixFunction",
    "scalar_rational",
    "MaterialLaw",
    "coercivity",
    "memory_bound",
    "select_rho",
    "SpatialDiscretization",
    "BoundaryLaw",
    "EvoProblem",
    "SolveReport",
    "solve_frequency",
    "solve_timestep",
    "residual_norm",
    "realize",
    "realize_flux",
]
