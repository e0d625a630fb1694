"""Illusory shapes from binary inducer images via phase transitions.

A nonzero local minimum of a canyon-weighted double-well energy encodes the
illusory shape as its high-phase region; the solver finds one by a monotone
majorize-minimize iteration whose inner problem is a variable-coefficient
elliptic solve.
"""

from .canyon import (
    CanyonField,
    CanyonParams,
    ConfigurationMask,
    NoBoundaryError,
    build_canyon,
    edge_response,
    mollify,
)
from .elliptic import (
    CgConvergenceError,
    CgParams,
    LinearizedData,
    StartSubspace,
    Workspace,
    apply_operator,
    cg_solve,
    linearize,
)
from .energy import (
    ModelParams,
    PhaseField,
    energy_drop_bound,
    total_energy,
)
from .grid import GridField, GridGeometry, GridMask, gradient_magnitude, rms_diff
from .shape import connected_components, extract_shape
from .solver import (
    IterationReport,
    RangePreservationError,
    SolverConfig,
    StepRecord,
    default_model,
    euler_lagrange_residual,
    null_hypothesis,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "CanyonField",
    "CanyonParams",
    "CgConvergenceError",
    "CgParams",
    "ConfigurationMask",
    "GridField",
    "GridGeometry",
    "GridMask",
    "IterationReport",
    "LinearizedData",
    "ModelParams",
    "NoBoundaryError",
    "PhaseField",
    "RangePreservationError",
    "SolverConfig",
    "StartSubspace",
    "StepRecord",
    "Workspace",
    "apply_operator",
    "build_canyon",
    "cg_solve",
    "connected_components",
    "default_model",
    "edge_response",
    "energy_drop_bound",
    "euler_lagrange_residual",
    "extract_shape",
    "gradient_magnitude",
    "linearize",
    "mollify",
    "null_hypothesis",
    "rms_diff",
    "run",
    "total_energy",
]
