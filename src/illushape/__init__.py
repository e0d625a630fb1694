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
    CgStats,
    LinearizedData,
    apply_operator,
    cg_solve,
    dense_matrix,
    dense_solve_oracle,
    linearize,
)
from .energy import (
    ModelParams,
    PhaseField,
    double_well,
    energy_drop_bound,
    first_variation,
    profile_measure_1d,
    surrogate_energy,
    surrogate_target,
    total_energy,
)
from .grid import GridField, GridGeometry, gradient_magnitude, quadrature_sum, rms_diff
from .shape import ComponentSet, ShapeMask, connected_components, extract_shape, iou
from .solver import (
    IterationReport,
    RangePreservationError,
    SolverConfig,
    StepRecord,
    default_model,
    euler_lagrange_residual,
    null_hypothesis,
    presmooth,
    run,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "CanyonField",
    "CanyonParams",
    "CgConvergenceError",
    "CgParams",
    "CgStats",
    "ComponentSet",
    "ConfigurationMask",
    "GridField",
    "GridGeometry",
    "IterationReport",
    "LinearizedData",
    "ModelParams",
    "NoBoundaryError",
    "PhaseField",
    "RangePreservationError",
    "ShapeMask",
    "SolverConfig",
    "StepRecord",
    "apply_operator",
    "build_canyon",
    "cg_solve",
    "connected_components",
    "default_model",
    "dense_matrix",
    "dense_solve_oracle",
    "double_well",
    "edge_response",
    "energy_drop_bound",
    "euler_lagrange_residual",
    "extract_shape",
    "first_variation",
    "gradient_magnitude",
    "iou",
    "linearize",
    "mollify",
    "null_hypothesis",
    "presmooth",
    "profile_measure_1d",
    "quadrature_sum",
    "rms_diff",
    "run",
    "step",
    "surrogate_energy",
    "surrogate_target",
    "total_energy",
]
