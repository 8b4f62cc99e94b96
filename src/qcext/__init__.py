"""Quasiconvex extension toolkit for planar convex bodies."""

from .counterexamples import (
    Classification,
    ConstructionError,
    ForcingCertificate,
    NoLipCertificate,
    NoUCCertificate,
    characterize,
    gen_no_lip,
    gen_no_qc,
    gen_no_uc,
    gen_non_rotund,
    gen_usc_counterexample,
)
from .extension import (
    CoveringError,
    ExtendedBody,
    ExtensionError,
    ExtensionOperator,
    ExtensionResult,
    extend_body,
    extend_function,
)
from .geometry import (
    Body2,
    BoundaryArc,
    Cone2,
    GeometryError,
    HalfPlane,
    NormalFan,
    asymptotic_slope,
    cone_from,
    contains,
    rotundity_modulus,
    find_asymptotic_direction,
    tangency_set,
    is_asymptotic_direction,
    is_rotund,
    supporting_cone,
    project,
    recession_cone,
    relative_boundary,
    support,
    supporting_normals,
)
from .levelset import (
    LevelFamily,
    LevelSetError,
    ModulusTable,
    QCFunction,
    compose_projection,
    eval_levels,
    extend_line_constant,
    lipschitz_estimate,
    mcshane_extend,
    modulus_estimate,
    quasiconvex_check,
    ramp_qc,
    staircase_qc,
)
from .verify import SuiteReport, fuzz_bodies, run_suite

__all__ = [
    "Body2", "BoundaryArc", "Cone2", "GeometryError", "HalfPlane", "NormalFan",
    "asymptotic_slope", "cone_from", "contains", "rotundity_modulus",
    "find_asymptotic_direction", "tangency_set", "is_asymptotic_direction",
    "is_rotund", "supporting_cone", "project", "recession_cone", "relative_boundary",
    "support", "supporting_normals",
    "LevelFamily", "LevelSetError", "ModulusTable", "QCFunction",
    "compose_projection", "eval_levels", "extend_line_constant",
    "lipschitz_estimate", "mcshane_extend", "modulus_estimate",
    "quasiconvex_check", "ramp_qc", "staircase_qc",
    "CoveringError", "ExtendedBody", "ExtensionError", "ExtensionOperator",
    "ExtensionResult", "extend_body", "extend_function",
    "Classification", "ConstructionError", "ForcingCertificate",
    "NoLipCertificate", "NoUCCertificate", "characterize",
    "gen_no_lip", "gen_no_qc", "gen_no_uc", "gen_non_rotund",
    "gen_usc_counterexample",
    "SuiteReport", "fuzz_bodies", "run_suite",
]

__version__ = "0.1.0"
