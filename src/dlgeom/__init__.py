"""dlgeom: dual Lorentzian geometry kernel.

Minkowski 3-space algebra, dual numbers with exact forward
differentiation, the line <-> dual-unit-vector correspondence, dual
Darboux frames of ruled surfaces, and Mannheim surface offsets with a
verification pipeline that compares closed-form invariants against
measurements of the constructed geometry.
"""

from .lorentz import CausalCharacter, Vec3L, causal_character, det3, lorentz_cross, lorentz_dot
from .dual import DualScalar, dual_angle_between, dual_norm, dual_vector
from .lines import OrientedLine, dual_to_line, line_to_dual
from .numerics import FrameState, cumulative_integrate, integrate, rk4_frame_step
from .ruled import (FrameSample, InvariantProfile, RuledSurfaceSpec, SPACELIKE_SURFACE,
                    TIMELIKE_SURFACE, arclength_reparametrize, darboux_frame, dual_arclength,
                    dual_curvature_elements, reconstruct_from_invariants, timelike_invariants,
                    timelike_radius)
from .mannheim import (MannheimParams, OffsetAngle, OffsetReport, construct_offset,
                       developability_check, mannheim_condition_residual, offset_angles,
                       predicted_invariants, verify_offset)
from . import catalog

__all__ = [
    "CausalCharacter", "Vec3L", "causal_character", "det3", "lorentz_cross",
    "lorentz_dot",
    "DualScalar", "dual_angle_between", "dual_norm", "dual_vector",
    "OrientedLine", "dual_to_line", "line_to_dual",
    "FrameState", "cumulative_integrate", "integrate", "rk4_frame_step",
    "FrameSample", "InvariantProfile", "RuledSurfaceSpec", "SPACELIKE_SURFACE",
    "TIMELIKE_SURFACE", "arclength_reparametrize", "darboux_frame", "dual_arclength",
    "dual_curvature_elements", "reconstruct_from_invariants", "timelike_invariants",
    "timelike_radius",
    "MannheimParams", "OffsetAngle", "OffsetReport", "construct_offset",
    "developability_check", "mannheim_condition_residual", "offset_angles",
    "predicted_invariants", "verify_offset",
    "catalog",
]
