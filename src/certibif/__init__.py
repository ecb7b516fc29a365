"""Validated numerics for the red-coral population map: interval
arithmetic, a constructive implicit function theorem, certified
pseudo-arclength continuation, and bifurcation certificates."""

from .interval import IArray, Interval, norm_inf
from .model import (CoralMap, CoralParams, DerivedCoefficients,
                    FixedPointReduction, derive_float, derive_generic,
                    derive_interval, lambda_to_R, phi, phi_derivs,
                    polyp_density, R_to_lambda)
from .cift import (Certificate, CiftBounds, DeltaPair, certificate_json, inverse_bound,
                   lipschitz_L1, residual_bound, validate_zero)
from .continuation import (BranchBox, BranchResult, CoralBranchSystem,
                           ExtendedSystem, SegmentAnchor, SegmentHypotheses,
                           branch_start, check_link,
                           classify_stability, continue_branch,
                           derive_extended_constants, newton_correct,
                           segment_anchor, tangent_estimate, validate_segment)
from .bifurcation import (BifCertificate, NsSystem, SnSystem, TranscriticalResult,
                          certify_ns, certify_sn, find_ns_anchor, find_sn_anchor,
                          transcritical_analysis, verified_spectrum_inside_disk)
from .dynamics import (AngleProfile, OrbitSample, RotationResult,
                       angle_profile, density_matched_state,
                       farey_min_denominator, iterate, rotation_and_profile,
                       rotation_number)

__version__ = "0.1.0"
