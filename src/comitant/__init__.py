"""Exact computer algebra for classical comitants: invariants of small
binary and ternary forms, Hessian/transvectant covariants, self-maps of
pencil and moduli lines with exact degrees and descent, associated forms,
and the chord-tangent constructions on a conic — plus an executable claim
registry (`comitant verify`) re-deriving every certified statement."""

from .associated import (AssociatedFormError, AssociatedFormResult,
                         associated_form, associated_selfmap_degree,
                         associated_slice_map, congruence_holds)
from .comitants import (Form, FormError, hessian, jacobian, polar,
                        restrict_to_line, transvectant)
from .fibers import FiberCensus, FiberError, sample_report
from .geometry import (Conic, GeometryError, PointPair, ProjectivePoint,
                       coble_identity_check, conic_fit, conic_through,
                       harmonic_partner, q_construction, richelot_forward,
                       richelot_inverse, sigma_map)
from .grammar import ParseError, parse_poly, parse_poly_file
from .invariants import (InvariantDescriptor, InvariantError,
                         evaluate_invariant, find_invariants, invariant_I2,
                         invariant_I3, invariant_S, invariant_T,
                         named_invariant, quintic_invariants)
from .linalg import LinearSubstitution, poly_det
from .maps import (MapError, RationalMapP1, compose, descend_map,
                   hesse_cover, hesse_self_map, quartic_cover,
                   quartic_self_map)
from .poly import Poly, poly_ring
from .quartic import QuarticError, clebsch_covariant, salmon_contravariant
from .scalars import GF, QQ, Fp
from .verify import VerificationReport, run_verifications

__version__ = "0.1.0"

__all__ = [
    "AssociatedFormError", "AssociatedFormResult", "Conic", "FiberCensus",
    "FiberError", "Form", "FormError", "Fp", "GF", "GeometryError",
    "InvariantDescriptor", "InvariantError", "LinearSubstitution", "MapError",
    "ParseError", "PointPair", "Poly", "ProjectivePoint", "QQ", "QuarticError",
    "RationalMapP1", "VerificationReport", "associated_form",
    "associated_selfmap_degree", "associated_slice_map", "clebsch_covariant",
    "coble_identity_check", "compose", "congruence_holds",
    "conic_fit", "conic_through", "descend_map", "evaluate_invariant",
    "find_invariants", "harmonic_partner", "hesse_cover", "hesse_self_map",
    "hessian", "invariant_I2", "invariant_I3", "invariant_S", "invariant_T",
    "jacobian", "named_invariant", "parse_poly", "parse_poly_file", "polar",
    "poly_det", "poly_ring", "q_construction", "quartic_cover",
    "quartic_self_map", "quintic_invariants", "restrict_to_line",
    "richelot_forward", "richelot_inverse", "run_verifications",
    "salmon_contravariant", "sample_report", "sigma_map", "transvectant",
]
