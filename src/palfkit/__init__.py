"""palfkit: exact invariants of planar positive allowable Lefschetz
fibrations and the associated knot-theoretic invariants.

The package goes from a monodromy factorization on a holed sphere to
total-space homology and fundamental-group presentations, and from
group presentations to Alexander polynomials and Casson invariants of
surgered homology spheres.
"""

from .groupring import GroupRingElement, abelianize, fox_derivative
from .intmatrix import IntMatrix, cokernel_invariants, det, kernel_rank, smith_normal_form
from .knots import (
    CalibrationError,
    FamilyInvariants,
    NormalizedAlexander,
    alexander_from_presentation,
    casson_surgery,
    closed_form_delta,
    closed_form_factor,
    family_invariants,
    fox_milnor_compose,
    ribbon_presentation,
    unit_equivalent,
    unit_normalize,
)
from .laurent import LaurentPoly
from .lefschetz import (
    HomologyResult,
    PALFSpec,
    allowable,
    boundary_is_homology_sphere,
    boundary_matrix,
    family_curves,
    family_twists,
    homology,
    mazur_family,
    pi1_presentation,
)
from .presentation import TRIVIAL, UNKNOWN, Presentation, SimplifyResult, simplify_presentation
from .report import (
    FamilyReport,
    FamilyReportRow,
    build_family_report,
    report_to_json,
    report_to_text,
)
from .surface import (
    Curve,
    MappingClass,
    PlanarSurface,
    UnsupportedCurveError,
    apply,
    compose,
    dehn_twist,
    half_twist,
    power,
    standard_curve,
    twist_of_image,
)
from .words import FreeGroup, Word, are_conjugate, substitute

__version__ = "0.1.0"
