"""Exact arithmetic for Galois points of plane curves and the extension of
their Galois groups to de Jonquieres maps and plane Cremona transformations."""

from .fields import (
    CYCLOTOMIC_CEILING,
    Field,
    FieldDescriptor,
    FieldElement,
    UNDETERMINED,
    make_field,
)
from .polynomials import MultiPoly, NEG_INF, Poly1, RatFunc, exact_div, poly_gcd, resultant
from .parsing import ParseError, parse_element, parse_poly, render_poly
from .curves import (
    Parametrization,
    PlaneCurve,
    ProjPoint,
    curve_from_implicit,
    curve_from_parametrization,
    has_point_of_multiplicity_ge,
    implicitize,
    multiplicity_implicit,
    multiplicity_param,
)
from .maps import (
    JonquieresWitness,
    LineMobius,
    MobiusOverBase,
    PlaneRationalMap,
    jonquieres_decompose,
    linear_pushforward,
    proportional_eq,
    std_quadratic_pushforward,
)
from .galois import (
    GaloisCertificate,
    ProjectionModel,
    deck_group_from_candidates,
    deck_verify,
    extension_verdict,
    galois_test_low_degree,
    jonquieres_builder,
    lemma31_formulas,
    linear_extension_solver,
    mobius_solver,
    projection_model,
)
from .cremona import (
    ChainStep,
    PairingReport,
    ReductionChain,
    conic_lift,
    conjugate_extension,
    kodaira_pairing,
    line_equivalence_decision,
    quadratic_at_three_points,
)
from .scenarios import BUILTIN_NAMES, Scenario, load_scenario, run_scenario

__version__ = "0.1.0"
