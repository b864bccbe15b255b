"""Exact verification of contact pairs, contact pair structures, and their
compatible/associated metrics on coordinate charts and Lie-algebra frames."""

__version__ = "0.1.0"

from .algebra import (
    InconsistentSystemError,
    LinearSolution,
    Poly,
    RatFun,
    Rational,
    RfMatrix,
    generic_rank,
    kernel_basis,
    solve_linear_exact,
)
from .exterior import (
    EndoField,
    Form,
    MetricField,
    Space,
    VectorField,
    bracket,
    lie_derivative,
)
from .pair import (
    ContactPair,
    DistributionFrame,
    Status,
    Verdict,
    VerifiedPair,
    characteristic_frame,
    g_frame,
    kernel_frame,
    reeb_fields,
    verified_pair,
    verify_contact_pair,
    verify_splittings,
)
from .structure import (
    ContactPairStructure,
    is_decomposable,
    verify_induced_almost_contact,
    verify_structure,
)
from .metric import (
    AssociatedCheckReport,
    MetricContactPair,
    are_foliations_orthogonal,
    build_associated_by_polarization,
    build_compatible,
    is_associated,
    is_compatible,
    killing_check,
    verify_restricted_contact_metric,
)
from .connection import (
    ChristoffelData,
    GeodesyReport,
    christoffel,
    numeric_geodesic_residual,
    reeb_geodesy,
)
from .expressions import ExpressionError, parse_expression
from .fixtures import FixtureDoc, FixtureError, bundled_fixture_path, load_fixture
from .report import Report

__all__ = [
    "__version__",
    # algebra
    "Rational", "Poly", "RatFun", "RfMatrix", "LinearSolution",
    "solve_linear_exact", "kernel_basis", "generic_rank", "InconsistentSystemError",
    # exterior
    "Space", "Form", "VectorField", "EndoField", "MetricField",
    "bracket", "lie_derivative",
    # pair
    "ContactPair", "VerifiedPair", "DistributionFrame", "Verdict", "Status",
    "verify_contact_pair", "reeb_fields", "characteristic_frame", "g_frame",
    "kernel_frame", "verified_pair", "verify_splittings",
    # structure
    "ContactPairStructure", "verify_structure", "is_decomposable",
    "verify_induced_almost_contact",
    # metric
    "MetricContactPair", "AssociatedCheckReport", "is_compatible", "is_associated",
    "build_compatible", "build_associated_by_polarization", "are_foliations_orthogonal",
    "killing_check", "verify_restricted_contact_metric",
    # connection
    "ChristoffelData", "GeodesyReport", "christoffel", "reeb_geodesy",
    "numeric_geodesic_residual",
    # fixtures & CLI plumbing
    "parse_expression", "ExpressionError", "FixtureDoc", "FixtureError",
    "load_fixture", "bundled_fixture_path", "Report",
]
