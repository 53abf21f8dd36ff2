"""Cylinders in singular del Pezzo surfaces: classification and certificates.

Exact-arithmetic tooling for du Val del Pezzo surface specs: cylinder
existence classification and re-checkable non-log-canonical certificates
("tigers") with exhaustive decomposition obstructions.

The top level exports the product path, parse -> classify -> build_tiger ->
document.  Everything else is imported from its own module and is not
loaded by ``import dpcylinders``.  That includes ``divisors``, the only
reference module that ships: the pairing table the tests check the
engine's numbers against.
"""

from .classify import Verdict, classify
from .lattice import DynkinType, InvalidSpec, SurfaceSpec, enumerate_specs
from .specio import (
    SpecFileError,
    certificate_document,
    certificate_from_document,
    parse_spec_text,
    render_document,
    verdict_document,
)
from .tigers import (
    NoCaseApplies,
    TigerCertificate,
    build_tiger,
    case_tables,
    enumerate_decompositions,
    select_case,
)

__version__ = "0.1.0"

__all__ = [
    "DynkinType",
    "InvalidSpec",
    "NoCaseApplies",
    "SpecFileError",
    "SurfaceSpec",
    "TigerCertificate",
    "Verdict",
    "build_tiger",
    "case_tables",
    "certificate_document",
    "certificate_from_document",
    "classify",
    "enumerate_decompositions",
    "enumerate_specs",
    "parse_spec_text",
    "render_document",
    "select_case",
    "verdict_document",
    "__version__",
]
