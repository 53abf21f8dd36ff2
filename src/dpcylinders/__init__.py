"""Cylinders in singular del Pezzo surfaces: classification and certificates.

Exact-arithmetic tooling for du Val del Pezzo surface specs: intersection
theory on the minimal resolution, cylinder existence classification, and
re-checkable non-log-canonical certificates ("tigers") with exhaustive
decomposition obstructions.
"""

from .classify import NO_POLAR_COLLECTIONS, Verdict, classify, classify_anticanonical, classify_polar
from .divisors import DivisorClass, Generator, GramTable, Relation, UndefinedPairing
from .embedding import Embedding, OracleUnavailable, oracle_embed
from .lattice import (
    DynkinType,
    InvalidSpec,
    SurfaceSpec,
    all_types,
    enumerate_specs,
    fundamental_cycle,
    gram_table,
    picard_rank,
    validate_spec,
)
from .linear_systems import conditions, dim_complete, max_multiplicity_budget, subsystem_dim
from .specio import (
    SpecFileError,
    certificate_document,
    certificate_from_document,
    parse_spec_text,
    render_document,
    verdict_document,
)
from .tigers import (
    CaseTable,
    Decomposition,
    DecompositionOutcome,
    NoCaseApplies,
    Obstruction,
    PointSpec,
    ResidualNumbers,
    TigerCertificate,
    build_tiger,
    case_tables,
    decomposition_parts,
    enumerate_decompositions,
    part_residual_numbers,
    select_case,
)

__version__ = "0.1.0"

__all__ = [
    "CaseTable",
    "Decomposition",
    "DecompositionOutcome",
    "DivisorClass",
    "DynkinType",
    "Embedding",
    "Generator",
    "GramTable",
    "InvalidSpec",
    "NO_POLAR_COLLECTIONS",
    "NoCaseApplies",
    "Obstruction",
    "OracleUnavailable",
    "PointSpec",
    "Relation",
    "ResidualNumbers",
    "SpecFileError",
    "SurfaceSpec",
    "TigerCertificate",
    "UndefinedPairing",
    "Verdict",
    "all_types",
    "build_tiger",
    "case_tables",
    "certificate_document",
    "certificate_from_document",
    "classify",
    "classify_anticanonical",
    "classify_polar",
    "conditions",
    "decomposition_parts",
    "dim_complete",
    "enumerate_decompositions",
    "enumerate_specs",
    "fundamental_cycle",
    "gram_table",
    "max_multiplicity_budget",
    "oracle_embed",
    "parse_spec_text",
    "part_residual_numbers",
    "picard_rank",
    "render_document",
    "select_case",
    "subsystem_dim",
    "validate_spec",
    "verdict_document",
    "__version__",
]
