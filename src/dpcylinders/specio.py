"""Text formats: surface spec files and JSON result documents.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Optional

from .classify import Verdict
from .lattice import SurfaceSpec
from .tigers import (
    CaseTable,
    Decomposition,
    DecompositionOutcome,
    Obstruction,
    PointSpec,
    ResidualNumbers,
    TigerCertificate,
    case_tables,
    decomposition_parts,
)


class SpecFileError(ValueError):
    """Malformed spec file: structure, not semantics."""


# ASCII digits only: int() alone would also take "0_3" and non-ASCII digits
_DEGREE_RE = re.compile(r"[+-]?[0-9]+")


def parse_spec_text(text: str) -> SurfaceSpec:
    """Parse spec file content.

    Structure problems raise SpecFileError; semantically invalid content
    (unknown type token, degree/rank out of range) propagates InvalidSpec
    from the SurfaceSpec constructor.  '#' starts a comment.
    """
    degree: Optional[int] = None
    tokens: Optional[list[str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise SpecFileError(f"line {lineno}: expected 'key: value', got {raw.strip()!r}")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'degree'")
            if not _DEGREE_RE.fullmatch(value):
                raise SpecFileError(
                    f"line {lineno}: degree must be an integer, got {value!r}"
                )
            degree = int(value)
        elif key == "singularities":
            if tokens is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'singularities'")
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        else:
            raise SpecFileError(f"line {lineno}: unknown key {key!r}")
    if degree is None:
        raise SpecFileError("missing 'degree' line")
    return SurfaceSpec(degree, tuple(tokens or ()))


def render_document(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _spec_block(degree: int, singularities: tuple[str, ...]) -> dict[str, Any]:
    return {"degree": degree, "singularities": list(singularities)}


def verdict_document(spec: SurfaceSpec, verdict: Verdict) -> dict[str, Any]:
    return {
        "kind": "classification",
        "spec": _spec_block(spec.degree, tuple(str(t) for t in spec.singularities)),
        "picard_rank": verdict.picard_rank,
        "anticanonical_cylinder": {
            "exists": verdict.anticanonical_cylinder,
            "reason": verdict.anticanonical_reason,
        },
        "h_polar_cylinder": {
            "exists": verdict.h_polar_cylinder,
            "reason": verdict.polar_reason,
        },
    }


def _numbers_block(numbers: ResidualNumbers) -> dict[str, Any]:
    return {
        "label": numbers.label,
        "pairings": [[lbl, v] for lbl, v in numbers.pairings],
        "square": numbers.square,
        "dim": numbers.dim,
    }


def _numbers_from(block: dict[str, Any]) -> ResidualNumbers:
    return ResidualNumbers(
        label=block["label"],
        pairings=tuple((lbl, v) for lbl, v in block["pairings"]),
        square=block["square"],
        dim=block["dim"],
    )


def _row_for(case_id: str) -> CaseTable:
    for row in case_tables():
        if row.case_id == case_id:
            return row
    raise ValueError(f"unknown case id {case_id!r}")


def certificate_document(cert: TigerCertificate) -> dict[str, Any]:
    """Full JSON form of a certificate, decompositions expanded with each
    part's derived numbers so the document is checkable on its own."""
    row = _row_for(cert.case_id)
    decs = []
    for outcome in cert.decompositions:
        part1, part2 = decomposition_parts(row, cert.degree, outcome.decomposition)
        entry: dict[str, Any] = {
            "part1": {
                "multiple": part1.multiple,
                "node_coefficients": list(part1.node_coefficients),
                "e_coefficient": part1.e_coefficient,
                "residual": _numbers_block(part1.residual),
            },
            "part2": {
                "multiple": part2.multiple,
                "node_coefficients": list(part2.node_coefficients),
                "e_coefficient": part2.e_coefficient,
                "residual": _numbers_block(part2.residual),
            },
        }
        if outcome.obstruction is None:
            entry["obstruction"] = None
        else:
            entry["obstruction"] = {
                "kind": outcome.obstruction.kind,
                "witness": [[k, v] for k, v in outcome.obstruction.witness],
                "description": outcome.obstruction.describe(),
            }
        decs.append(entry)
    return {
        "kind": "tiger_certificate",
        "spec": _spec_block(cert.degree, cert.singularities),
        "case": cert.case_id,
        "singularity": cert.singularity,
        "singularity_index": cert.singularity_index,
        "multiple": cert.multiple,
        "configuration": [[lbl, c] for lbl, c in cert.configuration],
        "residual": _numbers_block(cert.residual),
        "point": {"kind": cert.point.kind, "curves": list(cert.point.curves)},
        "residual_multiplicity": cert.residual_multiplicity,
        "local_multiplicity": cert.local_multiplicity,
        "ratio": str(cert.ratio),
        "tiger_components": [[lbl, str(c)] for lbl, c in cert.tiger_components],
        "decompositions": decs,
        "assumptions": list(cert.assumptions),
        "status": cert.status,
    }


def certificate_from_document(doc: dict[str, Any]) -> TigerCertificate:
    """Rebuild a value-equal certificate from its JSON form.

    Raises ValueError for a document of another kind or one missing a field.
    """
    if doc.get("kind") != "tiger_certificate":
        raise ValueError("not a tiger certificate document")
    try:
        return _certificate_from(doc)
    except KeyError as exc:
        raise ValueError(f"certificate document lacks field {exc.args[0]!r}") from None


def _certificate_from(doc: dict[str, Any]) -> TigerCertificate:
    outcomes = []
    for entry in doc["decompositions"]:
        dec = Decomposition(
            tuple(entry["part1"]["node_coefficients"]),
            entry["part1"]["e_coefficient"],
        )
        ob = entry["obstruction"]
        obstruction = (
            Obstruction(ob["kind"], tuple((k, v) for k, v in ob["witness"]))
            if ob is not None
            else None
        )
        outcomes.append(DecompositionOutcome(dec, obstruction))
    return TigerCertificate(
        degree=doc["spec"]["degree"],
        singularities=tuple(doc["spec"]["singularities"]),
        case_id=doc["case"],
        singularity=doc["singularity"],
        singularity_index=doc["singularity_index"],
        multiple=doc["multiple"],
        configuration=tuple((lbl, c) for lbl, c in doc["configuration"]),
        residual=_numbers_from(doc["residual"]),
        point=PointSpec(doc["point"]["kind"], tuple(doc["point"]["curves"])),
        residual_multiplicity=doc["residual_multiplicity"],
        local_multiplicity=doc["local_multiplicity"],
        ratio=Fraction(doc["ratio"]),
        tiger_components=tuple(
            (lbl, Fraction(v)) for lbl, v in doc["tiger_components"]
        ),
        decompositions=tuple(outcomes),
        assumptions=tuple(doc["assumptions"]),
        status=doc["status"],
    )
