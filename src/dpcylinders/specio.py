"""Text formats: surface spec files and JSON result documents.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").
"""

from __future__ import annotations

import json
import re
from itertools import zip_longest
from typing import Any, Optional

from .classify import Verdict
from .lattice import InvalidSpec, SurfaceSpec, excerpt
from .tigers import CaseTable, Part, TigerCertificate, build_tiger, every_split


class SpecFileError(ValueError):
    """Malformed spec file: structure, not semantics."""


# ASCII digits only: int() alone would also take "0_3" and non-ASCII digits
_DEGREE_RE = re.compile(r"([+-]?)0*([0-9]+)")


def parse_spec_text(text: str) -> SurfaceSpec:
    """Parse spec file content.

    Structure problems raise SpecFileError; semantically invalid content
    (unknown type token, degree/rank out of range) raises InvalidSpec, most
    of it from the SurfaceSpec constructor.  '#' starts a comment.
    """
    degree: Optional[int] = None
    tokens: Optional[list[str]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise SpecFileError(f"line {lineno}: expected 'key: value', got {excerpt(raw.strip())}")
        key = key.strip().lower()
        value = value.strip()
        if key == "degree":
            if degree is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'degree'")
            m = _DEGREE_RE.fullmatch(value)
            if m is None:
                raise SpecFileError(
                    f"line {lineno}: degree must be an integer, got {excerpt(value)}"
                )
            sign, digits = m.groups()
            if len(digits) > 1:
                # every valid degree has one digit, and int() refuses thousands
                raise InvalidSpec(
                    f"degree must be an integer in [1, 9], got a {len(digits)}-digit number"
                )
            degree = int(sign + digits)
        elif key == "singularities":
            if tokens is not None:
                raise SpecFileError(f"line {lineno}: duplicate 'singularities'")
            tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        else:
            raise SpecFileError(f"line {lineno}: unknown key {excerpt(key)}")
    if degree is None:
        raise SpecFileError("missing 'degree' line")
    return SurfaceSpec(degree, tuple(tokens or ()))


def render_document(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _spec_block(spec: SurfaceSpec) -> dict[str, Any]:
    return {"degree": spec.degree, "singularities": [str(t) for t in spec.singularities]}


def verdict_document(spec: SurfaceSpec, verdict: Verdict) -> dict[str, Any]:
    return {
        "kind": "classification",
        "spec": _spec_block(spec),
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


def _numbers_block(row: CaseTable, label: str, part: Part) -> dict[str, Any]:
    return {
        "label": label,
        "pairings": [[lbl, v] for lbl, v in zip(("K",) + row.curves, part.pairings)],
        "square": part.square,
        "dim": part.dim,
    }


def _part_block(row: CaseTable, label: str, part: Part) -> dict[str, Any]:
    # the coefficient vector runs over the nodes, then E when the row uses it
    k = len(row.node_coefficients)
    return {
        "multiple": part.multiple,
        "node_coefficients": list(part.coefficients[:k]),
        "e_coefficient": part.coefficients[k] if row.e_coefficient else 0,
        "residual": _numbers_block(row, label, part),
    }


def certificate_document(cert: TigerCertificate) -> dict[str, Any]:
    """Full JSON form of a certificate, every split of the box expanded
    with each part's derived numbers so the document is checkable on its
    own."""
    row, degree = cert.row, cert.spec.degree
    decs = []
    for split, (part1, part2) in every_split(cert):
        entry: dict[str, Any] = {
            "part1": _part_block(row, "F1", part1),
            "part2": _part_block(row, "F2", part2),
        }
        if split.obstruction is None:
            entry["obstruction"] = None
        else:
            entry["obstruction"] = {
                "kind": split.obstruction.kind,
                "witness": [[k, v] for k, v in split.obstruction.witness],
                "description": split.obstruction.describe(),
            }
        decs.append(entry)
    return {
        "kind": "tiger_certificate",
        "spec": _spec_block(cert.spec),
        "case": row.case_id,
        "singularity": str(row.singularity) if row.singularity else None,
        "singularity_index": cert.singularity_index,
        "multiple": row.multiple,
        "configuration": [[lbl, c] for lbl, c in row.configuration],
        "residual": _numbers_block(row, "N", row.residual(degree)),
        "point": {"kind": row.point.kind, "curves": list(row.point.curves)},
        "residual_multiplicity": row.residual_multiplicity,
        "local_multiplicity": row.local_multiplicity,
        "ratio": str(row.ratio),
        "tiger_components": [[lbl, str(c)] for lbl, c in row.tiger_components],
        "decompositions": decs,
        "assumptions": list(row.assumptions(degree)),
        "status": cert.status,
    }


def certificate_from_document(doc: Any) -> TigerCertificate:
    """Re-derive the certificate a document states from its spec block.

    The document must render exactly as that certificate's own document,
    value for value and type for type; anything else raises ValueError
    naming the first line where the two renderings differ.
    """
    if type(doc) is not dict or doc.get("kind") != "tiger_certificate":
        raise ValueError("not a tiger certificate document")
    block = doc.get("spec")
    if (type(block) is not dict or type(block.get("degree")) is not int
            or type(block.get("singularities")) is not list):
        raise ValueError(
            "field 'spec' must be an object with an integer 'degree' "
            "and a 'singularities' array"
        )
    cert = build_tiger(SurfaceSpec(block["degree"], tuple(block["singularities"])))
    want, got = render_document(certificate_document(cert)), render_document(doc)
    if want != got:
        lines = zip_longest(want.splitlines(), got.splitlines(), fillvalue="")
        number, should, found = next(
            (n, w.strip(), g.strip()) for n, (w, g) in enumerate(lines, start=1) if w != g
        )
        raise ValueError(
            f"not the certificate's own rendering: line {number} "
            f"should read {excerpt(should)}, not {excerpt(found)}"
        )
    return cert
