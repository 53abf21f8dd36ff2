"""Text formats: surface spec files and verdict documents.

Spec files are two-line key/value text ("degree: 3", "singularities: A1, A4");
documents are JSON with sorted keys and a trailing newline, so identical
inputs always render byte-identical output.  Rational values travel as
strings in lowest terms ("9/4").  Every document, the certificate documents
of ``certificate`` included, renders through the one encoder here.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from .lattice import InvalidSpec, SurfaceSpec, Verdict, excerpt


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


# every document's layout
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)


def render_document(doc: dict[str, Any]) -> str:
    return _ENCODER.encode(doc) + "\n"


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
