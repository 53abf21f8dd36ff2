"""A certificate's v1 document built as one dict, plainly.

The engine streams the document from per-half templates, filled from a walk
over the two halves of the box.  This module is the tests' second route:
the dict builder the engine no longer uses, with each split's parts from
``split_parts`` over a plain product box, whose
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` the stream must match
byte for byte.  What the document states in words it derives with its own
code: each obstruction's description from its kind and witness, the ratio
with ``Fraction``, the marked point's kind with ``point_kind`` and the list
of assumptions with ``assumptions``, in its own copy of their words
(``WORDING``) and its own record of which case states which note
(``CASE_NOTES``), so a reworded, dropped or added assumption or note fails
the byte comparison.
"""

from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as quote

from box_walk import plain_splits

# Every assumption and note a certificate states, by its tag, the text
# before the colon.
WORDING = {text.partition(":")[0]: text for text in (
    "expected-dimension: linear system dimensions come from Riemann-Roch "
    "with vanishing higher cohomology assumed throughout",
    "asserted-generality: existence and generality of members of the counted "
    "families is asserted by dimension budget, not constructed",
    "minus-one-curve: E is taken disjoint from every exceptional curve",
    "balanced-split: the even split is excluded by comparing point-constrained "
    "family dimensions, candidate against one anticanonical part",
    "degree-4-budget: at degree 4 two splits fail the multiplicity budget "
    "outright; the dimension comparison only bites at degree 6",
    "exact-budget: the candidate family at the marked point has dimension "
    "exactly 0 (21 conditions against a 21-dimensional system)",
    "multiplicity-recount: the local multiplicity uses this configuration's "
    "own coefficients at the marked point",
)}

# The cases that state notes of their own, each note's tag with the degrees
# it applies at, by case id: a row redrawn from a case keeps its notes, and
# a note dropped from or added to a case row fails the byte comparison.
CASE_NOTES = {
    "deg4or6": (("degree-4-budget", (4,)),),
    "A1deg3": (("exact-budget", (3,)),),
    "E8": (("multiplicity-recount", (1,)),),
}


def spec_block(spec):
    return {"degree": spec.degree, "singularities": [str(t) for t in spec.singularities]}


def numbers_block(row, label, part):
    return {
        "label": label,
        "pairings": [[lbl, v] for lbl, v in zip(("K",) + row.curves, part.pairings)],
        "square": part.square,
        "dim": part.dim,
    }


def part_block(row, label, part):
    # the coefficient vector runs over the nodes, then E when the row uses it
    k = len(row.node_coefficients)
    return {
        "multiple": part.multiple,
        "node_coefficients": list(part.coefficients[:k]),
        "e_coefficient": part.coefficients[k] if row.e_coefficient else 0,
        "residual": numbers_block(row, label, part),
    }


def point_kind(curves):
    """The marked point's kind: on no named curve, on one, or where two meet."""
    if not curves:
        return "general"
    return "node_intersection" if len(curves) == 2 else "on_curve"


def assumptions(row, degree):
    """What a construction leans on, in the document's order: the two
    assumptions of every construction, E's when the row uses E, the
    balanced split's when the row has one, then its case's notes at the
    degree (``CASE_NOTES``)."""
    tags = (
        ["expected-dimension", "asserted-generality"]
        + (["minus-one-curve"] if row.e_coefficient else [])
        + (["balanced-split"] if row.balanced_split is not None else [])
        + [tag for tag, degrees in CASE_NOTES.get(row.case_id, ()) if degree in degrees]
    )
    return [WORDING[tag] for tag in tags]


@cache
def description(obstruction):
    """An obstruction in words, from its kind and witness values alone."""
    kind, w = obstruction.kind, dict(obstruction.witness)
    if kind == "negative_self_intersection":
        if "square" in w:
            return f"part {w['part']} residual has square {w['square']} <= -2"
        return f"part {w['part']} residual pairs {w['pairing']} < 0 with a configuration curve"
    if kind == "dimension_gap":
        return (f"every split family has dimension {w['parts_dim']}, below the candidate "
                f"family's {w['candidate_dim']}, so a general candidate avoids all such splits")
    caps = f"{w['cap_part1']}+{w['cap_part2']} < {w['required']}"
    if kind == "disjointness":
        return (f"part {w['part']} cannot meet the marked point's curves at all, "
                f"and the parts can carry at most {caps} there")
    if kind == "multiplicity_budget":
        return f"parts can carry multiplicity at most {caps} at the marked point"
    raise ValueError(f"no description for an obstruction of kind {kind}")


def reference_document(cert):
    """The certificate's document as a dict, every split of the box
    expanded with each part's derived numbers."""
    row, degree = cert.row, cert.spec.degree
    decs = []
    for split, (part1, part2) in plain_splits(cert):
        entry = {
            "part1": part_block(row, "F1", part1),
            "part2": part_block(row, "F2", part2),
        }
        if split.obstruction is None:
            entry["obstruction"] = None
        else:
            entry["obstruction"] = {
                "kind": split.obstruction.kind,
                "witness": [[k, v] for k, v in split.obstruction.witness],
                "description": description(split.obstruction),
            }
        decs.append(entry)
    return {
        "kind": "tiger_certificate",
        "spec": spec_block(cert.spec),
        "case": row.case_id,
        "singularity": str(row.singularity) if row.singularity else None,
        "singularity_index": cert.singularity_index,
        "multiple": row.multiple,
        "configuration": [[lbl, c] for lbl, c in row.configuration],
        "residual": numbers_block(row, "N", row.residual(degree)),
        "point": {"kind": point_kind(row.point), "curves": list(row.point)},
        "residual_multiplicity": row.residual_multiplicity,
        "local_multiplicity": row.local_multiplicity,
        "ratio": str(Fraction(row.local_multiplicity, row.multiple)),
        "tiger_components": [["N", str(Fraction(1, row.multiple))]] + (
            [["E", str(Fraction(row.e_coefficient, row.multiple))]] if row.e_coefficient else []
        ),
        "decompositions": decs,
        "assumptions": assumptions(row, degree),
        "status": cert.status,
    }


def reference_text(doc):
    """A document as ``dpcyl`` writes it:
    ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``."""
    return indented(doc) + "\n"


LITERALS = {None: "null", True: "true", False: "false"}


def indented(value, indent="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value built of
    dicts with string keys, lists, strings, integers, booleans and None.

    With an indent, json renders in pure Python, one token at a time
    through a generator per level of nesting; this joins each container's
    items at once, in half the time on the large references.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return quote(value)
    if kind is list or kind is dict:
        brackets = "[]" if kind is list else "{}"
        if not value:
            return brackets
        inner = indent + "  "
        if kind is list:
            items = [indented(item, inner) for item in value]
        else:
            items = [quote(key) + ": " + indented(value[key], inner) for key in sorted(value)]
        return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]
    return LITERALS[value]
