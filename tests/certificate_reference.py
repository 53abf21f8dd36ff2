"""A certificate's v1 document built as one dict, plainly.

The engine streams the document from per-half templates, filled from a walk
over the two halves of the box.  This module is the tests' second route:
the dict builder the engine no longer uses, with each split's parts from
``split_parts`` over a plain product box, whose
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` the stream must match
byte for byte.
"""

from json.encoder import encode_basestring_ascii as quote

from box_walk import plain_splits


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
                "description": split.obstruction.describe(),
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
        "point": {"kind": row.point.kind, "curves": list(row.point.curves)},
        "residual_multiplicity": row.residual_multiplicity,
        "local_multiplicity": row.local_multiplicity,
        "ratio": str(row.ratio),
        "tiger_components": [[lbl, str(c)] for lbl, c in row.tiger_components],
        "decompositions": decs,
        "assumptions": list(row.assumptions(degree)),
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
