"""A certificate's v1 document built as one dict, plainly.

The engine streams the document from per-row templates.  This module is
the tests' second route: the dict builder the engine no longer uses, whose
``json.dumps(..., indent=2, sort_keys=True) + "\\n"`` the stream must match
byte for byte.
"""

import json

from dpcylinders.tigers import every_split


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
    for split, (part1, part2) in every_split(cert):
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
    """A document as ``dpcyl`` writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
