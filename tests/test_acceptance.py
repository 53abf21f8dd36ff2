"""Acceptance suite: eight end-to-end checks, one printed line each.

Every check is an exact integer or rational identity; there are no
tolerances anywhere.  Each criterion prints a PASS/FAIL line (also echoed
in the terminal summary) so the suite doubles as a release checklist.
"""

import json
import math
from contextlib import contextmanager
from fractions import Fraction

import pytest

import conftest
from dpcylinders import (
    NoCaseApplies,
    SurfaceSpec,
    build_tiger,
    case_tables,
    certificate_chunks,
    classify,
    enumerate_decompositions,
    enumerate_specs,
)
from dpcylinders import cli
from dpcylinders.lattice import adjacency, all_types, gram_table, picard_rank
from dpcylinders.tigers import (
    DIMENSION_GAP,
    DISJOINTNESS,
    MULTIPLICITY_BUDGET,
    NEGATIVE_SELF_INTERSECTION,
)

from box_walk import box_walk, every_outcome
from coordinate_oracle import OracleUnavailable, check_row
from pairing_reference import PairingTable, pairings, row_reference
from residual_fixtures import RESIDUAL_FIXTURES, ev, minimal_spec_args


def _record(number, description, passed):
    line = f"ACCEPTANCE {number}: {description}: {'PASS' if passed else 'FAIL'}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        _record(number, description, False)
        raise
    _record(number, description, True)


def _is_positive_definite(matrix):
    """Leading principal minors, exact rational elimination."""
    n = len(matrix)
    for size in range(1, n + 1):
        sub = [[Fraction(matrix[i][j]) for j in range(size)] for i in range(size)]
        det = Fraction(1)
        for col in range(size):
            pivot_row = next(
                (r for r in range(col, size) if sub[r][col] != 0), None
            )
            if pivot_row is None:
                return False
            if pivot_row != col:
                sub[col], sub[pivot_row] = sub[pivot_row], sub[col]
                det = -det
            det *= sub[col][col]
            for r in range(col + 1, size):
                factor = sub[r][col] / sub[col][col]
                for c in range(col, size):
                    sub[r][c] -= factor * sub[col][c]
        if det <= 0:
            return False
    return True


def test_acceptance_1_gram_tables():
    with criterion(1, "Gram tables are negated Cartan matrices, negative definite"):
        types = all_types()
        assert len(types) == 16  # A1-A8, D4-D8, E6-E8
        for t in types:
            gram = gram_table(t)
            edges = adjacency(t)
            k = t.rank
            for i in range(k):
                for j in range(k):
                    edge = (min(i, j) + 1, max(i, j) + 1) in edges
                    cartan = 2 if i == j else (-1 if edge else 0)
                    assert gram[i][j] == -cartan, (t, i, j)
            negated = [[-gram[i][j] for j in range(k)] for i in range(k)]
            assert _is_positive_definite(negated), t


def test_acceptance_2_dimension_law():
    with criterion(2, "anticanonical dimension law m(m+1)d/2 with fixture points"):
        for d in range(1, 10):
            table = PairingTable(d)
            for m in range(1, 5):
                assert table.dim(table.part(m, {})) == m * (m + 1) * d // 2, (d, m)
        # the four printed anchor values
        assert PairingTable(5).dim(PairingTable(5).part(4, {})) == 50
        assert PairingTable(5).dim(PairingTable(5).part(3, {})) == 30
        for d in range(1, 10):
            table = PairingTable(d)
            assert table.dim(table.part(2, {})) == 3 * d
            assert table.dim(table.part(1, {})) == d


def test_acceptance_3_residual_fixture_suite():
    with criterion(3, "residual-class fixture suite, formulas and pairing table"):
        for row in case_tables():
            fix = RESIDUAL_FIXTURES[row.case_id]
            for d in row.degrees:
                # route one: the pairing table and the relation's residual
                table, config = row_reference(row, d)
                n = table.part(row.multiple, config)
                n_pairings = pairings(table, n)
                assert table.pair(n, n) == ev(fix.square, d)
                assert n_pairings["K"] == ev(fix.k_pairing, d)
                for i, expected in enumerate(fix.node_pairings):
                    assert n_pairings[f"D{i + 1}"] == expected
                if fix.e_pairing is not None:
                    assert n_pairings["E"] == fix.e_pairing
                assert table.dim(n) == ev(fix.dim, d)
                # route two: the closed-form certificate numbers
                cert = build_tiger(SurfaceSpec(*minimal_spec_args(row.case_id, d)))
                assert cert.row.residual(d).square == ev(fix.square, d)
                assert cert.row.residual(d).dim == ev(fix.dim, d)
        # the one-node cubic's three negative split squares
        row = next(r for r in case_tables() if r.case_id == "A1deg3")
        assert box_walk(row, 3).squares[1:].tolist() == [1, -5, -15]


def test_acceptance_4_oracle_equivalence():
    with criterion(4, "explicit coordinates reproduce every symbolic pairing"):
        refused = []
        for row in case_tables():
            for d in row.degrees:
                try:
                    check_row(row, d)
                except OracleUnavailable as exc:
                    # must be the provable full-rank discriminant failure:
                    # disc(A_k)=k+1, disc(D_k)=4, disc(E6/E7/E8)=3/2/1, and a
                    # full-rank sublattice needs product = degree * square
                    t = row.singularity
                    assert t is not None and t.rank == 9 - d
                    disc = {"A": t.rank + 1, "D": 4}.get(
                        t.family, {6: 3, 7: 2, 8: 1}.get(t.rank)
                    )
                    quotient, remainder = divmod(disc, d)
                    assert remainder != 0 or math.isqrt(quotient) ** 2 != quotient
                    assert "perfect square" in str(exc)
                    refused.append((row.case_id, d))
        assert sorted(refused) == [("A6", 3), ("D6", 3), ("D7", 2)]


def test_acceptance_5_tiger_certificates():
    with criterion(5, "every cylinder spec certifies with its exact ratio"):
        certified = 0
        refusals = 0
        for spec in enumerate_specs():
            if not classify(spec).anticanonical_cylinder:
                with pytest.raises(NoCaseApplies):
                    build_tiger(spec)
                refusals += 1
                continue
            cert = build_tiger(spec)
            assert cert.status == "certified", str(spec)
            row = cert.row
            assert row.ratio == str(RESIDUAL_FIXTURES[row.case_id].ratio), str(spec)
            assert row.local_multiplicity > 2 * row.multiple
            certified += 1
        assert certified == 188
        assert refusals == 62


def test_acceptance_6_decomposition_obstructions():
    with criterion(6, "split obstructions: exact cases, gaps, zero unobstructed"):
        rows = {r.case_id: r for r in case_tables()}
        outcomes = every_outcome(rows["A1deg3"], 3)
        assert [
            (o.obstruction.kind, dict(o.obstruction.witness)) for o in outcomes
        ] == [
            (DISJOINTNESS, {"part": 1, "required": 6, "cap_part1": 0, "cap_part2": 3}),
            (MULTIPLICITY_BUDGET, {"required": 6, "cap_part1": 1, "cap_part2": 4}),
            (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -5}),
            (NEGATIVE_SELF_INTERSECTION, {"part": 1, "square": -15}),
        ]
        for d in (7, 8, 9):
            (outcome,) = enumerate_decompositions(rows["deg7plus"], d)
            assert outcome.obstruction.kind == DIMENSION_GAP
            assert dict(outcome.obstruction.witness) == {
                "candidate_dim": 3 * d - 15, "parts_dim": 2 * d - 9,
            }
        (outcome,) = enumerate_decompositions(rows["deg5"], 5)
        assert dict(outcome.obstruction.witness) == {
            "candidate_dim": 5, "parts_dim": 4,
        }
        for row in case_tables():
            for d in row.degrees:
                assert all(
                    o.obstruction is not None for o in every_outcome(row, d)
                ), (row.case_id, d)


def test_acceptance_7_classification():
    with criterion(7, "classification fixtures and the three polar refusals"):
        fixtures = [
            (9, (), True, True),
            (8, ("A1",), True, True),
            (7, (), True, True),
            (6, ("A1",), True, True),
            (5, ("A4",), True, True),
            (4, ("D4",), True, True),
            (3, (), False, True),
            (3, ("A1",), True, True),
            (3, ("E6",), True, True),
            (2, (), False, True),
            (2, ("A1",), False, True),
            (2, ("A1",) * 7, False, True),
            (2, ("A2",), True, True),
            (2, ("E7",), True, True),
            (1, (), False, True),
            (1, ("A1", "A1", "A3", "A3"), False, False),
            (1, ("A2", "A2", "A2", "A2"), False, False),
            (1, ("D4", "D4"), False, False),
            (1, ("A1", "A3", "D4"), False, True),
            (1, ("A4",), True, True),
        ]
        assert len(fixtures) == 20
        for d, sings, anticanonical, polar in fixtures:
            verdict = classify(SurfaceSpec(d, sings))
            assert verdict.anticanonical_cylinder is anticanonical, (d, sings)
            assert verdict.h_polar_cylinder is polar, (d, sings)
        refused = [
            spec for spec in enumerate_specs()
            if not classify(spec).h_polar_cylinder
        ]
        assert sorted(
            (s.degree, tuple(str(t) for t in s.singularities)) for s in refused
        ) == [
            (1, ("A1", "A1", "A3", "A3")),
            (1, ("A2", "A2", "A2", "A2")),
            (1, ("D4", "D4")),
        ]
        assert all(picard_rank(s) == 1 for s in refused)


def test_acceptance_8_cli_contract(tmp_path, capsys):
    with criterion(8, "CLI byte-identical round-trip and exit codes 0/10/20/30/2/3"):
        files = {
            "yes.txt": ("degree: 3\nsingularities: A1\n", cli.EXIT_OK),
            "no_anti.txt": ("degree: 3\n", cli.EXIT_NO_ANTICANONICAL),
            "no_polar.txt": (
                "degree: 1\nsingularities: D4, D4\n", cli.EXIT_NO_CYLINDER,
            ),
            "broken.txt": ("degre: 3\n", cli.EXIT_BAD_FILE),
            "bad_token.txt": ("degree: 3\nsingularities: Z9\n", cli.EXIT_BAD_SPEC),
            "overflow.txt": ("degree: 9\nsingularities: A1\n", cli.EXIT_BAD_SPEC),
        }
        for name, (text, expected) in files.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            assert cli.main(["classify", "--spec", str(path)]) == expected, name
            capsys.readouterr()

        # certificate round-trip, byte for byte
        spec_path = tmp_path / "yes.txt"
        assert cli.main(["tiger", "--spec", str(spec_path)]) == cli.EXIT_OK
        first = capsys.readouterr().out
        assert cli.main(["tiger", "--spec", str(spec_path)]) == cli.EXIT_OK
        assert capsys.readouterr().out == first
        # the certificate the document's spec block derives renders it
        spec = SurfaceSpec(**json.loads(first)["spec"])
        assert "".join(certificate_chunks(build_tiger(spec))) == first

        # exit 30 is reserved for engine discrepancies; force one
        with conftest.forced_discrepancy():
            assert (
                cli.main(["tiger", "--spec", str(spec_path)])
                == cli.EXIT_DISCREPANCY
            )
        capsys.readouterr()
