"""Output-identity gate: hash every output the program can be asked for.

Runs ``dpcyl`` as child processes and hashes the files they write: the
``sweep`` report, the ``classify`` verdict of all 250 specs, the ``tiger``
certificate of all 188 certified specs (``E8`` at degree 1 included, about a
minute and 2.7 GB), the exit 20 of the other 62, and the refusal of every
malformed or invalid spec file below.

    python3 bench/pin.py            # compare with bench/pins.json; exit 1 on a moved hash
    python3 bench/pin.py --write    # record the current outputs as the pins

The benchmark's workloads read their references from the same file.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod
from pathlib import Path
from typing import Any

import harness

# Spec files the program must refuse, with the documented exit code:
# 2 for a malformed file, 3 for a well-formed file describing an invalid spec.
REFUSALS = (
    ("degree three\n", 2),
    ("degree: three\n", 2),
    ("degree: 2.5\n", 2),
    ("singularities: A1\n", 2),
    ("", 2),
    ("# only a comment\n", 2),
    ("degree: 3\ndegree: 4\n", 2),
    ("degree: 3\ncolour: red\n", 2),
    ("degree: 2\nsingularities: A1\nsingularities: A2\n", 2),
    ("degree: 0\n", 3),
    ("degree: 10\n", 3),
    ("degree: -1\n", 3),
    ("degree: 3\nsingularities: A9\n", 3),
    ("degree: 3\nsingularities: B2\n", 3),
    ("degree: 2\nsingularities: D3\n", 3),
    ("degree: 2\nsingularities: E5\n", 3),
    ("degree: 1\nsingularities: E8, A1\n", 3),
    ("degree: 3\nsingularities: A4, A3\n", 3),
    ("degree: 9\nsingularities: A1\n", 3),
)


def _pin_of(op: harness.Op, work: Path, env: dict[str, str]) -> dict[str, Any]:
    harness.write_inputs([op], work)
    result = harness.run_op(op, 0, work, env)
    sys.stderr.write(f"  {op.label}: exit {result.exit}, {result.size} bytes, {result.wall_s:.2f} s\n")
    return {"exit": result.exit, "bytes": result.size, "sha256": result.sha256}


def compute_pins(work: Path) -> dict[str, Any]:
    harness.import_library()
    from dpcylinders import classify, enumerate_specs, select_case

    env = harness.child_env()
    pins: dict[str, Any] = {
        "sweep": _pin_of(harness.Op("sweep", None, True, {}, "sweep"), work, env),
        "specs": [],
        "refusals": [],
    }
    for spec in enumerate_specs():
        tokens = [str(t) for t in spec.singularities]
        text = harness.spec_text(spec.degree, tokens)
        entry: dict[str, Any] = {
            "label": str(spec), "degree": spec.degree, "singularities": tokens,
        }
        for command in ("classify", "tiger"):
            op = harness.Op(command, text, command == "tiger", {}, f"{command} {spec}")
            entry[command] = _pin_of(op, work, env)
        entry["case"] = entry["splits"] = None
        if classify(spec).anticanonical_cylinder:
            row, _ = select_case(spec)
            entry["case"] = row.case_id
            entry["splits"] = prod(c + 1 for c in row.node_coefficients) * (
                row.e_coefficient + 1
            )
        pins["specs"].append(entry)
    for text, expected in REFUSALS:
        for command in ("classify", "tiger"):
            got = _pin_of(harness.Op(command, text, False, {}, f"{command} {text!r}"), work, env)
            if got != {"exit": expected, "bytes": 0, "sha256": harness.EMPTY_SHA256}:
                raise SystemExit(f"refusal {text!r} via {command}: expected exit {expected}, got {got}")
        pins["refusals"].append({"text": text, "exit": expected})
    return pins


def compare(pinned: dict[str, Any], now: dict[str, Any]) -> list[str]:
    """Every difference between two pin sets, one line each."""
    moved = []
    if pinned["sweep"] != now["sweep"]:
        moved.append(f"sweep: {pinned['sweep']} -> {now['sweep']}")
    old = {s["label"]: s for s in pinned["specs"]}
    new = {s["label"]: s for s in now["specs"]}
    for label in sorted(old.keys() | new.keys()):
        if label not in old or label not in new:
            moved.append(f"{label}: present in only one set")
            continue
        for key in ("classify", "tiger", "case", "splits"):
            if old[label][key] != new[label][key]:
                moved.append(f"{key} {label}: {old[label][key]} -> {new[label][key]}")
    if pinned["refusals"] != now["refusals"]:
        moved.append("refusal list differs")
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current outputs in pins.json")
    args = parser.parse_args(argv)
    harness.require_program()
    with harness.Workdir() as work:
        now = compute_pins(work)
    if args.write:
        harness.PINS_PATH.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
        print(f"wrote {harness.PINS_PATH.name}: sweep, {len(now['specs'])} specs, "
              f"{len(now['refusals'])} refusals")
        return 0
    moved = compare(harness.load_pins(), now)
    for line in moved:
        print(f"MOVED {line}")
    certified = sum(1 for s in now["specs"] if s["tiger"]["exit"] == 0)
    print(f"{'FAIL' if moved else 'OK'}: sweep report, {len(now['specs'])} verdicts, "
          f"{certified} certificates, {len(now['refusals'])} refusals; "
          f"{len(moved)} hash(es) moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
