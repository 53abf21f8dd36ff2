"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
from collections import Counter
from math import prod

import pytest

import harness
import run
import traced

PINS = harness.load_pins()


def test_same_seed_gives_same_request_stream():
    first = harness.request_stream(PINS, 7)
    assert first == harness.request_stream(PINS, 7)
    assert first != harness.request_stream(PINS, 8)


def test_request_stream_keeps_the_mix():
    ops = harness.request_stream(PINS, 3)
    assert len(ops) == sum(n for _, n in harness.REQUEST_MIX) >= 100
    exits = Counter((op.command, op.pin["exit"]) for op in ops)
    assert exits[("tiger", 20)] >= 10
    assert sum(n for (_, code), n in exits.items() if code in (2, 3)) == 15
    assert sum(op.command == "classify" and op.pin["exit"] in (0, 10, 20) for op in ops) >= 40


def test_flipped_output_byte_fails_the_run(monkeypatch):
    op = harness.workload_ops("requests-small", PINS, 1)[0]
    real = harness.run_child

    def flipping(argv, stdout_path, env):
        child = real(argv, stdout_path, env)
        data = bytearray(stdout_path.read_bytes() or b"\0")
        data[len(data) // 2] ^= 0x01
        stdout_path.write_bytes(bytes(data))
        return child

    with harness.Workdir() as work:
        harness.write_inputs([op], work)
        env = harness.child_env()
        clean = run.run_passes([op], work, env, 0)
        monkeypatch.setattr(harness, "run_child", flipping)
        flipped = run.run_passes([op], work, env, 0)
    assert [r.ok for p in clean for r in p] == [True]
    assert [r.ok for p in flipped for r in p] == [False]


def test_kill_histogram_sums_to_splits():
    harness.import_library()
    from dpcylinders import case_tables, enumerate_decompositions

    for row in case_tables():
        if prod(c + 1 for c in row.node_coefficients) > harness.SMALL_SPLITS:
            continue  # the traced sweep covers the big enumerations
        for degree in row.degrees:
            outcomes = enumerate_decompositions(row, degree)
            assert sum(traced.kill_histogram(outcomes).values()) == len(outcomes)


def test_traced_replay_reproduces_the_pinned_outputs():
    ops = harness.request_stream(PINS, 11)[:20]
    tracer = traced.Tracer()
    with harness.Workdir() as work, traced.Replay(tracer) as player:
        harness.write_inputs(ops, work)
        assert all(player.run(op, i, work) for i, op in enumerate(ops))
    m = traced.per_layer_metrics(tracer, 1000.0, traced.span_cost_ns(100))
    kills = sum(m[f"tigers.killed.{k}"] for k in traced.KILLS) + m["tigers.unobstructed"]
    assert kills == m["tigers.splits"]
    assert m["specio.parse_calls"] == len(ops)
    exits = Counter(op.pin["exit"] for op in ops)
    assert (m["specio.refused_file"], m["specio.refused_spec"]) == (exits[2], exits[3])
    # every request starts with a cold cache, as a fresh process does
    assert m["tigers.enum_calls"] == m["tigers.build_calls"] > 0
    assert m["tigers.enum_cache_hits"] == 0
    assert not hasattr(player.cli.parse_spec_text, "__wrapped__")
    assert {s[5] for s in tracer.spans} == set(range(len(ops)))
    assert m["cli.unaccounted_ms"] == pytest.approx(
        1000.0 - sum(m[f"{layer}.self_ms"] for layer in traced.LAYERS)
    )


def test_benchmark_json_declares_what_the_runs_print():
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)


def test_pin_gate_reports_a_moved_hash():
    import pin

    spec = PINS["specs"][0]
    op = harness.Op("classify", harness.spec_text(spec["degree"], spec["singularities"]),
                    False, {}, "classify")
    with harness.Workdir() as work:
        assert pin._pin_of(op, work, harness.child_env()) == spec["classify"]
    moved = json.loads(json.dumps(PINS))
    moved["specs"][0]["classify"]["sha256"] = "0" * 64
    assert pin.compare(PINS, PINS) == []
    assert pin.compare(PINS, moved) == [
        f"classify {spec['label']}: {spec['classify']} -> {moved['specs'][0]['classify']}"
    ]
