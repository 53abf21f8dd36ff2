"""The dpcylinders benchmark: one workload, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

  sweep           one ``dpcyl sweep``
  tiger-d8        one ``dpcyl tiger --out`` on degree 1, D8
  requests-small  a seeded stream of 100 small ``classify``/``tiger`` calls

A run writes the workload's inputs, then runs the workload's calls as
``dpcyl`` child processes, one at a time, again and again until ``--seconds``
have passed (at least once).  Every output is hashed from disk and compared
with ``bench/pins.json``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it also replays the workload in-process under a
tracer (``traced.py``), reports the per-layer metrics and writes the spans
to ``bench/_out/``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output matched
its pin and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import statistics
import sys

import harness
import traced

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "requests_per_s": "1/s",
}

# Fresh interpreters timed for setup_s in each run; start-up varies by tens
# of milliseconds, so the median needs many samples.
SETUP_SAMPLES = 25


def setup_samples(work, env, count: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI module."""
    argv = [sys.executable, "-c", "import dpcylinders.cli"]
    sink = work / "setup.stdout"
    samples = []
    for _ in range(count):
        child = harness.run_child(argv, sink, env)
        if child.exit != 0:
            raise SystemExit(f"error: importing dpcylinders.cli exited {child.exit}")
        samples.append(child.wall_s)
    return samples


def run_passes(ops, work, env, seconds: float) -> list[list[harness.OpResult]]:
    """Run the whole op list, again and again, until ``seconds`` of program
    time have passed; at least once."""
    passes: list[list[harness.OpResult]] = []
    spent = 0.0
    while not passes or spent < seconds:
        results = [harness.run_op(op, i, work, env) for i, op in enumerate(ops)]
        passes.append(results)
        spent += sum(r.wall_s for r in results)
    return passes


def end_to_end_metrics(passes, setup_s: float) -> dict[str, float]:
    latencies = [r.wall_s * 1e3 for p in passes for r in p]
    walls = [sum(r.wall_s for r in p) for p in passes]
    # inclusive: with few samples (one call per pass) p90 stays inside them
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": max(r.maxrss_kb for p in passes for r in p) / 1024,
        "output_bytes": sum(r.size for r in passes[0]),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "requests_per_s": len(latencies) / sum(walls),
    }


def replay(ops, work, workload: str, seed: int, wall_ms: float) -> tuple[int, dict[str, float]]:
    """Traced in-process replay: returns (outputs that missed their pin,
    per-layer metrics) and writes the spans."""
    tracer = traced.Tracer()
    missed = 0
    with traced.Replay(tracer) as player:
        for i, op in enumerate(ops):
            missed += not player.run(op, i, work)
            gc.collect()
    metrics = traced.per_layer_metrics(tracer, wall_ms, traced.span_cost_ns())
    harness.OUT_DIR.mkdir(exist_ok=True)
    tracer.write(harness.OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    return missed, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dpcylinders benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating the workload until this much program time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running child is killed and reaped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    harness.require_program()
    ops = harness.workload_ops(args.workload, harness.load_pins(), args.seed)
    env = harness.child_env()
    with harness.Workdir() as work:
        harness.write_inputs(ops, work)
        setup_samples(work, env, 1)  # writes the bytecode; not counted
        # set-up is sampled before and after the passes, so that a slow
        # phase of the machine does not fall on all samples at once
        before = [] if args.trace else setup_samples(work, env, SETUP_SAMPLES // 2)
        passes = run_passes(ops, work, env, args.seconds)
        after = [] if args.trace else setup_samples(work, env, SETUP_SAMPLES - len(before))
        e2e = end_to_end_metrics(passes, statistics.median(before + after) if before else 0.0)
        attempted = sum(len(p) for p in passes)
        failed = sum(not r.ok for p in passes for r in p)
        if args.trace:
            missed, layer = replay(ops, work, args.workload, args.seed, e2e["wall_s"] * 1e3)
            attempted += len(ops)
            failed += missed
            units = traced.per_layer_units()
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    env_block = harness.environment(args.seed)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    harness.OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, trace=args.trace, passes=len(passes), environment=env_block)
    (harness.OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(f"workload {args.workload}: {len(passes)} pass(es) of {len(ops)} call(s)")
    print("environment " + json.dumps(env_block, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>18.6f} {m['unit']}")
    print(f"  {'failed_ratio':40s} {failed / attempted:>18.6f} ({failed}/{attempted})")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
