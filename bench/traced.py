"""Traced in-process replay of a workload, for the per-layer metrics.

The replay runs the CLI's own ``main()`` in-process, with the same arguments
as the ``dpcyl`` child process it stands for.  For the replay, span and count
wrappers are patched over the library functions that ``dpcylinders.cli``
imports from ``lattice``, ``classify``, ``tigers`` and ``specio``, and over
``tigers.enumerate_decompositions``, which ``build_tiger`` looks up as a
module global.  The spans are recorded here, in the benchmark; the program
itself is not instrumented.  ``divisors`` and ``linear_systems`` are reached
only through ``build_tiger``, so their time is part of its self time.

The replay's outputs are hashed from disk and checked against the same pins
as the child processes' outputs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import harness

LAYERS = ("lattice", "classify", "tigers", "specio")

# Kill histogram buckets: the obstruction kind, with the negative
# self-intersection kind split by the witness that fired.
KILLS = ("square", "pairing", "dim", "dimension_gap", "multiplicity_budget", "disjointness")

# Names that ``dpcylinders.cli`` imports and calls: the span of each, the
# count it adds to, and how much one call adds (1 when None).
CLI_CALLS: dict[str, tuple[str, str | None, Callable[[tuple, Any], int] | None]] = {
    "enumerate_specs": ("lattice.enumerate_specs", "lattice.specs", lambda args, specs: len(specs)),
    "parse_spec_text": ("specio.parse_spec_text", "specio.parse_calls", None),
    "classify": ("classify.classify", "classify.calls", None),
    "build_tiger": ("tigers.build_tiger", "tigers.build_calls", None),
    "verdict_document": ("specio.verdict_document", None, None),
    "certificate_document": ("specio.certificate_document", "specio.expanded_splits",
                             lambda args, doc: len(args[0].decompositions)),
    # JSON is ASCII, so characters are bytes
    "render_document": ("specio.render_document", "specio.rendered_bytes",
                        lambda args, text: len(text)),
}
ENUM_SPAN = "tigers.enumerate_decompositions"


def pair_metric(case: str, degree: int) -> str:
    return f"tigers.enum.{case}.d{degree}_ms"


def pairs() -> list[tuple[str, int]]:
    """Every (case row, degree) pair of the case table: the split
    enumerations the sweep runs."""
    harness.import_library()
    tigers = importlib.import_module("dpcylinders.tigers")
    return [(row.case_id, d) for row in tigers.case_tables() for d in sorted(row.degrees)]


@functools.cache
def per_layer_units() -> dict[str, str]:
    return {
        **{pair_metric(c, d): "ms" for c, d in pairs()},
        "tigers.enum_ms": "ms",
        "tigers.splits": "count",
        "tigers.splits_per_s": "1/s",
        "tigers.enum_calls": "count",
        "tigers.enum_cache_hits": "count",
        **{f"tigers.killed.{k}": "count" for k in KILLS},
        "tigers.unobstructed": "count",
        "tigers.past_square_ratio": "ratio",
        "tigers.build_calls": "count",
        "tigers.build_ms": "ms",
        "specio.expand_ms": "ms",
        "specio.expanded_splits": "count",
        "specio.render_ms": "ms",
        "specio.rendered_bytes": "bytes",
        "specio.parse_calls": "count",
        "specio.parse_ms": "ms",
        "specio.refused_file": "count",
        "specio.refused_spec": "count",
        "classify.calls": "count",
        "classify.ms": "ms",
        "lattice.enumerate_specs_ms": "ms",
        "lattice.specs": "count",
        **{f"{layer}.self_ms": "ms" for layer in LAYERS},
        "cli.unaccounted_ms": "ms",
        "trace.overhead_ms": "ms",
        "trace.spans": "count",
    }


class Tracer:
    """Spans and counts kept in memory until the run ends.

    A span is ``[name, detail, start_ns, end_ns, parent, request]``;
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self.request = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, detail: str = "") -> Iterator[None]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        record = [name, detail, time.perf_counter_ns(), 0, parent, self.request]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[3] = time.perf_counter_ns()

    def total_ms(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name) / 1e6

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the part its child spans cover."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def self_ms(self, name: str) -> float:
        return sum(ns for s, ns in zip(self.spans, self.self_ns()) if s[0] == name) / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        layer_ns: Counter[str] = Counter()
        for s, ns in zip(self.spans, self.self_ns()):
            layer_ns[s[0].split(".", 1)[0]] += ns
        return {layer: layer_ns[layer] / 1e6 for layer in LAYERS}

    def write(self, path: Path) -> None:
        origin = self.spans[0][2] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            for name, detail, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "detail": detail, "start_ns": start - origin,
                    "end_ns": end - origin, "parent": parent, "request": request,
                }) + "\n")


def span_cost_ns(samples: int = 20000) -> float:
    """Mean cost of opening and closing one empty span."""
    tracer = Tracer()
    start = time.perf_counter_ns()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (time.perf_counter_ns() - start) / samples


class Replay:
    """Runs workload operations through ``dpcylinders.cli.main`` under a
    tracer.  Use it as a context manager: the wrappers are in place only
    inside the ``with`` block."""

    def __init__(self, tracer: Tracer) -> None:
        harness.import_library()
        self.cli = importlib.import_module("dpcylinders.cli")
        self.tigers = importlib.import_module("dpcylinders.tigers")
        self.tr = tracer
        self._patches: list[tuple[Any, str, Any]] = []
        # every lru_cache of the package, taken before any wrapper is in place
        caches = {}
        for name, module in list(sys.modules.items()):
            if name == "dpcylinders" or name.startswith("dpcylinders."):
                for value in vars(module).values():
                    if callable(getattr(value, "cache_clear", None)):
                        caches[id(value)] = value
        self._caches = list(caches.values())

    def __enter__(self) -> "Replay":
        for name, (span, count, amount) in CLI_CALLS.items():
            self._patch(self.cli, name, self._wrap(getattr(self.cli, name), span, count, amount))
        self._patch(self.tigers, "enumerate_decompositions",
                    self._wrap_enumeration(self.tigers.enumerate_decompositions))
        return self

    def __exit__(self, *exc: object) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _patch(self, module: Any, name: str, wrapper: Any) -> None:
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def run(self, op: harness.Op, index: int, work: Path) -> bool:
        """Replay one operation with the arguments of its child process and
        check what it wrote against the op's pin.  The spec file must
        already be in place (``harness.write_inputs``)."""
        if not self._patches:
            raise RuntimeError("Replay.run outside its with block")
        self.tr.request = index
        # every dpcyl call starts in a fresh process with cold caches
        for cached in self._caches:
            cached.cache_clear()
        stdout_path, _ = harness.output_paths(index, work)
        with open(stdout_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                self.tr.span("request", op.label):
            code = self.cli.main(harness.cli_args(op, index, work))
        digest, size = harness.take_output(index, work)
        return op.matches(code, digest, size)

    def _wrap(self, fn: Callable[..., Any], span: str, count: str | None,
              amount: Callable[[tuple, Any], int] | None) -> Callable[..., Any]:
        counts, tr = self.tr.counts, self.tr
        refusals = (self.cli.SpecFileError, self.cli.InvalidSpec)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count and amount is None:
                counts[count] += 1
            with tr.span(span):
                try:
                    result = fn(*args, **kwargs)
                    if inspect.isgenerator(result):
                        # time the whole enumeration, not the generator's creation
                        result = list(result)
                except refusals as exc:
                    # what the CLI turns into exit 2 (file) or exit 3 (spec)
                    kind = "file" if isinstance(exc, self.cli.SpecFileError) else "spec"
                    counts[f"specio.refused_{kind}"] += 1
                    raise
            if count and amount is not None:
                counts[count] += amount(args, result)
            return result

        return wrapper

    def _wrap_enumeration(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tr = self.tr
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(row: Any, degree: int) -> Any:
            hits = cache_info().hits if cache_info else 0
            with tr.span(ENUM_SPAN, f"{row.case_id}@{degree}"):
                outcomes = fn(row, degree)
            tr.counts["tigers.enum_calls"] += 1
            if cache_info and cache_info().hits > hits:
                tr.counts["tigers.enum_cache_hits"] += 1
            else:
                tr.counts["tigers.splits"] += len(outcomes)
                tr.counts.update(kill_histogram(outcomes))
            return outcomes

        return wrapper


def kill_histogram(outcomes: Any) -> Counter[str]:
    """``tigers.killed.<bucket>`` and ``tigers.unobstructed`` counts of one
    enumeration's returned outcomes."""
    hist: Counter[str] = Counter()
    for outcome in outcomes:
        ob = outcome.obstruction
        if ob is None:
            hist["tigers.unobstructed"] += 1
        elif ob.kind == "negative_self_intersection":
            # witness is ((part, idx), (square|pairing|dim, value))
            hist[f"tigers.killed.{ob.witness[1][0]}"] += 1
        else:
            hist[f"tigers.killed.{ob.kind}"] += 1
    return hist


def per_layer_metrics(tracer: Tracer, wall_ms: float, span_ns: float) -> dict[str, float]:
    """The per-layer metrics of one traced replay whose workload took
    ``wall_ms`` end to end with tracing off."""
    counts = tracer.counts
    units = per_layer_units()
    # counts come straight from the tracer (0 when never taken); times and
    # ratios are derived from the spans below
    m: dict[str, float] = {name: counts[name] for name in units}
    for name, detail, start, end, _, _ in tracer.spans:
        if name == ENUM_SPAN:
            case, degree = detail.split("@")
            key = pair_metric(case, int(degree))
            if key in units:
                m[key] += (end - start) / 1e6
    enum_ms = tracer.total_ms(ENUM_SPAN)
    splits = counts["tigers.splits"]
    square = counts["tigers.killed.square"]
    m.update({
        "tigers.enum_ms": enum_ms,
        "tigers.splits_per_s": splits / (enum_ms / 1e3) if enum_ms else 0.0,
        "tigers.past_square_ratio": (splits - square) / splits if splits else 0.0,
        # build_tiger without its split enumeration: the relation/residual
        # solve in divisors and linear_systems
        "tigers.build_ms": tracer.self_ms("tigers.build_tiger"),
        "specio.expand_ms": tracer.total_ms("specio.certificate_document"),
        "specio.render_ms": tracer.total_ms("specio.render_document"),
        "specio.parse_ms": tracer.total_ms("specio.parse_spec_text"),
        "classify.ms": tracer.total_ms("classify.classify"),
        "lattice.enumerate_specs_ms": tracer.total_ms("lattice.enumerate_specs"),
        "trace.overhead_ms": len(tracer.spans) * span_ns / 1e6,
        "trace.spans": len(tracer.spans),
    })
    layer_self = tracer.layer_self_ms()
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = layer_self[layer]
    # What the spans do not cover: spawn, interpreter start, import,
    # argparse, reading the spec and writing the document.
    m["cli.unaccounted_ms"] = wall_ms - sum(layer_self.values())
    return m
