"""Shared pieces of the dpcylinders benchmark.

Locates the program in the checkout, runs ``dpcyl`` as a child process with
its wall time and max RSS, hashes what the child wrote, and builds the
operations of each workload from the pinned references in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
WORK_ROOT = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("sweep", "tiger-d8", "requests-small")

# requests-small: one pass is this many calls, in these fixed counts, so that
# every seed sends the same mix and at least ten samples lie beyond p90.
REQUEST_MIX = (
    ("classify", 40),       # any of the 250 specs
    ("tiger", 31),          # one certified spec per (case row, degree) pair
                            # with at most SMALL_SPLITS splits
    ("tiger-none", 14),     # specs without an anticanonical cylinder: exit 20
    ("malformed", 8),       # exit 2
    ("invalid", 7),         # exit 3
)
SMALL_SPLITS = 1080

# One child may not outlive this; a hung program fails the run instead of
# hanging it.
CHILD_TIMEOUT_S = 150.0

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def require_program() -> None:
    """Exit non-zero, without a result, when the checkout holds no program."""
    if not (SRC / "dpcylinders" / "cli.py").is_file():
        sys.stderr.write(f"error: no dpcylinders package under {SRC}\n")
        raise SystemExit(2)


def import_library() -> None:
    """Make ``import dpcylinders`` load the checkout's own sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass(frozen=True)
class ChildRun:
    exit: int
    wall_s: float
    maxrss_kb: int


def run_child(argv: list[str], stdout_path: Path, env: dict[str, str]) -> ChildRun:
    """Run one child to completion with stdout in a file; stderr is dropped.

    ``os.wait4`` gives the child's own max RSS, since ``/usr/bin/time`` is
    not available everywhere.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL, cwd=ROOT, env=env,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_maxrss)


def file_digest(paths: list[Path]) -> tuple[str, int]:
    """sha256 and byte count of the files' contents, concatenated."""
    h = hashlib.sha256()
    size = 0
    for path in paths:
        if not path.exists():
            continue
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                size += len(chunk)
    return h.hexdigest(), size


def spec_text(degree: int, singularities: list[str]) -> str:
    lines = [f"degree: {degree}"]
    if singularities:
        lines.append("singularities: " + ", ".join(singularities))
    return "\n".join(lines) + "\n"


def load_pins() -> dict[str, Any]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """One ``dpcyl`` call and the reference it must reproduce.

    ``spec_text`` is None for ``sweep``.  ``pin`` holds the expected exit
    code, byte count and sha256 of stdout plus the ``--out`` file.
    """

    command: str
    spec_text: Optional[str]
    use_out: bool
    pin: dict[str, Any]
    label: str

    def matches(self, exit_code: int, digest: str, size: int) -> bool:
        return {"exit": exit_code, "bytes": size, "sha256": digest} == self.pin


def _spec_by_label(pins: dict[str, Any], label: str) -> dict[str, Any]:
    for spec in pins["specs"]:
        if spec["label"] == label:
            return spec
    raise KeyError(label)


def _spec_op(command: str, spec: dict[str, Any], use_out: bool) -> Op:
    text = spec_text(spec["degree"], spec["singularities"])
    return Op(command, text, use_out, spec[command], f"{command} {spec['label']}")


def _refusal_op(command: str, refusal: dict[str, Any]) -> Op:
    pin = {"exit": refusal["exit"], "bytes": 0, "sha256": EMPTY_SHA256}
    return Op(command, refusal["text"], False, pin, f"{command} {refusal['text']!r}")


def request_stream(pins: dict[str, Any], seed: int) -> list[Op]:
    """The seeded ``requests-small`` stream.

    Each kind of call has a fixed count (``REQUEST_MIX``).  The certified
    ``tiger`` calls take one spec from each (case row, degree) pair in turn:
    specs of one pair build the same certificate up to the spec block, so
    every seed sends the same document sizes.  The seed picks the spec
    inside each pair, every other spec, and the order.
    """
    rng = random.Random(seed)
    specs = pins["specs"]
    pairs: dict[tuple[str, int], list[dict[str, Any]]] = {}
    for s in specs:
        if s["tiger"]["exit"] == 0 and s["splits"] <= SMALL_SPLITS:
            pairs.setdefault((s["case"], s["degree"]), []).append(s)
    small = [pairs[key] for key in sorted(pairs)]
    no_cylinder = [s for s in specs if s["tiger"]["exit"] == 20]
    by_exit = {
        code: [r for r in pins["refusals"] if r["exit"] == code] for code in (2, 3)
    }
    ops: list[Op] = []
    for kind, count in REQUEST_MIX:
        for i in range(count):
            if kind == "classify":
                ops.append(_spec_op("classify", rng.choice(specs), False))
            elif kind == "tiger":
                ops.append(_spec_op("tiger", rng.choice(small[i % len(small)]), False))
            elif kind == "tiger-none":
                ops.append(_spec_op("tiger", rng.choice(no_cylinder), False))
            else:
                pool = by_exit[2 if kind == "malformed" else 3]
                ops.append(_refusal_op(rng.choice(("classify", "tiger")), rng.choice(pool)))
    rng.shuffle(ops)
    return ops


def workload_ops(workload: str, pins: dict[str, Any], seed: int) -> list[Op]:
    if workload == "sweep":
        return [Op("sweep", None, True, pins["sweep"], "sweep")]
    if workload == "tiger-d8":
        return [_spec_op("tiger", _spec_by_label(pins, "degree 1, D8"), True)]
    if workload == "requests-small":
        return request_stream(pins, seed)
    raise ValueError(f"unknown workload {workload!r}")


class Workdir:
    """Per-run scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = WORK_ROOT / f"run-{os.getpid()}"

    def __enter__(self) -> Path:
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


@dataclass(frozen=True)
class OpResult:
    ok: bool  # exit code, size and sha256 equal the op's pin
    exit: int
    wall_s: float
    maxrss_kb: int
    size: int
    sha256: str


def write_inputs(ops: list[Op], work: Path) -> None:
    for i, op in enumerate(ops):
        if op.spec_text is not None:
            (work / f"{i}.spec").write_text(op.spec_text, encoding="utf-8")


def output_paths(index: int, work: Path) -> tuple[Path, Path]:
    """Where op ``index`` sends its stdout and its ``--out`` file."""
    return work / f"{index}.stdout", work / f"{index}.out"


def cli_args(op: Op, index: int, work: Path) -> list[str]:
    """The ``dpcyl`` arguments of op ``index``.  The spec file must already
    be in place (``write_inputs``)."""
    args = [op.command]
    if op.spec_text is not None:
        args += ["--spec", str(work / f"{index}.spec")]
    if op.use_out:
        args += ["--out", str(output_paths(index, work)[1])]
    return args


def take_output(index: int, work: Path) -> tuple[str, int]:
    """sha256 and byte count of what op ``index`` wrote; removes the files."""
    paths = output_paths(index, work)
    digest, size = file_digest(list(paths))
    for path in paths:
        path.unlink(missing_ok=True)
    return digest, size


def run_op(op: Op, index: int, work: Path, env: dict[str, str]) -> OpResult:
    """Run one call as ``python -m dpcylinders.cli`` and check its output
    against the pin, hashing what it wrote to disk."""
    argv = [sys.executable, "-m", "dpcylinders.cli", *cli_args(op, index, work)]
    child = run_child(argv, output_paths(index, work)[0], env)
    digest, size = take_output(index, work)
    return OpResult(op.matches(child.exit, digest, size), child.exit,
                    child.wall_s, child.maxrss_kb, size, digest)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, Any]:
    """Where the numbers came from; numbers from different machines are not
    comparable."""
    try:
        mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError):
        mem = 0
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "memory_mb": mem // (1 << 20),
        "commit": _git_commit(),
        "seed": seed,
    }
