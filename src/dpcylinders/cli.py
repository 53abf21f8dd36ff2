"""Command line interface.

Exit codes:
  0   success (classify: both cylinders exist; tiger: certified)
  10  classify: no anticanonical cylinder, but some polarization has one
  20  classify: no cylinder for any polarization; tiger: nothing to build
  30  tiger/sweep: construction discrepancy (an unobstructed decomposition
      or a spec no case covers)
  2   unreadable, non-UTF-8, malformed or overlong (more than
      MAX_SPEC_BYTES, 65,536 bytes) spec file, or a usage error such as a
      missing --spec (argparse exits with it)
  3   well-formed file describing an invalid surface spec
  4   cannot write the document: the --out file (refused before any work
      when its directory is missing or it exists and is not a regular
      file), or stdout (a closed stream, or a reader that left before the
      whole document was read)
  130 interrupted by SIGINT, 143 by SIGTERM: "error: interrupted" on
      stderr, and an --out target left as it was, with no file behind

Messages go to stderr; a closed stderr drops them and keeps the exit code.
The signals are caught by ``entry``, the ``dpcyl`` command; ``main`` called
in-process leaves the caller's signal handling alone.
"""

from __future__ import annotations

import argparse
import os
import signal
import stat
import sys
import tempfile
from contextlib import contextmanager, suppress
from typing import Callable, Iterable, Iterator, Optional

from . import _LAZY_NAMES
from .lattice import (
    InvalidSpec, SpecFileError, SurfaceSpec, classify, enumerate_specs, parse_spec_text,
    render_document, verdict_document,
)


# The certificate path: the package's lazy names (``build_tiger``,
# ``narrate``, ``certificate_chunks``, ...).  ``_bind`` binds the names a
# command asks for into this module's globals, so ``classify``, a refusal
# and ``tiger`` on a spec with no anticanonical cylinder never load
# ``tigers`` or ``certificate``, and ``sweep`` never loads ``certificate``.
def _bind(*names: str) -> None:
    """Bind these certificate path names here, keeping any name already
    bound: a wrapper or a test's stand-in stays in place."""
    package = sys.modules[__package__]
    for name in names:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name: str) -> object:
    # a certificate name read before a command has bound it: the
    # benchmark's traced replay (bench/traced.py) wraps ``build_tiger`` and
    # ``certificate_document`` on this module
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(name)
    return globals()[name]


EXIT_OK = 0
EXIT_NO_ANTICANONICAL = 10
EXIT_NO_CYLINDER = 20
EXIT_DISCREPANCY = 30
EXIT_BAD_FILE = 2
EXIT_BAD_SPEC = 3
EXIT_CANNOT_WRITE = 4

# a spec file is a few short lines; reading stops one byte past this
MAX_SPEC_BYTES = 65536

_INTERRUPTS = (signal.SIGINT, signal.SIGTERM)


class OutputError(Exception):
    """The --out file or stdout cannot be written."""


class Interrupted(BaseException):
    """SIGINT or SIGTERM, raised with its number by the handler ``entry``
    installs.  Like KeyboardInterrupt it is no Exception, so no handler for
    errors takes it, and it unwinds through the ``finally`` that removes an
    unfinished --out file."""


def _load_spec(path: str) -> SurfaceSpec:
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_SPEC_BYTES + 1)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if len(data) > MAX_SPEC_BYTES:
        raise SpecFileError(f"cannot read {path}: longer than {MAX_SPEC_BYTES} bytes")
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise SpecFileError(
            f"cannot read {path}: not UTF-8 text (bad byte at offset {exc.start})"
        ) from exc
    return parse_spec_text(text)


# A writer takes a command's whole document, as chunks of text, in one call.
Writer = Callable[[Iterable[str]], None]


def _write_stdout(chunks: Iterable[str]) -> None:
    """Write a document to stdout chunk by chunk as the chunks come, or
    raise OutputError at the first chunk that cannot be written.

    The bytes go to the binary layer in a loop: an unbuffered stdout may
    take only part of a write, and the text layer would drop the rest.
    They are UTF-8, the bytes --out writes, whatever stdout's encoding: a
    stateful one such as utf-16 would start every chunk with a BOM.
    """
    stream = sys.stdout
    if stream is None:  # the process started with stdout closed
        raise OutputError("cannot write stdout: stdout is closed")
    try:
        stream.flush()
        binary = getattr(stream, "buffer", None)
        if binary is None:  # a text-only stand-in such as StringIO
            stream.writelines(chunks)
            return
        for text in chunks:
            data = memoryview(text.encode("utf-8"))
            while data:
                data = data[binary.write(data):]
        binary.flush()
    except OSError as exc:
        # the interpreter flushes stdout again on exit; send what is left
        # to the null device so that flush cannot fail a second time
        with suppress(AttributeError, OSError, ValueError):
            fd = stream.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise OutputError(f"cannot write stdout: {exc.strerror or exc}") from exc


def _write_stderr(text: str) -> None:
    """Write a message to stderr, or drop it when stderr is closed or fails:
    the exit code, not the message, is what a caller can rely on."""
    if sys.stderr is None:  # the process started with stderr closed
        return
    with suppress(OSError):
        sys.stderr.write(text)
        sys.stderr.flush()


@contextmanager
def _output(out: Optional[str]) -> Iterator[Writer]:
    """Yield the writer of a command's document: stdout, or a temporary file
    made next to the file --out names before any work and renamed over it
    once written, so that file is never partial.  A symlink is followed,
    not replaced; anything but a regular file is refused; an existing file
    keeps its permission bits.  A command that writes nothing leaves no
    file."""
    if out is None:
        yield _write_stdout
        return
    target = os.path.realpath(out)
    # SIGINT and SIGTERM, which ``entry`` turns into an exception, wait
    # until the temporary file's removal is armed, so they cannot leave it
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
    try:
        try:
            try:
                st = os.stat(target)
            except FileNotFoundError:
                # a new file gets the mode open() would give it
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            else:
                if not stat.S_ISREG(st.st_mode):
                    raise OutputError(f"cannot write {out}: not a regular file")
                mode = stat.S_IMODE(st.st_mode)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".dpcyl-")
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc
        fh = os.fdopen(fd, "w", encoding="utf-8")

        def write(chunks: Iterable[str]) -> None:
            try:
                with fh:
                    fh.writelines(chunks)
                os.replace(tmp, target)
            except OSError as exc:
                raise OutputError(f"cannot write {out}: {exc.strerror or exc}") from exc

        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            # mkstemp makes the file private
            with suppress(OSError):
                os.fchmod(fd, mode)
            yield write
        finally:
            fh.close()
            with suppress(FileNotFoundError):
                os.unlink(tmp)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _cmd_classify(args: argparse.Namespace, spec: SurfaceSpec, write: Writer) -> int:
    verdict = classify(spec)
    write([render_document(verdict_document(spec, verdict))])
    if verdict.anticanonical_cylinder:
        return EXIT_OK
    if verdict.h_polar_cylinder:
        return EXIT_NO_ANTICANONICAL
    return EXIT_NO_CYLINDER


def _cmd_tiger(args: argparse.Namespace, spec: SurfaceSpec, write: Writer) -> int:
    verdict = classify(spec)
    if not verdict.anticanonical_cylinder:
        _write_stderr(
            f"{spec}: no anticanonical cylinder "
            f"({verdict.anticanonical_reason}); nothing to build\n"
        )
        return EXIT_NO_CYLINDER
    _bind("NoCaseApplies", "build_tiger", "narrate", "certificate_chunks")
    try:
        cert = build_tiger(spec)
    except NoCaseApplies as exc:
        _write_stderr(f"discrepancy: {exc}\n")
        return EXIT_DISCREPANCY
    if args.trace:
        _write_stderr("".join(line + "\n" for line in narrate(cert)))
    write(certificate_chunks(cert))
    if unobstructed := cert.unobstructed:
        _write_stderr(
            f"{spec}: {len(unobstructed)} decomposition(s) carry no obstruction\n"
        )
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, _: None, write: Writer) -> int:
    _bind("NoCaseApplies", "build_tiger")
    lines = []
    failures = 0
    for spec in enumerate_specs():
        verdict = classify(spec)
        head = (
            f"degree {spec.degree} {spec.singularity_label}: "
            f"anticanonical={'yes' if verdict.anticanonical_cylinder else 'no'} "
            f"polar={'yes' if verdict.h_polar_cylinder else 'no'}"
        )
        if not verdict.anticanonical_cylinder:
            lines.append(head)
            continue
        try:
            cert = build_tiger(spec)
        except NoCaseApplies as exc:
            failures += 1
            lines.append(f"{head} DISCREPANCY: {exc}")
            continue
        if cert.unobstructed:
            failures += 1
            lines.append(f"{head} case={cert.row.case_id} DISCREPANCY: unobstructed split")
            continue
        lines.append(f"{head} case={cert.row.case_id} ratio={cert.row.ratio} certified")
    summary = f"{len(lines)} specs, {failures} discrepancies"
    lines.append(summary)
    write(["\n".join(lines) + "\n"])
    return EXIT_DISCREPANCY if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcyl",
        description="Cylinder classification and tiger certificates for "
        "singular del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="decide cylinder existence for one spec"
    )
    p_classify.add_argument("--spec", required=True, help="path to a spec file")
    p_classify.add_argument("--out", help="write the JSON verdict here instead of stdout")
    p_classify.set_defaults(func=_cmd_classify)

    p_tiger = sub.add_parser(
        "tiger", help="build the non-log-canonical certificate for one spec"
    )
    p_tiger.add_argument("--spec", required=True, help="path to a spec file")
    p_tiger.add_argument("--out", help="write the JSON certificate here instead of stdout")
    p_tiger.add_argument(
        "--trace", action="store_true",
        help="print the derivation to stderr once the certificate is built",
    )
    p_tiger.set_defaults(func=_cmd_tiger)

    p_sweep = sub.add_parser(
        "sweep", help="classify and certify every valid spec"
    )
    p_sweep.add_argument("--out", help="write the report here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the spec is read, and --out made, before any command work starts
        spec = _load_spec(args.spec) if "spec" in args else None
        with _output(args.out) as write:
            return args.func(args, spec, write)
    except SpecFileError as exc:
        _write_stderr(f"error: {exc}\n")
        return EXIT_BAD_FILE
    except InvalidSpec as exc:
        _write_stderr(f"error: invalid spec: {exc}\n")
        return EXIT_BAD_SPEC
    except OutputError as exc:
        _write_stderr(f"error: {exc}\n")
        return EXIT_CANNOT_WRITE


def _ignore_interrupts() -> None:
    for signum in _INTERRUPTS:
        signal.signal(signum, signal.SIG_IGN)


def _interrupt(signum: int, frame: object) -> None:
    # one signal is enough: a second one must not break into the cleanup
    _ignore_interrupts()
    raise Interrupted(signum)


def entry() -> None:
    for signum in _INTERRUPTS:
        signal.signal(signum, _interrupt)
    try:
        code = main()
        # the work is done, and a late signal must not break into the exit
        _ignore_interrupts()
    except Interrupted as exc:
        _write_stderr("error: interrupted\n")
        code = 128 + exc.args[0]
    sys.exit(code)


if __name__ == "__main__":
    entry()
