"""Command line behavior: exit codes, document round-trips, reproducibility."""

import codecs
import contextlib
import errno
import importlib
import io
import json
import os
import pkgutil
import resource
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dpcylinders
from dpcylinders import (
    InvalidSpec,
    SpecFileError,
    SurfaceSpec,
    build_tiger,
    classify,
    enumerate_specs,
    parse_spec_text,
    select_case,
)
from dpcylinders import cli, tigers
from dpcylinders.certificate import certificate_chunks

from conftest import forced_discrepancy
from residual_fixtures import RESIDUAL_FIXTURES


SPEC_FILES = {
    "node_cubic.txt": "degree: 3\nsingularities: A1\n",
    "smooth_cubic.txt": "degree: 3\n",
    "four_cusps.txt": "degree: 1\nsingularities: A2, A2, A2, A2\n",
    "unknown_key.txt": "degreee: 3\n",
    "missing_degree.txt": "singularities: A1\n",
    "bad_type.txt": "degree: 3\nsingularities: E9\n",
    "rank_overflow.txt": "degree: 7\nsingularities: A4\n",
    "two_degrees.txt": "degree: 3\nsingularities: A1\ndegree: 3\n",
    "two_singularities.txt": "degree: 3\nsingularities: A1\nsingularities: A1\n",
}


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    for name, text in SPEC_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def command_argv(spec_dir, command, spec="node_cubic.txt"):
    """``command`` on the spec file ``spec``; ``sweep`` takes no --spec."""
    return [command] + ([] if command == "sweep" else ["--spec", str(spec_dir / spec)])


# this checkout's src/, whatever dpcylinders the caller's environment resolves
SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args, **kwargs):
    """Start ``python3 *args`` on this checkout's package; stdout and stderr
    are text pipes unless the caller gives them."""
    env = {**os.environ, **kwargs.pop("env", {}), "PYTHONPATH": SRC}
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return subprocess.Popen([sys.executable, *args], env=env, **kwargs)


@pytest.fixture
def no_work(monkeypatch):
    """Whatever work a command starts fails the test."""
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("classify", "enumerate_specs", "build_tiger"):
        monkeypatch.setattr(cli, name, never)


# ----------------------------------------------------------------- classify

@pytest.mark.acceptance(8)
def test_classify_exit_codes(spec_dir, capsys):
    expected = {
        "node_cubic.txt": cli.EXIT_OK,
        "smooth_cubic.txt": cli.EXIT_NO_ANTICANONICAL,
        "four_cusps.txt": cli.EXIT_NO_CYLINDER,
        "unknown_key.txt": cli.EXIT_BAD_FILE,
        "missing_degree.txt": cli.EXIT_BAD_FILE,
        "bad_type.txt": cli.EXIT_BAD_SPEC,
        "rank_overflow.txt": cli.EXIT_BAD_SPEC,
        "two_degrees.txt": cli.EXIT_BAD_FILE,
        "two_singularities.txt": cli.EXIT_BAD_FILE,
    }
    for name, code in expected.items():
        got, _, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / name))
        assert got == code, name


def test_classify_document(spec_dir, capsys):
    code, out, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "smooth_cubic.txt"))
    assert code == cli.EXIT_NO_ANTICANONICAL
    doc = json.loads(out)
    assert doc["kind"] == "classification"
    assert doc["spec"] == {"degree": 3, "singularities": []}
    assert doc["picard_rank"] == 7
    assert doc["anticanonical_cylinder"] == {
        "exists": False, "reason": "smooth-cubic",
    }
    assert doc["h_polar_cylinder"] == {
        "exists": True, "reason": "ample-polarization-exists",
    }


def test_classify_is_byte_identical(spec_dir, capsys):
    _, first, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    _, second, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    assert first == second
    assert first.endswith("\n")


def test_error_messages_name_the_problem(spec_dir, capsys):
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "unknown_key.txt"))
    assert "unknown key" in err
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "missing_degree.txt"))
    assert "missing 'degree'" in err
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "bad_type.txt"))
    assert "invalid spec" in err
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "rank_overflow.txt"))
    assert "rank budget exceeded" in err
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "two_degrees.txt"))
    assert err == "error: line 3: duplicate 'degree'\n"
    _, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "two_singularities.txt"))
    assert err == "error: line 3: duplicate 'singularities'\n"
    code, _, err = run_cli(capsys, "classify", "--spec", str(spec_dir / "no_such_file.txt"))
    assert code == cli.EXIT_BAD_FILE
    assert "cannot read" in err


def test_spec_file_with_a_byte_order_mark(spec_dir, tmp_path, capsys):
    path = tmp_path / "node_cubic_bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + SPEC_FILES["node_cubic.txt"].encode())
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert (code, err) == (cli.EXIT_OK, "")
    _, plain, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    assert out == plain


def test_missing_spec_argument_is_a_usage_error(capsys):
    # argparse's usage error shares exit code 2 with a malformed spec file
    with pytest.raises(SystemExit) as exc:
        cli.main(["tiger"])
    assert exc.value.code == 2
    assert "--spec" in capsys.readouterr().err


LONG = "x" * 5000


@pytest.mark.parametrize(
    "text,code",
    [
        (f"degree: {LONG}\n", cli.EXIT_BAD_FILE),
        (f"degree: 3\nsingularities: A1, Q{LONG}\n", cli.EXIT_BAD_SPEC),
        (f"{LONG}: 3\ndegree: 3\n", cli.EXIT_BAD_FILE),
        (f"degree: 3\n{LONG}\n", cli.EXIT_BAD_FILE),
    ],
    ids=["degree", "type-token", "key", "no-colon"],
)
def test_overlong_input_gives_a_short_message(tmp_path, capsys, text, code):
    path = tmp_path / "long.txt"
    path.write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert (got, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200
    assert "characters in full)" in err


@pytest.mark.parametrize("command", ["classify", "tiger"])
def test_non_utf8_spec_file_is_a_bad_file(tmp_path, capsys, command):
    path = tmp_path / "bin.txt"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, command, "--spec", str(path))
    assert code == cli.EXIT_BAD_FILE
    assert out == ""
    assert err == f"error: cannot read {path}: not UTF-8 text (bad byte at offset 0)\n"


def test_spec_file_past_the_size_limit_is_a_bad_file(tmp_path, capsys):
    # a valid spec padded with a comment to the limit, then one byte more
    text = "degree: 3\nsingularities: A1\n#"
    path = tmp_path / "spec.txt"
    path.write_text(text + "x" * (cli.MAX_SPEC_BYTES - len(text)), encoding="utf-8")
    assert run_cli(capsys, "classify", "--spec", str(path))[0] == cli.EXIT_OK
    with path.open("a", encoding="utf-8") as fh:
        fh.write("x")
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert (code, out) == (cli.EXIT_BAD_FILE, "")
    assert err == f"error: cannot read {path}: longer than {cli.MAX_SPEC_BYTES} bytes\n"


@st.composite
def spec_bytes(draw):
    """Arbitrary bytes or a valid spec, after a byte-order mark or not,
    with an invalid or a multi-byte UTF-8 sequence or not, padded to within
    two bytes of the size limit or not."""
    data = draw(st.sampled_from([b"", codecs.BOM_UTF8]))
    data += draw(st.binary(max_size=40) | st.sampled_from(
        [text.encode() for text in SPEC_FILES.values()]
    ))
    data += draw(st.sampled_from([b"", b"\xff", b"\xc3", b"\xed\xa0\x80", "\u00e9".encode()]))
    if draw(st.booleans()):
        size = cli.MAX_SPEC_BYTES + draw(st.integers(-2, 2))
        data += b"\n#" + b"x" * (size - len(data) - 2)
    return data


@given(spec_bytes())
def test_any_spec_file_gives_a_documented_exit_code(spec_dir, data):
    path = spec_dir / "arbitrary.bin"
    path.write_bytes(data)
    code = cli.main(["classify", "--spec", str(path)])
    assert code in (
        cli.EXIT_OK, cli.EXIT_NO_ANTICANONICAL, cli.EXIT_NO_CYLINDER,
        cli.EXIT_BAD_FILE, cli.EXIT_BAD_SPEC,
    )


@pytest.mark.parametrize("command", ["classify", "tiger", "sweep"])
def test_unwritable_out_exits_4(spec_dir, tmp_path, capsys, command):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *command_argv(spec_dir, command), "--out", str(target))
    assert code == cli.EXIT_CANNOT_WRITE
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["classify", "tiger", "sweep"])
def test_unwritable_out_fails_before_any_work(spec_dir, tmp_path, capsys, no_work, command):
    target = tmp_path / "missing" / "out.json"
    code, _, _ = run_cli(capsys, *command_argv(spec_dir, command), "--out", str(target))
    assert code == cli.EXIT_CANNOT_WRITE


def test_refused_or_failed_command_leaves_no_file(spec_dir, tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "cert.json"
    code, out, _ = run_cli(
        capsys, "tiger", "--spec", str(spec_dir / "smooth_cubic.txt"), "--out", str(target)
    )
    assert code == cli.EXIT_NO_CYLINDER
    assert list(out_dir.iterdir()) == []

    def crash(spec):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli, "build_tiger", crash)
    with pytest.raises(RuntimeError):
        cli.main(["tiger", "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(target)])
    assert list(out_dir.iterdir()) == []


def test_out_replaces_the_target_whole(spec_dir, tmp_path, capsys):
    target = tmp_path / "verdict.json"
    target.write_text("stale and much longer than the new document " * 100, encoding="utf-8")
    code, _, _ = run_cli(
        capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(target)
    )
    assert code == cli.EXIT_OK
    _, stdout, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    assert target.read_text(encoding="utf-8") == stdout
    assert [p.name for p in tmp_path.iterdir()] == ["verdict.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def interrupt_the_stream(monkeypatch, written):
    """Break the certificate stream off after its head and 21 chunks of 50
    entries, 1,050 of the 1,080 splits of D6 at degree 2: ``written()``
    must show them."""

    def interrupted(cert):
        for n, chunk in enumerate(certificate_chunks(cert)):
            if n == 1 + 21:
                assert written() > 0
                raise RuntimeError("interrupted")
            yield chunk

    monkeypatch.setattr(cli, "certificate_chunks", interrupted)


def test_interrupted_stream_leaves_the_out_target_alone(tmp_path, monkeypatch):
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 2\nsingularities: D6\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "cert.json"
    target.write_bytes(b"the old certificate\n")

    def written():
        [partial] = [p for p in out_dir.iterdir() if p.name.startswith(".dpcyl-")]
        return partial.stat().st_size

    interrupt_the_stream(monkeypatch, written)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.main(["tiger", "--spec", str(spec), "--out", str(target)])
    assert target.read_bytes() == b"the old certificate\n"
    assert [p.name for p in out_dir.iterdir()] == ["cert.json"]


@pytest.mark.parametrize("command", ["classify", "tiger"])
def test_a_failed_rename_exits_4_and_leaves_the_target_alone(
    spec_dir, tmp_path, capsys, monkeypatch, command
):
    """The whole document is written but cannot be renamed over the
    target: a named error, exit 4, the old target and no temporary file."""
    target = tmp_path / "out.json"
    target.write_bytes(b"the old document\n")

    def no_space(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "replace", no_space)
    code, out, err = run_cli(
        capsys, command, "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(target)
    )
    assert code == cli.EXIT_CANNOT_WRITE
    assert out == ""
    assert err == f"error: cannot write {target}: No space left on device\n"
    assert target.read_bytes() == b"the old document\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_interrupted_stream_leaves_a_prefix_on_stdout(tmp_path, monkeypatch):
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 2\nsingularities: D6\n", encoding="utf-8")
    sink = tmp_path / "stdout"
    document = "".join(certificate_chunks(build_tiger(SurfaceSpec(2, ("D6",)))))
    with open(sink, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        interrupt_the_stream(monkeypatch, lambda: sink.stat().st_size)
        with pytest.raises(RuntimeError, match="interrupted"):
            cli.main(["tiger", "--spec", str(spec)])
    prefix = sink.read_text(encoding="utf-8")
    assert 0 < len(prefix) < len(document)
    assert document.startswith(prefix)


def test_out_through_a_symlink_writes_its_target(spec_dir, tmp_path, capsys):
    real, links = tmp_path / "real", tmp_path / "lk"
    real.mkdir()
    links.mkdir()
    target = real / "target.json"
    target.write_text("old content", encoding="utf-8")
    link = links / "link.json"
    link.symlink_to(Path("..", "real", "target.json"))
    code, _, _ = run_cli(
        capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(link)
    )
    assert code == cli.EXIT_OK
    assert link.is_symlink()
    assert os.readlink(link) == str(Path("..", "real", "target.json"))
    _, stdout, _ = run_cli(capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    assert target.read_text(encoding="utf-8") == stdout
    assert [p.name for p in real.iterdir()] == ["target.json"]
    assert [p.name for p in links.iterdir()] == ["link.json"]


def test_out_through_a_dangling_symlink_creates_its_target(spec_dir, tmp_path, capsys):
    link = tmp_path / "link.json"
    link.symlink_to("new.json")
    code, _, _ = run_cli(
        capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(link)
    )
    assert code == cli.EXIT_OK
    assert link.is_symlink()
    assert json.loads((tmp_path / "new.json").read_text(encoding="utf-8"))["kind"] == (
        "classification"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "new.json"]


@pytest.mark.parametrize("kind", ["fifo", "directory", "link-to-fifo"])
@pytest.mark.parametrize("command", ["classify", "tiger", "sweep"])
def test_out_refuses_what_is_not_a_regular_file(spec_dir, tmp_path, capsys, no_work, command, kind):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    (tmp_path / "directory").mkdir()
    (tmp_path / "link-to-fifo").symlink_to("fifo")
    before = sorted(p.name for p in tmp_path.iterdir())
    target = tmp_path / kind
    code, out, err = run_cli(capsys, *command_argv(spec_dir, command), "--out", str(target))
    assert (code, out) == (cli.EXIT_CANNOT_WRITE, "")
    assert err == f"error: cannot write {target}: not a regular file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert (tmp_path / "link-to-fifo").is_symlink()


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604], ids=oct)
def test_out_keeps_the_targets_permission_bits(spec_dir, tmp_path, capsys, mode):
    target = tmp_path / "verdict.json"
    target.write_text("stale", encoding="utf-8")
    target.chmod(mode)
    code, _, _ = run_cli(
        capsys, "classify", "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(target)
    )
    assert code == cli.EXIT_OK
    assert json.loads(target.read_text(encoding="utf-8"))["kind"] == "classification"
    assert stat.S_IMODE(target.stat().st_mode) == mode


def test_spec_files_allow_comments_and_case(tmp_path, capsys):
    path = tmp_path / "commented.txt"
    path.write_text(
        "# one node on a cubic\n"
        "\n"
        "Degree: 3   # the anticanonical degree\n"
        "Singularities: A1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["spec"] == {"degree": 3, "singularities": ["A1"]}


@pytest.mark.parametrize("text,code", [
    ("degree: 0_3\n", cli.EXIT_BAD_FILE),
    ("degree: \uff13\n", cli.EXIT_BAD_FILE),  # fullwidth 3
    ("degree: \u0663\n", cli.EXIT_BAD_FILE),  # Arabic-Indic 3
    ("degree: 3\nsingularities: A\uff11\n", cli.EXIT_BAD_SPEC),  # fullwidth 1
    ("degree: -1\n", cli.EXIT_BAD_SPEC),
    ("degree: +3\nsingularities: A1\n", cli.EXIT_OK),
    # well-formed but overlong: past the interpreter's int() digit limit
    pytest.param("degree: " + "9" * 5000 + "\n", cli.EXIT_BAD_SPEC,
                 id="degree: 5000 nines"),
    pytest.param("degree: 3\nsingularities: A" + "1" * 5000 + "\n", cli.EXIT_BAD_SPEC,
                 id="singularities: A and 5000 ones"),
])
@pytest.mark.parametrize("command", ["classify", "tiger"])
def test_spec_digits_are_ascii(tmp_path, capsys, command, text, code):
    path = tmp_path / "spec.txt"
    path.write_text(text, encoding="utf-8")
    got, out, err = run_cli(capsys, command, "--spec", str(path))
    assert got == code
    if code != cli.EXIT_OK:
        assert out == "" and err.startswith("error: ")


# a degree line, a singularities line, each maybe, and maybe arbitrary text
SPEC_TEXTS = st.builds(
    lambda lines, extra: "\n".join([line for line in lines if line is not None] + extra),
    st.tuples(
        st.none() | st.builds(
            "degree: {}".format,
            st.integers(-12, 12) | st.text("0123456789+-_ #\uff13", max_size=6),
        ),
        st.none() | st.builds(
            lambda tokens: "singularities: " + ", ".join(tokens),
            st.lists(
                st.sampled_from(["A1", "A4", "D4", "E6", "E8", "A9", "A01", "B2", ""])
                | st.text("ADE019\uff11 ", max_size=4),
                max_size=4,
            ),
        ),
    ),
    st.lists(st.text(), max_size=1),
)


@given(SPEC_TEXTS)
def test_spec_parser_gives_a_spec_or_a_named_refusal(text):
    try:
        spec = parse_spec_text(text)
    except (SpecFileError, InvalidSpec):
        return
    assert isinstance(spec, SurfaceSpec)


# -------------------------------------------------------------------- tiger

@pytest.mark.acceptance(8)
def test_tiger_roundtrip(spec_dir, tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt"),
        "--out", str(out_path),
    )
    assert code == cli.EXIT_OK
    assert out == ""  # --out diverts the document
    text = out_path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["kind"] == "tiger_certificate"
    assert doc["status"] == "certified"
    assert doc["ratio"] == "9/4"

    # the certificate its spec block derives renders the file byte for byte
    assert "".join(certificate_chunks(build_tiger(SurfaceSpec(**doc["spec"])))) == text


@pytest.mark.acceptance(8)
@pytest.mark.parametrize("command", ["classify", "tiger", "sweep"])
def test_stdout_matches_out_file(spec_dir, tmp_path, capsysbinary, command):
    """Every command writes the same bytes to stdout as to its --out file."""
    target = tmp_path / "out"
    argv = command_argv(spec_dir, command)
    assert cli.main(argv + ["--out", str(target)]) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == b""
    assert cli.main(argv) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == target.read_bytes()


# the whole --trace stderr, byte for byte, for a point on a node curve, a
# point on the (-1)-curve E and a node intersection with a balanced split
PINNED_TRACES = {
    "degree: 3\nsingularities: A1\n": (
        "case A1deg3: degree 3, multiple 4, marked point a general point on D1\n"
        "relation: 4*(-K) = 3*D1 + N\n"
        "N.K = -12\n"
        "N.D1 = 6\n"
        "N^2 = 30\n"
        "dim|N| = (N^2 - N.K)/2 = (30 - (-12))/2 = 21\n"
        "conditions(6) = 21; candidate family dim = 0\n"
        "local multiplicity = 9; ratio = 9/4\n"
        "decompositions: 4 splits, 0 unobstructed\n"
    ),
    "degree: 4\n": (
        "case deg4or6: degree 4, multiple 3, marked point a general point on E\n"
        "relation: 3*(-K) = 2*E + N\n"
        "N.K = -10\n"
        "N.E = 5\n"
        "N^2 = 20\n"
        "dim|N| = (N^2 - N.K)/2 = (20 - (-10))/2 = 15\n"
        "conditions(5) = 15; candidate family dim = 0\n"
        "local multiplicity = 7; ratio = 7/3\n"
        "decompositions: 3 splits, 0 unobstructed\n"
    ),
    "degree: 2\nsingularities: A2\n": (
        "case A2: degree 2, multiple 2, marked point the intersection of D1 and D2\n"
        "relation: 2*(-K) = 2*D1 + 2*D2 + N\n"
        "N.K = -4\n"
        "N.D1 = 2\n"
        "N.D2 = 2\n"
        "N^2 = 0\n"
        "dim|N| = (N^2 - N.K)/2 = (0 - (-4))/2 = 2\n"
        "conditions(1) = 1; candidate family dim = 1\n"
        "local multiplicity = 5; ratio = 5/2\n"
        "decompositions: 9 splits, 0 unobstructed\n"
    ),
}


@pytest.mark.parametrize("text", PINNED_TRACES, ids=["A1-d3", "smooth-d4", "A2-d2"])
def test_tiger_trace_is_pinned(tmp_path, capsys, text):
    path = tmp_path / "spec.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "tiger", "--spec", str(path), "--trace")
    assert code == cli.EXIT_OK
    assert err == PINNED_TRACES[text]
    json.loads(out)


def test_tiger_nothing_to_build(spec_dir, capsys):
    for name in ("smooth_cubic.txt", "four_cusps.txt"):
        code, out, err = run_cli(capsys, "tiger", "--spec", str(spec_dir / name))
        assert code == cli.EXIT_NO_CYLINDER
        assert out == ""
        assert "nothing to build" in err


@pytest.mark.acceptance(8)
def test_tiger_discrepancy_exit(spec_dir, capsys):
    with forced_discrepancy():
        code, out, err = run_cli(
            capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt")
        )
    assert code == cli.EXIT_DISCREPANCY
    assert "carry no obstruction" in err
    assert json.loads(out)["status"] == "discrepancy"


def test_forced_discrepancy_follows_a_certified_tiger(spec_dir, capsys):
    """The walked boxes outlive a call: a box certified before the
    discrepancy is forced reads unobstructed under it, and no box read
    under it reaches the memo."""
    path = str(spec_dir / "node_cubic.txt")
    assert run_cli(capsys, "tiger", "--spec", path)[0] == cli.EXIT_OK
    with forced_discrepancy():
        assert run_cli(capsys, "tiger", "--spec", path)[0] == cli.EXIT_DISCREPANCY
    assert run_cli(capsys, "tiger", "--spec", path)[0] == cli.EXIT_OK


def test_uncovered_and_unobstructed_specs_are_discrepancies(spec_dir, capsys, monkeypatch):
    """A spec no case row covers, and a certificate with an unobstructed
    split, each exit 30: ``tiger`` says so on stderr and writes nothing,
    ``sweep`` gives each its own report line."""
    build_tiger = cli.build_tiger
    uncovered, unobstructed = SurfaceSpec(3, ("A1",)), SurfaceSpec(5, ())

    def stand_in(spec):
        if spec == uncovered:
            raise tigers.NoCaseApplies(f"no construction case covers {spec}")
        cert = build_tiger(spec)
        if spec == unobstructed:
            splits = tuple(s._replace(obstruction=None) for s in cert.decompositions)
            return cert._replace(decompositions=splits)
        return cert

    monkeypatch.setattr(cli, "build_tiger", stand_in)
    code, out, err = run_cli(capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt"))
    assert (code, out) == (cli.EXIT_DISCREPANCY, "")
    assert err == f"discrepancy: no construction case covers {uncovered}\n"
    code, out, _ = run_cli(capsys, "sweep")
    lines = out.splitlines()
    assert code == cli.EXIT_DISCREPANCY
    assert lines[-1] == "250 specs, 2 discrepancies"
    assert [line for line in lines if "DISCREPANCY" in line] == [
        f"degree 3 A1: anticanonical=yes polar=yes DISCREPANCY: "
        f"no construction case covers {uncovered}",
        "degree 5 smooth: anticanonical=yes polar=yes case=deg5 DISCREPANCY: unobstructed split",
    ]


# -------------------------------------------------------------------- sweep

def test_sweep_reports_every_spec(tmp_path, capsys):
    """Every line of the report, each rebuilt from the spec's verdict, the
    case row ``select_case`` picks and that row's hand-checked ratio."""
    out_path = tmp_path / "sweep.txt"
    code, _, _ = run_cli(capsys, "sweep", "--out", str(out_path))
    assert code == cli.EXIT_OK
    report = out_path.read_text(encoding="utf-8")
    lines = report.splitlines()
    assert lines[-1] == "250 specs, 0 discrepancies"
    assert "degree 9 smooth: anticanonical=yes polar=yes case=deg7plus ratio=5/2 certified" in lines
    assert "degree 1 2D4: anticanonical=no polar=no" in lines
    assert "degree 3 smooth: anticanonical=no polar=yes" in lines
    assert sum(1 for line in lines if line.endswith("certified")) == 188
    expected = []
    for spec in enumerate_specs():
        verdict = classify(spec)
        line = (f"degree {spec.degree} {spec.singularity_label}: "
                f"anticanonical={'yes' if verdict.anticanonical_cylinder else 'no'} "
                f"polar={'yes' if verdict.h_polar_cylinder else 'no'}")
        if verdict.anticanonical_cylinder:
            case_id = select_case(spec)[0].case_id
            line += f" case={case_id} ratio={RESIDUAL_FIXTURES[case_id].ratio} certified"
        expected.append(line)
    expected.append(f"{len(expected)} specs, 0 discrepancies")
    assert report == "\n".join(expected) + "\n"

    code, _, _ = run_cli(capsys, "sweep", "--out", str(out_path))
    assert out_path.read_text(encoding="utf-8") == report  # reproducible


def test_sweep_walks_each_box_once(tmp_path, monkeypatch):
    """The 188 certified specs fall into the 40 (case row, degree) boxes
    of the case table: ``sweep`` walks each box once and serves the other
    148 certificates from the memo, and its report is byte for byte the one
    a sweep writes that walks every box afresh."""
    walked = []
    walk = tigers.square_survivors

    def spy(row, degree):
        walked.append((row, degree))
        return walk(row, degree)

    monkeypatch.setattr(tigers, "square_survivors", spy)
    tigers.enumerate_decompositions.cache_clear()
    memo, afresh = tmp_path / "memo.txt", tmp_path / "afresh.txt"
    assert cli.main(["sweep", "--out", str(memo)]) == cli.EXIT_OK
    boxes = [(row, d) for row in tigers.case_tables() for d in row.degrees]
    assert len(boxes) == len(walked) == 40
    assert sorted(walked) == sorted(boxes)
    assert tigers.enumerate_decompositions.cache_info().hits == 148
    afresh_walk = tigers.enumerate_decompositions.__wrapped__
    monkeypatch.setattr(tigers, "enumerate_decompositions", afresh_walk)
    assert cli.main(["sweep", "--out", str(afresh)]) == cli.EXIT_OK
    assert len(walked) == 40 + 188
    assert afresh.read_bytes() == memo.read_bytes()


# ------------------------------------------------------------------- stdout

def test_stdout_with_no_reader_exits_4(spec_dir, capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["classify", "--spec", str(spec_dir / "node_cubic.txt")])
    assert code == cli.EXIT_CANNOT_WRITE
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


def test_a_text_only_stdout_takes_the_whole_document(spec_dir, tmp_path):
    """A stdout with no binary layer, such as ``io.StringIO``, is written
    through its text layer, with the bytes the --out file gets."""
    target = tmp_path / "out.json"
    for command in ("classify", "tiger"):
        argv = [command, "--spec", str(spec_dir / "node_cubic.txt")]
        assert cli.main(argv + ["--out", str(target)]) == cli.EXIT_OK
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            assert cli.main(argv) == cli.EXIT_OK
        assert stdout.getvalue().encode() == target.read_bytes(), command


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_stdout_takes_the_documents_bytes_whatever_the_io_encoding(spec_dir, encoding):
    # a stateful encoding would start each encoded chunk with a BOM, and
    # stdout would parse as no JSON; it takes UTF-8, as --out does
    child = python("-m", "dpcylinders.cli", *command_argv(spec_dir, "tiger"),
                   env={"PYTHONIOENCODING": encoding}, text=False)
    out, err = child.communicate()
    assert child.returncode == cli.EXIT_OK, err
    assert out == "".join(certificate_chunks(build_tiger(SurfaceSpec(3, ("A1",))))).encode()


def test_closed_stdout_exits_4(spec_dir, capsys, monkeypatch):
    # the interpreter sets sys.stdout to None when fd 1 is closed at start
    monkeypatch.setattr(sys, "stdout", None)
    code = cli.main(["classify", "--spec", str(spec_dir / "node_cubic.txt")])
    assert code == cli.EXIT_CANNOT_WRITE
    assert capsys.readouterr().err == "error: cannot write stdout: stdout is closed\n"


# ------------------------------------------------------------------- stderr

def test_endless_spec_file_is_refused_in_bounded_memory():
    # /dev/zero never ends; under a 256 MiB address space an unbounded read
    # dies with a MemoryError traceback
    limit = 256 * 2**20
    child = python(
        "-m", "dpcylinders.cli", "classify", "--spec", "/dev/zero",
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    out, err = child.communicate(timeout=60)
    assert (child.returncode, out) == (cli.EXIT_BAD_FILE, "")
    assert err == f"error: cannot read /dev/zero: longer than {cli.MAX_SPEC_BYTES} bytes\n"


@pytest.mark.parametrize(
    "signum,code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)], ids=["SIGINT", "SIGTERM"]
)
def test_interrupted_run_exits_with_a_named_error_and_no_file(tmp_path, signum, code):
    spec = tmp_path / "d8.txt"
    spec.write_text("degree: 1\nsingularities: D8\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "cert.json"
    target.write_text("the previous certificate\n", encoding="utf-8")
    # the 177 MB degree 1 D8 certificate takes about a second to write
    child = python(
        "-m", "dpcylinders.cli", "tiger", "--spec", str(spec), "--out", str(target),
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not list(out_dir.glob(".dpcyl-*")):
        assert child.poll() is None and time.monotonic() < deadline
        time.sleep(0.005)
    child.send_signal(signum)
    _, err = child.communicate(timeout=60)
    assert child.returncode == code
    assert err == "error: interrupted\n"
    assert target.read_text(encoding="utf-8") == "the previous certificate\n"
    assert [p.name for p in out_dir.iterdir()] == ["cert.json"]


@pytest.mark.parametrize(
    "args,code",
    [
        (("classify", "unknown_key.txt"), cli.EXIT_BAD_FILE),
        (("classify", "bad_type.txt"), cli.EXIT_BAD_SPEC),
        (("tiger", "four_cusps.txt"), cli.EXIT_NO_CYLINDER),
        (("tiger", "node_cubic.txt", "--trace"), cli.EXIT_OK),
        (("classify", "node_cubic.txt", "--out", "missing/out.json"), cli.EXIT_CANNOT_WRITE),
    ],
    ids=["bad-file", "bad-spec", "nothing-to-build", "trace", "cannot-write"],
)
def test_closed_stderr_keeps_the_exit_code(spec_dir, capsys, monkeypatch, args, code):
    # the interpreter sets sys.stderr to None when fd 2 is closed at start
    monkeypatch.setattr(sys, "stderr", None)
    command, name, *rest = args
    argv = [command, "--spec", str(spec_dir / name)]
    argv += [str(spec_dir / arg) if "/" in arg else arg for arg in rest]
    assert cli.main(argv) == code
    monkeypatch.undo()
    assert capsys.readouterr().err == ""


def test_closed_stderr_keeps_the_discrepancy_exit(spec_dir, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stderr", None)
    with forced_discrepancy():
        code = cli.main(["tiger", "--spec", str(spec_dir / "node_cubic.txt")])
    monkeypatch.undo()
    assert code == cli.EXIT_DISCREPANCY
    assert json.loads(capsys.readouterr().out)["status"] == "discrepancy"


@pytest.mark.parametrize(
    "args,code",
    [
        (("classify", "unknown_key.txt"), cli.EXIT_BAD_FILE),
        (("tiger", "node_cubic.txt", "--trace"), cli.EXIT_OK),
    ],
    ids=["bad-file", "trace"],
)
def test_process_started_with_stderr_closed_keeps_the_exit_code(spec_dir, args, code):
    command, name, *rest = args
    child = python(
        "-m", "dpcylinders.cli", command, "--spec", str(spec_dir / name), *rest,
        stdout=subprocess.DEVNULL, stderr=None, preexec_fn=lambda: os.close(2),
    )
    assert child.wait() == code


def test_stdout_reader_gone_before_the_write_exits_4(spec_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = python(
        "-m", "dpcylinders.cli", "classify", "--spec", str(spec_dir / "node_cubic.txt"),
        stdout=write_end,
    )
    os.close(write_end)
    _, err = child.communicate()
    assert child.returncode == cli.EXIT_CANNOT_WRITE
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_stdout_reader_leaving_early_exits_4(tmp_path, unbuffered):
    # a 350 KB certificate against a 64 KB pipe: the write is still going
    # when the reader leaves, and an unbuffered stdout used to drop the rest
    # of a short write and exit 0
    spec = tmp_path / "a5.txt"
    spec.write_text("degree: 3\nsingularities: A5\n", encoding="utf-8")
    child = python(
        "-m", "dpcylinders.cli", "tiger", "--spec", str(spec),
        env={"PYTHONUNBUFFERED": unbuffered},
    )
    assert child.stdout.read(10) == "{\n  \"assum"
    child.stdout.close()
    assert child.wait() == cli.EXIT_CANNOT_WRITE
    assert child.stderr.read() == "error: cannot write stdout: Broken pipe\n"
    child.stderr.close()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_stdout_reader_leaving_after_the_first_chunk_exits_4(tmp_path, unbuffered):
    # D6 at degree 2 streams in 23 chunks: the head, 21 of 50 entries, and
    # the last 30 entries with the tail
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 2\nsingularities: D6\n", encoding="utf-8")
    first, *rest = certificate_chunks(build_tiger(SurfaceSpec(2, ("D6",))))
    assert len(rest) == 22
    child = python(
        "-m", "dpcylinders.cli", "tiger", "--spec", str(spec),
        env={"PYTHONUNBUFFERED": unbuffered},
    )
    assert child.stdout.read(len(first)) == first
    child.stdout.close()
    assert child.wait() == cli.EXIT_CANNOT_WRITE
    assert child.stderr.read() == "error: cannot write stdout: Broken pipe\n"
    child.stderr.close()


# ------------------------------------------------------------- entry point

def test_module_entry_point(spec_dir):
    child = python("-m", "dpcylinders.cli", "classify", "--spec", str(spec_dir / "node_cubic.txt"))
    out, err = child.communicate()
    assert child.returncode == 0, err
    assert json.loads(out)["kind"] == "classification"


# What a fresh interpreter adds to sys.modules of the package, and of the
# standard modules no command needs, written as JSON to the file named by
# the first argument. Given `import` and a module name it imports that
# module, else it runs `python -m dpcylinders.cli` on its arguments, whose
# cli module is __main__, not dpcylinders.cli.
LOADS_PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["dpcyl", *sys.argv[2:]]
before = set(sys.modules)
try:
    if sys.argv[1] == "import":
        __import__(sys.argv[2])
    else:
        runpy.run_module("dpcylinders.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(sorted(m for m in set(sys.modules) - before if m.startswith("dpcylinders")
                         or m in ("dataclasses", "inspect", "fractions")), fh)
"""

# What `import dpcylinders` loads: the package and `lattice`, which holds
# the specs and verdicts with their text and JSON forms. The records are
# named tuples, not dataclasses (which load inspect), and ratios are written
# from integers, not Fractions, so no run loads those three.
PACKAGE = {"dpcylinders", "dpcylinders.lattice"}
CONSTRUCTION = {"dpcylinders.tigers"}


@pytest.mark.parametrize(
    "args,code,loaded",
    [
        # the construction and the certificate document load with the
        # command that runs them
        (("import", "dpcylinders.cli"), 0, PACKAGE | {"dpcylinders.cli"}),
        # lattice reads spec files and writes verdicts, not certificates
        (("import", "dpcylinders.lattice"), 0, PACKAGE),
        (("classify", "node_cubic.txt"), cli.EXIT_OK, PACKAGE),
        (("classify", "unknown_key.txt"), cli.EXIT_BAD_FILE, PACKAGE),
        (("classify", "bad_type.txt"), cli.EXIT_BAD_SPEC, PACKAGE),
        (("tiger", "smooth_cubic.txt"), cli.EXIT_NO_CYLINDER, PACKAGE),
        (("tiger", "node_cubic.txt"), cli.EXIT_OK,
         PACKAGE | CONSTRUCTION | {"dpcylinders.certificate"}),
        # the report gives each certified spec's case and ratio, not its document
        (("sweep",), cli.EXIT_OK, PACKAGE | CONSTRUCTION),
    ],
    ids=["import-cli", "import-lattice", "classify", "malformed", "invalid",
         "tiger-no-cylinder", "tiger", "sweep"],
)
def test_each_run_loads_exactly_its_modules(spec_dir, tmp_path, args, code, loaded):
    out = tmp_path / "loaded.json"
    what, *rest = args
    argv = args if what == "import" else command_argv(spec_dir, what, *rest)
    child = python("-c", LOADS_PROBE, str(out), *argv)
    _, err = child.communicate()
    assert child.returncode == code, err
    assert set(json.loads(out.read_text(encoding="utf-8"))) == loaded


def test_every_submodule_is_the_package_attribute_of_its_name():
    # ``import dpcylinders.<name> as m`` binds the package's attribute
    # ``<name>``, so a package name that is also a submodule's means two things
    modules = {info.name: importlib.import_module(f"dpcylinders.{info.name}")
               for info in pkgutil.iter_modules(dpcylinders.__path__)}
    assert [name for name, module in modules.items()
            if getattr(dpcylinders, name) is not module] == []


def test_importtime_times_the_certificate_path(spec_dir, tmp_path):
    # the lazy names load through the import statement, so
    # ``python3 -X importtime`` gives the certificate path its own lines
    child = python(
        "-X", "importtime", "-m", "dpcylinders.cli", "tiger",
        "--spec", str(spec_dir / "node_cubic.txt"), "--out", str(tmp_path / "cert.json"),
    )
    _, err = child.communicate()
    assert child.returncode == cli.EXIT_OK, err
    timed = {line.rsplit("|", 1)[-1].strip()
             for line in err.splitlines() if line.startswith("import time:")}
    assert {"dpcylinders.tigers", "dpcylinders.certificate"} <= timed


def test_cli_serves_exactly_the_package_lazy_names():
    # the benchmark's traced replay reads certificate names on this module
    for name in dpcylinders._LAZY_NAMES:
        assert getattr(cli, name) is getattr(dpcylinders, name), name
    for name in ("complement", "no_such_name"):
        with pytest.raises(AttributeError, match=r"module 'dpcylinders\.cli' has no attribute"):
            getattr(cli, name)


def test_star_import_binds_every_exported_name():
    child = python("-c", (
        "import dpcylinders; from dpcylinders import *; "
        "print(sorted(n for n in dpcylinders.__all__ if n not in globals()))"
    ))
    out, err = child.communicate()
    assert (child.returncode, out) == (0, "[]\n"), err
