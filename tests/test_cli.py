"""Command line behavior: exit codes, document round-trips, reproducibility."""

import codecs
import copy
import json
import os
import re
import resource
import signal
import stat
import subprocess
import sys
import time
import tracemalloc
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
    certificate_document,
    certificate_from_document,
    parse_spec_text,
    render_document,
)
from dpcylinders import cli, specio, tigers
from dpcylinders.specio import certificate_chunks


SPEC_FILES = {
    "node_cubic.txt": "degree: 3\nsingularities: A1\n",
    "smooth_cubic.txt": "degree: 3\n",
    "four_cusps.txt": "degree: 1\nsingularities: A2, A2, A2, A2\n",
    "unknown_key.txt": "degreee: 3\n",
    "missing_degree.txt": "singularities: A1\n",
    "bad_type.txt": "degree: 3\nsingularities: E9\n",
    "rank_overflow.txt": "degree: 7\nsingularities: A4\n",
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


# ----------------------------------------------------------------- classify

def test_classify_exit_codes(spec_dir, capsys):
    expected = {
        "node_cubic.txt": cli.EXIT_OK,
        "smooth_cubic.txt": cli.EXIT_NO_ANTICANONICAL,
        "four_cusps.txt": cli.EXIT_NO_CYLINDER,
        "unknown_key.txt": cli.EXIT_BAD_FILE,
        "missing_degree.txt": cli.EXIT_BAD_FILE,
        "bad_type.txt": cli.EXIT_BAD_SPEC,
        "rank_overflow.txt": cli.EXIT_BAD_SPEC,
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
    spec = [] if command == "sweep" else ["--spec", str(spec_dir / "node_cubic.txt")]
    code, out, err = run_cli(capsys, command, *spec, "--out", str(target))
    assert code == cli.EXIT_CANNOT_WRITE
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("command", ["classify", "tiger", "sweep"])
def test_unwritable_out_fails_before_any_work(spec_dir, tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("classify", "enumerate_specs", "build_tiger"):
        monkeypatch.setattr(cli, name, never)
    target = tmp_path / "missing" / "out.json"
    spec = [] if command == "sweep" else ["--spec", str(spec_dir / "node_cubic.txt")]
    code, _, _ = run_cli(capsys, command, *spec, "--out", str(target))
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
    """Break the certificate stream off after 1,050 splits of the half walk
    that fills it.  D6 at degree 3 has 1,080, so 21 chunks of 50 entries
    have gone out by then: ``written()`` must show them."""
    half_walk = specio.half_walk

    def interrupted(cert, halves):
        for n, split in enumerate(half_walk(cert, halves)):
            if n == 1050:
                assert written() > 0
                raise RuntimeError("interrupted")
            yield split

    monkeypatch.setattr(specio, "half_walk", interrupted)


def test_interrupted_stream_leaves_the_out_target_alone(tmp_path, monkeypatch):
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 3\nsingularities: D6\n", encoding="utf-8")
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


def test_interrupted_stream_leaves_a_prefix_on_stdout(tmp_path, monkeypatch):
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 3\nsingularities: D6\n", encoding="utf-8")
    sink = tmp_path / "stdout"
    document = "".join(certificate_chunks(build_tiger(SurfaceSpec(3, ("D6",)))))
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
def test_out_refuses_what_is_not_a_regular_file(
    spec_dir, tmp_path, capsys, monkeypatch, command, kind
):
    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("classify", "enumerate_specs", "build_tiger"):
        monkeypatch.setattr(cli, name, never)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    (tmp_path / "directory").mkdir()
    (tmp_path / "link-to-fifo").symlink_to("fifo")
    before = sorted(p.name for p in tmp_path.iterdir())
    target = tmp_path / kind
    spec = [] if command == "sweep" else ["--spec", str(spec_dir / "node_cubic.txt")]
    code, out, err = run_cli(capsys, command, *spec, "--out", str(target))
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


def test_certificate_loader_names_a_missing_field():
    with pytest.raises(ValueError, match="'spec'"):
        certificate_from_document({"kind": "tiger_certificate"})
    doc = certificate_document(build_tiger(SurfaceSpec(5, ())))
    del doc["decompositions"][0]["part1"]["e_coefficient"]
    with pytest.raises(ValueError, match=re.escape("""should read '"e_coefficient": 0,'""")):
        certificate_from_document(doc)


BAD_SPEC_BLOCK = "field 'spec' must be an object with an integer 'degree'"


@pytest.mark.parametrize("path,value,message", [
    (("decompositions",), 5, """line 8 should read '"decompositions": [', not '"decompositions": 5,'"""),
    (("decompositions", 0, "obstruction", "witness"), 3,
     """line 13 should read '"witness": [', not '"witness": 3'"""),
    (("spec",), [], BAD_SPEC_BLOCK),
    (("spec", "degree"), True, BAD_SPEC_BLOCK),
    (("spec", "singularities"), "A1", BAD_SPEC_BLOCK),
    (("spec", "singularities"), [3], "cannot parse singularity type 3"),
    (("spec", "degree"), 3, "no construction case covers degree 3, smooth"),
    (("ratio",), "1/0", """should read '"ratio": "9/4",', not '"ratio": "1/0",'"""),
    (("ratio",), "1/3", """should read '"ratio": "9/4",', not '"ratio": "1/3",'"""),
    (("decompositions", 0, "part2", "residual", "dim"), 3,
     """line 45 should read '"dim": 30,', not '"dim": 3,'"""),
    (("decompositions", 0, "part2", "residual", "dim"), 4.0,
     """line 45 should read '"dim": 30,', not '"dim": 4.0,'"""),
    (("decompositions",), [], """not '"decompositions": [],'"""),
    (("status",), "discrepancy", """not '"status": "discrepancy",'"""),
    (("extra",), 1, """not '"extra": 1,'"""),
], ids=[
    "decompositions-int", "witness-int", "spec-array", "degree-bool", "singularities-string",
    "singularity-int", "uncovered-spec", "ratio-1/0", "ratio-1/3", "part2-dim", "part2-dim-float",
    "no-splits", "status", "extra-field",
])
def test_certificate_loader_rejects_a_tampered_document(path, value, message):
    doc = certificate_document(build_tiger(SurfaceSpec(5, ())))
    *parents, last = path
    block = doc
    for key in parents:
        block = block[key]
    block[last] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        certificate_from_document(doc)


def test_certificate_loader_stops_at_the_first_differing_line():
    # D8 at degree 1 renders 177,620,068 bytes; the comparison reads two lines
    doc = {"kind": "tiger_certificate", "spec": {"degree": 1, "singularities": ["D8"]}}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
            """line 2 should read '"assumptions": [', not '"kind": "tiger_certificate",'"""
        )):
            certificate_from_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_certificate_loader_rejects_other_documents():
    for doc in (None, [], "tiger_certificate", {"kind": "classification"}):
        with pytest.raises(ValueError, match="not a tiger certificate"):
            certificate_from_document(doc)


DEGREE_FIVE = certificate_document(build_tiger(SurfaceSpec(5, ())))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


def _paths(value, prefix=()):
    """Every (container path, key or index) of a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield prefix, key
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


@given(st.sampled_from(list(_paths(DEGREE_FIVE))), st.none() | json_values)
def test_certificate_loader_takes_one_edit_or_refuses(where, replacement):
    """Delete one key (None) or replace one value: the loader returns the
    certificate its spec derives, whose rendering is the edited document,
    or raises ValueError, and nothing else."""
    doc = copy.deepcopy(DEGREE_FIVE)
    prefix, key = where
    block = doc
    for step in prefix:
        block = block[step]
    if replacement is None:
        del block[key]
    else:
        block[key] = replacement
    try:
        cert = certificate_from_document(doc)
    except ValueError:
        return
    assert cert == build_tiger(cert.spec)
    assert render_document(certificate_document(cert)) == render_document(doc)


# -------------------------------------------------------------------- tiger

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

    rebuilt = certificate_from_document(doc)
    assert rebuilt == build_tiger(SurfaceSpec(3, ("A1",)))
    # rendering the rebuilt certificate reproduces the file byte for byte
    assert render_document(certificate_document(rebuilt)) == text


def test_tiger_stdout_matches_out_file(spec_dir, tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    run_cli(capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt"),
            "--out", str(out_path))
    _, stdout, _ = run_cli(capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt"))
    assert stdout == out_path.read_text(encoding="utf-8")


def test_tiger_trace_on_stderr(spec_dir, capsys):
    code, out, err = run_cli(
        capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt"), "--trace"
    )
    assert code == cli.EXIT_OK
    assert "relation: 4*(-K) = " in err
    assert "decompositions: 4 splits, 0 unobstructed" in err
    json.loads(out)  # stdout stays pure JSON


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


def test_tiger_discrepancy_exit(spec_dir, capsys, monkeypatch):
    monkeypatch.setattr(tigers, "_obstruction_for", lambda row, degree, dec: None)
    code, out, err = run_cli(
        capsys, "tiger", "--spec", str(spec_dir / "node_cubic.txt")
    )
    assert code == cli.EXIT_DISCREPANCY
    assert "carry no obstruction" in err
    assert json.loads(out)["status"] == "discrepancy"


# -------------------------------------------------------------------- sweep

def test_sweep_reports_every_spec(tmp_path, capsys):
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

    code, _, _ = run_cli(capsys, "sweep", "--out", str(out_path))
    assert out_path.read_text(encoding="utf-8") == report  # reproducible


# ------------------------------------------------------------------- stdout

def test_stdout_with_no_reader_exits_4(spec_dir, capsys, monkeypatch):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with os.fdopen(write_end, "w", encoding="utf-8") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(["classify", "--spec", str(spec_dir / "node_cubic.txt")])
    assert code == cli.EXIT_CANNOT_WRITE
    assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"


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
    child = run_module(
        "classify", "--spec", "/dev/zero",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
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
    child = run_module(
        "tiger", "--spec", str(spec), "--out", str(target),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
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
    monkeypatch.setattr(tigers, "_obstruction_for", lambda row, degree, dec: None)
    monkeypatch.setattr(sys, "stderr", None)
    code = cli.main(["tiger", "--spec", str(spec_dir / "node_cubic.txt")])
    monkeypatch.undo()
    assert code == cli.EXIT_DISCREPANCY
    assert json.loads(capsys.readouterr().out)["status"] == "discrepancy"


def run_module(*args, **kwargs):
    src = str(Path(dpcylinders.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, **kwargs.pop("env", {})}
    return subprocess.Popen(
        [sys.executable, "-m", "dpcylinders.cli", *args], env=env, **kwargs
    )


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
    child = run_module(
        command, "--spec", str(spec_dir / name), *rest,
        stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(2),
    )
    assert child.wait() == code


def test_stdout_reader_gone_before_the_write_exits_4(spec_dir):
    read_end, write_end = os.pipe()
    os.close(read_end)
    child = run_module(
        "classify", "--spec", str(spec_dir / "node_cubic.txt"),
        stdout=write_end, stderr=subprocess.PIPE, text=True,
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
    child = run_module(
        "tiger", "--spec", str(spec), env={"PYTHONUNBUFFERED": unbuffered},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert child.stdout.read(10) == "{\n  \"assum"
    child.stdout.close()
    assert child.wait() == cli.EXIT_CANNOT_WRITE
    assert child.stderr.read() == "error: cannot write stdout: Broken pipe\n"
    child.stderr.close()


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_stdout_reader_leaving_after_the_first_chunk_exits_4(tmp_path, unbuffered):
    # D6 at degree 3 streams in 23 chunks: the head, 21 of 50 entries, and
    # the last 30 entries with the tail
    spec = tmp_path / "d6.txt"
    spec.write_text("degree: 3\nsingularities: D6\n", encoding="utf-8")
    first, *rest = certificate_chunks(build_tiger(SurfaceSpec(3, ("D6",))))
    assert len(rest) == 22
    child = run_module(
        "tiger", "--spec", str(spec), env={"PYTHONUNBUFFERED": unbuffered},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert child.stdout.read(len(first)) == first
    child.stdout.close()
    assert child.wait() == cli.EXIT_CANNOT_WRITE
    assert child.stderr.read() == "error: cannot write stdout: Broken pipe\n"
    child.stderr.close()


# ------------------------------------------------------------- entry point

def test_module_entry_point(spec_dir, tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "dpcylinders.cli",
         "classify", "--spec", str(spec_dir / "node_cubic.txt")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["kind"] == "classification"


def test_cli_import_leaves_the_symbolic_layer_unloaded():
    # divisors, the only reference module that ships, is the tests' route,
    # not the CLI's
    probe = (
        "import json, sys, dpcylinders.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dpcylinders'))))"
    )
    src = str(Path(dpcylinders.__file__).parents[1])
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert "dpcylinders.cli" in loaded
    assert "dpcylinders.divisors" not in loaded
