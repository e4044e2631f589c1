from __future__ import annotations

import hashlib
import itertools
import json
import os
import pstats
import resource
import subprocess
import sys as _sys
import time

import pytest

import coxcover
from coxcover import algebra, cli, covering, coxeter, verify
from coxcover.algebra import expansion_rows, full_table
from coxcover.cli import main
from coxcover.covering import build_fibered_graph
from coxcover.dot import covering_dot
from coxcover.errors import InvariantViolation, OracleMismatch
from coxcover.gensets import from_one_based, iter_subsets
from coxcover.monodromy import monodromy_report

from .conftest import B3_MATRIX, H3_MATRIX

B3_JSON = {"rank": 3, "m": [[1, 4, 2], [4, 1, 3], [2, 3, 1]], "element_cap": 200000}


# `python -m coxcover` in a child process imports the package these tests
# import, also when only pytest's `pythonpath` setting put it on the path
MODULE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(coxcover.__file__)),
                  os.environ.get("PYTHONPATH")]))}


# the same, with stdout block-buffered as it is for most callers: a pipe or
# a file then receives the output only at the final flush
BUFFERED_ENV = {k: v for k, v in MODULE_ENV.items() if k != "PYTHONUNBUFFERED"}
COVER_S4 = ["cover", "--group", "S4", "--left", "1", "--right", "3", "--target", "1,3"]


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


D4_MATRIX = [[1, 3, 2, 2], [3, 1, 3, 3], [2, 3, 1, 2], [2, 3, 2, 1]]
B4_MATRIX = [[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]


def group_arg(name: str, tmp_path) -> str:
    """`--group` for `name`, with B3, H3, D4 and B4 written to a matrix file."""
    matrix = {"B3": B3_MATRIX, "H3": H3_MATRIX, "D4": D4_MATRIX, "B4": B4_MATRIX}.get(name)
    if matrix is None:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"rank": len(matrix), "m": matrix}))
    return f"matrix:{path}"


def test_table_text(capsys):
    code, out = run_cli(capsys, "table", "--group", "S4", "--left", "1", "--right", "3")
    assert code == 0
    assert "Y_{1} * Y_{3} = Y_{} + Y_{1} + Y_{1,3}" in out
    assert "K={1,3} a=1 lambda=[1] components=1" in out


def test_table_json_dihedral(capsys):
    code, out = run_cli(capsys, "table", "--group", "I6",
                        "--left", "1", "--right", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "I6" and data["rank"] == 2
    assert data["zero_rows_omitted"] is True
    constants = {tuple(r["K"]): r["a"] for r in data["rows"]}
    assert constants == {(): 2, (1,): 2, (2,): 2, (1, 2): 3}


def test_table_accepts_dihedral_aliases(capsys):
    code, out = run_cli(capsys, "table", "--group", "I6",
                        "--left", "s", "--right", "t", "--format", "json")
    assert code == 0
    assert {tuple(r["K"]): r["a"] for r in json.loads(out)["rows"]} == {
        (): 2, (1,): 2, (2,): 2, (1, 2): 3}
    # the aliases name generators 1 and 2 in every group, not only I<m>
    aliased = run_cli(capsys, "table", "--group", "S3", "--left", "s", "--right", "t",
                      "--format", "json")
    assert aliased[0] == 0
    assert aliased == run_cli(capsys, "table", "--group", "S3", "--left", "1", "--right", "2",
                              "--format", "json")


def test_table_s3_oracle_row(capsys):
    code, out = run_cli(capsys, "table", "--group", "S3",
                        "--left", "1", "--right", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert {tuple(r["K"]): r["a"] for r in data["rows"]} == {
        (): 1, (2,): 1, (1, 2): 1}


def test_table_all_pairs(capsys):
    code, out = run_cli(capsys, "table", "--group", "S3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 24


def test_table_text_is_the_concatenation_of_its_pairs(capsys):
    code, full = run_cli(capsys, "table", "--group", "S4")
    assert code == 0
    subsets = ["", "1", "1,2", "1,2,3", "1,3", "2", "2,3", "3"]  # one_based order
    pieces = []
    for left in subsets:
        for right in subsets:
            code, out = run_cli(capsys, "table", "--group", "S4",
                                "--left", left, "--right", right)
            assert code == 0
            pieces.append(out)
    assert full == "".join(pieces)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_table_prints_nothing_when_its_last_product_fails(capsys, monkeypatch, fmt):
    # every product is computed before the first line is printed
    real, calls = algebra.convolution_oracle, []

    def oracle(sys, left, right):
        calls.append((left, right))
        if len(calls) == 64:  # S4's last product
            raise OracleMismatch("the last product")
        return real(sys, left, right)

    monkeypatch.setattr(algebra, "convolution_oracle", oracle)
    assert main(["table", "--group", "S4", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert len(calls) == 64
    assert captured.out == ""
    assert captured.err == "invariant failure: the last product\n"


@pytest.mark.parametrize("name", ["S4", "I6", "B3"])
def test_table_json_prints_full_table(tmp_path, capsys, request, name):
    code, out = run_cli(capsys, "table", "--group", group_arg(name, tmp_path),
                        "--format", "json")
    assert code == 0
    assert out == json.dumps(full_table(request.getfixturevalue(name.lower()))) + "\n"


def test_table_rows_are_the_cover_json_of_their_instances(capsys, s4):
    checked = 0
    for left in iter_subsets(s4.rank):
        for right in iter_subsets(s4.rank):
            for row in expansion_rows(s4, left, right):
                argv = ["cover", "--group", "S4", "--format", "json"]
                for flag, key in (("--left", "I"), ("--right", "J"), ("--target", "K")):
                    argv += [flag, ",".join(map(str, row[key]))]
                code, out = run_cli(capsys, *argv)
                assert code == 0
                cover = json.loads(out)
                assert cover.pop("vertices") > 0
                assert cover == row
                checked += 1
    assert checked == 188  # the rows of the S4 table


def test_cover_text(capsys):
    code, out = run_cli(capsys, "cover", "--group", "S5",
                        "--left", "2,3", "--right", "3,4", "--target", "1,3")
    assert code == 0
    assert "vertices=32" in out and "components=1" in out
    assert "a=2" in out and "lambda=[2]" in out
    assert "covering axioms: ok" in out


def test_cover_empty(capsys):
    code, out = run_cli(capsys, "cover", "--group", "S4",
                        "--left", "1", "--right", "3", "--target", "2")
    assert code == 0
    assert "a=0" in out and "empty instance" in out


def test_cover_json_and_dot(tmp_path, capsys):
    dot_file = tmp_path / "z.dot"
    code, out = run_cli(capsys, "cover", "--group", "S4", "--left", "1",
                        "--right", "3", "--target", "1,3",
                        "--dot", str(dot_file), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"I": [1], "J": [3], "K": [1, 3], "a": 1,
                               "lambda": [1], "components": 1, "vertices": 5}
    dot = dot_file.read_text()
    assert dot.count('"(') - dot.count(" -- ") * 2 == 5  # five vertex lines
    assert "color=blue" in dot and "color=red" in dot


def test_cover_failed_axioms_exit_1_in_both_formats(capsys, monkeypatch):
    witness = "0 lifts of edge 1324 -- 3124 at vertex (1, 2)"

    monkeypatch.setattr(cli, "verify_covering", lambda instance: [witness])
    argv = ["cover", "--group", "S4", "--left", "1", "--right", "3", "--target", "1,3"]
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith(f"covering axioms FAILED: {witness}\n")
    # JSON mode prints the same instance, then the witness on stderr
    assert main(argv + ["--format", "json"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"I": [1], "J": [3], "K": [1, 3], "a": 1,
                                        "lambda": [1], "components": 1, "vertices": 5}
    assert captured.err == f"invariant failure: covering axioms failed: {witness}\n"


def test_monodromy_flagship(capsys):
    code, out = run_cli(capsys, "monodromy", "--group", "S5",
                        "--left", "2,3", "--right", "3,4", "--target", "1,3")
    assert code == 0
    data = json.loads(out)
    assert data["orders"] == {"2": 2}
    assert data["no_braid_loops"] is False


def test_monodromy_no_braid(capsys):
    code, out = run_cli(capsys, "monodromy", "--group", "S4",
                        "--left", "2", "--right", "3", "--target", "2,3")
    assert code == 0
    assert json.loads(out)["no_braid_loops"] is True


def test_monodromy_empty(capsys):
    code, out = run_cli(capsys, "monodromy", "--group", "S4",
                        "--left", "1", "--right", "3", "--target", "2")
    assert code == 0
    data = json.loads(out)
    assert data["empty"] is True and data["braid_loops"] == 0


VERIFY_OUTPUT = {
    "S4": """group S4: 24 elements, rank 3
cayley tables: ok (146 checks)
recoils vs descents: ok (24 checks)
class-edge criteria: ok (72 checks)
recoil classes: ok (8 checks)
covering axioms: ok (1052 checks)
products vs oracle: ok (89 checks)
monodromy: ok (188 checks)
all checks passed (1579 total)
""",
    "I8": """group I8: 16 elements, rank 2
cayley tables: ok (66 checks)
recoils vs descents: ok (16 checks)
class-edge criteria: ok (32 checks)
recoil classes: ok (4 checks)
covering axioms: ok (412 checks)
products vs oracle: ok (41 checks)
monodromy: ok (28 checks)
all checks passed (599 total)
""",
    "S5": """group S5: 120 elements, rank 4
cayley tables: ok (962 checks)
recoils vs descents: ok (120 checks)
class-edge criteria: ok (480 checks)
recoil classes: ok (16 checks)
covering axioms: ok (36192 checks)
products vs oracle: ok (281 checks)
monodromy: ok (1632 checks)
all checks passed (39683 total)
""",
    "I12": """group I12: 24 elements, rank 2
cayley tables: ok (98 checks)
recoils vs descents: ok (24 checks)
class-edge criteria: ok (48 checks)
recoil classes: ok (4 checks)
covering axioms: ok (988 checks)
products vs oracle: ok (41 checks)
monodromy: ok (28 checks)
all checks passed (1231 total)
""",
    "B3": """group matrix(rank=3): 48 elements, rank 3
cayley tables: ok (290 checks)
recoils vs descents: ok (48 checks)
class-edge criteria: ok (144 checks)
recoil classes: ok (8 checks)
covering axioms: ok (4856 checks)
products vs oracle: ok (89 checks)
monodromy: ok (248 checks)
all checks passed (5683 total)
""",
    "H3": """group matrix(rank=3): 120 elements, rank 3
cayley tables: ok (722 checks)
recoils vs descents: ok (120 checks)
class-edge criteria: ok (360 checks)
recoil classes: ok (8 checks)
covering axioms: ok (34852 checks)
products vs oracle: ok (89 checks)
monodromy: ok (292 checks)
all checks passed (36443 total)
""",
}


def test_verify_groups(tmp_path, capsys):
    # S5, I12, B3 and H3 are the benchmark's `verify` groups
    for group, expected in VERIFY_OUTPUT.items():
        code, out = run_cli(capsys, "verify", "--group", group_arg(group, tmp_path))
        assert code == 0
        assert out == expected


def test_verify_monodromy_violation_ends_the_run(capsys, monkeypatch):
    # monodromy runs inside the covering sweep, before the algebra check;
    # a raised violation still leaves only the header and one error line
    def broken(instance):
        raise InvariantViolation("injected monodromy failure")

    monkeypatch.setattr(verify, "lift_loops", broken)
    code = main(["verify", "--group", "S3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "group S3: 6 elements, rank 2\n"
    assert captured.err == "invariant failure: injected monodromy failure\n"


def test_verify_prints_the_first_lift_dichotomy_witness_itself(capsys, monkeypatch):
    # one entry of each lift table keeps its vertex in place: the first
    # lift that climbs from a square's base, so S3's loops, all squares,
    # still close; only the lift dichotomy can tell, at the first instance
    # with a class edge, and the covering line holds its first witness
    fill = covering.CoveringInstance.lift_table

    def tampered(self):
        if self.lifts is None:
            lifts, over = fill(self), self.projection
            climbs = [(s, u) for s, row in enumerate(lifts) for u, v in enumerate(row)
                      if v >= 0 and over[v] > over[u]]
            if climbs:
                s, u = climbs[0]
                lifts[s][u] = u
        return fill(self)

    monkeypatch.setattr(covering.CoveringInstance, "lift_table", tampered)
    code, out = run_cli(capsys, "verify", "--group", "S3")
    assert code == 1
    assert out.splitlines()[-1] == \
        "covering axioms: FAIL: lift table disagrees with brute force at (0, 2) s2"


def _drop_edge(adjacency, u, v):
    adjacency[u].remove(v)
    adjacency[v].remove(u)


def _duplicate_neighbour(adjacency, u, v):
    adjacency[u].insert(adjacency[u].index(v), v)


@pytest.mark.parametrize("miswire, lifts", [(_drop_edge, 0), (_duplicate_neighbour, 2)],
                         ids=["dropped-edge", "duplicated-neighbour"])
def test_a_miswired_instance_fails_at_the_step(capsys, monkeypatch, miswire, lifts):
    # every real instance is miswired at its first edge; the lift table
    # refuses it with the step's covering witness, before any loop is lifted
    wire = covering.CoveringInstance.__init__

    def miswired(self, *args):
        wire(self, *args)
        if self.edges:
            miswire(self.adjacency, *self.edges[0])

    monkeypatch.setattr(covering.CoveringInstance, "__init__", miswired)
    assert main(["monodromy", "--group", "S4", "--left", "2,3", "--right", "1,3",
                 "--target", "1,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"invariant failure: {lifts} lifts of edge 4213 -- 4231 at vertex (9, 11)\n"
    assert main(["verify", "--group", "S3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "group S3: 6 elements, rank 2\n"
    assert captured.err == \
        f"invariant failure: {lifts} lifts of edge 213 -- 231 at vertex (0, 2)\n"


def test_verify_matrix_file(tmp_path, capsys):
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(B3_JSON))
    code, out = run_cli(capsys, "verify", "--group", f"matrix:{path}")
    assert code == 0
    assert "48 elements" in out
    assert "all checks passed" in out


def test_usage_errors(capsys):
    for argv in (
        ("table", "--group", "X4"),
        ("table", "--group", "S4", "--left", "9"),
        ("table", "--group", "S0"),
        ("verify", "--group", "matrix:/no/such/file.json"),
        # str.isdigit accepts superscript digits, which int() refuses
        ("verify", "--group", "S\u00b3"),
        ("table", "--group", "I\u00b2"),
        # more digits than int() converts by default (4300)
        ("table", "--group", "S" + "9" * 5000),
        ("table", "--group", "I" + "9" * 5000),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cover_unwritable_dot_path_is_a_usage_error(tmp_path, capsys):
    dot_file = tmp_path / "missing" / "z.dot"
    code = main(["cover", "--group", "S4", "--left", "1", "--right", "3",
                 "--target", "1,3", "--dot", str(dot_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write DOT file ")
    assert captured.err.count("\n") == 1
    assert not dot_file.parent.exists()


def _limit_memory():
    # a child that reads without bound fails at 512 MB instead of filling memory
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("case", ["fifo-matrix", "dev-zero-matrix", "fifo-dot"])
def test_non_regular_files_end_fast_in_one_short_line(tmp_path, case):
    # a FIFO with no writer blocks a plain open for reading, one with no
    # reader a plain open for writing; /dev/zero never ends
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = {"fifo-matrix": ["table", "--group", f"matrix:{fifo}"],
            "dev-zero-matrix": ["table", "--group", "matrix:/dev/zero"],
            "fifo-dot": [*COVER_S4, "--dot", str(fifo)]}[case]
    proc = subprocess.run([_sys.executable, "-m", "coxcover", *argv], capture_output=True,
                          env=BUFFERED_ENV, timeout=10, preexec_fn=_limit_memory)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: ") and proc.stderr.count(b"\n") == 1
    assert len(proc.stderr) <= 200


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_dot_to_stdout_still_works(s4):
    # the DOT text is written and closed before the JSON line is flushed
    proc = subprocess.run(
        [_sys.executable, "-m", "coxcover", *COVER_S4, "--dot", "/dev/stdout", "--format", "json"],
        capture_output=True, text=True, env=BUFFERED_ENV, timeout=60)
    inst = build_fibered_graph(s4, *(from_one_based(k) for k in ((1,), (3,), (1, 3))))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == covering_dot(inst) + json.dumps(inst.to_json()) + "\n"


def test_cap_exit_code(capsys):
    assert run_cli(capsys, "--cap", "100", "table", "--group", "S9")[0] == 3


def test_rank_over_the_cap_exits_3_before_any_root_work(tmp_path, capsys, monkeypatch):
    # |W| >= 2^rank: twenty commuting generators have 2^20 > 200000 elements
    rank = 20
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps(
        {"m": [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]}))

    def refuse(spec):
        raise AssertionError("the rank alone must refuse this group")

    monkeypatch.setattr(coxeter, "_simple_roots", refuse)
    start = time.perf_counter()
    code = main(["verify", "--group", f"matrix:{path}"])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == \
        "error: |matrix(rank=20)| >= 2^20 exceeds element_cap 200000\n"


@pytest.mark.parametrize("group, err", [
    ("I" + "9" * 20,
     "error: |I99999999999999999999| >= 199999999999999999998 exceeds element_cap 200000\n"),
    ("S" + "9" * 20, "error: |S99999999999999999999| >= 362880 exceeds element_cap 200000\n"),
    ("I" + "9" * 4000, "error: |I99999999...(4000 digits)| >= 19999999...(4001 digits) "
                       "exceeds element_cap 200000\n"),
    ("S" + "9" * 4000, "error: |S99999999...(4000 digits)| >= 362880 exceeds element_cap 200000\n"),
    # 2m has 4301 digits, more than str() converts
    ("I" + "9" * 4300, "error: |I99999999...(4300 digits)| >= 19999999...(4301 digits) "
                       "exceeds element_cap 200000\n"),
], ids=["I-20-digits", "S-20-digits", "I-4000-digits", "S-4000-digits", "I-4300-digits"])
def test_cap_error_echoes_a_huge_parameter_in_one_short_line(capsys, group, err):
    code = main(["table", "--group", group])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (3, "", err)
    assert len(err.encode()) <= 200


@pytest.mark.parametrize("value, err", [
    ("9", "error: generator index 9 outside 1..3\n"),
    ("x", "error: bad generator index 'x'\n"),
    ("9" * 24, "error: generator index %s outside 1..3\n" % ("9" * 24)),
    ("9" * 4000, "error: generator index 99999999...(4000 digits) outside 1..3\n"),
    ("-" + "9" * 4000, "error: generator index -99999999...(4000 digits) outside 1..3\n"),
    # more digits than int() converts by default (4300)
    ("9" * 5000, "error: bad generator index '99999999'...(5000 characters)\n"),
    ("w" * 5000, "error: bad generator index 'wwwwwwww'...(5000 characters)\n"),
    ("\u00e9" * 30, "error: bad generator index '%s'...(30 characters)\n" % ("\u00e9" * 8)),
], ids=["index", "word", "24-digits", "4000-digits", "minus-4000-digits", "5000-digits",
        "5000-letters", "30-accents"])
@pytest.mark.parametrize("flag", ["--left", "--right", "--target"])
def test_subset_error_echoes_a_huge_argument_in_one_short_line(capsys, flag, value, err):
    where = {"--left": "1", "--right": "1", "--target": "1", flag: value}
    argv = ["cover", "--group", "S4"] + [x for item in where.items() for x in item]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)
    assert len(err.encode()) <= 200


LONG = "no-such-dir/" + "a" * 3000
SHORTENED = "'no-such-dir/aaaa'...(3012 characters)"


@pytest.mark.parametrize("argv, err", [
    (["table", "--group", f"matrix:{LONG}"],
     f"error: cannot read matrix file {SHORTENED}: No such file or directory\n"),
    (["table", "--group", "matrix:no-such-dir/a\nb"],
     "error: cannot read matrix file 'no-such-dir/a\\nb': No such file or directory\n"),
    (["table", "--group", "X" * 3000],
     "error: cannot parse group 'XXXXXXXXXXXXXXXX'...(3000 characters) "
     "(expected S<n>, I<m> or matrix:<path>)\n"),
    (["table", "--group", "S4\nS5"],
     "error: cannot parse group 'S4\\nS5' (expected S<n>, I<m> or matrix:<path>)\n"),
    ([*COVER_S4, "--dot", LONG],
     f"error: cannot write DOT file {SHORTENED}: No such file or directory\n"),
    ([*COVER_S4, "--dot", "no-such-dir/a\nb"],
     "error: cannot write DOT file 'no-such-dir/a\\nb': No such file or directory\n"),
    # past PATH_MAX in bytes; each echoed character takes 4 of them
    (["table", "--group", "matrix:no-such-dir/" + "\U0001F600" * 3000],
     "error: cannot read matrix file 'no-such-dir/%s'...(3012 characters): "
     "File name too long\n" % ("\U0001F600" * 4)),
], ids=["3000-character-matrix-path", "newline-matrix-path", "3000-character-group",
        "newline-group", "3000-character-dot-path", "newline-dot-path",
        "3000-emoji-matrix-path"])
def test_path_and_group_errors_echo_in_one_short_line(capsys, argv, err):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)
    assert len(err.encode()) <= 200


def test_cap_error_shortens_a_huge_matrix_entry_and_cap(tmp_path, capsys):
    huge = "9" * 4300
    path = tmp_path / "huge.json"
    path.write_text('{"m": [[1, %s], [%s, 1]]}' % (huge, huge))
    assert main(["table", "--group", f"matrix:{path}"]) == 3
    assert capsys.readouterr().err == \
        "error: |matrix(rank=2)| >= 19999999...(4301 digits) exceeds element_cap 200000\n"
    affine = tmp_path / "A2_affine.json"
    affine.write_text(json.dumps({"m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]]}))
    assert main(["--cap", huge, "table", "--group", f"matrix:{affine}"]) == 3
    assert capsys.readouterr().err.endswith(
        "too large for element_cap 99999999...(4300 digits)\n")


@pytest.mark.parametrize("rank, shown", [
    ("9" * 4000, "99999999...(4000 digits)"),
    ('"%s"' % ("x" * 4000), "'xxxxxxxxxxxxxxxx'...(4000 characters)"),
    ("[%s]" % ", ".join(["3"] * 2000), "[...]"),
], ids=["huge-int", "long-string", "long-array"])
def test_declared_rank_is_echoed_in_one_short_line(tmp_path, capsys, rank, shown):
    path = tmp_path / "rank.json"
    path.write_text('{"rank": %s, "m": [[1, 3], [3, 1]]}' % rank)
    assert main(["table", "--group", f"matrix:{path}"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == \
        ("", f"error: declared rank {shown} does not match the matrix\n")
    assert len(captured.err.encode()) <= 200


def test_cap_flag_overrides_matrix_file(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 0], [0, 1]]}))
    code, _ = run_cli(capsys, "--cap", "30", "table", "--group", f"matrix:{path}")
    assert code == 3


MALFORMED_MATRIX_FILES = [
    ("top-level list", [[1, 3], [3, 1]]),
    ("string matrix", {"m": "abc"}),
    ("number matrix", {"m": 5}),
    ("flat list", {"m": [1, 2]}),
    ("string cap", {"m": [[1, 3], [3, 1]], "element_cap": "100"}),
    ("zero cap", {"m": [[1, 3], [3, 1]], "element_cap": 0}),
    ("bool cap", {"m": [[1, 3], [3, 1]], "element_cap": True}),
    ("float entry", {"m": [[1, 2.5], [2.5, 1]]}),
    ("bool entries", {"m": [[True, 3], [3, True]]}),
    ("null entries", {"m": [[1, None], [None, 1]]}),
    ("string entries", {"m": [["1", "3"], ["3", "1"]]}),
    ("rank mismatch", {"rank": 3, "m": [[1, 3], [3, 1]]}),
    ("bool rank", {"rank": True, "m": [[1]]}),
    ("no matrix", {"rank": 2}),
    ("empty matrix", {"m": []}),
    ("negative entry", {"m": [[1, -3], [-3, 1]]}),
]


# files `json.load` cannot decode at all, written as raw bytes
UNDECODABLE_MATRIX_FILES = [
    ("not utf-8", b"\xff\xfe"),
    ("huge integer", b'{"m": [[1, ' + b"9" * 5000 + b"]]}"),
    ("deep nesting", b'{"m": ' + b"[" * 100_000),
    # valid JSON, but no Coxeter matrix needs more than a few kilobytes
    ("over 1 MB", b" " * (1 << 20) + b'{"m": [[1]]}'),
]


@pytest.mark.parametrize(
    "label, content",
    [(label, json.dumps(content).encode()) for label, content in MALFORMED_MATRIX_FILES]
    + UNDECODABLE_MATRIX_FILES,
    ids=[label for label, _ in MALFORMED_MATRIX_FILES + UNDECODABLE_MATRIX_FILES])
def test_malformed_matrix_file_is_a_usage_error(tmp_path, capsys, label, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code = main(["verify", "--group", f"matrix:{path}"])
    captured = capsys.readouterr()
    assert code == 2, label
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err.encode()) <= 200


@pytest.mark.parametrize("group", ["I1000000", "S10000000", "I30000", "I100000"])
def test_huge_named_groups_refused_fast(capsys, group):
    start = time.perf_counter()
    code = main(["cover", "--group", group, "--left", "1", "--right", "1", "--target", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_dihedral_words_bounded_by_sixteen_letters_per_capped_element(capsys):
    # I_m stores its 2m elements as words of m^2 letters in all: I40 holds
    # 1600 = 16 * 100 and is built, I41 holds 1681 and is refused
    assert run_cli(capsys, "--cap", "100", "cover", "--group", "I40",
                   "--left", "1", "--right", "2", "--target", "1,2")[0] == 0
    assert main(["--cap", "100", "cover", "--group", "I41",
                 "--left", "1", "--right", "2", "--target", "1,2"]) == 3
    assert capsys.readouterr().err == ("error: the words of I41 hold >= 1681 letters, "
                                       "more than 16 per element of element_cap 100\n")


# sha256 of `table --format json` stdout, so that a change to the table path
# that alters its output fails here; H3's equals the benchmark's digest
TABLE_DIGESTS = {
    "S5": "5b5e1a90bcf22e4f39643323f940bd6103a3ad56786b8a0230fc95c0b5a97773",
    "I6": "087c29816900ca16cd71bf4e8332b70021abd7ba9e5cafdca40ff64af6bf89dc",
    "B3": "2ea49a85f5552c04889d655360a6ce977af0fab37c3a2bf32ef8fdcc62f53a11",
    "H3": "9f6d8227a0ef7bb056368e184a89e9c877932c7eb4aeff155cbad0b1366aeb5d",
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_table_json_bytes_pinned(tmp_path, capsys, name):
    code, out = run_cli(capsys, "table", "--group", group_arg(name, tmp_path),
                        "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[name]


# sha256 of `table` text stdout
TABLE_TEXT_DIGESTS = {
    "S5": "629097cfb2d98a5e62f66160539544e208497a569ba74b3272d8146a42cb7084",
    "I6": "22d0f8b8da3d898668b47c92b44e5da1c39fc38d49914cbc3541ec18b03db2bc",
    "B3": "795982461e737a93024bfbc3efadfe16df224e0aac82a360e7ea986b454e1150",
    "H3": "f53f751f1215c1f40a2b04681c61c5e91ba3202092358da5874154dc31c0cf2c",
}


@pytest.mark.parametrize("name", sorted(TABLE_TEXT_DIGESTS))
def test_table_text_bytes_pinned(tmp_path, capsys, name):
    code, out = run_cli(capsys, "table", "--group", group_arg(name, tmp_path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_TEXT_DIGESTS[name]


# sha256 of `cover --left 1 --right 2 --target 1,2 --format json` stdout:
# the benchmark's `enumerate` digests
COVER_DIGESTS = {
    "D4": "b5c65c5a9b3d0a9bdec5f9852229ec63eb70220e87dda948d639bba2fac073ee",
    "B4": "b5c65c5a9b3d0a9bdec5f9852229ec63eb70220e87dda948d639bba2fac073ee",
    "I100": "64a688764f59f09bc3dc01acd2e2f0a5f51cb4dfb10dada0231817869ab5d83a",
}


@pytest.mark.parametrize("name", sorted(COVER_DIGESTS))
def test_cover_json_bytes_pinned(tmp_path, capsys, name):
    code, out = run_cli(capsys, "cover", "--group", group_arg(name, tmp_path), "--left", "1",
                        "--right", "2", "--target", "1,2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COVER_DIGESTS[name]


GROUP_FILES = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "groups")
RANK3_GROUPS = {"S4": "S4", "H3": f"matrix:{os.path.join(GROUP_FILES, 'H3.json')}",
                "B3": f"matrix:{os.path.join(GROUP_FILES, 'B3.json')}"}


def every_triple_stdout(capsys, command: str, group: str) -> list[str]:
    """stdout of `command` on every (I, J, K) of a rank-3 group, the masks
    in `itertools.product` order, each subset a 1-based comma list."""
    def subset(mask: int) -> str:
        return ",".join(str(i + 1) for i in range(3) if mask >> i & 1)

    outs = []
    for left, right, target in itertools.product(range(8), repeat=3):
        argv = [command, "--group", group, "--left", subset(left),
                "--right", subset(right), "--target", subset(target)]
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    return outs


# sha256 of the stdout of every triple of a rank-3 group, concatenated
TRIPLE_DIGESTS = {
    ("monodromy", "S4"): "9fc917b8723491c56a0a971e991c00a3d9f6f0bc6abc631b289968a66a6ea4d8",
    ("monodromy", "H3"): "4b51ee02aa2c1574c1111c001d47006900d70113e459dc123e6029f72adaf621",
    ("monodromy", "B3"): "6a401971052ef9970731186a657beba48d18718ba41f67407781ae2dfbe490c4",
    ("cover", "S4"): "d841cd94008c04a6b91029e8607389203db7262725f26184833443795c2ede80",
    ("cover", "H3"): "0bad439a06b3c6439be422646562ceba3da6daa738ea965ea916538bd983ad04",
    ("cover", "B3"): "c9d2e12be9817700ffbe2189db1a1a4101d2ac7faaafd1bbe1e0bbe67a4846dc",
}


@pytest.mark.parametrize("command, name", sorted(TRIPLE_DIGESTS))
def test_every_triple_bytes_pinned(capsys, command, name):
    outs = every_triple_stdout(capsys, command, RANK3_GROUPS[name])
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == TRIPLE_DIGESTS[command, name]
    if (command, name) == ("monodromy", "H3"):
        # the pin covers both optional parts of the document
        assert sum('"polygon_loops"' in out for out in outs) == 128
        assert sum('"empty": true' in out for out in outs) == 220


@pytest.mark.parametrize("name", ["S4", "H3"])
def test_monodromy_prints_the_library_document(capsys, request, name):
    sys_ = request.getfixturevalue(name.lower())
    outs = every_triple_stdout(capsys, "monodromy", RANK3_GROUPS[name])
    for out, triple in zip(outs, itertools.product(range(8), repeat=3)):
        assert out == json.dumps(monodromy_report(build_fibered_graph(sys_, *triple))) + "\n"


def test_deterministic_output(capsys):
    args = ("table", "--group", "S4", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


@pytest.mark.parametrize("argv", [[], ["table"]])
def test_missing_arguments(capsys, argv):
    assert main(argv) == 2


def test_module_entry_point():
    proc = subprocess.run(
        [_sys.executable, "-m", "coxcover", "table", "--group", "S3",
         "--left", "1", "--right", "1", "--format", "json"],
        capture_output=True, text=True, env=MODULE_ENV)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert {tuple(r["K"]): r["a"] for r in data["rows"]} == {
        (): 1, (2,): 1, (1, 2): 1}


def test_cli_import_loads_no_dataclasses():
    # every CLI call pays for its imports; -S keeps site packages out, so
    # none of them can load these modules first and hide a regression
    probe = "import sys, coxcover.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([_sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=MODULE_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    proc = subprocess.run(
        [_sys.executable, "-S", "-m", "coxcover", "cover", "--group", "S4", "--left", "1",
         "--right", "3", "--target", "1,3", "--format", "json"],
        capture_output=True, text=True, env=MODULE_ENV)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"I": [1], "J": [3], "K": [1, 3], "a": 1,
                                       "lambda": [1], "components": 1, "vertices": 5}


def test_cli_import_loads_exactly_these_modules():
    # the benchmark tracer rebinds its layers only in the coxcover modules
    # this import loads, so a module that turns lazy or drops out of it
    # must be a deliberate change; `words` is loaded by the tracer itself
    probe = ("import sys, coxcover.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'coxcover'))")
    proc = subprocess.run([_sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, env=MODULE_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == repr(["coxcover"] + [f"coxcover.{name}" for name in (
        "algebra", "cli", "covering", "coxeter", "dot", "errors", "fanout", "gensets",
        "monodromy", "recoil", "verify")]) + "\n"


def test_verify_leaves_no_process_behind():
    # the process ends through os._exit, so its sweep must have reaped
    # every worker it forked; they would share its new process group
    with subprocess.Popen(
            [_sys.executable, "-m", "coxcover", "verify", "--group", "S4"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=MODULE_ENV,
            start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert (proc.returncode, err) == (0, b"")
    assert out.endswith(b"all checks passed (1579 total)\n")
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    # the workers need no process-pool module, whose import every call would pay
    probe = ("import sys, coxcover.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('pickle', 'multiprocessing', 'concurrent')))")
    probe_run = subprocess.run([_sys.executable, "-S", "-c", probe],
                               capture_output=True, text=True, env=MODULE_ENV)
    assert (probe_run.returncode, probe_run.stdout) == (0, "[]\n"), probe_run.stderr


def test_reader_closing_stdout_early_is_quiet():
    # the S5 text table is 84 KB, more than a 64 KiB pipe holds, so the
    # program is still writing when the reader goes away, as with `| head -1`
    # leaving the with block closes both pipes and reaps the process
    with subprocess.Popen(
            [_sys.executable, "-m", "coxcover", "table", "--group", "S5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            env=MODULE_ENV) as proc:
        try:
            assert proc.stdout.readline() == b"Y_{} * Y_{} = Y_{}\n"
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 141
        finally:
            proc.kill()
    assert "Traceback" not in err and "Exception" not in err


def test_reader_gone_before_the_final_flush_is_quiet():
    # the whole output is still in the buffer when main returns; the pipe's
    # read end is closed before the process starts, so that flush fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [_sys.executable, "-m", "coxcover", *COVER_S4, "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=BUFFERED_ENV, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_at_the_final_flush_is_reported():
    # any other write error at the last flush is left to the interpreter's
    # exit, which reports it and exits 120
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([_sys.executable, "-m", "coxcover", *COVER_S4],
                              stdout=full, stderr=subprocess.PIPE, env=BUFFERED_ENV,
                              timeout=60)
    assert proc.returncode == 120
    assert b"No space left on device" in proc.stderr


def test_piped_output_survives_the_hard_exit(capsys):
    # 84 KB of text, flushed in full before the process skips finalization
    assert main(["table", "--group", "S5"]) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 80_000
    proc = subprocess.run([_sys.executable, "-m", "coxcover", "table", "--group", "S5"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=BUFFERED_ENV, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == expected


def test_dot_file_survives_the_hard_exit(tmp_path, s4):
    dot_file = tmp_path / "z.dot"
    proc = subprocess.run(
        [_sys.executable, "-m", "coxcover", *COVER_S4, "--dot", str(dot_file)],
        capture_output=True, env=BUFFERED_ENV, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    inst = build_fibered_graph(s4, *(from_one_based(k) for k in ((1,), (3,), (1, 3))))
    assert dot_file.read_text(encoding="utf-8") == covering_dot(inst)


# exit 1 needs a failing check, so its child patches one and then runs
# the package's __main__ as `python -m coxcover` does
_FAILING_COVER = """
import runpy, sys
from coxcover import cli
cli.verify_covering = lambda inst: ["witness"]
sys.argv[0] = "coxcover"
runpy.run_module("coxcover", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv, code, err", [
    (["-c", _FAILING_COVER, *COVER_S4, "--format", "json"], 1,
     "invariant failure: covering axioms failed: witness"),
    (["-m", "coxcover", "table", "--group", "X4"], 2, "error: cannot parse group"),
    (["-m", "coxcover", "cover", "--group", "matrix:{a2}", "--left", "1", "--right", "2",
      "--target", "1"], 3, "error: the bilinear form of matrix(rank=3) is not positive"),
], ids=["invariant", "usage", "cap"])
def test_exit_codes_survive_the_hard_exit(tmp_path, argv, code, err):
    a2 = tmp_path / "A2_affine.json"
    a2.write_text(json.dumps({"rank": 3, "m": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
                              "element_cap": 1000}))
    proc = subprocess.run([_sys.executable, *(a.format(a2=a2) for a in argv)],
                          capture_output=True, text=True, env=BUFFERED_ENV, timeout=60)
    assert proc.returncode == code
    assert proc.stderr.startswith(err) and proc.stderr.count("\n") == 1


def test_profiler_output_is_written(tmp_path):
    # cProfile writes its file at exit, so under a profiler `run` returns
    stats_file = tmp_path / "cover.prof"
    proc = subprocess.run(
        [_sys.executable, "-m", "cProfile", "-o", str(stats_file), "-m", "coxcover", *COVER_S4],
        capture_output=True, text=True, env=BUFFERED_ENV, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("covering axioms: ok\n")
    stats = pstats.Stats(str(stats_file))
    assert any(name == "run" and path.endswith("cli.py") for path, _, name in stats.stats)


def test_run_returns_under_a_tracer(capsys, monkeypatch):
    def no_exit(code):
        raise AssertionError(f"os._exit({code}) under a tracer")

    monkeypatch.setattr(os, "_exit", no_exit)
    previous = _sys.gettrace()
    _sys.settrace(lambda frame, event, arg: None)
    try:
        code = cli.run(COVER_S4)
    finally:
        _sys.settrace(previous)
    assert code == 0
    assert capsys.readouterr().out.endswith("covering axioms: ok\n")
