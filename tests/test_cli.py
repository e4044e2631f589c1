from __future__ import annotations

import json
import os
import subprocess
import sys as _sys
import time

import pytest

import coxcover
from coxcover import cli, coxeter, verify
from coxcover.cli import main
from coxcover.covering import CoveringReport
from coxcover.errors import InvariantViolation

B3_JSON = {"rank": 3, "m": [[1, 4, 2], [4, 1, 3], [2, 3, 1]], "element_cap": 200000}


# `python -m coxcover` in a child process imports the package these tests
# import, also when only pytest's `pythonpath` setting put it on the path
MODULE_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(coxcover.__file__)),
                  os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def failed(instance):
        return CoveringReport("failed", True, True, False, [witness])

    monkeypatch.setattr(cli, "verify_covering", failed)
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
}


def test_verify_groups(capsys):
    for group, expected in VERIFY_OUTPUT.items():
        code, out = run_cli(capsys, "verify", "--group", group)
        assert code == 0
        assert out == expected


def test_verify_monodromy_violation_ends_the_run(capsys, monkeypatch):
    # monodromy runs inside the covering sweep, before the algebra check;
    # a raised violation still leaves only the header and one error line
    def broken(instance):
        raise InvariantViolation("injected monodromy failure")

    monkeypatch.setattr(verify, "monodromy_report", broken)
    code = main(["verify", "--group", "S3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "group S3: 6 elements, rank 2\n"
    assert captured.err == "invariant failure: injected monodromy failure\n"


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


@pytest.mark.parametrize("group", ["I1000000", "S10000000"])
def test_huge_named_groups_refused_fast(capsys, group):
    start = time.perf_counter()
    code = main(["cover", "--group", group, "--left", "1", "--right", "1", "--target", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


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


def test_reader_closing_stdout_early_is_quiet():
    # the S5 text table is 84 KB, more than a 64 KiB pipe holds, so the
    # program is still writing when the reader goes away, as with `| head -1`
    proc = subprocess.Popen(
        [_sys.executable, "-m", "coxcover", "table", "--group", "S5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=MODULE_ENV)
    try:
        assert proc.stdout.readline() == b"Y_{} * Y_{} = Y_{}\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
    assert "Traceback" not in err and "Exception" not in err
