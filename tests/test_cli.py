"""CLI dispatch, exit codes, formats, determinism, cache coherence."""

import hashlib
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eigencones
from eigencones.cache import JsonlStore
from eigencones.cli import main
from eigencones.schubert import FlagVariety, flag_variety


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roots_json(capsys):
    code, out, _ = run(capsys, "roots", "--group", "C3")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["group"] == "C3"
    assert len(doc["root_system"]["positive_roots"]) == 9


def test_roots_table(capsys):
    code, out, _ = run(capsys, "roots", "--group", "G2", "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "G2: 6 positive roots"


def test_group_parsing_errors(capsys):
    code, _, err = run(capsys, "roots", "--group", "C")
    assert code == 2 and "rank" in err
    code, _, err = run(capsys, "roots", "--group", "C3", "--rank", "2")
    assert code == 2
    code, _, err = run(capsys, "roots", "--group", "E6")
    assert code == 2


@pytest.mark.parametrize("group", ["G2", "F4"])
def test_exceptional_group_conflicting_rank_exits_2(group, capsys):
    code, out, err = run(capsys, "cosets", "--group", group, "--rank", "3",
                         "--parabolic", "1")
    assert (code, out) == (2, "")
    assert err == f"usage error: group {group} conflicts with --rank 3\n"
    assert run(capsys, "roots", "--group", group, "--rank", group[1])[0] == 0


@pytest.mark.parametrize("argv,needle", [
    (("--case", "c-in-c", "--r", "3"), "parameter s"),
    (("--case", "b-in-b", "--s", "1"), "parameter r"),
    (("--case", "d-chain"), "parameter r"),
])
def test_missing_embedding_parameter_exits_2(argv, needle, capsys):
    code, out, err = run(capsys, "verify", "thm-main", *argv)
    assert (code, out) == (2, "")
    assert needle in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("case", ["identity", "C-IN-C"])
def test_unknown_embedding_case_exits_2(case, capsys):
    # case names are exact; there is no identity embedding
    code, out, err = run(capsys, "verify", "thm-main", "--case", case,
                         "--r", "3", "--s", "2")
    assert (code, out) == (2, "")
    assert err == f"usage error: unknown embedding case {case!r}\n"


def test_cosets_csv(capsys):
    code, out, _ = run(capsys, "cosets", "--group", "G2", "--parabolic", "1",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,length,dual"
    assert lines[1] == "e,0,12121"
    assert len(lines) == 7


def test_multiply(capsys):
    code, out, _ = run(capsys, "multiply", "--group", "C2", "--parabolic", "1",
                       "--words", "1,21")
    assert code == 0
    doc = json.loads(out)
    assert doc["product"] == {"e": 1}  # dual pair lands on [pt]


def test_multiply_cache_roundtrip(tmp_path, capsys):
    args = ("multiply", "--group", "C2", "--parabolic", "2",
            "--words", "2,212", "--cache-dir", str(tmp_path))
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    files = list(tmp_path.glob("*.jsonl"))
    assert len(files) == 1
    # second run reads the cache and must produce identical bytes
    code2, out2, _ = run(capsys, *args)
    assert (code2, out2) == (code1, out1)
    # deleting the cache never changes the result
    files[0].unlink()
    code3, out3, _ = run(capsys, *args)
    assert (code3, out3) == (code1, out1)


@pytest.mark.parametrize("damage", ["torn", "dropped", "not-utf8"])
def test_multiply_cache_survives_a_partial_file(damage, tmp_path, capsys):
    args = ("multiply", "--group", "G2", "--parabolic", "1",
            "--words", "21,121", "--cache-dir", str(tmp_path))
    cold = run(capsys, *args)
    assert cold[0] == 0
    path = next(tmp_path.glob("*.jsonl"))
    lines = path.read_text().splitlines(keepends=True)
    if damage == "torn":   # cut mid-record, as an interrupted write leaves it
        path.write_text("".join(lines[:len(lines) // 2]) + lines[-1][:10])
    elif damage == "dropped":  # whole records lost, the requested pair among them
        path.write_text("".join(lines[:2]))
    else:
        path.write_bytes(b"\xff\xfe\n")
    assert run(capsys, *args) == cold
    table = JsonlStore(tmp_path).load_structure_constants("G2", 2, 1)
    assert ("21", "121") in table
    assert list(tmp_path.iterdir()) == [path]


def test_cache_rejects_stale_version(tmp_path):
    store = JsonlStore(tmp_path)
    store.save_structure_constants("C", 2, 1, {("e", "e"): {"e": 1}})
    assert store.load_structure_constants("C", 2, 1) == {("e", "e"): {"e": 1}}
    path = next(tmp_path.glob("*.jsonl"))
    rec = json.loads(path.read_text())
    rec["cache_version"] = 0
    path.write_text(json.dumps(rec) + "\n")
    assert store.load_structure_constants("C", 2, 1) is None


@pytest.mark.parametrize("cache_dir", ["file", "file/sub"])
def test_unusable_cache_dir_exits_2_with_one_line(cache_dir, tmp_path):
    # a fresh process, so that a traceback would reach stderr
    (tmp_path / "file").write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "eigencones.cli", "multiply", "--group", "C3",
         "--parabolic", "2", "--words", "2,12", "--cache-dir", cache_dir],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(eigencones.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("usage error: ") and repr(cache_dir) in line


def test_inequalities_csv(capsys):
    code, out, _ = run(capsys, "inequalities", "--group", "A1", "--n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parabolic,words,normals,scale,multiplicity"
    assert len(lines) == 4


def refused_before_any_integral(monkeypatch, capsys, *argv):
    # C3 has 21, 123 and 43 graded triples on P1..P3: a cap of 3 * 123 - 1
    # lets the P1 stream through, so it must fail before that stream starts
    def fail(*args):
        raise AssertionError("an integral ran before the work bound was checked")

    monkeypatch.setattr(FlagVariety, "integral_billey", fail)
    monkeypatch.setattr("eigencones.schubert.WORK_CAP", 3 * 123 - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("resource cap: C3/P2 has 123 graded 3-tuples, "
                   "and tuples x n is over the cap 368\n")


def test_inequalities_tuple_cap(monkeypatch, capsys):
    refused_before_any_integral(monkeypatch, capsys, "inequalities", "--group", "C3")


def test_verify_thm_main_tuple_cap(monkeypatch, capsys):
    # the sub group of c-in-c at r = 4, s = 3 is C3
    refused_before_any_integral(monkeypatch, capsys, "verify", "thm-main",
                                "--case", "c-in-c", "--r", "4", "--s", "3")


WORK_BOUND_LINES = [
    ("inequalities", "--group", "C9", "--n", "3"),
    ("inequalities", "--group", "C7", "--n", "3"),
    ("inequalities", "--group", "F4", "--n", "6"),
    ("inequalities", "--group", "A1", "--n", "2000"),
    ("inequalities", "--group", "G2", "--n", "1000"),
    ("membership", "--group", "C7", "--n", "3", "--weights", ";".join(["0,0,0,0,0,0,0"] * 3)),
    ("verify", "thm-main", "--case", "d-chain", "--r", "9", "--n", "3"),
]


@pytest.mark.parametrize("argv", WORK_BOUND_LINES, ids=" ".join)
def test_oversized_runs_are_refused_before_they_start(argv):
    # each ran for minutes, or ended in a RecursionError, before the work bound
    proc = subprocess.run(
        [sys.executable, "-m", "eigencones.cli", *argv],
        capture_output=True, timeout=15,
        env=dict(os.environ, PYTHONPATH=str(Path(eigencones.__file__).parents[1])),
    )
    assert (proc.returncode, proc.stdout) == (3, b"")
    err = proc.stderr.decode()
    assert err.startswith("resource cap: ") and len(err.splitlines()) == 1


# recorded before the tuple walk became iterative; guards the order of the
# 41,446 graded F4 triples, which fixes the dedup order and the report bytes
F4_N3_SHA256 = "f2f62ba44c1731b2d379ec01fa4224aeb93acfad3489451f45fc3f34730cc9f3"
F4_N3_BYTES = 633_020


def test_inequalities_f4_report_is_pinned(capsys):
    code, out, _ = run(capsys, "inequalities", "--group", "F4", "--n", "3")
    assert (code, len(out.encode())) == (0, F4_N3_BYTES)
    assert hashlib.sha256(out.encode()).hexdigest() == F4_N3_SHA256


def test_membership_exit_codes(capsys):
    code, out, _ = run(capsys, "membership", "--group", "A1", "--n", "3",
                       "--weights", "1,1,2")
    assert code == 0
    assert json.loads(out)["verdict"] == "in-cone"
    code, out, _ = run(capsys, "membership", "--group", "A1", "--n", "3",
                       "--weights", "1,1,3")
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "not-in-cone"
    assert doc["violated"]


def test_membership_semicolon_weights(capsys):
    code, out, _ = run(capsys, "membership", "--group", "C2", "--n", "3",
                       "--weights", "1,0;0,1;1,1")
    assert code in (0, 1)
    assert json.loads(out)["config"]["weights"] == "1,0;0,1;1,1"


@pytest.mark.parametrize("argv", [
    ("membership", "--group", "C2", "--weights", "1/0,0;1,0;0,1"),
    ("membership", "--group", "C2", "--weights", "a,0;1,0;0,1"),
    ("tables", "index", "--group", "C4"),
    ("multiply", "--group", "C3", "--parabolic", "2", "--words", "1,2",
     "--cache-dir", "{tmp}"),
    ("multiply", "--group", "C3", "--parabolic", "2", "--words", "1x,2"),
])
def test_bad_arguments_exit_2_with_one_line(argv, tmp_path, capsys):
    code, _, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cosets_rank_checked_before_the_bfs(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("coset BFS started")

    monkeypatch.setattr("eigencones.weyl.minimal_coset_reps", fail)
    code, _, err = run(capsys, "cosets", "--group", "A12", "--parabolic", "1")
    assert code == 2 and "rank <= 9" in err


@pytest.mark.parametrize("argv,code,needle", [
    (("inequalities", "--group", "A12", "--n", "3"), 2, "rank <= 9"),
    (("inequalities", "--group", "A40", "--n", "3"), 2, "rank <= 9"),
    (("membership", "--group", "C", "--rank", "30", "--weights", "0"), 2,
     "rank <= 9"),
    (("multiply", "--group", "B20", "--parabolic", "1", "--words", "1,1"), 2,
     "rank <= 9"),
    (("cosets", "--group", "D10", "--parabolic", "1"), 2, "rank <= 9"),
    (("tables", "index", "--group", "C10", "--parabolic", "1"), 2,
     "rank <= 9"),
    (("verify", "thm-main", "--case", "c-in-c", "--r", "12", "--s", "3"), 2,
     "rank <= 9"),
    (("roots", "--group", "A40"), 3, "rank <= 10"),
    (("roots", "--group", "C", "--rank", "11"), 3, "rank <= 10"),
])
def test_rank_checked_before_the_root_system_is_built(argv, code, needle,
                                                      monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("root system built")

    monkeypatch.setattr("eigencones.cli.build_root_system", fail)
    monkeypatch.setattr("eigencones.cones.build_root_system", fail)
    monkeypatch.setattr("eigencones.rootsys.build_root_system", fail)
    got, _, err = run(capsys, *argv)
    assert got == code and needle in err
    assert len(err.strip().splitlines()) == 1


def test_roots_at_rank_10(capsys):
    code, out, _ = run(capsys, "roots", "--group", "A10")
    assert code == 0
    assert len(json.loads(out)["root_system"]["positive_roots"]) == 55


def test_membership_bad_weights(capsys):
    code, _, err = run(capsys, "membership", "--group", "C2", "--n", "3",
                       "--weights", "1,0,0,1")
    assert code == 2


def test_verify_thm_main(capsys):
    code, out, _ = run(capsys, "verify", "thm-main", "--case", "sl2-in-g2",
                       "--n", "3", "--format", "table")
    assert code == 0
    assert out.splitlines()[0] == "thm-main: ok"


def test_verify_needs_case(capsys):
    code, _, err = run(capsys, "verify", "thm-main")
    assert code == 2 and "--case" in err


def test_verify_thm_proj(capsys):
    code, out, _ = run(capsys, "verify", "thm-proj", "--r", "2", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["ok"]
    assert doc["report"]["violations"] == []


# the benchmark pins the n = 3 reports; its file is read, never written here
BENCH_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "bench" / "expected.json").read_text())
# recorded from the row-by-row grid kernel that the one-inequality-at-a-time
# scan replaced (about 25 s there; 15,773,648 grid members)
THM_PROJ_N4_SHA256 = "0f49ae5ef267e0cd3abba7f90ea3d2b12893272f6d19d3a49d58c7ea20af273e"


@pytest.mark.parametrize("argv,sha256", [
    (("--r", "3", "--s", "2"), BENCH_DIGESTS["proj-C-r3-s2"]["sha256"]),
    (("--r", "3", "--s", "1", "--group", "B"),
     BENCH_DIGESTS["proj-B-r3-s1"]["sha256"]),
    (("--r", "3", "--s", "2", "--n", "4"), THM_PROJ_N4_SHA256),
], ids=["proj-C-r3-s2", "proj-B-r3-s1", "C-r3-s2-n4"])
def test_verify_thm_proj_reports_are_pinned(argv, sha256, capsys):
    code, out, _ = run(capsys, "verify", "thm-proj", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("argv,code,needle", [
    (("--group", "G2", "--r", "2", "--s", "1"), 2, "B and C"),
    (("--group", "D", "--r", "3", "--s", "2"), 2, "B and C"),
    (("--group", "A", "--r", "3", "--s", "2"), 2, "B and C"),
    (("--r", "3", "--s", "2", "--n", "5"), 3, "cap"),
    (("--r", "5", "--s", "2"), 3, "cap"),
    # the cap compares the exponent r * n: 4 ** (r * n) is never built, so a
    # large n neither allocates it nor prints its digits
    (("--r", "3", "--s", "2", "--n", "2300"), 3, "cap exponent 12"),
    (("--r", "3", "--s", "2", "--n", "2400"), 3, "cap exponent 12"),
])
def test_verify_thm_proj_checks_inputs_first(argv, code, needle, monkeypatch,
                                             capsys):
    def fail(*args):
        raise AssertionError("projection work started")

    monkeypatch.setattr("eigencones.cones.build_root_system", fail)
    got, _, err = run(capsys, "verify", "thm-proj", *argv)
    assert got == code and needle in err
    assert len(err.strip().splitlines()) == 1 and len(err) < 200


@pytest.mark.parametrize("r", ["0", "1", "-3", "10", "100000000"])
def test_tables_orbits_r_checked_before_the_rows(r, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("orbit rows started")

    monkeypatch.setattr("eigencones.isogr.orbit_table_rows", fail)
    code, out, err = run(capsys, "tables", "orbits", "--r", r)
    assert code == 2 and out == "" and "2 <= r <= 9" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,unread", [
    (("--case", "sl2-in-g2", "--r", "5", "--s", "9"), "r"),
    (("--case", "sl2-in-g2", "--s", "9"), "s"),
    (("--case", "g2-in-f4", "--r", "4"), "r"),
    (("--case", "d-chain", "--r", "5", "--s", "2"), "s"),
])
def test_verify_thm_main_rejects_unread_parameters(argv, unread, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("embedding work started")

    monkeypatch.setattr("eigencones.rootsys.build_root_system", fail)
    monkeypatch.setattr("eigencones.cones.flag_variety", fail)
    monkeypatch.setattr("eigencones.cones.verify_dual_commutes", fail)
    code, out, err = run(capsys, "verify", "thm-main", *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"usage error: {argv[1]} does not read the parameter {unread}"


@pytest.mark.parametrize("argv,message", [
    (("cosets", "--group", "A3"), "the following arguments are required: --parabolic"),
    ((), "the following arguments are required: command"),
    (("tables", "sideways"), "argument which: invalid choice: 'sideways' "
                             "(choose from 'g2f4', 'index', 'orbits')"),
    (("inequalities", "--group", "C3", "--tuple-cap", "5"),
     "unrecognized arguments: --tuple-cap 5"),
])
def test_rejected_command_line_prints_one_line(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err == f"usage error: {message}\n"


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cosets", "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: eigencones cosets [-h]")


def test_verify_rejects_csv_before_any_work(monkeypatch, capsys):
    # verify has no CSV form, so the parser refuses it before the check runs
    calls = []
    monkeypatch.setattr("eigencones.cones.verify_projection",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm-proj", "--r", "4", "--s", "3", "--format", "csv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, calls) == (2, "", [])
    assert err.startswith("usage error: argument --format: invalid choice: 'csv'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("inequalities", "--group", "C3", "--n", "3"),
    ("verify", "thm-main", "--case", "g2-in-f4"),
    ("tables", "index", "--group", "C4", "--parabolic", "2"),
], ids=lambda argv: argv[0])
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # sets and dicts of hashed keys iterate by seed; reports must not
    def report(seed):
        proc = subprocess.run(
            [sys.executable, "-m", "eigencones.cli", *argv],
            capture_output=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=str(Path(eigencones.__file__).parents[1])),
        )
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        return proc.stdout

    assert report("0") == report("4242")


def test_tables_orbits(capsys):
    code, out, _ = run(capsys, "tables", "orbits", "--r", "3")
    assert code == 0
    assert "k=2: 3 6 4 7" in out


def test_tables_orbits_needs_r(capsys):
    code, _, err = run(capsys, "tables", "orbits")
    assert code == 2


def test_tables_index(capsys):
    code, out, _ = run(capsys, "tables", "index", "--group", "C2",
                       "--parabolic", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word,index_set,dim,codim"
    assert lines[1] == "e,1 2,0,3"


def test_tables_g2f4_structure(capsys):
    code, out, _ = run(capsys, "tables", "g2f4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["table1"]) == {"Q1", "Q2"}
    assert set(doc["table3"]) == {"P1", "P4"}
    assert len(doc["table2"]["Q1"]) == 6


def test_output_deterministic(capsys):
    a = run(capsys, "inequalities", "--group", "G2", "--n", "3")
    b = run(capsys, "inequalities", "--group", "G2", "--n", "3")
    assert a == b


@pytest.mark.parametrize("job,argv", [
    ("tables-g2f4", ("tables", "g2f4")),
    ("main-c-in-c-r3-s2",
     ("verify", "thm-main", "--case", "c-in-c", "--r", "3", "--s", "2")),
    ("main-g2-in-f4", ("verify", "thm-main", "--case", "g2-in-f4")),
])
def test_embedding_reports_match_the_benchmark_digests(job, argv, capsys):
    # the benchmark pins these reports byte for byte; read, never written here
    expected = Path(__file__).parents[1] / "bench" / "expected.json"
    want = json.loads(expected.read_text())[job]
    code, out, _ = run(capsys, *argv)
    assert code == want["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]


def test_failed_self_check_exits_1_with_one_line(monkeypatch, capsys):
    # a non-integral theta is an internal failure, not a usage error; the
    # varieties must be fresh, as cached ones hold their theta scalars
    flag_variety.cache_clear()
    monkeypatch.setattr(FlagVariety, "eval_xP", lambda self, weight: Fraction(1, 2))
    code, out, err = run(capsys, "inequalities", "--group", "A1", "--n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: theta")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


# a bounded command-line alphabet: groups, --r and --n stay at rank and
# arity 3 or below, so that each example runs in under a second
GROUPS = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2", "C", "B", "F",
          "E6", "A0", "")
VALUES = {
    "--group": GROUPS,
    "--rank": ("1", "2", "3", "0", "-1", "4"),
    "--parabolic": ("1", "2", "3", "0", "4"),
    "--n": ("1", "2", "3", "0", "-1"),
    "--r": ("1", "2", "3", "0", "-2"),
    "--s": ("1", "2", "3", "0", "-1"),
    "--tier": ("nonzero", "point", "levi"),
    "--words": ("1,2", "e,1", "12,21", "21,121", "2,212", "1", "x,1", ",", "0,1"),
    "--weights": ("0,0;0,0;0,0", "1,0;1,0;0,1", "1,1,2", "0,1,0;0,1,0;2,0,0",
                  "1/0,0;1,0;0,1", "a", "", ";;"),
    "--case": ("c-in-c", "b-in-b", "sl2-in-g2", "g2-in-f4", "d-chain",
               "identity", "C-IN-C", "bogus"),
    "--format": ("json", "csv", "table"),
}
GROUP_FLAGS = ("--group", "--rank", "--format")
SYSTEM_FLAGS = GROUP_FLAGS + ("--n", "--tier")
COMMANDS = {
    ("roots",): GROUP_FLAGS,
    ("cosets",): GROUP_FLAGS + ("--parabolic",),
    ("multiply",): GROUP_FLAGS + ("--parabolic", "--words"),
    ("inequalities",): SYSTEM_FLAGS,
    ("membership",): SYSTEM_FLAGS + ("--weights",),
    ("verify", "thm-main"): ("--case", "--r", "--s", "--n", "--format"),
    ("verify", "thm-proj"): ("--r", "--s", "--n", "--group", "--format"),
    ("tables", "g2f4"): ("--format",),
    ("tables", "index"): GROUP_FLAGS + ("--parabolic",),
    ("tables", "orbits"): ("--r", "--format"),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = draw(st.lists(st.sampled_from(COMMANDS[command]), unique=True))
    argv = list(command)
    for flag in flags:
        argv += [flag, draw(st.sampled_from(VALUES[flag]))]
    return argv


@given(command_lines())
@example(["verify", "thm-main", "--case", "c-in-c", "--r", "3"])
@example(["verify", "thm-main", "--case", "identity"])
@example(["cosets", "--group", "G2", "--rank", "3", "--parabolic", "1"])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_no_command_line_escapes_main(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejected the command line
            code = e.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
    assert len(err.getvalue().splitlines()) <= 1, argv
