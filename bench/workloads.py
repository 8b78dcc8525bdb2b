"""The benchmark's workloads: fixed job lists, run one job per interpreter.

A CLI job is an argv for ``python -m eigencones.cli``; its stdout digest and
exit code are pinned in ``expected.json``.  An API job runs a function of
``api_jobs.py``; the workload seed draws its inputs and it checks its own
invariants.  Every job of a pass runs in a fresh working directory whose
``cache`` entry points at one cache directory shared by the pass, so the
first ``multiply`` on a variety writes the table and later ones read it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple = ()          # CLI arguments; empty for an API job
    api: str | None = None    # name of a function in api_jobs.API_JOBS
    exit: int = 0             # expected exit code
    golden: str | None = None  # repo file the report's "system" must equal
    checks: int = 0           # inputs an API job must report as checked


def cli(name, *argv, exit=0, golden=None):
    return Job(name, tuple(argv), exit=exit, golden=golden)


def multiply(group, parabolic, words):
    return cli(
        f"multiply-{group}-P{parabolic}-{words.replace(',', 'x')}",
        "multiply", "--group", group, "--parabolic", str(parabolic),
        "--words", words, "--cache-dir", "cache",
    )


WORKLOADS = {
    # the paper's headline computation: localization tables and the n = 3
    # tuple stream (schubert), then normals and dedup (cones)
    "levi-systems": (
        cli("ineq-G2-n3", "inequalities", "--group", "G2", "--n", "3",
            golden="tests/golden/g2-n3-levi.json"),
        cli("ineq-C3-n3", "inequalities", "--group", "C3", "--n", "3"),
        cli("ineq-D4-n3-point", "inequalities", "--group", "D4", "--n", "3",
            "--tier", "point"),
        cli("ineq-C4-n3", "inequalities", "--group", "C4", "--n", "3"),
    ),
    # short interactive lookups: coset BFS, duals and canonical words (weyl),
    # and the structure-constant cache, cold then warm per variety
    "coset-lookups": (
        cli("cosets-A6-P2", "cosets", "--group", "A6", "--parabolic", "2"),
        cli("cosets-B5-P1", "cosets", "--group", "B5", "--parabolic", "1"),
        cli("cosets-F4-P1", "cosets", "--group", "F4", "--parabolic", "1"),
        cli("tables-g2f4", "tables", "g2f4"),
        cli("tables-index-C4-P2", "tables", "index", "--group", "C4",
            "--parabolic", "2"),
        cli("tables-orbits-r4", "tables", "orbits", "--r", "4"),
        multiply("C3", 2, "2,12"),
        multiply("C3", 2, "12,32"),
        multiply("C3", 2, "232,312"),
        multiply("B3", 1, "1,21"),
        multiply("B3", 1, "21,321"),
        multiply("G2", 1, "1,21"),
        multiply("G2", 1, "21,121"),
    ),
    # the independent checks: grid scans and verify drivers (cones), the
    # expected-dimension lemmas (isogr) and the representation oracle
    "cross-checks": (
        cli("proj-C-r3-s2", "verify", "thm-proj", "--r", "3", "--s", "2"),
        cli("proj-B-r3-s1", "verify", "thm-proj", "--r", "3", "--s", "1",
            "--group", "B"),
        cli("main-c-in-c-r3-s2", "verify", "thm-main", "--case", "c-in-c",
            "--r", "3", "--s", "2"),
        cli("main-g2-in-f4", "verify", "thm-main", "--case", "g2-in-f4"),
        cli("member-C2-in", "membership", "--group", "C2",
            "--weights", "1,0;1,0;0,1"),
        cli("member-C2-out", "membership", "--group", "C2",
            "--weights", "2,0;0,0;0,0", exit=1),
        cli("member-C3-in", "membership", "--group", "C3",
            "--weights", "0,1,0;0,1,0;2,0,0"),
        # 64 {0,1}-grid triples and 8 seeded ones for each of A2 and C2
        Job("api-oracle-sweep", api="oracle-sweep", checks=144),
        # 5 seeded tuples for each parabolic k of Sp(6) in Sp(8)
        Job("api-identity-sweep", api="identity-sweep", checks=15),
    ),
}
