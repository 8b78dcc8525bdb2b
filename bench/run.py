"""Benchmark runner: one workload's job list, each job in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --record

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src``.  A closed loop with one client runs the jobs one after
another and checks every output.  With ``--trace 0`` it repeats passes over
the job list for about S seconds and reports the end-to-end metrics; with
``--trace 1`` it runs one plain pass and one traced pass and reports the
per-layer metrics.  The last line of stdout is the result as JSON; the
environment and per-job detail go to ``.bench_out/`` in the checkout.
``--record`` pins the exit codes and stdout digests of the workload's CLI
jobs in ``expected.json`` from one pass of the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib.util import find_spec
from pathlib import Path

from tracer import LOCALIZATION
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

JOB_TIMEOUT_S = 120    # a job running longer is killed and counts as failed
RUN_LIMIT_S = 165      # no job starts or runs past this point of a run
SETUP_SAMPLES = 15     # at least, per run
SETUP_PER_PASS = 5
TRACEBACK = b"Traceback (most recent call last)"


@dataclass
class Result:
    job: object
    wall_s: float = 0.0
    exit: int | None = None       # None: killed at the timeout, or not run
    stdout: bytes = b""
    stderr: bytes = b""
    maxrss_kb: int = 0
    cpu_s: float = 0.0
    spans: dict | None = None
    failures: list = field(default_factory=list)

    @property
    def digest(self):
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class Pass:
    wall_s: float
    results: list
    cache_bytes: int


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # left random on purpose: a report that depends on hash order then
    # fails its digest check
    env.pop("PYTHONHASHSEED", None)
    return env


ENV = child_env()


def spawn(cmd, cwd, timeout, t0):
    """Run cmd in cwd; fills a Result but its job and checks."""
    res = Result(job=None)
    killed = threading.Event()
    with open(cwd / "stdout", "w+b") as out, open(cwd / "stderr", "w+b") as err:
        proc = subprocess.Popen(cmd, cwd=cwd, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        res.wall_s = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.join()
        out.seek(0)
        err.seek(0)
        res.stdout, res.stderr = out.read(), err.read()
    res.exit = None if killed.is_set() else proc.returncode
    res.maxrss_kb = usage.ru_maxrss
    res.cpu_s = usage.ru_utime + usage.ru_stime
    return res


def run_job(job, seed, pass_dir, index, traced, deadline):
    cwd = pass_dir / f"{index:02d}-{job.name}"
    cwd.mkdir()
    (cwd / "cache").symlink_to(pass_dir / "cache", target_is_directory=True)
    timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
    if timeout <= 0:
        return Result(job, failures=["not run: run time limit reached"])
    if job.api is None:
        target = ["cli", *job.argv]
        plain = ["-m", "eigencones.cli", *job.argv]
    else:
        target = ["api", job.api, "--seed", str(seed)]
        plain = [str(BENCH / "api_jobs.py"), *target[1:]]
    t0 = time.perf_counter()
    if traced:
        spans = cwd / "spans.json"
        cmd = [sys.executable, str(BENCH / "tracer.py"), "--job", job.name,
               "--spans", str(spans), "--t0", repr(t0), *target]
    else:
        cmd = [sys.executable, *plain]
    res = spawn(cmd, cwd, timeout, t0)
    res.job = job
    if res.exit is None:
        res.failures.append(f"timeout after {timeout:.0f} s")
    if traced and spans.exists():
        res.spans = json.loads(spans.read_text())
    return res


def check(res, expected):
    """Failure reasons of one finished job; empty when it is correct."""
    job, out = res.job, []
    if res.exit is None:
        return out
    if res.exit != job.exit:
        out.append(f"exit code {res.exit}, expected {job.exit}")
    if TRACEBACK in res.stderr:
        out.append("traceback on stderr")
    if job.api is None:
        want = expected.get(job.name)
        if want is None:
            out.append("no pinned digest in expected.json")
        elif (res.exit, res.digest) != (want["exit"], want["sha256"]):
            out.append("stdout digest differs from expected.json")
    if not (job.golden or job.api):
        return out
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return out + ["stdout is not JSON"]
    if job.golden:
        golden = json.loads((ROOT / job.golden).read_text())
        if report.get("system") != golden:
            out.append(f"system differs from {job.golden}")
    if job.api and (report.get("checked") != job.checks
                    or report.get("violations") != []):
        out.append(f"checked {report.get('checked')} of {job.checks}, "
                   f"violations {report.get('violations')}")
    return out


def run_pass(jobs, seed, traced, pass_dir, deadline, expected):
    (pass_dir / "cache").mkdir(parents=True)
    t0 = time.perf_counter()
    results = [run_job(job, seed, pass_dir, i, traced, deadline)
               for i, job in enumerate(jobs)]
    wall = time.perf_counter() - t0
    for res in results:
        res.failures += check(res, expected)
    cache_bytes = sum(p.stat().st_size for p in (pass_dir / "cache").iterdir())
    shutil.rmtree(pass_dir)
    return Pass(wall, results, cache_bytes)


def setup_times(cwd, deadline, count):
    """Wall times of fresh interpreters that only import the CLI module."""
    cmd = [sys.executable, "-c", "import eigencones.cli"]
    samples = []
    for _ in range(count):
        timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
        if timeout <= 0:
            break
        res = spawn(cmd, cwd, timeout, time.perf_counter())
        if res.exit != 0:
            sys.exit(f"importing eigencones.cli failed:\n{res.stderr.decode()}")
        samples.append(res.wall_s)
    return samples


# -- per-layer metrics from the traced pass -----------------------------------


def layer_metrics(traced, plain):
    self_s, calls, counts = Counter(), Counter(), Counter()
    inclusive = Counter()
    verify_self = import_s = 0.0
    fv_hits = fv_misses = n_spans = 0
    for res in traced.results:
        doc = res.spans
        if doc is None:
            continue
        names, spans = doc["names"], doc["spans"]
        children = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (nid, start, end, _) in enumerate(spans):
            name = names[nid]
            excl = end - start - children[i]
            self_s[name.split(".")[0]] += excl
            calls[name] += 1
            inclusive[name] += end - start
            if name.startswith("cones.verify_"):
                verify_self += excl
        counts.update(doc["counts"])
        fv_hits += doc["flag_variety_cache"][0]
        fv_misses += doc["flag_variety_cache"][1]
        import_s += doc["import_s"]
        n_spans += len(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    integrals = calls["schubert.FlagVariety.integral_billey"] + calls[LOCALIZATION]
    evaluated = calls["schubert.FlagVariety.point_multiplicity"]
    kept = counts["schubert.point_product_tuples"]
    raw = calls["cones.Inequality.__post_init__"]
    ineqs = counts["cones.generate_inequalities"]
    load = "cache.JsonlStore.load_structure_constants"
    hits, misses = counts[load], calls[load] - counts[load]
    return {
        "cli.import_s": (import_s, "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.child_cpu_s": (sum(r.cpu_s for r in plain.results), "s"),
        "cli.stdout_bytes": (sum(len(r.stdout) for r in plain.results), "bytes"),
        "rootsys.build_s": (self_s["rootsys"], "s"),
        "rootsys.embeddings_built": (calls["rootsys.build_embedding"], "count"),
        "weyl.self_s": (self_s["weyl"], "s"),
        "weyl.products": (calls["weyl.WeylElement.__mul__"], "count"),
        "weyl.inverses": (calls["weyl.WeylElement.inverse"], "count"),
        "weyl.coset_reps": (counts["weyl.minimal_coset_reps"], "count"),
        "weyl.group_elements": (counts["weyl.generate_weyl_group"], "count"),
        "schubert.self_s": (self_s["schubert"], "s"),
        "schubert.localization_s": (inclusive[LOCALIZATION], "s"),
        "schubert.integrals": (integrals, "count"),
        "schubert.flag_variety_misses": (fv_misses, "count"),
        "schubert.flag_variety_hits": (fv_hits, "count"),
        "schubert.tuples_evaluated": (evaluated, "count"),
        "schubert.tuples_kept": (kept, "count"),
        "schubert.keep_ratio": (ratio(kept, evaluated), "ratio"),
        "schubert.cup_products": (calls["schubert.FlagVariety.cup_product"], "count"),
        "cones.self_s": (self_s["cones"], "s"),
        "cones.ineqs_raw": (raw, "count"),
        "cones.ineqs_kept": (ineqs, "count"),
        "cones.dedup_ratio": (ratio(ineqs, raw), "ratio"),
        "cones.verify_self_s": (verify_self, "s"),
        "cones.membership_calls": (calls["cones.membership"], "count"),
        "isogr.self_s": (self_s["isogr"], "s"),
        "isogr.checks": (calls["isogr.expected_dim_zero_check"], "count"),
        "oracle.self_s": (self_s["oracle"], "s"),
        "oracle.invariant_dims": (calls["oracle.invariant_dim"], "count"),
        "oracle.char_tables": (calls["oracle.weight_multiplicities"], "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "cache.load_s": (inclusive[load], "s"),
        "cache.save_s": (inclusive["cache.JsonlStore.save_structure_constants"], "s"),
        "cache.bytes_written": (traced.cache_bytes, "bytes"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (plain.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - plain.wall_s, "s"),
        "trace.spans": (n_spans, "count"),
    }


# -- environment ---------------------------------------------------------------


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": find_spec("numpy") is not None,
        "client": "closed loop, 1 client, 1 fresh interpreter per job",
        "layer_wait": "none: single-threaded, no queues",
    }


# -- modes -----------------------------------------------------------------


def measure(args, jobs, run_dir, deadline, expected):
    """Passes while another fits in --seconds of pass time, at least one.

    Setup samples are taken a few before each pass and topped up at the end,
    so they see the same machine as the passes.  One untimed start first
    writes the bytecode caches, as any earlier invocation would have.
    """
    setup_dir = run_dir / "setup"
    setup_dir.mkdir()
    setup_times(setup_dir, deadline, 1)
    setup, passes = [], []
    while True:
        setup += setup_times(setup_dir, deadline, SETUP_PER_PASS)
        passes.append(run_pass(jobs, args.seed, False, run_dir / f"pass{len(passes)}",
                               deadline, expected))
        typical = statistics.median(p.wall_s for p in passes)
        if (sum(p.wall_s for p in passes) + typical > args.seconds
                or time.perf_counter() + typical > deadline):
            break
    setup += setup_times(setup_dir, deadline, max(0, SETUP_SAMPLES - len(setup)))
    n = len(passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "job_max_s": (statistics.median(max(r.wall_s for r in p.results)
                                        for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(max(r.maxrss_kb for r in p.results)
                                          for p in passes) / 1024, "MB"),
    }
    notes = {"wall_s": f"median of {n} passes", "job_max_s": f"median of {n} passes",
             "setup_s": f"median of {len(setup)} samples",
             "peak_rss_mb": f"median of {n} passes"}
    return metrics, notes, passes


def trace(args, jobs, run_dir, deadline, expected):
    plain = run_pass(jobs, args.seed, False, run_dir / "plain", deadline, expected)
    traced = run_pass(jobs, args.seed, True, run_dir / "traced", deadline, expected)
    for a, b in zip(plain.results, traced.results):
        if a.exit is not None and b.exit is not None and a.digest != b.digest:
            b.failures.append("stdout differs under tracing")
    metrics = layer_metrics(traced, plain)
    return metrics, {}, [plain, traced]


def record(args, jobs, run_dir, deadline):
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    p = run_pass(jobs, args.seed, False, run_dir / "record", deadline, {})
    bad = 0
    for res in p.results:
        if res.job.api is not None:
            continue
        # the only expected failure is the missing pin being recorded now
        failures = [f for f in res.failures if "expected.json" not in f]
        if failures:
            bad += 1
            print(f"{res.job.name}: not recorded: {'; '.join(failures)}")
            continue
        expected[res.job.name] = {"exit": res.exit, "sha256": res.digest,
                                  "bytes": len(res.stdout)}
        print(f"{res.job.name}: exit {res.exit}, {len(res.stdout)} bytes")
    EXPECTED.write_text(json.dumps(dict(sorted(expected.items())), indent=2) + "\n")
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    needed = [SRC / "eigencones" / "cli.py", EXPECTED]
    needed += [ROOT / job.golden for job in WORKLOADS[args.workload] if job.golden]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"not an eigencones checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    jobs = WORKLOADS[args.workload]
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if args.record:
            return record(args, jobs, run_dir, deadline)
        expected = json.loads(EXPECTED.read_text())
        mode = trace if args.trace else measure
        metrics, notes, passes = mode(args, jobs, run_dir, deadline, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = [r for p in passes for r in p.results]
    failed = [r for r in results if r.failures]
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for res in failed:
        print(f"FAILED {res.job.name}: {'; '.join(res.failures)}")
    runs = "1 plain and 1 traced pass" if args.trace else f"{len(passes)} passes"
    print(f"{args.workload}: {runs} of {len(jobs)} jobs, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")
    print(f"  {'fail_ratio':<30} {len(failed) / len(results):>14.6g} "
          f"({len(failed)} of {len(results)} jobs)")

    detail = {
        "env": env,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "passes": [
            {"wall_s": p.wall_s, "jobs": [
                {"name": r.job.name, "wall_s": r.wall_s, "exit": r.exit,
                 "maxrss_kb": r.maxrss_kb, "cpu_s": r.cpu_s,
                 "sha256": r.digest, "failures": r.failures}
                for r in p.results]}
            for p in passes
        ],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
