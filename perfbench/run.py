"""Benchmark of the descentlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the package from
``src/`` and writes only to a temporary directory under the checkout, which
it removes.  The workloads, metrics and bounds are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says why each was chosen.

A researcher runs one command and waits for a checked, exact answer, so the
load is a closed loop with one client: each job is a fresh
``python -m descentlab ...`` process, started when the previous one has
exited.  Fresh processes matter: the library's ``lru_cache``s would make
repeated in-process calls measure nothing, while a command-line user pays
the cold cost on every run.  A run repeats the workload's jobs as whole
passes until ``--seconds`` have elapsed (at least one pass) and reports
medians over the passes; run lengths overshoot ``--seconds`` by up to one
pass.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` one timed pass runs, then every job runs once more
under ``perfbench/traced_job.py``, which times the calls into ``descent``
and ``cyclo``; the last line then carries the per-layer metrics.  The line
before it records the run's environment and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED_JOB = Path(__file__).resolve().parent / "traced_job.py"

# Placeholder in a job's arguments for the pass's own, initially empty,
# table cache directory.
CACHE = "{cache}"
# Launches of `--help` before each timed pass and after the last one.  The
# machine's speed drifts over tens of seconds, so set-up is sampled across
# the whole run rather than in one burst.
SETUP_LAUNCHES = 3
CACHE_WARNING = "ignoring bad cache"


@dataclass(frozen=True)
class Job:
    """One CLI invocation, the metric its wall time feeds, and its check.

    ``expect`` is a regular expression that must match a whole line of the
    job's stdout.  ``same_as_previous`` asks for stdout identical to the job
    before it in the pass (a warm cache read must print what the cold build
    printed).
    """

    kind: str
    argv: tuple[str, ...]
    expect: str
    same_as_previous: bool = False


def table_job(n: int, signed: bool = False, cache: bool = False, warm: bool = False) -> Job:
    argv = ("table", "--n", str(n)) + (("--signed",) if signed else ())
    if cache:
        argv += ("--cache-dir", CACHE)
    subsets = 1 << (n if signed else n - 1)
    expect = (
        rf"n={n} signed={int(signed)} subsets={subsets} "
        r"sum=\d+ sum_ok=yes max=\d+ max_ok=yes"
    )
    return Job("table_cached" if warm else "table", argv, expect, same_as_previous=warm)


def factors_job(n: int, signed: bool = False, max_index: int = 10_000) -> Job:
    argv = ("factors", "--n", str(n)) + (("--signed",) if signed else ())
    if max_index != 10_000:
        argv += ("--max-index", str(max_index))
    argv += ("--golden", "builtin")
    expect = rf"golden match \(n={n} signed={int(signed)}, indices <= {max_index}\)"
    return Job("factors", argv, expect)


def rho_job(n: int, rho: str) -> Job:
    expect = rf"n={n} popcount={n.bit_count()} rho={re.escape(rho)} half_minus_rho=\S+"
    return Job("rho", ("rho", "--n", str(n)), expect)


def verify_job(checks: int) -> Job:
    expect = rf"verify: {checks}/{checks} checks passed \(desk scale\)"
    return Job("verify", ("verify", "--desk-scale"), expect)


# A workload is a list of blocks; the seed shuffles the blocks, and the jobs
# inside a block keep their order.  Problem sizes are fixed because cost
# depends only on n, signedness and the scan bound.
WORKLOADS: dict[str, list[list[Job]]] = {
    # beta_table (alpha values plus Moebius inversion) is nearly all of the
    # time and cyclo never runs; n = 23 is the largest shipped golden row.
    "table-build": [[table_job(23)], [table_job(18, signed=True)]],
    # Division by Phi_m dominates; residue counting is the rest.
    "factor-divide": [[factors_job(16)], [factors_job(14, signed=True)]],
    # 131,059 distinct values and few candidates: residue counting
    # dominates and division is under 1%.
    "factor-count": [[factors_job(20, max_index=300)]],
    # The table layer writes then reads its cache, plus the parity route
    # (rho) and verify, the only path into qsym and abcd.
    "cache-parity": [
        [table_job(22, cache=True), table_job(22, cache=True, warm=True)],
        [rho_job(29, "29/64")],
        [verify_job(139)],
    ],
}

CLI_KINDS = ("table", "table_cached", "factors", "rho", "verify")
SPAN_METRICS = (
    "descent.beta_table",
    "descent.save_table",
    "descent.load_table",
    "descent.rho",
    "descent.value_count",
    "descent.residue_histogram",
    "cyclo.factor_scan",
    "cyclo.divides_order",
    "cyclo.cyclotomic",
)
COUNT_METRICS = (
    "descent.subsets",
    "descent.distinct_values",
    "cyclo.candidates",
    "cyclo.tests",
    "cyclo.survivors_1",
    "cyclo.survivors_2",
    "cyclo.survivors_3",
    "cyclo.residue_ops",
    "cyclo.divide_ops",
)


class SetupError(Exception):
    """The program under test cannot be launched from this directory."""


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float


def job_env() -> dict[str, str]:
    env = dict(os.environ)
    # A user's cache would silently turn a build workload into a read one.
    env.pop("DESCENTLAB_CACHE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def spawn(argv: list[str], env: dict[str, str], scratch: Path) -> Outcome:
    """Run one process to completion; wall time, CPU and peak RSS are its own."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        code=proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
    )


def check_output(job: Job, code: int, stdout: str, stderr: str, previous: str | None) -> str | None:
    """None when the job's output is right, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if CACHE_WARNING in stderr:
        return "the cache read failed and the table was rebuilt"
    if stderr.strip():
        return f"unexpected stderr: {stderr.strip()[:200]!r}"
    if not re.search(rf"^{job.expect}$", stdout, re.MULTILINE):
        return f"no line matches {job.expect!r}"
    if job.same_as_previous and stdout != previous:
        return "output differs from the previous job's"
    return None


def order_jobs(blocks: list[list[Job]], seed: int) -> list[Job]:
    blocks = list(blocks)
    random.Random(seed).shuffle(blocks)
    return [job for block in blocks for job in block]


def cli_argv(job: Job, cache_dir: Path) -> list[str]:
    return [a.replace(CACHE, str(cache_dir)) for a in job.argv]


def launch_idle(env: dict[str, str], scratch: Path, count: int) -> list[float]:
    """Wall times of launches that do no work (``--help``)."""
    argv = [sys.executable, "-m", "descentlab", "--help"]
    times = []
    for _ in range(count):
        got = spawn(argv, env, scratch)
        if got.code != 0 or "usage:" not in got.stdout:
            raise SetupError(
                f"'python -m descentlab --help' failed with exit code {got.code}: "
                f"{got.stderr.strip()[-300:]}"
            )
        times.append(got.wall_s)
    return times


def timed_pass(jobs: list[Job], env: dict[str, str], scratch: Path) -> dict:
    """Run every job once, untraced, in a fresh cache directory."""
    cache_dir = scratch / "cache"
    cache_dir.mkdir()
    records = []
    previous = None
    start = time.perf_counter()
    try:
        for job in jobs:
            got = spawn([sys.executable, "-m", "descentlab", *cli_argv(job, cache_dir)], env, scratch)
            error = check_output(job, got.code, got.stdout, got.stderr, previous)
            previous = got.stdout
            records.append({"job": " ".join(job.argv), "kind": job.kind, "wall_s": got.wall_s,
                            "cpu_s": got.cpu_s, "rss_mb": got.rss_mb, "error": error})
        wall = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir)
    return {
        "wall_s": wall,
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "jobs": records,
    }


def traced_pass(jobs: list[Job], env: dict[str, str], scratch: Path) -> list[dict]:
    """Run every job once more under the span recorder, in a fresh cache dir."""
    cache_dir = scratch / "cache"
    cache_dir.mkdir()
    spans_path = scratch / "spans.json"
    records = []
    previous = None
    try:
        for job in jobs:
            spans_path.unlink(missing_ok=True)
            spawned_ns = time.perf_counter_ns()
            got = spawn(
                [sys.executable, str(TRACED_JOB), json.dumps(cli_argv(job, cache_dir)), str(spans_path)],
                env,
                scratch,
            )
            error = check_output(job, got.code, got.stdout, got.stderr, previous)
            previous = got.stdout
            trace = json.loads(spans_path.read_text()) if spans_path.exists() else None
            if error is None and trace is None:
                error = "the traced job wrote no spans"
            if error is None and trace["route_error"]:
                error = trace["route_error"]
            records.append({"job": job, "spawned_ns": spawned_ns, "trace": trace, "error": error})
        cache_bytes = sum(p.stat().st_size for p in cache_dir.rglob("*") if p.is_file())
    finally:
        shutil.rmtree(cache_dir)
    for r in records:
        r["cache_bytes"] = cache_bytes
    return records


def layer_metrics(passes: list[dict], traced: list[dict], jobs: list[Job]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the timed passes and one traced pass."""
    out: dict[str, tuple[float, str]] = {}
    for kind in CLI_KINDS:
        per_pass = [sum(r["wall_s"] for r in p["jobs"] if r["kind"] == kind) or 0.0 for p in passes]
        out[f"cli.{kind}_s"] = (statistics.median(per_pass), "s")
    span_s = dict.fromkeys(SPAN_METRICS, 0.0)
    counts = dict.fromkeys(COUNT_METRICS, 0)
    covered_ns = traced_wall_ns = 0
    for r in traced:
        trace = r["trace"]
        if trace is None:
            continue
        for name, parent, start, end in trace["spans"]:
            if name in span_s:
                span_s[name] += (end - start) / 1e9
            if parent < 0 and end <= trace["mirrored_end_ns"]:
                covered_ns += end - start
        traced_wall_ns += trace["mirrored_end_ns"] - r["spawned_ns"]
        for name, value in trace["counts"].items():
            counts[name] += value
    for name, value in span_s.items():
        out[f"{name}_s"] = (value, "s")
    for name, value in counts.items():
        out[name] = (value, "count")
    out["descent.cache_bytes"] = (traced[0]["cache_bytes"] if traced else 0, "count")
    # Untraced wall time of the same jobs: per job, the median over passes.
    untraced_s = sum(
        statistics.median(p["jobs"][i]["wall_s"] for p in passes) for i in range(len(jobs))
    )
    out["trace.coverage"] = (covered_ns / traced_wall_ns if traced_wall_ns else 0.0, "ratio")
    out["trace.overhead_ratio"] = (traced_wall_ns / 1e9 / untraced_s, "ratio")
    return out


def environment(seed: int) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "seed": seed,
    }


def run(blocks: list[list[Job]], seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result line and the run record."""
    if not (SRC / "descentlab" / "__init__.py").is_file():
        raise SetupError(f"no descentlab package under {SRC}")
    record = {"trace": int(trace), "env": environment(seed)}
    jobs = order_jobs(blocks, seed)
    env = job_env()
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # The first launch also writes the bytecode cache, which an installed
        # package already has, so it is not timed.
        launch_idle(env, scratch, 1)
        setup_times: list[float] = []
        passes = []
        start = time.perf_counter()
        # A traced run takes its untraced job times from one pass.
        while not passes or (not trace and time.perf_counter() - start < seconds):
            setup_times += launch_idle(env, scratch, SETUP_LAUNCHES)
            passes.append(timed_pass(jobs, env, scratch))
        setup_times += launch_idle(env, scratch, SETUP_LAUNCHES)
        traced = traced_pass(jobs, env, scratch) if trace else []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    errors = [(r["job"], r["error"]) for p in passes for r in p["jobs"] if r["error"]]
    errors += [(" ".join(r["job"].argv), r["error"]) for r in traced if r["error"]]
    attempted = len(jobs) * len(passes) + len(traced)
    if trace:
        metrics = layer_metrics(passes, traced, jobs)
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    record["env"]["loadavg_end"] = os.getloadavg()
    record["passes"] = passes
    record["errors"] = errors
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for job, error in record["errors"]:
        print(f"perfbench: FAILED {job}: {error}", file=sys.stderr)
    print(json.dumps({"run": {"workload": args.workload, **record}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
