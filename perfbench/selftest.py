"""Self-test of the benchmark at small sizes; it runs in seconds.

    python3 perfbench/selftest.py

Run it from the root of a source checkout.  It checks that:

- the metric names and units of a run match ``BENCHMARK.json``;
- every count metric is identical across two traced runs whose seeds order
  the jobs differently, and the second-route check passes;
- the output checks reject tampered output, a failed exit code, a cache
  warning on stderr and a warm cache read that prints something else;
- a cache file that fails to load is caught by the warm-read check.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench

SMALL = [
    [bench.table_job(12)],
    [bench.table_job(10, signed=True)],
    [bench.factors_job(10)],
    [bench.factors_job(8, signed=True, max_index=500)],
    [bench.table_job(10, cache=True), bench.table_job(10, cache=True, warm=True)],
    [bench.rho_job(15, "29/64")],
    [bench.verify_job(139)],
]
# (text in the real output, replacement) per job kind.
TAMPER = {
    "table": ("sum_ok=yes", "sum_ok=no"),
    "table_cached": ("max_ok=yes", "max_ok=no"),
    "factors": ("golden match", "golden mismatch"),
    "rho": ("rho=29/64", "rho=15/32"),
    "verify": ("139/139", "138/139"),
}


def check_runs(failures: list[str]) -> dict:
    """One untraced and two traced runs of SMALL; returns the first traced metrics."""
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    traced = []
    for seed, trace in ((1, False), (1, True), (2, True)):
        result, record = bench.run(SMALL, seed, 0, trace)
        if not result["correct"] or result["failed"]:
            failures.append(f"seed {seed} trace {int(trace)}: {record['errors']}")
        declared = spec["per_layer" if trace else "end_to_end"]
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            failures.append(f"trace {int(trace)} metrics {got} differ from BENCHMARK.json {want}")
        if trace:
            traced.append(result["metrics"])
    first, second = traced
    for name, metric in first.items():
        if metric["unit"] == "count" and metric["value"] != second[name]["value"]:
            failures.append(f"{name}: {metric['value']} then {second[name]['value']}")
    subsets = first["descent.subsets"]["value"]
    if subsets != 2048 + 1024 + 512 + 256 + 2 * 512:
        failures.append(f"descent.subsets is {subsets}")
    if first["descent.cache_bytes"]["value"] <= 0:
        failures.append("the cold table job wrote no cache file")
    return first


def check_rejections(failures: list[str], scratch: Path) -> None:
    """Each job's real output passes its check and every tampered copy fails."""
    env = bench.job_env()
    cache_dir = scratch / "cache"
    cache_dir.mkdir()
    jobs = bench.order_jobs(SMALL, 0)
    previous = None
    for job in jobs:
        argv = [sys.executable, "-m", "descentlab", *bench.cli_argv(job, cache_dir)]
        got = bench.spawn(argv, env, scratch)
        error = bench.check_output(job, got.code, got.stdout, got.stderr, previous)
        if error:
            failures.append(f"{' '.join(job.argv)}: genuine output rejected: {error}")
        old, new = TAMPER[job.kind]
        if old not in got.stdout:
            failures.append(f"{' '.join(job.argv)}: {old!r} not in its output")
        tampered = [
            (got.code, got.stdout.replace(old, new), got.stderr, previous),
            (1, got.stdout, got.stderr, previous),
            (got.code, got.stdout, "warning: ignoring bad cache: x\n", previous),
        ]
        if job.same_as_previous:
            # The cold build printed something else.
            tampered.append((got.code, got.stdout, got.stderr, previous.replace("sum=", "sum=1")))
        for code, out, err, before in tampered:
            if bench.check_output(job, code, out, err, before) is None:
                failures.append(f"{' '.join(job.argv)}: tampered output accepted: {out!r} {err!r}")
        previous = got.stdout

    # A cache file that no longer loads makes the CLI warn and rebuild; the
    # warm-read check must fail rather than time a rebuild as a read.
    cold, warm = bench.table_job(10, cache=True), bench.table_job(10, cache=True, warm=True)
    shutil.rmtree(cache_dir)
    cache_dir.mkdir()
    first = bench.spawn([sys.executable, "-m", "descentlab", *bench.cli_argv(cold, cache_dir)], env, scratch)
    for path in cache_dir.iterdir():
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
    second = bench.spawn([sys.executable, "-m", "descentlab", *bench.cli_argv(warm, cache_dir)], env, scratch)
    if bench.check_output(warm, second.code, second.stdout, second.stderr, first.stdout) is None:
        failures.append("a warm read of a broken cache file passed its check")


def main() -> int:
    failures: list[str] = []
    first = check_runs(failures)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=bench.ROOT))
    try:
        check_rejections(failures, scratch)
    finally:
        shutil.rmtree(scratch)
    for name in sorted(first):
        print(f"{name} = {first[name]['value']} {first[name]['unit']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
