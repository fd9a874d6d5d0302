import ast
import doctest
import os
import resource
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from descentlab import checks, cli, cyclo, descent
from descentlab.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_scan(*args, **kwargs):
    raise AssertionError("the factor scan ran")


def _no_build(*args, **kwargs):
    raise AssertionError("the table was built")


# The summary doubles the sum over the stored half, except for the empty
# universe of n = 1, whose one mask is its own complement.
@pytest.mark.parametrize(
    "argv, line",
    [
        (["--n", "1"], "n=1 signed=0 subsets=1 sum=1 sum_ok=yes max=1 max_ok=yes"),
        (["--n", "1", "--signed"], "n=1 signed=1 subsets=2 sum=2 sum_ok=yes max=1 max_ok=yes"),
        (["--n", "2"], "n=2 signed=0 subsets=2 sum=2 sum_ok=yes max=1 max_ok=yes"),
        (["--n", "2", "--signed"], "n=2 signed=1 subsets=4 sum=8 sum_ok=yes max=3 max_ok=yes"),
        (["--n", "3", "--signed"], "n=3 signed=1 subsets=8 sum=48 sum_ok=yes max=11 max_ok=yes"),
        (["--n", "5"], "n=5 signed=0 subsets=16 sum=120 sum_ok=yes max=16 max_ok=yes"),
    ],
    ids=["1", "1-signed", "2", "2-signed", "3-signed", "5"],
)
def test_table_summary_of_the_smallest_universes(capsys, argv, line):
    assert run(capsys, "table", *argv) == (0, line + "\n", "")


def test_table_out_file(tmp_path, capsys):
    dest = tmp_path / "t.txt"
    code, _, _ = run(capsys, "table", "--n", "4", "--out", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "descentlab-table v1 n=4 signed=0"
    assert lines[1:] == ["1", "3", "5", "3", "3", "5", "3", "1"]


def test_table_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path)
    code, _, err = run(capsys, "table", "--n", "6", "--cache-dir", cache)
    assert code == 0 and err == ""
    path = tmp_path / "table-v1-n6-s0.txt"
    assert path.exists()
    before = path.read_text()
    # second run loads the cache and leaves the file untouched
    code, out, err = run(capsys, "table", "--n", "6", "--cache-dir", cache)
    assert code == 0 and err == ""
    assert "sum_ok=yes" in out
    assert path.read_text() == before


def test_table_ignores_cache_env_var(tmp_path, capsys, monkeypatch):
    # only --cache-dir turns the cache on; the environment is not read
    monkeypatch.setenv("DESCENTLAB_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "table", "--n", "4")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "content",
    [
        b"not a table\n",
        b"\xff\xfe\x00garbage",
        # a header n above the ceiling is refused before 2**(n - 1) values
        # are sized
        b"descentlab-table v1 n=100000000000000000000 signed=0\n",
        b"descentlab-table v1 n=25 signed=0\n",
        # the values of masks 1 and 2 swapped: the count and the sum match,
        # but the upper half is no longer the lower half reversed
        b"descentlab-table v1 n=5 signed=0\n"
        + b"".join(b"%d\n" % v for v in (1, 9, 4, 6, 9, 16, 11, 4, 4, 11, 16, 9, 6, 9, 4, 1)),
    ],
    ids=["text", "binary", "huge-n", "header-above-ceiling", "swapped"],
)
def test_table_corrupt_cache_recovers(tmp_path, capsys, content):
    path = tmp_path / "table-v1-n5-s0.txt"
    path.write_bytes(content)
    code, out, err = run(capsys, "table", "--n", "5", "--cache-dir", str(tmp_path))
    assert code == 0
    assert "warning: ignoring bad cache" in err
    assert "sum_ok=yes" in out
    # the bad file was replaced with a loadable one
    assert path.read_text().startswith("descentlab-table v1")
    assert descent.load_table(path) == descent.beta_table(5)


def test_table_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, out, err = run(capsys, "table", "--n", "5", "--out", str(blocker / "x.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write")
    code, out, err = run(
        capsys, "factors", "--n", "5", "--max-index", "60", "--cache-dir", str(blocker / "cache")
    )
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write")
    assert blocker.read_text() == "not a directory\n"


def test_table_respects_limits(tmp_path, capsys, monkeypatch):
    code, _, err = run(capsys, "table", "--n", "30")
    assert code == 3
    assert err.startswith("resource limit:")
    # each kind has one ceiling: there is no option that raises it
    for command in (["table"], ["factors", "--max-index", "60"]):
        code, out, err = run(capsys, *command, "--n", "5", "--max-n", "5")
        assert (code, out) == (2, "")
    descent.save_table(descent.beta_table(11), tmp_path / "table-v1-n11-s0.txt")
    monkeypatch.setitem(descent.DEFAULT_LIMITS, "unsigned", 10)
    code, out, _ = run(capsys, "table", "--n", "10")
    assert code == 0 and "sum_ok=yes" in out
    # a valid table above the ceiling in the cache is refused, not read
    for command in (["table"], ["factors", "--max-index", "100"]):
        for cache in ([], ["--cache-dir", str(tmp_path)]):
            code, out, err = run(capsys, *command, "--n", "11", *cache)
            assert (code, out) == (3, ""), (command, cache)
            assert err.startswith("resource limit:") and err.count("\n") == 1, err


def test_table_out_of_memory_maps_to_3(capsys, monkeypatch):
    def build(n, signed):
        raise MemoryError

    monkeypatch.setattr(descent, "beta_table", build)
    code, out, err = run(capsys, "table", "--n", "20")
    assert code == 3
    assert out == ""
    assert err == "resource limit: table ran out of memory\n"
    assert "Traceback" not in err


def test_rho_respects_limit(capsys):
    code, _, err = run(capsys, "rho", "--n", "40")
    assert code == 3
    assert err == "resource limit: rho(n=40) exceeds the limit 31\n"


# the scan's arguments are refused before the table is built or cached
def test_factors_respects_index_ceiling(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(descent, "beta_table", _no_build)
    for argv, exit_code in [
        (["--max-index", str(10**12)], 3),
        (["--max-index", str(10**12), "--policy", "exhaustive"], 3),
        (["--max-index", "1"], 2),
        (["--multiplicity", "0"], 2),
    ]:
        code, out, err = run(capsys, "factors", "--n", "12", "--cache-dir", str(tmp_path), *argv)
        assert (code, out) == (exit_code, "")
        assert err.startswith("resource limit:" if exit_code == 3 else "usage error:")
    assert list(tmp_path.iterdir()) == []


def test_rho_output(capsys):
    code, out, _ = run(capsys, "rho", "--n", "15")
    assert code == 0
    assert out.strip() == "n=15 popcount=4 rho=29/64 half_minus_rho=3/64"
    code, out, _ = run(capsys, "rho", "--n", "1")
    assert out.strip() == "n=1 popcount=1 rho=1 half_minus_rho=-1/2"


def test_factors_text(capsys):
    code, out, _ = run(capsys, "factors", "--n", "8")
    assert code == 0
    assert out.strip() == "n=8 signed=0 policy=heuristic bound=10000: Phi_4^2 Phi_28"


# Phi_4 divides twice and Phi_28 once, so no index is alive after order 2
# and the scan stops there, far below the cap; the timeout ends a scan that
# runs on through every order.
def test_factors_stop_at_the_first_order_nothing_passes():
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab", "factors", "--n", "8", "--multiplicity", "1000000000"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=10,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    line = "n=8 signed=0 policy=heuristic bound=10000: Phi_4^2 Phi_28\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, line, "")
    assert after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime < 1


def test_factors_csv(capsys):
    code, out, _ = run(capsys, "factors", "--n", "6", "--max-index", "600", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,signed,index,multiplicity",
        "6,0,2,2",
        "6,0,6,2",
        "6,0,10,1",
    ]


def test_factors_json(capsys):
    import json

    code, out, _ = run(capsys, "factors", "--n", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "descentlab/1"
    assert doc["n"] == 4 and doc["signed"] is False
    assert doc["factors"] == [{"index": 4, "multiplicity": 2}]


@pytest.mark.parametrize("n, signed", [(7, 0), (4, 1)], ids=["7", "4-signed"])
def test_factors_golden_builtin_match(capsys, n, signed):
    argv = ["--n", str(n)] + ["--signed"] * signed + ["--golden", "builtin", "--max-index", "600"]
    code, out, _ = run(capsys, "factors", *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"golden match (n={n} signed={signed}, indices <= 600)"


def test_factors_golden_file_mismatch(tmp_path, capsys):
    recorded = tmp_path / "row.txt"
    recorded.write_text("n=8 signed=0: Phi_4^2 Phi_28 Phi_40\n")
    code, _, err = run(
        capsys, "factors", "--n", "8", "--golden", str(recorded), "--max-index", "600"
    )
    assert code == 1
    assert "golden mismatch:" in err
    assert "computed: n=8" in err and "recorded: n=8" in err


# an unusable recorded row is refused before the table is scanned
def test_factors_golden_file_unreadable(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    missing = tmp_path / "absent.txt"
    code, out, err = run(capsys, "factors", "--n", "5", "--max-index", "60", "--golden", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot read golden file")
    binary = tmp_path / "row.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, "factors", "--n", "5", "--max-index", "60", "--golden", str(binary))
    assert (code, out) == (2, "")
    assert err.startswith("usage error: cannot read golden file")


# a golden file is read to one byte past its limit, so an endless one such as
# /dev/zero, or a valid row padded past the limit, is refused without being
# read whole; the row padded to the limit itself still matches
def test_factors_golden_file_too_long(tmp_path, capsys, monkeypatch):
    limit = cli._GOLDEN_FILE_LIMIT
    assert limit == 1 << 16
    row = cyclo.format_report(cyclo.load_golden(False)[5], include_scan_info=False)
    padded = tmp_path / "row.txt"
    padded.write_text(row + " " * (limit - len(row)))
    code, out, err = run(capsys, "factors", "--n", "5", "--max-index", "60", "--golden", str(padded))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "golden match (n=5 signed=0, indices <= 60)"
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    padded.write_text(row + " " * (limit + 1 - len(row)))
    for source in (str(padded), "/dev/zero"):
        code, out, err = run(capsys, "factors", "--n", "5", "--max-index", "60", "--golden", source)
        assert (code, out) == (2, ""), source
        assert err == (
            f"usage error: golden file {source} is longer than {limit} bytes; "
            "it holds one recorded line\n"
        )


def test_factors_golden_missing_row(capsys, monkeypatch):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    # recorded unsigned rows start at n=3
    code, out, err = run(capsys, "factors", "--n", "2", "--max-index", "4", "--golden", "builtin")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: no golden row")


@pytest.mark.parametrize("line", ["n=99 signed=1: -", "n=15 signed=1: -", "n=14 signed=0: -"])
def test_factors_golden_row_for_another_table(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    recorded = tmp_path / "row.txt"
    recorded.write_text(line + "\n")
    code, out, err = run(capsys, "factors", "--n", "15", "--golden", str(recorded))
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: golden file {recorded} holds {line[:-3]}")


# a recorded line that format_report never writes is a usage error too
def test_factors_golden_file_malformed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    recorded = tmp_path / "row.txt"
    for line in [
        "n=8 signed=0 bound=x: Phi_4^2", "n=8 signed=0 bound=1: -", "n=8 signed=0 bound=-4: -",
        "n=8 signed=7: -", "n=8 signed=0: Phi_4^0 Phi_28", "n=8 signed=0: Phi_28 Phi_4^2",
        "n=8 signed=0 bound=100: Phi_4^2 Phi_28 Phi_200", "n=8 signed=0:",
        "n=3 n=8 signed=0: Phi_4^2 Phi_28", "n=8 signed=0 size=4: Phi_4^2 Phi_28",
        "n=8 signed=0 policy=frob bound=100: Phi_4^2 Phi_28",
    ]:
        recorded.write_text(line + "\n")
        code, out, err = run(capsys, "factors", "--n", "8", "--golden", str(recorded))
        assert (code, out) == (2, ""), line
        assert err.startswith("usage error:") and err.count("\n") == 1, line


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mod4", "--n", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verify: 2/2 checks passed (full scale)"
    assert any(l.startswith("PASS mod4.unsigned.n8") and "counts=(64, 64)" in l for l in lines)
    assert any(l.startswith("PASS mod4.signed.n8") and "counts=(128, 128)" in l for l in lines)


def test_verify_desk_scale_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table1", "--desk-scale")
    assert code == 0
    assert "PASS table1.rho.n15: rho=29/64" in out
    assert "n31" not in out
    assert out.strip().splitlines()[-1].endswith("(desk scale)")


def test_verify_empty_selection(capsys):
    code, out, err = run(capsys, "verify", "--suite", "table1", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: no checks selected")
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--n", "99")
    assert code == 2
    assert "checks passed" not in out
    assert "no checks selected" in err


@pytest.mark.parametrize("suite", ["popcount", "theoremQ"])
def test_verify_aggregate_check_needs_an_instance(capsys, suite):
    # an aggregate check whose instances --n filters away compares nothing
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "99", "--desk-scale")
    assert code == 2
    assert "PASS" not in out
    assert "no checks selected" in err


@pytest.mark.parametrize("suite, n", [("cyclounit", "5"), ("structure", "99")])
def test_verify_checks_without_n_are_not_run_under_n(capsys, suite, n):
    # the divisor products and the product identities take no n
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", n)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: no checks selected")


@pytest.mark.parametrize(
    "suite, line",
    [
        ("popcount", "PASS popcount.dualroute: odd counts agree with parities for n=5"),
        ("theoremQ", "PASS theoremQ.minus1: value at -1 matches 2^n(1/2 - rho) for n=5"),
        (
            "structure",
            "PASS structure.roundtrip: cd rewriting round-trips the unsigned ab-index for n=5",
        ),
        (
            "structure",
            "PASS structure.flagroutes: flag enumerator L-coefficients match both tables "
            "for n=5",
        ),
    ],
    ids=["dualroute", "minus1", "roundtrip", "flagroutes"],
)
def test_verify_aggregate_detail_names_the_selected_n(capsys, suite, line):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--n", "5", "--desk-scale")
    assert code == 0
    assert line in out.splitlines()


@pytest.mark.parametrize(
    "suite, failed, summary",
    [
        ("table1", "FAIL table1.rho.n7: rho=1/3 expected=1/2 half_minus_rho=1/6", "3/4"),
        (
            "popcount",
            "FAIL popcount.dualroute: odd counts agree with parities for n<=14; "
            "mismatches at [7]",
            "3/5",
        ),
    ],
    ids=["table1", "popcount"],
)
def test_verify_fails_on_a_wrong_value(capsys, monkeypatch, suite, failed, summary):
    rho = descent.rho
    monkeypatch.setattr(descent, "rho", lambda n: Fraction(1, 3) if n == 7 else rho(n))
    code, out, _ = run(capsys, "verify", "--suite", suite, "--desk-scale")
    assert code == 1
    assert failed in out.splitlines()
    assert out.splitlines()[-1] == f"verify: {summary} checks passed (desk scale)"


def test_each_suite_reads_a_table_once(monkeypatch):
    # the value classes, which every residue count of a table is read from,
    # are taken at most once per table in one suite call
    reads = []
    value_counts = descent._value_counts

    def counted(table):
        reads.append((table.n, table.signed))
        return value_counts(table)

    monkeypatch.setattr(descent, "_value_counts", counted)
    monkeypatch.setattr(cyclo, "_value_counts", counted)  # factor_scan's copy
    twice = {}
    for name, suite in checks.SUITES.items():
        reads.clear()
        assert all(r.ok for r in suite("desk")), name
        twice[name] = sorted(key for key, k in Counter(reads).items() if k > 1)
    assert twice == dict.fromkeys(checks.SUITES, [])


def test_squares_fail_where_phi_divides_once():
    # Phi_2 divides the rows of 3 and 7 once, Phi_10 the rows of 5 and 6
    pairs = ((3, 2), (7, 2), (5, 10), (6, 10))
    results = checks.SUITES["squares"].body(SimpleNamespace(pairs=pairs), None)
    assert [r.ok for r in results] == [False] * len(pairs)


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "nonsense")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: argument --suite: invalid choice: 'nonsense'")
    assert all(repr(name) in err for name in ("all", *checks.SUITES))


def test_usage_errors(capsys):
    assert run(capsys, "rho")[0] == 2          # missing --n
    assert run(capsys, "frobnicate")[0] == 2   # unknown command
    assert run(capsys, )[0] == 2               # no command
    # factors has no --workers: the scan always runs in one process
    assert run(capsys, "factors", "--n", "5", "--workers", "2")[:2] == (2, "")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("descentlab ")
    ]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_examples_run():
    # each python block up to its closing fence, which doctest would
    # otherwise read as the last example's expected output
    text = README.read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```python\n")[1:]]
    runner, report = doctest.DocTestRunner(), []
    for k, block in enumerate(blocks):
        test = doctest.DocTestParser().get_doctest(block, {}, f"README block {k}", str(README), 0)
        runner.run(test, out=report.append)
    assert runner.tries >= 10
    assert runner.failures == 0, "".join(report)


def test_contract_violation_maps_to_2(capsys):
    code, _, err = run(capsys, "factors", "--n", "0")
    assert code == 2
    assert err.startswith("usage error:")


def test_observations_run(capsys):
    code, out, _ = run(capsys, "observations", "--max-n", "6", "--bound", "60")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("observation ")]
    assert len(lines) == 10
    tags = [l.split()[1].rstrip(":") for l in lines]
    assert tags == ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x"]
    # observations report, they never fail the run
    assert all(("holds" in l) or ("fails" in l) or ("outside" in l) for l in lines)


def test_observations_refuses_past_the_limit_before_scanning(capsys, monkeypatch):
    monkeypatch.setitem(descent.DEFAULT_LIMITS, "unsigned", 5)
    scanned = []
    monkeypatch.setattr(cyclo, "factor_scan", lambda *a, **k: scanned.append(a))
    code, out, err = run(capsys, "observations", "--max-n", "6")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")
    assert scanned == []


@pytest.mark.parametrize("max_n", ["2", "0", "-5"])
def test_observations_refuses_a_range_without_rows(capsys, monkeypatch, max_n):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    code, out, err = run(capsys, "observations", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


# Made-up factor rows, (n, signed) -> factors, that break every observation
# but vii (which reads rho, not the rows): an odd index at unsigned 3, an
# index with a prime above n at 5, a missing gcd at 6, a divisor-order gap at
# 5, a multiplicity that grows along divisibility at 4, a wrong largest index
# for the prime 5, a single Phi_6 at 6, and a missing Phi_12 and Phi_120 in
# the signed rows.  Rows not listed have no factors.
_BROKEN_ROWS = {
    (3, False): ((3, 1),),
    (4, False): ((2, 1), (4, 2)),
    (5, False): ((2, 1), (8, 1), (14, 1)),
    (6, False): ((4, 1), (6, 1)),
    (4, True): ((16, 1),),
    (5, True): ((20, 1), (80, 1)),
    (6, True): ((24, 1),),
}


@pytest.mark.parametrize(
    "max_n, bound, rows, expected",
    [
        (6, 600, _BROKEN_ROWS, [
            "i: fails (odd indexes [(3, False, 3)])",
            "ii: fails (violations [(5, False, 14, 7)])",
            "iii: fails (missing gcds [(6, 4, 6, 2)])",
            "iv: fails (gaps [(5, 2, 4, 8)])",
            "v: fails (violations [(4, 2, 4)])",
            "vi: fails (n=5 largest=14 BAD)",
            "vii: fails (rho != 1/2 rows without factors: []; with factors: [4])",
            "viii: fails (n=4 mult(Phi_4)=2 ok; n=6 mult(Phi_6)=1 BAD)",
            "ix: fails (n=3 Phi_12 MISSING; n=4 Phi_16 present; n=5 Phi_20 present; "
            "n=6 Phi_24 present)",
            "x: fails (n=5 Phi_80 present; n=6 Phi_120 MISSING)",
        ]),
        (5, 9, {}, [
            "i: holds (every factor index is even across 6 scanned rows)",
            "ii: holds (every prime factor of every index stays at or below n)",
            "iii: holds (unsigned index sets are closed under gcd)",
            "iv: holds (unsigned index sets are convex in the divisor order)",
            "v: holds (multiplicity never increases along divisibility)",
            "vi: holds (n=5 outside bound)",
            "vii: holds (rho != 1/2 rows without factors: [4]; with factors: [])",
            "viii: fails (n=4 mult(Phi_4)=0 BAD)",
            "ix: holds (n=3 outside bound; n=4 outside bound; n=5 outside bound)",
            "x: holds (n=5 outside bound)",
        ]),
        (3, 9, {}, [
            "i: holds (every factor index is even across 2 scanned rows)",
            "ii: holds (every prime factor of every index stays at or below n)",
            "iii: holds (unsigned index sets are closed under gcd)",
            "iv: holds (unsigned index sets are convex in the divisor order)",
            "v: holds (multiplicity never increases along divisibility)",
            "vi: holds (no non-Mersenne primes in range)",
            "vii: holds (rho != 1/2 rows without factors: []; with factors: [])",
            "viii: holds (no doubled primes in range)",
            "ix: holds (n=3 outside bound)",
            "x: holds (no rows in range)",
        ]),
    ],
    ids=["broken", "past-bound", "no-rows"],
)
def test_observations_report_each_failing_rule(capsys, monkeypatch, max_n, bound, rows, expected):
    def scan(table, max_index, policy):
        factors = rows.get((table.n, table.signed), ())
        return cyclo.FactorReport(table.n, table.signed, factors, max_index, policy)

    monkeypatch.setattr(cyclo, "factor_scan", scan)
    code, out, err = run(capsys, "observations", "--max-n", str(max_n), "--bound", str(bound))
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"observation {line}" for line in expected]


# Recorded stdout of the two commands, e.g. `python -m descentlab verify
# --desk-scale > tests/data/verify_desk.txt`.  A change that alters either on
# purpose re-records it and says why.
@pytest.mark.parametrize(
    "transcript, argv",
    [
        ("verify_desk.txt", ["verify", "--desk-scale"]),
        ("observations_10_600.txt", ["observations", "--max-n", "10", "--bound", "600"]),
    ],
)
def test_output_matches_the_recorded_transcript(capsys, transcript, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == (Path(__file__).parent / "data" / transcript).read_bytes()


def test_console_script_wiring():
    import descentlab.cli as cli

    # the entry point target referenced in packaging metadata must exist
    assert callable(cli.main)
    assert cli.main.__module__ == "descentlab.cli"


def test_cache_dir_used_by_factors(tmp_path, capsys):
    code, _, _ = run(capsys, "factors", "--n", "5", "--max-index", "60",
                     "--cache-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "table-v1-n5-s0.txt").exists()


def test_large_n_paths_stay_packed(tmp_path, capsys, monkeypatch):
    # table, factors and the cache stream slot blocks; none of them may
    # build the whole tuple of values, and each table holds only its lower
    # half
    def refuse(self):
        raise AssertionError("built the whole tuple of table values")

    monkeypatch.setattr(descent.DescentTable, "values", property(refuse))
    tables = []
    get_table = cli._get_table
    monkeypatch.setattr(cli, "_get_table", lambda args: tables.append(get_table(args)) or tables[-1])
    code, out, err = run(capsys, "table", "--n", "12")
    assert (code, err) == (0, "")
    assert out.strip() == (
        "n=12 signed=0 subsets=2048 sum=479001600 sum_ok=yes max=2702765 max_ok=yes"
    )
    code, out, err = run(capsys, "factors", "--n", "12", "--golden", "builtin")
    assert (code, err) == (0, "")
    assert "golden match" in out
    cache = str(tmp_path)
    cold = run(capsys, "table", "--n", "12", "--signed", "--cache-dir", cache)
    warm = run(capsys, "table", "--n", "12", "--signed", "--cache-dir", cache)
    assert cold == warm and cold[0] == 0 and cold[2] == ""
    assert (tmp_path / "table-v1-n12-s1.txt").exists()
    assert len(tables) == 4
    for table in tables:
        assert len(table.data) == table.width << (table.universe - 1)
        assert table.width == descent._slot_width(table.n, table.signed)


def test_env_smoke_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab.cli", "rho", "--n", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=7 popcount=3 rho=1/2 half_minus_rho=0"


def _src_env() -> dict:
    """The environment of a fresh process that imports this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _loaded_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the last stdout line it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env()
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()[-1].split()


_LOADED = "sorted(m for m in sys.modules if m.startswith('descentlab'))"
_LAUNCH = ["descentlab", "descentlab.cli", "descentlab.errors"]


# A launch imports the modules its command runs and no others; checks,
# which imports every module, is loaded by verify alone.  The standard
# library's fractions costs a launch about 3 ms, and only rho and verify
# make a Fraction.
@pytest.mark.parametrize(
    "argv, modules, fractions",
    [
        (["--help"], [], False),
        (["table", "--n", "3"], ["descent", "numbers"], False),
        (["rho", "--n", "5"], ["descent", "numbers"], True),
        (["factors", "--n", "8"], ["cyclo", "descent", "numbers"], False),
        (
            ["verify", "--suite", "mod4", "--n", "4"],
            ["abcd", "checks", "cyclo", "descent", "numbers", "qsym"],
            True,
        ),
    ],
    ids=["help", "table", "rho", "factors", "verify"],
)
def test_a_launch_loads_only_the_modules_its_command_runs(argv, modules, fractions):
    loaded = _loaded_after(
        f"import sys\nfrom descentlab import cli\ncode = cli.main({argv!r})\n"
        f"print(code, *{_LOADED}, 'fractions' in sys.modules)"
    )
    want = sorted(_LAUNCH + [f"descentlab.{m}" for m in modules])
    assert loaded == ["0", *want, str(fractions)]


def test_top_level_names_load_their_own_module():
    # the README tour's import, from a package that has loaded nothing yet
    loaded = _loaded_after(
        f"import sys\nimport descentlab\nassert {_LOADED} == ['descentlab']\n"
        f"from descentlab import beta_table, rho\nprint(*{_LOADED})"
    )
    assert loaded == ["descentlab", "descentlab.descent", "descentlab.errors", "descentlab.numbers"]


def test_every_top_level_name_is_its_modules_own():
    import importlib

    import descentlab

    for module, names in descentlab._EXPORTS.items():
        for name in names:
            assert getattr(descentlab, name) is getattr(importlib.import_module(f"descentlab.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        descentlab.frobnicate


def test_every_top_level_name_is_used_beyond_its_tests():
    # a public name stays only while a route, a check, the CLI or the bench
    # uses it: some library module other than __init__.py, or some bench
    # script, names it
    import descentlab

    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "descentlab").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in sources + sorted((root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = [name for names in descentlab._EXPORTS.values() for name in names]
    assert [name for name in exported if name not in used] == []


# The summary over the stored half at full scale, in a fresh process: the
# sum doubled and the maximum must still match n! (times 2**n) and the
# Euler number.
@pytest.mark.golden
@pytest.mark.parametrize("argv", [["--n", "23"], ["--n", "18", "--signed"]], ids=["23", "18-signed"])
def test_full_scale_table_summary_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "descentlab", "table", *argv],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "sum_ok=yes" in proc.stdout.split()
    assert "max_ok=yes" in proc.stdout.split()


# Starts the CLI and writes its exit code and peak RSS to the file argv[1].
_LAUNCHER = """
import os, sys
argv = [sys.executable, "-m", "descentlab", *sys.argv[2:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
with open(sys.argv[1], "w") as f:
    f.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}")
"""


def _peak_rss_run(tmp_path, *argv: str) -> tuple[int, str, str, int]:
    """Run the CLI in a fresh process: its exit code, stdout, stderr and
    peak resident set size in KiB (``ru_maxrss``, in KiB on Linux).

    A process's ``ru_maxrss`` takes in the peak of the process it was
    forked from, and this test process reaches about 50 MB, more than most
    CLI runs.  So the CLI is started by a bare interpreter, smaller than a
    launch of ``--help``, which reports the CLI's exit code and peak."""
    out, err, report = tmp_path / "out", tmp_path / "err", tmp_path / "report"
    with out.open("w") as stdout, err.open("w") as stderr:
        subprocess.run(
            [sys.executable, "-c", _LAUNCHER, str(report), *argv],
            stdout=stdout,
            stderr=stderr,
            env=_src_env(),
            check=True,
        )
    code, peak = map(int, report.read_text().split())
    return code, out.read_text(), err.read_text(), peak


# The parity route at its ceiling streams the lower half of the mod-2
# table, 2**29 bits, one 32 KB chunk at a time, and peaks at about 18 MB,
# within 4 MB of a launch of --help.  The lower half held whole, 64 MB,
# peaked at about 85 MB, and the whole table at 149 MB.
@pytest.mark.golden
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_rho_31_peak_rss_subprocess(tmp_path):
    code, out, err, peak = _peak_rss_run(tmp_path, "rho", "--n", "31")
    assert (code, err) == (0, "")
    assert "rho=3991/8192" in out.split()
    assert peak < 24 * 1024


# The largest shipped factor row reads one table value per orbit of the
# complement and the reversal into 64-bit arrays and takes no histogram
# longer than 2**17, and peaks at about 45 MB.  With the table built in two
# halves and copied it peaked at about 49 MB, with the values as boxed ints
# and histograms as long as the pass at about 105 MB, and with a Counter
# over the stored half at about 153 MB.  The tables suite scans every shipped
# row, and no table outlives its scan, since beta_table keeps none, so it
# peaks about as high; holding the last eight tables it peaked at about 66 MB.
@pytest.mark.golden
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize(
    "argv,line",
    [
        ("factors --n 23 --golden builtin", "golden match (n=23 signed=0, indices <= 10000)"),
        ("verify --suite tables", "verify: 38/38 checks passed (full scale)"),
    ],
    ids=["factors-23", "verify-tables"],
)
def test_factor_scan_peak_rss_subprocess(tmp_path, argv, line):
    code, out, err, peak = _peak_rss_run(tmp_path, *argv.split())
    assert (code, err) == (0, "")
    assert line in out.splitlines()
    assert peak < 52 * 1024


# The full-scale table summary builds the lower half, 2**21 slots of E_23's
# 8 bytes (16 MB), in one buffer that becomes the table's bytes, and peaks
# at about 32 MB with a launch's 14 MB.  Two half-size buffers and a copy
# into bytes peaked at about 48 MB, and slots of 23!'s 10 bytes at 56 MB.
@pytest.mark.golden
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_table_23_peak_rss_subprocess(tmp_path):
    code, out, err, peak = _peak_rss_run(tmp_path, "table", "--n", "23")
    assert (code, err) == (0, "")
    assert {"sum_ok=yes", "max_ok=yes"} <= set(out.split())
    assert peak < 36 * 1024


# The same at a size tier-1 runs, measured against a launch of --help so
# that the interpreter's own footprint does not move the bound: table
# --n 22, whose lower half is 2**20 slots of E_22's 7 bytes, 7.3 MB,
# peaks about 9 MB above --help.  A copy of the half into bytes peaked
# 16 MB above it, blocks of 2**16 boxed values 15 MB, and two half-size
# buffers with a copy 16 MB.
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_table_22_peak_rss_over_launch_subprocess(tmp_path):
    code, _, err, idle = _peak_rss_run(tmp_path, "--help")
    assert (code, err) == (0, "")
    code, out, err, peak = _peak_rss_run(tmp_path, "table", "--n", "22")
    assert (code, err) == (0, "")
    assert {"sum_ok=yes", "max_ok=yes"} <= set(out.split())
    assert peak - idle < 12 * 1024


# The parity route at the size the benchmark runs, against a launch of
# --help as above: rho --n 29 streams 2**27 bits in 32 KB chunks and peaks
# about 2.5 MB above --help.  The lower half held whole, 16 MB, peaked about
# 19 MB above it.
@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_rho_29_peak_rss_over_launch_subprocess(tmp_path):
    code, _, err, idle = _peak_rss_run(tmp_path, "--help")
    assert (code, err) == (0, "")
    code, out, err, peak = _peak_rss_run(tmp_path, "rho", "--n", "29")
    assert (code, err) == (0, "")
    assert "rho=29/64" in out.split()
    assert peak - idle < 4 * 1024
