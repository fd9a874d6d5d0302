from fractions import Fraction
from pathlib import Path

import pytest

from descentlab import cyclo, descent
from descentlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_scan(*args, **kwargs):
    raise AssertionError("the factor scan ran")


def test_table_summary_line(capsys):
    code, out, err = run(capsys, "table", "--n", "5")
    assert code == 0
    assert out.strip() == "n=5 signed=0 subsets=16 sum=120 sum_ok=yes max=16 max_ok=yes"
    assert err == ""


def test_table_signed_summary(capsys):
    code, out, _ = run(capsys, "table", "--n", "3", "--signed")
    assert code == 0
    assert "sum=48 sum_ok=yes max=11 max_ok=yes" in out


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


def test_table_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DESCENTLAB_CACHE", str(tmp_path))
    code, _, _ = run(capsys, "table", "--n", "4")
    assert code == 0
    assert (tmp_path / "table-v1-n4-s0.txt").exists()


@pytest.mark.parametrize(
    "content",
    [
        b"not a table\n",
        b"\xff\xfe\x00garbage",
        # the header's n is refused before 2**(n - 1) values are sized
        b"descentlab-table v1 n=100000000000000000000 signed=0\n",
    ],
    ids=["text", "binary", "huge-n"],
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


def test_table_respects_limits(capsys, monkeypatch):
    code, _, err = run(capsys, "table", "--n", "30")
    assert code == 3
    assert err.startswith("resource limit:")
    monkeypatch.setitem(descent.DEFAULT_LIMITS, "unsigned", 10)
    code, out, err = run(capsys, "table", "--n", "11")
    assert code == 3
    assert out == ""
    assert err.startswith("resource limit:")
    code, out, _ = run(capsys, "table", "--n", "11", "--max-n", "11")
    assert code == 0
    assert "sum_ok=yes" in out


def test_table_out_of_memory_maps_to_3(capsys, monkeypatch):
    def build(n, signed):
        raise MemoryError

    monkeypatch.setattr(descent, "_table", build)
    code, out, err = run(capsys, "table", "--n", "20")
    assert code == 3
    assert out == ""
    assert err == "resource limit: table ran out of memory\n"
    assert "Traceback" not in err


def test_rho_respects_limit(capsys):
    code, _, err = run(capsys, "rho", "--n", "40")
    assert code == 3
    assert err.startswith("resource limit:")


def test_factors_respects_index_ceiling(capsys):
    for policy in ("heuristic", "exhaustive"):
        code, out, err = run(
            capsys, "factors", "--n", "5", "--max-index", str(10**12), "--policy", policy
        )
        assert code == 3
        assert out == ""
        assert err.startswith("resource limit:")


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


def test_factors_golden_builtin_match(capsys):
    code, out, _ = run(capsys, "factors", "--n", "7", "--golden", "builtin", "--max-index", "600")
    assert code == 0
    assert "golden match (n=7 signed=0, indices <= 600)" in out


def test_factors_golden_builtin_signed(capsys):
    code, out, _ = run(
        capsys, "factors", "--n", "4", "--signed", "--golden", "builtin", "--max-index", "600"
    )
    assert code == 0
    assert "golden match" in out


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


def test_factors_golden_missing_row(capsys, monkeypatch):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    # recorded unsigned rows start at n=3
    code, out, err = run(capsys, "factors", "--n", "2", "--max-index", "4", "--golden", "builtin")
    assert (code, out) == (2, "")
    assert "no golden row" in err


@pytest.mark.parametrize("line", ["n=99 signed=1: -", "n=15 signed=1: -", "n=14 signed=0: -"])
def test_factors_golden_row_for_another_table(tmp_path, capsys, monkeypatch, line):
    monkeypatch.setattr(cyclo, "factor_scan", _no_scan)
    recorded = tmp_path / "row.txt"
    recorded.write_text(line + "\n")
    code, out, err = run(capsys, "factors", "--n", "15", "--golden", str(recorded))
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage error: golden file {recorded} holds {line[:-3]}")


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


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nonsense")
    assert code == 2
    assert "invalid choice" in err


def test_usage_errors(capsys):
    assert run(capsys, "rho")[0] == 2          # missing --n
    assert run(capsys, "frobnicate")[0] == 2   # unknown command
    assert run(capsys, )[0] == 2               # no command


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
    # build the whole tuple of values
    def refuse(self):
        raise AssertionError("built the whole tuple of table values")

    monkeypatch.setattr(descent.DescentTable, "values", property(refuse))
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


def test_env_smoke_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "descentlab.cli", "rho", "--n", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "n=7 popcount=3 rho=1/2 half_minus_rho=0"
