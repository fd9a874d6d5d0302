"""Acceptance gate: one test per shipped claim, one pass/fail line each.

Every test prints `ACCEPTANCE <k> <PASS|FAIL>: <detail>` before asserting, so
a plain `pytest -v tests/test_acceptance.py` reads as a checklist.  Claims
1-10 run the checks of :mod:`descentlab.checks` that state them, at full
scale; claim 11 runs `verify --suite all --desk-scale` through the CLI.
Each check compares two independent routes to its numbers (closed form and
brute force, parity bitset and exact table, flag enumerators and tables,
factor scans and the recorded rows), so the gate states each claim once and
`verify` states it with the same code.
"""

import time
from functools import lru_cache

from descentlab import checks
from descentlab.cli import main

# claim -> (what it says, the check name prefixes that state it); a prefix is
# a suite name or a suite name and the start of its check names
CLAIMS = {
    1: ("rho at n = 1, 3, 7, 15, 31 is 1, 1/2, 1/2, 29/64, 3991/8192", ("table1",)),
    2: (
        "rho is constant on binary-weight classes; the parity route agrees",
        ("popcount", "parity"),
    ),
    3: (
        "unsigned factor rows 3..16 match the recorded rows at bound 10000; "
        "the values at -1, i and primitive 2p-th roots decide Phi_2, Phi_4, Phi_2p",
        ("tables.unsigned", "theoremQ"),
    ),
    4: ("signed factor rows 2..10 match the recorded rows at bound 10000", ("tables.signed",)),
    5: (
        "closed-form tables equal enumeration and have the complement and "
        "reversal symmetries",
        ("oracle", "symmetry"),
    ),
    6: ("mod-4 classes (1, 3) split evenly, unsigned n = 4, 8, 16, signed n <= 14", ("mod4",)),
    7: (
        "mod-2p classes (1, 2p-1, p-1, p+1) carry 2^(n-3) each where rho = 1/2; "
        "the mod-p predictions match",
        ("mod2p", "modp"),
    ),
    8: (
        "Phi_2^2, Phi_4^2, Phi_2p^2 divide where claimed; Phi_4p divides the "
        "signed prime rows exactly once",
        ("squares", "signed4p"),
    ),
    9: ("the derivative residue identity mod Phi_4p holds for p <= 13", ("derivative",)),
    10: (
        "cd-index, odd-run, round-trip, product and flag-route identities; "
        "divisor products of cyclotomics rebuild t^k - 1",
        ("structure", "cyclounit"),
    ),
}


def report(k: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def full_scale(suite: str) -> tuple:
    """The results of one suite at full scale, run once per session."""
    return tuple(checks.SUITES[suite]("full"))


def selected(prefixes) -> list:
    out = []
    for prefix in prefixes:
        suite = prefix.split(".")[0]
        out += [r for r in full_scale(suite) if r.name.startswith(prefix)]
    return out


def claim(k: int, results=None, timely: bool = True, timing: str = "") -> None:
    summary, prefixes = CLAIMS[k]
    if results is None:
        results = selected(prefixes)
    failed = [r.name for r in results if not r.ok]
    report(
        k,
        bool(results) and not failed and timely,
        f"{summary} ({', '.join(prefixes)}: {len(results) - len(failed)}/"
        f"{len(results)} checks pass at full scale{timing})"
        + (f"; failures {failed}" if failed else ""),
    )


def test_c01_odd_fraction_landmarks():
    # one instance at a time, so that each can be held to a time bound
    table1 = checks.SUITES["table1"]
    results = []
    small_s = big_s = 0.0
    for n in table1.full["ns"]:
        t0 = time.monotonic()
        results += table1("full", n)
        if n < 31:
            small_s += time.monotonic() - t0
        else:
            big_s = time.monotonic() - t0
    claim(
        1,
        results,
        timely=small_s < 60 and big_s < 600,
        timing=f"; rho(1,3,7,15) in {small_s:.2f}s, rho(31) in {big_s:.1f}s",
    )


def test_c02_odd_fraction_popcount_classes():
    claim(2)


def test_c03_unsigned_factor_rows():
    claim(3)


def test_c04_signed_factor_rows():
    claim(4)


def test_c05_closed_form_equals_enumeration():
    claim(5)


def test_c06_mod_four_split():
    claim(6)


def test_c07_mod_2p_split():
    claim(7)


def test_c08_square_and_once_only_factors():
    claim(8)


def test_c09_derivative_identity():
    claim(9)


def test_c10_structural_identities():
    claim(10)


def test_c11_cli_verify_desk_scale(capsys):
    code = main(["verify", "--suite", "all", "--desk-scale"])
    out = capsys.readouterr().out
    summary = out.strip().splitlines()[-1]
    with capsys.disabled():
        report(11, code == 0 and "FAIL" not in out, f"exit={code}; {summary}")


def test_every_suite_runs_at_full_scale_in_a_claim():
    # the unit tests leave each claim to its checks, so a check that no
    # claim's prefixes select would run in verify and nowhere in the gate
    claimed = {p.split(".")[0] for _, prefixes in CLAIMS.values() for p in prefixes}
    assert claimed == set(checks.SUITES)
    every = {r.name for suite in checks.SUITES for r in full_scale(suite)}
    assert {r.name for _, prefixes in CLAIMS.values() for r in selected(prefixes)} == every
