"""Command line front end.

Commands: ``table`` (build or load a descent table and summarize it),
``rho`` (odd-fraction statistics), ``factors`` (cyclotomic factor scan with
optional golden comparison), ``verify`` (the theorem and identity suites),
``observations`` (empirical regularities report, never asserting).

Exit codes: 0 success, 1 mismatch, 2 usage error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

from . import abcd, cyclo, descent, numbers, qsym
from .errors import (
    CacheError,
    ContractViolationError,
    DescentLabError,
    ResourceLimitError,
)

__all__ = ["RunConfig", "CheckResult", "build_parser", "main"]

ENV_CACHE = "DESCENTLAB_CACHE"


@dataclass
class RunConfig:
    """Normalized command options shared by the subcommand handlers."""

    command: str = "verify"
    n: int | None = None
    signed: bool = False
    max_n: int | None = None
    max_index: int = 10_000
    multiplicity: int = 3
    policy: str = "heuristic"
    workers: int = 1
    cache_dir: str | None = None
    fmt: str = "text"
    golden: str | None = None
    out: str | None = None
    suite: str = "all"
    desk_scale: bool = False
    bound: int = 600


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


# ---------------------------------------------------------------------------
# table plumbing


def _cache_path(cfg: RunConfig, n: int, signed: bool) -> str | None:
    cache_dir = cfg.cache_dir or os.environ.get(ENV_CACHE)
    if not cache_dir:
        return None
    return os.path.join(cache_dir, f"table-v1-n{n}-s{int(signed)}.txt")


def _get_table(cfg: RunConfig, n: int, signed: bool) -> descent.DescentTable:
    path = _cache_path(cfg, n, signed)
    if path and os.path.exists(path):
        try:
            table = descent.load_table(path)
            if table.n == n and table.signed == signed:
                return table
            raise CacheError(
                f"{path}: holds n={table.n} signed={int(table.signed)}, "
                f"wanted n={n} signed={int(signed)}"
            )
        except CacheError as exc:
            print(f"warning: ignoring bad cache: {exc}", file=sys.stderr)
    table = descent.beta_table(n, signed, max_n=cfg.max_n)
    if path:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        descent.save_table(table, path)
    return table


def cmd_table(cfg: RunConfig) -> int:
    table = _get_table(cfg, cfg.n, cfg.signed)
    total = sum(table.values)
    expected_total = math.factorial(cfg.n) << (cfg.n if cfg.signed else 0)
    top = max(table.values)
    expected_top = (
        numbers.signed_euler_number(cfg.n)
        if cfg.signed
        else numbers.euler_number(cfg.n)
    )
    if cfg.out:
        descent.save_table(table, cfg.out)
    print(
        f"n={table.n} signed={int(table.signed)} subsets={len(table.values)} "
        f"sum={total} sum_ok={'yes' if total == expected_total else 'no'} "
        f"max={top} max_ok={'yes' if top == expected_top else 'no'}"
    )
    ok = total == expected_total and top == expected_top
    return 0 if ok else 1


def cmd_rho(cfg: RunConfig) -> int:
    value = descent.rho(cfg.n)
    print(
        f"n={cfg.n} popcount={cfg.n.bit_count()} rho={value} "
        f"half_minus_rho={Fraction(1, 2) - value}"
    )
    return 0


def cmd_factors(cfg: RunConfig) -> int:
    table = _get_table(cfg, cfg.n, cfg.signed)
    report = cyclo.factor_scan(
        table,
        max_index=cfg.max_index,
        max_multiplicity=cfg.multiplicity,
        policy=cfg.policy,
        workers=cfg.workers,
    )
    if cfg.fmt == "text":
        print(cyclo.format_report(report))
    elif cfg.fmt == "csv":
        print("n,signed,index,multiplicity")
        for m, k in report.factors:
            print(f"{report.n},{int(report.signed)},{m},{k}")
    else:
        print(json.dumps(cyclo.report_to_json_dict(report), sort_keys=True))
    if cfg.golden is None:
        return 0
    if cfg.golden == "builtin":
        rows = cyclo.load_golden(cfg.signed)
        if cfg.n not in rows:
            print(f"no golden row for n={cfg.n} signed={int(cfg.signed)}", file=sys.stderr)
            return 2
        golden = rows[cfg.n]
    else:
        try:
            text = Path(cfg.golden).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ContractViolationError(
                f"cannot read golden file {cfg.golden}: {exc}"
            ) from exc
        golden = cyclo.parse_report_line(text.strip())
    # golden rows were recorded with bound 10000
    cap = min(cfg.max_index, golden.bound or 10_000)
    mine = tuple((m, k) for m, k in report.factors if m <= cap)
    theirs = tuple((m, k) for m, k in golden.factors if m <= cap)
    if mine == theirs:
        print(f"golden match (n={cfg.n} signed={int(cfg.signed)}, indices <= {cap})")
        return 0
    print("golden mismatch:", file=sys.stderr)
    print(f"  computed: {cyclo.format_report(report)}", file=sys.stderr)
    print(
        f"  recorded: {cyclo.format_report(golden, include_scan_info=False)}",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# verify suites


def _filter_n(cfg: RunConfig, ns) -> list[int]:
    ns = list(ns)
    if cfg.n is not None:
        ns = [n for n in ns if n == cfg.n]
    return ns


def _suite_table1(cfg: RunConfig) -> list[CheckResult]:
    expected = {
        1: Fraction(1),
        3: Fraction(1, 2),
        7: Fraction(1, 2),
        15: Fraction(29, 64),
        31: Fraction(3991, 8192),
    }
    ns = [1, 3, 7, 15] + ([] if cfg.desk_scale else [31])
    out = []
    for n in _filter_n(cfg, ns):
        value = descent.rho(n)
        out.append(
            CheckResult(
                f"table1.rho.n{n}",
                value == expected[n],
                f"rho={value} expected={expected[n]} "
                f"half_minus_rho={Fraction(1, 2) - value}",
            )
        )
    return out


def _suite_popcount(cfg: RunConfig) -> list[CheckResult]:
    top = 16 if cfg.desk_scale else 24
    out = []
    classes: dict[int, list[int]] = {}
    for n in _filter_n(cfg, range(1, top + 1)):
        classes.setdefault(n.bit_count(), []).append(n)
    for k, ns in sorted(classes.items()):
        values = {descent.rho(n) for n in ns}
        out.append(
            CheckResult(
                f"popcount.class{k}",
                len(values) == 1,
                f"n={ns} rho={sorted(values)}",
            )
        )
    dual_top = 14 if cfg.desk_scale else 20
    bad = []
    for n in _filter_n(cfg, range(1, dual_top + 1)):
        oc = qsym.odd_fundamental_count(n)
        if Fraction(oc, 1 << (n - 1)) != descent.rho(n):
            bad.append(n)
    out.append(
        CheckResult(
            "popcount.dualroute",
            not bad,
            f"odd counts agree with parities for n<={dual_top}"
            + (f"; mismatches at {bad}" if bad else ""),
        )
    )
    return out


def _suite_oracle(cfg: RunConfig) -> list[CheckResult]:
    out = []
    for n in _filter_n(cfg, range(1, 9)):
        ok = descent.beta_table(n).values == descent.brute_force_table(n).values
        out.append(CheckResult(f"oracle.unsigned.n{n}", ok, "closed form == enumeration"))
    for n in _filter_n(cfg, range(1, 7)):
        ok = (
            descent.beta_table(n, signed=True).values
            == descent.brute_force_table(n, signed=True).values
        )
        out.append(CheckResult(f"oracle.signed.n{n}", ok, "closed form == enumeration"))
    return out


def _suite_parity(cfg: RunConfig) -> list[CheckResult]:
    top = 10 if cfg.desk_scale else 14
    out = []
    for n in _filter_n(cfg, range(1, top + 1)):
        bits = descent.beta_parity_bitset(n)
        table = descent.beta_table(n)
        ok = all(
            (bits >> k & 1) == (v & 1) for k, v in enumerate(table.values)
        )
        out.append(CheckResult(f"parity.n{n}", ok, "bitset == exact table mod 2"))
    return out


def _suite_symmetry(cfg: RunConfig) -> list[CheckResult]:
    top = 10 if cfg.desk_scale else 12
    out = []
    for n in _filter_n(cfg, range(2, top + 1)):
        values = descent.beta_table(n).values
        size = 1 << (n - 1)
        full = size - 1
        comp_ok = all(values[m] == values[full ^ m] for m in range(size))
        rev_ok = True
        for m in range(size):
            r = 0
            for i in range(n - 1):
                if m >> i & 1:
                    r |= 1 << (n - 2 - i)
            if values[m] != values[r]:
                rev_ok = False
                break
        out.append(
            CheckResult(
                f"symmetry.unsigned.n{n}",
                comp_ok and rev_ok,
                "complement and reversal invariance",
            )
        )
    for n in _filter_n(cfg, range(2, top + 1)):
        values = descent.beta_table(n, signed=True).values
        full = (1 << n) - 1
        ok = all(values[m] == values[full ^ m] for m in range(1 << n))
        out.append(CheckResult(f"symmetry.signed.n{n}", ok, "complement invariance"))
    return out


def _suite_mod4(cfg: RunConfig) -> list[CheckResult]:
    out = []
    unsigned_ns = [4, 8] if cfg.desk_scale else [4, 8, 16]
    for n in _filter_n(cfg, unsigned_ns):
        c = descent.residue_histogram(descent.beta_table(n), 4).counts
        expect = 1 << (n - 2)
        ok = c[0] == 0 and c[2] == 0 and c[1] == expect and c[3] == expect
        out.append(
            CheckResult(
                f"mod4.unsigned.n{n}", ok, f"counts=({c[1]}, {c[3]}) expected={expect}"
            )
        )
    top = 10 if cfg.desk_scale else 14
    for n in _filter_n(cfg, range(2, top + 1)):
        c = descent.residue_histogram(descent.beta_table(n, signed=True), 4).counts
        expect = 1 << (n - 1)
        ok = c[0] == 0 and c[2] == 0 and c[1] == expect and c[3] == expect
        out.append(
            CheckResult(
                f"mod4.signed.n{n}", ok, f"counts=({c[1]}, {c[3]}) expected={expect}"
            )
        )
    return out


_MODP_PAIRS = [
    (6, 3),
    (9, 9),
    (9, 3),
    (10, 5),
    (12, 3),
    (14, 7),
    (15, 5),
    (15, 3),
    (18, 9),
]


def _suite_modp(cfg: RunConfig) -> list[CheckResult]:
    pairs = [(n, q) for n, q in _MODP_PAIRS if not cfg.desk_scale or n <= 12]
    if cfg.n is not None:
        pairs = [(n, q) for n, q in pairs if n == cfg.n]
    out = []
    for n, q in pairs:
        p = numbers.prime_divisors(q)[0]
        table = descent.beta_table(n)
        bad = sum(
            1
            for mask, v in enumerate(table.values)
            if descent.mod_p_prediction(n, q, mask) != v % p
        )
        out.append(
            CheckResult(
                f"modp.n{n}.q{q}",
                bad == 0,
                f"prediction matches beta mod {p} on all {1 << (n - 1)} subsets"
                + (f"; {bad} mismatches" if bad else ""),
            )
        )
    return out


_MOD2P_CASES = [(5, 5), (6, 3), (9, 3), (10, 5), (14, 7), (18, 3)]


def _suite_mod2p(cfg: RunConfig) -> list[CheckResult]:
    cases = [(n, p) for n, p in _MOD2P_CASES if not cfg.desk_scale or n <= 10]
    if cfg.n is not None:
        cases = [(n, p) for n, p in cases if n == cfg.n]
    out = []
    for n, p in cases:
        m = 2 * p
        c = descent.residue_histogram(descent.beta_table(n), m).counts
        expect = 1 << (n - 3)
        allowed = {1, m - 1, p - 1, p + 1}
        stray = sum(c[r] for r in range(m) if r not in allowed)
        ok = (
            c[1] == c[m - 1] == c[p - 1] == c[p + 1] == expect
            and stray == 0
            and sum(c) == 1 << (n - 1)
        )
        out.append(
            CheckResult(
                f"mod2p.n{n}.p{p}",
                ok,
                f"classes (1,{m - 1},{p - 1},{p + 1}) mod {m} -> "
                f"({c[1]},{c[m - 1]},{c[p - 1]},{c[p + 1]}) expected={expect}",
            )
        )
    return out


def _odd_count(n: int) -> int:
    value = descent.rho(n) * (1 << (n - 1))
    return int(value)


def _root_pair_residue(coeff: int, m: int) -> cyclo.IntPoly:
    shape = cyclo.IntPoly.from_terms({1: coeff, m - 1: coeff})
    return cyclo.divmod_poly(shape, cyclo.cyclotomic(m))[1]


def _suite_theoremq(cfg: RunConfig) -> list[CheckResult]:
    out = []
    top = 12 if cfg.desk_scale else 18
    bad = []
    for n in _filter_n(cfg, range(1, top + 1)):
        got = cyclo.eval_special(descent.beta_table(n), -1)
        want = (1 << (n - 1)) - 2 * _odd_count(n)
        if got != want:
            bad.append(n)
    out.append(
        CheckResult(
            "theoremQ.minus1",
            not bad,
            f"value at -1 matches 2^n(1/2 - rho) for n<={top}"
            + (f"; mismatches at {bad}" if bad else ""),
        )
    )
    for n in _filter_n(cfg, [4, 8] if cfg.desk_scale else [4, 8, 16]):
        got = cyclo.eval_special(descent.beta_table(n), "i")
        out.append(
            CheckResult(
                f"theoremQ.imag.n{n}", got == (0, 0), f"value at i = {got}"
            )
        )
    for q in _filter_n(cfg, [5] if cfg.desk_scale else [5, 9]):
        p = 3 if q == 9 else q
        m = 2 * p
        lhs = cyclo.eval_at_primitive_root(descent.beta_table(q), m)
        coeff = _odd_count(q) - (1 << (q - 2))
        rhs = _root_pair_residue(coeff, m)
        out.append(
            CheckResult(
                f"theoremQ.primepower.q{q}",
                lhs == rhs,
                f"value at primitive {m}th root = coeff {coeff} times (t + t^{m - 1})",
            )
        )
    for q in [3, 5] if cfg.desk_scale else [3, 5, 7, 9]:
        n = 2 * q
        if cfg.n is not None and n != cfg.n:
            continue
        p = 3 if q == 9 else q
        m = 2 * p
        lhs = cyclo.eval_at_primitive_root(descent.beta_table(n), m)
        coeff = (1 << q) * _odd_count(q) - (1 << (2 * q - 2))
        rhs = _root_pair_residue(coeff, m)
        out.append(
            CheckResult(
                f"theoremQ.double.n{n}",
                lhs == rhs,
                f"value at primitive {m}th root = coeff {coeff} times (t + t^{m - 1})",
            )
        )
    # negative controls: odd prime power indexes never divide, and even ones
    # with the wrong prime are blocked by the value at -1
    control_ns = [4, 8, 15] if cfg.desk_scale else [4, 8, 15, 16]
    odd_pp = [3, 5, 7, 9, 11, 13, 25, 27]
    for n in _filter_n(cfg, control_ns):
        table = descent.beta_table(n)
        hits = [q for q in odd_pp if cyclo.divides_order(table, q, 0)]
        out.append(
            CheckResult(
                f"theoremQ.oddcontrol.n{n}",
                not hits,
                f"no odd prime power index divides (tried {odd_pp})"
                + (f"; hits {hits}" if hits else ""),
            )
        )
        if n in (4, 8, 16):
            blocked = odd_pp
        else:
            blocked = [5, 25, 7, 11, 13]
        hits = [2 * q for q in blocked if cyclo.divides_order(table, 2 * q, 0)]
        out.append(
            CheckResult(
                f"theoremQ.evencontrol.n{n}",
                not hits,
                f"no blocked doubled index divides (tried {[2 * q for q in blocked]})"
                + (f"; hits {hits}" if hits else ""),
            )
        )
    if not cfg.desk_scale and cfg.n in (None, 31):
        value = (1 << 30) - 2 * _odd_count(31)
        odd_part = value
        while odd_part % 2 == 0:
            odd_part //= 2
        ok = value == 105 << 18 and odd_part == 105
        out.append(
            CheckResult(
                "theoremQ.minus1.n31",
                ok,
                f"value at -1 = {value} = 105*2^18; odd part {odd_part} has no "
                "prime factor above 7, blocking doubled indexes of larger primes",
            )
        )
    return out


def _suite_squares(cfg: RunConfig) -> list[CheckResult]:
    out = []
    ns2 = [5, 6, 9, 10, 12] if cfg.desk_scale else [5, 6, 9, 10, 12, 17, 18, 20]
    for n in _filter_n(cfg, ns2):
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, 2, 0) and cyclo.divides_order(table, 2, 1)
        out.append(CheckResult(f"squares.phi2.n{n}", ok, "Phi_2^2 divides"))
    ns4 = [4, 8] if cfg.desk_scale else [4, 8, 16]
    for n in _filter_n(cfg, ns4):
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, 4, 0) and cyclo.divides_order(table, 4, 1)
        out.append(CheckResult(f"squares.phi4.n{n}", ok, "Phi_4^2 divides"))
    doubles = [(6, 6), (10, 10)] if cfg.desk_scale else [(6, 6), (10, 10), (18, 6)]
    for n, m in doubles:
        if cfg.n is not None and n != cfg.n:
            continue
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, m, 0) and cyclo.divides_order(table, m, 1)
        out.append(CheckResult(f"squares.phi{m}.n{n}", ok, f"Phi_{m}^2 divides"))
    return out


def _suite_signed4p(cfg: RunConfig) -> list[CheckResult]:
    ps = [3, 5, 7] if cfg.desk_scale else [3, 5, 7, 11, 13]
    out = []
    for p in _filter_n(cfg, ps):
        table = descent.beta_table(p, signed=True)
        m = 4 * p
        once = cyclo.divides_order(table, m, 0)
        twice = once and cyclo.divides_order(table, m, 1)
        out.append(
            CheckResult(
                f"signed4p.p{p}",
                once and not twice,
                f"Phi_{m} divides the signed polynomial exactly once",
            )
        )
    return out


def _suite_derivative(cfg: RunConfig) -> list[CheckResult]:
    ps = [3, 5] if cfg.desk_scale else [3, 5, 7, 11, 13]
    magnitudes = {3: 24, 5: 800, 7: 54656}
    out = []
    for p in _filter_n(cfg, ps):
        chk = cyclo.signed_derivative_theorem_check(p)
        ok = chk.ok and (p not in magnitudes or chk.magnitude == magnitudes[p])
        out.append(
            CheckResult(
                f"derivative.p{p}",
                ok,
                f"derivative identity at 4p holds, magnitude {chk.magnitude}",
            )
        )
    return out


def _suite_structure(cfg: RunConfig) -> list[CheckResult]:
    out = []
    top_eq2 = 7 if cfg.desk_scale else 9
    for n in _filter_n(cfg, range(1, top_eq2 + 1)):
        lhs = abcd.ab_to_cd(abcd.ab_index(descent.beta_table(n, signed=True)))
        rhs = abcd.omega(abcd.prepend_a(abcd.ab_index(descent.beta_table(n))))
        out.append(
            CheckResult(
                f"structure.cube.n{n}",
                lhs.terms == rhs.terms,
                "signed cd-index == omega of a times the unsigned ab-index",
            )
        )
    top_b = 8 if cfg.desk_scale else 10
    for n in _filter_n(cfg, range(2, top_b + 1)):
        poly = abcd.ab_index(descent.beta_table(n))
        bad = sum(
            1
            for t in range(1 << (n - 1))
            if abcd.has_odd_run(t, n - 1) and abcd.signed_sum(poly, t) != 0
        )
        out.append(
            CheckResult(
                f"structure.oddrun.B.n{n}",
                bad == 0,
                "signed sums vanish on every odd-run pattern",
            )
        )
    top_c = 6 if cfg.desk_scale else 8
    for n in _filter_n(cfg, range(2, top_c + 1)):
        poly = abcd.ab_index(descent.beta_table(n, signed=True))
        bad = sum(
            1
            for t in range(1 << n)
            if abcd.has_odd_run(t, n) and abcd.signed_sum(poly, t) != 0
        )
        out.append(
            CheckResult(
                f"structure.oddrun.C.n{n}",
                bad == 0,
                "signed sums vanish on every odd-run pattern",
            )
        )
    top_rt = 8 if cfg.desk_scale else 10
    bad_rt = []
    for n in _filter_n(cfg, range(1, top_rt + 1)):
        poly = abcd.ab_index(descent.beta_table(n))
        if abcd.cd_to_ab(abcd.ab_to_cd(poly)).coeffs != poly.coeffs:
            bad_rt.append(n)
    out.append(
        CheckResult(
            "structure.roundtrip",
            not bad_rt,
            f"cd rewriting round-trips the unsigned ab-index for n<={top_rt}"
            + (f"; failures at {bad_rt}" if bad_rt else ""),
        )
    )
    top_mac = 7 if cfg.desk_scale else 9
    bad_pairs = 0
    total_pairs = 0
    for m in range(1, top_mac):
        for n2 in range(1, top_mac - m + 1):
            for u in range(1 << (m - 1)):
                for v in range(1 << (n2 - 1)):
                    chk = abcd.macmahon_multiplication_check(m, n2, u, v)
                    total_pairs += 1
                    if not chk.product_holds:
                        bad_pairs += 1
    out.append(
        CheckResult(
            "structure.product",
            bad_pairs == 0,
            f"product identity holds on all {total_pairs} cases with m+n<={top_mac}",
        )
    )
    misprint = abcd.macmahon_multiplication_check(1, 1, 0, 0)
    out.append(
        CheckResult(
            "structure.product.misprint",
            misprint.product_holds and not misprint.printed_holds,
            f"additive reading fails at m=n=1 ({misprint.lhs} vs {misprint.printed_rhs})",
        )
    )
    coef_ps = [3, 5] if cfg.desk_scale else [3, 5, 7]
    expected_coef = {3: 6, 5: 100, 7: 3416}
    for p in _filter_n(cfg, coef_ps):
        cd = abcd.ab_to_cd(abcd.ab_index(descent.beta_table(p, signed=True)))
        word = "d" * ((p - 1) // 2) + "c"
        got = abcd.cd_coefficient(cd, word)
        out.append(
            CheckResult(
                f"structure.cdcoef.p{p}",
                got == expected_coef[p],
                f"[{word}] = {got}, expected {expected_coef[p]}",
            )
        )
    top_q = 8 if cfg.desk_scale else 10
    bad_q = []
    for n in _filter_n(cfg, range(1, top_q + 1)):
        if qsym.m_to_l(qsym.f_boolean(n)).coeffs != descent.beta_table(n).values:
            bad_q.append(("boolean", n))
        if (
            qsym.m_to_l(qsym.f_cubical_B(n)).coeffs
            != descent.beta_table(n, signed=True).values
        ):
            bad_q.append(("cube", n))
    out.append(
        CheckResult(
            "structure.flagroutes",
            not bad_q,
            f"flag enumerator L-coefficients match both tables for n<={top_q}"
            + (f"; failures {bad_q}" if bad_q else ""),
        )
    )
    lists = [(1, 1, 2), (2, 1), (3,), (1, 1, 1, 1)]
    if not cfg.desk_scale:
        lists += [(2, 2, 1), (4, 2), (1, 2, 3)]
    bad_lists = []
    for parts in lists:
        via_osp = qsym.product_monomial_singletons(parts)
        # M_(a) has coefficient 1 on the one-part composition, which is mask 0
        monos = [
            qsym.QSymPoly(a, "M", (1,) + (0,) * ((1 << (a - 1)) - 1)) for a in parts
        ]
        acc = monos[0]
        for mono in monos[1:]:
            acc = qsym.multiply(acc, mono)
        if acc.coeffs != via_osp.coeffs:
            bad_lists.append(parts)
    out.append(
        CheckResult(
            "structure.partitionproduct",
            not bad_lists,
            "ordered set partition expansion matches the quasi-shuffle product"
            + (f"; failures {bad_lists}" if bad_lists else ""),
        )
    )
    return out


def _suite_cyclounit(cfg: RunConfig) -> list[CheckResult]:
    out = []
    rng = random.Random(1896)
    if cfg.desk_scale:
        ks = sorted(rng.sample(range(1, 2001), 30))
    else:
        ks = sorted(rng.sample(range(1, 10_001), 100))
    ks = sorted(set(ks) | {1, 2, 3, 4, 6, 12, 105})
    bad = []
    for k in ks:
        prod = cyclo.IntPoly((1,))
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclo.cyclotomic(d)
        if prod != cyclo.IntPoly.from_terms({0: -1, k: 1}):
            bad.append(k)
    out.append(
        CheckResult(
            "cyclounit.product",
            not bad,
            f"product over divisors rebuilds t^k - 1 for {len(ks)} indexes"
            + (f"; failures at {bad}" if bad else ""),
        )
    )
    bad_units = []
    for m in range(2, 200):
        value = cyclo.cyclotomic(m)(1)
        primes = numbers.prime_divisors(m)
        expected = primes[0] if len(primes) == 1 else 1
        if value != expected:
            bad_units.append(m)
    out.append(
        CheckResult(
            "cyclounit.at1",
            not bad_units,
            "value at 1 is p on prime power indexes and 1 otherwise (m < 200)"
            + (f"; failures at {bad_units}" if bad_units else ""),
        )
    )
    return out


def _suite_tables(cfg: RunConfig) -> list[CheckResult]:
    out = []
    if cfg.desk_scale:
        unsigned_ns = range(3, 11)
        signed_ns = range(2, 8)
        bound = 512
    else:
        unsigned_ns = range(3, 17)
        signed_ns = range(2, 11)
        bound = 10_000
    golden_u = cyclo.load_golden(False)
    golden_s = cyclo.load_golden(True)
    for signed, ns, golden in ((False, unsigned_ns, golden_u), (True, signed_ns, golden_s)):
        for n in _filter_n(cfg, ns):
            report = cyclo.factor_scan(
                descent.beta_table(n, signed),
                max_index=bound,
                policy=cfg.policy,
                workers=cfg.workers,
            )
            want = tuple((m, k) for m, k in golden[n].factors if m <= bound)
            ok = report.factors == want
            out.append(
                CheckResult(
                    f"tables.{'signed' if signed else 'unsigned'}.n{n}",
                    ok,
                    cyclo.format_report(report, include_scan_info=False)
                    + ("" if ok else f" != recorded {want}"),
                )
            )
    return out


_SUITES: dict[str, Callable[[RunConfig], list[CheckResult]]] = {
    "cyclounit": _suite_cyclounit,
    "oracle": _suite_oracle,
    "parity": _suite_parity,
    "symmetry": _suite_symmetry,
    "popcount": _suite_popcount,
    "table1": _suite_table1,
    "mod4": _suite_mod4,
    "modp": _suite_modp,
    "mod2p": _suite_mod2p,
    "theoremQ": _suite_theoremq,
    "squares": _suite_squares,
    "signed4p": _suite_signed4p,
    "derivative": _suite_derivative,
    "structure": _suite_structure,
    "tables": _suite_tables,
}


def cmd_verify(cfg: RunConfig) -> int:
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    failures = 0
    ran = 0
    for name in names:
        for result in _SUITES[name](cfg):
            ran += 1
            status = "PASS" if result.ok else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
            if not result.ok:
                failures += 1
    if ran == 0:
        raise ContractViolationError(
            f"no checks selected (suite={cfg.suite}, n={cfg.n})"
        )
    scale = "desk" if cfg.desk_scale else "full"
    print(f"verify: {ran - failures}/{ran} checks passed ({scale} scale)")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# observations


def _obs_line(tag: str, status: str, detail: str) -> None:
    print(f"observation {tag}: {status} ({detail})")


def cmd_observations(cfg: RunConfig) -> int:
    max_n = cfg.max_n if cfg.max_n is not None else 12
    bound = cfg.bound
    unsigned = {}
    for n in range(3, max_n + 1):
        unsigned[n] = cyclo.factor_scan(
            descent.beta_table(n),
            max_index=bound,
            policy="exhaustive",
            workers=cfg.workers,
        )
    signed_top = min(max_n, 8)
    signed = {}
    for n in range(3, signed_top + 1):
        signed[n] = cyclo.factor_scan(
            descent.beta_table(n, signed=True),
            max_index=bound,
            policy="exhaustive",
            workers=cfg.workers,
        )

    def indexes(report):
        return [m for m, _ in report.factors]

    every = list(unsigned.values()) + list(signed.values())
    odd_hits = [
        (r.n, r.signed, m) for r in every for m in indexes(r) if m % 2
    ]
    _obs_line(
        "i",
        "holds" if not odd_hits else "fails",
        f"every factor index is even across {len(every)} scanned rows"
        if not odd_hits
        else f"odd indexes {odd_hits}",
    )

    rough = [
        (r.n, r.signed, m, p)
        for r in every
        for m in indexes(r)
        for p in numbers.prime_divisors(m)
        if p > r.n
    ]
    _obs_line(
        "ii",
        "holds" if not rough else "fails",
        "every prime factor of every index stays at or below n"
        if not rough
        else f"violations {rough}",
    )

    gcd_bad = []
    for r in unsigned.values():
        present = set(indexes(r))
        for a in present:
            for b in present:
                if a < b and math.gcd(a, b) not in present:
                    gcd_bad.append((r.n, a, b, math.gcd(a, b)))
    _obs_line(
        "iii",
        "holds" if not gcd_bad else "fails",
        "unsigned index sets are closed under gcd"
        if not gcd_bad
        else f"missing gcds {gcd_bad}",
    )

    convex_bad = []
    for r in unsigned.values():
        present = set(indexes(r))
        for a in present:
            for c in present:
                if a < c and c % a == 0:
                    for b in range(2 * a, c, a):
                        if c % b == 0 and b not in present:
                            convex_bad.append((r.n, a, b, c))
    _obs_line(
        "iv",
        "holds" if not convex_bad else "fails",
        "unsigned index sets are convex in the divisor order"
        if not convex_bad
        else f"gaps {convex_bad}",
    )

    mono_bad = []
    for r in unsigned.values():
        mult = dict(r.factors)
        for a in mult:
            for b in mult:
                if a < b and b % a == 0 and mult[a] < mult[b]:
                    mono_bad.append((r.n, a, b))
    _obs_line(
        "v",
        "holds" if not mono_bad else "fails",
        "multiplicity never increases along divisibility"
        if not mono_bad
        else f"violations {mono_bad}",
    )

    mersenne = {3, 7, 31}
    vi_rows = []
    for n, r in unsigned.items():
        if numbers.is_prime(n) and n not in mersenne:
            if 2 * n > bound:
                vi_rows.append(f"n={n} outside bound")
            else:
                top = max(indexes(r)) if r.factors else 0
                vi_rows.append(f"n={n} largest={top} {'ok' if top == 2 * n else 'BAD'}")
    vi_ok = all("BAD" not in row for row in vi_rows)
    _obs_line(
        "vi",
        "holds" if vi_ok else "fails",
        "; ".join(vi_rows) if vi_rows else "no non-Mersenne primes in range",
    )

    vii_holds = []
    vii_fails = []
    for n, r in unsigned.items():
        if descent.rho(n) != Fraction(1, 2):
            (vii_holds if not r.factors else vii_fails).append(n)
    _obs_line(
        "vii",
        "holds" if not vii_fails else "fails",
        f"rho != 1/2 rows without factors: {vii_holds}; with factors: {vii_fails}",
    )

    viii_rows = []
    for n, r in unsigned.items():
        if n % 2 == 0 and numbers.is_prime(n // 2):
            mult = dict(r.factors)
            got = mult.get(n, 0)
            viii_rows.append(f"n={n} mult(Phi_{n})={got} {'ok' if got >= 2 else 'BAD'}")
    viii_ok = all("BAD" not in row for row in viii_rows)
    _obs_line(
        "viii",
        "holds" if viii_ok else "fails",
        "; ".join(viii_rows) if viii_rows else "no doubled primes in range",
    )

    ix_rows = []
    ix_ok = True
    for n, r in signed.items():
        idx = 4 * n
        if idx > bound:
            ix_rows.append(f"n={n} outside bound")
            continue
        present = idx in dict(r.factors)
        ix_ok = ix_ok and present
        ix_rows.append(f"n={n} Phi_{idx} {'present' if present else 'MISSING'}")
    _obs_line("ix", "holds" if ix_ok else "fails", "; ".join(ix_rows) or "no rows")

    x_rows = []
    x_ok = True
    for n, r in signed.items():
        if n < 5:
            continue
        idx = 4 * n * (n - 1)
        if idx > bound:
            x_rows.append(f"n={n} outside bound")
            continue
        present = idx in dict(r.factors)
        x_ok = x_ok and present
        x_rows.append(f"n={n} Phi_{idx} {'present' if present else 'MISSING'}")
    _obs_line("x", "holds" if x_ok else "fails", "; ".join(x_rows) or "no rows in range")
    return 0


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descentlab",
        description="Descent set statistics and cyclotomic factor structure, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="build (or load from cache) one descent table")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--signed", action="store_true")
    t.add_argument("--max-n", type=int, default=None, help="raise the size ceiling")
    t.add_argument("--cache-dir", default=None, help=f"table cache (or ${ENV_CACHE})")
    t.add_argument("--out", default=None, help="also write the table to this file")

    r = sub.add_parser("rho", help="fraction of subsets with an odd count")
    r.add_argument("--n", type=int, required=True)

    f = sub.add_parser("factors", help="scan for cyclotomic factors")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--signed", action="store_true")
    f.add_argument("--max-index", type=int, default=10_000)
    f.add_argument("--multiplicity", type=int, default=3)
    f.add_argument("--policy", choices=("heuristic", "exhaustive"), default="heuristic")
    f.add_argument("--workers", type=int, default=1)
    f.add_argument("--format", dest="fmt", choices=("text", "csv", "json"), default="text")
    f.add_argument("--golden", default=None, help="'builtin' or a file with one recorded line")
    f.add_argument("--cache-dir", default=None, help=f"table cache (or ${ENV_CACHE})")
    f.add_argument("--max-n", type=int, default=None, help="raise the size ceiling")

    v = sub.add_parser("verify", help="run theorem and identity suites")
    v.add_argument("--suite", default="all", choices=("all", *_SUITES))
    v.add_argument("--n", type=int, default=None, help="restrict a suite to one n")
    v.add_argument("--desk-scale", action="store_true", help="trim every suite to quick instances")
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--policy", choices=("heuristic", "exhaustive"), default="heuristic")

    o = sub.add_parser("observations", help="report empirical regularities (never asserts)")
    o.add_argument("--max-n", type=int, default=12)
    o.add_argument("--bound", type=int, default=600)
    o.add_argument("--workers", type=int, default=1)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in (
        "n",
        "signed",
        "max_n",
        "max_index",
        "multiplicity",
        "policy",
        "workers",
        "cache_dir",
        "fmt",
        "golden",
        "out",
        "suite",
        "desk_scale",
        "bound",
    ):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


_COMMANDS = {
    "table": cmd_table,
    "rho": cmd_rho,
    "factors": cmd_factors,
    "verify": cmd_verify,
    "observations": cmd_observations,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    cfg = _config_from_args(args)
    try:
        return _COMMANDS[cfg.command](cfg)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
