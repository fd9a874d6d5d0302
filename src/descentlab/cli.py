"""Command line front end: argument parsing, dispatch and output formatting.

Commands: ``table`` (build or load a descent table and summarize it),
``rho`` (odd-fraction statistics), ``factors`` (cyclotomic factor scan with
optional golden comparison), ``verify`` (runs the suites of
:mod:`descentlab.checks` at desk or full scale), ``observations`` (prints the
empirical regularities report of :mod:`descentlab.checks`, never asserting).

A launch imports only what its command runs: each ``cmd_*`` imports its own
library modules, so ``--help`` loads this module and ``errors``, ``table``
and ``rho`` add ``descent`` and ``numbers``, ``factors`` adds ``cyclo``, and
only ``verify`` and ``observations`` load ``checks`` and, through it, every
module.  ``verify --suite`` is therefore checked against ``checks.SUITES``
when the command runs, not by argparse; an unknown name is a usage error
that lists the suites.

Exit codes: 0 success, 1 mismatch, 2 usage error, 3 resource limit (a
refused size or an allocation that ran out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import (
    CacheError,
    ContractViolationError,
    DescentLabError,
    ResourceLimitError,
)

__all__ = ["build_parser", "main"]

# Bytes read from a ``factors --golden FILE``, which holds one recorded line;
# the longest shipped row has 270 characters.  A longer file is refused.
_GOLDEN_FILE_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# table plumbing


def _get_table(args: argparse.Namespace) -> descent.DescentTable:
    from . import descent

    n, signed = args.n, args.signed
    # the ceiling is checked before the cache is read, so that a cached
    # table above it is refused as a build would be
    descent._check_n(n, "signed" if signed else "unsigned", f"beta_table(n={n}, signed={signed})")
    if args.cache_dir == "":
        raise ContractViolationError("cannot write the cache: --cache-dir is empty")
    path = args.cache_dir and os.path.join(args.cache_dir, f"table-v2-n{n}-s{int(signed)}.txt")
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
    table = descent.beta_table(n, signed)
    if path:
        with _writing(path):
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            descent.save_table(table, path)
    return table


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing ``path`` as a usage error."""
    try:
        yield
    except OSError as exc:
        raise ContractViolationError(f"cannot write {path}: {exc}") from exc


def cmd_table(args: argparse.Namespace) -> int:
    import math

    from . import descent, numbers

    table = _get_table(args)
    # every mask that is not stored holds its complement's value, so the sum
    # over the stored ones is doubled (the one mask of an empty universe is
    # its own complement)
    total = top = 0
    for block in table.chunks(table.stored):
        total += sum(block)
        top = max(top, max(block))
    if table.universe:
        total *= 2
    expected_total = math.factorial(args.n) << (args.n if args.signed else 0)
    expected_top = (
        numbers.signed_euler_number(args.n)
        if args.signed
        else numbers.euler_number(args.n)
    )
    if args.out is not None:
        with _writing(args.out):
            descent.export_table(table, args.out)
    print(
        f"n={table.n} signed={int(table.signed)} subsets={1 << table.universe} "
        f"sum={total} sum_ok={'yes' if total == expected_total else 'no'} "
        f"max={top} max_ok={'yes' if top == expected_top else 'no'}"
    )
    ok = total == expected_total and top == expected_top
    return 0 if ok else 1


def cmd_rho(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from . import descent

    value = descent.rho(args.n)
    print(
        f"n={args.n} popcount={args.n.bit_count()} rho={value} "
        f"half_minus_rho={Fraction(1, 2) - value}"
    )
    return 0


def cmd_factors(args: argparse.Namespace) -> int:
    from . import cyclo

    # the recorded row and the scan's arguments are checked before the build
    golden = None
    if args.golden == "builtin":
        rows = cyclo.load_golden(args.signed)
        if args.n not in rows:
            raise ContractViolationError(f"no golden row for n={args.n} signed={int(args.signed)}")
        golden = rows[args.n]
    elif args.golden is not None:
        try:
            with open(args.golden, "rb") as fh:
                data = fh.read(_GOLDEN_FILE_LIMIT + 1)
            if len(data) > _GOLDEN_FILE_LIMIT:
                raise ContractViolationError(
                    f"golden file {args.golden} is longer than {_GOLDEN_FILE_LIMIT} bytes; "
                    "it holds one recorded line"
                )
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ContractViolationError(
                f"cannot read golden file {args.golden}: {exc}"
            ) from exc
        golden = cyclo.parse_report_line(text.strip())
        if (golden.n, golden.signed) != (args.n, args.signed):
            raise ContractViolationError(
                f"golden file {args.golden} holds n={golden.n} "
                f"signed={int(golden.signed)}, wanted n={args.n} signed={int(args.signed)}"
            )
    cyclo._check_scan_args(args.max_index, args.multiplicity, args.policy)
    report = cyclo.factor_scan(
        _get_table(args),
        max_index=args.max_index,
        max_multiplicity=args.multiplicity,
        policy=args.policy,
    )
    if args.fmt == "text":
        print(cyclo.format_report(report))
    elif args.fmt == "csv":
        print("n,signed,index,multiplicity")
        for m, k in report.factors:
            print(f"{report.n},{int(report.signed)},{m},{k}")
    else:
        import json

        print(json.dumps(cyclo.report_to_json_dict(report), sort_keys=True))
    if golden is None:
        return 0
    # a row that records no bound is compared up to the scan's own
    cap = min(args.max_index, golden.bound) if golden.bound else args.max_index
    mine = tuple((m, k) for m, k in report.factors if m <= cap)
    theirs = tuple((m, k) for m, k in golden.factors if m <= cap)
    if mine == theirs:
        print(f"golden match (n={args.n} signed={int(args.signed)}, indices <= {cap})")
        return 0
    print("golden mismatch:", file=sys.stderr)
    print(f"  computed: {cyclo.format_report(report)}", file=sys.stderr)
    print(
        f"  recorded: {cyclo.format_report(golden, include_scan_info=False)}",
        file=sys.stderr,
    )
    return 1


# ---------------------------------------------------------------------------
# verify and observations


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks

    # checked here, not by argparse, so that parsing never imports checks
    if args.suite != "all" and args.suite not in checks.SUITES:
        choices = ", ".join(map(repr, ("all", *checks.SUITES)))
        raise ContractViolationError(
            f"argument --suite: invalid choice: {args.suite!r} (choose from {choices})"
        )
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    scale = "desk" if args.desk_scale else "full"
    failures = 0
    ran = 0
    for name in names:
        suite = checks.SUITES[name]
        for result in suite(scale, args.n):
            ran += 1
            status = "PASS" if result.ok else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
            if not result.ok:
                failures += 1
    if ran == 0:
        raise ContractViolationError(
            f"no checks selected (suite={args.suite}, n={args.n})"
        )
    print(f"verify: {ran - failures}/{ran} checks passed ({scale} scale)")
    return 1 if failures else 0


def cmd_observations(args: argparse.Namespace) -> int:
    from . import checks

    for line in checks.observations(args.largest_n, args.bound):
        print(line)
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
    t.add_argument("--cache-dir", default=None, help="table cache directory")
    t.add_argument("--out", default=None, help="also write the table to this file")

    r = sub.add_parser("rho", help="fraction of subsets with an odd count")
    r.add_argument("--n", type=int, required=True)

    f = sub.add_parser("factors", help="scan for cyclotomic factors")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--signed", action="store_true")
    f.add_argument("--max-index", type=int, default=10_000)
    f.add_argument("--multiplicity", type=int, default=3)
    f.add_argument("--policy", choices=("heuristic", "exhaustive"), default="heuristic")
    f.add_argument("--format", dest="fmt", choices=("text", "csv", "json"), default="text")
    f.add_argument("--golden", default=None, help="'builtin' or a file with one recorded line")
    f.add_argument("--cache-dir", default=None, help="table cache directory")

    v = sub.add_parser("verify", help="run theorem and identity suites")
    v.add_argument("--suite", default="all", help="'all' or the name of one suite")
    v.add_argument("--n", type=int, default=None, help="restrict a suite to one n")
    v.add_argument("--desk-scale", action="store_true", help="trim every suite to quick instances")

    o = sub.add_parser("observations", help="report empirical regularities (never asserts)")
    o.add_argument("--max-n", dest="largest_n", type=int, default=12)
    o.add_argument("--bound", type=int, default=600)

    return parser


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
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"resource limit: {args.command} ran out of memory", file=sys.stderr)
        return 3
    except ContractViolationError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DescentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
