"""The shipped claims as checks, each defined once.

A suite is a named group of checks.  It declares the instances it runs at
desk scale (quick) and at full scale beside its body, and is called with the
scale and an optional n that keeps only the instances of that n (and drops
the checks that take no n).  ``verify`` runs every suite in :data:`SUITES`,
the acceptance tests run them at full scale, and :func:`observations`
reports the regularities the scanned factor rows show without asserting
them.

Every library call goes through a module attribute (``descent.beta_table``,
``cyclo.factor_scan``, ...), so a caller that wraps those attributes sees
what the checks spend.  A suite reads residue data mod t**m - 1 through one
reader, :func:`_reader`, which takes each table's value classes once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import abcd, cyclo, descent, numbers, qsym
from .errors import ContractViolationError

__all__ = ["CheckResult", "Suite", "SUITES", "observations"]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Suite:
    """A group of checks and the instances it runs at each scale.

    ``desk`` and ``full`` map names to instance lists; the body reads those
    of the scale it is called with ("desk" or "full") as attributes of its
    first argument.
    """

    body: Callable[..., list[CheckResult]]
    desk: dict
    full: dict

    def __call__(self, scale: str = "full", n: int | None = None) -> list[CheckResult]:
        at = SimpleNamespace(**{"desk": self.desk, "full": self.full}[scale])
        return self.body(at, n)


def _suite(desk: dict, full: dict | None = None):
    """Declare a suite's desk and full instances (the same when ``full`` is
    omitted) above its body."""
    return lambda body: Suite(body, desk, desk if full is None else full)


def _kind(signed: bool) -> str:
    return "signed" if signed else "unsigned"


def _keep(only: int | None, instances) -> list:
    """The instances for n = ``only``, or all of them when ``only`` is None.

    An instance is an n or a tuple that starts with its n.
    """
    return [
        x for x in instances if only is None or (x[0] if isinstance(x, tuple) else x) == only
    ]


def _verdict(name: str, bad: list, detail: str, label: str) -> CheckResult:
    """A check that passes when ``bad`` is empty, and otherwise names it.

    A check that takes no n is made only when ``--n`` is absent.
    """
    return CheckResult(name, not bad, detail + (f"; {label} {bad}" if bad else ""))


def _reader(signed: bool = False) -> Callable[..., list[int]]:
    """``counts(n, m, order=0)``: the residue counts mod m at ``order`` of
    the table of n of one kind, as ``descent.residue_histogram`` gives them.

    A suite makes its own reader, which takes each table's value classes
    once and keeps them only as long as the suite runs.
    """
    classes: dict[int, list] = {}

    def counts(n: int, m: int, order: int = 0) -> list[int]:
        if n not in classes:
            classes[n] = descent._value_counts(descent.beta_table(n, signed))
        return descent._residue_counts(classes[n], m, order)

    return counts


def _aggregate(
    name: str, only: int | None, ns, claim: str, label: str, failures: Callable
) -> list[CheckResult]:
    """One check over the n of ``ns`` that ``--n`` keeps, none when it keeps
    none.  ``failures(kept)`` lists what fails among the kept n, and the
    detail names the range compared: all of ``ns``, or the one n kept."""
    kept = _keep(only, ns)
    if not kept:
        return []
    span = f"n<={ns[-1]}" if only is None else f"n={only}"
    return [_verdict(name, failures(kept), f"{claim} for {span}", label)]


_RHO_LANDMARKS = {
    1: Fraction(1),
    3: Fraction(1, 2),
    7: Fraction(1, 2),
    15: Fraction(29, 64),
    31: Fraction(3991, 8192),
}


@_suite(desk=dict(ns=(1, 3, 7, 15)), full=dict(ns=(1, 3, 7, 15, 31)))
def _table1(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.ns):
        value = descent.rho(n)
        out.append(
            CheckResult(
                f"table1.rho.n{n}",
                value == _RHO_LANDMARKS[n],
                f"rho={value} expected={_RHO_LANDMARKS[n]} "
                f"half_minus_rho={Fraction(1, 2) - value}",
            )
        )
    return out


@_suite(
    desk=dict(classes=range(1, 17), dualroute=range(1, 15)),
    full=dict(classes=range(1, 25), dualroute=range(1, 21)),
)
def _popcount(at, only) -> list[CheckResult]:
    out = []
    classes: dict[int, list[int]] = {}
    for n in _keep(only, at.classes):
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
    out += _aggregate(
        "popcount.dualroute", only, at.dualroute,
        "odd counts agree with parities", "mismatches at",
        lambda ns: [
            n
            for n in ns
            if Fraction(qsym.odd_fundamental_count(n), 1 << (n - 1)) != descent.rho(n)
        ],
    )
    return out


@_suite(desk=dict(unsigned=range(1, 9), signed=range(1, 7)))
def _oracle(at, only) -> list[CheckResult]:
    out = []
    for signed, ns in ((False, at.unsigned), (True, at.signed)):
        for n in _keep(only, ns):
            ok = (
                descent.beta_table(n, signed).values
                == descent.brute_force_table(n, signed).values
            )
            out.append(
                CheckResult(f"oracle.{_kind(signed)}.n{n}", ok, "closed form == enumeration")
            )
    return out


@_suite(desk=dict(ns=range(1, 11)), full=dict(ns=range(1, 15)))
def _parity(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.ns):
        bits = descent.beta_parity_bitset(n)
        table = descent.beta_table(n)
        lower = chain.from_iterable(table.chunks(table.stored))
        ok = bits == sum((v & 1) << k for k, v in enumerate(lower))
        out.append(CheckResult(f"parity.n{n}", ok, "bitset == exact table mod 2"))
    return out


def _mirror_ok(values: tuple[int, ...], n: int, signed: bool) -> bool:
    """Whether the upper half the table of n with ``values`` reads from its
    mirror is the one the top-element recursion gives from its lower half
    and the next smaller table: beta_n(S' + {n-1}) = n beta_(n-1)(S') -
    beta_n(S') unsigned, and beta^B_n(S' + {n}) = 2n beta^B_(n-1)(S') -
    beta^B_n(S') signed."""
    smaller = descent.beta_table(n - 1, signed).values
    c, half = (2 * n if signed else n), len(smaller)
    return values[half:] == tuple(c * b - v for b, v in zip(smaller, values[:half]))


@_suite(desk=dict(ns=range(2, 11)), full=dict(ns=range(2, 13)))
def _symmetry(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.ns):
        values = descent.beta_table(n).values
        rev_ok = all(v == values[numbers.reverse_mask(m, n - 1)] for m, v in enumerate(values))
        out.append(
            CheckResult(
                f"symmetry.unsigned.n{n}",
                _mirror_ok(values, n, False) and rev_ok,
                "complement and reversal invariance",
            )
        )
    for n in _keep(only, at.ns):
        ok = _mirror_ok(descent.beta_table(n, True).values, n, True)
        out.append(CheckResult(f"symmetry.signed.n{n}", ok, "complement invariance"))
    return out


@_suite(
    desk=dict(unsigned=(4, 8), signed=range(2, 11)),
    full=dict(unsigned=(4, 8, 16), signed=range(2, 15)),
)
def _mod4(at, only) -> list[CheckResult]:
    out = []
    for signed, ns in ((False, at.unsigned), (True, at.signed)):
        counts = _reader(signed)
        for n in _keep(only, ns):
            c = counts(n, 4)
            expect = 1 << (n - 1 if signed else n - 2)  # half of the 2**universe subsets
            ok = c[0] == 0 and c[2] == 0 and c[1] == expect and c[3] == expect
            out.append(
                CheckResult(
                    f"mod4.{_kind(signed)}.n{n}",
                    ok,
                    f"counts=({c[1]}, {c[3]}) expected={expect}",
                )
            )
    return out


@_suite(
    desk=dict(pairs=((6, 3), (9, 9), (9, 3), (10, 5), (12, 3))),
    full=dict(
        pairs=((6, 3), (9, 9), (9, 3), (10, 5), (12, 3), (14, 7), (15, 5), (15, 3), (18, 9))
    ),
)
def _modp(at, only) -> list[CheckResult]:
    out = []
    for n, q in _keep(only, at.pairs):
        p = numbers.prime_divisors(q)[0]
        values = zip(descent.mod_p_prediction(n, q), descent.beta_table(n).values, strict=True)
        bad = sum(1 for r, v in values if r != v % p)
        out.append(
            CheckResult(
                f"modp.n{n}.q{q}",
                bad == 0,
                f"prediction matches beta mod {p} on all {1 << (n - 1)} subsets"
                + (f"; {bad} mismatches" if bad else ""),
            )
        )
    return out


@_suite(
    desk=dict(cases=((5, 5), (6, 3), (9, 3), (10, 5))),
    full=dict(cases=((5, 5), (6, 3), (9, 3), (10, 5), (14, 7), (18, 3))),
)
def _mod2p(at, only) -> list[CheckResult]:
    out, counts = [], _reader()
    for n, p in _keep(only, at.cases):
        m = 2 * p
        c = counts(n, m)
        expect = 1 << (n - 3)
        allowed = {1, m - 1, p - 1, p + 1}
        stray = sum(c[r] for r in range(m) if r not in allowed)
        # the split is claimed for the rows with rho = 1/2
        ok = (
            descent.rho(n) == Fraction(1, 2)
            and c[1] == c[m - 1] == c[p - 1] == c[p + 1] == expect
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


def _congruent(counts, terms: dict[int, int]) -> bool:
    """Whether a residue vector mod t**m - 1, m its length, is congruent
    modulo Phi_m to the sum of c * t**e over ``terms`` {e: c}.

    Two polynomials agree at a primitive m-th root exactly when Phi_m
    divides their difference.
    """
    diff = list(counts)
    for e, c in terms.items():
        diff[e] -= c
    return cyclo.divides_order(diff, len(diff))


@_suite(
    desk=dict(
        minus1=range(1, 13),
        imag=(4, 8),
        primepower=(5,),
        double=((6, 3), (10, 5)),
        controls=(4, 8, 15),
        landmark=(),
    ),
    full=dict(
        minus1=range(1, 19),
        imag=(4, 8, 16),
        primepower=(5, 9),
        double=((6, 3), (10, 5), (14, 7), (18, 9)),
        controls=(4, 8, 15, 16),
        landmark=(31,),
    ),
)
def _theoremq(at, only) -> list[CheckResult]:
    counts = _reader()
    # the value at -1 is the even count minus the odd one, and the value at i
    # pairs the counts mod 4 likewise
    out = _aggregate(
        "theoremQ.minus1", only, at.minus1,
        "value at -1 matches 2^n(1/2 - rho)", "mismatches at",
        lambda ns: [
            n
            for n, c in ((n, counts(n, 2)) for n in ns)
            if c[0] - c[1] != (1 << (n - 1)) - 2 * _odd_count(n)
        ],
    )
    for n in _keep(only, at.imag):
        c = counts(n, 4)
        got = (c[0] - c[2], c[1] - c[3])
        out.append(
            CheckResult(
                f"theoremQ.imag.n{n}", got == (0, 0), f"value at i = {got}"
            )
        )
    # Phi_2p at n = q and n = 2q, q a power of the prime p: the value at a
    # primitive 2p-th root is 2**(n - q) * (odd count of q - 2**(q - 2))
    # times (t + t**(2p - 1))
    kinds = (("primepower", "q", [(q, q) for q in at.primepower]), ("double", "n", at.double))
    for kind, tag, instances in kinds:
        for n, q in _keep(only, instances):
            m = 2 * numbers.prime_divisors(q)[0]
            hist = counts(n, m)
            coeff = (_odd_count(q) - (1 << (q - 2))) << (n - q)
            out.append(
                CheckResult(
                    f"theoremQ.{kind}.{tag}{n}",
                    _congruent(hist, {1: coeff, m - 1: coeff}),
                    f"value at primitive {m}th root = coeff {coeff} times (t + t^{m - 1})",
                )
            )
    # negative controls: odd prime power indexes never divide, and even ones
    # with the wrong prime are blocked by the value at -1
    odd_pp = [3, 5, 7, 9, 11, 13, 25, 27]
    for n in _keep(only, at.controls):
        hits = [q for q in odd_pp if cyclo.divides_order(counts(n, q), q)]
        detail = f"no odd prime power index divides (tried {odd_pp})"
        out.append(_verdict(f"theoremQ.oddcontrol.n{n}", hits, detail, "hits"))
        if n in (4, 8, 16):
            blocked = odd_pp
        else:
            blocked = [5, 25, 7, 11, 13]
        hits = [2 * q for q in blocked if cyclo.divides_order(counts(n, 2 * q), 2 * q)]
        detail = f"no blocked doubled index divides (tried {[2 * q for q in blocked]})"
        out.append(_verdict(f"theoremQ.evencontrol.n{n}", hits, detail, "hits"))
    for n in _keep(only, at.landmark):
        value = (1 << (n - 1)) - 2 * _odd_count(n)
        odd_part = value
        while odd_part % 2 == 0:
            odd_part //= 2
        ok = value == 105 << 18 and odd_part == 105
        out.append(
            CheckResult(
                f"theoremQ.minus1.n{n}",
                ok,
                f"value at -1 = {value} = 105*2^18; odd part {odd_part} has no "
                "prime factor above 7, blocking doubled indexes of larger primes",
            )
        )
    return out


# (n, m): Phi_m^2 divides the unsigned polynomial of n
@_suite(
    desk=dict(
        pairs=((5, 2), (6, 2), (9, 2), (10, 2), (12, 2), (4, 4), (8, 4), (6, 6), (10, 10))
    ),
    full=dict(
        pairs=(
            (5, 2), (6, 2), (9, 2), (10, 2), (12, 2), (17, 2), (18, 2), (20, 2),
            (4, 4), (8, 4), (16, 4), (6, 6), (10, 10), (18, 6),
        )
    ),
)
def _squares(at, only) -> list[CheckResult]:
    out, counts = [], _reader()
    for n, m in _keep(only, at.pairs):
        ok = all(cyclo.divides_order(counts(n, m, k), m) for k in (0, 1))
        out.append(CheckResult(f"squares.phi{m}.n{n}", ok, f"Phi_{m}^2 divides"))
    return out


@_suite(desk=dict(ps=(3, 5, 7)), full=dict(ps=(3, 5, 7, 11, 13)))
def _signed4p(at, only) -> list[CheckResult]:
    out, counts = [], _reader(signed=True)
    for p in _keep(only, at.ps):
        m = 4 * p
        once = cyclo.divides_order(counts(p, m), m)
        twice = once and cyclo.divides_order(counts(p, m, 1), m)
        out.append(
            CheckResult(
                f"signed4p.p{p}",
                once and not twice,
                f"Phi_{m} divides the signed polynomial exactly once",
            )
        )
    return out


@_suite(desk=dict(ps=(3, 5)), full=dict(ps=(3, 5, 7, 11, 13)))
def _derivative(at, only) -> list[CheckResult]:
    # Phi_4p divides the signed polynomial of an odd prime p exactly once,
    # and t times its derivative is congruent mod Phi_4p to
    # (-1)**((p-1)/2) * 2**(p-1) * p * E_{p-1} * (t - t**(4p-1)), a value of
    # magnitude 2**p * p * E_{p-1}
    magnitudes = {3: 24, 5: 800, 7: 54656}
    out, counts = [], _reader(signed=True)
    for p in _keep(only, at.ps):
        m = 4 * p
        first = counts(p, m, 1)
        once = cyclo.divides_order(counts(p, m), m)
        twice = once and cyclo.divides_order(first, m)
        magnitude = (1 << p) * p * numbers.euler_number(p - 1)
        coeff = (-1) ** ((p - 1) // 2) * magnitude // 2
        ok = (
            once
            and not twice
            and _congruent(first, {1: coeff, m - 1: -coeff})
            and (p not in magnitudes or magnitude == magnitudes[p])
        )
        out.append(
            CheckResult(
                f"derivative.p{p}",
                ok,
                f"derivative identity at 4p holds, magnitude {magnitude}",
            )
        )
    return out


@_suite(
    desk=dict(
        cube=range(1, 8),
        oddrun=range(2, 9),
        oddrun_signed=range(2, 7),
        roundtrip=range(1, 9),
        product_top=7,
        cdcoef=(3, 5),
        flagroutes=range(1, 9),
        partitions=((1, 1, 2), (2, 1), (3,), (1, 1, 1, 1)),
    ),
    full=dict(
        cube=range(1, 10),
        oddrun=range(2, 11),
        oddrun_signed=range(2, 9),
        roundtrip=range(1, 11),
        product_top=9,
        cdcoef=(3, 5, 7),
        flagroutes=range(1, 11),
        partitions=(
            (1, 1, 2), (2, 1), (3,), (1, 1, 1, 1), (2, 2, 1), (4, 2), (1, 2, 3)
        ),
    ),
)
def _structure(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.cube):
        lhs = abcd.ab_to_cd(abcd.ab_index(descent.beta_table(n, signed=True)))
        rhs = abcd.omega(abcd.prepend_a(abcd.ab_index(descent.beta_table(n))))
        out.append(
            CheckResult(
                f"structure.cube.n{n}",
                lhs.terms == rhs.terms,
                "signed cd-index == omega of a times the unsigned ab-index",
            )
        )
    # type B is the unsigned table, type C the signed one
    for signed, ns in ((False, at.oddrun), (True, at.oddrun_signed)):
        for n in _keep(only, ns):
            poly = abcd.ab_index(descent.beta_table(n, signed))
            bad = sum(
                1
                for t in range(1 << poly.degree)
                if abcd.has_odd_run(t, poly.degree) and abcd.signed_sum(poly, t) != 0
            )
            out.append(
                CheckResult(
                    f"structure.oddrun.{'C' if signed else 'B'}.n{n}",
                    bad == 0,
                    "signed sums vanish on every odd-run pattern",
                )
            )
    out += _aggregate(
        "structure.roundtrip", only, at.roundtrip,
        "cd rewriting round-trips the unsigned ab-index", "failures at",
        lambda ns: [
            n
            for n, poly in ((n, abcd.ab_index(descent.beta_table(n))) for n in ns)
            if abcd.cd_to_ab(abcd.ab_to_cd(poly)).coeffs != poly.coeffs
        ],
    )
    # the product checks take no n, so --n selects none of them
    if only is None:
        cases = [
            chk.product_holds
            for m in range(1, at.product_top)
            for n2 in range(1, at.product_top - m + 1)
            for chk in abcd.macmahon_multiplication_check(m, n2)
        ]
        bad_pairs, total_pairs = cases.count(False), len(cases)
        out.append(
            CheckResult(
                "structure.product",
                bad_pairs == 0,
                f"product identity holds on all {total_pairs} cases with m+n<={at.product_top}",
            )
        )
        (misprint,) = abcd.macmahon_multiplication_check(1, 1)
        out.append(
            CheckResult(
                "structure.product.misprint",
                misprint.product_holds and not misprint.printed_holds,
                f"additive reading fails at m=n=1 ({misprint.lhs} vs {misprint.printed_rhs})",
            )
        )
    expected_coef = {3: 6, 5: 100, 7: 3416}
    for p in _keep(only, at.cdcoef):
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
    routes = (("boolean", qsym.f_boolean, False), ("cube", qsym.f_cubical_B, True))
    out += _aggregate(
        "structure.flagroutes", only, at.flagroutes,
        "flag enumerator L-coefficients match both tables", "failures",
        lambda ns: [
            (route, n)
            for n in ns
            for route, flags, signed in routes
            if qsym.m_to_l(flags(n)).coeffs != descent.beta_table(n, signed).values
        ],
    )
    if only is None:
        bad_lists = []
        for parts in at.partitions:
            via_osp = qsym.product_monomial_singletons(parts)
            want = {
                numbers.mask_to_composition(k, via_osp.degree): c
                for k, c in enumerate(via_osp.coeffs)
                if c
            }
            # the product the flag routes take, one quasi-shuffle per factor
            acc = {(): 1}
            for a in parts:
                acc = qsym._times_monomial(acc, a)
            if acc != want:
                bad_lists.append(parts)
        detail = "ordered set partition expansion matches the quasi-shuffle product"
        out.append(_verdict("structure.partitionproduct", bad_lists, detail, "failures"))
    return out


# The divisor products are checked on a seeded sample of indexes plus a few
# fixed ones; they take no n, so --n selects none of them.
@_suite(desk=dict(sample=(range(1, 2001), 30)), full=dict(sample=(range(1, 10_001), 100)))
def _cyclounit(at, only) -> list[CheckResult]:
    if only is not None:
        return []
    out = []
    ks = sorted(set(random.Random(1896).sample(*at.sample)) | {1, 2, 3, 4, 6, 12, 105})
    bad = []
    for k in ks:
        prod = cyclo.IntPoly((1,))
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclo.cyclotomic(d)
        if prod != cyclo.IntPoly((-1,) + (0,) * (k - 1) + (1,)):
            bad.append(k)
    detail = f"product over divisors rebuilds t^k - 1 for {len(ks)} indexes"
    out.append(_verdict("cyclounit.product", bad, detail, "failures at"))
    bad_units = []
    for m in range(2, 200):
        value = sum(cyclo.cyclotomic(m).coeffs)
        primes = numbers.prime_divisors(m)
        expected = primes[0] if len(primes) == 1 else 1
        if value != expected:
            bad_units.append(m)
    detail = "value at 1 is p on prime power indexes and 1 otherwise (m < 200)"
    out.append(_verdict("cyclounit.at1", bad_units, detail, "failures at"))
    return out


@_suite(
    desk=dict(unsigned=range(3, 11), signed=range(2, 8), bound=512),
    full=dict(unsigned=range(3, 24), signed=range(2, 19), bound=10_000),
)
def _tables(at, only) -> list[CheckResult]:
    out = []
    for signed, ns in ((False, at.unsigned), (True, at.signed)):
        golden = cyclo.load_golden(signed)
        for n in _keep(only, ns):
            report = cyclo.factor_scan(descent.beta_table(n, signed), max_index=at.bound)
            want = tuple((m, k) for m, k in golden[n].factors if m <= at.bound)
            ok = report.factors == want
            out.append(
                CheckResult(
                    f"tables.{_kind(signed)}.n{n}",
                    ok,
                    cyclo.format_report(report, include_scan_info=False)
                    + ("" if ok else f" != recorded {want}"),
                )
            )
    return out


SUITES: dict[str, Suite] = {
    "cyclounit": _cyclounit,
    "oracle": _oracle,
    "parity": _parity,
    "symmetry": _symmetry,
    "popcount": _popcount,
    "table1": _table1,
    "mod4": _mod4,
    "modp": _modp,
    "mod2p": _mod2p,
    "theoremQ": _theoremq,
    "squares": _squares,
    "signed4p": _signed4p,
    "derivative": _derivative,
    "structure": _structure,
    "tables": _tables,
}


def observations(max_n: int = 12, bound: int = 600) -> list[str]:
    """Report lines on regularities of the factor rows, never asserting them.

    Scans the unsigned rows 3..max_n and the signed rows 3..min(max_n, 8)
    exhaustively up to ``bound``.  A ``max_n`` below 3, which scans no row,
    or past the unsigned table limit is refused before any row is scanned.
    """
    if max_n < 3:
        raise ContractViolationError(f"observations needs max_n >= 3, got {max_n}")
    descent._check_n(max_n, "unsigned", f"observations(max_n={max_n})")

    def scan(signed: bool, top: int) -> dict[int, cyclo.FactorReport]:
        return {
            n: cyclo.factor_scan(
                descent.beta_table(n, signed), max_index=bound, policy="exhaustive"
            )
            for n in range(3, top + 1)
        }

    unsigned, signed = scan(False, max_n), scan(True, min(max_n, 8))
    every = [*unsigned.values(), *signed.values()]
    index_sets = {n: {m for m, _ in r.factors} for n, r in unsigned.items()}
    mults = {n: dict(r.factors) for n, r in unsigned.items()}
    lines = []

    def line(tag: str, ok: bool, detail: str) -> None:
        lines.append(f"observation {tag}: {'holds' if ok else 'fails'} ({detail})")

    def none_of(tag: str, bad: list, holds: str, label: str) -> None:
        """A rule that holds when it finds no violation, and else lists them."""
        line(tag, not bad, f"{label} {bad}" if bad else holds)

    def per_row(tag: str, rows: list, empty: str, marks=("BAD", "ok")) -> None:
        """A rule stated row by row: ``rows`` holds (n, text, ok), with ``ok``
        None for a row whose index lies past the bound; the others are
        tagged ``marks[ok]``."""
        details = [
            f"n={n} outside bound" if ok is None else f"n={n} {text} {marks[ok]}"
            for n, text, ok in rows
        ]
        line(tag, all(ok is not False for *_, ok in rows), "; ".join(details) or empty)

    none_of(
        "i",
        [(r.n, r.signed, m) for r in every for m, _ in r.factors if m % 2],
        f"every factor index is even across {len(every)} scanned rows",
        "odd indexes",
    )
    none_of(
        "ii",
        [
            (r.n, r.signed, m, p)
            for r in every
            for m, _ in r.factors
            for p in numbers.prime_divisors(m)
            if p > r.n
        ],
        "every prime factor of every index stays at or below n",
        "violations",
    )
    none_of(
        "iii",
        [
            (n, a, b, math.gcd(a, b))
            for n, present in index_sets.items()
            for a in present
            for b in present
            if a < b and math.gcd(a, b) not in present
        ],
        "unsigned index sets are closed under gcd",
        "missing gcds",
    )
    none_of(
        "iv",
        [
            (n, a, b, c)
            for n, present in index_sets.items()
            for a in present
            for c in present
            if a < c and c % a == 0
            for b in range(2 * a, c, a)
            if c % b == 0 and b not in present
        ],
        "unsigned index sets are convex in the divisor order",
        "gaps",
    )
    none_of(
        "v",
        [
            (n, a, b)
            for n, mult in mults.items()
            for a in mult
            for b in mult
            if a < b and b % a == 0 and mult[a] < mult[b]
        ],
        "multiplicity never increases along divisibility",
        "violations",
    )

    vi = []
    for n, mult in mults.items():
        if numbers.prime_divisors(n) == (n,) and n not in {3, 7, 31}:  # not Mersenne
            top = max(mult, default=0)
            vi.append((n, f"largest={top}", None if 2 * n > bound else top == 2 * n))
    per_row("vi", vi, "no non-Mersenne primes in range")

    vii_holds = []
    vii_fails = []
    for n, r in unsigned.items():
        if descent.rho(n) != Fraction(1, 2):
            (vii_holds if not r.factors else vii_fails).append(n)
    line(
        "vii",
        not vii_fails,
        f"rho != 1/2 rows without factors: {vii_holds}; with factors: {vii_fails}",
    )

    viii = []
    for n, mult in mults.items():
        if n % 2 == 0 and numbers.prime_divisors(n // 2) == (n // 2,):
            got = mult.get(n, 0)
            viii.append((n, f"mult(Phi_{n})={got}", got >= 2))
    per_row("viii", viii, "no doubled primes in range")

    # ix and x: Phi_4n in every signed row, and Phi_4n(n-1) in each from n = 5
    for tag, first, index in (("ix", 3, lambda n: 4 * n), ("x", 5, lambda n: 4 * n * (n - 1))):
        rows = [
            (n, f"Phi_{index(n)}", None if index(n) > bound else index(n) in dict(r.factors))
            for n, r in signed.items()
            if n >= first
        ]
        per_row(tag, rows, "no rows in range", marks=("MISSING", "present"))
    return lines
