"""The shipped claims as checks, each defined once.

A suite is a named group of checks.  It declares the instances it runs at
desk scale (quick) and at full scale beside its body, and is called with the
scale, an optional n that keeps only the instances of that n (and drops the
checks that take no n), and the keyword options it declares.  ``verify``
runs every suite in :data:`SUITES`, the acceptance tests run them at full
scale, and :func:`observations` reports the regularities the scanned factor
rows show without asserting them.

Every library call goes through a module attribute (``descent.beta_table``,
``cyclo.factor_scan``, ...), so a caller that wraps those attributes sees
what the checks spend.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import abcd, cyclo, descent, numbers, qsym
from .errors import ResourceLimitError

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
    first argument.  ``options`` names the keyword options the body takes;
    others passed to a call are ignored.
    """

    body: Callable[..., list[CheckResult]]
    desk: dict
    full: dict
    options: tuple[str, ...] = ()

    def __call__(
        self, scale: str = "full", n: int | None = None, **options
    ) -> list[CheckResult]:
        at = SimpleNamespace(**{"desk": self.desk, "full": self.full}[scale])
        return self.body(at, n, **{k: options[k] for k in self.options if k in options})


def _suite(desk: dict, full: dict | None = None, options: tuple[str, ...] = ()):
    """Declare a suite's desk and full instances (the same when ``full`` is
    omitted) above its body."""
    return lambda body: Suite(body, desk, desk if full is None else full, options)


def _keep(only: int | None, instances) -> list:
    """The instances for n = ``only``, or all of them when ``only`` is None.

    An instance is an n or a tuple that starts with its n.
    """
    return [
        x for x in instances if only is None or (x[0] if isinstance(x, tuple) else x) == only
    ]


def _verdict(name: str, bad: list, detail: str, label: str) -> CheckResult:
    """A check that passes when ``bad`` is empty, and otherwise names it.

    A check over a list of instances is made only when ``--n`` kept some,
    and a check that takes no n only when ``--n`` is absent.
    """
    return CheckResult(name, not bad, detail + (f"; {label} {bad}" if bad else ""))


def _span(only: int | None, instances) -> str:
    """The n range an aggregate check compared: all of ``instances``, or
    the one n that ``--n`` kept."""
    return f"n<={instances[-1]}" if only is None else f"n={only}"


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
    dual = _keep(only, at.dualroute)
    bad = [
        n
        for n in dual
        if Fraction(qsym.odd_fundamental_count(n), 1 << (n - 1)) != descent.rho(n)
    ]
    if dual:
        detail = f"odd counts agree with parities for {_span(only, at.dualroute)}"
        out.append(_verdict("popcount.dualroute", bad, detail, "mismatches at"))
    return out


@_suite(desk=dict(unsigned=range(1, 9), signed=range(1, 7)))
def _oracle(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.unsigned):
        ok = descent.beta_table(n).values == descent.brute_force_table(n).values
        out.append(CheckResult(f"oracle.unsigned.n{n}", ok, "closed form == enumeration"))
    for n in _keep(only, at.signed):
        ok = (
            descent.beta_table(n, signed=True).values
            == descent.brute_force_table(n, signed=True).values
        )
        out.append(CheckResult(f"oracle.signed.n{n}", ok, "closed form == enumeration"))
    return out


@_suite(desk=dict(ns=range(1, 11)), full=dict(ns=range(1, 15)))
def _parity(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.ns):
        bits = descent.beta_parity_bitset(n)
        table = descent.beta_table(n)
        ok = all(
            (bits >> k & 1) == (v & 1) for k, v in enumerate(table.values)
        )
        out.append(CheckResult(f"parity.n{n}", ok, "bitset == exact table mod 2"))
    return out


@_suite(desk=dict(ns=range(2, 11)), full=dict(ns=range(2, 13)))
def _symmetry(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.ns):
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
    for n in _keep(only, at.ns):
        values = descent.beta_table(n, signed=True).values
        full = (1 << n) - 1
        ok = all(values[m] == values[full ^ m] for m in range(1 << n))
        out.append(CheckResult(f"symmetry.signed.n{n}", ok, "complement invariance"))
    return out


@_suite(
    desk=dict(unsigned=(4, 8), signed=range(2, 11)),
    full=dict(unsigned=(4, 8, 16), signed=range(2, 15)),
)
def _mod4(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.unsigned):
        c = descent.residue_histogram(descent.beta_table(n), 4).counts
        expect = 1 << (n - 2)
        ok = c[0] == 0 and c[2] == 0 and c[1] == expect and c[3] == expect
        out.append(
            CheckResult(
                f"mod4.unsigned.n{n}", ok, f"counts=({c[1]}, {c[3]}) expected={expect}"
            )
        )
    for n in _keep(only, at.signed):
        c = descent.residue_histogram(descent.beta_table(n, signed=True), 4).counts
        expect = 1 << (n - 1)
        ok = c[0] == 0 and c[2] == 0 and c[1] == expect and c[3] == expect
        out.append(
            CheckResult(
                f"mod4.signed.n{n}", ok, f"counts=({c[1]}, {c[3]}) expected={expect}"
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


@_suite(
    desk=dict(cases=((5, 5), (6, 3), (9, 3), (10, 5))),
    full=dict(cases=((5, 5), (6, 3), (9, 3), (10, 5), (14, 7), (18, 3))),
)
def _mod2p(at, only) -> list[CheckResult]:
    out = []
    for n, p in _keep(only, at.cases):
        m = 2 * p
        c = descent.residue_histogram(descent.beta_table(n), m).counts
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
    return cyclo._phi_divides(diff, len(diff))


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
    out = []
    minus1 = _keep(only, at.minus1)
    bad = [
        n
        for n in minus1
        if cyclo.eval_special(descent.beta_table(n), -1)
        != (1 << (n - 1)) - 2 * _odd_count(n)
    ]
    if minus1:
        detail = f"value at -1 matches 2^n(1/2 - rho) for {_span(only, at.minus1)}"
        out.append(_verdict("theoremQ.minus1", bad, detail, "mismatches at"))
    for n in _keep(only, at.imag):
        got = cyclo.eval_special(descent.beta_table(n), "i")
        out.append(
            CheckResult(
                f"theoremQ.imag.n{n}", got == (0, 0), f"value at i = {got}"
            )
        )
    for q in _keep(only, at.primepower):
        p = 3 if q == 9 else q
        m = 2 * p
        hist = descent.residue_histogram(descent.beta_table(q), m)
        coeff = _odd_count(q) - (1 << (q - 2))
        out.append(
            CheckResult(
                f"theoremQ.primepower.q{q}",
                _congruent(hist.counts, {1: coeff, m - 1: coeff}),
                f"value at primitive {m}th root = coeff {coeff} times (t + t^{m - 1})",
            )
        )
    for n, q in _keep(only, at.double):
        p = 3 if q == 9 else q
        m = 2 * p
        hist = descent.residue_histogram(descent.beta_table(n), m)
        coeff = (1 << q) * _odd_count(q) - (1 << (2 * q - 2))
        out.append(
            CheckResult(
                f"theoremQ.double.n{n}",
                _congruent(hist.counts, {1: coeff, m - 1: coeff}),
                f"value at primitive {m}th root = coeff {coeff} times (t + t^{m - 1})",
            )
        )
    # negative controls: odd prime power indexes never divide, and even ones
    # with the wrong prime are blocked by the value at -1
    odd_pp = [3, 5, 7, 9, 11, 13, 25, 27]
    for n in _keep(only, at.controls):
        table = descent.beta_table(n)
        hits = [q for q in odd_pp if cyclo.divides_order(table, q, 0)]
        detail = f"no odd prime power index divides (tried {odd_pp})"
        out.append(_verdict(f"theoremQ.oddcontrol.n{n}", hits, detail, "hits"))
        if n in (4, 8, 16):
            blocked = odd_pp
        else:
            blocked = [5, 25, 7, 11, 13]
        hits = [2 * q for q in blocked if cyclo.divides_order(table, 2 * q, 0)]
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


@_suite(
    desk=dict(phi2=(5, 6, 9, 10, 12), phi4=(4, 8), doubles=((6, 6), (10, 10))),
    full=dict(
        phi2=(5, 6, 9, 10, 12, 17, 18, 20),
        phi4=(4, 8, 16),
        doubles=((6, 6), (10, 10), (18, 6)),
    ),
)
def _squares(at, only) -> list[CheckResult]:
    out = []
    for n in _keep(only, at.phi2):
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, 2, 0) and cyclo.divides_order(table, 2, 1)
        out.append(CheckResult(f"squares.phi2.n{n}", ok, "Phi_2^2 divides"))
    for n in _keep(only, at.phi4):
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, 4, 0) and cyclo.divides_order(table, 4, 1)
        out.append(CheckResult(f"squares.phi4.n{n}", ok, "Phi_4^2 divides"))
    for n, m in _keep(only, at.doubles):
        table = descent.beta_table(n)
        ok = cyclo.divides_order(table, m, 0) and cyclo.divides_order(table, m, 1)
        out.append(CheckResult(f"squares.phi{m}.n{n}", ok, f"Phi_{m}^2 divides"))
    return out


@_suite(desk=dict(ps=(3, 5, 7)), full=dict(ps=(3, 5, 7, 11, 13)))
def _signed4p(at, only) -> list[CheckResult]:
    out = []
    for p in _keep(only, at.ps):
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


@_suite(desk=dict(ps=(3, 5)), full=dict(ps=(3, 5, 7, 11, 13)))
def _derivative(at, only) -> list[CheckResult]:
    # Phi_4p divides the signed polynomial of an odd prime p exactly once,
    # and t times its derivative is congruent mod Phi_4p to
    # (-1)**((p-1)/2) * 2**(p-1) * p * E_{p-1} * (t - t**(4p-1)), a value of
    # magnitude 2**p * p * E_{p-1}
    magnitudes = {3: 24, 5: 800, 7: 54656}
    out = []
    for p in _keep(only, at.ps):
        table = descent.beta_table(p, signed=True)
        m = 4 * p
        first = descent.residue_histogram(table, m, 1)
        once = cyclo.divides_order(table, m, 0)
        twice = once and cyclo.divides_order(first, m, 1)
        magnitude = (1 << p) * p * numbers.euler_number(p - 1)
        coeff = (-1) ** ((p - 1) // 2) * magnitude // 2
        ok = (
            once
            and not twice
            and _congruent(first.counts, {1: coeff, m - 1: -coeff})
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
        oddrun_b=range(2, 9),
        oddrun_c=range(2, 7),
        roundtrip=range(1, 9),
        product_top=7,
        cdcoef=(3, 5),
        flagroutes=range(1, 9),
        partitions=((1, 1, 2), (2, 1), (3,), (1, 1, 1, 1)),
    ),
    full=dict(
        cube=range(1, 10),
        oddrun_b=range(2, 11),
        oddrun_c=range(2, 9),
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
    for n in _keep(only, at.oddrun_b):
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
    for n in _keep(only, at.oddrun_c):
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
    roundtrip = _keep(only, at.roundtrip)
    bad = []
    for n in roundtrip:
        poly = abcd.ab_index(descent.beta_table(n))
        if abcd.cd_to_ab(abcd.ab_to_cd(poly)).coeffs != poly.coeffs:
            bad.append(n)
    if roundtrip:
        detail = (
            "cd rewriting round-trips the unsigned ab-index for "
            + _span(only, at.roundtrip)
        )
        out.append(_verdict("structure.roundtrip", bad, detail, "failures at"))
    # the product checks take no n, so --n selects none of them
    if only is None:
        bad_pairs = 0
        total_pairs = 0
        for m in range(1, at.product_top):
            for n2 in range(1, at.product_top - m + 1):
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
                f"product identity holds on all {total_pairs} cases with m+n<={at.product_top}",
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
    flagroutes = _keep(only, at.flagroutes)
    bad = []
    for n in flagroutes:
        if qsym.m_to_l(qsym.f_boolean(n)).coeffs != descent.beta_table(n).values:
            bad.append(("boolean", n))
        if (
            qsym.m_to_l(qsym.f_cubical_B(n)).coeffs
            != descent.beta_table(n, signed=True).values
        ):
            bad.append(("cube", n))
    if flagroutes:
        detail = (
            "flag enumerator L-coefficients match both tables for "
            + _span(only, at.flagroutes)
        )
        out.append(_verdict("structure.flagroutes", bad, detail, "failures"))
    if only is None:
        bad_lists = []
        for parts in at.partitions:
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
        if prod != cyclo.IntPoly.from_terms({0: -1, k: 1}):
            bad.append(k)
    detail = f"product over divisors rebuilds t^k - 1 for {len(ks)} indexes"
    out.append(_verdict("cyclounit.product", bad, detail, "failures at"))
    bad_units = []
    for m in range(2, 200):
        value = cyclo.cyclotomic(m)(1)
        primes = numbers.prime_divisors(m)
        expected = primes[0] if len(primes) == 1 else 1
        if value != expected:
            bad_units.append(m)
    detail = "value at 1 is p on prime power indexes and 1 otherwise (m < 200)"
    out.append(_verdict("cyclounit.at1", bad_units, detail, "failures at"))
    return out


@_suite(
    desk=dict(unsigned=range(3, 11), signed=range(2, 8), bound=512),
    full=dict(unsigned=range(3, 17), signed=range(2, 11), bound=10_000),
    options=("policy", "workers"),
)
def _tables(at, only, policy: str = "heuristic", workers: int = 1) -> list[CheckResult]:
    out = []
    for signed, ns in ((False, at.unsigned), (True, at.signed)):
        golden = cyclo.load_golden(signed)
        for n in _keep(only, ns):
            report = cyclo.factor_scan(
                descent.beta_table(n, signed),
                max_index=at.bound,
                policy=policy,
                workers=workers,
            )
            want = tuple((m, k) for m, k in golden[n].factors if m <= at.bound)
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


def observations(max_n: int = 12, bound: int = 600, workers: int = 1) -> list[str]:
    """Report lines on regularities of the factor rows, never asserting them.

    Scans the unsigned rows 3..max_n and the signed rows 3..min(max_n, 8)
    exhaustively up to ``bound``.  A ``max_n`` past the unsigned table limit
    is refused before any row is scanned.
    """
    limit = descent.DEFAULT_LIMITS["unsigned"]
    if max_n > limit:
        raise ResourceLimitError(
            f"observations(max_n={max_n}) exceeds the table limit {limit}"
        )
    unsigned = {}
    for n in range(3, max_n + 1):
        unsigned[n] = cyclo.factor_scan(
            descent.beta_table(n),
            max_index=bound,
            policy="exhaustive",
            workers=workers,
        )
    signed_top = min(max_n, 8)
    signed = {}
    for n in range(3, signed_top + 1):
        signed[n] = cyclo.factor_scan(
            descent.beta_table(n, signed=True),
            max_index=bound,
            policy="exhaustive",
            workers=workers,
        )
    lines = []

    def line(tag: str, status: str, detail: str) -> None:
        lines.append(f"observation {tag}: {status} ({detail})")

    def indexes(report):
        return [m for m, _ in report.factors]

    every = list(unsigned.values()) + list(signed.values())
    odd_hits = [
        (r.n, r.signed, m) for r in every for m in indexes(r) if m % 2
    ]
    line(
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
    line(
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
    line(
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
    line(
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
    line(
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
    line(
        "vi",
        "holds" if vi_ok else "fails",
        "; ".join(vi_rows) if vi_rows else "no non-Mersenne primes in range",
    )

    vii_holds = []
    vii_fails = []
    for n, r in unsigned.items():
        if descent.rho(n) != Fraction(1, 2):
            (vii_holds if not r.factors else vii_fails).append(n)
    line(
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
    line(
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
    line("ix", "holds" if ix_ok else "fails", "; ".join(ix_rows) or "no rows")

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
    line("x", "holds" if x_ok else "fails", "; ".join(x_rows) or "no rows in range")
    return lines
