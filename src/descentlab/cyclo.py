"""Cyclotomic polynomials and divisibility scans of descent polynomials.

The descent set polynomial sum_S t**beta(S) is never materialized: with
beta values as large as n! it would have astronomically sparse degree.  All
questions asked of it factor through residue data mod t**m - 1, which one
pass over the table's value multiset produces directly: one value per orbit
of the table's symmetries, weighted by the orbit's size (see descent's
``_value_counts``).  Whether the m-th cyclotomic polynomial divides it (and
to what order) is then decided without building Phi_m: Q[t]/(t**m - 1)
splits as the product of the fields Q(zeta_d) over d | m, and multiplying
the residues by (1 - t**(m/p)) for every prime p | m zeroes every factor but
Q(zeta_m), where it is a unit.  The product is zero exactly when Phi_m
divides.  On one big int of byte slots that never carry, times t**s rotates
the slots and a pair (a, b) stands for a - b.

A factor scan shares its passes: each takes one histogram mod the lcm L of
a group of moduli, packs it once, and folds it mod each member m, adding the
top half of its m-slot blocks onto the bottom half, exactly, since
(v mod M) mod m = v mod m for m | M.  The members go in descending order,
and each folds from the nearest fold: the smallest one already taken whose
modulus it divides, the whole histogram first.  L stays at most
min(N, 2**17).  N, the pass length, is the number of values one pass reads:
folding costs at most O(L) per member, so a group up to N costs no more than
the pass it saves.  Past 2**17 slots a histogram outgrows the cache, so a
pass costs more per value (mod about 10**6, twice as much as mod 997), and
its list of counts would be the scan's largest allocation besides the table.

Most candidates never get a pass of their own: a sieve drops them first, by
reduction mod a prime.  The gcd g of the class weights divides every
coefficient, and Phi_m is primitive, so Phi_m divides the polynomial P in
Z[t] only if it divides P/g (Gauss's lemma).  Write m = d p**e with p prime
and p not dividing d.  Then Phi_m = Phi_d**phi(p**e) mod p (Washington,
*Introduction to Cyclotomic Fields*), and Phi_m(t) = Phi_M(t**(p**j)) =
Phi_M**(p**j) mod p for M = m / p**j, 1 <= j < e.  So if Phi_m divides P,
Phi_M divides P/g in F_p[t] for M = d and each such M.  Phi_M times the
product of the 1 - t**(M/q), q | M prime, is 0 mod t**M - 1, as that
product takes every other Phi_k with k | M, so p * g divides the content
(the gcd of the entries) of the same product on P's residues mod t**M - 1.
For M = d, F_p[t]/(t**d - 1) is a product of fields and the test is exact;
for p | M it is only necessary, which is all a sieve needs.  The paper rules
out doubled prime indexes this way (Phi_2p(-1) = p); that is the case d = 2.
A candidate m within the sieve's limit is also one of its own moduli,
M = m (j = 0), and there the test is exact: the content is 0 exactly when
Phi_m divides.  One scheduler runs every test, sieve and exact, each only
while a live candidate awaits it: a candidate's exact test at each order
waits until every test before it has passed, and each pass takes the lowest
order awaited, so the small sieve moduli share passes with each other and
with the exact tests that are ready.

No route divides polynomials.  :func:`cyclotomic` builds Phi_k from its
Moebius product of binomials 1 - t**d, so that the divisor products can be
checked against t**k - 1 by an independent route: :class:`IntPoly` has one
product, a Kronecker substitution that packs each factor into one big
integer, in the byte slots of descent's slot packer (``_pack`` and
``_unpack``), and lets the integer multiply do the convolution.
"""

from __future__ import annotations

import math
import operator
from bisect import insort
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, compress, islice
from typing import Container, Iterable, Iterator, Sequence

from .descent import (
    MAX_INDEX,
    DescentTable,
    _pack,
    _residue_counts,
    _unpack,
    _value_counts,
    residue_histogram,
)
from .errors import ContractViolationError, ResourceLimitError
from .numbers import prime_divisors

__all__ = [
    "MAX_INDEX",
    "IntPoly",
    "cyclotomic",
    "divides_order",
    "FactorReport",
    "factor_scan",
    "heuristic_candidates",
    "format_report",
    "parse_report_line",
    "report_to_json_dict",
    "load_golden",
]

# Largest modulus M that the sieve tests: a sieve pass costs what an exact
# pass costs, and a large M shares its pass with few others.  Heuristic
# scans at bound 10000 (in process, 2 cores, Python 3.11.7, median of 10
# alternating fresh runs), limits 300 / 1000 / 2000: n = 16 took 0.084 /
# 0.039 / 0.043 s, signed 14 0.074 / 0.045 / 0.051 s; 2000 saves passes at
# n = 22 and 23 (16 to 13, 13 to 11) but costs the small scans.
_SIEVE_LIMIT = 1000

# Largest modulus of a value pass shared by several tests, unless the pass
# length N is smaller.  A histogram much longer than the cache costs
# more per value than the pass it saves.  Heuristic scans at bound 10000,
# each timed alone in a fresh process, alternating the cap (2 cores, Python
# 3.11.7; median seconds of 8 runs, then peak RSS with the table): 2**17
# against 2**18 took 3.65 / 3.72 s (48 / 48 MB) at n = 23, 2.21 / 2.51 s
# (31 / 35 MB) at n = 22 and 1.20 / 1.22 s (25 / 30 MB) at n = 21, faster
# in 18 of the 24 pairs.  Against 2**16 (6 runs) it was faster in 17 of 18
# pairs at n = 21..23, 3.72 / 4.28 s at n = 23, though 2**16 took 1 MB to
# 2 MB less; no cap (2**20 > N) took 4.91 s and 72 MB at n = 23 and 2.89 s
# and 42 MB at n = 22.  At n = 20, bound 300, 2**17 and 2**18 group alike.
_GROUP_CAP = 1 << 17


class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        return IntPoly(_kronecker_mul(a, b))

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPoly(0)"
        monos = []
        for i, c in enumerate(self.coeffs):
            if c:
                monos.append(f"{c}" if i == 0 else f"{c}*t^{i}")
        return f"IntPoly({' + '.join(monos)})"


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Pack the positive and the negative parts of each factor into the byte
    # slots of one big integer each and let the integer multiply do the
    # convolution.  Slots never interfere since each convolution entry is
    # below 2**(8 * width).
    bits = (
        max(abs(c) for c in a).bit_length()
        + max(abs(c) for c in b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8

    def part(cs: Sequence[int], sign: int) -> int:
        return int.from_bytes(_pack([max(sign * c, 0) for c in cs], width), "little")

    ap, an, bp, bn = part(a, 1), part(a, -1), part(b, 1), part(b, -1)
    total = width * (len(a) + len(b) - 1)
    plus = _unpack((ap * bp + an * bn).to_bytes(total, "little"), width)
    minus = _unpack((ap * bn + an * bp).to_bytes(total, "little"), width)
    return list(map(operator.sub, plus, minus))


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, exactly.

    For k > 1, Phi_k is the product of (1 - t**d)**mu(k/d) over d | k
    (Arnold & Monagan, "Calculating cyclotomic polynomials", Math. Comp. 80,
    2011), taken as a power series truncated past its degree phi(k).  One
    factor per squarefree divisor e of k, with d = k/e: multiplying by
    1 - t**d is one subtraction of the shifted series, and dividing by it,
    a multiplication by 1 + t**d + t**(2d) + ..., is a running sum along each
    residue class mod d.
    """
    if k < 1:
        raise ContractViolationError(f"index must be >= 1, got {k}")
    if k == 1:
        return IntPoly((-1, 1))
    primes = prime_divisors(k)
    size = k // math.prod(primes) * math.prod(p - 1 for p in primes) + 1  # phi(k) + 1
    c = [1] + [0] * (size - 1)
    squarefree = [e for r in range(len(primes) + 1) for e in combinations(primes, r)]
    for e in squarefree:
        if len(e) % 2 == 0:  # mu(e) = 1: c[i] -= c[i - d]
            d = k // math.prod(e)
            c[d:] = map(operator.sub, c[d:], c[:-d])
    for e in squarefree:
        if len(e) % 2 == 1:  # mu(e) = -1: c[i] += c[i - d], i rising
            d = k // math.prod(e)
            for r in range(min(d, size - d)):  # a class with one term is done
                c[r::d] = accumulate(c[r::d])
    return IntPoly(c)


def _phi_products(hist: Sequence[int], members: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """For each m in ``members``, in descending order, m and a nonnegative
    residue histogram taken mod a multiple of m, folded mod m and multiplied
    by (1 - t**(m/p)) for every prime p | m: a pair (a, b) of packed m-slot
    ints standing for a - b, slot by slot, and the slot width in bytes.  The
    histogram is packed once into slots wide enough for its total times
    2**omega(m), which bounds every slot of a and b; a fold only sums
    entries, so its slots stay within the total and never carry.  Each m
    folds from the smallest fold already taken whose modulus it divides,
    the whole histogram first, and each m is factored once."""
    primes = {m: prime_divisors(m) for m in members}
    width = (sum(hist).bit_length() + max(map(len, primes.values())) + 7) // 8
    bits = 8 * width
    folds = [(len(hist), int.from_bytes(_pack(hist, width), "little"))]
    for m in sorted(primes, reverse=True):
        modulus, x = next(fold for fold in reversed(folds) if fold[0] % m == 0)
        blocks, size = modulus // m, m * bits
        while blocks > 1:
            blocks -= blocks // 2
            x = (x & ((1 << blocks * size) - 1)) + (x >> blocks * size)
        folds.append((m, x))
        a, b, mask = x, 0, (1 << size) - 1
        for p in primes[m]:
            up, down = m // p * bits, (m - m // p) * bits
            a, b = a + (((b << up) & mask) | (b >> down)), b + (((a << up) & mask) | (a >> down))
        yield m, a, b, width


def _phi_contents(hist: Sequence[int], members: list[int], gcds: Container[int]) -> Iterator[int]:
    """For each m in ``members``: 0 when the same product is zero, that is,
    when Phi_m divides a nonnegative residue histogram taken mod a multiple
    of m; else, for m in ``gcds`` alone, whose products are unpacked, its
    content (the gcd of its entries), which a prime p not dividing m divides
    exactly when Phi_m divides the histogram over F_p; else 1."""
    content = {}
    for m, a, b, width in _phi_products(hist, members):
        if a == b or m not in gcds:
            content[m] = int(a != b)
        else:
            a_slots, b_slots = (_unpack(x.to_bytes(m * width, "little"), width) for x in (a, b))
            content[m] = math.gcd(*map(operator.sub, a_slots, b_slots))
    return map(content.__getitem__, members)


def divides_order(source, m: int, order: int = 0) -> bool:
    """Whether Phi_m divides the order-th derivative of the descent polynomial.

    Phi_m to the power j + 1 divides sum_S t**beta(S) exactly when this holds
    for every order from 0 through j.  ``source`` is a descent table or its
    m residue counts at that order, a list or tuple, negative counts allowed.
    Phi_m itself is never built; see the module docstring for the test.
    ``m`` above MAX_INDEX raises :class:`ResourceLimitError`.
    """
    if m < 2:
        raise ContractViolationError(f"cyclotomic index must be >= 2, got {m}")
    if m > MAX_INDEX:
        raise ResourceLimitError(f"cyclotomic index {m} exceeds the limit {MAX_INDEX}")
    if isinstance(source, DescentTable):
        source = residue_histogram(source, m, order)
    elif not isinstance(source, (list, tuple)) or len(source) != m:
        raise ContractViolationError(f"need a table or {m} counts, got {type(source).__name__}")
    # every (1 - t**s) zeroes a constant vector, so the lift keeps the verdict
    low = min(min(source), 0)
    return not next(_phi_contents([c - low for c in source], [m], ()))


@dataclass(frozen=True)
class FactorReport:
    """Cyclotomic factors found in one descent polynomial.

    ``factors`` pairs each index m with the multiplicity of Phi_m, ascending
    in m; multiplicities are capped at the scan's max_multiplicity.
    """

    n: int
    signed: bool
    factors: tuple[tuple[int, int], ...]
    bound: int
    policy: str


def heuristic_candidates(n: int, bound: int) -> list[int]:
    """Even indices up to the bound whose prime factors all stay at or below n.

    Every known factor index of a descent polynomial of order n has this
    shape, so the heuristic scan is dramatically smaller than exhaustive
    while (empirically) complete.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    # 2 times every product of primes <= n, up to the bound, each built once
    # with its primes in ascending order, so the work is the output's length
    primes = [p for p in range(2, min(n, bound // 2) + 1) if prime_divisors(p) == (p,)]
    out = []
    stack = [(2, 0)] if n > 1 and bound > 1 else []
    while stack:
        m, first = stack.pop()
        out.append(m)
        for i in range(first, len(primes)):
            if m * primes[i] > bound:
                break
            stack.append((m * primes[i], i))
    return sorted(out)


def _multiplicities(
    classes: list[tuple[int, Sequence[int]]], candidates: list[int], max_multiplicity: int
) -> dict[int, int]:
    """{m: the multiplicity of Phi_m, up to max_multiplicity}: the number of
    m's own tests, those mod t**m - 1, that m passed.

    A test (M, order, q) asks that q divide the content of the order-th
    product mod t**M - 1, and q = 0 that the product be zero.  m's first
    stage is its sieve tests (m / p**j, 0, p * g), each M <= _SIEVE_LIMIT,
    with (m, 0, 0) if m <= _SIEVE_LIMIT; each later stage is its next own
    test (m, k, 0).  Each pass seeds with the smallest M of the lowest order
    awaited and adds each larger M first-fit within min(N, _GROUP_CAP).
    """
    g = math.gcd(*(weight for weight, _ in classes))
    cap = min(sum(len(values) for _, values in classes), _GROUP_CAP)
    found = dict.fromkeys(candidates, 0)
    # users[k][M]: the (m, q) of each test (M, k, q); stage[m]: the moduli of
    # m's stage, left[m] of which m awaits while it is live; need[M]: how many
    # live candidates await the test mod t**M - 1 at the current order, whose
    # moduli wait in ``pending``, ascending, the first of them always awaited
    users, stage, left = defaultdict(dict), {}, {}
    for m in candidates:
        tests = [(m, 0)] if m <= _SIEVE_LIMIT else []
        for p in prime_divisors(m):
            M = m
            while M % p == 0:
                M //= p
                if M <= _SIEVE_LIMIT:
                    tests.append((M, p * g))
        tests = tests or [(m, 0)]  # no sieve test: its own first
        stage[m], left[m] = [M for M, _ in tests], len(tests)
        for M, q in tests:
            users[0].setdefault(M, []).append((m, q))
    need = {M: len(pairs) for M, pairs in users[0].items()}
    order, pending = 0, sorted(need)
    while pending:
        modulus, group = pending[0], pending[:1]
        for M in islice(pending, 1, None):
            if M > cap:
                break
            if need[M] and math.lcm(modulus, M) <= cap:
                modulus = math.lcm(modulus, M)
                group.append(M)
        # only the sieve's tests, all within its limit, read a content
        gcds = () if order else range(_SIEVE_LIMIT + 1)
        contents = _phi_contents(_residue_counts(classes, modulus, order), group, gcds)
        for M, content in zip(group, contents):
            need[M] = 0
            for m, q in users[order][M]:
                if m not in left:
                    continue
                if content % q if q else content:
                    del left[m]
                    for other in stage[m]:
                        if need[other]:
                            need[other] -= 1
                    continue
                left[m] -= 1
                if M == m:
                    found[m] += 1
                if left[m] or found[m] == max_multiplicity:
                    continue
                # m's next own test, (m, found[m], 0)
                stage[m], users[found[m]][m], left[m] = [m], [(m, 0)], 1
                if found[m] == order:
                    need[m] = 1
                    insort(pending, m)
        while pending and not need[pending[0]]:  # settled, or awaited by none
            del pending[0]
        if not pending and order + 1 < max_multiplicity:
            order += 1
            pending = sorted(users[order])
            need = dict.fromkeys(pending, 1)
    return found


def _check_scan_args(max_index: int, max_multiplicity: int, policy: str) -> None:
    """Refuse bad :func:`factor_scan` arguments; checking them needs no table."""
    if policy not in ("heuristic", "exhaustive"):
        raise ContractViolationError(
            f"policy must be 'heuristic' or 'exhaustive', got {policy!r}"
        )
    if max_index < 2:
        raise ContractViolationError(f"max_index must be >= 2, got {max_index}")
    if max_index > MAX_INDEX:
        raise ResourceLimitError(f"max_index={max_index} exceeds the limit {MAX_INDEX}")
    if max_multiplicity < 1:
        raise ContractViolationError(
            f"max_multiplicity must be >= 1, got {max_multiplicity}"
        )


def factor_scan(
    table: DescentTable,
    max_index: int = 10_000,
    max_multiplicity: int = 3,
    policy: str = "heuristic",
) -> FactorReport:
    """Find every cyclotomic factor Phi_m, m up to max_index, of the table's
    descent polynomial, with multiplicities (capped at max_multiplicity).

    A sieve mod the primes p | m drops only candidates that cannot divide,
    so it changes the cost and never the report; every other test is the
    one :func:`divides_order` makes.  One scheduler, ``_multiplicities``,
    picks the passes for both; the module docstring says why the sieve is
    sound and why a pass's modulus stays within min(N, _GROUP_CAP).
    ``max_index`` above MAX_INDEX raises :class:`ResourceLimitError`.
    """
    _check_scan_args(max_index, max_multiplicity, policy)
    classes = _value_counts(table)
    if policy == "heuristic":
        candidates = heuristic_candidates(table.n, max_index)
    else:
        candidates = list(range(2, max_index + 1))
    found = _multiplicities(classes, candidates, max_multiplicity)
    return FactorReport(
        n=table.n,
        signed=table.signed,
        factors=tuple(compress(found.items(), found.values())),
        bound=max_index,
        policy=policy,
    )


def format_report(report: FactorReport, include_scan_info: bool = True) -> str:
    """One-line rendering: 'n=8 signed=0 policy=... bound=...: Phi_4^2 Phi_28'.

    An empty factor list renders as '-'.  Golden files omit the scan info.
    """
    head = f"n={report.n} signed={int(report.signed)}"
    if include_scan_info:
        head += f" policy={report.policy} bound={report.bound}"
    if report.factors:
        body = " ".join(
            f"Phi_{m}^{k}" if k > 1 else f"Phi_{m}" for m, k in report.factors
        )
    else:
        body = "-"
    return f"{head}: {body}"


def parse_report_line(line: str) -> FactorReport:
    """Parse a line produced by :func:`format_report`, scan info optional.

    What it never writes is refused: a header key other than n, signed,
    policy and bound, or one given twice, a policy other than heuristic or
    exhaustive, a bound below 2, a signed flag other than 0 or 1, an empty
    factor list not written '-', a multiplicity below 1, indexes out of
    ascending order, or an index above the line's bound.
    """
    head, sep, body = line.partition(":")
    if not sep:
        raise ContractViolationError(f"missing ':' in report line {line!r}")
    fields: dict[str, str] = {}
    for token in head.split():
        key, eq, value = token.partition("=")
        if not eq or key not in ("n", "signed", "policy", "bound") or key in fields:
            raise ContractViolationError(f"bad header token {token!r} in {line!r}")
        fields[key] = value
    try:
        n = int(fields["n"])
        signed = {"0": False, "1": True}[fields["signed"]]
        bound = int(fields["bound"]) if "bound" in fields else 0
    except (KeyError, ValueError) as exc:
        raise ContractViolationError(f"bad report header in {line!r}") from exc
    if "bound" in fields and bound < 2:
        raise ContractViolationError(f"bound must be >= 2 in {line!r}")
    policy = fields.get("policy", "golden")
    if "policy" in fields and policy not in ("heuristic", "exhaustive"):
        raise ContractViolationError(f"unknown policy {policy!r} in {line!r}")
    factors = []
    body = body.strip()
    if not body:
        raise ContractViolationError(f"empty factor list (write '-') in {line!r}")
    if body != "-":
        for token in body.split():
            if not token.startswith("Phi_"):
                raise ContractViolationError(f"bad factor token {token!r} in {line!r}")
            base, caret, mult = token[4:].partition("^")
            try:
                m, k = int(base), int(mult) if caret else 1
            except ValueError as exc:
                raise ContractViolationError(
                    f"bad factor token {token!r} in {line!r}"
                ) from exc
            if k < 1 or m <= (factors[-1][0] if factors else 1):
                raise ContractViolationError(
                    f"factor {token!r} needs a multiplicity >= 1 and an index "
                    f"above the one before it in {line!r}"
                )
            if bound and m > bound:
                raise ContractViolationError(
                    f"factor {token!r} lies above the bound {bound} in {line!r}"
                )
            factors.append((m, k))
    return FactorReport(
        n=n, signed=signed, factors=tuple(factors), bound=bound, policy=policy
    )


def report_to_json_dict(report: FactorReport) -> dict:
    """JSON-ready dictionary under the 'descentlab/1' schema."""
    return {
        "schema": "descentlab/1",
        "n": report.n,
        "signed": report.signed,
        "policy": report.policy,
        "bound": report.bound,
        "factors": [
            {"index": m, "multiplicity": k} for m, k in report.factors
        ],
    }


def load_golden(signed: bool) -> dict[int, FactorReport]:
    """The recorded factor tables shipped with the package, keyed by n; every
    row carries the bound of its file's first row, ``bound=B``."""
    from importlib import resources

    name = "table_signed.txt" if signed else "table_unsigned.txt"
    text = resources.files("descentlab.golden").joinpath(name).read_text()
    rows = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    head = rows.pop(0) if rows else ""
    if not head.startswith("bound="):
        raise ContractViolationError(f"{name}: the first row must be bound=..., got {head!r}")
    out: dict[int, FactorReport] = {}
    for line in rows:
        fields, _, body = line.partition(":")
        report = parse_report_line(f"{fields} {head}:{body}")
        if report.n in out:
            raise ContractViolationError(f"{name}: a second row for n={report.n}: {line!r}")
        out[report.n] = report
    return out
