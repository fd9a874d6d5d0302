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

A factor scan shares the passes, one order at a time: it packs every index
still alive at that order into groups whose lcm L stays at most
min(N, 2**17), takes one histogram mod L per group, packs it once, and
folds it mod each member m, adding the top half of its m-slot blocks onto
the bottom half, exactly, since (v mod L) mod m = v mod m.  It stops at the
first order that no index passes.  N, the pass length, is the number of
values one pass reads: folding costs O(L) per member, so a group up to N
costs no more than the pass it saves.  Past 2**17 slots a histogram
outgrows the cache, so a pass costs more per value (mod about 10**6, twice
as much as mod 997), and its list of counts would be the scan's largest
allocation besides the table.

Most candidates never get such a pass: a sieve drops them first, by
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
The moduli are small, so many share one pass; they run in ascending order,
each only while a live candidate needs it, and an index that is one of them
needs no order-0 pass, as its content is 0 exactly when Phi_m divides.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, compress, count, repeat
from typing import Iterable, Iterator, Sequence

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
    "eval_special",
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

# Largest lcm of a group of candidates that share one value pass, unless the
# pass length N is smaller.  A histogram much longer than the cache costs
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


def _phi_products(hist: Sequence[int], members: list[int]) -> Iterator[tuple[int, int, int]]:
    """For each m in ``members``, a nonnegative residue histogram taken mod a
    multiple of m, folded mod m and multiplied by (1 - t**(m/p)) for every
    prime p | m: a pair (a, b) of packed m-slot ints standing for a - b, slot
    by slot, and the slot width in bytes.  The histogram is packed once into
    slots wide enough for its total times 2**omega(m), which bounds every
    slot of a and b."""
    width = (sum(hist).bit_length() + max(len(prime_divisors(m)) for m in members) + 7) // 8
    whole, bits = int.from_bytes(_pack(hist, width), "little"), 8 * width
    for m in members:
        x, blocks, size = whole, len(hist) // m, m * bits
        while blocks > 1:
            blocks -= blocks // 2
            x = (x & ((1 << blocks * size) - 1)) + (x >> blocks * size)
        a, b, mask = x, 0, (1 << size) - 1
        for p in prime_divisors(m):
            up, down = m // p * bits, (m - m // p) * bits
            a, b = a + (((b << up) & mask) | (b >> down)), b + (((a << up) & mask) | (a >> down))
        yield a, b, width


def _phi_divides_each(hist: Sequence[int], members: list[int]) -> Iterator[bool]:
    """For each m in ``members``, whether Phi_m divides a nonnegative residue
    histogram taken mod a multiple of m: whether the product is zero."""
    return (a == b for a, b, _ in _phi_products(hist, members))


def _phi_contents(hist: Sequence[int], members: list[int]) -> Iterator[int]:
    """For each m in ``members``, the content (gcd of the entries) of the
    same product, which a prime p not dividing m divides exactly when Phi_m
    divides the histogram over F_p.  Each product is unpacked, so the
    members are small."""
    for m, (a, b, width) in zip(members, _phi_products(hist, members)):
        a_slots, b_slots = (_unpack(x.to_bytes(m * width, "little"), width) for x in (a, b))
        yield math.gcd(*map(operator.sub, a_slots, b_slots))


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
    return next(_phi_divides_each([c - low for c in source], [m]))


def eval_special(table: DescentTable, point) -> int | tuple[int, int]:
    """The descent polynomial at -1 or at the imaginary unit, exactly.

    At -1 it is the even-odd gap of the beta values; at "i" it is returned
    as an integer pair (real, imaginary).
    """
    if point == -1:
        c = residue_histogram(table, 2, 0)
        return c[0] - c[1]
    if point == "i":
        c = residue_histogram(table, 4, 0)
        return (c[0] - c[2], c[1] - c[3])
    raise ContractViolationError(f"supported points are -1 and 'i'; got {point!r}")


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


def _group_candidates(candidates: Sequence[int], cap: int) -> list[list[int]]:
    """First-fit packing of the candidates into groups whose modulus, the lcm
    of the members, stays at most ``cap``; a candidate above ``cap`` is a
    group of its own.
    """
    groups: list[list[int]] = []
    moduli: list[int] = []
    for m in candidates:
        fit = None
        if m <= cap:
            fits = map(cap.__ge__, map(math.lcm, moduli, repeat(m)))
            fit = next(compress(count(), fits), None)
        if fit is None:
            groups.append([m])
            moduli.append(m)
        else:
            moduli[fit] = math.lcm(moduli[fit], m)
            groups[fit].append(m)
    return groups


def _sieve(classes: list[tuple[int, Sequence[int]]], candidates: list[int]) -> tuple[list, dict]:
    """The candidates m that pass every sieve test, and {M: content} for the
    M tested: for each prime p | m and each M = m / p**j <= _SIEVE_LIMIT,
    1 <= j <= v_p(m), p * g must divide the content mod t**M - 1, g the gcd
    of the class weights.  The M run in ascending order, one first-fit group
    within min(N, _GROUP_CAP) per order-0 pass, N the pass length, each only
    while a live candidate needs it.
    """
    g = math.gcd(*(weight for weight, _ in classes))
    cap = min(sum(len(values) for _, values in classes), _GROUP_CAP)
    moduli, users = {}, {}
    for m in candidates:
        moduli[m] = []
        for p in prime_divisors(m):
            M = m
            while M % p == 0:
                M //= p
                if M <= _SIEVE_LIMIT:
                    moduli[m].append(M)
                    users.setdefault(M, []).append((m, p))
    live, content = set(candidates), {}
    needed = {M: len(pairs) for M, pairs in users.items()}
    pending = sorted(users)
    while pending:
        modulus, group = pending[0], pending[:1]
        for M in pending[1:]:
            if M > cap:
                break
            if math.lcm(modulus, M) <= cap:
                modulus = math.lcm(modulus, M)
                group.append(M)
        hist = _residue_counts(classes, modulus, 0)
        content.update(zip(group, _phi_contents(hist, group)))
        del hist
        for M in group:
            for m, p in users[M]:
                if m in live and content[M] % (p * g):
                    live.discard(m)
                    for other in moduli[m]:
                        needed[other] -= 1
        pending = [M for M in pending if needed[M] and M not in content]
    return [m for m in candidates if m in live], content


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
    so it changes the cost and never the report.  A survivor that the sieve
    tested as one of its moduli M takes its order-0 verdict from its content.
    Every other test is the one :func:`divides_order` makes, by order: the
    candidates alive at an order share passes in groups whose lcm stays at
    most min(N, _GROUP_CAP), N the pass length.  The module docstring says
    why the sieve is sound and why the groups stop there.
    ``max_index`` above MAX_INDEX raises :class:`ResourceLimitError`.
    """
    _check_scan_args(max_index, max_multiplicity, policy)
    classes = _value_counts(table)
    cap = min(sum(len(values) for _, values in classes), _GROUP_CAP)
    if policy == "heuristic":
        candidates = heuristic_candidates(table.n, max_index)
    else:
        candidates = list(range(2, max_index + 1))
    alive, content = _sieve(classes, candidates)
    factors = []
    for order in range(max_multiplicity):
        divides = {m: content[m] == 0 for m in alive if m in content} if order == 0 else {}
        for group in _group_candidates([m for m in alive if m not in divides], cap):
            hist = _residue_counts(classes, math.lcm(*group), order)
            divides.update(zip(group, _phi_divides_each(hist, group)))
            del hist
        factors += [(m, order) for m in alive if order and not divides[m]]
        alive = [m for m in alive if divides[m]]
        if not alive:
            break
    factors += [(m, max_multiplicity) for m in alive]
    return FactorReport(
        n=table.n,
        signed=table.signed,
        factors=tuple(sorted(factors)),
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

    What it never writes is refused: a bound below 2, a signed flag other
    than 0 or 1, an empty factor list not written '-', a multiplicity below
    1, indexes out of ascending order, or an index above the line's bound.
    """
    head, sep, body = line.partition(":")
    if not sep:
        raise ContractViolationError(f"missing ':' in report line {line!r}")
    fields: dict[str, str] = {}
    for token in head.split():
        key, eq, value = token.partition("=")
        if not eq:
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
