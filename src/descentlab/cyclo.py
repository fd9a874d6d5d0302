"""Cyclotomic polynomials and divisibility scans of descent polynomials.

The descent set polynomial sum_S t**beta(S) is never materialized: with
beta values as large as n! it would have astronomically sparse degree.  All
questions asked of it factor through residue data mod t**m - 1, which a
Counter over the table values produces directly.  Whether the m-th
cyclotomic polynomial divides it (and to what order) is then decided without
building Phi_m: Q[t]/(t**m - 1) splits as the product of the fields Q(zeta_d)
over d | m, and multiplying the residues by (1 - t**(m/p)) for every prime
p | m zeroes every factor but Q(zeta_m), where it is a unit.  The product is
zero exactly when Phi_m divides, at m * omega(m) integer subtractions.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .descent import (
    DescentTable,
    ResidueHistogram,
    _falling_factorial,
    beta_table,
    residue_histogram,
)
from .errors import ContractViolationError
from .numbers import euler_number, is_prime, prime_divisors

__all__ = [
    "IntPoly",
    "divmod_poly",
    "cyclotomic",
    "divides_order",
    "eval_special",
    "eval_at_primitive_root",
    "DerivativeCheck",
    "signed_derivative_theorem_check",
    "FactorReport",
    "factor_scan",
    "heuristic_candidates",
    "format_report",
    "parse_report_line",
    "report_to_json_dict",
    "load_golden",
]

_SCHOOLBOOK_PAIR_LIMIT = 40_000


class IntPoly:
    """Dense integer polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "IntPoly":
        if not terms:
            return cls()
        size = max(terms) + 1
        cs = [0] * size
        for e, c in terms.items():
            if e < 0:
                raise ContractViolationError(f"negative exponent {e}")
            cs[e] += c
        return cls(cs)

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

    def __neg__(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(k * c for c in self.coeffs)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        if len(a) * len(b) <= _SCHOOLBOOK_PAIR_LIMIT:
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return IntPoly(out)
        return IntPoly(_kronecker_mul(a, b))

    def substitute_power(self, e: int) -> "IntPoly":
        """The polynomial with t replaced by t**e."""
        if e < 1:
            raise ContractViolationError(f"power must be >= 1, got {e}")
        if self.is_zero:
            return self
        out = [0] * (len(self.coeffs) * e)
        for i, c in enumerate(self.coeffs):
            out[i * e] = c
        return IntPoly(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPoly(0)"
        monos = []
        for i, c in enumerate(self.coeffs):
            if c:
                monos.append(f"{c}" if i == 0 else f"{c}*t^{i}")
        return f"IntPoly({' + '.join(monos)})"


def _kronecker_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # Pack coefficients into byte-aligned slots of one big integer and let
    # the integer multiply do the convolution.  Slots never interfere since
    # each convolution entry is below 2**(8 * width).
    bits = (
        max(abs(c) for c in a).bit_length()
        + max(abs(c) for c in b).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8

    def pack(cs: Sequence[int]) -> tuple[int, int]:
        pos = bytearray(width * len(cs))
        neg = bytearray(width * len(cs))
        for i, c in enumerate(cs):
            if c > 0:
                pos[i * width : i * width + width] = c.to_bytes(width, "little")
            elif c < 0:
                neg[i * width : i * width + width] = (-c).to_bytes(width, "little")
        return int.from_bytes(pos, "little"), int.from_bytes(neg, "little")

    ap, an = pack(a)
    bp, bn = pack(b)
    n_out = len(a) + len(b) - 1
    total = width * n_out
    plus = (ap * bp + an * bn).to_bytes(total, "little")
    minus = (ap * bn + an * bp).to_bytes(total, "little")
    out = []
    for i in range(0, total, width):
        out.append(
            int.from_bytes(plus[i : i + width], "little")
            - int.from_bytes(minus[i : i + width], "little")
        )
    return out


def divmod_poly(num: IntPoly, den: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Quotient and remainder by a monic divisor, exactly over the integers.

    Synthetic division touching only the divisor's nonzero coefficients, so
    dividing by a sparse cyclotomic costs quotient length times its support.
    """
    if den.is_zero or den.coeffs[-1] != 1:
        raise ContractViolationError("divisor must be monic")
    dd = den.degree
    if num.degree < dd:
        return IntPoly(), num
    r = list(num.coeffs)
    q = [0] * (num.degree - dd + 1)
    nz = [(j, c) for j, c in enumerate(den.coeffs[:-1]) if c]
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dd]
        if c:
            q[i] = c
            r[i + dd] = 0
            for j, bc in nz:
                r[i + j] -= c * bc
    return IntPoly(q), IntPoly(r[:dd])


@lru_cache(maxsize=None)
def cyclotomic(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, exactly."""
    if k < 1:
        raise ContractViolationError(f"index must be >= 1, got {k}")
    if k == 1:
        return IntPoly((-1, 1))
    primes = prime_divisors(k)
    rad = math.prod(primes)
    if rad != k:
        return cyclotomic(rad).substitute_power(k // rad)
    # k squarefree: peel off its largest prime p via Phi_k = Phi_m(t^p)/Phi_m
    p = primes[-1]
    m = k // p
    if m == 1:
        return IntPoly((1,) * p)
    quotient, remainder = divmod_poly(
        cyclotomic(m).substitute_power(p), cyclotomic(m)
    )
    if not remainder.is_zero:
        raise ArithmeticError(f"cyclotomic recursion failed at {k}")
    return quotient


def _phi_divides(counts: Sequence[int], m: int) -> bool:
    """Whether Phi_m divides sum_r counts[r] * t**r, a residue mod t**m - 1."""
    c = list(counts)
    for p in prime_divisors(m):
        # multiply by 1 - t**s: c[i] -= c[(i - s) % m]
        s = m // p
        c = [a - b for a, b in zip(c, c[-s:] + c[:-s])]
    return not any(c)


def _as_histogram(source, m: int, order: int) -> ResidueHistogram:
    if isinstance(source, ResidueHistogram):
        if source.m != m or source.order != order:
            raise ContractViolationError(
                f"histogram carries m={source.m}, order={source.order}; "
                f"asked about m={m}, order={order}"
            )
        return source
    if isinstance(source, DescentTable):
        return residue_histogram(source, m, order)
    raise ContractViolationError(
        f"need a DescentTable or ResidueHistogram, got {type(source).__name__}"
    )


def divides_order(source, m: int, order: int = 0) -> bool:
    """Whether Phi_m divides the order-th derivative of the descent polynomial.

    Phi_m to the power j + 1 divides sum_S t**beta(S) exactly when this holds
    for every order from 0 through j.  ``source`` is a descent table or a
    residue histogram already taken at (m, order).  Phi_m itself is never
    built; see the module docstring for the test.
    """
    if m < 2:
        raise ContractViolationError(f"cyclotomic index must be >= 2, got {m}")
    return _phi_divides(_as_histogram(source, m, order).counts, m)


def eval_special(table: DescentTable, point) -> int | tuple[int, int]:
    """The descent polynomial at 1, -1, or the imaginary unit, exactly.

    At 1 the value is the subset count; at -1 it is the even-odd gap of the
    beta values; at the imaginary unit ("i" or 1j) the value is returned as
    an integer pair (real, imaginary).
    """
    if point == 1:
        return 1 << table.universe
    if point == -1:
        c = residue_histogram(table, 2, 0).counts
        return c[0] - c[1]
    if point == "i" or point == 1j:
        c = residue_histogram(table, 4, 0).counts
        return (c[0] - c[2], c[1] - c[3])
    raise ContractViolationError(f"supported points are 1, -1, 'i'; got {point!r}")


def eval_at_primitive_root(table: DescentTable, m: int) -> IntPoly:
    """The descent polynomial at a primitive m-th root of unity.

    The value lives in the cyclotomic integers; it is returned as the residue
    polynomial reduced mod Phi_m, zero exactly when Phi_m divides.
    """
    if m < 2:
        raise ContractViolationError(f"cyclotomic index must be >= 2, got {m}")
    hist = residue_histogram(table, m, 0)
    _, rem = divmod_poly(IntPoly(hist.counts), cyclotomic(m))
    return rem


@dataclass(frozen=True)
class DerivativeCheck:
    """Outcome of the first-derivative identity at a primitive 4p-th root."""

    p: int
    m: int
    divides_once: bool
    divides_twice: bool
    lhs: IntPoly
    rhs: IntPoly
    magnitude: int

    @property
    def ok(self) -> bool:
        return (
            self.divides_once
            and not self.divides_twice
            and self.lhs == self.rhs
        )

    def __bool__(self) -> bool:
        return self.ok


def signed_derivative_theorem_check(p: int) -> DerivativeCheck:
    """Check the exact first-derivative value of the signed polynomial at 4p.

    For an odd prime p, Phi_4p divides the signed descent polynomial of p
    exactly once, and t times its derivative reduces mod Phi_4p to
    (-1)**((p-1)/2) * 2**(p-1) * p * E_{p-1} * (t - t**(4p-1)), a value of
    magnitude 2**p * p * E_{p-1}.  Limited to p <= 13 (table size).
    """
    if not is_prime(p) or p == 2:
        raise ContractViolationError(f"need an odd prime, got {p}")
    if p > 13:
        raise ContractViolationError(f"p={p} exceeds the supported range (13)")
    table = beta_table(p, signed=True)
    m = 4 * p
    phi = cyclotomic(m)
    d0 = divides_order(table, m, 0)
    d1 = d0 and divides_order(table, m, 1)
    _, lhs = divmod_poly(IntPoly(residue_histogram(table, m, 1).counts), phi)
    scale = (-1 if (p - 1) // 2 % 2 else 1) * (1 << (p - 1)) * p * euler_number(p - 1)
    shape = IntPoly.from_terms({1: 1, m - 1: -1})
    _, rhs = divmod_poly(shape.scale(scale), phi)
    return DerivativeCheck(
        p=p,
        m=m,
        divides_once=d0,
        divides_twice=d1,
        lhs=lhs,
        rhs=rhs,
        magnitude=(1 << p) * p * euler_number(p - 1),
    )


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
    return [m for m in range(2, bound + 1, 2) if prime_divisors(m)[-1] <= n]


def _candidate_multiplicity(pairs, m: int, max_mult: int) -> int:
    mult = 0
    while mult < max_mult:
        counts = [0] * m
        if mult == 0:
            for v, c in pairs:
                counts[v % m] += c
        else:
            for v, c in pairs:
                counts[v % m] += c * _falling_factorial(v, mult)
        if not _phi_divides(counts, m):
            break
        mult += 1
    return mult


_SCAN_STATE: dict = {}


def _scan_init(pairs, max_mult: int) -> None:
    _SCAN_STATE["pairs"] = pairs
    _SCAN_STATE["max_mult"] = max_mult


def _scan_candidate(m: int) -> tuple[int, int]:
    return m, _candidate_multiplicity(_SCAN_STATE["pairs"], m, _SCAN_STATE["max_mult"])


def factor_scan(
    table: DescentTable,
    max_index: int = 10_000,
    max_multiplicity: int = 3,
    policy: str = "heuristic",
    workers: int = 1,
) -> FactorReport:
    """Find every cyclotomic factor Phi_m, m up to max_index, of the table's
    descent polynomial, with multiplicities (capped at max_multiplicity).

    Divisibility is decided in exact integer arithmetic by the same test as
    :func:`divides_order`.  ``workers`` parallelizes over candidate indices,
    at most one process per CPU, without changing the result or its order.
    """
    if policy not in ("heuristic", "exhaustive"):
        raise ContractViolationError(
            f"policy must be 'heuristic' or 'exhaustive', got {policy!r}"
        )
    if max_index < 2:
        raise ContractViolationError(f"max_index must be >= 2, got {max_index}")
    if max_multiplicity < 1:
        raise ContractViolationError(
            f"max_multiplicity must be >= 1, got {max_multiplicity}"
        )
    if workers < 1:
        raise ContractViolationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    pairs = tuple(sorted(Counter(table.values).items()))
    if policy == "heuristic":
        candidates = heuristic_candidates(table.n, max_index)
    else:
        candidates = list(range(2, max_index + 1))
    if workers == 1 or len(candidates) < 4:
        results = [(m, _candidate_multiplicity(pairs, m, max_multiplicity)) for m in candidates]
    else:
        with multiprocessing.Pool(
            workers, initializer=_scan_init, initargs=(pairs, max_multiplicity)
        ) as pool:
            results = pool.map(_scan_candidate, candidates, chunksize=8)
    factors = tuple((m, k) for m, k in results if k > 0)
    return FactorReport(
        n=table.n,
        signed=table.signed,
        factors=factors,
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
    """Parse a line produced by :func:`format_report`, scan info optional."""
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
        signed = bool(int(fields["signed"]))
    except (KeyError, ValueError) as exc:
        raise ContractViolationError(f"bad report header in {line!r}") from exc
    bound = int(fields["bound"]) if "bound" in fields else 0
    policy = fields.get("policy", "golden")
    factors = []
    body = body.strip()
    if body != "-":
        for token in body.split():
            if not token.startswith("Phi_"):
                raise ContractViolationError(f"bad factor token {token!r} in {line!r}")
            base, caret, mult = token[4:].partition("^")
            try:
                factors.append((int(base), int(mult) if caret else 1))
            except ValueError as exc:
                raise ContractViolationError(
                    f"bad factor token {token!r} in {line!r}"
                ) from exc
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
    """The recorded factor tables shipped with the package, keyed by n."""
    from importlib import resources

    name = "table_signed.txt" if signed else "table_unsigned.txt"
    text = resources.files("descentlab.golden").joinpath(name).read_text()
    out: dict[int, FactorReport] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        report = parse_report_line(line)
        out[report.n] = report
    return out
