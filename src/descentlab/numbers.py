"""Integer and subset primitives used everywhere else.

Everything here is exact: compositions, subset bitmasks, binary expansions,
multinomial coefficients and their base-p carry counts, and the two zigzag
counting sequences (Euler numbers and their signed analogue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ContractViolationError

__all__ = [
    "Composition",
    "SubsetMask",
    "BinaryExpansion",
    "as_mask",
    "multinomial",
    "is_prime",
    "prime_divisors",
    "carries_base_p",
    "is_multinomial_odd",
    "subset_to_composition",
    "composition_to_subset",
    "essential_elements",
    "euler_number",
    "signed_euler_number",
]


class Composition(tuple):
    """A sequence of positive integer parts.

    Behaves like a tuple; the sum of parts is cached on ``total``.
    """

    total: int

    def __new__(cls, parts: Iterable[int]) -> "Composition":
        self = super().__new__(cls, parts)
        for part in self:
            if not isinstance(part, int) or isinstance(part, bool) or part <= 0:
                raise ContractViolationError(
                    f"composition parts must be positive integers, got {part!r}"
                )
        self.total = sum(self)
        return self

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"


@dataclass(frozen=True)
class SubsetMask:
    """A subset of {1, ..., n} stored as a bitmask.

    Bit ``i - 1`` of ``bits`` is set exactly when ``i`` is a member.  ``n`` is
    the universe size, so valid masks satisfy ``0 <= bits < 2**n``.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ContractViolationError(f"universe size must be >= 0, got {self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ContractViolationError(
                f"mask {self.bits:#x} does not fit in universe of size {self.n}"
            )

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int]) -> "SubsetMask":
        bits = 0
        for e in elements:
            if not 1 <= e <= n:
                raise ContractViolationError(
                    f"element {e} outside universe {{1, ..., {n}}}"
                )
            bits |= 1 << (e - 1)
        return cls(n, bits)

    def members(self) -> Iterator[int]:
        """Yield the elements in increasing order."""
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length()
            bits ^= low

    def __iter__(self) -> Iterator[int]:
        return self.members()

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and bool(self.bits >> (element - 1) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.n, self.bits ^ ((1 << self.n) - 1))

    def __repr__(self) -> str:
        return f"SubsetMask(n={self.n}, elements={{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class BinaryExpansion:
    """The exponents of the binary expansion of a positive integer.

    ``exponents`` is strictly decreasing, so ``BinaryExpansion.of(22)`` holds
    ``(4, 2, 1)`` and ``value`` gives back 22.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        for a, b in zip(self.exponents, self.exponents[1:]):
            if a <= b:
                raise ContractViolationError(
                    f"exponents must strictly decrease, got {self.exponents}"
                )
        if self.exponents and self.exponents[-1] < 0:
            raise ContractViolationError("exponents must be nonnegative")

    @classmethod
    def of(cls, n: int) -> "BinaryExpansion":
        if n <= 0:
            raise ContractViolationError(f"need a positive integer, got {n}")
        return cls(tuple(i for i in range(n.bit_length() - 1, -1, -1) if n >> i & 1))

    @property
    def popcount(self) -> int:
        return len(self.exponents)

    @property
    def value(self) -> int:
        return sum(1 << e for e in self.exponents)


def as_mask(S, universe: int | None = None) -> int:
    """Normalize a subset argument to a raw bitmask.

    Accepts a :class:`SubsetMask`, a raw ``int`` mask, or an iterable of
    elements.  ``universe`` bounds the result when given; a SubsetMask whose
    own universe disagrees with an explicit ``universe`` is rejected.
    """
    if isinstance(S, SubsetMask):
        if universe is not None and S.n != universe:
            raise ContractViolationError(
                f"subset lives in universe {S.n}, expected {universe}"
            )
        return S.bits
    if isinstance(S, int) and not isinstance(S, bool):
        bits = S
    else:
        bits = 0
        for e in S:
            if not isinstance(e, int) or e < 1:
                raise ContractViolationError(f"bad subset element {e!r}")
            bits |= 1 << (e - 1)
    if bits < 0:
        raise ContractViolationError(f"negative mask {bits}")
    if universe is not None and bits >> universe:
        raise ContractViolationError(
            f"mask {bits:#x} does not fit in universe of size {universe}"
        )
    return bits


def multinomial(n: int, gamma: Iterable[int]) -> int:
    """Multinomial coefficient n! / (g1! g2! ... gk!).

    The parts must be nonnegative and sum to ``n``.
    """
    parts = tuple(gamma)
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if any(p < 0 for p in parts):
        raise ContractViolationError(f"parts must be >= 0, got {parts}")
    if sum(parts) != n:
        raise ContractViolationError(f"parts {parts} do not sum to {n}")
    out = 1
    remaining = n
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def prime_divisors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m, ascending; empty for m = 1."""
    if m < 1:
        raise ContractViolationError(f"need a positive integer, got {m}")
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return tuple(out)


def _digit_sum(value: int, p: int) -> int:
    s = 0
    while value:
        s += value % p
        value //= p
    return s


def carries_base_p(gamma: Iterable[int], p: int) -> int:
    """Number of carries when the parts are added in base p.

    Equals the exponent of the prime p in the multinomial coefficient of the
    parts, so ``carries_base_p(gamma, p) == 0`` iff p does not divide it.
    """
    if not is_prime(p):
        raise ContractViolationError(f"base must be prime, got {p}")
    parts = tuple(gamma)
    if any(part < 0 for part in parts):
        raise ContractViolationError(f"parts must be >= 0, got {parts}")
    total = sum(parts)
    return (sum(_digit_sum(part, p) for part in parts) - _digit_sum(total, p)) // (
        p - 1
    )


def is_multinomial_odd(gamma: Iterable[int]) -> bool:
    """True iff the multinomial coefficient of the parts is odd.

    Odd exactly when the binary digits of the parts are pairwise disjoint,
    i.e. adding them in base 2 produces no carries.
    """
    acc = 0
    for part in gamma:
        if part < 0:
            raise ContractViolationError(f"parts must be >= 0, got {part}")
        if acc & part:
            return False
        acc |= part
    return True


def subset_to_composition(S, total: int | None = None) -> Composition:
    """Gaps of a subset: S = {s1 < ... < sk} inside {1, ..., total - 1} maps to
    (s1, s2 - s1, ..., total - sk).

    ``total`` defaults to ``S.n + 1`` when S is a :class:`SubsetMask`; for raw
    masks or element iterables it must be passed.
    """
    if total is None:
        if isinstance(S, SubsetMask):
            total = S.n + 1
        else:
            raise ContractViolationError(
                "total is required unless S is a SubsetMask"
            )
    bits = as_mask(S, total - 1)
    parts = []
    prev = 0
    while bits:
        low = bits & -bits
        s = low.bit_length()
        parts.append(s - prev)
        prev = s
        bits ^= low
    parts.append(total - prev)
    return Composition(parts)


def composition_to_subset(gamma: Iterable[int]) -> SubsetMask:
    """Inverse of :func:`subset_to_composition`: partial sums, last dropped."""
    comp = gamma if isinstance(gamma, Composition) else Composition(gamma)
    bits = 0
    acc = 0
    for part in comp[:-1]:
        acc += part
        bits |= 1 << (acc - 1)
    return SubsetMask(comp.total - 1, bits)


def essential_elements(n: int) -> SubsetMask:
    """Elements e of {1, ..., n - 1} whose binary digits are a nonempty proper
    subset of the binary digits of n.

    Equivalently the e in {1, ..., n - 1} with binom(n, e) odd.  There are
    2**popcount(n) - 2 of them.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    bits = 0
    sub = (n - 1) & n
    while sub:
        bits |= 1 << (sub - 1)
        sub = (sub - 1) & n
    return SubsetMask(n - 1, bits)


@lru_cache(maxsize=None)
def euler_number(n: int) -> int:
    """Number of alternating permutations of {1, ..., n} (E_0 = E_1 = 1).

    Computed by the boustrophedon recurrence; exact for any n.
    """
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if n < 2:
        return 1
    row = (1,)
    for m in range(2, n + 1):
        new = [0]
        for k in range(1, m):
            new.append(new[k - 1] + row[m - 1 - k])
        row = tuple(new)
    return sum(row)


@lru_cache(maxsize=None)
def signed_euler_number(n: int) -> int:
    """Number of alternating signed permutations of {1, ..., n}.

    Starts 1, 1, 3, 11, 57, 361.  Computed by a rank-insertion boustrophedon:
    the state after placing j entries is the rank of the last entry among the
    2j values +-|pi_1|, ..., +-|pi_j|; appending a new entry of rank s keeps
    the alternation iff s sits on the correct side of the previous rank, and
    old ranks shift by whether the mirrored twin of the new value lands below
    them.
    """
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    row = [1, 0]
    for m in range(2, n + 1):
        prefix = [0]
        for v in row:
            prefix.append(prefix[-1] + v)
        total = prefix[-1]
        if m % 2:
            row = [
                total - prefix[s - 1 if s <= m else s - 2] for s in range(1, 2 * m + 1)
            ]
        else:
            row = [prefix[s - 1 if s <= m else s - 2] for s in range(1, 2 * m + 1)]
    return sum(row)
