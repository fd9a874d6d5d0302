"""Integer and subset primitives used everywhere else.

Everything here is exact.  A subset of {1, ..., n} is a plain int bitmask,
bit i - 1 set when i is a member; a composition is a plain tuple of parts,
converted to and from the mask of its partial sums.  Also here: multinomial
coefficients, primes, and the two zigzag counting sequences (Euler numbers
and their signed analogue).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable

from .errors import ContractViolationError

__all__ = [
    "as_mask",
    "multinomial",
    "is_prime",
    "prime_divisors",
    "mask_to_composition",
    "composition_to_mask",
    "euler_number",
    "signed_euler_number",
]


def as_mask(S, universe: int | None = None) -> int:
    """Normalize a subset argument to a raw bitmask.

    Accepts a raw ``int`` mask or an iterable of elements.  ``universe``
    bounds the result when given.
    """
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


def mask_to_composition(mask: int, total: int) -> tuple[int, ...]:
    """Gaps of the subset with bitmask ``mask`` inside {1, ..., total - 1}:
    {s1 < ... < sk} maps to (s1, s2 - s1, ..., total - sk), and total 0 to ().
    """
    if total == 0:
        return ()
    parts = []
    prev = 0
    while mask:
        low = mask & -mask
        s = low.bit_length()
        parts.append(s - prev)
        prev = s
        mask ^= low
    parts.append(total - prev)
    return tuple(parts)


def composition_to_mask(parts) -> int:
    """Inverse of :func:`mask_to_composition`: the bitmask of the partial
    sums of a sequence of parts, the last (the total) dropped."""
    bits = 0
    acc = 0
    for part in parts[:-1]:
        acc += part
        bits |= 1 << (acc - 1)
    return bits


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
