"""Quasisymmetric generating functions for descent statistics.

One class, :class:`QSymPoly`, stores a homogeneous element densely, one
coefficient per subset mask.  A degree-n element of the unsigned algebra
has one coefficient per composition of n (per subset of {1, ..., n-1});
a signed one per composition of n+1 whose first part absorbs a
distinguished initial letter (per subset of {1, ..., n}).  :func:`m_to_l`
takes the monomial basis to the fundamental one by subset Moebius
inversion.

Every product is by a one-part monomial M_(a), one quasi-shuffle of each
composition with (a) (Hoffman, J. Algebraic Combin. 11, 2000).  The flag
enumerators f_boolean and f_cubical_B are built one rank at a time, each
rank a product by M_(1), so their fundamental-basis coefficients re-derive
the descent tables along a route independent of the closed-form counting in
:mod:`descentlab.descent`.  :func:`odd_fundamental_count` takes the same
products by M_(2^j) modulo 2 to count the odd fundamental coefficients of
f_boolean(n).  :func:`product_monomial_singletons` expands products of
one-part monomials over ordered set partitions, a second route to the
quasi-shuffle.
"""

from __future__ import annotations

import dataclasses
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

from .descent import _check_n, _xor_zeta_chunks
from .errors import ContractViolationError, ResourceLimitError
from .numbers import composition_to_mask

__all__ = [
    "QSymPoly",
    "m_to_l",
    "ordered_set_partitions",
    "product_monomial_singletons",
    "f_boolean",
    "f_cubical_B",
    "odd_fundamental_count",
]

_BASES = ("M", "L")


@dataclass(frozen=True)
class QSymPoly:
    """A homogeneous quasisymmetric element in the M or L basis.

    Unsigned, ``coeffs[k]`` belongs to the composition of ``degree`` whose
    partial sums form the subset with mask k.  Signed, the composition is of
    ``degree + 1`` with a first part covering the distinguished initial
    letter, and k ranges over the subsets of {1, ..., degree}.
    """

    degree: int
    basis: str
    coeffs: tuple[int, ...]
    signed: bool = False

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ContractViolationError(f"degree must be >= 0, got {self.degree}")
        if self.basis not in _BASES:
            raise ContractViolationError(
                f"basis must be one of {_BASES}, got {self.basis!r}"
            )
        size = 1 << (self.degree if self.signed else max(self.degree - 1, 0))
        if len(self.coeffs) != size:
            raise ContractViolationError(
                f"{'signed ' if self.signed else ''}degree {self.degree} needs "
                f"{size} coefficients, got {len(self.coeffs)}"
            )


def m_to_l(p: QSymPoly) -> QSymPoly:
    """Rewrite an M-basis element in the L basis (subset Moebius inversion)."""
    if p.basis != "M":
        raise ContractViolationError(f"expected M basis, got {p.basis!r}")
    vals = list(p.coeffs)
    step = 1
    while step < len(vals):  # vals[S] -= vals[S - {b}] for each element b of S
        for lo in range(0, len(vals), 2 * step):
            mid = lo + step
            vals[mid : mid + step] = map(operator.sub, vals[mid : mid + step], vals[lo:mid])
        step *= 2
    return dataclasses.replace(p, basis="L", coeffs=tuple(vals))


def _shuffle_terms(comp: tuple[int, ...], a: int) -> Iterator[tuple[int, ...]]:
    """The terms of the quasi-shuffle of ``comp`` with the one-part (a,):
    a inserted before each part and at the end, then a added to each part.
    A composition made twice is yielded twice."""
    for i in range(len(comp) + 1):
        yield comp[:i] + (a,) + comp[i:]
    for i, part in enumerate(comp):
        yield comp[:i] + (part + a,) + comp[i + 1 :]


def ordered_set_partitions(k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every ordered set partition of {1, ..., k}.

    A generator: nothing is held beyond the recursion stack, which matters at
    k = 8 where there are 545835 of them.
    """
    if k < 0:
        raise ContractViolationError(f"k must be >= 0, got {k}")
    if k == 0:
        yield ()
        return
    for smaller in ordered_set_partitions(k - 1):
        r = len(smaller)
        for i in range(r):
            yield smaller[:i] + (smaller[i] + (k,),) + smaller[i + 1 :]
        for i in range(r + 1):
            yield smaller[:i] + ((k,),) + smaller[i:]


def product_monomial_singletons(m_list: Iterable[int]) -> QSymPoly:
    """Product of one-part monomials M_(m1) M_(m2) ... M_(mk).

    Expanded by summing, over every ordered set partition of {1, ..., k}, the
    monomial of blockwise part sums.  This is the second, independent route
    to the same product that :func:`_times_monomial` takes one factor at a
    time by quasi-shuffles.
    """
    parts = tuple(m_list)
    if any(p < 1 for p in parts):
        raise ContractViolationError(f"parts must be positive, got {parts}")
    k = len(parts)
    if k > 8:
        raise ResourceLimitError(
            f"refusing {k} factors; ordered set partitions grow too fast past 8"
        )
    degree = sum(parts)
    if degree > 21:
        raise ResourceLimitError(
            f"dense degree {degree} is too large for one coefficient per composition"
        )
    out = [0] * (1 << max(degree - 1, 0))
    for osp in ordered_set_partitions(k):
        comp = tuple(sum(parts[i - 1] for i in block) for block in osp)
        out[composition_to_mask(comp)] += 1
    return QSymPoly(degree, "M", tuple(out))


_POWER_LIMIT = 12


def _power_limit(n: int, name: str) -> None:
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    if n > _POWER_LIMIT:
        raise ResourceLimitError(f"{name}(n={n}) exceeds the limit {_POWER_LIMIT}")


def _times_monomial(coeffs: dict, a: int) -> dict[tuple[int, ...], int]:
    """Multiply {composition: coefficient} by the one-part monomial M_(a):
    one quasi-shuffle of each composition with (a,)."""
    out: dict[tuple[int, ...], int] = defaultdict(int)
    for comp, c in coeffs.items():
        for new in _shuffle_terms(comp, a):
            out[new] += c
    return out


def f_boolean(n: int) -> QSymPoly:
    """Flag enumerator of the rank-n Boolean lattice: the n-th power of M_(1).

    The M coefficients count chains by rank support, the L coefficients count
    permutations by descent set.  Exact up to n = 12.
    """
    _power_limit(n, "f_boolean")
    coeffs: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(n):
        coeffs = _times_monomial(coeffs, 1)
    out = [0] * (1 << max(n - 1, 0))
    for comp, c in coeffs.items():
        out[composition_to_mask(comp)] = c
    return QSymPoly(n, "M", tuple(out))


def f_cubical_B(n: int) -> QSymPoly:
    """Flag enumerator of the n-cube in the signed algebra: (s + 2 M_(1))^n.

    The distinguished letter s deepens the first part; 2 M_(1) quasi-shuffles
    a new unit into the tail.  The L coefficients count signed permutations
    by descent set.  Exact up to n = 12.
    """
    _power_limit(n, "f_cubical_B")
    coeffs: dict[tuple[int, ...], int] = {(1,): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for comp, c in coeffs.items():
            nxt[(comp[0] + 1,) + comp[1:]] += c
            for tail in _shuffle_terms(comp[1:], 1):
                nxt[comp[:1] + tail] += 2 * c
        coeffs = nxt
    out = [0] * (1 << n)
    for comp, c in coeffs.items():
        out[composition_to_mask(comp)] = c
    return QSymPoly(n, "M", tuple(out), signed=True)


def odd_fundamental_count(n: int) -> int:
    """Number of subsets S with an odd fundamental coefficient in f_boolean(n).

    Modulo 2 the n-th power of M_(1) collapses to the product of one
    M_(2^j) per binary digit of n, whose odd support has at most an
    ordered-Bell-of-popcount size.  The basis change to L takes the mask of
    each composition in the support, over all n - 1 elements, to the chunks
    of the mod-2 zeta transform of :mod:`descentlab.descent`, the engine of
    the parity route there, and counts their bits one chunk at a time.  n
    above ``DEFAULT_LIMITS["parity"]`` is refused, as by the parity route.
    """
    _check_n(n, "parity", f"odd_fundamental_count(n={n})")
    # Each part so far sums distinct powers of 2 below 2**j, so the one part
    # holding 2**j shows where M_(2**j) went and what it came from: every
    # coefficient stays 1, and the support is the product's keys.
    support: dict[tuple[int, ...], int] = {(): 1}
    for j in range(n.bit_length()):
        if n >> j & 1:
            support = _times_monomial(support, 1 << j)
    masks = map(composition_to_mask, support)
    return sum(x.bit_count() for x in _xor_zeta_chunks(masks, n - 1))
