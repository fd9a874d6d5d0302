"""Quasisymmetric generating functions for descent statistics.

Homogeneous elements are stored densely: a degree-n element in the unsigned
algebra has one coefficient per composition of n (equivalently per subset of
{1, ..., n-1}); the signed analogue indexes compositions of n+1 whose first
part absorbs a distinguished initial letter (subsets of {1, ..., n}).  The
monomial and fundamental bases are related by subset Moebius inversion.

Products are genuine quasi-shuffles.  The flag enumerators f_boolean and
f_cubical_B are built by repeated multiplication, so their fundamental-basis
coefficients re-derive the descent tables along a route independent of the
closed-form counting in :mod:`descentlab.descent`.
"""

from __future__ import annotations

import dataclasses
import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .descent import _bit_count, _bitset, _packed_transform, _subset_transform
from .errors import ContractViolationError, ResourceLimitError
from .numbers import Composition, composition_to_mask, mask_to_composition

__all__ = [
    "QSymPoly",
    "BQSymPoly",
    "m_to_l",
    "l_to_m",
    "multiply",
    "ordered_set_partitions",
    "product_monomial_singletons",
    "f_boolean",
    "f_cubical_B",
    "odd_fundamental_count",
]

_BASES = ("M", "L")


def _validate_header(degree: int, basis: str, modulus: int | None) -> None:
    if degree < 0:
        raise ContractViolationError(f"degree must be >= 0, got {degree}")
    if basis not in _BASES:
        raise ContractViolationError(f"basis must be one of {_BASES}, got {basis!r}")
    if modulus is not None and modulus < 2:
        raise ContractViolationError(f"modulus must be >= 2, got {modulus}")


@dataclass(frozen=True)
class QSymPoly:
    """A homogeneous quasisymmetric element in the M or L basis.

    ``coeffs[k]`` belongs to the composition of ``degree`` whose partial sums
    form the subset with mask k.
    """

    degree: int
    basis: str
    coeffs: tuple[int, ...]
    modulus: int | None = None

    def __post_init__(self) -> None:
        _validate_header(self.degree, self.basis, self.modulus)
        if len(self.coeffs) != 1 << max(self.degree - 1, 0):
            raise ContractViolationError(
                f"degree {self.degree} needs {1 << max(self.degree - 1, 0)} "
                f"coefficients, got {len(self.coeffs)}"
            )

    def coefficient(self, comp: Iterable[int]) -> int:
        comp = Composition(comp)
        if comp.total != self.degree:
            raise ContractViolationError(
                f"composition of {comp.total} indexes nothing in degree {self.degree}"
            )
        return self.coeffs[composition_to_mask(comp)]


@dataclass(frozen=True)
class BQSymPoly:
    """The signed analogue of :class:`QSymPoly`.

    Indexed by compositions of ``degree + 1`` whose first part covers the
    distinguished initial letter; ``coeffs[k]`` belongs to the subset of
    {1, ..., degree} with mask k (the partial sums short of the total).
    """

    degree: int
    basis: str
    coeffs: tuple[int, ...]
    modulus: int | None = None

    def __post_init__(self) -> None:
        _validate_header(self.degree, self.basis, self.modulus)
        if len(self.coeffs) != 1 << self.degree:
            raise ContractViolationError(
                f"signed degree {self.degree} needs {1 << self.degree} "
                f"coefficients, got {len(self.coeffs)}"
            )

    def coefficient(self, comp: Iterable[int]) -> int:
        comp = Composition(comp)
        if comp.total != self.degree + 1:
            raise ContractViolationError(
                f"composition of {comp.total} indexes nothing in signed degree "
                f"{self.degree}"
            )
        return self.coeffs[composition_to_mask(comp)]


def _reduced(vals: list[int], modulus: int | None) -> tuple[int, ...]:
    if modulus is None:
        return tuple(vals)
    return tuple(v % modulus for v in vals)


def m_to_l(p):
    """Rewrite an M-basis element in the L basis (subset Moebius inversion)."""
    if p.basis != "M":
        raise ContractViolationError(f"expected M basis, got {p.basis!r}")
    vals = list(p.coeffs)
    _subset_transform(vals, operator.sub)
    return dataclasses.replace(p, basis="L", coeffs=_reduced(vals, p.modulus))


def l_to_m(p):
    """Rewrite an L-basis element in the M basis (subset zeta transform)."""
    if p.basis != "L":
        raise ContractViolationError(f"expected L basis, got {p.basis!r}")
    vals = list(p.coeffs)
    _subset_transform(vals, operator.add)
    return dataclasses.replace(p, basis="M", coeffs=_reduced(vals, p.modulus))


@lru_cache(maxsize=None)
def _quasi_shuffle(ga: tuple[int, ...], gb: tuple[int, ...]) -> tuple:
    """Quasi-shuffle of two compositions, as ((composition, multiplicity), ...)."""
    if not ga:
        return ((gb, 1),)
    if not gb:
        return ((ga, 1),)
    out: Counter = Counter()
    for comp, c in _quasi_shuffle(ga[1:], gb):
        out[(ga[0],) + comp] += c
    for comp, c in _quasi_shuffle(ga, gb[1:]):
        out[(gb[0],) + comp] += c
    for comp, c in _quasi_shuffle(ga[1:], gb[1:]):
        out[(ga[0] + gb[0],) + comp] += c
    return tuple(out.items())


def multiply(p: QSymPoly, q: QSymPoly) -> QSymPoly:
    """Product of two M-basis elements by quasi-shuffling compositions."""
    if not isinstance(p, QSymPoly) or not isinstance(q, QSymPoly):
        raise ContractViolationError("multiply needs two QSymPoly operands")
    if p.basis != "M" or q.basis != "M":
        raise ContractViolationError("multiply works in the M basis")
    if p.modulus != q.modulus:
        raise ContractViolationError(
            f"mixed moduli {p.modulus} and {q.modulus}"
        )
    degree = p.degree + q.degree
    out = [0] * (1 << max(degree - 1, 0))
    for ma, ca in enumerate(p.coeffs):
        if not ca:
            continue
        ga = mask_to_composition(ma, p.degree)
        for mb, cb in enumerate(q.coeffs):
            if not cb:
                continue
            c = ca * cb
            for comp, k in _quasi_shuffle(ga, mask_to_composition(mb, q.degree)):
                out[composition_to_mask(comp)] += c * k
    return QSymPoly(degree, "M", _reduced(out, p.modulus), p.modulus)


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
    to the same product that :func:`multiply` computes by quasi-shuffles.
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


_EXACT_POWER_LIMIT = 12
_MODULAR_POWER_LIMIT = 18


def _power_limit(n: int, modulus: int | None, name: str) -> None:
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    limit = _EXACT_POWER_LIMIT if modulus is None else _MODULAR_POWER_LIMIT
    if n > limit:
        raise ResourceLimitError(
            f"{name}(n={n}) exceeds the limit {limit} "
            f"({'exact' if modulus is None else f'mod {modulus}'})"
        )


def f_boolean(n: int, modulus: int | None = None) -> QSymPoly:
    """Flag enumerator of the rank-n Boolean lattice: the n-th power of M_(1).

    The M coefficients count chains by rank support, the L coefficients count
    permutations by descent set.  Exact up to n = 12; with a modulus, 18.
    """
    if modulus is not None and modulus < 2:
        raise ContractViolationError(f"modulus must be >= 2, got {modulus}")
    _power_limit(n, modulus, "f_boolean")
    coeffs: dict[tuple[int, ...], int] = {(): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for comp, c in coeffs.items():
            m = len(comp)
            for i in range(m + 1):
                nxt[comp[:i] + (1,) + comp[i:]] += c
            for i in range(m):
                nxt[comp[:i] + (comp[i] + 1,) + comp[i + 1 :]] += c
        if modulus is None:
            coeffs = dict(nxt)
        else:
            coeffs = {comp: c % modulus for comp, c in nxt.items()}
    out = [0] * (1 << max(n - 1, 0))
    for comp, c in coeffs.items():
        out[composition_to_mask(comp)] = c
    return QSymPoly(n, "M", tuple(out), modulus)


def f_cubical_B(n: int, modulus: int | None = None) -> BQSymPoly:
    """Flag enumerator of the n-cube in the signed algebra: (s + 2 M_(1))^n.

    The distinguished letter s deepens the first part; 2 M_(1) quasi-shuffles
    a new unit into the tail.  The L coefficients count signed permutations
    by descent set.  Exact up to n = 12; with a modulus, 18.
    """
    if modulus is not None and modulus < 2:
        raise ContractViolationError(f"modulus must be >= 2, got {modulus}")
    _power_limit(n, modulus, "f_cubical_B")
    coeffs: dict[tuple[int, ...], int] = {(1,): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = defaultdict(int)
        for comp, c in coeffs.items():
            nxt[(comp[0] + 1,) + comp[1:]] += c
            tail = comp[1:]
            m = len(tail)
            c2 = 2 * c
            for i in range(m + 1):
                nxt[comp[:1] + tail[:i] + (1,) + tail[i:]] += c2
            for i in range(m):
                nxt[comp[: i + 1] + (tail[i] + 1,) + tail[i + 1 :]] += c2
        if modulus is None:
            coeffs = dict(nxt)
        else:
            coeffs = {comp: c % modulus for comp, c in nxt.items()}
    out = [0] * (1 << n)
    for comp, c in coeffs.items():
        out[composition_to_mask(comp)] = c
    return BQSymPoly(n, "M", tuple(out), modulus)


def odd_fundamental_count(n: int) -> int:
    """Number of subsets S with an odd fundamental coefficient in f_boolean(n).

    Works for any practical n: modulo 2 the n-th power of M_(1) collapses to
    the product of one M_(2^j) per binary digit of n, whose odd support has
    at most an ordered-Bell-of-popcount size.  The support is set as one bit
    per subset, and the basis change to L is the packed engine of
    :mod:`descentlab.descent` with XOR over 1-bit slots, the same transform
    as the parity route there.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    support: set[tuple[int, ...]] = {()}
    for j in range(n.bit_length()):
        if not n >> j & 1:
            continue
        a = 1 << j
        nxt: set[tuple[int, ...]] = set()
        for comp in support:
            m = len(comp)
            for i in range(m + 1):
                nxt ^= {comp[:i] + (a,) + comp[i:]}
            for i in range(m):
                nxt ^= {comp[:i] + (comp[i] + a,) + comp[i + 1 :]}
        support = nxt
    buf = _bitset(n - 1)
    for comp in support:
        mask = composition_to_mask(comp)
        buf[mask >> 3] |= 1 << (mask & 7)
    _packed_transform(buf, n - 1, 1, operator.xor)
    return _bit_count(buf)

