"""Descent set statistics of unsigned and signed permutations.

The central objects are the full tables beta_n(S) (number of permutations
with descent set exactly S) over every subset S, and a mod-2 fast path that
gets the parity of every beta_n(S) for n up to the low thirties without ever
materializing the exact table.

An exact table is built packed: slot k of one byte buffer holds the value
for mask k in a fixed number of bytes, enough for n! (times 2**n when
signed).  The alpha values (permutations with descent set inside S) are
written block by block, one big-int multiply per pair of top elements, and
the subset Moebius inversion then runs as big-int subtractions over
cache-sized chunks of slots.  No slot ever borrows from the next: after the
passes over any set P of elements, slot S counts the permutations whose
descent set agrees with S on P and lies inside S off P, a number between 0
and alpha(S).  The slots are unpacked once into the table's tuple of ints.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, permutations, repeat
from pathlib import Path

from .errors import CacheError, ContractViolationError, ResourceLimitError
from .numbers import SubsetMask, as_mask, multinomial, prime_divisors

__all__ = [
    "DEFAULT_LIMITS",
    "BRUTE_FORCE_LIMITS",
    "DescentTable",
    "ResidueHistogram",
    "alpha",
    "alpha_signed",
    "beta_table",
    "brute_force_table",
    "beta_parity_bitset",
    "rho",
    "residue_histogram",
    "mod_p_prediction",
    "save_table",
    "load_table",
]

# Ceilings on n.  beta_table refuses a larger n unless the caller raises
# max_n.  The parity route (beta_parity_bitset, rho) has no override: at
# n = 31 its 2**30-bit tables already take about 750 MB.
DEFAULT_LIMITS = {"unsigned": 24, "signed": 18, "parity": 31}
# Hard ceilings for the factorial-time oracle.
BRUTE_FORCE_LIMITS = {"unsigned": 9, "signed": 7}

CACHE_FORMAT = "descentlab-table v1"
# Values per write in save_table.
_SAVE_BLOCK = 1 << 16


@dataclass(frozen=True)
class DescentTable:
    """All values beta_n(S), indexed by subset bitmask.

    ``values[k]`` is the count for the subset whose mask is k.  The subsets
    range over {1, ..., n-1} in the unsigned case and {1, ..., n} in the
    signed case.
    """

    n: int
    signed: bool
    values: tuple[int, ...]

    @property
    def universe(self) -> int:
        return self.n if self.signed else self.n - 1

    def value(self, S) -> int:
        return self.values[as_mask(S, self.universe)]

    def __post_init__(self) -> None:
        if len(self.values) != 1 << self.universe:
            raise ContractViolationError(
                f"table for n={self.n} signed={self.signed} needs "
                f"{1 << self.universe} entries, got {len(self.values)}"
            )


@dataclass(frozen=True)
class ResidueHistogram:
    """Residue class sums of a descent table modulo m.

    ``counts[r]`` sums ff(beta(S), order) over the subsets S with
    beta(S) = r mod m, where ff(v, j) = v (v-1) ... (v-j+1) is the falling
    factorial (so order 0 just counts subsets per residue class).
    """

    m: int
    order: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.order < 0 or len(self.counts) != self.m:
            raise ContractViolationError("inconsistent residue histogram")


def _gap_composition(mask: int, total: int) -> tuple[int, ...]:
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


def alpha(n: int, S) -> int:
    """Number of permutations of {1, ..., n} with descent set contained in S.

    Equals the multinomial coefficient of the gap composition of S in n.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    mask = as_mask(S, n - 1)
    return multinomial(n, _gap_composition(mask, n))


def alpha_signed(n: int, S) -> int:
    """Number of signed permutations of {1, ..., n} with descent set in S.

    Descents are read with a leading zero, so S ranges over {1, ..., n}.  The
    runs between consecutive elements of S can be filled independently; the
    run containing the leading zero forces its signs, every other run is
    sign-free, giving multinomial(n; g0 - 1, g1, ..., gk) * 2**(n + 1 - g0)
    for the gap composition (g0, ..., gk) of S in n + 1.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    mask = as_mask(S, n)
    gamma = _gap_composition(mask, n + 1)
    first = gamma[0]
    rest = gamma[1:] if first == 1 else (first - 1,) + gamma[1:]
    return multinomial(n, rest) << (n + 1 - first)


def _subset_transform(vals: list, sign: int) -> None:
    """vals[S] <- sum over T subset of S of sign**|S - T| vals[T], in place.

    Sign 1 is the subset zeta transform, sign -1 its inverse, the subset
    Moebius inversion.
    """
    op = operator.add if sign > 0 else operator.sub
    size = len(vals)
    step = 1
    while step < size:
        for lo in range(0, size, step * 2):
            mid = lo + step
            vals[mid : mid + step] = map(op, vals[mid : mid + step], vals[lo:mid])
        step *= 2


def _tile(run: int, total: int) -> int:
    """``total`` bits of alternating runs of ``run`` ones and ``run`` zeros,
    starting with ones at bit 0.

    When ``run`` spans 2**b packed slots, the ones cover the slots whose mask
    lacks bit b: the partners that a subset transform pass moves up by 2**b.
    """
    tile = (1 << run) - 1
    span = 2 * run
    while span < total:
        tile |= tile << span
        span *= 2
    return tile


# The Moebius passes run over chunks of 2**_CHUNK_BITS slots, small enough
# that a chunk and its temporaries stay in the processor's cache.
_CHUNK_BITS = 12


def _packed_alpha(n: int, signed: bool, width: int) -> bytearray:
    """alpha over every mask, mask k in bytes [k * width, (k + 1) * width).

    The masks with top element s are {s} followed by, for each t < s, the
    masks with top t with s added; adding s multiplies alpha by one binomial
    that depends on s and t only, so each such block is one big-int multiply
    of the packed block for t.  The factor 2**(n + 1 - first element) of the
    signed count is set by the seed alpha({s}) and rides along.
    """
    universe = n if signed else n - 1
    total = n + 1 if signed else n  # the gap compositions are of total
    buf = bytearray(width << universe)
    buf[0] = 1
    bits = 8 * width
    blocks: list[int] = []  # blocks[t - 1]: the masks with top t, packed
    for s in range(1, universe + 1):
        block = math.comb(n, s - 1) << (n + 1 - s) if signed else math.comb(n, s)
        for t, prev in enumerate(blocks, 1):
            block |= math.comb(total - t, s - t) * prev << (bits << (t - 1))
        blocks.append(block)
        start = width << (s - 1)
        buf[start : 2 * start] = block.to_bytes(start, "little")
    return buf


def _mobius_packed(buf: bytearray, universe: int, width: int) -> None:
    """Subset Moebius inversion of the slots of ``buf``, in place.

    One pass per mask bit b subtracts from each slot whose mask has bit b
    the slot of the same mask without it.  The slots must hold the subset
    sums of nonnegative counts, as alpha holds those of beta: after the
    passes over a set P of bits, slot S holds the sum of the counts of the
    T inside S that agree with S on P (for alpha, the permutations whose
    descent set agrees with S on P and lies inside S off P).  So every slot
    stays between 0 and its start value, no subtraction borrows from the
    next slot, and a whole run of slots is one big-int subtraction.
    """
    low = min(universe, _CHUNK_BITS)
    chunk = width << low
    shifts = [(8 * width) << b for b in range(low)]
    passes = [(_tile(shift, 8 * chunk), shift) for shift in shifts]
    view = memoryview(buf)
    chunks = []
    for lo in range(0, len(buf), chunk):
        x = int.from_bytes(view[lo : lo + chunk], "little")
        for tile, shift in passes:
            x -= (x & tile) << shift
        chunks.append(x)
    # The elements above the chunk size pair whole chunks.
    _subset_transform(chunks, -1)
    for i, x in enumerate(chunks):
        view[i * chunk : (i + 1) * chunk] = x.to_bytes(chunk, "little")


def _unpack(buf: bytearray, width: int) -> list[int]:
    """The slots of ``buf`` as Python ints, read eight bytes at a time.

    Slot bytes that are zero in every slot are skipped, so a table whose
    values all fit in 64 bits takes one pass of 64-bit words.
    """
    count = len(buf) // width
    used = width
    while used > 1 and buf[used - 1 :: width].count(0) == count:
        used -= 1
    values: list[int] = []
    for lo in range(0, used, 8):
        limb = bytearray(8 * count)
        for b in range(lo, min(lo + 8, used)):
            at = b - lo if sys.byteorder == "little" else lo + 7 - b
            limb[at::8] = buf[b::width]
        words = memoryview(limb).cast("Q")
        if lo == 0:
            values = words.tolist()
            continue
        for i in compress(range(count), words):
            values[i] += words[i] << 8 * lo
    return values


@lru_cache(maxsize=8)
def _table(n: int, signed: bool) -> DescentTable:
    universe = n if signed else n - 1
    # Every slot, before and after the Moebius passes, is at most the number
    # of (signed) permutations.
    width = ((math.factorial(n) << (n if signed else 0)).bit_length() + 7) // 8
    buf = _packed_alpha(n, signed, width)
    _mobius_packed(buf, universe, width)
    values = _unpack(buf, width)
    del buf  # before the tuple doubles the list's pointers
    return DescentTable(n=n, signed=signed, values=tuple(values))


def beta_table(n: int, signed: bool = False, max_n: int | None = None) -> DescentTable:
    """Exact table of beta_n(S) over all subsets.

    Size doubles per unit of n; the default ceilings (24 unsigned, 18 signed)
    can be raised with ``max_n`` by callers who accept the memory cost.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    limit = max_n if max_n is not None else DEFAULT_LIMITS["signed" if signed else "unsigned"]
    if n > limit:
        raise ResourceLimitError(
            f"beta_table(n={n}, signed={signed}) exceeds the limit {limit}; "
            "pass max_n to override"
        )
    return _table(n, bool(signed))


def brute_force_table(n: int, signed: bool = False) -> DescentTable:
    """The same table by direct enumeration of all (signed) permutations.

    Exists as an independent oracle for the closed-form route; refuses
    n above 9 (unsigned) or 7 (signed).
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    limit = BRUTE_FORCE_LIMITS["signed" if signed else "unsigned"]
    if n > limit:
        raise ResourceLimitError(
            f"brute_force_table(n={n}, signed={signed}) exceeds the limit {limit}"
        )
    if not signed:
        counts = [0] * (1 << (n - 1))
        for pi in permutations(range(1, n + 1)):
            mask = 0
            for i in range(n - 1):
                if pi[i] > pi[i + 1]:
                    mask |= 1 << i
            counts[mask] += 1
        return DescentTable(n=n, signed=False, values=tuple(counts))
    counts = [0] * (1 << n)
    for pi in permutations(range(1, n + 1)):
        for signs in range(1 << n):
            mask = 0
            prev = 0
            for i in range(n):
                v = -pi[i] if signs >> i & 1 else pi[i]
                if prev > v:
                    mask |= 1 << i
                prev = v
            counts[mask] += 1
    return DescentTable(n=n, signed=True, values=tuple(counts))


def _xor_subset_zeta(bits: int, universe: int) -> int:
    """Mod-2 subset sums of a Boolean table packed into one integer.

    Bit S of the result is the XOR of the input bits over all subsets of S.
    """
    width = 1 << universe
    for b in range(universe):
        step = 1 << b
        bits ^= (bits & _tile(step, width)) << step
    return bits


def _chain_positions(n: int) -> bytearray:
    # alpha_n(S) is odd iff the elements of S form a chain under bitwise
    # containment whose top is a proper submask of n, so the odd positions
    # are enumerated by extending chains one strict superset at a time.
    out = bytearray(max((1 << (n - 1)) >> 3, 1))

    def visit(pos: int, top: int) -> None:
        out[pos >> 3] |= 1 << (pos & 7)
        room = n & ~top
        sub = room
        while sub:
            t = top | sub
            if t != n:
                visit(pos | (1 << (t - 1)), t)
            sub = (sub - 1) & room

    visit(0, 0)
    return out


def beta_parity_bitset(n: int) -> int:
    """Parities of beta_n over all subsets, packed into one integer.

    Bit k is beta_n(S) mod 2 for the subset S with mask k.  Runs in time and
    memory proportional to 2**n bits, so n above ``DEFAULT_LIMITS["parity"]``
    is refused.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    limit = DEFAULT_LIMITS["parity"]
    if n > limit:
        raise ResourceLimitError(f"beta_parity_bitset(n={n}) exceeds the limit {limit}")
    packed = int.from_bytes(_chain_positions(n), "little")
    return _xor_subset_zeta(packed, n - 1)


@lru_cache(maxsize=None)
def rho(n: int) -> Fraction:
    """Fraction of subsets S of {1, ..., n-1} with beta_n(S) odd."""
    odd = beta_parity_bitset(n).bit_count()
    return Fraction(odd, 1 << (n - 1))


def _value_counts(table: DescentTable) -> tuple[list[int], list[int]]:
    """The distinct values of a table, and how many subsets take each."""
    counts = Counter(table.values)
    return list(counts), list(counts.values())


def _residue_counts(values: list[int], mults: list[int], modulus: int, order: int) -> list[int]:
    """hist[r] = sum of mult * ff(value, order) over the values = r mod modulus.

    The weights are built lazily, one chain of maps per order, so a pass
    holds no list beyond the histogram.
    """
    weights = mults
    for k in range(order):
        falling = map(operator.sub, values, repeat(k)) if k else values
        weights = map(operator.mul, weights, falling)
    hist = [0] * modulus
    for v, w in zip(values, weights):
        hist[v % modulus] += w
    return hist


def residue_histogram(table: DescentTable, m: int, order: int = 0) -> ResidueHistogram:
    """Sum ff(beta(S), order) over subsets, grouped by beta(S) mod m.

    Order 0 counts subsets per residue class; order j gives the residue data
    of the j-th derivative of the generating polynomial sum_S t^beta(S).
    """
    if m < 1:
        raise ContractViolationError(f"modulus must be >= 1, got {m}")
    if order < 0:
        raise ContractViolationError(f"order must be >= 0, got {order}")
    counts = _residue_counts(*_value_counts(table), m, order)
    return ResidueHistogram(m=m, order=order, counts=tuple(counts))


def _prime_power_base(q: int) -> int:
    if q < 2:
        raise ContractViolationError(f"need a prime power >= 2, got {q}")
    primes = prime_divisors(q)
    if len(primes) != 1:
        raise ContractViolationError(f"{q} is not a prime power")
    return primes[0]


def mod_p_prediction(n: int, q: int, S) -> int:
    """beta_n(S) mod p predicted from the smaller table beta_{n/q}.

    Requires q a prime power dividing n, with p its prime base.  Writing
    S/q for the elements of S divisible by q scaled down by q, the value is
    (-1)**|S minus the multiples of q| * beta_{n/q}(S/q) reduced mod p.
    """
    p = _prime_power_base(q)
    if n < 1 or n % q != 0:
        raise ContractViolationError(f"q={q} must divide n={n}")
    mask = as_mask(S, n - 1)
    r = n // q
    scaled = 0
    outside = 0
    for e in SubsetMask(n - 1, mask):
        if e % q == 0:
            scaled |= 1 << (e // q - 1)
        else:
            outside += 1
    small = beta_table(r).values[scaled]
    sign = -1 if outside % 2 else 1
    return (sign * small) % p


def _write_lines(table: DescentTable, f) -> None:
    f.write(f"{CACHE_FORMAT} n={table.n} signed={int(table.signed)}\n")
    values = table.values
    for lo in range(0, len(values), _SAVE_BLOCK):
        f.write("\n".join(map(str, values[lo : lo + _SAVE_BLOCK])))
        f.write("\n")


def save_table(table: DescentTable, path) -> None:
    """Write a table cache file: a header line then one decimal per subset.

    The lines are written in blocks to a new file beside ``path`` that then
    replaces it, so ``path`` never holds part of a table.  A symbolic link
    is followed, and a ``path`` that exists but is not a regular file, such
    as /dev/stdout, is written in place.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w") as f:
            _write_lines(table, f)
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x") as f:
            _write_lines(table, f)
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise


def load_table(path) -> DescentTable:
    """Read a cache file written by :func:`save_table`.

    Raises :class:`CacheError` on any malformation, including a value sum
    that disagrees with the permutation count.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise CacheError(f"{path}: empty cache file")
    head = lines[0].split()
    if (
        len(head) != 4
        or " ".join(head[:2]) != CACHE_FORMAT
        or not head[2].startswith("n=")
        or not head[3].startswith("signed=")
    ):
        raise CacheError(f"{path}: bad header {lines[0]!r}")
    try:
        n = int(head[2][2:])
        signed_flag = int(head[3][7:])
    except ValueError as exc:
        raise CacheError(f"{path}: bad header {lines[0]!r}") from exc
    if n < 1 or signed_flag not in (0, 1):
        raise CacheError(f"{path}: bad header {lines[0]!r}")
    signed = bool(signed_flag)
    body = lines[1:]
    expected = 1 << (n if signed else n - 1)
    if len(body) != expected:
        raise CacheError(
            f"{path}: expected {expected} values for n={n} signed={signed_flag}, "
            f"got {len(body)}"
        )
    try:
        values = tuple(int(line) for line in body)
    except ValueError as exc:
        raise CacheError(f"{path}: non-integer table entry") from exc
    if any(v < 0 for v in values):
        raise CacheError(f"{path}: negative table entry")
    if sum(values) != math.factorial(n) << (n if signed else 0):
        raise CacheError(f"{path}: table sum does not match the permutation count")
    return DescentTable(n=n, signed=signed, values=values)
