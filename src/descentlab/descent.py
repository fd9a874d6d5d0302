"""Descent set statistics of unsigned and signed permutations.

The central objects are the full tables beta_n(S) (number of permutations
with descent set exactly S) over every subset S, and a mod-2 fast path that
gets the parity of every beta_n(S) for n up to the low thirties without ever
materializing the exact table.

An exact table is built and kept packed: slot k of one byte buffer holds
the value for mask k in a fixed number of bytes, enough for its largest
value, the Euler number E_n (the signed Euler number when signed).  It is
built by a recursion on the top element s of a mask S' + {s}, with S'
inside {1, ..., s-1}.  Choose which s values fill the first s positions,
arrange them with descent set exactly S', and put the rest after them in
increasing order: the descent set is S' or S' + {s}, and the first case
takes in every permutation with descent set S'.  So

    beta_m(S' + {s}) = C(m, s) beta_s(S') - beta_m(S').

Signed, descents are read with a leading zero, so position 1 is a descent
when the first entry is negative and S' is carried by the first s - 1
entries; the m - s + 1 increasing entries after them take any signs:

    beta^B_m(S' + {s}) = C(m, s-1) 2**(m-s+1) beta^B_(s-1)(S') - beta^B_m(S').

The masks with top s are one run of slots, so the run is a whole smaller
table times one binomial minus the run's own prefix: one big-int multiply
and one subtraction per block of slots, f X - Y.  A slot's product,
beta_m(S' + {s}) + beta_m(S'), may pass E_n and spill into the next slot;
only the results must fit.  f X - Y is computed exactly, and its digits in
base 2**(8 w), w the slot width, are the new counts beta_m(S' + {s}), each
in [0, E_n], so written back it is the run, slot by slot.

Complementing the values of a permutation (negating them, when signed)
complements its descent set, so beta_n(S) = beta_n(complement of S): the
upper half of a table, the masks with the top element of the universe, is
the lower half in reverse slot order.  So a table holds only its lower
half, and a mask in the upper half is read from the slot of its
complement; nothing is copied.  Every path that reads a table (the
``table`` summary, the value multiset behind the factor scan, the cache
file) takes the cache-sized blocks of slots the build takes, so the
2**(n-1) values never exist as Python ints all at once; the first two
read only the stored half, and the second keeps one value per orbit of a
second symmetry (see :func:`_value_counts`).

The parity route takes the subset zeta transform mod 2 of the few odd
alpha positions with :func:`_xor_zeta_chunks`, which streams it one
cache-sized chunk of 1-bit slots at a time, each pass one big-int XOR;
XOR cannot carry.  The symmetry holds mod 2 as well, so it too covers
only the lower half, 2**(n-2) bits, whose mirror is the upper half:
``rho`` counts its bits chunk by chunk and never holds the half.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache, partial
from io import BytesIO
from itertools import chain, compress, islice, permutations, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import CacheError, ContractViolationError, DescentLabError, ResourceLimitError
from .numbers import as_mask, euler_number, prime_divisors, signed_euler_number

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DEFAULT_LIMITS",
    "BRUTE_FORCE_LIMITS",
    "DescentTable",
    "beta_table",
    "brute_force_table",
    "beta_parity_bitset",
    "rho",
    "residue_histogram",
    "mod_p_prediction",
    "save_table",
    "load_table",
]

# The one ceiling on n of each kind of table, checked by _check_n: beta_table
# and a cache file refuse an unsigned or signed n above it, the parity route
# (beta_parity_bitset, rho) a larger n.  The exact tables hold every value
# in 8 bytes or fewer (E_24 has 64 bits, the signed Euler number of 18 has
# 59), and the lower half at n = 24 is 2**22 such slots.  Time sets the
# parity ceiling: its transform streams 2**(n-2) bits, about 0.3 s at
# n = 31 (`rho --n 31` runs in about 0.5 s and peaks at about 18 MB), and
# doubles with each unit of n.
DEFAULT_LIMITS = {"unsigned": 24, "signed": 18, "parity": 31}
# Hard ceilings for the factorial-time oracle.
BRUTE_FORCE_LIMITS = {"unsigned": 9, "signed": 7}

# Ceiling on a residue modulus, and so on a factor scan's bound: the
# candidate list and the histogram of a lone candidate are both that long.
MAX_INDEX = 1_000_000

CACHE_FORMAT = "descentlab-table v1"
# The table recursion, every read of a table and the mod-2 transform run
# over blocks of at most this many bytes, small enough that a block and its
# temporaries stay in the processor's cache.
_CHUNK_BYTES = 1 << 15


def _check_n(n: int, kind: str, call: str, limits: dict[str, int] = DEFAULT_LIMITS) -> None:
    """Refuse an n outside [1, ``limits[kind]``] for ``call``, the text of
    the call that asked for it; ``kind`` is "unsigned", "signed" or
    "parity"."""
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    limit = limits[kind]
    if n > limit:
        raise ResourceLimitError(f"{call} exceeds the limit {limit}")


def _block(width: int) -> int:
    return max(_CHUNK_BYTES // width, 1)  # whole slots, at least one


def _slot_width(n: int, signed: bool) -> int:
    """Bytes per packed slot: enough for the table's largest value, E_n (the
    signed Euler number when signed), which bounds every value of it and of
    the smaller tables its recursion reads (see the module docstring)."""
    top = signed_euler_number(n) if signed else euler_number(n)
    return (top.bit_length() + 7) // 8


@dataclass(frozen=True)
class DescentTable:
    """All values beta_n(S), indexed by subset bitmask, held packed.

    The subsets range over {1, ..., n-1} in the unsigned case and
    {1, ..., n} in the signed case.  ``data`` holds one slot of
    ``_slot_width(n, signed)`` bytes, which hold the largest value (E_n or
    its signed analogue), for each of the ``stored`` masks without the top
    element of the universe (the one mask, when the universe is empty):
    bytes [k * width, (k + 1) * width), read little-endian, are the count
    for the subset whose mask is k.  A mask k at or above ``stored`` is read
    from the slot of its complement, 2**universe - 1 - k.  ``value(S)``
    decodes one slot and ``chunks()`` yields the values of every mask in
    mask order, in the cache-sized blocks of the build; ``values`` builds
    the whole tuple, which at n = 23 is 4,194,304 ints, so only small
    tables should be read through it.
    """

    n: int
    signed: bool
    data: bytes

    @property
    def universe(self) -> int:
        return self.n if self.signed else self.n - 1

    @property
    def stored(self) -> int:
        """The number of slots held: 2**(universe - 1), or 1 when the
        universe is empty."""
        return 1 << max(self.universe - 1, 0)

    @property
    def width(self) -> int:
        return len(self.data) // self.stored

    def value(self, S) -> int:
        k = as_mask(S, self.universe)
        if k >= self.stored:
            k = (1 << self.universe) - 1 - k
        width = self.width
        return int.from_bytes(self.data[k * width : (k + 1) * width], "little")

    def chunks(self, stop: int | None = None) -> Iterator[list[int]]:
        """The values of the masks below ``stop`` (default all) in mask order,
        in lists of as many as ``_CHUNK_BYTES`` holds slots (fewer when the
        table is smaller).

        Below ``stored`` a block is a run of slots; above it, the run of
        their complements' slots reversed."""
        full, stored, width = 1 << self.universe, self.stored, self.width
        stop = full if stop is None else stop
        step = _block(width)
        for lo in range(0, stop, step):
            hi = min(lo + step, stop)
            block = _unpack(self.data[lo * width : min(hi, stored) * width], width)
            if hi > stored:
                mirror = self.data[(full - hi) * width : (full - max(lo, stored)) * width]
                block += _unpack(mirror, width)[::-1]
            yield block

    @property
    def values(self) -> tuple[int, ...]:
        """Every value, ``values[k]`` for mask k."""
        return tuple(chain.from_iterable(self.chunks()))

    def __post_init__(self) -> None:
        width = _slot_width(self.n, self.signed)
        if len(self.data) != width * self.stored:
            raise ContractViolationError(
                f"table for n={self.n} signed={self.signed} needs "
                f"{self.stored} slots of {width} bytes, got {len(self.data)} bytes"
            )


def _tile(run: int, total: int) -> int:
    """``total`` bits of alternating runs of ``run`` ones and ``run`` zeros,
    starting with ones at bit 0.

    When ``run`` is 2**b, the ones cover the bits whose mask lacks bit b:
    the partners that a subset transform pass moves up by 2**b.
    """
    tile = (1 << run) - 1
    span = 2 * run
    while span < total:
        tile |= tile << span
        span *= 2
    return tile


def _unpack(buf: bytes, width: int) -> list[int]:
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


_WORD = (1 << 64) - 1


def _pack(values: list[int], width: int) -> bytes:
    """The inverse of :func:`_unpack`: ``values`` in ``width``-byte slots,
    written eight bytes at a time.

    Each value must lie in [0, 2**(8 * width)), since a negative or wider
    value would wrap silently: :func:`load_table` checks the values it
    reads, and every other caller packs values that its width bounds.
    """
    buf = bytearray(width * len(values))
    rest = values
    for lo in range(0, width, 8):
        try:  # the common case: every value left fits in this limb
            words, rest = array("Q", rest), None
        except OverflowError:
            words = array("Q", [v & _WORD for v in rest])
            rest = [v >> 64 for v in rest]
        limb = words.tobytes()
        for b in range(lo, min(lo + 8, width)):
            at = b - lo if sys.byteorder == "little" else lo + 7 - b
            buf[b::width] = limb[at::8]
        if rest is None:
            break
    return bytes(buf)


def beta_table(n: int, signed: bool = False) -> DescentTable:
    """Exact table of beta_n(S) over all subsets, built on each call.

    Nothing else keeps the table: a caller that reads it twice holds it,
    and it is freed when its last holder drops it.  Size doubles per unit
    of n, so n above its kind's ceiling in ``DEFAULT_LIMITS`` (24
    unsigned, 18 signed) is refused.
    """
    _check_n(n, "signed" if signed else "unsigned", f"beta_table(n={n}, signed={signed})")
    signed = bool(signed)
    # Run i of the table of universe u, the slots [2**i, 2**(i+1)) of the
    # masks with top element i + 1, is the whole table of universe i times
    # one binomial, minus the run's own prefix (see the module docstring).
    # The whole tables of universe u < universe - 1 are built first, by the
    # same loop, that of u at slots [2**u, 2**(u+1)), which run u of the
    # lower half fills; then that half, in the same buffer and in ascending
    # run order: run i reads the table of universe i, still in its slots,
    # and a prefix that is already final.
    universe = n if signed else n - 1
    width = _slot_width(n, signed)
    # The buffer is zeroed bytes that only a BytesIO holds, written through
    # its view: once that is released, getvalue() hands the bytes over
    # without a copy, so the table holds immutable bytes at a peak of one half.
    buf = BytesIO(bytes(width << max(universe - 1, 0)))
    step = _block(width) * width
    with buf.getbuffer() as view:
        builds = [(u, width << u) for u in range(universe - 1)]
        for u, base in [*builds, (universe, 0)]:
            view[base] = 1
            for i in range(min(u, universe - 1)):
                factor = math.comb(u, i) << (u - i) if signed else math.comb(u + 1, i + 1)
                lo = width << i  # the table of universe i starts at slot 2**i
                for at in range(0, lo, step):
                    end = min(at + step, lo)
                    run = factor * int.from_bytes(view[lo + at : lo + end], "little")
                    run -= int.from_bytes(view[base + at : base + end], "little")
                    view[base + lo + at : base + lo + end] = run.to_bytes(end - at, "little")
    return DescentTable(n=n, signed=signed, data=buf.getvalue())


def _enumerate_counts(n: int, signed: bool) -> list[int]:
    """The number of (signed) permutations with each descent set, counted
    one permutation at a time, ``counts[k]`` for mask k."""
    if not signed:
        counts = [0] * (1 << (n - 1))
        for pi in permutations(range(1, n + 1)):
            mask = 0
            for i in range(n - 1):
                if pi[i] > pi[i + 1]:
                    mask |= 1 << i
            counts[mask] += 1
    else:
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
    return counts


def brute_force_table(n: int, signed: bool = False) -> DescentTable:
    """The same table by direct enumeration of all (signed) permutations.

    Exists as an independent oracle for the closed-form route; refuses
    n above 9 (unsigned) or 7 (signed).  Every mask is counted, and the
    counts must be complement symmetric before the lower half is kept.
    """
    kind = "signed" if signed else "unsigned"
    _check_n(n, kind, f"brute_force_table(n={n}, signed={signed})", BRUTE_FORCE_LIMITS)
    counts = _enumerate_counts(n, signed)
    if counts != counts[::-1]:
        raise DescentLabError(
            f"enumerated table for n={n} signed={signed} is not complement symmetric"
        )
    half = counts[: max(len(counts) // 2, 1)]
    return DescentTable(n=n, signed=signed, data=_pack(half, _slot_width(n, signed)))


def _xor_zeta_chunks(positions: Iterable[int], universe: int) -> Iterator[int]:
    """The subset zeta transform mod 2 of the set of masks ``positions``
    over a ``universe``-element set, bit k the parity of the number of
    positions that are submasks of k, yielded in chunks of
    2**min(universe, 18) bits: chunk c is bits [c << low, (c + 1) << low).

    The transform over the elements below low (the low part) composed with
    that over the elements above it (the high part) is the whole transform.
    So chunk c is the in-chunk transform, each pass one big-int XOR with a
    tile built once, of one input: the XOR of the low parts of every
    position whose high part is a submask of c.  Only one chunk is held at
    a time, besides one input per distinct high part.
    """
    low = min(universe, (8 * _CHUNK_BYTES).bit_length() - 1)
    bits = 1 << low
    passes = [(_tile(1 << b, bits), 1 << b) for b in range(low)]
    parts: defaultdict[int, bytearray] = defaultdict(partial(bytearray, max(bits >> 3, 1)))
    for p in positions:
        k = p & (bits - 1)
        parts[p >> low][k >> 3] ^= 1 << (k & 7)
    inputs = [(h, int.from_bytes(part, "little")) for h, part in parts.items()]
    del parts
    for c in range(1 << (universe - low)):
        x = 0
        for h, part in inputs:
            if h & ~c == 0:
                x ^= part
        for tile, shift in passes:
            x ^= (x & tile) << shift
        yield x


def _chain_positions(n: int) -> list[int]:
    # alpha_n(S) is odd iff the elements of S form a chain under bitwise
    # containment whose top is a proper submask of n, so the odd positions
    # are enumerated by extending chains one strict superset at a time, from
    # a stack of (position, top) pairs still to extend.  Only the lower half
    # is kept, the positions without element n - 1, so only tops below n - 1
    # are extended: n is never a top, and a chain through n - 1 (a submask
    # of n only when n is odd) stays in the upper half.
    out = []
    stack = [(0, 0)]
    while stack:
        pos, top = stack.pop()
        out.append(pos)
        room = n & ~top
        sub = room
        while sub:
            t = top | sub
            if t < n - 1:
                stack.append((pos | (1 << (t - 1)), t))
            sub = (sub - 1) & room
    return out


def _parity_chunks(n: int, name: str) -> Iterator[int]:
    """beta_n mod 2 over the lower half, the masks without element n - 1
    (all of the one mask when n = 1), bit k for mask k, in the chunks of
    :func:`_xor_zeta_chunks`: the mod-2 zeta transform of the odd alpha
    positions there.  Every subset of such a mask is one too, so this is
    the lower half of the whole transform.  n is checked for ``name`` here,
    not at the first chunk."""
    _check_n(n, "parity", f"{name}(n={n})")
    return _xor_zeta_chunks(_chain_positions(n), max(n - 2, 0))


def beta_parity_bitset(n: int) -> int:
    """Parities of beta_n over the lower half, packed into one integer.

    Bit k is beta_n(S) mod 2 for the subset S with mask k, for the
    2**(n-2) masks without element n - 1 (the one mask when n = 1).  As in
    a :class:`DescentTable`, the upper half is the lower half mirrored:
    mask 2**(n-1) - 1 - k has the bit of mask k.  Runs in time and memory
    proportional to 2**n bits, so n above ``DEFAULT_LIMITS["parity"]`` is
    refused.
    """
    chunks = _parity_chunks(n, "beta_parity_bitset")
    # every chunk but a lone one fills _CHUNK_BYTES, and a lone one's
    # padding is high zero bits
    return int.from_bytes(b"".join(x.to_bytes(_CHUNK_BYTES, "little") for x in chunks), "little")


@lru_cache(maxsize=None)
def rho(n: int) -> Fraction:
    """Fraction of subsets S of {1, ..., n-1} with beta_n(S) odd: that of
    the lower half, whose mirror is the upper half, counted one chunk at a
    time."""
    # imported here: no other path makes a Fraction, and a launch that never
    # calls rho saves the import
    from fractions import Fraction

    odd = sum(x.bit_count() for x in _parity_chunks(n, "rho"))
    return Fraction(odd, 1 << max(n - 2, 0))


# Translations of the codes of _orbit_codes into the selectors of one class.
_PAIRED = bytes.maketrans(b"\1\2", b"\1\0")
_FIXED = bytes.maketrans(b"\1\2", b"\0\1")


def _orbit_codes(universe: int) -> bytearray:
    """One code per stored slot of an unsigned table of universe >= 2: 1 for
    the smaller slot of a sigma pair, 0 for the larger, 2 for a fixed slot
    (sigma as in :func:`_value_counts`).

    A stored slot a + 2 w, a its bit 0, goes to a + 2 r(w) when a = 0 and to
    a + 2 c(r(w)) when a = 1, so its code is that of the inner mask w under
    r (``rev``) or under c r (``flip``).  A mask of m bits meets its image
    on its outer bits first and on its m - 2 inner bits when they agree, so
    each code string for m bits is two byte interleaves of those for m - 2.
    """
    m = universe - 2
    rev, flip = (b"\2", b"\2") if m % 2 == 0 else (b"\2\2", b"\1\0")
    while len(rev) < 1 << m:
        half, ones = 2 * len(rev), b"\1" * len(rev)
        outer_rev, outer_flip = bytearray(2 * half), bytearray(2 * half)
        # r swaps the outer bits: (a, b) = (1, 0) is below its image, (0, 1) above
        outer_rev[:half:2], outer_rev[1:half:2], outer_rev[half + 1 :: 2] = rev, ones, rev
        # c r takes (a, b) to (1 - b, 1 - a): (0, 0) is below its image, (1, 1) above
        outer_flip[:half:2], outer_flip[1:half:2], outer_flip[half::2] = ones, flip, flip
        rev, flip = outer_rev, outer_flip
    codes = bytearray(2 << m)
    codes[0::2], codes[1::2] = rev, flip
    return codes


def _value_counts(table: DescentTable) -> list[tuple[int, Sequence[int]]]:
    """The multiset of a table's values as (weight, values) classes: each
    value of a class stands for ``weight`` subsets.

    Taking each entry to n + 1 minus it (to its negative when signed)
    complements the descent set, c; unsigned, pi to (n + 1 - pi_n, ...,
    n + 1 - pi_1) takes S to n - S, the bit reversal r of the mask.  So
    beta_n(S) = beta_n(c(S)) and, unsigned, beta_n(S) = beta_n(r(S)).  On
    the stored slots (top bit clear) let sigma(k) = r(k) when bit 0 of k is
    clear and c(r(k)) when it is set: sigma maps them onto themselves, and
    every orbit of c and r has twice the size of the sigma orbit it meets
    there.  So an unsigned universe of 2 or more gives one value per sigma
    pair with weight 4 and each sigma-fixed slot with weight 2.  Signed
    tables have no reflection symmetry (at signed n = 14, 8188 of the 8190
    distinct values occur only twice), so every stored slot has weight 2;
    the empty universe's one mask has weight 1.  The slots are read in
    cache-sized blocks, and no dict is built.

    A class is an ``array('Q')`` of 64-bit words, which holds every value:
    no table within ``DEFAULT_LIMITS`` has slots wider than 8 bytes.  That
    is 8 bytes a value where a list holds a pointer and a boxed int of 28
    to 32.
    """
    starts = range(0, table.stored, _block(table.width))
    blocks = table.chunks(table.stored)
    if table.signed or table.universe < 2:
        return [(2 if table.universe else 1, array("Q", chain.from_iterable(blocks)))]
    codes = _orbit_codes(table.universe)
    paired, fixed = array("Q"), array("Q")
    for lo, block in zip(starts, blocks):
        selector = codes[lo : lo + len(block)]
        paired.extend(compress(block, selector.translate(_PAIRED)))
        fixed.extend(compress(block, selector.translate(_FIXED)))
    return [(4, paired), (2, fixed)]


def _residue_counts(
    classes: list[tuple[int, Sequence[int]]], modulus: int, order: int
) -> list[int]:
    """hist[r] = sum of weight * ff(value, order) over the class values = r
    mod modulus.

    The terms are built lazily, so a pass holds no list beyond the
    histogram and, at order 1 or more, one class's counts.  Order 0 adds
    the class weight per value.  Above it a class is counted unweighted,
    ff(v, 1) = v, ff(v, 2) = v * (v - 1) and higher orders
    ``math.perm(v, order)``, each 0 for v below the order, and the weight
    multiplies each residue's count once.
    """
    hist = [0] * modulus
    for weight, values in classes:
        if not order:
            for v in values:
                hist[v % modulus] += weight
            continue
        counts = [0] * modulus
        if order == 1:
            for v in values:
                counts[v % modulus] += v
        elif order == 2:
            for v in values:
                counts[v % modulus] += v * (v - 1)
        else:
            for v, f in zip(values, map(math.perm, values, repeat(order))):
                counts[v % modulus] += f
        for r, c in enumerate(counts):
            if c:
                hist[r] += weight * c
    return hist


def residue_histogram(table: DescentTable, m: int, order: int = 0) -> list[int]:
    """The list of m counts: entry r sums ff(beta(S), order) over the subsets
    S with beta(S) = r mod m, where ff(v, j) = v (v-1) ... (v-j+1).

    Order 0 counts subsets per residue class; order j gives the residue data
    of the j-th derivative of the generating polynomial sum_S t^beta(S).
    ``m`` above MAX_INDEX raises :class:`ResourceLimitError`.
    """
    if m < 1:
        raise ContractViolationError(f"modulus must be >= 1, got {m}")
    if m > MAX_INDEX:
        raise ResourceLimitError(f"modulus {m} exceeds the limit {MAX_INDEX}")
    if order < 0:
        raise ContractViolationError(f"order must be >= 0, got {order}")
    return _residue_counts(_value_counts(table), m, order)


def _prime_power_base(q: int) -> int:
    if q < 2:
        raise ContractViolationError(f"need a prime power >= 2, got {q}")
    primes = prime_divisors(q)
    if len(primes) != 1:
        raise ContractViolationError(f"{q} is not a prime power")
    return primes[0]


def mod_p_prediction(n: int, q: int) -> list[int]:
    """beta_n(S) mod p predicted for every mask S of {1, ..., n-1}, entry k
    for mask k, from one build of the smaller table beta_{n/q}.

    Requires q a prime power dividing n, with p its prime base, and n
    within the unsigned ceiling, since the list is as long as the table of
    n.  Writing S/q for the elements of S divisible by q scaled down by q,
    entry S is (-1)**|S minus the multiples of q| * beta_{n/q}(S/q)
    reduced mod p.
    """
    p = _prime_power_base(q)
    if n < 1 or n % q != 0:
        raise ContractViolationError(f"q={q} must divide n={n}")
    _check_n(n, "unsigned", f"mod_p_prediction(n={n}, q={q})")
    small = beta_table(n // q).values
    # element e doubles the masks so far: those with bit e - 1 follow those
    # without, their sign flipped, or their scaled mask given e / q
    scaled, signs = [0], [1]
    for e in range(1, n):
        if e % q:
            scaled += scaled
            signs += [-s for s in signs]
        else:
            scaled += [k | 1 << (e // q - 1) for k in scaled]
            signs += signs
    return [s * small[k] % p for s, k in zip(signs, scaled)]


def _write_lines(table: DescentTable, f) -> None:
    f.write(f"{CACHE_FORMAT} n={table.n} signed={int(table.signed)}\n")
    for block in table.chunks():
        f.write(("%d\n" * len(block)) % tuple(block))


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


def _parse_header(header: str, path) -> tuple[int, int]:
    """n and the signed flag (0 or 1) from a cache file's first line.  An n
    above its kind's ceiling is a malformation too, refused before any
    value is sized."""
    if not header:
        raise CacheError(f"{path}: empty cache file")
    line = header.rstrip("\n")
    bad = CacheError(f"{path}: bad header {line!r}")
    head = header.split()
    if (
        len(head) != 4
        or " ".join(head[:2]) != CACHE_FORMAT
        or not head[2].startswith("n=")
        or not head[3].startswith("signed=")
    ):
        raise bad
    try:
        n = int(head[2][2:])
        signed_flag = int(head[3][7:])
    except ValueError as exc:
        raise bad from exc
    if n < 1 or signed_flag not in (0, 1):
        raise bad
    kind = "signed" if signed_flag else "unsigned"
    try:
        _check_n(n, kind, f"{path}: header n={n} signed={signed_flag}")
    except ResourceLimitError as exc:
        raise CacheError(str(exc)) from exc
    return n, signed_flag


def load_table(path) -> DescentTable:
    """Read a cache file written by :func:`save_table`.

    Raises :class:`CacheError` on any malformation, including a header n
    above its kind's ceiling in ``DEFAULT_LIMITS``, bytes that are not text,
    an upper half that is not the lower half reversed, and a value sum that
    disagrees with the permutation count.  The values are parsed one
    cache-sized block of slots at a time, as a table is read, so neither
    the text nor the values are held whole: those of the lower half are
    checked and packed, and each block of the upper half is compared with
    the slots of its complements.  The lower half's values are checked for
    their sign and for the slot width, where packing would wrap them.
    """
    try:
        with open(path, encoding="ascii") as f:
            header = f.readline()
            n, signed_flag = _parse_header(header, path)
            expected = 1 << (n + signed_flag - 1)
            stored = max(expected >> 1, 1)
            width = _slot_width(n, bool(signed_flag))
            lower = BytesIO()
            got = total = 0
            negative = wide = unmirrored = False
            try:
                while block := list(map(int, islice(f, min(_block(width), stored - got)))):
                    got += len(block)
                    negative = negative or min(block) < 0
                    wide = wide or max(block) >> 8 * width > 0
                    total += sum(block)
                    lower.write(_pack(block, width))
                data = lower.getvalue()  # its bytes, not a copy
                while block := list(map(int, islice(f, min(_block(width), expected - got)))):
                    # masks [got, got + len) mirror slots [expected - got - len, expected - got)
                    end = (expected - got) * width
                    mirror = _unpack(data[end - len(block) * width : end], width)
                    got += len(block)
                    total += sum(block)
                    unmirrored = unmirrored or block != mirror[::-1]
            except ValueError as exc:  # undecodable bytes land here too
                raise CacheError(f"{path}: non-integer table entry") from exc
            got += sum(1 for _ in f)
    except OSError as exc:
        raise CacheError(f"cannot read cache file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CacheError(f"{path}: not a text cache file ({exc.reason})") from exc
    if got != expected:
        raise CacheError(
            f"{path}: expected {expected} values for n={n} signed={signed_flag}, "
            f"got {got}"
        )
    if negative:
        raise CacheError(f"{path}: negative table entry")
    if wide:
        raise CacheError(f"{path}: table entry wider than its {width}-byte slot")
    if unmirrored:
        raise CacheError(f"{path}: halves are not complements")
    if total != math.factorial(n) << (n if signed_flag else 0):
        raise CacheError(f"{path}: table sum does not match the permutation count")
    return DescentTable(n=n, signed=bool(signed_flag), data=data)
