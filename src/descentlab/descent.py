"""Descent set statistics of unsigned and signed permutations.

The central objects are the full tables beta_n(S) (number of permutations
with descent set exactly S) over every subset S, and a mod-2 fast path that
gets the parity of every beta_n(S) for n up to the low thirties without ever
materializing the exact table.

An exact table is built and kept packed: slot k of one byte buffer holds
the value for mask k in a fixed number of bytes, enough for n! (times 2**n
when signed).  It is built by a recursion on the top element s of a mask
S' + {s}, with S' inside {1, ..., s-1}.  Choose which s values fill the
first s positions, arrange them with descent set exactly S', and put the
rest after them in increasing order: the descent set is S' or S' + {s},
and the first case takes in every permutation with descent set S'.  So

    beta_m(S' + {s}) = C(m, s) beta_s(S') - beta_m(S').

Signed, descents are read with a leading zero, so position 1 is a descent
when the first entry is negative and S' is carried by the first s - 1
entries; the m - s + 1 increasing entries after them take any signs:

    beta^B_m(S' + {s}) = C(m, s-1) 2**(m-s+1) beta^B_(s-1)(S') - beta^B_m(S').

The masks with top s are one run of slots, so the run is a whole smaller
table times one binomial minus the run's own prefix: one big-int multiply
and one subtraction per block of slots.  No slot carries into or borrows
from the next: each product is beta_m(S' + {s}) + beta_m(S'), at most the
slot bound, and each difference is a count, so nonnegative.  Only the lower
half is built, the masks without the top element of the universe.
Complementing the values of a permutation (negating them, when signed)
complements its descent set, so beta_n(S) = beta_n(complement of S) and the
upper half is the lower half in reverse slot order, copied one slot byte at
a time.  The paths that run at large n (the ``table`` summary, the value
histogram behind the factor scan, the cache file) read the slots in blocks
of ``_SAVE_BLOCK`` values, so the 2**(n-1) values never exist as Python
ints all at once.

The parity route takes the subset zeta transform mod 2 with
:func:`_packed_transform`, XOR over 1-bit slots as big-int operations on
cache-sized chunks; XOR cannot carry.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, islice, permutations, repeat
from pathlib import Path
from typing import Iterator

from .errors import CacheError, ContractViolationError, ResourceLimitError
from .numbers import as_mask, mask_to_composition, multinomial, prime_divisors

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
# n = 31 its 2**30-bit table is 128 MB, and `rho --n 31` peaks at about
# 150 MB.
DEFAULT_LIMITS = {"unsigned": 24, "signed": 18, "parity": 31}
# Hard ceilings for the factorial-time oracle.
BRUTE_FORCE_LIMITS = {"unsigned": 9, "signed": 7}

CACHE_FORMAT = "descentlab-table v1"
# Values per block: a table is read, saved and loaded this many at a time.
_SAVE_BLOCK = 1 << 16


def _slot_width(n: int, signed: bool) -> int:
    """Bytes per packed slot: enough for the number of (signed) permutations,
    which bounds every value and every product of the table recursion."""
    return ((math.factorial(n) << (n if signed else 0)).bit_length() + 7) // 8


@dataclass(frozen=True)
class DescentTable:
    """All values beta_n(S), indexed by subset bitmask, held packed.

    The subsets range over {1, ..., n-1} in the unsigned case and
    {1, ..., n} in the signed case.  ``data`` holds one slot of
    ``_slot_width(n, signed)`` bytes per subset: bytes [k * width,
    (k + 1) * width), read little-endian, are the count for the subset whose
    mask is k.  ``value(S)`` decodes one slot and ``chunks()`` yields the
    values in mask order, ``_SAVE_BLOCK`` at a time; ``values`` builds the
    whole tuple, which at n = 23 is 4,194,304 ints, so only small tables
    should be read through it.
    """

    n: int
    signed: bool
    data: bytes

    @property
    def universe(self) -> int:
        return self.n if self.signed else self.n - 1

    @property
    def width(self) -> int:
        return len(self.data) >> self.universe

    def value(self, S) -> int:
        k = as_mask(S, self.universe)
        width = self.width
        return int.from_bytes(self.data[k * width : (k + 1) * width], "little")

    def chunks(self, stop: int | None = None) -> Iterator[list[int]]:
        """The values of the masks below ``stop`` (default all) in mask order,
        in lists of ``_SAVE_BLOCK`` (fewer when the table is smaller)."""
        width = self.width
        step = width * _SAVE_BLOCK
        end = len(self.data) if stop is None else stop * width
        for lo in range(0, end, step):
            yield _unpack(self.data[lo : min(lo + step, end)], width)

    @property
    def values(self) -> tuple[int, ...]:
        """Every value, ``values[k]`` for mask k."""
        return tuple(chain.from_iterable(self.chunks()))

    def __post_init__(self) -> None:
        width = _slot_width(self.n, self.signed)
        if len(self.data) != width << self.universe:
            raise ContractViolationError(
                f"table for n={self.n} signed={self.signed} needs "
                f"{1 << self.universe} slots of {width} bytes, got {len(self.data)} bytes"
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


def alpha(n: int, S) -> int:
    """Number of permutations of {1, ..., n} with descent set contained in S.

    Equals the multinomial coefficient of the gap composition of S in n.
    """
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    mask = as_mask(S, n - 1)
    return multinomial(n, mask_to_composition(mask, n))


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
    gamma = mask_to_composition(mask, n + 1)
    first = gamma[0]
    rest = gamma[1:] if first == 1 else (first - 1,) + gamma[1:]
    return multinomial(n, rest) << (n + 1 - first)


def _subset_transform(vals: list, op) -> None:
    """vals[S] <- op(vals[S], vals[S - {b}]) for every element b of S, in place.

    ``operator.add`` gives the subset zeta transform (sums over subsets),
    ``operator.sub`` its inverse, the subset Moebius inversion, and
    ``operator.xor`` the zeta transform mod 2.
    """
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

    When ``run`` is 2**b, the ones cover the bits whose mask lacks bit b:
    the partners that a subset transform pass moves up by 2**b.
    """
    tile = (1 << run) - 1
    span = 2 * run
    while span < total:
        tile |= tile << span
        span *= 2
    return tile


# The packed transform and the table recursion run over chunks of at most
# this many bytes, small enough that a chunk and its temporaries stay in
# the processor's cache.
_CHUNK_BYTES = 1 << 15


def _packed_transform(buf: bytearray, universe: int) -> None:
    """The subset zeta transform mod 2 of the bits of ``buf``, in place:
    :func:`_subset_transform` under XOR, with bit k the entry for mask k.

    A chunk is the largest power of two of bits within ``_CHUNK_BYTES``,
    or the whole buffer when that is smaller; inside it each pass is one
    big-int XOR with a tile built once.  The elements above the chunk size
    pair whole chunks, in two rounds so that only a few chunks are held as
    ints at a time (all of them at once would double the memory of the
    buffer): first among neighbouring chunks, then among chunks a group
    apart.
    """
    low = min(universe, (8 * _CHUNK_BYTES).bit_length() - 1)
    chunk = max((1 << low) // 8, 1)
    passes = [(_tile(1 << b, 8 * chunk), 1 << b) for b in range(low)]
    count = 1 << (universe - low)
    group = 1 << ((universe - low + 1) // 2)
    view = memoryview(buf)

    def transform(indexes, inner) -> None:
        xs = []
        for i in indexes:
            x = int.from_bytes(view[i * chunk : (i + 1) * chunk], "little")
            for tile, shift in inner:
                x ^= (x & tile) << shift
            xs.append(x)
        _subset_transform(xs, operator.xor)
        for i, x in zip(indexes, xs):
            view[i * chunk : (i + 1) * chunk] = x.to_bytes(chunk, "little")

    for lo in range(0, count, group):
        transform(range(lo, lo + group), passes)
    if group < count:
        for lo in range(group):
            transform(range(lo, count, group), ())


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

    Each value must lie in [0, 2**(8 * width)); the caller checks that,
    since a negative or wider value would wrap silently.
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


@lru_cache(maxsize=8)
def _table(n: int, signed: bool) -> DescentTable:
    # Run i of the table of universe u, the slots [2**i, 2**(i+1)) of the
    # masks with top element i + 1, is the whole table of universe i times
    # one binomial, minus the run's own prefix (see the module docstring).
    # The tables of universe u < universe - 1 are built first, by the same
    # loop, into the upper half, that of u in the 2**u slots from slot
    # half + 2**u; then the lower half, which needs them all, and the
    # complement copy over them.
    universe = n if signed else n - 1
    width = _slot_width(n, signed)
    buf = bytearray(width << universe)
    view = memoryview(buf)
    half = len(buf) // 2
    starts = [half + (width << u) for u in range(universe - 1)]
    step = max(_CHUNK_BYTES // width, 1) * width  # whole slots, cache-sized
    for u, base in [*enumerate(starts), (universe, 0)]:
        view[base] = 1
        for i in range(min(u, universe - 1)):
            factor = math.comb(u, i) << (u - i) if signed else math.comb(u + 1, i + 1)
            source, lo = starts[i], width << i
            for at in range(0, lo, step):
                end = min(at + step, lo)
                run = factor * int.from_bytes(view[source + at : source + end], "little")
                run -= int.from_bytes(view[base + at : base + end], "little")
                view[base + lo + at : base + lo + end] = run.to_bytes(end - at, "little")
    if universe:
        # slot half + j is the complement of slot half - 1 - j
        for b in range(width):
            buf[half + b :: width] = buf[b:half:width][::-1]
    return DescentTable(n=n, signed=signed, data=bytes(buf))


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
    return DescentTable(n=n, signed=signed, data=_pack(counts, _slot_width(n, signed)))


def _bitset(universe: int) -> bytearray:
    """A zeroed buffer of one bit per subset of a ``universe``-element set."""
    return bytearray(max((1 << universe) >> 3, 1))


def _bit_count(buf: bytearray) -> int:
    """The number of set bits of ``buf``, counted one chunk at a time."""
    view = memoryview(buf)
    return sum(
        int.from_bytes(view[lo : lo + _CHUNK_BYTES], "little").bit_count()
        for lo in range(0, len(buf), _CHUNK_BYTES)
    )


def _chain_positions(n: int) -> bytearray:
    # alpha_n(S) is odd iff the elements of S form a chain under bitwise
    # containment whose top is a proper submask of n, so the odd positions
    # are enumerated by extending chains one strict superset at a time, from
    # a stack of (position, top) pairs still to extend.
    out = _bitset(n - 1)
    stack = [(0, 0)]
    while stack:
        pos, top = stack.pop()
        out[pos >> 3] |= 1 << (pos & 7)
        room = n & ~top
        sub = room
        while sub:
            t = top | sub
            if t != n:
                stack.append((pos | (1 << (t - 1)), t))
            sub = (sub - 1) & room
    return out


def _parity_bits(n: int) -> bytearray:
    """beta_n mod 2 over all subsets, bit k for mask k: the mod-2 zeta
    transform of the odd alpha positions."""
    if n < 1:
        raise ContractViolationError(f"n must be >= 1, got {n}")
    limit = DEFAULT_LIMITS["parity"]
    if n > limit:
        raise ResourceLimitError(f"beta_parity_bitset(n={n}) exceeds the limit {limit}")
    buf = _chain_positions(n)
    _packed_transform(buf, n - 1)
    return buf


def beta_parity_bitset(n: int) -> int:
    """Parities of beta_n over all subsets, packed into one integer.

    Bit k is beta_n(S) mod 2 for the subset S with mask k.  Runs in time and
    memory proportional to 2**n bits, so n above ``DEFAULT_LIMITS["parity"]``
    is refused.
    """
    return int.from_bytes(_parity_bits(n), "little")


@lru_cache(maxsize=None)
def rho(n: int) -> Fraction:
    """Fraction of subsets S of {1, ..., n-1} with beta_n(S) odd."""
    return Fraction(_bit_count(_parity_bits(n)), 1 << (n - 1))


def _value_counts(table: DescentTable) -> tuple[list[int], list[int]]:
    """The distinct values of a table, and how many subsets take each.

    Taking each entry of a permutation to n + 1 minus it (to its negative
    when signed) complements the descent set, so only the masks with the top
    bit clear, the half of the table that :func:`_table` builds, are
    counted, twice."""
    if not table.universe:  # one mask, its own complement
        return list(table.values), [1]
    counts: Counter[int] = Counter()
    for block in table.chunks(1 << (table.universe - 1)):
        counts.update(block)
    return list(counts), [2 * c for c in counts.values()]


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
    while mask:
        e = (mask & -mask).bit_length()
        mask &= mask - 1
        if e % q == 0:
            scaled |= 1 << (e // q - 1)
        else:
            outside += 1
    small = beta_table(r).value(scaled)
    sign = -1 if outside % 2 else 1
    return (sign * small) % p


def _write_lines(table: DescentTable, f) -> None:
    f.write(f"{CACHE_FORMAT} n={table.n} signed={int(table.signed)}\n")
    for block in table.chunks():
        f.write("\n".join(map(str, block)))
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


def _parse_header(header: str, path) -> tuple[int, int]:
    """n and the signed flag (0 or 1) from a cache file's first line."""
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
    return n, signed_flag


def load_table(path) -> DescentTable:
    """Read a cache file written by :func:`save_table`.

    Raises :class:`CacheError` on any malformation, including bytes that
    are not text and a value sum that disagrees with the permutation count.
    The values are parsed, checked and packed ``_SAVE_BLOCK`` lines at a
    time, so neither the text nor the values are held whole.  A value is
    checked for its sign before packing, where it would wrap; with every
    value nonnegative, the sum check bounds each by the slot width.
    """
    try:
        with open(path, encoding="ascii") as f:
            header = f.readline()
            n, signed_flag = _parse_header(header, path)
            # each value takes two bytes or more, so a header wanting more
            # values than the file has bytes is refused before the shift
            if n + signed_flag - 1 > os.fstat(f.fileno()).st_size.bit_length():
                raise CacheError(
                    f"{path}: header n={n} signed={signed_flag} wants more "
                    "values than the file can hold"
                )
            expected = 1 << (n + signed_flag - 1)
            width = _slot_width(n, bool(signed_flag))
            parts: list[bytes] = []
            got = total = 0
            negative = False
            try:
                while block := list(map(int, islice(f, min(_SAVE_BLOCK, expected - got)))):
                    got += len(block)
                    negative = negative or min(block) < 0
                    total += sum(block)
                    parts.append(_pack(block, width))
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
    if total != math.factorial(n) << (n if signed_flag else 0):
        raise CacheError(f"{path}: table sum does not match the permutation count")
    return DescentTable(n=n, signed=bool(signed_flag), data=b"".join(parts))
