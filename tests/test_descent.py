import gc
import math
import os
import random
import stat
import threading
import weakref
import zlib
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab.descent import (
    BRUTE_FORCE_LIMITS,
    DEFAULT_LIMITS,
    DescentTable,
    beta_parity_bitset,
    beta_table,
    brute_force_table,
    export_table,
    load_table,
    mod_p_prediction,
    residue_histogram,
    rho,
    save_table,
)
from descentlab import descent
from descentlab.descent import (
    _CHUNK_BYTES,
    _chain_positions,
    _pack,
    _slot_width,
    _tile,
    _unpack,
    _xor_zeta_chunks,
)
from descentlab.errors import (
    CacheError,
    ContractViolationError,
    ResourceLimitError,
)
from descentlab.numbers import euler_number, mask_to_composition, signed_euler_number

# hand-enumerated before the closed forms were written
BETA_3 = (1, 2, 2, 1)
BETA_4 = (1, 3, 5, 3, 3, 5, 3, 1)
BETA_SIGNED_2 = (1, 3, 3, 1)
BETA_SIGNED_3 = (1, 7, 11, 5, 5, 11, 7, 1)


def test_beta_small_tables():
    assert beta_table(1).values == (1,)
    assert beta_table(3).values == BETA_3
    assert beta_table(4).values == BETA_4
    assert beta_table(2, signed=True).values == BETA_SIGNED_2
    assert beta_table(3, signed=True).values == BETA_SIGNED_3


def test_beta_specific_value():
    # beta_9({4}) = C(9,4) - C(9,9) ... inclusion-exclusion by hand: 125
    assert beta_table(9).values[1 << 3] == 125


def test_table_sums_and_maxima():
    # the slots are as wide as the largest value, E_n, not n!: a product of
    # the build may pass it, its results never do
    for n, signed in TIER_1_TABLES:
        t = beta_table(n, signed=signed)
        assert sum(t.values) == math.factorial(n) << (n if signed else 0), (n, signed)
        peak = max(t.values)
        assert peak == (signed_euler_number(n) if signed else euler_number(n)), (n, signed)
        assert t.width == (peak.bit_length() + 7) // 8, (n, signed)
    # the golden tier's largest tables, where n! takes 10, 9 and 9 bytes
    assert [_slot_width(23, False), _slot_width(22, False), _slot_width(18, True)] == [8, 7, 8]


def test_a_table_is_freed_when_its_caller_drops_it():
    # nothing but the caller holds a built table: a memo that kept it would
    # keep the weak reference alive
    table = weakref.ref(beta_table(12))
    assert table() is None


def test_universe_and_value_lookup():
    t = beta_table(4)
    assert t.universe == 3
    s = beta_table(4, signed=True)
    assert s.universe == 4
    assert len(t.values) == 1 << t.universe
    with pytest.raises(ContractViolationError):
        DescentTable(n=3, signed=False, data=bytes(3))  # 2 one-byte slots


def test_limits():
    with pytest.raises(ResourceLimitError):
        beta_table(DEFAULT_LIMITS["unsigned"] + 1)
    with pytest.raises(ResourceLimitError):
        beta_table(DEFAULT_LIMITS["signed"] + 1, signed=True)
    with pytest.raises(ResourceLimitError):
        brute_force_table(BRUTE_FORCE_LIMITS["unsigned"] + 1)
    with pytest.raises(ResourceLimitError):
        brute_force_table(BRUTE_FORCE_LIMITS["signed"] + 1, signed=True)
    with pytest.raises(ResourceLimitError):
        beta_parity_bitset(DEFAULT_LIMITS["parity"] + 1)
    assert DEFAULT_LIMITS["parity"] >= 31  # rho(31) is a checked claim
    with pytest.raises(ContractViolationError):
        beta_table(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_bitset_matches_exact_table(n):
    # every mask: the bitset holds the lower half, and a mask of the upper
    # half has the bit of its complement, which the parity suite never reads
    bits = beta_parity_bitset(n)
    full = (1 << (n - 1)) - 1
    for mask, v in enumerate(beta_table(n).values):
        assert bits >> min(mask, full - mask) & 1 == v & 1


def test_residue_histogram_counts():
    t = beta_table(4)
    h = residue_histogram(t, 4)
    assert h == [0, 4, 0, 4]
    assert sum(h) == 8
    assert sum(residue_histogram(t, 2, order=1)) == sum(t.values)
    assert sum(residue_histogram(t, 2, order=2)) == sum(v * (v - 1) for v in t.values)
    with pytest.raises(ContractViolationError):
        residue_histogram(t, 0)


# Class weights 1 (unsigned n = 1), 4 and 2 (unsigned n = 5) and 2 (signed
# 3), and a hand-made class holding 0 and 1, where ff(v, k) is 0 for every
# order k above v; the moduli go past the largest value, 16.
@pytest.mark.parametrize("order", range(5))
def test_residue_counts_match_weighted_falling_factorials(order):
    classes = [descent._value_counts(beta_table(n, signed=s)) for n, s in [(1, 0), (5, 0), (3, 1)]]
    classes.append([(3, [0, 1, 1, 2, 0, 7])])
    for modulus in (1, 2, 3, 4, 5, 12, 17, 40):
        for cls in classes:
            want = [0] * modulus
            for weight, values in cls:
                for v in values:
                    want[v % modulus] += weight * math.perm(v, order)
            assert descent._residue_counts(cls, modulus, order) == want, (cls, modulus)


def test_mod_p_prediction_validates():
    with pytest.raises(ContractViolationError):
        mod_p_prediction(9, 4)  # 4 does not divide 9
    with pytest.raises(ContractViolationError):
        mod_p_prediction(12, 6)  # 6 is not a prime power
    with pytest.raises(ResourceLimitError):
        mod_p_prediction(32, 2)  # a list as long as a table above the ceiling


def _cache_text(n, signed, width, slots, stored=None):
    # a cache file holding ``slots``, spelled from their values; its header
    # names the CRC-32 of the ``stored``-slot buffer they fill (by default
    # as many slots as they are)
    stored = len(slots) if stored is None else stored
    buffer = b"".join(v.to_bytes(width, "little") for v in slots[:stored])
    crc = zlib.crc32(buffer.ljust(stored * width, b"\0"))
    lines = "".join(v.to_bytes(width, "little").hex() + "\n" for v in slots)
    return f"descentlab-table v2 n={n} signed={int(signed)} crc32={crc:08x}\n" + lines


def _saved_text(table):
    return _cache_text(table.n, table.signed, table.width, table.values[: table.stored])


def test_save_load_round_trip(tmp_path):
    # every table of n = 1..12, the empty universe and the one-slot tables
    # among them, and n = 18, whose 65,536 slots take more than one block
    path = tmp_path / "t.txt"
    for n, signed in [(n, s) for n in range(1, 13) for s in (False, True)] + [(18, False)]:
        t = beta_table(n, signed=signed)
        save_table(t, path)
        assert path.read_text() == _saved_text(t), (n, signed)
        assert load_table(path) == t, (n, signed)


def _join_writer(table, f):
    # the writer that one %-format per block replaced
    f.write(f"descentlab-table v1 n={table.n} signed={int(table.signed)}\n")
    for block in table.chunks():
        f.write("\n".join(map(str, block)))
        f.write("\n")


# blocks of 3 slots split the tables unevenly, and blocks of 2**16 slots
# hold each of them whole; both writers go block by block
@pytest.mark.parametrize("block", [3, 1 << 16])
def test_save_table_bytes_match_the_join_writer(tmp_path, monkeypatch, block):
    new, old, cache = tmp_path / "new.txt", tmp_path / "old.txt", tmp_path / "cache.txt"
    for n, signed in [(n, False) for n in range(1, 13)] + [(n, True) for n in range(1, 10)]:
        monkeypatch.setattr(descent, "_CHUNK_BYTES", block * _slot_width(n, signed))
        t = beta_table(n, signed=signed)
        export_table(t, new)
        with open(old, "w") as f:
            _join_writer(t, f)
        assert new.read_bytes() == old.read_bytes(), (n, signed)
        save_table(t, cache)
        assert cache.read_text() == _saved_text(t), (n, signed)


def test_save_table_failure_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.txt"
    save_table(beta_table(4), path)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_table(beta_table(5), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.txt"]


def test_export_table_follows_a_symlink(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    export_table(beta_table(4), link)
    assert link.is_symlink()
    assert target.read_text() == "descentlab-table v1 n=4 signed=0\n1\n3\n5\n3\n3\n5\n3\n1\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_export_table_writes_into_a_pipe(tmp_path):
    # a path that is not a regular file is written, never replaced
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    export_table(beta_table(4), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["descentlab-table v1 n=4 signed=0\n1\n3\n5\n3\n3\n5\n3\n1\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "t.txt"
    save_table(beta_table(5), path)
    good = path.read_text()
    header = good.split("\n", 1)[0]
    lower = list(beta_table(5).values[:8])  # 1, 4, 9, 6, 9, 16, 11, 4: one byte each
    decimal = "descentlab-table v1 n=5 signed=0\n" + "".join(f"{v}\n" for v in beta_table(5).values)
    # each file but the malformed headers fails one check alone: the
    # slot-count cases keep the sum and name the CRC-32 of the buffer
    # they fill, and the swapped and raised slots keep the slot count
    cases = [
        ("", "bad header"),
        (good.replace("v2", "v1"), "bad header"),
        (good.replace("signed=0", "signed=2"), "bad header"),
        (good.replace(header.split()[-1], "crc32=-1"), "bad header"),
        (decimal, "bad header"),  # the table --out format
        (good.replace("n=5", "n=0"), "bad header"),
        (_cache_text(5, 0, 1, lower[:-2] + [lower[-2] + lower[-1]], 8), "expected 8 slots .* got 7"),
        (_cache_text(5, 0, 1, lower + [0], 8), "expected 8 slots .* got 9"),
        (good[:-3] + "zz\n", "not a hex cache file"),
        (good[:-2] + "\n", "not a hex cache file"),  # the last slot one hex digit short
        (good.replace("\n09\n", "\n\n", 1), "does not hold 1 bytes"),  # a slot one byte short
        (good.replace("\n04\n09\n", "\n09\n04\n", 1), "CRC-32"),  # two slots swapped
        (_cache_text(5, 0, 1, [lower[0] + 1, *lower[1:]]), "sum does not match"),
    ]
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(CacheError, match=message):
            load_table(path)
    with pytest.raises(CacheError, match="cannot read"):
        load_table(tmp_path / "missing.txt")
    path.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(CacheError, match="not a hex cache file"):
        load_table(path)
    # a slot one byte short at a 2-byte width
    save_table(beta_table(9), path)
    wide = path.read_text()
    path.write_text(wide.replace("\n0100\n", "\n01\n", 1))
    with pytest.raises(CacheError, match="does not hold 2 bytes"):
        load_table(path)


SMALL_TABLES = [(n, False) for n in range(1, 15)] + [(n, True) for n in range(1, 11)]
# The tables tier-1 checks whole; the golden tier checks those above.
TIER_1_TABLES = [(n, False) for n in range(1, 17)] + [(n, True) for n in range(1, 15)]


def alpha_reference(n: int, mask: int, signed: bool = False) -> int:
    """alpha_n(S), the permutations of n with descent set inside S, in closed
    form: n! over the factorials of the gaps of S in n.  Signed, the gaps are
    taken in n + 1 with the leading zero in the first, g0, and each of the
    n + 1 - g0 entries of the later runs carries a free sign."""
    gaps = mask_to_composition(mask, n + 1 if signed else n)
    if signed:
        gaps = (gaps[0] - 1, *gaps[1:])
    out = math.factorial(n)
    for g in gaps:
        out //= math.factorial(g)
    return out << (n - gaps[0] if signed else 0)


def alpha_width(n: int, signed: bool) -> int:
    """Bytes per slot of the alpha route: enough for its largest value, n!
    (signed: n! 2**n), whatever width the library stores a table in."""
    return ((math.factorial(n) << (n if signed else 0)).bit_length() + 7) // 8


def alpha_table(n: int, signed: bool) -> bytearray:
    """alpha_n(S) (signed: alpha^B_n(S)) over every mask, in slots of
    ``alpha_width`` bytes, run by run: in run s, the masks with top element
    s, {s} is C(n, s) (signed: C(n, s-1) 2**(n+1-s)), and the masks whose
    next element is t are run t times C(n - t, s - t) (signed:
    C(n + 1 - t, s - t))."""
    universe = n if signed else n - 1
    total = n + 1 if signed else n
    width = alpha_width(n, signed)
    buf = bytearray(width << universe)
    buf[0] = 1
    for s in range(1, universe + 1):
        top = width << (s - 1)
        seed = math.comb(n, s - 1) << (n + 1 - s) if signed else math.comb(n, s)
        buf[top : top + width] = seed.to_bytes(width, "little")
        for t in range(1, s):
            lo = width << (t - 1)
            run = math.comb(total - t, s - t) * int.from_bytes(buf[lo : 2 * lo], "little")
            buf[top + lo : top + 2 * lo] = run.to_bytes(lo, "little")
    return buf


def packed_zeta(buf: bytearray, width: int, universe: int) -> None:
    """The subset zeta transform (sums over subsets) of the ``width``-byte
    slots of ``buf`` in place, slot k the entry for mask k.

    As in the library's mod-2 engine, a chunk of 2**low slots is one big
    int: each element b below low is one add of the chunk's slots without
    b, moved up by 2**b slots, and each element above low adds whole chunks.
    No slot carries: each partial sum is at most alpha, within the slot."""
    low = min(universe, max((_CHUNK_BYTES // width).bit_length() - 1, 0))
    size = width << low
    count = len(buf) // size
    passes = [(_tile(8 * width << b, 8 * size), 8 * width << b) for b in range(low)]
    view = memoryview(buf)

    def chunk(i: int) -> int:
        return int.from_bytes(view[i * size : (i + 1) * size], "little")

    for i in range(count):
        x = chunk(i)
        for tile, shift in passes:
            x += (x & tile) << shift
        view[i * size : (i + 1) * size] = x.to_bytes(size, "little")
    for b in range(universe - low):
        for i in range(count):
            if i >> b & 1:
                x = chunk(i) + chunk(i ^ 1 << b)
                view[i * size : (i + 1) * size] = x.to_bytes(size, "little")


def assert_zeta_is_alpha(t: DescentTable) -> None:
    """The whole table, read through chunks() so that the upper half is its
    mirror read, sums over subsets to closed-form alpha at every mask.  The
    zeta transform is invertible, so this pins every value.  The values are
    repacked into slots wide enough for alpha, the transform's largest."""
    n, signed = t.n, t.signed
    alpha = alpha_table(n, signed)  # before the whole table: a lower peak
    width = alpha_width(n, signed)
    whole = bytearray()
    for block in t.chunks():
        whole += _pack(block, width)
    packed_zeta(whole, width, t.universe)
    same = whole == alpha  # outside the assert, which would diff 40 MB
    assert same, (n, signed)


# Blocks of 3 slots split every run of more than 3 slots unevenly, blocks of
# 2**16 slots hold every run of these tables whole, and None leaves the
# default, cache-sized blocks.
@pytest.mark.parametrize("block", [3, 1 << 16, None])
def test_table_sums_over_subsets_to_alpha(monkeypatch, block):
    for n, signed in TIER_1_TABLES:
        if block is not None:
            monkeypatch.setattr(descent, "_CHUNK_BYTES", block * _slot_width(n, signed))
        assert_zeta_is_alpha(beta_table(n, signed=signed))


def test_alpha_table_matches_alpha():
    # hand counts, S as a mask
    assert alpha_reference(4, 0) == 1
    assert alpha_reference(4, 0b111) == math.factorial(4)
    assert alpha_reference(6, 0b110) == 60  # 6! / (2! 1! 3!)
    assert alpha_reference(2, 0b01, signed=True) == 4
    assert alpha_reference(2, 0b10, signed=True) == 4
    assert alpha_reference(2, 0b11, signed=True) == 8
    assert alpha_reference(5, 0, signed=True) == 1
    for n, signed in TIER_1_TABLES:
        got = _unpack(alpha_table(n, signed), alpha_width(n, signed))
        assert got == [alpha_reference(n, mask, signed) for mask in range(len(got))], (n, signed)


def test_brute_force_tables_satisfy_the_top_element_recursion():
    # the identities the table build runs on, on tables counted one
    # permutation at a time: for every s and every S' inside {1, ..., s-1},
    # beta_n(S' + {s}) = C(n, s) beta_s(S') - beta_n(S'), and signed
    # beta^B_n(S' + {s}) = C(n, s-1) 2**(n-s+1) beta^B_(s-1)(S') - beta^B_n(S')
    for n, signed in [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 7)]:
        big = brute_force_table(n, signed=signed)
        for s in range(1, (n if signed else n - 1) + 1):
            if signed:
                factor = math.comb(n, s - 1) << (n - s + 1)
                small = brute_force_table(s - 1, signed=True) if s > 1 else (1,)
            else:
                factor = math.comb(n, s)
                small = brute_force_table(s)
            top = 1 << (s - 1)
            for sub in range(top):
                assert big[top | sub] == factor * small[sub] - big[sub], (n, signed, s, sub)


def test_brute_force_tables_are_complement_symmetric():
    # the identity a half table is read by, on the counts of every mask,
    # one permutation at a time: reversing the mask order complements each
    # mask
    for n, signed in [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 7)]:
        counts = brute_force_table(n, signed)
        assert counts == counts[::-1], (n, signed)


# every shipped table above tier-1's; the factor scans read only half of each
@pytest.mark.golden
@pytest.mark.parametrize(
    "n, signed", [(n, False) for n in range(17, 24)] + [(n, True) for n in range(13, 19)]
)
def test_full_scale_table_sums_over_subsets_to_alpha(n, signed):
    t = beta_table(n, signed=signed)
    assert_zeta_is_alpha(t)
    peak = max(max(block) for block in t.chunks(t.stored))
    assert peak == (signed_euler_number(n) if signed else euler_number(n))
    assert t.width == (peak.bit_length() + 7) // 8
    whole: Counter = Counter()
    for block in t.chunks():
        whole.update(block)
    assert weighted_multiset(descent._value_counts(t)) == whole


@pytest.mark.parametrize("block", [3, 1 << 16])
def test_chunks_and_value_match_whole_unpack(monkeypatch, block):
    for n, signed in SMALL_TABLES:
        monkeypatch.setattr(descent, "_CHUNK_BYTES", block * _slot_width(n, signed))
        t = beta_table(n, signed=signed)
        # each slot decoded here, a mask of the upper half from the slot of
        # its complement
        slots = [
            int.from_bytes(t.data[k * t.width : (k + 1) * t.width], "little")
            for k in range(t.stored)
        ]
        whole = [slots[min(k, (1 << t.universe) - 1 - k)] for k in range(1 << t.universe)]
        chunks = list(t.chunks())
        assert all(len(c) == block for c in chunks[:-1])
        assert list(chain.from_iterable(chunks)) == whole
        assert t.values == tuple(whole)
        stop = len(whole) // 2 + 1
        assert list(chain.from_iterable(t.chunks(stop))) == whole[:stop]


def weighted_multiset(classes) -> Counter:
    """The multiset that ``descent._value_counts`` classes stand for."""
    counts: Counter = Counter()
    for weight, values in classes:
        for v, c in Counter(values).items():
            counts[v] += weight * c
    return counts


# one value per orbit of the complement and the reversal, weighted, against
# a Counter over every mask, the path the orbit split replaced; the slots
# are read one at a time, or in blocks of the default size
@pytest.mark.parametrize("chunk_bytes", [1, descent._CHUNK_BYTES])
def test_half_table_value_counts_match_full_table(monkeypatch, chunk_bytes):
    for n, signed in TIER_1_TABLES:
        t = beta_table(n, signed=signed)
        with monkeypatch.context() as patch:
            patch.setattr(descent, "_CHUNK_BYTES", chunk_bytes)
            classes = descent._value_counts(t)
        assert weighted_multiset(classes) == Counter(t.values), (n, signed)


@given(st.data())
def test_pack_round_trip(data):
    # widths 1..11 take one or two eight-byte limbs, values pass 2**64 from
    # width 9, and the lengths are arbitrary, not whole blocks
    width = data.draw(st.integers(min_value=1, max_value=11))
    top = (1 << (8 * width)) - 1
    values = data.draw(
        st.lists(st.one_of(st.integers(0, top), st.sampled_from([0, top])), max_size=300)
    )
    packed = _pack(values, width)
    assert packed == b"".join(v.to_bytes(width, "little") for v in values)
    assert _unpack(packed, width) == values


def reference_xor_zeta(bits: int, universe: int) -> int:
    """The whole-integer mod-2 subset zeta transform that the chunked engine
    replaced: one pass per element over one integer of 2**universe bits."""
    for b in range(universe):
        step = 1 << b
        tile = int(("0" * step + "1" * step) * ((1 << universe) // (2 * step)), 2)
        bits ^= (bits & tile) << step
    return bits


# 1-bit slots: a chunk holds 2**18 of them, so universes up to 18 are one
# chunk and 19, 20 and 21 span 2, 4 and 8, whose inputs take the positions
# with a high part below theirs
@pytest.mark.parametrize("universe", [0, 1, 2, 3, 10, 17, 18, 19, 20, 21])
def test_packed_xor_zeta_matches_whole_integer(universe):
    assert 8 * _CHUNK_BYTES == 1 << 18
    rng = random.Random(universe)
    bits = rng.getrandbits(1 << universe)
    positions = [k for k, digit in enumerate(reversed(f"{bits:b}")) if digit == "1"]
    size = max((1 << min(universe, 18)) >> 3, 1)
    chunks = _xor_zeta_chunks(positions, universe)
    got = b"".join(x.to_bytes(size, "little") for x in chunks)
    assert int.from_bytes(got, "little") == reference_xor_zeta(bits, universe)


def reference_chain_positions(n: int) -> int:
    """The odd alpha_n positions over the whole universe, as the parity
    route enumerated them before it kept only the lower half."""
    out = bytearray(max((1 << (n - 1)) >> 3, 1))
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
    return int.from_bytes(out, "little")


def test_parity_bitset_matches_whole_integer_route():
    for n in range(1, 23):
        expected = reference_xor_zeta(reference_chain_positions(n), n - 1)
        assert beta_parity_bitset(n) == expected & ((1 << (1 << max(n - 2, 0))) - 1), n
        assert rho(n) == Fraction(expected.bit_count(), 1 << (n - 1)), n


def test_chain_positions_leaves_no_reference_cycle():
    # the positions and each chunk of the parity route are freed with their
    # last reference, not at the next cyclic collection: a cycle would keep
    # every 32 KB chunk of the 2048 at n = 31 until the collector ran
    gc.collect()
    gc.disable()
    try:
        for _ in _xor_zeta_chunks(_chain_positions(12), 10):
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
