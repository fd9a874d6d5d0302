import gc
import math
import operator
import os
import random
import stat
import threading
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
    alpha,
    alpha_signed,
    beta_parity_bitset,
    beta_table,
    brute_force_table,
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
    _packed_transform,
    _slot_width,
    _subset_transform,
    _unpack,
)
from descentlab.errors import CacheError, ContractViolationError, ResourceLimitError
from descentlab.numbers import euler_number, signed_euler_number

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
    assert beta_table(9).value({4}) == 125
    assert beta_table(9).value(1 << 3) == 125


def test_alpha_is_subset_sum_of_beta():
    for n in (1, 2, 3, 5, 7):
        values = beta_table(n).values
        for mask in range(1 << (n - 1)):
            total = 0
            sub = mask
            while True:
                total += values[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert alpha(n, mask) == total


def test_alpha_signed_is_subset_sum_of_beta():
    for n in (1, 2, 3, 4, 6):
        values = beta_table(n, signed=True).values
        for mask in range(1 << n):
            total = 0
            sub = mask
            while True:
                total += values[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert alpha_signed(n, mask) == total


def test_alpha_values():
    assert alpha(4, set()) == 1
    assert alpha(4, {1, 2, 3}) == math.factorial(4)
    assert alpha(6, {2, 3}) == 60  # multinomial(6; 2,1,3)
    assert alpha_signed(2, {1}) == 4
    assert alpha_signed(2, {2}) == 4
    assert alpha_signed(2, {1, 2}) == 8
    assert alpha_signed(5, set()) == 1


def test_table_sums_and_maxima():
    for n in range(1, 11):
        t = beta_table(n)
        assert sum(t.values) == math.factorial(n)
        assert max(t.values) == euler_number(n)
        s = beta_table(n, signed=True)
        assert sum(s.values) == math.factorial(n) << n
        assert max(s.values) == signed_euler_number(n)


def test_universe_and_value_lookup():
    t = beta_table(4)
    assert t.universe == 3
    s = beta_table(4, signed=True)
    assert s.universe == 4
    with pytest.raises(ContractViolationError):
        t.value(0b1000)  # outside the universe {1, 2, 3}
    with pytest.raises(ContractViolationError):
        DescentTable(n=3, signed=False, data=bytes(3))  # 4 one-byte slots


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
    # the soft ceiling moves, the hard one does not
    assert beta_table(2, max_n=2).values == (1, 1)
    with pytest.raises(ContractViolationError):
        beta_table(0)


@pytest.mark.parametrize("n", range(1, 13))
def test_parity_bitset_matches_exact_table(n):
    bits = beta_parity_bitset(n)
    for mask, v in enumerate(beta_table(n).values):
        assert bits >> mask & 1 == v & 1


def test_rho_table():
    assert rho(1) == Fraction(1)
    assert rho(2) == Fraction(1)
    assert rho(3) == Fraction(1, 2)
    assert rho(7) == Fraction(1, 2)
    assert rho(15) == Fraction(29, 64)
    assert rho(16) == Fraction(1)


def test_residue_histogram_counts():
    t = beta_table(4)
    h = residue_histogram(t, 4)
    assert h.counts == (0, 4, 0, 4)
    assert sum(h.counts) == 8
    h2 = residue_histogram(t, 2, order=1)
    assert h2.counts[0] + h2.counts[1] == sum(t.values)
    h3 = residue_histogram(t, 2, order=2)
    assert h3.counts[0] + h3.counts[1] == sum(v * (v - 1) for v in t.values)
    with pytest.raises(ContractViolationError):
        residue_histogram(t, 0)


def test_mod_p_prediction_example():
    # n=9, q=9: S={4} has no multiples of 9, so the prediction is
    # (-1)^1 * beta_1(empty) = -1 = 2 mod 3, and indeed 125 = 2 mod 3
    assert mod_p_prediction(9, 9, {4}) == 2
    assert beta_table(9).value({4}) % 3 == 2


def test_mod_p_prediction_validates():
    with pytest.raises(ContractViolationError):
        mod_p_prediction(9, 4, set())  # 4 does not divide 9
    with pytest.raises(ContractViolationError):
        mod_p_prediction(12, 6, set())  # 6 is not a prime power


def test_save_load_round_trip(tmp_path):
    # n = 18 has 131,072 values, more than one write block
    for n, signed in [(5, True), (18, False)]:
        t = beta_table(n, signed=signed)
        path = tmp_path / "t.txt"
        save_table(t, path)
        assert path.read_text() == (
            f"descentlab-table v1 n={n} signed={int(signed)}\n"
            + "".join(f"{v}\n" for v in t.values)
        )
        assert load_table(path) == t


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


def test_save_table_follows_a_symlink(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    save_table(beta_table(4), link)
    assert link.is_symlink()
    assert load_table(target) == beta_table(4)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_save_table_writes_into_a_pipe(tmp_path):
    # a path that is not a regular file is written, never replaced
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    save_table(beta_table(4), fifo)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["descentlab-table v1 n=4 signed=0\n1\n3\n5\n3\n3\n5\n3\n1\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_load_rejects_corruption(tmp_path):
    t = beta_table(4)
    path = tmp_path / "t.txt"
    save_table(t, path)
    good = path.read_text().splitlines()

    cases = [
        "",  # empty
        "descentlab-table v2 n=4 signed=0\n" + "\n".join(good[1:]),
        "\n".join([good[0]] + good[1:-1]),  # truncated
        "\n".join([good[0]] + good[1:-1] + ["x"]),  # non-integer
        "\n".join([good[0]] + good[1:-1] + ["-1"]),  # negative
        # -1 in place of the last 1, the first 1 raised by 2: the sum is
        # still 4!, and packed unchecked the -1 would wrap to 255
        "\n".join([good[0], str(int(good[1]) + 2)] + good[2:-1] + ["-1"]),
        "\n".join([good[0]] + good[1:-1] + ["99"]),  # wrong sum
        "descentlab-table v1 n=4 signed=2\n" + "\n".join(good[1:]),
    ]
    for text in cases:
        path.write_text(text)
        with pytest.raises(CacheError):
            load_table(path)
    with pytest.raises(CacheError):
        load_table(tmp_path / "missing.txt")


@given(st.integers(min_value=2, max_value=10), st.data())
def test_complement_symmetry(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n - 1)) - 1))
    t = beta_table(n)
    assert t.value(mask) == t.value(((1 << (n - 1)) - 1) ^ mask)


@given(st.integers(min_value=2, max_value=10), st.data())
def test_signed_complement_symmetry(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    t = beta_table(n, signed=True)
    assert t.value(mask) == t.value(((1 << n) - 1) ^ mask)


@pytest.mark.parametrize("signed", [False, True])
def test_packed_route_matches_list_route(signed):
    # the list route: alpha per mask, then the list Moebius transform
    for n in range(1, 15):
        universe = n if signed else n - 1
        count = alpha_signed if signed else alpha
        vals = [count(n, mask) for mask in range(1 << universe)]
        _subset_transform(vals, operator.sub)
        assert beta_table(n, signed=signed).values == tuple(vals), n


SMALL_TABLES = [(n, False) for n in range(1, 15)] + [(n, True) for n in range(1, 11)]


def full_build(n: int, signed: bool) -> bytes:
    """The table build that the top-element recursion replaced: alpha over
    every mask, run by run, then the Moebius inversion over the whole
    universe."""
    universe = n if signed else n - 1
    total = n + 1 if signed else n
    width = _slot_width(n, signed)
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
    vals = _unpack(bytes(buf), width)
    _subset_transform(vals, operator.sub)
    return _pack(vals, width)


# Blocks of 3 slots split every run of more than 3 slots unevenly, blocks of
# _SAVE_BLOCK slots hold every run of these tables whole, and None leaves
# the default, cache-sized blocks.
@pytest.mark.parametrize("block", [3, descent._SAVE_BLOCK, None])
def test_half_build_matches_full_build(monkeypatch, block):
    for n, signed in [(n, False) for n in range(1, 17)] + [(n, True) for n in range(1, 13)]:
        if block is not None:
            monkeypatch.setattr(descent, "_CHUNK_BYTES", block * _slot_width(n, signed))
        descent._table.cache_clear()  # build every table at this block size
        assert beta_table(n, signed=signed).data == full_build(n, signed), (n, signed)


def test_brute_force_tables_satisfy_the_top_element_recursion():
    # the identities the table build runs on, on tables counted one
    # permutation at a time: for every s and every S' inside {1, ..., s-1},
    # beta_n(S' + {s}) = C(n, s) beta_s(S') - beta_n(S'), and signed
    # beta^B_n(S' + {s}) = C(n, s-1) 2**(n-s+1) beta^B_(s-1)(S') - beta^B_n(S')
    for n, signed in [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 7)]:
        big = brute_force_table(n, signed=signed).values
        for s in range(1, (n if signed else n - 1) + 1):
            if signed:
                factor = math.comb(n, s - 1) << (n - s + 1)
                small = brute_force_table(s - 1, signed=True).values if s > 1 else (1,)
            else:
                factor = math.comb(n, s)
                small = brute_force_table(s).values
            top = 1 << (s - 1)
            for sub in range(top):
                assert big[top | sub] == factor * small[sub] - big[sub], (n, signed, s, sub)


def test_brute_force_tables_are_complement_symmetric():
    # the identity the half build copies by, on tables counted one
    # permutation at a time: reversing the mask order complements each mask
    for n, signed in [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 7)]:
        values = brute_force_table(n, signed=signed).values
        assert values == values[::-1], (n, signed)


@pytest.mark.golden
@pytest.mark.parametrize("n, signed", [(23, False), (18, True)])
def test_full_scale_table_upper_half(n, signed):
    # Factor rows read only the lower half, so the copied upper half is
    # checked here: the sum and the maximum over every mask, and alpha as
    # the sum of beta over the subsets of sampled masks with the top element.
    try:
        t = beta_table(n, signed=signed)
        total = peak = 0
        for block in t.chunks():
            total += sum(block)
            peak = max(peak, max(block))
        assert total == math.factorial(n) << (n if signed else 0)
        assert peak == (signed_euler_number(n) if signed else euler_number(n))
        count = alpha_signed if signed else alpha
        top = t.universe - 1
        rng = random.Random(n)
        for _ in range(24):
            below = rng.sample(range(top), rng.randrange(12))
            mask = 1 << top | sum(1 << i for i in below)
            got = 0
            sub = mask
            while True:
                got += t.value(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert got == count(n, mask), mask
    finally:
        descent._table.cache_clear()


@pytest.mark.parametrize("block", [3, descent._SAVE_BLOCK])
def test_chunks_and_value_match_whole_unpack(monkeypatch, block):
    monkeypatch.setattr(descent, "_SAVE_BLOCK", block)
    for n, signed in SMALL_TABLES:
        t = beta_table(n, signed=signed)
        whole = _unpack(t.data, t.width)
        chunks = list(t.chunks())
        assert all(len(c) == block for c in chunks[:-1])
        assert list(chain.from_iterable(chunks)) == whole
        assert t.values == tuple(whole)
        assert [t.value(mask) for mask in range(len(whole))] == whole
        stop = len(whole) // 2 + 1
        assert list(chain.from_iterable(t.chunks(stop))) == whole[:stop]


@pytest.mark.parametrize("block", [3, descent._SAVE_BLOCK])
def test_half_table_value_counts_match_full_table(monkeypatch, block):
    # counts over the masks with the top bit clear, doubled, against a
    # Counter over every mask, as multisets
    monkeypatch.setattr(descent, "_SAVE_BLOCK", block)
    for n, signed in SMALL_TABLES:
        t = beta_table(n, signed=signed)
        values, mults = descent._value_counts(t)
        assert len(set(values)) == len(values)
        assert dict(zip(values, mults)) == Counter(t.values)


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
    """The whole-integer mod-2 subset zeta transform that the packed engine
    replaced: one pass per element over one integer of 2**universe bits."""
    for b in range(universe):
        step = 1 << b
        tile = int(("0" * step + "1" * step) * ((1 << universe) // (2 * step)), 2)
        bits ^= (bits & tile) << step
    return bits


# 1-bit slots: a chunk holds 2**18 of them, so 18 is the chunk size; above
# it the chunks pair among neighbours (19), then also a group apart (20, 21)
@pytest.mark.parametrize("universe", [0, 1, 2, 3, 10, 17, 18, 19, 20, 21])
def test_packed_xor_zeta_matches_whole_integer(universe):
    assert 8 * _CHUNK_BYTES == 1 << 18
    rng = random.Random(universe)
    bits = rng.getrandbits(1 << universe)
    buf = bytearray(bits.to_bytes(max((1 << universe) >> 3, 1), "little"))
    _packed_transform(buf, universe)
    assert int.from_bytes(buf, "little") == reference_xor_zeta(bits, universe)


def test_parity_bitset_matches_whole_integer_route():
    for n in range(1, 23):
        chains = int.from_bytes(_chain_positions(n), "little")
        assert beta_parity_bitset(n) == reference_xor_zeta(chains, n - 1), n


def test_chain_positions_leaves_no_reference_cycle():
    # the parity buffer is freed with its last reference, not at the next
    # cyclic collection: at n = 31 it is 128 MB
    gc.collect()
    gc.disable()
    try:
        _chain_positions(12)
        assert gc.collect() == 0
    finally:
        gc.enable()
