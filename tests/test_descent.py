import math
import operator
import os
import random
import stat
import threading
from fractions import Fraction

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
from descentlab.descent import (
    _CHUNK_BYTES,
    _chain_positions,
    _packed_transform,
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


@pytest.mark.parametrize("n", range(1, 9))
def test_closed_form_matches_enumeration_unsigned(n):
    assert beta_table(n).values == brute_force_table(n).values


def test_alpha_is_subset_sum_of_beta():
    for n in (1, 2, 3, 5, 7):
        table = beta_table(n)
        for mask in range(1 << (n - 1)):
            total = 0
            sub = mask
            while True:
                total += table.values[sub]
                if sub == 0:
                    break
                sub = (sub - 1) & mask
            assert alpha(n, mask) == total


def test_alpha_signed_is_subset_sum_of_beta():
    for n in (1, 2, 3, 4, 6):
        table = beta_table(n, signed=True)
        for mask in range(1 << n):
            total = 0
            sub = mask
            while True:
                total += table.values[sub]
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
        DescentTable(n=3, signed=False, values=(1, 2, 2))


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
    assert t.values[mask] == t.values[((1 << (n - 1)) - 1) ^ mask]


@given(st.integers(min_value=2, max_value=10), st.data())
def test_signed_complement_symmetry(n, data):
    mask = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    t = beta_table(n, signed=True)
    assert t.values[mask] == t.values[((1 << n) - 1) ^ mask]


@pytest.mark.parametrize("signed", [False, True])
def test_packed_route_matches_list_route(signed):
    # the list route: alpha per mask, then the list Moebius transform
    for n in range(1, 15):
        universe = n if signed else n - 1
        count = alpha_signed if signed else alpha
        vals = [count(n, mask) for mask in range(1 << universe)]
        _subset_transform(vals, operator.sub)
        assert beta_table(n, signed=signed).values == tuple(vals), n


def reference_xor_zeta(bits: int, universe: int) -> int:
    """The whole-integer mod-2 subset zeta transform that the packed engine
    replaced: one pass per element over one integer of 2**universe bits."""
    for b in range(universe):
        step = 1 << b
        tile = int(("0" * step + "1" * step) * ((1 << universe) // (2 * step)), 2)
        bits ^= (bits & tile) << step
    return bits


@pytest.mark.parametrize("universe, bits", [(0, 9), (3, 100), (11, 40), (13, 70), (14, 150)])
def test_packed_moebius_on_wide_slots(universe, bits):
    # The subset sums of nonnegative counts have the shape of alpha, so the
    # packed passes never borrow; here the values pass 64 bits, the chunks
    # number one or more, and every slot has two spare zero bytes.
    rng = random.Random(universe * bits)
    counts = [rng.getrandbits(rng.choice((7, 40, bits))) for _ in range(1 << universe)]
    sums = list(counts)
    _subset_transform(sums, operator.add)
    width = (max(sums).bit_length() + 7) // 8 + 2
    buf = bytearray(b"".join(v.to_bytes(width, "little") for v in sums))
    _packed_transform(buf, universe, 8 * width, operator.sub)
    assert buf == b"".join(v.to_bytes(width, "little") for v in counts)
    assert _unpack(buf, width) == counts


# 1-bit slots: a chunk holds 2**18 of them, so 18 is the chunk size; above
# it the chunks pair among neighbours (19), then also a group apart (20, 21)
@pytest.mark.parametrize("universe", [0, 1, 2, 3, 10, 17, 18, 19, 20, 21])
def test_packed_xor_zeta_matches_whole_integer(universe):
    assert 8 * _CHUNK_BYTES == 1 << 18
    rng = random.Random(universe)
    bits = rng.getrandbits(1 << universe)
    buf = bytearray(bits.to_bytes(max((1 << universe) >> 3, 1), "little"))
    _packed_transform(buf, universe, 1, operator.xor)
    assert int.from_bytes(buf, "little") == reference_xor_zeta(bits, universe)


def test_parity_bitset_matches_whole_integer_route():
    for n in range(1, 23):
        chains = int.from_bytes(_chain_positions(n), "little")
        assert beta_parity_bitset(n) == reference_xor_zeta(chains, n - 1), n
