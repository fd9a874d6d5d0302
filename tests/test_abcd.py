import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab.abcd import (
    AbPoly,
    CdPoly,
    NotInSpanError,
    ab_index,
    ab_to_cd,
    cd_coefficient,
    cd_to_ab,
    has_odd_run,
    macmahon_multiplication_check,
    omega,
    prepend_a,
    signed_sum,
)
from descentlab.descent import beta_table
from descentlab.errors import ContractViolationError
from descentlab.numbers import euler_number


def cd_words(degree):
    if degree == 0:
        return [""]
    out = ["c" + w for w in cd_words(degree - 1)]
    if degree >= 2:
        out += ["d" + w for w in cd_words(degree - 2)]
    return out


def coefficient(p, word):
    """The coefficient of an ab-word: letter i is b when mask bit i - 1 is set."""
    assert len(word) == p.degree and not set(word) - {"a", "b"}
    return p.coeffs[sum(1 << i for i, ch in enumerate(word) if ch == "b")]


def test_ab_poly_word_and_coefficient():
    p = AbPoly(3, (10, 11, 12, 13, 14, 15, 16, 17))
    assert p.word(0b000) == "aaa"
    assert p.word(0b101) == "bab"
    assert coefficient(p, "bab") == 15
    assert coefficient(p, "abb") == 16
    with pytest.raises(ContractViolationError):
        AbPoly(2, (1, 2, 3))


def test_cd_poly_validation():
    CdPoly(3, {"cd": 2, "dc": -1, "ccc": 5})
    with pytest.raises(ContractViolationError):
        CdPoly(3, {"cc": 1})  # weight 2, degree 3
    with pytest.raises(ContractViolationError):
        CdPoly(2, {"ab": 1})


def test_ab_index_from_table():
    p = ab_index(beta_table(4))
    assert p.degree == 3
    assert coefficient(p, "aaa") == 1
    assert coefficient(p, "bab") == 5  # beta_4({1,3})
    assert ab_index(beta_table(2, signed=True)).degree == 2


def test_cd_expansion_by_hand():
    # c^2 = aa+ab+ba+bb, d = ab+ba
    assert cd_to_ab(CdPoly(2, {"cc": 1})).coeffs == (1, 1, 1, 1)
    assert cd_to_ab(CdPoly(2, {"d": 1})).coeffs == (0, 1, 1, 0)
    # dc = (ab+ba)(a+b) = aba+abb+baa+bab
    p = cd_to_ab(CdPoly(3, {"dc": 1}))
    assert coefficient(p, "aba") == 1
    assert coefficient(p, "bab") == 1
    assert coefficient(p, "baa") == 1
    assert coefficient(p, "abb") == 1
    assert coefficient(p, "aab") == 0


@given(st.integers(min_value=0, max_value=9), st.data())
def test_cd_round_trip_random(degree, data):
    words = cd_words(degree)
    coeffs = {
        w: data.draw(st.integers(min_value=-9, max_value=9), label=w) for w in words
    }
    cd = CdPoly(degree, {w: c for w, c in coeffs.items() if c})
    back = ab_to_cd(cd_to_ab(cd))
    assert back.terms == cd.terms


def test_ab_to_cd_rejects_outside_span():
    # a alone is not in the span of c in degree 1
    with pytest.raises(NotInSpanError) as info:
        ab_to_cd(AbPoly(1, (1, 0)))
    assert any(info.value.residual.coeffs)
    # leading b word
    with pytest.raises(NotInSpanError):
        ab_to_cd(AbPoly(2, (0, 1, 0, 0)))


def test_cd_index_of_boolean_lattice_known_values():
    # Psi(B_4) = c^3 + 2dc + 2cd
    cd = ab_to_cd(ab_index(beta_table(4)))
    assert cd.terms == {"ccc": 1, "dc": 2, "cd": 2}
    # Psi(B_3) = c^2 + d
    assert ab_to_cd(ab_index(beta_table(3))).terms == {"cc": 1, "d": 1}


def test_cd_coefficient_validates():
    cd = ab_to_cd(ab_index(beta_table(4)))
    assert cd_coefficient(cd, "dc") == 2
    with pytest.raises(ContractViolationError):
        cd_coefficient(cd, "cc")


def test_omega_and_prepend():
    # omega(a * ab) : leftmost ab at positions 2-3 -> c 2d
    p = prepend_a(AbPoly(2, (0, 0, 1, 0)))  # the word aab
    assert omega(p).terms == {"cd": 2}
    # omega(aba): the leftmost ab sits at positions 1-2
    assert omega(prepend_a(AbPoly(2, (0, 1, 0, 0)))).terms == {"dc": 2}
    assert omega(AbPoly(2, (1, 0, 0, 0))).terms == {"cc": 1}
    assert omega(AbPoly(2, (0, 0, 0, 1))).terms == {"cc": 1}


def test_signed_table_cd_words_use_the_full_degree():
    cd = ab_to_cd(ab_index(beta_table(2, signed=True)))
    assert cd.terms == {"cc": 1, "d": 2}


@pytest.mark.parametrize(
    "p,expected", [(3, 6), (5, 100), (7, 3416)]
)
def test_top_alternating_cd_coefficient(p, expected):
    cd = ab_to_cd(ab_index(beta_table(p, signed=True)))
    word = "d" * ((p - 1) // 2) + "c"
    assert cd_coefficient(cd, word) == expected
    assert expected == 2 ** ((p - 1) // 2) * p * euler_number(p - 1)


def test_signed_sum_b4_with_singleton_interval():
    # {2} is a maximal run of odd length inside {1,2,3}, so the sum vanishes
    p = ab_index(beta_table(4))
    assert signed_sum(p, 0b010) == 0
    # T = {1, 2} has one even run; nothing forces a zero and indeed
    assert signed_sum(p, 0b011) == -8


def test_has_odd_run():
    assert has_odd_run(0b010, 3)
    assert not has_odd_run(0b011, 3)
    assert has_odd_run(0b111, 3)
    assert not has_odd_run(0, 3)
    assert has_odd_run(0b1011, 4)
    assert not has_odd_run(0b11011, 6)
    # a negative int has no lowest run to end at
    with pytest.raises(ContractViolationError):
        has_odd_run(-2)


def test_macmahon_printed_reading_fails_somewhere():
    # (lhs, product, printed) for u = v = 0, the only case at m = n = 1
    assert list(macmahon_multiplication_check(1, 1)) == [(2, 2, 3)]


def test_macmahon_cases_stream():
    # bad sizes are refused on the call, before any case is read
    for m, n in ((0, 1), (1, 0)):
        with pytest.raises(ContractViolationError):
            macmahon_multiplication_check(m, n)
    # the 2**14 cases are made as they are read, so the three tables (about
    # 1.4 MB) are most of what consuming them holds
    tracemalloc.start()
    try:
        cases = sum(1 for _ in macmahon_multiplication_check(8, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cases == 1 << 14
    assert peak < 2_500_000
