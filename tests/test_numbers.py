import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab.errors import ContractViolationError
from descentlab.numbers import (
    as_mask,
    composition_to_mask,
    euler_number,
    mask_to_composition,
    prime_divisors,
    signed_euler_number,
)

# frozen with math.comb / direct counts before anything downstream existed
EULER = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
SIGNED_EULER = [1, 1, 3, 11, 57, 361, 2763, 24611, 250737, 2873041, 36581523]


def test_as_mask_int_and_iterable_forms():
    assert as_mask(0b101) == 0b101
    assert as_mask(0b101, 4) == 0b101
    assert as_mask({1, 3}, 4) == 0b101
    assert as_mask([], 0) == 0
    with pytest.raises(ContractViolationError):
        as_mask(0b10000, 4)
    with pytest.raises(ContractViolationError):
        as_mask({5}, 4)
    for bad in (-1, {0}, {1.5}):
        with pytest.raises(ContractViolationError):
            as_mask(bad)


def test_prime_divisors():
    assert prime_divisors(1) == ()
    assert [prime_divisors(p) for p in (2, 3, 97, 9973)] == [(2,), (3,), (97,), (9973,)]
    assert prime_divisors(64) == (2,)
    assert prime_divisors(3**7) == (3,)
    assert prime_divisors(2860) == (2, 5, 11, 13)
    assert prime_divisors(2 * 9973) == (2, 9973)
    for m in range(1, 500):
        primes = prime_divisors(m)
        assert list(primes) == [
            p for p in range(2, m + 1) if m % p == 0 and all(p % f for f in range(2, p))
        ]
    with pytest.raises(ContractViolationError):
        prime_divisors(0)


def test_subset_composition_round_trip():
    # {2, 3, 6} inside {1, ..., 7}, with the empty composition of 0
    assert mask_to_composition(0b100110, 8) == (2, 1, 3, 2)
    assert composition_to_mask((2, 1, 3, 2)) == 0b100110
    assert mask_to_composition(0, 0) == () and composition_to_mask(()) == 0


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0))
def test_subset_composition_inverse(total, seed):
    mask = seed % (1 << (total - 1))
    comp = mask_to_composition(mask, total)
    assert sum(comp) == total and min(comp) > 0
    assert composition_to_mask(comp) == mask


def test_euler_numbers():
    assert [euler_number(k) for k in range(11)] == EULER
    assert euler_number(15) == 1903757312
    assert euler_number(16) == 19391512145


def test_signed_euler_numbers():
    assert [signed_euler_number(k) for k in range(11)] == SIGNED_EULER


def test_euler_number_via_tangent_secant_generating_function():
    # compare against the power series of tan + sec, an unrelated route
    from fractions import Fraction

    order = 12
    # build the series of sin and cos, then long-divide (1 + sin) / cos
    sin = [Fraction(0)] * order
    cos = [Fraction(0)] * order
    for k in range(order):
        if k % 2:
            sin[k] = Fraction((-1) ** (k // 2), math.factorial(k))
        else:
            cos[k] = Fraction((-1) ** (k // 2), math.factorial(k))
    # (1 + sin) / cos
    num = list(sin)
    num[0] += 1
    series = [Fraction(0)] * order
    rem = list(num)
    for k in range(order):
        c = rem[k] / cos[0]
        series[k] = c
        for j in range(order - k):
            rem[k + j] -= c * cos[j]
    for k in range(order):
        assert series[k] * math.factorial(k) == euler_number(k)
