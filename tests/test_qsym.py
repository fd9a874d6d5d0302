import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab.descent import beta_table, rho
from descentlab.errors import ContractViolationError, ResourceLimitError
from descentlab.qsym import (
    BQSymPoly,
    QSymPoly,
    f_boolean,
    f_cubical_B,
    l_to_m,
    m_to_l,
    multiply,
    odd_fundamental_count,
    ordered_set_partitions,
    product_monomial_singletons,
)

def _mask_comp(n, mask):
    parts = []
    prev = 0
    for i in range(1, n):
        if mask >> (i - 1) & 1:
            parts.append(i - prev)
            prev = i
    parts.append(n - prev)
    return tuple(parts)


compositions = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.integers(min_value=0, max_value=(1 << (n - 1)) - 1).map(
        lambda mask: _mask_comp(n, mask)
    )
)


def M(comp, coeff=1):
    """The monomial element coeff * M_comp."""
    comp = tuple(comp)
    n = sum(comp)
    coeffs = [0] * (1 << max(n - 1, 0))
    p = QSymPoly(n, "M", tuple(coeffs))
    # place through the public indexing contract
    vals = list(coeffs)
    mask = 0
    acc = 0
    for part in comp[:-1]:
        acc += part
        mask |= 1 << (acc - 1)
    vals[mask] = coeff
    return QSymPoly(n, "M", tuple(vals))


def test_poly_shape_validation():
    with pytest.raises(ContractViolationError):
        QSymPoly(3, "M", (1, 2))
    with pytest.raises(ContractViolationError):
        QSymPoly(3, "X", (1, 2, 3, 4))
    with pytest.raises(ContractViolationError):
        BQSymPoly(2, "M", (1, 2))
    with pytest.raises(ContractViolationError):
        QSymPoly(3, "M", (1, 2, 3, 4), modulus=1)


def test_coefficient_lookup():
    p = f_boolean(3)
    assert p.coefficient((1, 1, 1)) == 6
    assert p.coefficient((3,)) == 1
    with pytest.raises(ContractViolationError):
        p.coefficient((2, 2))
    s = f_cubical_B(2)
    assert s.coefficient((3,)) == 1
    assert s.coefficient((1, 1, 1)) == 8


def test_basis_change_round_trip_small():
    p = f_boolean(5)
    assert l_to_m(m_to_l(p)).coeffs == p.coeffs
    with pytest.raises(ContractViolationError):
        m_to_l(m_to_l(p))


@given(compositions)
def test_basis_change_single_monomial(comp):
    # M_comp = sum over coarser... inverted: L expansion alternates by mask
    p = M(comp)
    back = l_to_m(m_to_l(p))
    assert back.coeffs == p.coeffs


def test_multiply_unit_and_commutativity():
    a = M((2, 1))
    b = M((1,))
    ab = multiply(a, b)
    ba = multiply(b, a)
    assert ab.coeffs == ba.coeffs
    assert ab.degree == 4
    # M_(21) * M_(1) = 2 M_(211) + M_(121) + M_(31) + M_(22)
    assert ab.coefficient((2, 1, 1)) == 2
    assert ab.coefficient((1, 2, 1)) == 1
    assert ab.coefficient((1, 1, 2)) == 0
    assert ab.coefficient((3, 1)) == 1
    assert ab.coefficient((2, 2)) == 1
    assert ab.coefficient((4,)) == 0


@given(compositions, compositions)
def test_multiply_commutes(ca, cb):
    assert multiply(M(ca), M(cb)).coeffs == multiply(M(cb), M(ca)).coeffs


def test_multiply_rejects_mixed_moduli():
    a = QSymPoly(1, "M", (1,), modulus=5)
    b = QSymPoly(1, "M", (1,))
    with pytest.raises(ContractViolationError):
        multiply(a, b)


def test_ordered_set_partition_counts():
    # Fubini numbers
    for k, count in enumerate([1, 1, 3, 13, 75, 541, 4683]):
        assert sum(1 for _ in ordered_set_partitions(k)) == count


@pytest.mark.parametrize("parts", [(1, 1), (2, 1), (1, 1, 1), (3, 2), (1, 2, 1, 2)])
def test_singleton_products_agree_with_quasi_shuffle(parts):
    via_osp = product_monomial_singletons(parts)
    acc = M((parts[0],))
    for a in parts[1:]:
        acc = multiply(acc, M((a,)))
    assert via_osp.coeffs == acc.coeffs


def test_singleton_product_limits():
    with pytest.raises(ResourceLimitError):
        product_monomial_singletons((1,) * 9)
    with pytest.raises(ResourceLimitError):
        product_monomial_singletons((8, 8, 6))
    with pytest.raises(ContractViolationError):
        product_monomial_singletons((0, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_f_boolean_fundamental_is_descent_table(n):
    assert m_to_l(f_boolean(n)).coeffs == beta_table(n).values


@pytest.mark.parametrize("n", range(1, 9))
def test_f_cubical_fundamental_is_signed_descent_table(n):
    assert m_to_l(f_cubical_B(n)).coeffs == beta_table(n, signed=True).values


def test_f_boolean_monomial_coefficients_count_chains():
    # degree-n M coefficient on comp = number of chains with those rank jumps
    # = multinomial(n; comp)
    p = f_boolean(6)
    assert p.coefficient((2, 2, 2)) == 90
    assert p.coefficient((1,) * 6) == math.factorial(6)
    assert p.coefficient((6,)) == 1


def test_f_cubical_first_steps():
    assert f_cubical_B(0).coeffs == (1,)
    p1 = f_cubical_B(1)
    assert p1.coefficient((2,)) == 1
    assert p1.coefficient((1, 1)) == 2
    p2 = f_cubical_B(2)
    assert p2.coefficient((3,)) == 1
    assert p2.coefficient((2, 1)) == 4
    assert p2.coefficient((1, 2)) == 4
    assert p2.coefficient((1, 1, 1)) == 8


def test_modular_powers_match_exact():
    for n in (3, 6, 9):
        exact = f_boolean(n)
        modular = f_boolean(n, modulus=8)
        assert modular.coeffs == tuple(c % 8 for c in exact.coeffs)
        exact_s = f_cubical_B(n)
        modular_s = f_cubical_B(n, modulus=3)
        assert modular_s.coeffs == tuple(c % 3 for c in exact_s.coeffs)


def test_power_limits():
    with pytest.raises(ResourceLimitError):
        f_boolean(13)
    with pytest.raises(ResourceLimitError):
        f_cubical_B(13)
    with pytest.raises(ResourceLimitError):
        f_boolean(19, modulus=4)


@pytest.mark.parametrize("n", list(range(1, 13)) + [16, 17, 18])
def test_odd_fundamental_count_matches_rho(n):
    assert odd_fundamental_count(n) == rho(n) * (1 << (n - 1))


def test_odd_fundamental_count_small_direct():
    # parity of the descent table, counted directly
    for n in range(1, 10):
        odd = sum(v % 2 for v in beta_table(n).values)
        assert odd_fundamental_count(n) == odd

