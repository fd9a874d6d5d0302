import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab.descent import beta_table, rho
from descentlab.errors import ContractViolationError, ResourceLimitError
from descentlab.numbers import composition_to_mask
from descentlab.qsym import (
    QSymPoly,
    f_boolean,
    f_cubical_B,
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
    # place through the public indexing contract
    vals = [0] * (1 << max(n - 1, 0))
    mask = 0
    acc = 0
    for part in comp[:-1]:
        acc += part
        mask |= 1 << (acc - 1)
    vals[mask] = coeff
    return QSymPoly(n, "M", tuple(vals))


def coefficient(p, comp):
    """The coefficient of p on a composition, through the mask contract."""
    assert sum(comp) == p.degree + p.signed
    return p.coeffs[composition_to_mask(comp)]


def l_to_m(p):
    """Reference inverse of m_to_l: each M coefficient sums the L
    coefficients over the subsets of its mask."""
    assert p.basis == "L"
    size = len(p.coeffs)
    return QSymPoly(
        p.degree,
        "M",
        tuple(sum(p.coeffs[t] for t in range(size) if t & s == t) for s in range(size)),
        p.signed,
    )


def test_poly_shape_validation():
    with pytest.raises(ContractViolationError):
        QSymPoly(3, "M", (1, 2))
    with pytest.raises(ContractViolationError):
        QSymPoly(3, "X", (1, 2, 3, 4))
    with pytest.raises(ContractViolationError):
        QSymPoly(2, "M", (1, 2), signed=True)
    assert len(QSymPoly(2, "M", (1, 2, 3, 4), signed=True).coeffs) == 4


def test_basis_change_round_trip_small():
    p = f_boolean(5)
    assert l_to_m(m_to_l(p)).coeffs == p.coeffs
    s = f_cubical_B(4)
    assert m_to_l(s).signed and l_to_m(m_to_l(s)) == s
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
    assert coefficient(ab, (2, 1, 1)) == 2
    assert coefficient(ab, (1, 2, 1)) == 1
    assert coefficient(ab, (1, 1, 2)) == 0
    assert coefficient(ab, (3, 1)) == 1
    assert coefficient(ab, (2, 2)) == 1
    assert coefficient(ab, (4,)) == 0


@given(compositions, compositions)
def test_multiply_commutes(ca, cb):
    assert multiply(M(ca), M(cb)).coeffs == multiply(M(cb), M(ca)).coeffs


def test_multiply_rejects_a_signed_operand():
    with pytest.raises(ContractViolationError):
        multiply(M((1,)), f_cubical_B(1))


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
    assert coefficient(p, (2, 2, 2)) == 90
    assert coefficient(p, (1,) * 6) == math.factorial(6)
    assert coefficient(p, (6,)) == 1
    p = f_boolean(3)
    assert coefficient(p, (1, 1, 1)) == 6
    assert coefficient(p, (3,)) == 1


def test_f_cubical_first_steps():
    assert f_cubical_B(0).coeffs == (1,)
    p1 = f_cubical_B(1)
    assert coefficient(p1, (2,)) == 1
    assert coefficient(p1, (1, 1)) == 2
    p2 = f_cubical_B(2)
    assert coefficient(p2, (3,)) == 1
    assert coefficient(p2, (2, 1)) == 4
    assert coefficient(p2, (1, 2)) == 4
    assert coefficient(p2, (1, 1, 1)) == 8


def test_power_limits():
    with pytest.raises(ResourceLimitError):
        f_boolean(13)
    with pytest.raises(ResourceLimitError):
        f_cubical_B(13)


@pytest.mark.parametrize("n", list(range(1, 13)) + [16, 17, 18])
def test_odd_fundamental_count_matches_rho(n):
    assert odd_fundamental_count(n) == rho(n) * (1 << (n - 1))


def test_odd_fundamental_count_small_direct():
    # parity of the descent table, counted directly
    for n in range(1, 10):
        odd = sum(v % 2 for v in beta_table(n).values)
        assert odd_fundamental_count(n) == odd

