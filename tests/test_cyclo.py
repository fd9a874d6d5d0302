import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descentlab import cyclo, descent
from descentlab.cyclo import (
    FactorReport,
    IntPoly,
    cyclotomic,
    divides_order,
    divmod_poly,
    eval_at_primitive_root,
    eval_special,
    factor_scan,
    format_report,
    heuristic_candidates,
    load_golden,
    parse_report_line,
    report_to_json_dict,
    signed_derivative_theorem_check,
)
from descentlab.descent import ResidueHistogram, beta_table, residue_histogram, rho
from descentlab.errors import ContractViolationError, ResourceLimitError
from descentlab.numbers import euler_number

int_polys = st.lists(st.integers(min_value=-50, max_value=50), max_size=8).map(IntPoly)


def naive_mul(a, b):
    if not a.coeffs or not b.coeffs:
        return IntPoly()
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPoly(out)


def test_int_poly_basics():
    p = IntPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntPoly().is_zero
    assert IntPoly.from_terms({3: 4, 0: -1}) == IntPoly((-1, 0, 0, 4))
    assert (p + IntPoly((0, -2))) == IntPoly((1,))
    assert (p - p).is_zero
    assert p.scale(3) == IntPoly((3, 6))
    assert p(10) == 21
    assert p.substitute_power(3) == IntPoly((1, 0, 0, 2))
    with pytest.raises(ContractViolationError):
        IntPoly.from_terms({-1: 1})


@given(int_polys, int_polys)
def test_mul_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


def test_kronecker_path_matches_schoolbook():
    rng = random.Random(11)
    a = IntPoly([rng.randrange(-10**6, 10**6) for _ in range(300)])
    b = IntPoly([rng.randrange(-10**6, 10**6) for _ in range(400)])
    # 300*400 = 120000 > the schoolbook cutoff, so this exercises packing
    assert a * b == naive_mul(a, b)


@given(int_polys, st.integers(min_value=0, max_value=6))
def test_divmod_round_trip(num, dd):
    den = cyclotomic(dd + 2)
    q, r = divmod_poly(num, den)
    assert q * den + r == num
    assert r.is_zero or r.degree < den.degree


def test_divmod_requires_monic():
    with pytest.raises(ContractViolationError):
        divmod_poly(IntPoly((1, 1)), IntPoly((1, 2)))
    with pytest.raises(ContractViolationError):
        divmod_poly(IntPoly((1, 1)), IntPoly())


def test_cyclotomic_small_table():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(3) == IntPoly((1, 1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(10) == IntPoly((1, -1, 1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    assert cyclotomic(105).coeffs[7] == -2  # first index with a coefficient not in {-1,0,1}


def totient(k):
    out = k
    f = 2
    rest = k
    while f * f <= rest:
        if rest % f == 0:
            out -= out // f
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        out -= out // rest
    return out


@pytest.mark.parametrize("k", [1, 2, 8, 9, 12, 15, 16, 30, 36, 100, 128, 210, 255, 2860])
def test_cyclotomic_product_over_divisors(k):
    prod = IntPoly((1,))
    for d in range(1, k + 1):
        if k % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == IntPoly.from_terms({0: -1, k: 1})
    assert cyclotomic(k).degree == totient(k)


def test_cyclotomic_values_at_one():
    # p at prime powers, 1 otherwise
    assert cyclotomic(9)(1) == 3
    assert cyclotomic(32)(1) == 2
    assert cyclotomic(6)(1) == 1
    assert cyclotomic(2860)(1) == 1


def test_divides_order_examples():
    t5 = beta_table(5)
    assert divides_order(t5, 2, 0)
    assert divides_order(t5, 2, 1)
    assert not divides_order(t5, 2, 2)
    assert divides_order(t5, 10, 0)
    assert not divides_order(t5, 10, 1)
    assert not divides_order(t5, 4, 0)
    with pytest.raises(ContractViolationError):
        divides_order(t5, 1, 0)


@st.composite
def residue_vectors(draw):
    """A residue vector mod t**m - 1, about half of them multiples of Phi_m."""
    m = draw(st.integers(min_value=2, max_value=400))
    coeff = st.integers(min_value=-30, max_value=30)
    if draw(st.booleans()):
        return m, draw(st.lists(coeff, min_size=m, max_size=m))
    multiple = IntPoly(draw(st.lists(coeff, max_size=m))) * cyclotomic(m)
    c = [0] * m
    for e, a in enumerate(multiple.coeffs):
        c[e % m] += a
    return m, c


@given(residue_vectors())
def test_divides_order_agrees_with_division(case):
    m, c = case
    by_division = divmod_poly(IntPoly(c), cyclotomic(m))[1].is_zero
    assert divides_order(ResidueHistogram(m, 0, tuple(c)), m) == by_division


def test_divides_order_accepts_prepared_histogram():
    t = beta_table(6)
    h = residue_histogram(t, 6, 0)
    assert divides_order(h, 6, 0)
    with pytest.raises(ContractViolationError):
        divides_order(h, 6, 1)  # mismatched order
    with pytest.raises(ContractViolationError):
        divides_order([1, 2], 4, 0)


def test_eval_special():
    t8 = beta_table(8)
    assert eval_special(t8, 1) == 128
    assert eval_special(t8, "i") == (0, 0)
    assert eval_special(t8, 1j) == (0, 0)
    t15 = beta_table(15)
    assert eval_special(t15, -1) == 1536
    # 2^n (1/2 - rho(n)) with rho(15) = 29/64
    assert eval_special(t15, -1) == (1 << 15) * (32 - 29) // 64
    with pytest.raises(ContractViolationError):
        eval_special(t8, 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_eval_special_minus_one_matches_rho(n):
    t = beta_table(n)
    odd = int(rho(n) * (1 << (n - 1)))
    assert eval_special(t, -1) == (1 << (n - 1)) - 2 * odd


def test_eval_at_primitive_root():
    assert eval_at_primitive_root(beta_table(5), 10).is_zero
    assert not eval_at_primitive_root(beta_table(5), 6).is_zero
    # the residue equals the polynomial built from the histogram directly
    t = beta_table(6)
    h = residue_histogram(t, 6, 0)
    q, r = divmod_poly(IntPoly(h.counts), cyclotomic(6))
    assert eval_at_primitive_root(t, 6) == r


@pytest.mark.parametrize("p,magnitude", [(3, 24), (5, 800), (7, 54656)])
def test_signed_derivative_theorem(p, magnitude):
    chk = signed_derivative_theorem_check(p)
    assert chk.ok
    assert chk.divides_once and not chk.divides_twice
    assert chk.lhs == chk.rhs
    assert chk.magnitude == magnitude
    assert chk.magnitude == (1 << p) * p * euler_number(p - 1)


def test_signed_derivative_rejects_bad_p():
    with pytest.raises(ContractViolationError):
        signed_derivative_theorem_check(4)
    with pytest.raises(ContractViolationError):
        signed_derivative_theorem_check(2)
    with pytest.raises(ContractViolationError):
        signed_derivative_theorem_check(17)


def test_heuristic_candidates():
    cands = heuristic_candidates(8, 100)
    assert 28 in cands and 64 in cands
    assert 22 not in cands  # 11 > 8
    assert all(m % 2 == 0 for m in cands)
    assert heuristic_candidates(2, 20) == [2, 4, 8, 16]


def falling_factorial(v, j):
    out = 1
    for k in range(j):
        out *= v - k
    return out


def reference_multiplicity(pairs, m, max_mult):
    """Multiplicity of Phi_m by one pass over the (value, count) pairs per
    order, the per-candidate scan the grouped counting replaced."""
    mult = 0
    while mult < max_mult:
        counts = [0] * m
        for v, c in pairs:
            counts[v % m] += c * falling_factorial(v, mult)
        if not cyclo._phi_divides(counts, m):
            break
        mult += 1
    return mult


def reference_scan(table, bound, max_mult, policy):
    pairs = sorted(Counter(table.values).items())
    if policy == "heuristic":
        candidates = heuristic_candidates(table.n, bound)
    else:
        candidates = range(2, bound + 1)
    rows = ((m, reference_multiplicity(pairs, m, max_mult)) for m in candidates)
    return tuple((m, k) for m, k in rows if k)


def first_fit(candidates, cap):
    """Groups by testing every open group in order."""
    groups, moduli = [], []
    for m in candidates:
        for i, modulus in enumerate(moduli):
            if math.lcm(modulus, m) <= cap:
                groups[i].append(m)
                moduli[i] = math.lcm(modulus, m)
                break
        else:
            groups.append([m])
            moduli.append(m)
    return groups


@st.composite
def candidate_lists(draw):
    cap = draw(st.integers(min_value=1, max_value=400))
    kind = draw(st.sampled_from(["range", "heuristic", "random"]))
    bound = draw(st.integers(min_value=2, max_value=2 * cap + 2))
    if kind == "range":
        return list(range(2, bound + 1)), cap
    if kind == "heuristic":
        return heuristic_candidates(draw(st.integers(1, 23)), bound), cap
    picks = draw(st.sets(st.integers(min_value=2, max_value=bound), max_size=300))
    return sorted(picks), cap


@given(candidate_lists())
def test_candidate_groups(case):
    candidates, cap = case
    groups = cyclo._group_candidates(candidates, cap)
    assert sorted(m for g in groups for m in g) == sorted(candidates)
    for g in groups:
        modulus = math.lcm(*g)
        assert all(modulus % m == 0 for m in g)
        assert modulus <= max(cap, max(g))
        assert len(g) == 1 or modulus <= cap
    assert groups == first_fit(candidates, cap)


@st.composite
def scan_cases(draw):
    signed = draw(st.booleans())
    table = beta_table(draw(st.integers(min_value=1, max_value=12)), signed=signed)
    distinct = len(set(table.values))
    bound = draw(st.integers(min_value=2, max_value=2 * distinct + 2))
    policy = draw(st.sampled_from(["heuristic", "exhaustive"]))
    return table, bound, draw(st.integers(min_value=1, max_value=3)), policy


@settings(max_examples=30)
@given(scan_cases())
def test_factor_scan_matches_reference(case):
    table, bound, max_mult, policy = case
    report = factor_scan(table, max_index=bound, max_multiplicity=max_mult, policy=policy)
    assert report.factors == reference_scan(table, bound, max_mult, policy)


@pytest.mark.parametrize(
    "n,signed,bound,policy",
    [(12, False, 800, "exhaustive"), (10, False, 400, "heuristic"), (9, True, 1200, "heuristic")],
)
def test_factor_scan_matches_reference_across_group_shapes(n, signed, bound, policy):
    table = beta_table(n, signed=signed)
    distinct = len(set(table.values))
    candidates = heuristic_candidates(n, bound) if policy == "heuristic" else range(2, bound + 1)
    groups = cyclo._group_candidates(list(candidates), distinct)
    assert any(len(g) > 1 for g in groups)
    assert any(g[0] > distinct for g in groups)  # lone candidates above the cap
    for max_mult in (1, 2, 3):
        report = factor_scan(table, max_index=bound, max_multiplicity=max_mult, policy=policy)
        assert report.factors == reference_scan(table, bound, max_mult, policy)
    # some candidate survived orders 0 and 1, so order 2 was counted
    assert any(k >= 2 for _, k in report.factors)


def test_factor_scan_bound_ceiling():
    with pytest.raises(ResourceLimitError):
        factor_scan(beta_table(5), max_index=cyclo.MAX_INDEX + 1)
    with pytest.raises(ResourceLimitError):
        factor_scan(beta_table(5), max_index=10**12, policy="exhaustive")


def test_factor_scan_small():
    r = factor_scan(beta_table(8), max_index=100)
    assert r.factors == ((4, 2), (28, 1))
    assert r.n == 8 and not r.signed
    assert format_report(r) == "n=8 signed=0 policy=heuristic bound=100: Phi_4^2 Phi_28"
    empty = factor_scan(beta_table(15), max_index=64)
    assert empty.factors == ()
    assert format_report(empty, include_scan_info=False) == "n=15 signed=0: -"


def test_factor_scan_policies_agree():
    a = factor_scan(beta_table(6), max_index=40, policy="heuristic")
    b = factor_scan(beta_table(6), max_index=40, policy="exhaustive")
    assert a.factors == b.factors == ((2, 2), (6, 2), (10, 1))
    with pytest.raises(ContractViolationError):
        factor_scan(beta_table(6), policy="fast")


def test_factor_scan_workers_do_not_change_output():
    one = factor_scan(beta_table(9), max_index=300, workers=1)
    four = factor_scan(beta_table(9), max_index=300, workers=4)
    assert one == four


def test_factor_scan_caps_workers_at_cpu_count(monkeypatch):
    requested = []

    class SerialPool:
        def __init__(self, processes, initializer, initargs):
            requested.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return [fn(x) for x in items]

    monkeypatch.setattr(cyclo.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cyclo.multiprocessing, "Pool", SerialPool)
    report = factor_scan(beta_table(9), max_index=300, workers=10**9)
    assert requested == [2]
    assert report == factor_scan(beta_table(9), max_index=300)
    with pytest.raises(ContractViolationError):
        factor_scan(beta_table(9), workers=0)


def test_report_serialization_round_trip():
    r = factor_scan(beta_table(6, signed=True), max_index=200)
    line = format_report(r)
    back = parse_report_line(line)
    assert back == r
    short = parse_report_line(format_report(r, include_scan_info=False))
    assert short.factors == r.factors
    assert short.policy == "golden" and short.bound == 0
    d = report_to_json_dict(r)
    assert d["schema"] == "descentlab/1"
    assert json.loads(json.dumps(d)) == d
    assert d["factors"][0] == {"index": 4, "multiplicity": 1}


def test_parse_report_line_rejects_garbage():
    for bad in ["", "n=3 signed=0 Phi_2", "x=1: -", "n=3 signed=0: Phi_x"]:
        with pytest.raises(ContractViolationError):
            parse_report_line(bad)


def test_golden_tables_load():
    gu = load_golden(False)
    gs = load_golden(True)
    assert gu[8].factors == ((4, 2), (28, 1))
    assert gu[15].factors == ()
    assert gs[2].factors == ((4, 1),)
    assert all(r.signed for r in gs.values())
    assert set(gu) == set(range(3, 24))
    assert set(gs) == set(range(2, 19))


@pytest.mark.parametrize("n", range(3, 11))
def test_factor_scan_matches_golden_unsigned(n):
    want = load_golden(False)[n].factors
    got = factor_scan(beta_table(n), max_index=600).factors
    assert got == tuple((m, k) for m, k in want if m <= 600)


@pytest.mark.parametrize("n", range(2, 8))
def test_factor_scan_matches_golden_signed(n):
    want = load_golden(True)[n].factors
    got = factor_scan(beta_table(n, signed=True), max_index=600).factors
    assert got == tuple((m, k) for m, k in want if m <= 600)


@pytest.mark.parametrize(
    "n,signed", [(17, False), (18, False)] + [(n, True) for n in range(11, 17)]
)
def test_factor_scan_matches_golden_at_recorded_bound(n, signed):
    got = factor_scan(beta_table(n, signed=signed), max_index=10_000).factors
    assert got == load_golden(signed)[n].factors


@pytest.mark.golden
@pytest.mark.parametrize(
    "n,signed", [(n, False) for n in range(19, 24)] + [(17, True), (18, True)]
)
def test_factor_scan_matches_every_golden_row(n, signed):
    try:
        got = factor_scan(beta_table(n, signed=signed), max_index=10_000).factors
    finally:
        descent._table.cache_clear()
    assert got == load_golden(signed)[n].factors
