import importlib.resources
import json
import math
import operator
import os
import random
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from descentlab import checks, cyclo, descent
from descentlab.cyclo import (
    IntPoly,
    cyclotomic,
    divides_order,
    eval_special,
    factor_scan,
    format_report,
    heuristic_candidates,
    load_golden,
    parse_report_line,
    report_to_json_dict,
)
from descentlab.descent import beta_table, residue_histogram
from descentlab.errors import ContractViolationError, ResourceLimitError
from descentlab.numbers import prime_divisors

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


@given(int_polys, int_polys)
def test_mul_matches_naive(a, b):
    assert a * b == naive_mul(a, b)


def test_kronecker_path_matches_schoolbook():
    rng = random.Random(11)
    # long factors with wide coefficients, against the schoolbook reference;
    # near 2**70 a product needs slots wider than one 8-byte limb
    for top in (10**6, 2**70):
        a = IntPoly([rng.randrange(-top, top) for _ in range(300)])
        b = IntPoly([rng.randrange(-top, top) for _ in range(400)])
        assert a * b == naive_mul(a, b)


def reference_divmod(num, den):
    """Quotient and remainder by a monic divisor: the synthetic division
    that the divisibility test and the product construction replaced."""
    if den.is_zero or den.coeffs[-1] != 1:
        raise ValueError("divisor must be monic")
    dd = den.degree
    if num.degree < dd:
        return IntPoly(), num
    r = list(num.coeffs)
    q = [0] * (num.degree - dd + 1)
    nz = [(j, c) for j, c in enumerate(den.coeffs[:-1]) if c]
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dd]
        if c:
            q[i] = c
            r[i + dd] = 0
            for j, bc in nz:
                r[i + j] -= c * bc
    return IntPoly(q), IntPoly(r[:dd])


def reference_remainder(counts, m):
    return reference_divmod(IntPoly(counts), cyclotomic(m))[1]


@lru_cache(maxsize=None)
def reference_cyclotomic(k):
    """Phi_k by the recursion Phi_k(t) = Phi_rad(k)(t**(k/rad(k))), and for
    squarefree k = m * p, p its largest prime, Phi_k = Phi_m(t**p) / Phi_m."""
    if k == 1:
        return IntPoly((-1, 1))
    primes = prime_divisors(k)
    rad = math.prod(primes)
    if rad != k:
        return substitute_power(reference_cyclotomic(rad), k // rad)
    m = k // primes[-1]
    if m == 1:
        return IntPoly((1,) * k)
    phi_m = reference_cyclotomic(m)
    quotient, remainder = reference_divmod(substitute_power(phi_m, primes[-1]), phi_m)
    assert remainder.is_zero
    return quotient


def substitute_power(poly, e):
    out = [0] * (len(poly.coeffs) * e - e + 1)
    out[::e] = poly.coeffs
    return IntPoly(out)


@given(int_polys, st.integers(min_value=0, max_value=6))
def test_divmod_round_trip(num, dd):
    den = cyclotomic(dd + 2)
    q, r = reference_divmod(num, den)
    back = map(sum, zip_longest((q * den).coeffs, r.coeffs, fillvalue=0))
    assert IntPoly(back) == num
    assert r.is_zero or r.degree < den.degree


def test_divmod_requires_monic():
    with pytest.raises(ValueError):
        reference_divmod(IntPoly((1, 1)), IntPoly((1, 2)))
    with pytest.raises(ValueError):
        reference_divmod(IntPoly((1, 1)), IntPoly())


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
    assert prod == IntPoly((-1,) + (0,) * (k - 1) + (1,))
    assert cyclotomic(k).degree == totient(k)


def test_cyclotomic_matches_reference_recursion():
    try:
        bad = [k for k in range(1, 2001) if cyclotomic(k) != reference_cyclotomic(k)]
    finally:
        reference_cyclotomic.cache_clear()
    assert bad == []
    with pytest.raises(ContractViolationError):
        cyclotomic(0)


def test_cyclotomic_values_at_one():
    # p at prime powers, 1 otherwise
    assert sum(cyclotomic(9).coeffs) == 3
    assert sum(cyclotomic(32).coeffs) == 2
    assert sum(cyclotomic(6).coeffs) == 1
    assert sum(cyclotomic(2860).coeffs) == 1


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


def test_divides_order_at_an_order_far_above_the_degree():
    # the derivative there is 0, which Phi_4 divides; weights nested one
    # lazy map per order overflowed the C stack, so a child process runs it
    code = "from descentlab import *; print(divides_order(beta_table(5), 4, 100_000))"
    env = {**os.environ, "PYTHONPATH": str(Path(cyclo.__file__).parents[1])}
    argv = [sys.executable, "-c", code]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")


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
    by_division = reference_remainder(c, m).is_zero
    assert divides_order(c, m) == by_division


def test_modulus_bound_refused_before_allocating(monkeypatch):
    def no_histogram(*args):
        raise AssertionError("a histogram was allocated")

    monkeypatch.setattr(descent, "_residue_counts", no_histogram)
    t = beta_table(5)
    with pytest.raises(ResourceLimitError):
        residue_histogram(t, cyclo.MAX_INDEX + 1)
    with pytest.raises(ResourceLimitError):
        divides_order(t, 10**10)


def test_divides_order_accepts_prepared_histogram():
    t = beta_table(6)
    for m in (6, 7):
        for order in (0, 1):
            counts = residue_histogram(t, m, order)
            assert divides_order(counts, m, order) == divides_order(t, m, order)
    assert divides_order(residue_histogram(t, 6, 0), 6, 0)
    for bad in ([1, 2], (1, 2, 3, 4, 5), None):  # wrong length, or no counts
        with pytest.raises(ContractViolationError):
            divides_order(bad, 4, 0)


def test_eval_special():
    t8 = beta_table(8)
    assert eval_special(t8, "i") == (0, 0)
    t15 = beta_table(15)
    assert eval_special(t15, -1) == 1536
    # 2^n (1/2 - rho(n)) with rho(15) = 29/64
    assert eval_special(t15, -1) == (1 << 15) * (32 - 29) // 64
    for point in (1, 1j, 2):  # no check evaluates these
        with pytest.raises(ContractViolationError):
            eval_special(t8, point)


@given(residue_vectors(), st.integers(-3, 3), st.integers(-3, 3))
def test_congruence_agrees_with_division(case, a, b):
    # the root-value checks ask whether a histogram is congruent to
    # a*t + b*t^(m-1) mod Phi_m; here it is about half the time
    m, c = case
    terms = {1: a, m - 1: b}
    shape = [0] * m
    for e, x in terms.items():
        shape[e] += x
    hist = [x + y for x, y in zip(c, shape)]
    by_division = reference_remainder(hist, m) == reference_remainder(shape, m)
    assert checks._congruent(hist, terms) == by_division


def list_fold(hist, m):
    """A residue histogram mod a multiple of m, reduced mod m: the list fold
    that the packed fold replaced."""
    if m == len(hist):
        return hist
    return [sum(hist[r::m]) for r in range(m)]


def list_phi_product(counts, m):
    """The residues mod t**m - 1 times (1 - t**(m/p)) for every prime p | m,
    in the list form that the packed kernel replaced: one subtraction per
    entry and prime of m."""
    c = list(counts)
    for p in prime_divisors(m):
        # multiply by 1 - t**s: c[i] -= c[(i - s) % m]
        s = m // p
        c = list(map(operator.sub, c, c[-s:] + c[:-s]))
    return c


def list_phi_divides(counts, m):
    return not any(list_phi_product(counts, m))


def packed_verdict(hist, m):
    """The packed kernel on a histogram mod a multiple of m."""
    return next(cyclo._phi_divides_each(hist, [m]))


def periodic_sum(rng, m, blocks, top):
    """A histogram mod blocks * m, the sum over the primes p | m of a vector
    of period m/p: its fold mod m has period m/p in each term, so Phi_m
    divides it."""
    out = [0] * (blocks * m)
    for p in prime_divisors(m):
        tile = [rng.randrange(top + 1) for _ in range(m // p)]
        out = list(map(operator.add, out, tile * (blocks * p)))
    return out


# prime powers, four and five distinct primes, and small indexes
kernel_indexes = st.one_of(
    st.integers(min_value=2, max_value=300), st.sampled_from([8192, 729, 210, 2310, 4620])
)


@st.composite
def folded_histograms(draw):
    """A histogram mod L and a divisor m of L, half of them folding mod m to
    a multiple of Phi_m, with entries from sparse and small to 2**80."""
    m = draw(kernel_indexes)
    blocks = draw(st.integers(min_value=1, max_value=max(1, 20_000 // m)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    top = (1 << draw(st.integers(min_value=0, max_value=80))) - 1
    if draw(st.booleans()):
        return periodic_sum(rng, m, blocks, top), m
    density = draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    hist = [rng.randrange(top + 1) if rng.random() < density else 0 for _ in range(blocks * m)]
    return hist, m


@given(folded_histograms(), st.integers(min_value=0), st.integers(min_value=0, max_value=2**70))
def test_packed_kernel_matches_list_reference(case, pick, extra):
    # one list product decides the verdict and gives the content; a constant
    # shift leaves it unchanged, since every 1 - t**s sends a constant vector
    # to zero, and shifting past one entry sends some entries negative, as
    # _congruent's subtractions do
    hist, m = case
    folded = list_fold(hist, m)
    product = list_phi_product(folded, m)
    verdict = not any(product)
    assert packed_verdict(hist, m) == verdict
    assert next(cyclo._phi_contents(hist, [m])) == math.gcd(*product)
    shift = folded[pick % m] + extra
    assert divides_order([c - shift for c in folded], m) == verdict


def test_phi_contents_small():
    # d = 1 has no prime divisor, so its content is the total, the value at
    # t = 1; mod 2 the histogram is constant, mod 4 the product by 1 - t**2
    # is (-3, -9, 3, 9)
    assert list(cyclo._phi_contents([3, 0, 6, 9], [1, 2, 4])) == [18, 0, 3]


def tiled(rng, length, period, top):
    """A histogram mod ``length`` with period ``period``, which divides it:
    Phi_k divides it for every k | length that does not divide the period."""
    tile = [rng.randrange(top + 1) for _ in range(period)]
    return tile * (length // period)


DIVISORS_5040 = [d for d in range(2, 5041) if 5040 % d == 0]


# Groups the packed kernel shares one histogram among: 5040 with every one of
# its divisors, a chain in which most members fold from a member's fold, not
# from the whole; pairwise coprime members, which can only fold from the
# whole; and members one of which is the histogram's own length.
@pytest.mark.parametrize(
    "members,blocks",
    [
        pytest.param(DIVISORS_5040, 1, id="divisors-of-5040"),
        pytest.param([16, 7, 9, 5], 1, id="coprime"),
        pytest.param([2310, 30, 1155, 2, 77, 210], 1, id="member-is-the-length"),
        pytest.param([360, 8, 45, 120, 7], 3, id="mixed"),
    ],
)
def test_shared_folds_match_list_reference(members, blocks):
    rng = random.Random(len(members) * 1000 + blocks)
    length = math.lcm(*members) * blocks
    periods = [p for p in (1, 720, 1680, 2, 6, 70) if length % p == 0]
    for top in (1, 2**70):
        for period in periods[:3]:
            # a tiled histogram, and one made a multiple of 6 and then
            # perturbed in one entry, so verdicts and contents both vary
            hist = tiled(rng, length, period, top)
            scaled = [6 * x for x in tiled(rng, length, period, top)]
            scaled[rng.randrange(length)] += 6 * rng.randrange(2)
            for h in (hist, scaled):
                products = {m: list_phi_product(list_fold(h, m), m) for m in members}
                packed = {}
                for m, a, b, width in cyclo._phi_products(h, members):
                    a_slots, b_slots = (
                        descent._unpack(x.to_bytes(m * width, "little"), width) for x in (a, b)
                    )
                    packed[m] = list(map(operator.sub, a_slots, b_slots))
                assert packed == products
                want = [not any(products[m]) for m in members]
                assert list(cyclo._phi_divides_each(h, members)) == want
                want = [math.gcd(*products[m]) for m in members]
                assert list(cyclo._phi_contents(h, members)) == want


def test_sieve_tests_two_through_the_weight_gcd():
    # unsigned n = 1: one subset, so the polynomial is t and its one class
    # has weight 1; its value 1 at t = 1, the content mod t - 1, is 0 mod no
    # prime, so nothing survives
    classes = descent._value_counts(beta_table(1))
    assert [(w, list(v)) for w, v in classes] == [(1, [1])]
    survivors, content = cyclo._sieve(classes, list(range(2, 200)))
    assert survivors == [] and content[1] == 1
    # at n = 5 the class weights are 4 and 2, so g = 2 divides every
    # coefficient and each test reads its content mod 2p: the total 16 is not
    # 0 mod 6, which drops 3 and 9; 16 passes mod t - 1 but not mod t**8 - 1,
    # whose content 2 is not 0 mod 4; 4 and 8 pass mod 1, 2 and 4, but a
    # candidate is also one of its own moduli, where the content must be 0,
    # and theirs are 4 and 2; the content of 2 is 0, so Phi_2 divides
    classes = descent._value_counts(beta_table(5))
    assert [w for w, _ in classes] == [4, 2]
    want = ([2], {1: 16, 2: 0, 3: 2, 4: 4, 8: 2})
    assert cyclo._sieve(classes, [2, 3, 4, 8, 9, 16]) == want


def spread(folded):
    """A histogram mod 3 * m that folds to ``folded``, each entry split into
    a quarter, a half and the rest, so the fold sums exceed every entry."""
    quarters, halves = [x // 4 for x in folded], [x // 2 for x in folded]
    return quarters + halves + [x - q - h for x, q, h in zip(folded, quarters, halves)]


@pytest.mark.parametrize("m", [2, 6, 12, 210, 729, 2310, 8192])
def test_packed_kernel_edges(m):
    # all-zero histograms, and totals 2**k - 1, which fill bit_length(total)
    # + omega(m) bits: a whole number of slot bytes when k + omega(m) is a
    # multiple of 8
    for blocks in (1, 2, 3):
        assert packed_verdict([0] * (blocks * m), m)
    p = prime_divisors(m)[-1]
    for k in range(1, 100):
        total = (1 << k) - 1
        spike = [total] + [0] * (m - 1)
        periodic = [0] * m  # period m/p, so a multiple of Phi_m
        if total % p == 0:
            periodic[:: m // p] = [total // p] * p
        near = periodic.copy()  # a miss by one bit, lost if a slot is short
        near[0] += 1 << (k - 1)
        for folded in (spike, periodic, near):
            verdict = list_phi_divides(folded, m)
            assert packed_verdict(folded, m) == packed_verdict(spread(folded), m) == verdict
        assert not divides_order([-total] + [0] * (m - 1), m)
        assert divides_order([-total] * m, m)


def test_heuristic_candidates():
    cands = heuristic_candidates(8, 100)
    assert 28 in cands and 64 in cands
    assert 22 not in cands  # 11 > 8
    assert all(m % 2 == 0 for m in cands)
    assert heuristic_candidates(2, 20) == [2, 4, 8, 16]


# the products of primes <= n against the trial division they replaced
@pytest.mark.parametrize("bound", [2, 3, 300, 10_000])
def test_heuristic_candidates_match_the_trial_division_filter(bound):
    for n in range(1, 32):
        want = [m for m in range(2, bound + 1, 2) if prime_divisors(m)[-1] <= n]
        assert heuristic_candidates(n, bound) == want, (n, bound)


def falling_factorial(v, j):
    out = 1
    for k in range(j):
        out *= v - k
    return out


def reference_scan(table, bound, max_mult, policy):
    """The factor rows by one pass over the (value, count) pairs per
    candidate and order, each tested by the list product: the per-candidate
    scan, with no grouping, no sieve and no packed kernel."""
    pairs = sorted(Counter(table.values).items())
    weighted = [[(v, c * falling_factorial(v, j)) for v, c in pairs] for j in range(max_mult)]

    def multiplicity(m):
        for order, terms in enumerate(weighted):
            counts = [0] * m
            for v, w in terms:
                counts[v % m] += w
            if not list_phi_divides(counts, m):
                return order
        return max_mult

    if policy == "heuristic":
        candidates = heuristic_candidates(table.n, bound)
    else:
        candidates = range(2, bound + 1)
    rows = ((m, multiplicity(m)) for m in candidates)
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


def reference_sieve(table, candidates):
    """The candidates that pass every sieve test, each test the content of
    the list product over the table's residues mod t**M - 1, M = m / p**j,
    read mod p times the polynomial's content, the gcd of its coefficients,
    for j >= 1, and for j = 0, M = m, that content itself, which is 0
    exactly when Phi_m divides; and that content as a function of M.  The
    scan divides by the gcd of its class weights instead, which only
    divides the polynomial's content; the two are equal for unsigned
    n = 1..18 and signed n = 1..14."""
    pairs = Counter(table.values).items()
    divisor = math.gcd(*(c for _, c in pairs))

    @lru_cache(maxsize=None)
    def content(M):
        counts = [0] * M
        for v, c in pairs:
            counts[v % M] += c
        return math.gcd(*list_phi_product(counts, M))

    def passes(m, p):
        M = m
        while M % p == 0:
            M //= p
            if M <= cyclo._SIEVE_LIMIT and content(M) % (p * divisor):
                return False
        return True

    def exact(m):
        return m > cyclo._SIEVE_LIMIT or content(m) == 0

    survivors = [m for m in candidates if all(passes(m, p) for p in prime_divisors(m))]
    return [m for m in survivors if exact(m)], content


@pytest.mark.parametrize(
    "n,signed,policy,bound",
    [
        (1, False, "exhaustive", 300),
        (12, False, "exhaustive", 3000),
        (9, True, "exhaustive", 3000),
        (11, False, "heuristic", 10_000),
        (16, False, "heuristic", 10_000),
    ],
)
def test_sieve_matches_reference_sieve(n, signed, policy, bound):
    table = beta_table(n, signed=signed)
    candidates = heuristic_candidates(n, bound) if policy == "heuristic" else range(2, bound + 1)
    survivors, content = cyclo._sieve(descent._value_counts(table), list(candidates))
    want, reference_content = reference_sieve(table, candidates)
    assert survivors == want
    assert content == {d: reference_content(d) for d in content}
    assert len(survivors) < len(candidates) // 4


def scan_shapes(table, bound, policy):
    """The shapes one scan takes, by name: its value passes, each recorded
    as the scan makes it through cyclo's name for _residue_counts, the
    sieve's passes and its survivors and contents, read off its return
    value, and the members of each exact pass, read off the packed kernel;
    each against the pass length N (the number of values in the table's
    weighted classes, below _GROUP_CAP at these sizes), and the rows the
    scan finds."""
    passes, sieved, exact = [], [], []
    counts, sieve, kernel = cyclo._residue_counts, cyclo._sieve, cyclo._phi_divides_each

    def record_pass(classes, modulus, order):
        passes.append((modulus, order))
        return counts(classes, modulus, order)

    def record_sieve(classes, candidates):
        sieved.append((sieve(classes, candidates), len(passes)))
        return sieved[-1][0]

    def record_kernel(hist, members):
        exact.append((passes[-1][1], list(members)))
        return kernel(hist, members)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cyclo, "_residue_counts", record_pass)
        patch.setattr(cyclo, "_sieve", record_sieve)
        patch.setattr(cyclo, "_phi_divides_each", record_kernel)
        rows = factor_scan(table, max_index=bound, policy=policy).factors
    ((survivors, content), sieve_passes), = sieved
    assert len(passes) == sieve_passes + len(exact)
    classes = descent._value_counts(table)
    size = sum(len(values) for _, values in classes)
    shapes = set()
    if sieve_passes < len(content):
        shapes.add("shared sieve pass")
    if any(M > size for M in content):
        shapes.add("lone sieve pass above N")
    if any(len(g) > 1 for _, g in exact):
        shapes.add("shared exact pass")
    if any(g[0] > size for _, g in exact):
        shapes.add("lone exact pass above N")
    if not survivors:
        shapes.add("no survivor")
    order0 = {m: i for i, (order, g) in enumerate(exact) if order == 0 for m in g}
    if any(m in content and m not in order0 for m in survivors):
        shapes.add("order 0 read from a sieve content")
    later = (g for order, g in exact if order)
    if any(len({order0[m] for m in g if m in order0}) > 1 for g in later):
        shapes.add("one order-k pass shared by survivors of two order-0 groups")
    if any(k >= 2 for _, k in rows):
        shapes.add("order 2 reached")
    if rows and rows[-1][0] == bound:
        shapes.add("factor at the bound")
    return shapes


SHARED_AND_LONE = {"shared exact pass", "lone exact pass above N", "shared sieve pass"}
FROM_CONTENT = "order 0 read from a sieve content"


@pytest.mark.parametrize(
    "n,signed,policy,bound,shapes",
    [
        # N = 528, and no index above it survives the sieve up to 800
        pytest.param(
            12, False, "exhaustive", 800,
            {"shared exact pass", "shared sieve pass", FROM_CONTENT, "order 2 reached"},
            id="12-exhaustive-800",
        ),
        pytest.param(
            9, True, "heuristic", 1200,
            SHARED_AND_LONE | {"lone sieve pass above N", FROM_CONTENT, "order 2 reached"},
            id="signed9-heuristic-1200",
        ),
        pytest.param(
            7, True, "exhaustive", 300,
            SHARED_AND_LONE | {"lone sieve pass above N", FROM_CONTENT},
            id="signed7-exhaustive-300",
        ),
        # the polynomial is t, whose content mod t - 1 is 1, so the tests
        # mod t - 1 drop every prime power and nothing survives
        pytest.param(
            1, False, "exhaustive", 300, {"no survivor", "lone sieve pass above N"},
            id="1-exhaustive-300",
        ),
        # the polynomial is 2t: g = 2, and its content mod t - 1 is 2, which
        # 2p divides for no p, so p = 2 is a real test and drops the powers
        # of 2 as the other primes drop theirs
        pytest.param(
            1, True, "exhaustive", 300, {"no survivor", "lone sieve pass above N"},
            id="signed1-exhaustive-300",
        ),
        pytest.param(
            8, False, "exhaustive", 28, {"factor at the bound", FROM_CONTENT, "order 2 reached"},
            id="8-exhaustive-28",
        ),
        # N = 72: every candidate is one of the sieve's moduli, so order 0
        # reads each survivor's verdict off its content: Phi_2, Phi_6 and
        # Phi_18 divide, and 2, 6 and 18 share one order-1 pass
        pytest.param(
            9, False, "exhaustive", 28,
            {"shared exact pass", FROM_CONTENT, "order 2 reached"},
            id="9-exhaustive-28",
        ),
        # N = 512: the sieve leaves 4, 8, 24, 40, 64 and 72, each of whose
        # contents says its Phi divides; 4, 8, 24, 40 and 72 then share one
        # order-1 pass mod 360
        pytest.param(
            10, True, "exhaustive", 100, {"shared exact pass", FROM_CONTENT},
            id="signed10-exhaustive-100",
        ),
        # N = 16384: order 0 tests 1120 with 2080 and 1248 alone, above the
        # sieve's moduli; 1248 and 2080 then share one order-1 pass mod 6240
        pytest.param(
            15, True, "heuristic", 2080,
            {
                "shared exact pass",
                FROM_CONTENT,
                "one order-k pass shared by survivors of two order-0 groups",
                "factor at the bound",
            },
            id="signed15-heuristic-2080",
        ),
    ],
)
def test_factor_scan_matches_reference_scan(n, signed, policy, bound, shapes):
    table = beta_table(n, signed=signed)
    want = reference_scan(table, bound, 3, policy)
    for cap in (1, 2, 3):
        report = factor_scan(table, max_index=bound, max_multiplicity=cap, policy=policy)
        assert report.factors == tuple((m, min(k, cap)) for m, k in want)
    assert shapes <= scan_shapes(table, bound, policy)


def counted_scan(monkeypatch, n, signed, **kwargs):
    """factor_scan's report on beta_table(n, signed) and the (modulus, order)
    of each value pass it made, through cyclo's name for _residue_counts."""
    calls, counts = [], cyclo._residue_counts

    def counting(*args):
        calls.append(args[1:])
        return counts(*args)

    monkeypatch.setattr(cyclo, "_residue_counts", counting)
    try:
        return factor_scan(beta_table(n, signed=signed), **kwargs), calls
    finally:
        descent._table.cache_clear()


# Value passes per scan.  The same scans made 14, 57, 69 and 866 passes while
# order 0 was never read off the sieve contents, each order-0 group kept its
# own passes at every order, and every tested d above V got a lone pass.
# They made 9, 51, 63 and 455 while the grouping cap was the number V of
# distinct values, not the pass length N: signed 14 has N = 8192 against
# V = 8190, and unsigned 12 has N = 528 against V = 513.  They made 9, 51,
# 62 and 459 while the sieve ran every p-free part d up front, skipped p = 2
# (which divides every class weight) and tested only d, not every m / p**j.
# They made 9, 24, 32 and 308 while a candidate was never one of its own
# sieve moduli: n = 20 made two more order-0 passes, mod 9690 and mod 256.
# Groups stay within _GROUP_CAP = 2**17 as well as N; only n = 20 (N =
# 131,328) and n = 23 (N = 1,049,600) have N above it.  n = 23 made 28 passes
# with the sieve run eagerly, without p = 2 and on the p-free parts alone,
# and 20 with those groups up to N, 16 of them mod more than 2**17.
@pytest.mark.parametrize(
    "n,signed,policy,bound,passes",
    [
        (20, False, "heuristic", 300, 7),
        (16, False, "heuristic", 10_000, 24),
        (14, True, "heuristic", 10_000, 32),
        (12, False, "exhaustive", 3000, 308),
        pytest.param(23, False, "heuristic", 10_000, 13, marks=pytest.mark.golden),
    ],
    ids=[
        "20-heuristic-300",
        "16-heuristic-10000",
        "signed14-heuristic-10000",
        "12-exhaustive-3000",
        "23-heuristic-10000",
    ],
)
def test_factor_scan_pass_budget(monkeypatch, n, signed, policy, bound, passes):
    _, calls = counted_scan(monkeypatch, n, signed, max_index=bound, policy=policy)
    assert len(calls) == passes, calls
    assert max(modulus for modulus, _ in calls) <= cyclo._GROUP_CAP


def mul_mod_p(a, b, p):
    """The product of two coefficient lists with entries in [0, p), mod p,
    by one multiply of byte-slot packed ints."""
    width = (2 * p.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    x, y = (int.from_bytes(descent._pack(c, width), "little") for c in (a, b))
    slots = descent._unpack((x * y).to_bytes(width * (len(a) + len(b) - 1), "little"), width)
    return [c % p for c in slots]


def pow_mod_p(a, k, p):
    """The k-th power of a coefficient list with entries in [0, p), mod p,
    by repeated squaring."""
    out = [1]
    while k:
        if k & 1:
            out = mul_mod_p(out, a, p)
        k >>= 1
        if k:
            a = mul_mod_p(a, a, p)
    return out


def test_cyclotomic_reduction_mod_p():
    """Phi_m = Phi_d**phi(q) mod p for m = d q, q = p**e and p not dividing d,
    the fact the factor scan's sieve rests on.  Multiplied by Phi_d**(q/p),
    which is Phi_d(t**(q/p)) mod p, it reads Phi_m Phi_d(t**(q/p)) =
    Phi_d(t**q) mod p, equivalent in F_p[t], which has no zero divisors.
    When p**2 divides m, Phi_m = Phi_(m/p)**p mod p as well, the fact behind
    the sieve's tests mod t**M - 1 with p | M."""
    try:
        for m in range(2, 2000):
            for p in prime_divisors(m):
                q = p
                while m % (q * p) == 0:
                    q *= p
                phi_d = IntPoly(c % p for c in reference_cyclotomic(m // q).coeffs)
                lhs = [c % p for c in reference_cyclotomic(m).coeffs]
                rhs = list(substitute_power(phi_d, q).coeffs)
                factor = list(substitute_power(phi_d, q // p).coeffs)
                assert mul_mod_p(lhs, factor, p) == rhs, (m, p)
                if q > p:
                    base = [c % p for c in reference_cyclotomic(m // p).coeffs]
                    assert pow_mod_p(base, p, p) == lhs, (m, p)
    finally:
        reference_cyclotomic.cache_clear()


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
    for bad in [
        "", "n=3 signed=0 Phi_2", "x=1: -", "n=3 signed=0: Phi_x",
        # what format_report never writes
        "n=3 signed=0 bound=x: -", "n=3 signed=0 bound=1: -", "n=3 signed=0 bound=-4: -",
        "n=3 signed=7: -", "n=3 signed=00: -", "n=3 signed=0: Phi_2^0", "n=3 signed=0: Phi_2^-1",
        "n=3 signed=0: Phi_4 Phi_2", "n=3 signed=0: Phi_2 Phi_2^2", "n=3 signed=0: Phi_1",
    ]:
        with pytest.raises(ContractViolationError):
            parse_report_line(bad)


def test_parse_report_line_refuses_an_index_above_its_bound():
    with pytest.raises(ContractViolationError, match="'Phi_200' lies above the bound 100"):
        parse_report_line("n=8 signed=0 bound=100: Phi_4^2 Phi_28 Phi_200")
    # an index at the bound is in range
    assert parse_report_line("n=8 signed=0 bound=28: Phi_4^2 Phi_28").factors == ((4, 2), (28, 1))


def test_parse_report_line_refuses_an_empty_factor_list():
    for line in ["n=8 signed=0:", "n=8 signed=0 policy=heuristic bound=10000:  "]:
        with pytest.raises(ContractViolationError, match="empty factor list"):
            parse_report_line(line)
    assert parse_report_line("n=8 signed=0: -").factors == ()


def test_load_golden_refuses_two_rows_for_one_n(tmp_path, monkeypatch):
    (tmp_path / "table_unsigned.txt").write_text(
        "bound=10000\nn=3 signed=0: Phi_2\nn=4 signed=0: -\nn=3 signed=0: -\n"
    )
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
    with pytest.raises(ContractViolationError, match="a second row for n=3"):
        load_golden(False)


# the bound is written once, above the rows, and each row is held to it
def test_load_golden_refuses_an_index_above_the_recorded_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
    golden = tmp_path / "table_unsigned.txt"
    golden.write_text("# comment\nbound=100\nn=8 signed=0: Phi_4^2 Phi_28\n")
    assert load_golden(False)[8].bound == 100
    golden.write_text("# comment\nbound=100\nn=8 signed=0: Phi_4^2 Phi_28 Phi_200\n")
    with pytest.raises(ContractViolationError, match="'Phi_200' lies above the bound 100"):
        load_golden(False)
    for text in ("n=8 signed=0: Phi_4^2\n", "", "bound=1\nn=8 signed=0: -\n"):
        golden.write_text(text)
        with pytest.raises(ContractViolationError):
            load_golden(False)


def test_golden_tables_load():
    gu = load_golden(False)
    gs = load_golden(True)
    assert gu[8].factors == ((4, 2), (28, 1))
    assert gu[15].factors == ()
    assert (4, 2) in gu[16].factors and (572, 1) in gu[16].factors
    assert gs[2].factors == ((4, 1),)
    assert all(r.signed for r in gs.values())
    assert set(gu) == set(range(3, 24))
    assert set(gs) == set(range(2, 19))
    # every shipped row is re-checked by the tables suite at full scale
    assert set(gu) == set(checks.SUITES["tables"].full["unsigned"])
    assert set(gs) == set(checks.SUITES["tables"].full["signed"])
    assert {r.bound for r in [*gu.values(), *gs.values()]} == {10_000}


# The exhaustive scan at the recorded bound: the first shipped row that does
# not rest on heuristic_candidates.
@pytest.mark.golden
def test_exhaustive_scan_matches_golden_23():
    golden = load_golden(False)[23]
    try:
        report = factor_scan(beta_table(23), max_index=golden.bound, policy="exhaustive")
    finally:
        descent._table.cache_clear()
    assert report.factors == golden.factors
