"""The ab-index, the cd-index, and the sign functionals built on them.

An ab-polynomial of degree k is stored densely over the 2**k words in the
letters a, b: word position i corresponds to mask bit i - 1, with the bit set
when the letter is b.  Descent tables become ab-polynomials by reading each
subset as a b-pattern.  cd-polynomials are sparse dictionaries keyed by words
in c (weight 1) and d (weight 2).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache

from .descent import DescentTable, beta_table
from .errors import ContractViolationError, DescentLabError
from .numbers import as_mask, reverse_mask

__all__ = [
    "AbPoly",
    "CdPoly",
    "NotInSpanError",
    "ab_index",
    "cd_to_ab",
    "ab_to_cd",
    "omega",
    "prepend_a",
    "signed_sum",
    "has_odd_run",
    "cd_coefficient",
    "MacmahonCheck",
    "macmahon_multiplication_check",
]


class NotInSpanError(DescentLabError):
    """An ab-polynomial is not an integer combination of cd-words.

    ``residual`` holds the part that remained when the rewriting got stuck.
    """

    def __init__(self, message: str, residual: "AbPoly") -> None:
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class AbPoly:
    """Dense polynomial in noncommuting letters a and b."""

    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ContractViolationError(f"degree must be >= 0, got {self.degree}")
        if len(self.coeffs) != 1 << self.degree:
            raise ContractViolationError(
                f"degree {self.degree} needs {1 << self.degree} coefficients, "
                f"got {len(self.coeffs)}"
            )

    def word(self, mask: int) -> str:
        return "".join(
            "b" if mask >> i & 1 else "a" for i in range(self.degree)
        )


def _word_weight(word: str) -> int:
    return sum(1 if ch == "c" else 2 for ch in word)


@dataclass
class CdPoly:
    """Sparse polynomial in noncommuting letters c (weight 1) and d (weight 2)."""

    degree: int
    terms: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ContractViolationError(f"degree must be >= 0, got {self.degree}")
        for word, coeff in self.terms.items():
            if set(word) - {"c", "d"}:
                raise ContractViolationError(f"bad cd-word {word!r}")
            if _word_weight(word) != self.degree:
                raise ContractViolationError(
                    f"cd-word {word!r} has weight {_word_weight(word)}, "
                    f"expected {self.degree}"
                )
            if not isinstance(coeff, int):
                raise ContractViolationError(f"non-integer coefficient {coeff!r}")


def ab_index(table: DescentTable) -> AbPoly:
    """The ab-index of a descent table: sum of beta(S) times the S-pattern word."""
    return AbPoly(degree=table.universe, coeffs=table.values)


@lru_cache(maxsize=None)
def _expand_word(word: str) -> tuple[int, ...]:
    """Masks of the ab-expansion of a cd-word (every coefficient is 1)."""
    masks = [0]
    pos = 0
    for ch in word:
        if ch == "c":
            masks = masks + [m | 1 << pos for m in masks]
            pos += 1
        else:
            masks = [m | 1 << (pos + 1) for m in masks] + [m | 1 << pos for m in masks]
            pos += 2
    return tuple(masks)


def cd_to_ab(p: CdPoly) -> AbPoly:
    """Expand c -> a + b and d -> ab + ba."""
    coeffs = [0] * (1 << p.degree)
    for word, coeff in p.terms.items():
        for mask in _expand_word(word):
            coeffs[mask] += coeff
    return AbPoly(degree=p.degree, coeffs=tuple(coeffs))


def _cd_letters(mask: int, degree: int) -> tuple[str, bool]:
    """Leftmost scan of the ab-word of ``mask`` into c/d letters: ab is a d,
    any other letter a c.  Also says whether some letter starts with b."""
    letters = []
    b_start = False
    pos = 0
    while pos < degree:
        pair = mask >> pos & 3  # bit 0 this letter, bit 1 the next; b is set
        if pair == 0b10:
            letters.append("d")
            pos += 2
        else:
            b_start = b_start or bool(pair & 1)
            letters.append("c")
            pos += 1
    return "".join(letters), b_start


def ab_to_cd(p: AbPoly) -> CdPoly:
    """Rewrite an ab-polynomial in the letters c = a + b and d = ab + ba.

    Greedy: the word-order-minimal surviving ab-word forces its cd-parse
    (an a followed by b must open a d, a lone a must be a c, a leading b is
    impossible), and subtracting that cd-word's expansion strictly raises the
    minimal word, so the loop terminates.  Raises :class:`NotInSpanError`
    with the stuck remainder when the input is outside the cd-span.
    """
    residual = list(p.coeffs)
    # word order (a before b, leftmost letter first) = reversed-bit order
    order = sorted(range(1 << p.degree), key=lambda m: reverse_mask(m, p.degree))
    terms: dict[str, int] = {}
    while True:
        lead = next((m for m in order if residual[m]), None)
        if lead is None:
            break
        word, b_start = _cd_letters(lead, p.degree)
        if b_start:
            stuck = AbPoly(p.degree, tuple(residual))
            raise NotInSpanError(
                f"leading word {stuck.word(lead)!r} starts a letter with b",
                stuck,
            )
        coeff = residual[lead]
        for mask in _expand_word(word):
            residual[mask] -= coeff
        terms[word] = terms.get(word, 0) + coeff
    return CdPoly(degree=p.degree, terms={w: c for w, c in terms.items() if c})


def omega(p: AbPoly) -> CdPoly:
    """Replace each leftmost-scan occurrence of ab by 2d and the rest by c."""
    terms: dict[str, int] = defaultdict(int)
    for mask, coeff in enumerate(p.coeffs):
        if coeff:
            word, _ = _cd_letters(mask, p.degree)
            terms[word] += coeff * 2 ** word.count("d")
    return CdPoly(degree=p.degree, terms={w: c for w, c in terms.items() if c})


def prepend_a(p: AbPoly) -> AbPoly:
    """Multiply by the letter a on the left."""
    coeffs = [0] * (1 << (p.degree + 1))
    for mask, coeff in enumerate(p.coeffs):
        coeffs[mask << 1] = coeff
    return AbPoly(degree=p.degree + 1, coeffs=tuple(coeffs))


def signed_sum(p: AbPoly, T) -> int:
    """Sum of (-1)^|S intersect T| times the coefficient of the S-pattern."""
    t = as_mask(T, p.degree)
    total = 0
    for mask, coeff in enumerate(p.coeffs):
        if coeff:
            total += -coeff if (mask & t).bit_count() % 2 else coeff
    return total


def has_odd_run(T, universe: int | None = None) -> bool:
    """True when some maximal block of consecutive elements of T has odd size."""
    bits = as_mask(T, universe)
    while bits:
        low = bits & -bits
        run = 0
        probe = low
        while bits & probe:
            run += 1
            probe <<= 1
        bits &= ~(probe - 1)
        if run % 2:
            return True
    return False


def cd_coefficient(p: CdPoly, word: str) -> int:
    """Coefficient of a cd-word, validating the word against the degree."""
    if set(word) - {"c", "d"} or _word_weight(word) != p.degree:
        raise ContractViolationError(f"bad cd-word {word!r} for degree {p.degree}")
    return p.terms.get(word, 0)


@dataclass(frozen=True)
class MacmahonCheck:
    """Both readings of the descent product identity, with their values.

    ``lhs`` counts permutations of m + n whose descent set restricts to u on
    the first m positions and to the shift of v past them, position m free.
    The product reading multiplies the two small counts by binom(m+n, m);
    the misprinted reading adds instead of multiplying the second factor.
    ``u`` and ``v`` are subset masks.
    """

    m: int
    n: int
    u: int
    v: int
    lhs: int
    product_rhs: int
    printed_rhs: int

    @property
    def product_holds(self) -> bool:
        return self.lhs == self.product_rhs

    @property
    def printed_holds(self) -> bool:
        return self.lhs == self.printed_rhs


def macmahon_multiplication_check(m: int, n: int) -> list[MacmahonCheck]:
    """Evaluate both sides of the descent product identity for every u, v,
    u-major, from one build each of beta_{m+n}, beta_m and beta_n.

    u ranges over the subsets of {1, ..., m-1}, v over those of
    {1, ..., n-1}.  The left side sums beta_{m+n} over the two subsets
    agreeing with u and the shifted v, with position m optional.
    """
    if m < 1 or n < 1:
        raise ContractViolationError(f"need m, n >= 1, got {m}, {n}")
    big, left, right = (beta_table(k).values for k in (m + n, m, n))
    binomial = math.comb(m + n, m)
    free = 1 << (m - 1)
    return [
        MacmahonCheck(
            m=m,
            n=n,
            u=u,
            v=v,
            lhs=big[u | v << m] + big[u | v << m | free],
            product_rhs=binomial * bm * bn,
            printed_rhs=binomial * bm + bn,
        )
        for u, bm in enumerate(left)
        for v, bn in enumerate(right)
    ]
