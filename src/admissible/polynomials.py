"""Monic integer polynomials with a prescribed coefficient sum.

A monic degree-n polynomial x^n + a_{n-1}x^{n-1} + ... + a_0 is called
admissible when all of its coefficients, the leading 1 included, add up
to n!.  This module enumerates and counts the admissible polynomials
whose non-leading coefficients lie in [0, H], and audits the two
closed-form bounds claimed for that count instead of assuming them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .combinatorics import binomial, count_bounded_compositions
from .errors import FeasibilityError

# Most polynomials one enumeration may yield; the exact count is checked
# before the first one is built.
ENUM_LIMIT = 50_000_000

# Largest degree any census, audit or count accepts, checked before n! or
# p^n is computed.  math.factorial(10**5) takes 0.17 s and 10**6 takes 9 s
# on a 2 vCPU Intel Xeon with Python 3.11.
DEGREE_LIMIT = 10**5

# Most heights one bounds audit may report on.  Rows cost time and output
# linearly (40,000 heights of degree 9 take about 2 s and 13 MB); the limit
# still admits every full range [0, n!] up to degree 8 (40,321 heights).
AUDIT_HEIGHT_LIMIT = 100_000


def check_degree(degree: int) -> None:
    """Raise FeasibilityError ("degree too large") past DEGREE_LIMIT."""
    if degree > DEGREE_LIMIT:
        raise FeasibilityError(f"degree too large: {degree} exceeds limit {DEGREE_LIMIT}")


def poly_text(coeffs: Sequence[int]) -> str:
    """Render ascending coefficients as e.g. 'x^3 + 2x^2 + 2x + 1'.

    Zero terms are omitted, unit coefficients are dropped on powers >= 1,
    and negative coefficients render as subtractions.  The zero
    polynomial renders as '0'.
    """
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        terms.append(("-" if c < 0 else "+", body))
    if not terms:
        return "0"
    sign, body = terms[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out


@dataclass(slots=True, init=False)
class MonicIntPolynomial:
    """x^degree + coeffs[degree-1]*x^(degree-1) + ... + coeffs[0] over Z.

    `coeffs` lists (a_0, ..., a_{degree-1}); the leading coefficient is
    implicitly 1 and never stored.  `__init__` is written out so that it
    validates both fields in the same frame that sets them.
    """

    degree: int
    coeffs: tuple[int, ...]

    def __init__(self, degree: int, coeffs: tuple[int, ...]):
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        if len(coeffs) != degree:
            raise ValueError(f"expected {degree} coefficients, got {len(coeffs)}")
        self.degree = degree
        self.coeffs = coeffs

    def all_coefficients(self) -> tuple[int, ...]:
        """(a_0, ..., a_{degree-1}, 1), the full ascending coefficient vector."""
        return self.coeffs + (1,)

    def text(self) -> str:
        return poly_text(self.all_coefficients())


def is_admissible(coeffs_with_leading: Iterable[int]) -> bool:
    """True iff the coefficients sum to degree!, the leading one included.

    The last entry is the leading coefficient; degree = len - 1 >= 1.
    """
    seq = tuple(coeffs_with_leading)
    if len(seq) < 2:
        raise ValueError("degree zero: need at least two coefficients")
    check_degree(len(seq) - 1)
    return sum(seq) == math.factorial(len(seq) - 1)


def target_sum(degree: int) -> int:
    """degree! - 1, the required sum of the non-leading coefficients.

    Raises FeasibilityError ("degree too large") past DEGREE_LIMIT.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    check_degree(degree)
    return math.factorial(degree) - 1


def count_admissible_exact(degree: int, height: int) -> int:
    """Exact number of admissible monic polynomials with 0 <= a_i <= height."""
    target = target_sum(degree)
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    return count_bounded_compositions(degree, target, height)


def _bounded_vectors(parts: int, target: int, cap: int) -> Iterator[tuple[int, ...]]:
    # Ascending lexicographic enumeration of capped compositions.  Each
    # position ranges over exactly the values that leave the tail feasible,
    # so no candidate is ever generated and discarded.  The first parts - 2
    # positions are chosen recursively; each such prefix then yields its
    # last two positions as one list, which keeps the generator chain off
    # the per-vector path.
    if target > parts * cap:
        return iter(())
    if parts == 1:
        return iter([(target,)])

    def prefixes(prefix: tuple[int, ...], remaining: int) -> Iterator[list[tuple[int, ...]]]:
        slots = parts - len(prefix)
        if slots == 2:
            yield [prefix + (a, remaining - a)
                   for a in range(max(0, remaining - cap), min(cap, remaining) + 1)]
            return
        lo = max(0, remaining - (slots - 1) * cap)
        for a in range(lo, min(cap, remaining) + 1):
            yield from prefixes(prefix + (a,), remaining - a)

    return itertools.chain.from_iterable(prefixes((), target))


def enumerate_admissible(degree: int, height: int) -> Iterator[MonicIntPolynomial]:
    """Yield every admissible polynomial of the given degree and height.

    Coefficient vectors (a_0, ..., a_{degree-1}) come out in strictly
    ascending lexicographic order, each exactly once.  Raises
    FeasibilityError ("enumeration too large") when the exact count
    exceeds ENUM_LIMIT; the count is checked up front via the closed
    form, so the check costs nothing.
    """
    total = count_admissible_exact(degree, height)
    if total > ENUM_LIMIT:
        raise FeasibilityError(
            f"enumeration too large: {total} admissible polynomials exceed limit {ENUM_LIMIT}"
        )
    vectors = _bounded_vectors(degree, target_sum(degree), height)
    return map(MonicIntPolynomial, itertools.repeat(degree), vectors)


def claimed_lower_bound(degree: int, height: int) -> int:
    """C(H - 2, n - 1), the claimed floor for the admissible count.

    Zero whenever H < 2 + (n - 1); audited by `audit_bounds`, never assumed.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if height < 2:
        return 0
    return binomial(height - 2, degree - 1)


def claimed_upper_bound(degree: int, height: int) -> int:
    """C(H*n, n - 1), the claimed ceiling for the admissible count."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    return binomial(degree * height, degree - 1)


@dataclass(frozen=True)
class BoundsAuditReport:
    """Exact count vs. the claimed closed-form bounds at one height.

    `density_ratio` is exact_count / height^(degree-1) in exact rational
    arithmetic (None at height 0, where the ratio is undefined).  The
    violation flags record whether a claimed bound actually fails; the
    audit reports them as data rather than treating them as errors.
    """

    degree: int
    height: int
    exact_count: int
    claimed_lower: int
    claimed_upper: int
    density_ratio: Fraction | None
    lower_violated: bool
    upper_violated: bool


def bounds_report(degree: int, height: int) -> BoundsAuditReport:
    """The exact count and both claimed bounds at one height (any degree >= 1)."""
    exact = count_admissible_exact(degree, height)
    lower = claimed_lower_bound(degree, height)
    upper = claimed_upper_bound(degree, height)
    return BoundsAuditReport(
        degree=degree,
        height=height,
        exact_count=exact,
        claimed_lower=lower,
        claimed_upper=upper,
        density_ratio=Fraction(exact, height ** (degree - 1)) if height >= 1 else None,
        lower_violated=lower > exact,
        upper_violated=upper < exact,
    )


def audit_bounds(degree: int, height_range: tuple[int, int]) -> list[BoundsAuditReport]:
    """One BoundsAuditReport per height in the inclusive `height_range`.

    Requires degree >= 3 and the range to sit inside [0, degree!].
    Raises FeasibilityError ("audit too large") past AUDIT_HEIGHT_LIMIT
    heights.
    """
    if degree < 3:
        raise ValueError(f"bounds audit requires degree >= 3, got {degree}")
    check_degree(degree)
    lo, hi = height_range
    if not (0 <= lo <= hi <= math.factorial(degree)):
        raise ValueError(
            f"height range [{lo}, {hi}] must sit inside [0, {degree}!]"
        )
    if hi - lo + 1 > AUDIT_HEIGHT_LIMIT:
        raise FeasibilityError(
            f"audit too large: {hi - lo + 1} heights exceed limit {AUDIT_HEIGHT_LIMIT}"
        )
    return [bounds_report(degree, height) for height in range(lo, hi + 1)]
