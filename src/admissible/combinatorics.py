"""Exact counting of capped integer compositions.

`count_bounded_compositions` counts ordered sums of nonnegative parts
with every part capped at H, the counting problem behind the
admissible-polynomial census.  Every count is a plain Python int, so
nothing here can overflow or pass through floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CompositionQuery:
    """An ordered-sum counting problem: `parts` parts adding up to `target`.

    `cap` restricts every part to [0, cap].
    """

    parts: int
    target: int
    cap: int

    def __post_init__(self):
        if self.parts < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")
        if self.target < 0:
            raise ValueError(f"target must be >= 0, got {self.target}")
        if self.cap < 0:
            # "or None" is stale, but the `count --height -1` golden pins this text.
            raise ValueError(f"cap must be >= 0 or None, got {self.cap}")


def _choose(n: int, k: int) -> int:
    # Binomial with the "zero outside the triangle" convention; negative n
    # (possible in inclusion-exclusion terms) also yields 0.
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with C(n, k) = 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial expects n >= 0, got {n}")
    return _choose(n, k)


def count_bounded_compositions(q: CompositionQuery) -> int:
    """Exact number of tuples (a_1, ..., a_parts) with sum `target` and 0 <= a_i <= cap.

    Inclusion-exclusion on the number of parts overflowing the cap:

        sum_j (-1)^j C(n, j) C(S - j(H+1) + n - 1, n - 1)

    Terms whose upper index goes negative vanish.  With cap >= target the
    j >= 1 terms are all zero and this reduces to C(S + n - 1, n - 1).
    A target above parts * cap is answered 0 up front: the alternating sum
    would also reach 0, but only after n + 1 huge binomials.
    """
    n, S, H = q.parts, q.target, q.cap
    if S > n * H:
        return 0
    total = 0
    for j in range(n + 1):
        rem = S - j * (H + 1)
        if rem < 0:
            break
        term = _choose(n, j) * _choose(rem + n - 1, n - 1)
        total += -term if j & 1 else term
    return total
