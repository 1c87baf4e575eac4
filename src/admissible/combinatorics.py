"""Exact counting of capped integer compositions.

`count_bounded_compositions` counts ordered sums of nonnegative parts
with every part capped at H, the counting problem behind the
admissible-polynomial census.  `count_two_cap_compositions` caps some
parts one lower, which counts the integer lifts of a residue vector
mod p.  Both take the number of parts, the target and the cap as plain
ints, and every count is a plain Python int, so nothing here can
overflow or pass through floating point.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with C(n, k) = 0 when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial expects n >= 0, got {n}")
    return math.comb(n, k) if k >= 0 else 0


def count_bounded_compositions(parts: int, target: int, cap: int) -> int:
    """Exact number of tuples (a_1, ..., a_parts) with sum `target` and 0 <= a_i <= cap.

    The two-cap count with no short parts: inclusion-exclusion on the
    number of parts overflowing the cap,

        sum_j (-1)^j C(n, j) C(S - j(H+1) + n - 1, n - 1).
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    return count_two_cap_compositions(parts, target, cap, 0)


def count_two_cap_compositions(parts: int, target: int, cap: int, short: int) -> int:
    """Tuples of `parts` nonnegative parts with sum `target`, `short` of them
    at most cap - 1 and the other parts - short at most cap.

    Inclusion-exclusion on i short and j other parts overflowing:

        sum_{i,j} (-1)^(i+j) C(k, i) C(n-k, j) C(S - i*H - j(H+1) + n - 1, n - 1)

    Terms whose upper index goes negative vanish.  A target above
    parts * cap - short is answered 0 up front: the alternating sum would
    also reach 0, but only after many huge binomials.  With cap = 0 the
    short parts are capped at -1 and admit no value, so the count is 0
    unless short = 0.  A negative target also counts 0.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if not 0 <= short <= parts:
        raise ValueError(f"short must lie in [0, {parts}], got {short}")
    n, S, H, k = parts, target, cap, short
    if S < 0 or S > n * H - k or (k and H == 0):
        return 0
    total = 0
    for i in range(k + 1):
        for j in range(n - k + 1):
            rem = S - i * H - j * (H + 1)
            if rem < 0:
                break
            term = math.comb(k, i) * math.comb(n - k, j) * math.comb(rem + n - 1, n - 1)
            total += -term if (i + j) & 1 else term
    return total
