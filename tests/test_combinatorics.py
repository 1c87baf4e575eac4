import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible.combinatorics import (
    binomial,
    count_bounded_compositions,
    count_two_cap_compositions,
)
from admissible.errors import FeasibilityError

from oracles import (
    brute_count_capped_tuples,
    brute_count_tuples,
    brute_force_compositions,
    brute_residue_lifts,
    pascal_binomial,
)


def test_binomial_anchors():
    assert binomial(5, 2) == 10
    assert binomial(4, 1) == 4
    assert binomial(3, 5) == 0
    assert binomial(7, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_large_against_pascal_recurrence():
    assert binomial(724, 5) == pascal_binomial(724, 5)


def test_binomial_rejects_negative_n():
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_pascal_rule_full_grid():
    # C(n,k) = C(n-1,k-1) + C(n-1,k), arbitrary precision, no overflow.
    for n in range(1, 201):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_nonneg_composition_anchors():
    # A cap at or above the target caps nothing: C(target + parts - 1, parts - 1).
    assert count_bounded_compositions(3, 2, 2) == 6
    assert count_bounded_compositions(1, 7, 7) == 1
    assert count_bounded_compositions(3, 5, 9) == 21


def test_nonneg_composition_matches_enumeration():
    for parts in range(1, 4):
        for target in range(0, 9):
            expected = brute_count_tuples(parts, target, target)
            assert count_bounded_compositions(parts, target, target) == expected


def test_bounded_composition_anchors():
    assert count_bounded_compositions(3, 5, 2) == 3
    assert count_bounded_compositions(3, 5, 5) == 21
    assert count_bounded_compositions(1, 7, 5) == 0
    # inclusion-exclusion: C(26,3) - 4 C(15,3) + 6 C(4,3)
    assert count_bounded_compositions(4, 23, 10) == 804
    assert brute_count_tuples(4, 23, 10) == 804


def test_brute_force_anchors():
    assert brute_force_compositions(3, 5, 2) == 3
    assert brute_force_compositions(2, 0, 0) == 1
    assert brute_force_compositions(3, 10, 2) == 0


def test_brute_force_respects_oracle_limit():
    with pytest.raises(FeasibilityError, match="oracle too large"):
        brute_force_compositions(10, 5, 9, max_oracle=10**6)


@given(
    parts=st.integers(1, 5),
    target=st.integers(0, 25),
    cap=st.integers(0, 10),
)
@settings(max_examples=120, deadline=None)
def test_bounded_equals_brute_force(parts, target, cap):
    assert count_bounded_compositions(parts, target, cap) == brute_force_compositions(
        parts, target, cap)


@given(parts=st.integers(1, 6), target=st.integers(0, 40), cap=st.integers(0, 40))
@settings(max_examples=150)
def test_cap_beyond_target_is_unbounded(parts, target, cap):
    if cap < target:
        cap += target  # force cap >= target
    bounded = count_bounded_compositions(parts, target, cap)
    assert bounded == math.comb(target + parts - 1, parts - 1)


@given(parts=st.integers(1, 6), s=st.integers(0, 60), cap=st.integers(0, 10))
@settings(max_examples=150)
def test_complement_symmetry(parts, s, cap):
    s = min(s, parts * cap)  # keep 0 <= s <= parts*cap
    left = count_bounded_compositions(parts, s, cap)
    right = count_bounded_compositions(parts, parts * cap - s, cap)
    assert left == right


@pytest.mark.parametrize(
    "parts,target,cap",
    [(0, 1, 1), (1, -1, 1), (1, 1, -1)],
)
def test_query_validation(parts, target, cap):
    with pytest.raises(ValueError):
        count_bounded_compositions(parts, target, cap)


def test_query_cap_message():
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        count_bounded_compositions(3, 5, -1)


def test_query_messages_follow_argument_order():
    with pytest.raises(ValueError, match=r"^parts must be >= 1, got 0$"):
        count_bounded_compositions(0, -1, -1)
    with pytest.raises(ValueError, match=r"^target must be >= 0, got -1$"):
        count_bounded_compositions(1, -1, -1)


def test_query_cap_is_required():
    with pytest.raises(TypeError):
        count_bounded_compositions(4, 9)


def test_two_cap_count_matches_per_part_caps():
    # Short parts capped at cap - 1, the others at cap: cap 0 makes the
    # short cap -1 (no value), and short runs over 0..parts.
    for parts in range(1, 5):
        for cap in range(4):
            for short in range(parts + 1):
                caps = [cap - 1] * short + [cap] * (parts - short)
                for target in range(-1, parts * cap + 2):
                    want = brute_count_capped_tuples(target, caps)
                    got = count_two_cap_compositions(parts, target, cap, short)
                    assert got == want, (parts, target, cap, short)


def test_two_cap_count_counts_residue_lifts():
    # The lifts a = r + m*q in [0, H] with sum T: q_i <= H // m, less one
    # where r_i > H % m, and sum(q) = (T - sum(r)) / m.  Vectors whose sum
    # is not T mod m (a target that is not divisible) have no lift.
    for n, m, height, total in [(3, 2, 5, 5), (3, 3, 7, 5), (4, 3, 5, 11), (3, 5, 12, 23),
                                (3, 4, 2, 5), (2, 3, 0, 1)]:
        cap, rest = divmod(height, m)
        for r in itertools.product(range(m), repeat=n):
            excess, stray = divmod(total - sum(r), m)
            short = sum(c > rest for c in r)
            want = 0 if stray else count_two_cap_compositions(n, excess, cap, short)
            assert brute_residue_lifts(r, m, total, height) == want, (n, m, height, r)


def test_two_cap_count_validation():
    for args in [(0, 3, 2, 0), (3, 3, -1, 0), (3, 3, 2, 4), (3, 3, 2, -1)]:
        with pytest.raises(ValueError):
            count_two_cap_compositions(*args)
