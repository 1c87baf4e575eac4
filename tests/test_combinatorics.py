import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible.combinatorics import (
    CompositionQuery,
    binomial,
    count_bounded_compositions,
)
from admissible.errors import FeasibilityError

from oracles import brute_count_tuples, brute_force_compositions, pascal_binomial


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
    assert count_bounded_compositions(CompositionQuery(3, 2, 2)) == 6
    assert count_bounded_compositions(CompositionQuery(1, 7, 7)) == 1
    assert count_bounded_compositions(CompositionQuery(3, 5, 9)) == 21


def test_nonneg_composition_matches_enumeration():
    for parts in range(1, 4):
        for target in range(0, 9):
            expected = brute_count_tuples(parts, target, target)
            assert count_bounded_compositions(CompositionQuery(parts, target, target)) == expected


def test_bounded_composition_anchors():
    assert count_bounded_compositions(CompositionQuery(3, 5, 2)) == 3
    assert count_bounded_compositions(CompositionQuery(3, 5, 5)) == 21
    assert count_bounded_compositions(CompositionQuery(1, 7, 5)) == 0
    # inclusion-exclusion: C(26,3) - 4 C(15,3) + 6 C(4,3)
    assert count_bounded_compositions(CompositionQuery(4, 23, 10)) == 804
    assert brute_count_tuples(4, 23, 10) == 804


def test_brute_force_anchors():
    assert brute_force_compositions(CompositionQuery(3, 5, 2)) == 3
    assert brute_force_compositions(CompositionQuery(2, 0, 0)) == 1
    assert brute_force_compositions(CompositionQuery(3, 10, 2)) == 0


def test_brute_force_respects_oracle_limit():
    with pytest.raises(FeasibilityError, match="oracle too large"):
        brute_force_compositions(CompositionQuery(10, 5, 9), max_oracle=10**6)


@given(
    parts=st.integers(1, 5),
    target=st.integers(0, 25),
    cap=st.integers(0, 10),
)
@settings(max_examples=120, deadline=None)
def test_bounded_equals_brute_force(parts, target, cap):
    q = CompositionQuery(parts, target, cap)
    assert count_bounded_compositions(q) == brute_force_compositions(q)


@given(parts=st.integers(1, 6), target=st.integers(0, 40), cap=st.integers(0, 40))
@settings(max_examples=150)
def test_cap_beyond_target_is_unbounded(parts, target, cap):
    if cap < target:
        cap += target  # force cap >= target
    bounded = count_bounded_compositions(CompositionQuery(parts, target, cap))
    assert bounded == math.comb(target + parts - 1, parts - 1)


@given(parts=st.integers(1, 6), s=st.integers(0, 60), cap=st.integers(0, 10))
@settings(max_examples=150)
def test_complement_symmetry(parts, s, cap):
    s = min(s, parts * cap)  # keep 0 <= s <= parts*cap
    left = count_bounded_compositions(CompositionQuery(parts, s, cap))
    right = count_bounded_compositions(CompositionQuery(parts, parts * cap - s, cap))
    assert left == right


@pytest.mark.parametrize(
    "parts,target,cap",
    [(0, 1, 1), (1, -1, 1), (1, 1, -1)],
)
def test_query_validation(parts, target, cap):
    with pytest.raises(ValueError):
        CompositionQuery(parts, target, cap)


def test_query_cap_message():
    with pytest.raises(ValueError, match=r"^cap must be >= 0, got -1$"):
        CompositionQuery(3, 5, -1)


def test_query_cap_is_required():
    with pytest.raises(TypeError):
        CompositionQuery(4, 9)
