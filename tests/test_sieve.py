import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible import sieve
from admissible.errors import FeasibilityError
from admissible.integer_irreducibility import count_admissible_irreducible
from admissible.polynomials import MonicIntPolynomial, count_admissible_exact, enumerate_admissible
from admissible.sieve import (
    TuranInstance,
    audit_chebyshev,
    build_admissible_instance,
    exact_sifted_count,
    pipeline_lower_bound,
    primes_below,
    sieve_level,
    turan_upper_bound,
)

from oracles import brute_sieve_counts, count_primes_crosscheck


def test_primes_below_anchors():
    assert primes_below(10) == (2, 3, 5, 7)
    assert primes_below(2) == ()
    assert primes_below(1) == ()
    assert len(primes_below(100)) == 25


def test_prime_count_vs_crosscheck():
    for z in (0, 1, 2, 3, 10, 100, 541, 1000, 7919):
        assert len(primes_below(z + 1)) == count_primes_crosscheck(z), z


def test_turan_bound_hand_computed():
    # Single prime, density 1/2, |A| = 10, |A_p| = 5:
    # 10/(1/2) + (2/(1/2))*0 + (1/(1/4))*|5 - 10/4| = 20 + 0 + 10.
    inst = TuranInstance(
        ambient_size=10,
        z=3,
        primes=(2,),
        densities={2: Fraction(1, 2)},
        member_counts={2: 5},
        pair_counts={(2, 2): 5},
    )
    assert turan_upper_bound(inst) == 30


def test_turan_bound_single_prime_exact_density():
    # With one prime and the exact density d = |A_p|/|A| the linear
    # remainder vanishes and the bound collapses to
    # |A|/d + (1/d^2) * d(1-d)|A| = |A| (2 - d) / d.
    for size, member in [(12, 3), (10, 5), (21, 7), (100, 1)]:
        d = Fraction(member, size)
        inst = TuranInstance(
            ambient_size=size,
            z=3,
            primes=(2,),
            densities={2: d},
            member_counts={2: member},
            pair_counts={(2, 2): member},
        )
        assert turan_upper_bound(inst) == size * (2 - d) / d


def test_turan_bound_invariant_under_prime_reordering():
    kwargs = dict(
        ambient_size=21,
        z=6,
        densities={2: Fraction(1, 3), 3: Fraction(1, 3), 5: Fraction(1, 3)},
        member_counts={2: 0, 3: 0, 5: 7},
        pair_counts={(2, 2): 0, (3, 3): 0, (5, 5): 7, (2, 3): 0, (2, 5): 0, (3, 5): 0},
    )
    a = TuranInstance(primes=(2, 3, 5), **kwargs)
    b = TuranInstance(primes=(5, 3, 2), **kwargs)
    assert turan_upper_bound(a) == turan_upper_bound(b)


def test_turan_empty_sieve():
    inst = TuranInstance(
        ambient_size=5, z=2, primes=(), densities={}, member_counts={}, pair_counts={}
    )
    with pytest.raises(ValueError, match="empty sieve"):
        turan_upper_bound(inst)


def test_instance_validation():
    with pytest.raises(ValueError):
        TuranInstance(
            ambient_size=5,
            z=3,
            primes=(2,),
            densities={2: Fraction(1, 1)},  # density must be < 1
            member_counts={2: 1},
            pair_counts={(2, 2): 1},
        )
    with pytest.raises(ValueError):
        TuranInstance(
            ambient_size=5,
            z=3,
            primes=(2,),
            densities={2: Fraction(1, 2)},
            member_counts={2: 9},  # exceeds ambient
            pair_counts={(2, 2): 9},
        )
    with pytest.raises(ValueError):
        TuranInstance(
            ambient_size=5,
            z=4,
            primes=(2, 3),
            densities={2: Fraction(1, 2), 3: Fraction(1, 2)},
            member_counts={2: 2, 3: 2},
            pair_counts={(2, 2): 2, (3, 3): 2},  # missing (2, 3)
        )


def test_build_instance_anchors():
    inst = build_admissible_instance(3, 6, 4)
    assert inst.ambient_size == 21
    assert inst.primes == (2, 3)
    assert inst.densities[2] == Fraction(1, 3)
    # Every admissible cubic has 1 as a root mod 2 and mod 3 (the full
    # coefficient sum is 3! = 6), so no reduction is irreducible there.
    assert inst.member_counts == {2: 0, 3: 0}
    assert turan_upper_bound(inst) == Fraction(189, 2)

    assert build_admissible_instance(3, 1, 4).ambient_size == 0
    assert build_admissible_instance(4, 6, 4).ambient_size == 4


def test_build_instance_member_counts_at_larger_level():
    inst = build_admissible_instance(3, 6, 8)
    assert inst.primes == (2, 3, 5, 7)
    assert inst.member_counts[5] == 7
    assert inst.member_counts[7] == 7
    assert inst.intersection_count(5, 7) == 4


def test_exact_sifted_count_anchors():
    assert exact_sifted_count(enumerate_admissible(3, 6), 2) == 21
    assert exact_sifted_count(enumerate_admissible(3, 6), 3) == 21
    assert exact_sifted_count(enumerate_admissible(3, 6), 6) == 14
    assert exact_sifted_count(enumerate_admissible(3, 6), 10) == 11
    assert exact_sifted_count(iter(()), 7) == 0


def test_exact_sifted_count_stops_at_the_first_irreducible_reduction(monkeypatch):
    calls = 0
    tester = sieve.irreducibility_tester

    def counted_tester(p, degree):
        test = tester(p, degree)

        def counted(coeffs):
            nonlocal calls
            calls += 1
            return test(coeffs)

        return counted

    monkeypatch.setattr(sieve, "irreducibility_tester", counted_tester)
    n, h, z = 4, 12, 14  # primes 2, ..., 13; A_2 and A_3 are empty for quartics
    sifted = exact_sifted_count(enumerate_admissible(n, h), z)
    assert sifted == brute_sieve_counts(n, h, z)[2]
    assert calls < count_admissible_exact(n, h) * len(primes_below(z))


def test_sifted_count_nonincreasing_in_z():
    prev = None
    for z in range(2, 12):
        cur = exact_sifted_count(enumerate_admissible(3, 6), z)
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_sieve_level_anchors():
    assert sieve_level(6) == 2
    assert sieve_level(2) == 1
    assert sieve_level(120) == 8
    with pytest.raises(ValueError):
        sieve_level(1)


def test_pipeline_smallest_nontrivial():
    report = pipeline_lower_bound(3, 6)
    assert report.z == 2
    assert report.ambient_count == 21
    assert report.sifted_exact == 21  # no primes below 2
    assert report.turan_bound is None
    assert report.irreducible_count == 10
    assert report.chain_inequality_holds
    assert report.main_term_reference == pytest.approx(36 / 2)


def test_pipeline_with_override():
    report = pipeline_lower_bound(3, 6, z_override=4)
    assert report.z == 4 and report.z_overridden
    assert report.turan_bound == Fraction(189, 2)
    assert report.turan_inequality_holds
    assert report.chain_inequality_holds
    assert [d.p for d in report.per_prime] == [2, 3]
    assert report.per_prime[0].remainder == Fraction(-7)


def test_pipeline_degenerate():
    report = pipeline_lower_bound(3, 1)
    assert report.ambient_count == 0
    assert report.sifted_exact == 0
    assert report.irreducible_count == 0
    assert report.turan_bound is None
    assert report.error_term_reference == 0.0


def test_pipeline_preconditions():
    with pytest.raises(ValueError):
        pipeline_lower_bound(2, 6)
    with pytest.raises(ValueError):
        pipeline_lower_bound(3, -1)


def test_chebyshev_audit():
    audit = audit_chebyshev(2000)
    by_z = {s.z: s for s in audit.samples}
    assert by_z[100].prime_count == 25
    assert by_z[1000].prime_count == 168
    assert by_z[100].ratio == pytest.approx(25 * 4.605170185988092 / 100)
    assert audit.within_band
    assert audit.band == sieve.CHEBYSHEV_BAND == (0.9, 1.3)
    assert 0.9 <= audit.ratio_min <= audit.ratio_max <= 1.3
    with pytest.raises(ValueError):
        audit_chebyshev(2)


def test_chebyshev_band_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(sieve, "CHEBYSHEV_BAND", (1.2, 1.3))
    audit = audit_chebyshev(2000)
    assert audit.band == (1.2, 1.3)
    assert audit.ratio_min < 1.2 and not audit.within_band


def test_degree_limit_is_checked_before_any_prime_power():
    # Without the check, p^degree for the 25 primes below 100 runs for minutes.
    start = time.perf_counter()
    for call in (
        lambda: build_admissible_instance(10**7, 5, 100),
        lambda: pipeline_lower_bound(10**7, 5, 100),
    ):
        with pytest.raises(FeasibilityError, match="degree too large: 10000000 exceeds limit"):
            call()
    assert time.perf_counter() - start < 1


def test_sieve_limit_bounds_the_largest_integer_sieved(monkeypatch):
    monkeypatch.setattr(sieve, "SIEVE_LIMIT", 100)
    assert primes_below(101)[-1] == 97  # sieves 0..100
    assert audit_chebyshev(100).samples[-1].prime_count == 25  # sieves 0..100
    with pytest.raises(FeasibilityError, match="sieve too large"):
        primes_below(102)
    with pytest.raises(FeasibilityError, match="sieve too large"):
        audit_chebyshev(101)


def test_mixed_degrees_are_rejected_in_either_order():
    a = MonicIntPolynomial(4, (1, 0, 0, 0))  # x^4 + 1
    b = MonicIntPolynomial(5, (3, 0, 0, 0, 0))  # x^5 + 3
    for ambient in ([a, b], [b, a]):
        with pytest.raises(ValueError, match="mixed degrees"):
            exact_sifted_count(ambient, 8)
    assert exact_sifted_count([a, a], 8) == 2  # x^4 + 1 is reducible mod every prime


def _assert_sieve_data_matches_brute_force(n, h, z):
    member, pair, sifted = brute_sieve_counts(n, h, z)
    inst = build_admissible_instance(n, h, z)
    assert inst.member_counts == member, (n, h, z)
    assert inst.pair_counts == pair, (n, h, z)
    assert exact_sifted_count(enumerate_admissible(n, h), z) == sifted, (n, h, z)
    assert pipeline_lower_bound(n, h, z_override=z).sifted_exact == sifted, (n, h, z)


def test_sieve_data_matches_brute_force_on_a_grid():
    # Each z stands for its prime set: (), (2), (2, 3), (2, 3, 5), ... (2, ..., 11).
    for n in (3, 4):
        for h in range(9):
            for z in (1, 2, 3, 4, 6, 8, 12):
                _assert_sieve_data_matches_brute_force(n, h, z)


@given(n=st.sampled_from([3, 4]), h=st.integers(0, 8), z=st.integers(1, 12))
@settings(max_examples=30, deadline=None)
def test_sieve_data_matches_brute_force_property(n, h, z):
    _assert_sieve_data_matches_brute_force(n, h, z)


def test_pipeline_enumerates_the_ambient_set_once_for_the_sieve(monkeypatch):
    calls = []
    irreducible_calls = []

    def counted_enumerate(*args, **kwargs):
        calls.append(args)
        return enumerate_admissible(*args, **kwargs)

    def counted_irreducible(*args, **kwargs):
        irreducible_calls.append(args)
        return count_admissible_irreducible(*args, **kwargs)

    monkeypatch.setattr(sieve, "enumerate_admissible", counted_enumerate)
    monkeypatch.setattr(sieve, "count_admissible_irreducible", counted_irreducible)
    report = pipeline_lower_bound(3, 6, z_override=8)
    assert len(calls) == 1  # the membership pass; A(H) enumerates on its own route
    assert len(irreducible_calls) == 1
    assert report.irreducible_count == count_admissible_irreducible(3, 6)


def test_pipeline_compares_closed_form_and_enumerated_ambient_counts(monkeypatch):
    def off_by_one(degree, height):
        return count_admissible_exact(degree, height) + 1

    monkeypatch.setattr(sieve, "count_admissible_exact", off_by_one)
    with pytest.raises(RuntimeError, match="N\\(H\\) differ; this is a bug"):
        pipeline_lower_bound(3, 6, z_override=4)


def test_instance_prime_limit_is_checked_before_any_membership_test(monkeypatch):
    def no_tester(p, degree):
        raise AssertionError("a tester was built past the prime limit")

    monkeypatch.setattr(sieve, "irreducibility_tester", no_tester)
    start = time.monotonic()
    with pytest.raises(FeasibilityError, match="sieve level too large"):
        build_admissible_instance(3, 6, 100_000)
    with pytest.raises(FeasibilityError, match="sieve level too large"):
        pipeline_lower_bound(3, 10**12)  # level 30,232: 3,269 primes
    assert time.monotonic() - start < 1


def test_instance_prime_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(sieve, "INSTANCE_PRIME_LIMIT", 4)
    assert build_admissible_instance(3, 6, 8).primes == (2, 3, 5, 7)
    with pytest.raises(FeasibilityError, match="5 primes below 12 exceed limit 4"):
        build_admissible_instance(3, 6, 12)
    # The sifted count alone is linear in the primes and has no limit.
    assert exact_sifted_count(enumerate_admissible(3, 6), 12) == brute_sieve_counts(3, 6, 12)[2]


def test_direct_test_limit_is_checked_before_any_membership_test(monkeypatch):
    def no_tester(p, degree):
        raise AssertionError("a tester was built past the direct test limit")

    monkeypatch.setattr(sieve, "irreducibility_tester", no_tester)
    start = time.monotonic()
    # 2,600 quartics times the 494 primes from 17 to 3,571, whose quartics get no table.
    message = "sieve work too large: 1284400 direct tests"
    with pytest.raises(FeasibilityError, match=message):
        build_admissible_instance(4, 24, 3572)
    with pytest.raises(FeasibilityError, match=message):
        pipeline_lower_bound(4, 24, z_override=3572)
    assert time.monotonic() - start < 1


def test_direct_test_limit_is_inclusive(monkeypatch):
    # Four quartics of height 6; 17 is the first prime whose quartics get no table.
    monkeypatch.setattr(sieve, "DIRECT_TEST_LIMIT", 4)
    _assert_sieve_data_matches_brute_force(4, 6, 18)
    with pytest.raises(FeasibilityError, match="8 direct tests .* exceed limit 4"):
        build_admissible_instance(4, 6, 20)
