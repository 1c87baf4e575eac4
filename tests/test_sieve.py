import itertools
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
    # x + 1 is irreducible mod 2 although 2 | f(1): degree 1 tests every prime.
    assert exact_sifted_count([MonicIntPolynomial(1, (1,))], 3) == 0


def test_exact_sifted_count_stops_at_the_first_irreducible_reduction(monkeypatch):
    calls = 0
    at_root_one = []  # (p, coeffs) tested with p | f(1), where x - 1 divides f mod p
    lookup = sieve.factor_degree_sets

    def counted_lookup(p, degree):
        degrees = lookup(p, degree)

        def counted(coeffs):
            nonlocal calls
            calls += 1
            if (sum(coeffs) + 1) % p == 0:
                at_root_one.append((p, coeffs))
            return degrees(coeffs)

        return counted

    monkeypatch.setattr(sieve, "factor_degree_sets", counted_lookup)
    n, h, z = 4, 12, 14  # primes 2, ..., 13; A_2 and A_3 are empty for quartics
    sifted = exact_sifted_count(enumerate_admissible(n, h), z)
    assert sifted == brute_sieve_counts(n, h, z)[2]
    assert calls < count_admissible_exact(n, h) * len(primes_below(z))
    assert at_root_one == []


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


def test_pipeline_references_past_float_range_are_none():
    # 7^400 overflows a float power.
    report = pipeline_lower_bound(800, 1, z_override=8)
    assert [d.remainder_reference for d in report.per_prime] == [2.0, 3.0, 5.0, None]
    assert report.main_term_reference == 0.0 and report.error_term_reference == 0.0
    # 2^1098.67 overflows the error term's power.
    report = pipeline_lower_bound(1100, 2, z_override=3)
    assert report.error_term_reference is None
    assert report.per_prime[0].remainder_reference is None
    # H^2 / 2! with H = 10^200 overflows an int / int division.
    report = pipeline_lower_bound(3, 10**200, z_override=8)
    assert report.main_term_reference is None and report.error_term_reference is None
    assert [d.remainder_reference for d in report.per_prime] == [None] * 4
    assert report.ambient_count == 21 and report.chain_inequality_holds
    # H^(5/3) = 4.6e306 is finite, but times (ln H)^(2/3) it rounds to inf.
    assert pipeline_lower_bound(3, 10**184, z_override=8).error_term_reference is None


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
    # (4, 24, z=6): 2^3 + 3^3 + 5^3 = 160 residue vectors against 2,600 * 3
    # tests, so the sieve counts by residue class and only A(H) enumerates.
    # (4, 24, z=8): 2,600 * 4 = 10,400 tests against 2^3 + 3^3 + 35^3 =
    # 42,910 vectors, so the sieve enumerates too.
    calls = []

    def counted_enumerate(*args):
        calls.append(args)
        return enumerate_admissible(*args)

    monkeypatch.setattr(sieve, "enumerate_admissible", counted_enumerate)
    assert sieve._admissible_histogram(4, 24, primes_below(6)) == {0: 1900, 0b100: 700}
    assert calls == []
    irreducible = count_admissible_irreducible(4, 24)
    for z, enumerations in ((6, 1), (8, 2)):
        calls.clear()
        report = pipeline_lower_bound(4, 24, z_override=z)
        assert calls == [(4, 24)] * enumerations, z
        inst = build_admissible_instance(4, 24, z)
        assert {d.p: d.member_count for d in report.per_prime} == inst.member_counts
        assert report.turan_bound == turan_upper_bound(inst)
        assert report.sifted_exact == exact_sifted_count(enumerate_admissible(4, 24), z)
        assert report.irreducible_count == irreducible


def test_pipeline_compares_closed_form_and_enumerated_ambient_counts(monkeypatch):
    def off_by_one(degree, height):
        return count_admissible_exact(degree, height) + 1

    monkeypatch.setattr(sieve, "count_admissible_exact", off_by_one)
    with pytest.raises(RuntimeError, match="N\\(H\\) differ; this is a bug"):
        pipeline_lower_bound(3, 6, z_override=4)


def test_pipeline_compares_closed_form_n_h_with_the_a_h_enumeration(monkeypatch):
    # On the residue route the instance's ambient size is a sum of
    # composition counts, so N(H) is checked against the A(H) pass: here
    # it misses one polynomial.
    def one_short(degree, height):
        return itertools.islice(enumerate_admissible(degree, height), 1, None)

    monkeypatch.setattr(sieve, "enumerate_admissible", one_short)
    with pytest.raises(RuntimeError, match="closed-form and enumerated N\\(H\\) differ"):
        pipeline_lower_bound(4, 24, z_override=6)


def test_instance_prime_limit_is_checked_before_any_membership_test(monkeypatch):
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past the prime limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
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
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past the direct test limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
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


def test_residue_route_matches_enumeration_on_grids():
    # z = 8 and 11 give the pass mod 35 at degrees 3 and 4 (A_5, A_7 both
    # non-empty); at degree 5 only A_7 is non-empty below 11.
    grids = [
        (3, range(9), (1, 2, 3, 4, 6, 8, 11)),
        (4, (5, 6, 7, 9, 10), (2, 4, 6, 8, 11)),
        (5, (24, 25, 27), (6, 8, 11)),
    ]
    for n, heights, levels in grids:
        for h in heights:
            for z in levels:
                primes = primes_below(z)
                by_residue = sieve._residue_histogram(n, h, primes)
                by_test = sieve._membership_histogram(enumerate_admissible(n, h), primes)
                assert by_residue == by_test, (n, h, z)


def test_residue_route_product_pass_at_the_smoke_instance():
    # (4, 10, 8): A_5 and A_7 are both non-empty, so the masks come from
    # the 35^3 residue vectors mod 35; bits 2 and 3 stand for 5 and 7.
    histogram = {0: 419, 0b0100: 157, 0b1000: 158, 0b1100: 70}
    assert sieve._residue_histogram(4, 10, primes_below(8)) == histogram


def test_residue_route_walks_each_prime_up_to_the_degree_and_one_product(monkeypatch):
    # Mod 2 and 3 the passes only check that A_2 and A_3 are empty; the
    # masks of 5 and 7 all come from the one pass mod 35.
    moduli = []
    real = sieve._slice_histogram

    def counted_slice(degree, height, modulus, lookups):
        moduli.append(modulus)
        return real(degree, height, modulus, lookups)

    monkeypatch.setattr(sieve, "_slice_histogram", counted_slice)
    primes = (2, 3, 5, 7)
    histogram = sieve._residue_histogram(4, 10, primes)
    assert moduli == [2, 3, 35]
    assert histogram == sieve._membership_histogram(enumerate_admissible(4, 10), primes)


def test_an_instance_with_no_primes_below_z_is_counted_not_enumerated(monkeypatch):
    # With no prime below z the histogram is {0: N(H)}: the residue route
    # reads it off its one vector mod 1, where enumerating would walk
    # 9,078,630 quintics or stop at ENUM_LIMIT for the sextics.
    def no_enumeration(*args):
        raise AssertionError("the ambient set was enumerated")

    monkeypatch.setattr(sieve, "enumerate_admissible", no_enumeration)
    start = time.process_time()
    inst = build_admissible_instance(6, 719, 2)
    assert inst.ambient_size == 1_634_935_320_144
    assert inst.primes == ()
    assert build_admissible_instance(5, 119, 2).ambient_size == 9_078_630
    assert time.process_time() - start < 1


def test_residue_route_at_degree_6():
    # 16,807 distinct-degree factorizations mod 7.  Enumeration, with 42,504
    # of them (past DIRECT_TEST_LIMIT, and seconds more), gives the same 8,495.
    inst = build_admissible_instance(6, 123, 8)
    assert inst.ambient_size == 42_504
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 8495}


def test_residue_route_flags_a_non_empty_a_p_below_the_degree(monkeypatch):
    # f(1) = n! makes x - 1 a factor mod every p <= n; a lookup that says
    # otherwise can only be a bug.
    monkeypatch.setattr(sieve, "factor_degree_sets",
                        lambda p, degree: lambda coeffs: 1 | 1 << degree)
    with pytest.raises(RuntimeError, match="A_2 is not empty at degree 4; this is a bug"):
        sieve._residue_histogram(4, 10, (2,))


def test_cost_model_picks_the_cheaper_route(monkeypatch):
    routes = []
    real = enumerate_admissible

    def counted_enumerate(*args):
        routes.append(args)
        return real(*args)

    monkeypatch.setattr(sieve, "enumerate_admissible", counted_enumerate)
    # (5, 36, 8): 2^4 + 3^4 + 5^4 + 7^4 = 3,123 residue vectors against
    # 574,665 * 4 tests, and A_7 alone is non-empty.
    inst = build_admissible_instance(5, 36, 8)
    assert routes == []
    assert inst.ambient_size == 574_665
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 130_179}
    assert inst.pair_counts[(7, 7)] == 130_179
    assert all(c == 0 for key, c in inst.pair_counts.items() if key != (7, 7))
    assert turan_upper_bound(inst) == Fraction(37_194_885, 16)
    # (4, 10, 8): 804 * 4 tests against 8 + 27 + 35^3 vectors.
    inst = build_admissible_instance(4, 10, 8)
    assert routes == [(4, 10)]
    assert inst.pair_counts[(5, 7)] == 70
    assert turan_upper_bound(inst) == 2711


def test_residue_route_answers_6_130_9(monkeypatch):
    # Enumeration would take 8,936,928 direct tests at p = 7; the residue
    # route takes 7^5 = 16,807, within DIRECT_TEST_LIMIT.
    monkeypatch.setattr(sieve, "DIRECT_TEST_LIMIT", 16_806)
    with pytest.raises(FeasibilityError, match="16807 direct tests .* exceed limit 16806"):
        build_admissible_instance(6, 130, 9)
    monkeypatch.undo()
    assert sieve.DIRECT_TEST_LIMIT >= 16_807
    inst = build_admissible_instance(6, 130, 9)
    assert inst.ambient_size == count_admissible_exact(6, 130) == 8_936_928
    assert inst.member_counts == {2: 0, 3: 0, 5: 0, 7: 1_754_907}


def test_pipeline_limits_are_checked_before_any_membership_test(monkeypatch):
    def no_lookup(p, degree):
        raise AssertionError("a lookup was built past a limit")

    monkeypatch.setattr(sieve, "factor_degree_sets", no_lookup)
    # 142,506 sextics tested at p = 7 and 11, against 77^5 vectors mod 77.
    with pytest.raises(FeasibilityError, match="sieve work too large: 285012 direct tests"):
        pipeline_lower_bound(6, 124, z_override=12)
    with pytest.raises(FeasibilityError, match="enumeration too large: 131035104180 "):
        pipeline_lower_bound(6, 200, z_override=4)
    # ENUM_LIMIT is checked first, so it names an input past both limits.
    with pytest.raises(FeasibilityError, match="enumeration too large: 131035104180 "):
        pipeline_lower_bound(6, 200, z_override=12)


def test_route_costs_build_no_huge_prime_powers():
    # 3571^100000 has 355,000 digits; building it for each of the 500
    # primes took over 20 s just to compare with TABLE_LIMIT.
    start = time.process_time()
    inst = build_admissible_instance(100_000, 1, 3572)
    assert inst.ambient_size == 0 and len(inst.primes) == 500
    assert time.process_time() - start < 5
