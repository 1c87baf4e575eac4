import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admissible.integer_irreducibility import (
    PROBE_PRIMES,
    FactorizationWitness,
    count_admissible_irreducible,
    is_irreducible_over_z,
)
from admissible.polynomials import MonicIntPolynomial, count_admissible_exact

from oracles import (
    is_irreducible_trial_division,
    multiply_monic,
    oracle_is_irreducible_over_z,
)


def test_witness_anchors():
    w = is_irreducible_over_z(MonicIntPolynomial(3, (1, 2, 2)))
    assert w.status == "reducible"
    g, h = w.factors
    assert g.text() == "x + 1"
    assert h.text() == "x^2 + x + 1"

    assert is_irreducible_over_z(MonicIntPolynomial(3, (1, 3, 1))).irreducible
    assert is_irreducible_over_z(MonicIntPolynomial(2, (1, 0))).irreducible  # x^2+1

    w = is_irreducible_over_z(MonicIntPolynomial(4, (0, 0, 0, 0)))
    assert w.status == "reducible"
    assert w.factors[0].text() == "x"
    assert w.factors[1].text() == "x^3"


def test_degree_one_always_irreducible():
    for a0 in range(-5, 6):
        assert is_irreducible_over_z(MonicIntPolynomial(1, (a0,))).irreducible


def test_witnesses_multiply_back():
    # Every reducible verdict must reproduce f exactly.
    for h in range(0, 9):
        for f in _admissible_polys(4, h):
            w = is_irreducible_over_z(f)
            if w.status == "reducible":
                g, cof = w.factors
                assert multiply_monic(g, cof).coeffs == f.coeffs
                assert g.degree + cof.degree == f.degree


def _admissible_polys(n, h):
    from admissible.polynomials import enumerate_admissible

    return enumerate_admissible(n, h)


def test_exhaustive_agreement_with_factor_pair_oracle_cubic():
    for coeffs in itertools.product(range(0, 7), repeat=3):
        f = MonicIntPolynomial(3, coeffs)
        got = is_irreducible_over_z(f).irreducible
        want = oracle_is_irreducible_over_z(list(f.all_coefficients()))
        assert got == want, coeffs


@given(coeffs=st.tuples(*[st.integers(0, 10)] * 4))
@settings(max_examples=120, deadline=None)
def test_quartic_agreement_with_factor_pair_oracle(coeffs):
    f = MonicIntPolynomial(4, coeffs)
    assert is_irreducible_over_z(f).irreducible == oracle_is_irreducible_over_z(
        list(f.all_coefficients())
    )


@given(
    coeffs=st.lists(st.integers(-8, 8), min_size=2, max_size=5),
    p=st.sampled_from(PROBE_PRIMES),
)
@settings(max_examples=150, deadline=None)
def test_never_contradicts_mod_p_irreducibility(coeffs, p):
    f = MonicIntPolynomial(len(coeffs), tuple(coeffs))
    if is_irreducible_trial_division([c % p for c in f.all_coefficients()], p):
        assert is_irreducible_over_z(f).irreducible


def test_count_admissible_irreducible_anchors():
    # Golden values confirmed by the unpruned factor-pair oracle.
    assert count_admissible_irreducible(3, 1) == 0
    assert count_admissible_irreducible(3, 2) == 0
    assert count_admissible_irreducible(3, 6) == 10


def test_count_bounded_by_census():
    for h in range(0, 7):
        assert count_admissible_irreducible(3, h) <= count_admissible_exact(3, h)


def test_witness_type_validation():
    with pytest.raises(ValueError):
        FactorizationWitness("maybe")
    with pytest.raises(ValueError):
        FactorizationWitness("reducible")  # missing factors
    with pytest.raises(ValueError):
        FactorizationWitness(
            "irreducible",
            (MonicIntPolynomial(1, (0,)), MonicIntPolynomial(1, (1,))),
        )
    with pytest.raises(ValueError):
        FactorizationWitness(
            "reducible",
            (MonicIntPolynomial(2, (1, 1)), MonicIntPolynomial(1, (1,))),  # deg g > deg h
        )
