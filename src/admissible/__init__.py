"""Exact census, irreducibility and sieve audits for admissible polynomials.

An admissible polynomial of degree n is monic over Z with all
coefficients (leading 1 included) summing to n!.  The toolkit counts and
enumerates them exactly, decides irreducibility over Z and over F_p with
verifiable witnesses, and evaluates the Turan sieve bound on the sifted
count in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .combinatorics import binomial, count_bounded_compositions
from .errors import FeasibilityError
from .finite_field import audit_irreducible_counts, count_irreducibles_exact
from .integer_irreducibility import (
    FactorizationWitness,
    count_admissible_irreducible,
    is_irreducible_over_z,
)
from .polynomials import (
    BoundsAuditReport,
    MonicIntPolynomial,
    audit_bounds,
    claimed_lower_bound,
    claimed_upper_bound,
    count_admissible_exact,
    enumerate_admissible,
    is_admissible,
    target_sum,
)
from .sieve import (
    TuranInstance,
    audit_chebyshev,
    build_admissible_instance,
    exact_sifted_count,
    pipeline_lower_bound,
    primes_below,
    sieve_level,
    turan_upper_bound,
)

__all__ = [
    "__version__",
    "BoundsAuditReport",
    "FactorizationWitness",
    "FeasibilityError",
    "MonicIntPolynomial",
    "TuranInstance",
    "audit_bounds",
    "audit_chebyshev",
    "audit_irreducible_counts",
    "binomial",
    "build_admissible_instance",
    "claimed_lower_bound",
    "claimed_upper_bound",
    "count_admissible_exact",
    "count_admissible_irreducible",
    "count_bounded_compositions",
    "count_irreducibles_exact",
    "enumerate_admissible",
    "exact_sifted_count",
    "is_admissible",
    "is_irreducible_over_z",
    "pipeline_lower_bound",
    "primes_below",
    "sieve_level",
    "target_sum",
    "turan_upper_bound",
]
