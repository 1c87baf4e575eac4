"""Oracles used only by the test suite.

Most of this file is deliberately primitive and self-contained: plain
tuple enumeration, Pascal's triangle, an odd-only prime sieve (behind
pi(z) and a scan of pi(z) * ln(z) / z at every integer), and an
unpruned factor-pair search with its own division routine (which also
yields the first divisor in the package's box order).  None of that
shares code with the package paths it checks.  The list arithmetic
over F_p that the package does not call lives here too: `_sub`, `_mul`,
`_divmod` (long division by any nonzero divisor), `_mod` (its remainder)
and `_powmod` (square and multiply over `_mul` and `_mod`).  Of the
package's arithmetic over F_p, the oracles share only `_gcd` and
`_trim`.  Six oracles do call package internals:

* `is_irreducible_trial_division`, `brute_divisor_degrees` and
  `is_squarefree_trial_division` divide with `_mod` from this file, so
  they share no division code with the package and are independent of
  the tables and the distinct-degree factorization (the last also
  squares with `_mul`);
* `is_irreducible_rabin` is Rabin's criterion, a second direct algorithm
  beside the package's distinct-degree factorization, built on `_powmod`
  and `_sub` from this file and the package's `_gcd`: it shares the
  gcd, not the factorization's products;
* `count_irreducibles_exhaustive` runs `is_irreducible_rabin` on every
  polynomial, so it checks the Gauss/Moebius count;
* `brute_sieve_counts` decides membership mod p with
  `is_irreducible_trial_division`, so it shares that oracle's `_mod`.

`divisor_degree_table_by_products` is the reference build of the mod-p
class tables: it multiplies out every product g*h one at a time, as
the package once did, where the package strikes out whole cofactor
classes by column passes.  Its sub-tables are its own.

`irr_count_report` is the rendering oracle of `irr-count`: it takes the
package's verdicts and polynomial texts but prints them with the
standard library's writers, `json.dumps` and `csv.writer`, over the
whole report held in memory.
"""

import csv
import functools
import io
import itertools
import json
import math

from admissible import __version__
from admissible.errors import FeasibilityError
from admissible.finite_field import _gcd, _trim, is_prime
from admissible.integer_irreducibility import admissible_witnesses
from admissible.polynomials import MonicIntPolynomial

DEFAULT_ORACLE_LIMIT = 10**8
DEFAULT_EXHAUSTIVE_LIMIT = 10**7


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    c = list(a) + [0] * (len(b) - len(a))
    for i, bi in enumerate(b):
        c[i] = (c[i] - bi) % p
    return _trim(c)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return _trim([x % p for x in c])


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("zero divisor")
    if len(a) < len(b):
        return [], list(a)
    inv = pow(b[-1], p - 2, p)
    q = [0] * (len(a) - len(b) + 1)
    r = list(a)
    for i in range(len(q) - 1, -1, -1):
        if len(r) >= i + len(b):
            q[i] = qi = (r[i + len(b) - 1] * inv) % p
            if qi:
                for j, bj in enumerate(b):
                    r[i + j] = (r[i + j] - qi * bj) % p
            _trim(r)
    return q, r


def _mod(a: list[int], b: list[int], p: int) -> list[int]:
    return _divmod(a, b, p)[1]


def _powmod(base: list[int], exp: int, modulus: list[int], p: int) -> list[int]:
    if exp < 0:
        raise ValueError("negative exponent")
    result = _mod([1], modulus, p)
    acc = _mod(base, modulus, p)
    while exp:
        if exp & 1:
            result = _mod(_mul(result, acc, p), modulus, p)
        exp >>= 1
        if exp:
            acc = _mod(_mul(acc, acc, p), modulus, p)
    return result


def brute_count_tuples(parts: int, target: int, cap: int) -> int:
    """Count capped tuples with the given sum by full enumeration."""
    return sum(
        1 for t in itertools.product(range(cap + 1), repeat=parts) if sum(t) == target
    )


def brute_count_capped_tuples(target: int, caps: list[int]) -> int:
    """Count tuples with 0 <= t_i <= caps[i] and the given sum, by full enumeration.

    A cap of -1 leaves its part no value, so the count is then 0.
    """
    return sum(
        1 for t in itertools.product(*(range(c + 1) for c in caps)) if sum(t) == target
    )


def brute_residue_lifts(residues: tuple[int, ...], modulus: int, target: int,
                        height: int) -> int:
    """Integer tuples a in [0, height]^n with a = residues (mod modulus) and sum `target`.

    Walks every a_i = r_i, r_i + modulus, ... up to height; no caps are
    derived, no composition is counted.
    """
    ranges = [range(r, height + 1, modulus) for r in residues]
    return sum(1 for a in itertools.product(*ranges) if sum(a) == target)


def brute_admissible_vectors(n: int, height: int) -> list[tuple[int, ...]]:
    """All (a_0..a_{n-1}) with sum n!-1 and entries <= height, in lex order."""
    target = math.factorial(n) - 1
    return [
        t
        for t in itertools.product(range(height + 1), repeat=n)
        if sum(t) == target
    ]


def pascal_binomial(n: int, k: int) -> int:
    """C(n, k) by iterating Pascal's rule row by row."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _divides(full: list[int], g: list[int]) -> bool:
    # Synthetic division of `full` by monic g over Z; True iff remainder 0.
    gl = len(g) - 1
    r = list(full)
    for i in range(len(full) - gl - 1, -1, -1):
        c = r[i + gl]
        if c:
            for j in range(gl):
                r[i + j] -= c * g[j]
    return not any(r[:gl])


def oracle_is_irreducible_over_z(full: list[int]) -> bool:
    """Unpruned factor-pair search over the full Mignotte box.

    `full` is the ascending coefficient vector of a monic polynomial
    (last entry 1).  Tries every monic candidate g of degree m <= n/2
    with |g_i| <= C(m-1, i)*||f||_2 + C(m-1, i-1); the cofactor comes out
    of the division, so a hit is exactly a factor pair.
    """
    n = len(full) - 1
    if n == 1:
        return True
    norm = _ceil_sqrt(sum(c * c for c in full))
    for m in range(1, n // 2 + 1):
        bounds = [
            math.comb(m - 1, i) * norm + (math.comb(m - 1, i - 1) if i >= 1 else 0)
            for i in range(m)
        ]
        for cand in itertools.product(*[range(-b, b + 1) for b in bounds]):
            if _divides(full, [*cand, 1]):
                return False
    return True


def brute_signed_divisors(a0: int, bound: int) -> list[int]:
    """Divisors d of a0 with |d| <= bound in the order -1, 1, -2, 2, ...

    Trial division by every 1 <= d <= min(|a0|, bound), one at a time.
    """
    return [s * d for d in range(1, min(abs(a0), bound) + 1) if a0 % d == 0 for s in (-1, 1)]


def first_box_divisor(full: list[int]) -> tuple[int, ...] | None:
    """First monic divisor of f in the unpruned Mignotte box order, or None.

    `full` is the ascending coefficient vector of a monic f with
    a_0 != 0.  Degrees m = 1, 2, ..., n/2 in turn; within a degree the
    constant term runs over the divisors d of a_0 with |d| <= B_0 in the
    order -1, 1, -2, 2, ..., then (g_1, ..., g_{m-1}) over the box
    lexicographically, each ascending.  Returns (g_0, ..., g_{m-1}).
    """
    n = len(full) - 1
    norm = _ceil_sqrt(sum(c * c for c in full))
    for m in range(1, n // 2 + 1):
        bounds = [
            math.comb(m - 1, i) * norm + (math.comb(m - 1, i - 1) if i >= 1 else 0)
            for i in range(m)
        ]
        constants = [s * d for d in range(1, bounds[0] + 1) if full[0] % d == 0 for s in (-1, 1)]
        for g0 in constants:
            for tail in itertools.product(*[range(-b, b + 1) for b in bounds[1:]]):
                if _divides(full, [g0, *tail, 1]):
                    return (g0, *tail)
    return None


def brute_force_compositions(parts: int, target: int, cap: int,
                             max_oracle: int = DEFAULT_ORACLE_LIMIT) -> int:
    """Independent oracle: walk every capped tuple and count the matches.

    Intentionally does no pruning, so it can disagree with
    `count_bounded_compositions` only if the closed form is wrong.
    Raises FeasibilityError ("oracle too large") when the tuple space
    (cap+1)^parts exceeds `max_oracle`.
    """
    space = (cap + 1) ** parts
    if space > max_oracle:
        raise FeasibilityError(
            f"oracle too large: ({cap}+1)^{parts} = {space} exceeds limit {max_oracle}"
        )
    return sum(1 for t in itertools.product(range(cap + 1), repeat=parts) if sum(t) == target)


def _odd_sieve(z: int) -> bytearray:
    # Index i stands for the odd number 2i+1, marked 1 iff it is prime (z >= 2).
    size = (z + 1) // 2
    odd = bytearray([1]) * size
    odd[0] = 0
    i = 1
    while (2 * i + 1) ** 2 <= z:
        if odd[i]:
            step = 2 * i + 1
            start = (step * step) // 2
            odd[start::step] = bytearray(len(odd[start::step]))
        i += 1
    return odd


def count_primes_crosscheck(z: int) -> int:
    """pi(z) again, via an odd-only sieve kept independent of primes_below."""
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if z < 2:
        return 0
    return 1 + sum(_odd_sieve(z))


def chebyshev_scan(z_max: int, start: int = 17) -> tuple[float | None, float | None]:
    """(min, max) of pi(z) * ln(z) / z over every integer z in [start, z_max].

    One z at a time over the odd-only sieve, with no use of where the
    extremes can sit; (None, None) when the range is empty.
    """
    odd = _odd_sieve(max(z_max, 2))
    low = high = None
    count = 0
    for z in range(2, z_max + 1):
        count += z == 2 or z & 1 and odd[z // 2]
        if z >= start:
            ratio = count * math.log(z) / z
            low = ratio if low is None else min(low, ratio)
            high = ratio if high is None else max(high, ratio)
    return low, high


def multiply_monic(g: MonicIntPolynomial, h: MonicIntPolynomial) -> MonicIntPolynomial:
    """Product of two monic integer polynomials."""
    a, b = g.all_coefficients(), h.all_coefficients()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] += ai * bj
    return MonicIntPolynomial(g.degree + h.degree, tuple(c[:-1]))


def is_irreducible_trial_division(coeffs: list[int], p: int) -> bool:
    """Second oracle: divide by every monic polynomial of degree <= n/2.

    `coeffs` is the full ascending list over F_p, leading entry included.
    """
    n = len(coeffs) - 1
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    for m in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=m):
            if not _mod(coeffs, list(tail) + [1], p):
                return False
    return True


def brute_divisor_degrees(coeffs: list[int], p: int) -> int:
    """Degrees of the monic divisors of f over F_p, as a bitmask.

    `coeffs` is the full ascending list over F_p, leading entry included.
    Divides by every monic polynomial of degree m <= n/2; a divisor of
    degree m sets bits m and n - m.  Bits 0 and n are always set.
    """
    n = len(coeffs) - 1
    degrees = 1 | 1 << n
    for m in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=m):
            if not _mod(coeffs, list(tail) + [1], p):
                degrees |= 1 << m | 1 << n - m
                break
    return degrees


def is_squarefree_trial_division(coeffs: list[int], p: int) -> bool:
    """Whether no g^2 with g monic of degree >= 1 divides f over F_p."""
    n = len(coeffs) - 1
    for m in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=m):
            g = list(tail) + [1]
            if not _mod(coeffs, _mul(g, g, p), p):
                return False
    return True


def _prime_divisors(n: int) -> list[int]:
    # The primes q | n, each tested by trial division over all of 2..q-1.
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def is_irreducible_rabin(fc: list[int], p: int) -> bool:
    """Rabin's irreducibility test for a monic f over F_p.

    `fc` is the full ascending list over F_p, leading entry included.
    """
    # Rabin's criterion: f of degree n is irreducible iff x^(p^n) == x
    # (mod f) and gcd(x^(p^(n/q)) - x, f) = 1 for every prime q | n.
    n = len(fc) - 1
    if n == 1:
        return True
    x = [0, 1]
    checkpoints = {n // q for q in _prime_divisors(n)}
    h = x
    for i in range(1, n + 1):
        h = _powmod(h, p, fc, p)
        if i in checkpoints and _gcd(_sub(h, x, p), fc, p) != [1]:
            return False
    return h == x


def brute_mobius(n: int) -> int:
    """mu(n) from its definition: 0 if some d^2 > 1 divides n, else (-1)^(prime divisors)."""
    if any(n % (d * d) == 0 for d in range(2, math.isqrt(n) + 1)):
        return 0
    return (-1) ** len(_prime_divisors(n))


def count_irreducibles_exhaustive(
    degree: int, p: int, max_oracle: int = DEFAULT_EXHAUSTIVE_LIMIT
) -> int:
    """Independent oracle: Rabin's test on all p^degree monic polynomials."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not is_prime(p):
        raise ValueError(f"not prime: {p}")
    space = p**degree
    if space > max_oracle:
        raise FeasibilityError(
            f"oracle too large: {p}^{degree} = {space} exceeds limit {max_oracle}"
        )
    count = 0
    for tail in itertools.product(range(p), repeat=degree):
        if is_irreducible_rabin(list(tail) + [1], p):
            count += 1
    return count


def brute_sieve_counts(
    n: int, height: int, z: int
) -> tuple[dict[int, int], dict[tuple[int, int], int], int]:
    """Sieve data by brute force: (member, pair, sifted) at level z.

    member[p] = |A_p|, pair[(p, q)] = |A_p ^ A_q| for primes p <= q below z
    (the diagonal included), and sifted counts the polynomials reducible
    mod every prime below z.  Polynomials come from
    `brute_admissible_vectors`, primes from trial division, membership
    from `is_irreducible_trial_division`: no table, no direct test.
    """
    primes = [p for p in range(2, z) if all(p % d for d in range(2, p))]
    member = {p: 0 for p in primes}
    pair = {(p, q): 0 for p in primes for q in primes if p <= q}
    sifted = 0
    for vec in brute_admissible_vectors(n, height):
        hits = [
            p for p in primes if is_irreducible_trial_division([c % p for c in (*vec, 1)], p)
        ]
        for p in hits:
            member[p] += 1
            for q in hits:
                if p <= q:
                    pair[(p, q)] += 1
        if not hits:
            sifted += 1
    return member, pair, sifted


def count_irreducibles_in_class(degree: int, p: int, c: int) -> int:
    """Monic irreducibles f of one degree over F_p with f(1) = c, in closed form.

    For c != 0 it is (1/n) sum_{d|n} mu(d) rho_d(c) (p^(n/d) - 1)/(p - 1),
    with rho_d(x) = #{a in F_p^* : a^d = x} counted by trying every a.
    For a root alpha of f, f(1) is the norm of 1 - alpha from F_(p^n) to
    F_p.  An element of the subfield F_(p^(n/d)) has norm N^d from
    F_(p^n), where N is its norm from F_(p^(n/d)), and N takes each value
    of F_p^* (p^(n/d) - 1)/(p - 1) times; Moebius inversion over the
    subfields keeps the elements of degree n, n of them per f (Lidl &
    Niederreiter, *Finite Fields*, section 2.3).  rho_d(c) equals
    rho_d((-1)^n c), the form read off the constant term f(1) of
    f(x + 1): the sign is 1 at even n, and every d | n is odd at odd n.
    For c = 0 only x - 1 has f(1) = 0, so the count is 1 at degree 1 and
    0 above.
    """
    if c % p == 0:
        return 1 if degree == 1 else 0
    total = 0
    for d in range(1, degree + 1):
        if degree % d == 0:
            rho = sum(1 for a in range(1, p) if pow(a, d, p) == c % p)
            total += brute_mobius(d) * rho * (p ** (degree // d) - 1) // (p - 1)
    return total // degree


def _class_members_by_products(p: int, degree: int, c: int):
    # (a_0, ..., a_{degree-1}) and divisor degrees of every monic polynomial
    # of the class f(1) = c mod p, in table index order.
    entries = divisor_degree_table_by_products(p, degree, c)
    for i, digits in enumerate(itertools.product(range(p), repeat=degree - 1)):
        rest = digits[::-1]  # a_1, ..., a_{degree-1}, a_1 varying fastest
        yield ((c - 1 - sum(rest)) % p, *rest), entries[i]


@functools.lru_cache(maxsize=None)
def divisor_degree_table_by_products(p: int, degree: int, c: int) -> tuple[int, ...]:
    """The class table of f(1) = c mod p, one product g*h at a time.

    The reference for `finite_field._divisor_degree_table`, with the same
    entries and index order: every g monic irreducible of degree
    m <= degree/2 times every h of class c / g(1) (x - 1 times every h
    when c = 0) is multiplied out as a list, its index summed from its
    coefficients mod p, and its entry set to S(h) | S(h) << m.  The
    sub-tables come from this function, never from the package.
    """
    irreducible = 1 | 1 << degree
    sets = [irreducible] * p ** (degree - 1)
    if degree == 1:
        return tuple(sets)
    if c == 0:
        strikes = [(1, [(p - 1,)], b) for b in range(p)]
    else:
        strikes = [(m, [g for g, s in _class_members_by_products(p, m, a) if s == 1 | 1 << m],
                    c * pow(a, -1, p) % p)
                   for m in range(1, degree // 2 + 1) for a in range(1, p)]
    weights = [0] + [p**k for k in range(degree - 1)]  # a_0 is fixed by the class
    for m, factors, b in strikes:
        cofactors = [(h, s | s << m) for h, s in _class_members_by_products(p, degree - m, b)]
        for g in factors:
            for h, product_set in cofactors:
                f = [0] * m + list(h)  # x^m * h below x^degree
                for i, gi in enumerate(g):
                    if gi:
                        for j, hj in enumerate(h, i):
                            f[j] += gi * hj
                        f[i + degree - m] += gi  # gi x^i times the leading x^(degree-m)
                sets[sum([fk % p * w for fk, w in zip(f, weights)])] = product_set
    return tuple(sets)


def irr_count_report(degree: int, height: int, fmt: str) -> str:
    """The `irr-count` report as json.dumps or csv.writer prints it, whole.

    JSON is the sorted, 2-space-indented envelope with one witness object
    per polynomial; CSV is a header and one row per polynomial, with the
    factor pair as "(g)(h)" and an empty cell when irreducible.
    """
    witnesses = [
        {"factors": [g.text() for g in w.factors] if w.factors else None,
         "polynomial": f.text(), "status": w.status}
        for f, w in admissible_witnesses(degree, height)
    ]
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["polynomial", "status", "factors"])
        for w in witnesses:
            factors = "".join(f"({t})" for t in w["factors"] or ())
            writer.writerow([w["polynomial"], w["status"], factors])
        return out.getvalue()
    results = {"ambient_count": len(witnesses),
               "irreducible_count": sum(w["factors"] is None for w in witnesses),
               "witnesses": witnesses}
    envelope = {"command": "irr-count", "exact": True,
                "parameters": {"degree": degree, "height": height},
                "results": results, "toolkit_version": __version__}
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"
