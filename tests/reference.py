"""Reference routes the tests compare phimin against.

They are deliberately literal: loops over every prime triple, a numpy
totient sieve and interval sets built by primality tests, with no shared
code path beyond the input checks.
"""

import math

import numpy as np

from phimin.arith import is_prime
from phimin.counting import indicator_1am
from phimin.errors import DomainError
from phimin.intervals import IntervalTriple, PrimeIntervalSet

ENUMERATION_CAP = 10**6


def phi_table(limit):
    """phi(n) for 0 <= n < limit (phi(0) = 0), by the Euler-product sieve:
    an entry still equal to its index when reached is a prime p, and each
    multiple of p loses its share 1/p."""
    phi = np.arange(limit, dtype=np.int64)
    for p in range(2, limit):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return phi


def euler_phi(f):
    """phi(n) from the Factorization of n: prod p^(e-1) (p - 1)."""
    out = 1
    for p, e in f.factors:
        out *= p ** (e - 1) * (p - 1)
    return out


def count_solutions_enumerate(a: int, triple: IntervalTriple) -> int:
    """Debug path: literal loop over all prime triples.

    Independent of the convolution route; refuses products above 10^6.
    Each p - 1 is reduced mod m as a Python int, so the products stay
    exact at any prime size.
    """
    if triple.product > ENUMERATION_CAP:
        raise DomainError("triple enumeration capped at 10^6 combinations")
    m = triple.modulus
    delta = indicator_1am(a, m)
    r1, r2, r3 = ([(int(p) - 1) % m for p in iv.primes] for iv in triple)
    total = 0
    for x1 in r1:
        for x2 in r2:
            for x3 in r3:
                if (1 + delta) * x1 * x2 * x3 % m == a % m:
                    total += 1
    return total


def least_witness(a: int, triple: IntervalTriple):
    """(n, (p1, p2, p3)) of the least solution n = 4^d p1 p2 p3 over all
    prime triples, on Python ints, or None.  With d = 1 no p_j may be 2,
    which would share the factor 2 with 4."""
    m = triple.modulus
    delta = indicator_1am(a, m)
    best = None
    for p1 in triple.i1.primes.tolist():
        for p2 in triple.i2.primes.tolist():
            for p3 in triple.i3.primes.tolist():
                if delta and 2 in (p1, p2, p3):
                    continue
                if (1 + delta) * (p1 - 1) * (p2 - 1) * (p3 - 1) % m != a % m:
                    continue
                key = (4**delta * p1 * p2 * p3, (p1, p2, p3))
                best = key if best is None else min(best, key)
    return best


def prime_window(lo, width, m):
    """Interval set over (lo, lo + width] built by primality tests instead
    of a sieve, so that it can sit far above any sieve limit."""
    primes = np.array(
        [p for p in range(lo + 1, lo + width + 1) if is_prime(p) and math.gcd(p - 1, m) == 1],
        dtype=np.int64,
    )
    counts = np.bincount((primes - 1) % m, minlength=m).astype(np.int64)
    return PrimeIntervalSet(None, lo, lo + width, m, primes, counts)
