"""Reference routes the tests compare phimin against.

They are deliberately literal: a loop over every prime triple and a
numpy totient sieve, with no shared code path beyond the input checks.
"""

import numpy as np

from phimin.counting import indicator_1am
from phimin.errors import DomainError
from phimin.intervals import PrimeIntervalSet, require_disjoint, require_modulus

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


def count_solutions_enumerate(
    a: int,
    m: int,
    i1: PrimeIntervalSet,
    i2: PrimeIntervalSet,
    i3: PrimeIntervalSet,
) -> int:
    """Debug path: literal loop over all prime triples.

    Independent of the convolution route; refuses products above 10^6.
    Each p - 1 is reduced mod m as a Python int, so the products stay
    exact at any prime size.
    """
    require_modulus(m, i1, i2, i3)
    require_disjoint(i1, i2, i3)
    if i1.size * i2.size * i3.size > ENUMERATION_CAP:
        raise DomainError("triple enumeration capped at 10^6 combinations")
    delta = indicator_1am(a, m)
    r1, r2, r3 = ([(int(p) - 1) % m for p in iv.primes] for iv in (i1, i2, i3))
    total = 0
    for x1 in r1:
        for x2 in r2:
            for x3 in r3:
                if (1 + delta) * x1 * x2 * x3 % m == a % m:
                    total += 1
    return total
