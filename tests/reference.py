"""Reference routes the tests compare phimin against.

They are deliberately literal: loops over every prime triple, a numpy
totient sieve, interval sets built by primality tests and a dense
character table from brute-force discrete logs, with no shared code path
beyond the input checks.
"""

import itertools
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


def shifted_prime_interval(lo, hi, m):
    """Interval set over (lo, hi] by its definition: the primes p found by
    primality tests, so the set can sit far above any sieve limit, kept
    where np.gcd(p - 1, m) == 1."""
    primes = np.array(
        [p for p in range(math.floor(lo) + 1, math.floor(hi) + 1) if is_prime(p)],
        dtype=np.int64,
    )
    primes = primes[np.gcd(primes - 1, m) == 1]
    counts = np.bincount((primes - 1) % m, minlength=m).astype(np.int64)
    return PrimeIntervalSet(None, lo, hi, m, primes, counts)


def prime_window(lo, width, m):
    """shifted_prime_interval over (lo, lo + width]."""
    return shifted_prime_interval(lo, lo + width, m)


def dense_characters(ctx):
    """phi(m) x m table of chi_e(x), rows in itertools.product order of the
    exponent vectors e (the C order of the grid of shape ctx.orders).

    Only the component generators and orders are read from ctx, as they
    fix which character each row is.  The discrete log of x on each
    component is found by listing the powers of its generator with pow,
    and each value is exp(2 pi i sum_j ((e_j l_j) mod o_j) / o_j), zero
    where gcd(x, m) > 1.
    """
    m = ctx.modulus
    comps = ctx.components
    units = [x for x in range(m) if math.gcd(x, m) == 1]
    logs = np.zeros((len(units), len(comps)), dtype=np.int64)
    for j, c in enumerate(comps):
        log = {pow(c.generator, k, c.prime_power): k for k in range(c.order)}
        logs[:, j] = [log[x % c.prime_power] for x in units]
    exps = list(itertools.product(*(range(c.order) for c in comps)))
    exps = np.array(exps, dtype=np.int64).reshape(len(exps), len(comps))
    turns = np.zeros((len(exps), len(units)))
    for j, c in enumerate(comps):
        turns += np.multiply.outer(exps[:, j], logs[:, j]) % c.order / c.order
    table = np.zeros((len(exps), m), dtype=complex)
    table[:, units] = np.exp(2j * np.pi * turns)
    return table


def kernel_conductors(ctx, table):
    """Conductor of each row of table by its definition: the least d | m
    with chi(u) = 1 on every unit u = 1 (mod d)."""
    m = ctx.modulus
    cond = np.zeros(len(table), dtype=np.int64)
    for d in (d for d in range(1, m + 1) if m % d == 0):
        kernel = [u for u in range(1, m + 1, d) if math.gcd(u, m) == 1]
        trivial = np.all(np.abs(table[:, [u % m for u in kernel]] - 1) < 1e-9, axis=1)
        cond[(cond == 0) & trivial] = d
    return cond
