"""Reference routes the tests compare phimin against.

They are deliberately literal: loops over every prime triple, a numpy
totient sieve, interval sets built by their own Miller-Rabin primality
test, a dense character table from brute-force discrete logs and an
exact rational Euler product, with no shared code path beyond the input
checks.
"""

import csv
import io
import itertools
import math
from fractions import Fraction

import numpy as np

from phimin.counting import indicator_1am
from phimin.errors import DomainError
from phimin.intervals import IntervalTriple, PrimeIntervalSet

ENUMERATION_CAP = 10**6

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Primality by deterministic Miller-Rabin, the reference's own test:
    the package finds primes by sieving and trial division only."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
    """phi(n) from the trial_factorize pairs of n: prod p^(e-1) (p - 1)."""
    out = 1
    for p, e in f:
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


def full_least_witnesses(a_values, triple):
    """[(n, (p1, p2, p3)) of each unit's least solution, or None], by the
    grid route that reads all of I1: the least prime of every class of
    each set (without 2 when d = 1) over the grid of the two sets with
    the fewest occupied classes, which forces the class of the third,
    with the inverses from pow and exact products as Python ints."""
    m = triple.modulus
    ivs = list(triple)
    occupied = [np.flatnonzero(iv.count_vector).tolist() for iv in ivs]
    ax, ay, az = sorted(range(3), key=lambda j: len(occupied[j]))
    out = []
    for a in a_values:
        delta = indicator_1am(a, m)
        least = [
            least_prime_per_class(
                [p for p in iv.primes.tolist() if not (delta and p == 2)], m
            )
            for iv in ivs
        ]
        best = None
        for x in occupied[ax]:
            for y in occupied[ay]:
                z = a * pow((1 + delta) * x * y, -1, m) % m
                p = {ax: least[ax][x], ay: least[ay][y], az: least[az][z]}
                if 0 in p.values():
                    continue
                key = (4**delta * p[0] * p[1] * p[2], (p[0], p[1], p[2]))
                best = key if best is None else min(best, key)
        out.append(best)
    return out


def primes_upto(limit):
    """The primes <= limit, found by primality tests."""
    return [n for n in range(2, limit + 1) if is_prime(n)]


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
    return PrimeIntervalSet(lo, hi, m, primes, counts)


def least_prime_per_class(primes, m):
    """[min of the primes p with p - 1 = b (mod m), or 0 when there is
    none, for b in 0..m-1], each minimum taken with Python's min."""
    by_class = {}
    for p in primes:
        by_class.setdefault((p - 1) % m, []).append(p)
    return [min(by_class[b]) if b in by_class else 0 for b in range(m)]


def occupied_classes(primes, m):
    """(classes, counts, least primes) of the occupied classes of p - 1
    mod m over an ascending prime list: the classes ascending from a
    bincount, and each class's least prime the one at its first index."""
    classes = [(p - 1) % m for p in primes]
    counts = np.bincount(classes, minlength=m).astype(np.int64)
    occupied = np.flatnonzero(counts).tolist()
    least = [primes[classes.index(b)] for b in occupied]
    return occupied, counts[occupied].tolist(), least


def class_grid_axes(triple):
    """[(classes, counts, least primes, inverses by pow)] of I3 and I2,
    the two axes of the triple's class grid, by occupied_classes."""
    m = triple.modulus
    axes = []
    for iv in (triple.i3, triple.i2):
        classes, counts, least = occupied_classes(iv.primes.tolist(), m)
        axes.append((classes, counts, least, [pow(b, -1, m) for b in classes]))
    return axes


def prime_window(lo, width, m):
    """shifted_prime_interval over (lo, lo + width]."""
    return shifted_prime_interval(lo, lo + width, m)


def discrete_logs(ctx):
    """len(components) x m table: row j holds the discrete log of each unit
    x on component j, found by listing the powers of its generator with
    pow, and 0 where gcd(x, m) > 1."""
    m = ctx.modulus
    logs = np.zeros((len(ctx.components), m), dtype=np.int64)
    for j, c in enumerate(ctx.components):
        log = {pow(c.generator, k, c.prime_power): k for k in range(c.order)}
        for x in range(m):
            if math.gcd(x, m) == 1:
                logs[j, x] = log[x % c.prime_power]
    return logs


def dense_characters(ctx):
    """phi(m) x m table of chi_e(x), rows in itertools.product order of the
    exponent vectors e (the C order of the grid of shape ctx.orders).

    Only the component generators and orders are read from ctx, as they
    fix which character each row is.  The discrete logs l_j come from
    discrete_logs, and each value is
    exp(2 pi i sum_j ((e_j l_j) mod o_j) / o_j), zero where gcd(x, m) > 1.
    """
    m = ctx.modulus
    comps = ctx.components
    units = [x for x in range(m) if math.gcd(x, m) == 1]
    logs = discrete_logs(ctx)[:, units].T
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


def euler_product_exact(cutoff):
    """prod (1 + (p-2)^(-2)) over the odd primes p <= cutoff as an exact
    Fraction, the primes found by primality tests."""
    product = Fraction(1)
    for p in range(3, cutoff + 1, 2):
        if is_prime(p):
            product *= 1 + Fraction(1, (p - 2) ** 2)
    return product


SCAN_FIELDS = ("m", "a", "delta", "N", "N_exponent", "witness_n",
               "witness_exponent", "J_direct", "found")


def scan_csv(rows):
    """The scan CSV of `rows` by csv.writer: exponents to six decimals,
    None as an empty cell, found as true or false, and the keys outside
    SCAN_FIELDS (an error row's error) left out."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(SCAN_FIELDS)
    for r in rows:
        cells = dict(r, found=str(r["found"]).lower())
        for f in ("N_exponent", "witness_exponent"):
            if r[f] is not None:
                cells[f] = f"{r[f]:.6f}"
        writer.writerow([cells[f] for f in SCAN_FIELDS])
    return out.getvalue()
