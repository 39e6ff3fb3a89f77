"""Independent references for checking phimin's outputs.

Nothing here imports phimin.  The totient table comes from this file's own
sieve, least preimages from a first-hit pass over that table, and solution
counts from a residue convolution over this file's own prime lists, with
interval bounds compared in exact integer arithmetic.  `self_check` tests
every reference against brute force on small cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def prime_mask(limit: int) -> np.ndarray:
    """is_prime[n] for 0 <= n <= limit (plain Eratosthenes)."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def totient_table(limit: int) -> np.ndarray:
    """phi[n] for 0 <= n <= limit, by phi(n) = n * prod_{p | n} (1 - 1/p)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in np.nonzero(prime_mask(limit))[0].tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def least_preimages(phi: np.ndarray, m: int, targets) -> dict[int, int]:
    """Least n >= 1 with phi(n) = a (mod m) for each target a, taken as the
    first hit of each residue over the whole table."""
    residues, first = np.unique(phi[1:] % m, return_index=True)
    hit = dict(zip(residues.tolist(), (first + 1).tolist()))
    missing = [a for a in targets if a % m not in hit]
    if missing:
        raise RuntimeError(
            f"totient table up to {phi.size - 1} misses classes {missing[:5]} mod {m}"
        )
    return {a: hit[a % m] for a in targets}


def units(m: int) -> list[int]:
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def delta_of(a: int, m: int) -> int:
    """1 when 3 | m and a = 2 (mod 3): the class needs n = 4 p1 p2 p3."""
    return 1 if m % 3 == 0 and a % 3 == 2 else 0


# -- intervals with exact bounds (k = 2) --------------------------------------
#
# I1 = (m^1.5 / 2, m^1.5], I2 = (m / 2, m], I3 = (m^0.5 / 2, m^0.5], each
# restricted to primes p with gcd(p - 1, m) = 1.  p lies in (f / 2, f] for
# f = m^(e/2) exactly when 4 p^2 > m^e >= p^2.


def in_interval(j: int, m: int, p: int) -> bool:
    e = (3, 2, 1)[j - 1]
    return 4 * p * p > m**e >= p * p


def interval_primes(j: int, m: int, is_prime: np.ndarray) -> np.ndarray:
    e = (3, 2, 1)[j - 1]
    hi = math.isqrt(m**e)
    lo = math.isqrt(m**e // 4)  # 4 p^2 > m^e  <=>  p > isqrt(m^e // 4)
    if hi >= is_prime.size:
        raise RuntimeError(f"prime table up to {is_prime.size - 1} below {hi}")
    ps = np.nonzero(is_prime[lo + 1 : hi + 1])[0].astype(np.int64) + lo + 1
    return ps[np.gcd(ps - 1, m) == 1]


@dataclass(frozen=True)
class TripleCounter:
    """Counts triples (p1, p2, p3) in I1 x I2 x I3 with
    (1 + delta) (p1 - 1)(p2 - 1)(p3 - 1) = a (mod m), for any unit a."""

    m: int
    sizes: tuple[int, int, int]
    c1: np.ndarray
    pair_counts: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_primes(cls, m: int, p1, p2, p3) -> "TripleCounter":
        c1 = np.bincount((np.asarray(p1) - 1) % m, minlength=m)
        r2 = np.asarray(p2, dtype=np.int64) - 1
        r3 = np.asarray(p3, dtype=np.int64) - 1
        # distribution of (p2 - 1)(p3 - 1) mod m over all pairs
        pair = (r2[:, None] % m) * (r3[None, :] % m) % m
        pair_counts = np.bincount(pair.ravel(), minlength=m)
        inverse = np.zeros(m, dtype=np.int64)
        for r in units(m):
            inverse[r] = pow(r, -1, m)
        return cls(m, (len(p1), len(p2), len(p3)), c1, pair_counts, inverse)

    @classmethod
    def canonical(cls, m: int, is_prime: np.ndarray) -> "TripleCounter":
        return cls.from_primes(m, *(interval_primes(j, m, is_prime) for j in (1, 2, 3)))

    def count(self, a: int) -> int:
        m = self.m
        t = a * pow(1 + delta_of(a, m), -1, m) % m
        r = np.nonzero(self.pair_counts)[0]
        r = r[np.gcd(r, m) == 1]
        need = t * self.inverse[r] % m
        return int(np.dot(self.pair_counts[r], self.c1[need]))


def witness_error(
    m: int, a: int, delta: int, p: tuple[int, int, int], is_prime: np.ndarray
) -> str | None:
    """Why n = 4^delta p1 p2 p3 is not a solution in I1 x I2 x I3, or None."""
    if delta != delta_of(a, m):
        return f"delta {delta} for a={a}"
    for j, pj in enumerate(p, start=1):
        if not (0 <= pj < is_prime.size and is_prime[pj]):
            return f"p{j}={pj} is not a prime"
        if not in_interval(j, m, pj):
            return f"p{j}={pj} outside I{j}"
    if len(set(p)) < 3:
        return f"repeated prime in {p}"
    # the p_j are distinct odd primes, so phi(n) = phi(4^delta) * prod (p_j - 1)
    phi_n = (2 if delta else 1) * (p[0] - 1) * (p[1] - 1) * (p[2] - 1)
    if phi_n % m != a % m:
        return f"phi(n) = {phi_n % m} != {a} (mod {m})"
    return None


def factor_witness(n: int, delta: int) -> tuple[int, int, int] | None:
    """(p1, p2, p3) with n = 4^delta p1 p2 p3 and p3 <= p2 <= p1 the prime
    factors of n / 4^delta in increasing order, when it has three."""
    if n % 4**delta:
        return None
    rest = n // 4**delta
    p3 = _least_factor(rest)
    p2 = _least_factor(rest // p3)
    p1 = rest // p3 // p2
    return (p1, p2, p3) if p1 > 1 else None


def _least_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


# -- brute force ----------------------------------------------------------


def _naive_phi(n: int) -> int:
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def self_check() -> None:
    """Compare every reference with brute force on small cases; raise on
    the first disagreement."""
    phi = totient_table(600)
    naive = [0] + [_naive_phi(n) for n in range(1, 601)]
    if phi.tolist() != naive:
        raise AssertionError("totient table differs from the gcd count")
    got = least_preimages(phi, 3, [2])[2], least_preimages(phi, 5, [3])[3]
    if got != (3, 15):
        raise AssertionError(f"N(2, 3), N(3, 5) = {got}, want (3, 15)")
    for m in (7, 9, 15, 21, 25, 27, 33, 35):
        want = {}
        for n in range(1, 601):
            want.setdefault(naive[n] % m, n)
        if least_preimages(phi, m, units(m)) != {a: want[a] for a in units(m)}:
            raise AssertionError(f"least preimages mod {m} differ from brute force")

    is_prime = prime_mask(10_000)
    naive_primes = [n for n in range(10_001) if n > 1 and _least_factor(n) == n]
    if np.nonzero(is_prime)[0].tolist() != naive_primes:
        raise AssertionError("prime sieve differs from trial division")
    for m in (9, 15, 21, 25, 35, 45, 51, 77):
        ivs = [
            [p for p in naive_primes if lo < p <= hi and math.gcd(p - 1, m) == 1]
            for lo, hi in ((300, 500), (60, 100), (5, 30))
        ]
        counter = TripleCounter.from_primes(m, *ivs)
        products = [(x - 1) * (y - 1) * (z - 1) for x in ivs[0] for y in ivs[1] for z in ivs[2]]
        for a in units(m):
            d = delta_of(a, m)
            want = sum(1 for v in products if (1 + d) * v % m == a)
            if counter.count(a) != want:
                raise AssertionError(f"triple count ({a}, {m}) differs from brute force")
    for m in (51, 101, 301):
        for j in (1, 2, 3):
            e = (3, 2, 1)[j - 1]
            want = [p for p in naive_primes if (m**e) / 4 < p * p <= m**e and math.gcd(p - 1, m) == 1]
            if interval_primes(j, m, is_prime).tolist() != want:
                raise AssertionError(f"I{j} mod {m} differs from brute force")
