"""Prime sieves: the sorted list of primes up to a limit.

The primes list feeds interval enumeration and the base primes of the
streamed totients.  A smallest-prime-factor (SPF) array up to
isqrt(limit) gives the base primes as its fixed points, and one
odd-only segmented Eratosthenes pass (Bays and Hudson, BIT 17, 1977)
over [2, limit] gives every prime, so memory stays at one segment of
flags, one per odd number, plus the list itself.  No query reads the
SPF array (factorization is trial division): it is stored only because
the traced benchmark reports its size, until the benchmark reads
counters the package reports itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError

HARD_LIMIT_CAP = 4 * 10**9
SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class SieveTables:
    """Immutable sieve data up to `limit`.

    `primes` holds every prime <= limit, from the odd-only segmented
    pass.  spf[n] is the smallest prime factor of n for
    2 <= n <= isqrt(limit) (spf[0] = spf[1] = 0); it is the base-prime
    table of that pass, nothing in the package reads it, and it stays
    only for the traced benchmark's byte count.
    """

    limit: int
    spf: np.ndarray = field(repr=False)
    primes: np.ndarray = field(repr=False)

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, from the stored list."""
        if hi > self.limit:
            raise BoundsError(
                f"range (..., {hi}] exceeds sieve limit {self.limit}"
            )
        i = np.searchsorted(self.primes, lo, side="right")
        j = np.searchsorted(self.primes, hi, side="right")
        return self.primes[i:j]


def _spf_array(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            spf[p] = p
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    return spf


def prime_count_bound(x: int) -> int:
    """An integer at least pi(x), the number of primes <= x, for x >= 2:
    Dusart's pi(x) <= x / ln x * (1 + 1.2762 / ln x), valid for x > 1."""
    log = math.log(x)
    return int(x / log * (1 + 1.2762 / log)) + 1


def _segmented_primes(hi: int, base: list[int]) -> np.ndarray:
    """Primes in [2, hi] from the odd primes up to sqrt(hi).  The list is
    allocated once from prime_count_bound, filled segment by segment and
    shrunk in place, so the peak is the list plus one segment's flags and
    indices."""
    primes = np.empty(prime_count_bound(hi), dtype=np.int64)
    primes[0] = 2
    count = 1
    n = (hi + 1) // 2  # the odd numbers 1, 3, ..., <= hi
    for s in range(0, n, SEGMENT_SIZE):
        count += _odd_segment(s, min(s + SEGMENT_SIZE, n), base, primes[count:])
    primes.resize(count, refcheck=False)
    return primes


def _odd_segment(s: int, e: int, base: list[int], out: np.ndarray) -> int:
    """Write the odd primes among flags s..e-1 to the front of `out` and
    return how many there are.  Flag i of the odd-only array stands for
    2i + 1, and the odd base primes strike their multiples from p^2 on."""
    is_prime = np.ones(e - s, dtype=bool)
    is_prime[0] = s > 0  # flag 0 of the first segment is 1
    for p in base:
        if p * p // 2 >= e:
            break
        first = max(p * p // 2, s + ((p - 1) // 2 - s) % p)
        is_prime[first - s :: p] = False
    idx = np.flatnonzero(is_prime)
    out = out[: idx.size]
    out[:] = idx
    out += s  # flag indices become odd primes in place, with no temporaries
    out *= 2
    out += 1
    return idx.size


def build_sieve(limit: int) -> SieveTables:
    """Build sieve tables covering 2..limit."""
    if limit < 2:
        raise BoundsError(f"sieve limit must be >= 2, got {limit}")
    if limit > HARD_LIMIT_CAP:
        raise BoundsError(f"sieve limit {limit} exceeds cap {HARD_LIMIT_CAP}")
    spf = _spf_array(math.isqrt(limit))
    base = np.nonzero(spf == np.arange(spf.size))[0][2:].tolist()  # drop 0 and 2
    return SieveTables(limit=limit, spf=spf, primes=_segmented_primes(limit, base))
