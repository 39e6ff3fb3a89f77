"""Prime sieves: the sorted list of primes up to a limit.

The primes list feeds interval enumeration and the base primes of the
streamed totients.  A smallest-prime-factor (SPF) array up to
isqrt(limit) gives the base primes as its fixed points, and one
segmented Eratosthenes pass (Bays and Hudson, BIT 17, 1977) over
[2, limit] gives every prime, so memory stays at one segment plus the
list itself.  No query reads the SPF array (factorization is trial
division): it is stored only because the traced benchmark reports its
size, until the benchmark reads counters the package reports itself.
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

    `primes` holds every prime <= limit.  spf[n] is the smallest prime
    factor of n for 2 <= n <= isqrt(limit) (spf[0] = spf[1] = 0); it is
    the base-prime table of the segmented pass, nothing in the package
    reads it, and it stays only for the traced benchmark's byte count.
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


def _segmented_primes(hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [2, hi] using base primes covering sqrt(hi)."""
    chunks = []
    start = 2
    while start <= hi:
        stop = min(start + SEGMENT_SIZE - 1, hi)
        is_prime = np.ones(stop - start + 1, dtype=bool)
        for p in base:
            p = int(p)
            if p * p > stop:
                break
            first = max(p * p, ((start + p - 1) // p) * p)
            is_prime[first - start :: p] = False
        chunks.append(np.nonzero(is_prime)[0].astype(np.int64) + start)
        start = stop + 1
    return np.concatenate(chunks)


def build_sieve(limit: int) -> SieveTables:
    """Build sieve tables covering 2..limit."""
    if limit < 2:
        raise BoundsError(f"sieve limit must be >= 2, got {limit}")
    if limit > HARD_LIMIT_CAP:
        raise BoundsError(f"sieve limit {limit} exceeds cap {HARD_LIMIT_CAP}")
    spf = _spf_array(math.isqrt(limit))
    base = np.nonzero(spf == np.arange(spf.size))[0][1:]  # drop the n = 0 match
    return SieveTables(limit=limit, spf=spf, primes=_segmented_primes(limit, base))
