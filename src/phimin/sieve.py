"""Prime sieves: the sorted list of primes up to a limit.

The primes list feeds interval enumeration and the base primes of the
streamed totients.  Below the in-memory cap it is read off a
smallest-prime-factor (SPF) array; above it a segmented Eratosthenes
pass extends it, so limits around 10^9 stay feasible.  No query reads
the SPF array (factorization is trial division): it stays only because
the traced benchmark reports its size, until the benchmark reads
counters the package reports itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError

# SPF coverage is memory bound (4 bytes per integer); the primes-only
# list keeps working far beyond it via segmented sieving.
DEFAULT_SPF_CAP = 10**8
HARD_LIMIT_CAP = 4 * 10**9
SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class SieveTables:
    """Immutable sieve data up to `limit`.

    `primes` holds every prime <= limit.  spf[n] is the smallest prime
    factor of n for 2 <= n <= spf_limit (spf[0] = spf[1] = 0); nothing in
    the package reads it, and it stays only for the traced benchmark.
    """

    limit: int
    spf_limit: int
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


def _segmented_primes(lo: int, hi: int, base: np.ndarray) -> list[np.ndarray]:
    """Primes in [lo, hi] using base primes covering sqrt(hi)."""
    chunks = []
    start = max(lo, 2)
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
    return chunks


def build_sieve(limit: int, spf_cap: int = DEFAULT_SPF_CAP) -> SieveTables:
    """Build sieve tables covering 2..limit.

    The SPF array stops at min(limit, spf_cap); the primes list always
    reaches `limit` (segmented construction past the SPF range).
    """
    if limit < 2:
        raise BoundsError(f"sieve limit must be >= 2, got {limit}")
    if limit > HARD_LIMIT_CAP:
        raise BoundsError(f"sieve limit {limit} exceeds cap {HARD_LIMIT_CAP}")
    spf_limit = min(limit, spf_cap)
    if spf_limit < math.isqrt(limit):
        raise BoundsError("spf_cap must cover sqrt(limit) for segmented sieving")
    spf = _spf_array(spf_limit)
    idx = np.arange(spf_limit + 1, dtype=np.int32)
    primes = np.nonzero(spf == idx)[0][1:].astype(np.int64)  # drop n=0 match
    if limit > spf_limit:
        base = primes[primes <= math.isqrt(limit)]
        primes = np.concatenate(
            [primes] + _segmented_primes(spf_limit + 1, limit, base)
        )
    return SieveTables(limit=limit, spf_limit=spf_limit, spf=spf, primes=primes)
