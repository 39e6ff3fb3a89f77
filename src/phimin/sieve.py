"""Prime sieves: the primes in a window (lo, hi] below a limit.

A smallest-prime-factor (SPF) array up to isqrt(limit) is built eagerly;
its fixed points are the base primes of every window.  One odd-only
segmented Eratosthenes pass (Bays and Hudson, BIT 17, 1977) over a window
(lo, hi] gives the primes there, so memory stays at one segment of flags,
one per odd number, plus the window's list.  The list of every prime up
to the limit is that same pass over (1, limit], built on first use: the
interval builds read only their own windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError

HARD_LIMIT_CAP = 4 * 10**9
SEGMENT_SIZE = 1 << 22


@dataclass(frozen=True)
class SieveTables:
    """Immutable sieve data up to `limit`.

    spf[n] is the smallest prime factor of n for 2 <= n <= isqrt(limit)
    (spf[0] = spf[1] = 0); its fixed points are the base primes that
    primes_in strikes with.  `primes` holds every prime <= limit and is
    built on first read.
    """

    limit: int
    spf: np.ndarray = field(repr=False)

    @functools.cached_property
    def _odd_base(self) -> list[int]:
        """The odd primes up to isqrt(limit): the fixed points of spf past 2."""
        return np.flatnonzero(self.spf == np.arange(self.spf.size))[2:].tolist()

    @functools.cached_property
    def primes(self) -> np.ndarray:
        """Every prime <= limit: primes_in over (1, limit]."""
        return self.primes_in(1, self.limit)

    def check_limit(self, hi: float) -> None:
        """Raise BoundsError when a window (..., hi] passes the limit."""
        if hi > self.limit:
            raise BoundsError(
                f"range (..., {hi}] exceeds sieve limit {self.limit}"
            )

    def primes_in(self, lo: float, hi: float) -> np.ndarray:
        """Primes p with lo < p <= hi, ascending, sieved over that window."""
        self.check_limit(hi)
        lo, hi = max(math.floor(lo), 1), math.floor(hi)
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        return _segmented_primes(lo, hi, self._odd_base)


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


def window_prime_bound(lo: int, hi: int) -> int:
    """An integer at least pi(hi) - pi(lo), the number of primes in the
    window (lo, hi], for 1 <= lo < hi: prime_count_bound(hi) less Rosser
    and Schoenfeld's pi(x) >= x / ln x for x >= 17, and never more than
    the window's odd numbers plus one for 2."""
    bound = prime_count_bound(hi)
    if lo >= 17:
        bound -= int(lo / math.log(lo))
    return min(bound, (hi + 1) // 2 - (lo + 1) // 2 + 1)


def _segmented_primes(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """Primes in (lo, hi], 1 <= lo < hi, from the odd primes up to
    sqrt(hi).  The list is allocated once from window_prime_bound, filled
    segment by segment and shrunk in place, so the peak is the list plus
    one segment's flags and indices."""
    primes = np.empty(window_prime_bound(lo, hi), dtype=np.int64)
    count = 0
    if lo < 2:
        primes[0] = 2
        count = 1
    n = (hi + 1) // 2  # the odd numbers 1, 3, ..., <= hi
    for s in range((lo + 1) // 2, n, SEGMENT_SIZE):  # from the first odd > lo
        count += _odd_segment(s, min(s + SEGMENT_SIZE, n), base, primes[count:])
    primes.resize(count, refcheck=False)
    return primes


def _odd_segment(s: int, e: int, base: list[int], out: np.ndarray) -> int:
    """Write the odd primes among flags s..e-1, s >= 1, to the front of
    `out` and return how many there are.  Flag i of the odd-only array
    stands for 2i + 1, and the odd base primes strike their multiples
    from p^2 on."""
    flags = np.ones(e - s, dtype=bool)
    for p in base:
        if p * p // 2 >= e:
            break
        first = max(p * p // 2, s + ((p - 1) // 2 - s) % p)
        flags[first - s :: p] = False
    idx = np.flatnonzero(flags)
    out = out[: idx.size]
    np.multiply(idx, 2, out=out)  # flag s + i is the odd number 2(s + i) + 1
    out += 2 * s + 1
    return idx.size


def build_sieve(limit: int) -> SieveTables:
    """Build sieve tables covering 2..limit: the SPF base table now, the
    primes of each window when it is read."""
    if limit < 2:
        raise BoundsError(f"sieve limit must be >= 2, got {limit}")
    if limit > HARD_LIMIT_CAP:
        raise BoundsError(f"sieve limit {limit} exceeds cap {HARD_LIMIT_CAP}")
    return SieveTables(limit=limit, spf=_spf_array(math.isqrt(limit)))
