import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin import sieve
from phimin.arith import is_prime
from phimin.errors import BoundsError
from phimin.sieve import build_sieve

MAX_LIMIT = 5000
# Miller-Rabin, independent of the sieve.
MR_PRIMES = [n for n in range(MAX_LIMIT + 1) if is_prime(n)]


def test_small_limit_exhaustive():
    t = build_sieve(10)
    assert t.primes.tolist() == [2, 3, 5, 7]


def test_prime_count_to_100():
    t = build_sieve(100)
    assert len(t.primes) == 25


def test_limit_below_two_rejected():
    with pytest.raises(BoundsError):
        build_sieve(1)


def test_limit_above_cap_rejected():
    with pytest.raises(BoundsError):
        build_sieve(10**12)


def assert_spf_invariants(spf, primes):
    """spf[n] is the least prime factor of every n >= 2 it covers, and its
    fixed points are exactly `primes` up to its top."""
    top = spf.size - 1
    for n in range(2, top + 1):
        p = int(spf[n])
        assert n % p == 0
        # minimality: no smaller divisor above 1
        for d in range(2, p):
            assert n % d != 0
    # primes are exactly the fixed points
    fixed = [n for n in range(2, top + 1) if int(spf[n]) == n]
    assert fixed == [p for p in primes if p <= top]


def test_spf_invariants_exhaustive():
    # The base-prime table that build_sieve(10**8) would build.
    assert_spf_invariants(sieve._spf_array(10_000), build_sieve(10_000).primes.tolist())


# Flag i stands for the odd number 2i + 1, and segment s holds flags sS to
# (s + 1)S - 1, the odd numbers 2sS + 1 ... 2(s + 1)S - 1: the last segment
# ends exactly at `limit` when (limit + 1) // 2 is a multiple of S, and is
# partial otherwise.  p^2 is flag p^2 // 2.  No max_examples here, so the
# hypothesis profile (the "ci" one from conftest) sets how hard it looks.
@settings(deadline=None)
@given(
    limit=st.integers(2, MAX_LIMIT),
    segment=st.sampled_from([7, 64, sieve.SEGMENT_SIZE]),
)
@example(limit=2, segment=7)  # empty base
@example(limit=3, segment=7)  # empty base
@example(limit=8, segment=7)  # empty odd base: 3^2 = 9 is above the limit
@example(limit=48, segment=7)  # 7^2 - 1
@example(limit=49, segment=7)  # 7^2
@example(limit=50, segment=7)  # 7^2 + 1
@example(limit=97, segment=7)  # the 7th segment ends at the limit, 97
@example(limit=98, segment=7)  # ... and at 98, which adds no odd number
@example(limit=99, segment=7)  # a one-odd-number last segment
@example(limit=168, segment=7)  # 13^2 - 1: the 12th segment ends at the limit
@example(limit=169, segment=7)  # 13^2 is flag 84, the first of the 13th segment
@example(limit=170, segment=7)  # 13^2 + 1
@example(limit=4095, segment=64)  # the 32nd segment ends at the limit
@example(limit=4097, segment=64)  # a one-odd-number last segment
@example(limit=4488, segment=64)  # 67^2 - 1
@example(limit=4489, segment=64)  # 67^2
@example(limit=4490, segment=64)  # 67^2 + 1
@example(limit=4489, segment=sieve.SEGMENT_SIZE)  # 67^2, one segment
def test_segmented_primes_match_direct(limit, segment):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_SIZE", segment)
        t = build_sieve(limit)
    assert t.limit == limit
    assert t.primes.dtype == np.int64
    want = [p for p in MR_PRIMES if p <= limit]
    assert t.primes.tolist() == want
    assert t.spf.size == math.isqrt(limit) + 1
    assert_spf_invariants(t.spf, want)


def test_primes_in_range(tables):
    assert tables.primes_in(10, 20).tolist() == [11, 13, 17, 19]
    assert tables.primes_in(13, 13).tolist() == []
    assert tables.primes_in(12.5, 13).tolist() == [13]
    with pytest.raises(BoundsError):
        tables.primes_in(0, tables.limit + 1)


def test_peak_is_the_list_plus_one_segment():
    # the list is allocated once from Dusart's bound and shrunk in place;
    # one chunk per segment joined at the end would need twice the list
    segment = 1 << 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_SIZE", segment)
        tracemalloc.start()
        try:
            t = build_sieve(3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert t.primes.size == 216_816
    assert sieve.prime_count_bound(3_000_000) - t.primes.size < 0.01 * t.primes.size
    # one flag byte and at most one int64 index per flag of the segment
    assert peak < t.primes.nbytes + 9 * segment
