import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin import sieve
from phimin.errors import BoundsError
from phimin.sieve import build_sieve
from reference import primes_upto

MAX_LIMIT = 5000
# Miller-Rabin, independent of the sieve.
MR_PRIMES = primes_upto(MAX_LIMIT)


def test_small_limit_exhaustive():
    t = build_sieve(10)
    assert t.primes.tolist() == [2, 3, 5, 7]


def test_prime_count_to_100():
    t = build_sieve(100)
    assert len(t.primes) == 25


def test_limit_below_two_rejected():
    assert build_sieve(2).primes.tolist() == [2]
    with pytest.raises(BoundsError):
        build_sieve(1)


def test_limit_above_cap_rejected():
    # the cap itself builds: only its base table, up to isqrt(cap)
    assert build_sieve(sieve.HARD_LIMIT_CAP).limit == sieve.HARD_LIMIT_CAP
    with pytest.raises(BoundsError):
        build_sieve(sieve.HARD_LIMIT_CAP + 1)
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
        primes = t.primes  # built on first read, so inside the patch
    assert t.limit == limit
    assert primes.dtype == np.int64
    want = [p for p in MR_PRIMES if p <= limit]
    assert primes.tolist() == want
    assert t.spf.size == math.isqrt(limit) + 1
    assert_spf_invariants(t.spf, want)


# A window (lo, hi] is sieved from its first odd number above lo, so its
# segments start at flag (floor(lo) + 1) // 2 and step by SEGMENT_SIZE.
bounds = st.one_of(st.integers(-3, MAX_LIMIT), st.floats(-3, MAX_LIMIT))


@settings(deadline=None)
@given(
    limit=st.integers(2, MAX_LIMIT),
    lo=bounds,
    hi=bounds,
    segment=st.sampled_from([7, 64, sieve.SEGMENT_SIZE]),
)
@example(limit=100, lo=-1, hi=100, segment=7)  # lo < 2 and hi == limit
@example(limit=100, lo=1.5, hi=2.5, segment=7)  # 2 alone
@example(limit=100, lo=2, hi=3, segment=7)  # 3 alone, no 2
@example(limit=100, lo=13, hi=13, segment=7)  # lo == hi
@example(limit=100, lo=12.5, hi=13.5, segment=7)  # straddling 13
@example(limit=100, lo=13.5, hi=12.5, segment=7)  # hi < lo
@example(limit=100, lo=33, hi=100, segment=7)  # 49 = 7^2 opens the 2nd segment
@example(limit=200, lo=8.5, hi=199.5, segment=7)  # 121 = 11^2 opens the 9th
@example(limit=5000, lo=4000, hi=4999, segment=64)  # many segments
def test_primes_in_window_match_direct(limit, lo, hi, segment):
    hi = min(hi, limit)
    t = build_sieve(limit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_SIZE", segment)
        got = t.primes_in(lo, hi)
    assert "primes" not in vars(t)  # a window leaves the full list unbuilt
    assert got.dtype == np.int64
    assert got.tolist() == [p for p in MR_PRIMES if lo < p <= hi]


def test_window_bound_is_on_the_window():
    # at least pi(hi) - pi(lo) for every hi up to MAX_LIMIT and lo = 1, 62,
    # 123, ..., on both sides of the switch to the lower bound at lo = 17
    count = np.searchsorted(MR_PRIMES, np.arange(MAX_LIMIT + 1), side="right")
    for lo in range(1, MAX_LIMIT, 61):
        his = np.arange(lo + 1, MAX_LIMIT + 1)
        got = [sieve.window_prime_bound(lo, int(hi)) for hi in his]
        assert (np.array(got) >= count[his] - count[lo]).all()


def test_window_peak_is_its_list_plus_one_segment():
    # (1.5e6, 3e6] holds 102,661 primes; a list sized from pi(3e6) alone
    # would take 216,816 slots
    t = build_sieve(3_000_000)
    segment = 1 << 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "SEGMENT_SIZE", segment)
        tracemalloc.start()
        try:
            got = t.primes_in(1_500_000, 3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert got.size == 216_816 - 114_155
    assert peak < 1.15 * got.nbytes + 9 * segment


def test_primes_in_range(tables):
    assert tables.primes_in(10, 20).tolist() == [11, 13, 17, 19]
    assert tables.primes_in(13, 13).tolist() == []
    assert tables.primes_in(12.5, 13).tolist() == [13]
    assert tables.primes_in(2990, tables.limit).tolist() == [2999]
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
            primes = t.primes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert primes.size == 216_816
    assert sieve.prime_count_bound(3_000_000) - primes.size < 0.01 * primes.size
    # one flag byte and at most one int64 index per flag of the segment
    assert peak < primes.nbytes + 9 * segment
