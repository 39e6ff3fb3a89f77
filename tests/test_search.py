import concurrent.futures
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin import cli, intervals, search
from phimin.arith import trial_factorize
from phimin.counting import count_solutions_direct, direct_counts, indicator_1am
from phimin.errors import BoundsError, DomainError, EvenModulusError
from phimin.intervals import (
    IntervalTriple,
    PrimeIntervalSet,
    build_custom_interval,
    build_interval,
    target_class,
)
from phimin.sieve import SieveTables, build_sieve
from phimin.search import (
    DEFAULT_SEGMENT,
    FIRST_SEGMENT,
    FIRST_WINDOW,
    canonical_triple,
    check_cap,
    constructive_search,
    default_cap,
    exponent,
    exponent_scan,
    least_witnesses,
    oracle_N_multi,
    scan_sieve_limit,
    segment_phi,
)
from reference import (
    count_solutions_enumerate,
    euler_phi,
    full_least_witnesses,
    least_prime_per_class,
    least_witness,
    phi_table,
    prime_window,
    shifted_prime_interval,
)

NAIVE_LIMIT = 1 << 18

# the first integers of the oracle's doubling segments below NAIVE_LIMIT:
# 1 + 2^12, 1 + 2^12 + 2^13, ...
SEGMENT_STARTS = [1 + FIRST_SEGMENT * (2**k - 1) for k in range(1, 7)]


def units_of(m):
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def witness(a, m, k, tables):
    return constructive_search(a, canonical_triple(m, k, tables))


@pytest.fixture(scope="module")
def naive_phi():
    """phi(n) for 0 <= n < NAIVE_LIMIT (index 0 unused), from the numpy
    totient sieve of the test references: the independent reference for
    the streamed totients."""
    return phi_table(NAIVE_LIMIT)


def naive_first_hits(a_values, m, cap, naive_phi):
    """Least n <= cap with phi(n) = a (mod m) for each target, by one
    scan of the naive prefix that stops once every target is hit."""
    wanted = {a % m for a in a_values}
    out = dict.fromkeys(wanted)
    left = len(wanted)
    for n, r in enumerate((naive_phi[1 : cap + 1] % m).tolist(), start=1):
        if r in wanted and out[r] is None:
            out[r] = n
            left -= 1
            if not left:
                break
    # a miss only means "none <= cap" when the table reaches the cap
    assert not left or cap < NAIVE_LIMIT
    return out


class TestPhiResidueTable:
    """phi(n) mod m over a prefix, as the oracle scans it."""

    def test_first_entries_mod5(self, tables):
        assert (segment_phi(1, 7, tables) % 5).tolist() == [1, 1, 2, 2, 4, 2]

    def test_phi_42(self, tables):
        assert segment_phi(42, 43, tables)[0] % 5 == 2

    def test_cross_oracle_to_1e4(self, tables200k, naive_phi):
        m = 97
        table = segment_phi(1, 10_001, tables200k) % m
        assert table.tolist() == (naive_phi[1:10_001] % m).tolist()


class TestSegmentPhi:
    def test_matches_naive_phi(self, tables, naive_phi):
        for lo, hi in ((1, 500), (500, 1500), (1499, 3001)):
            seg = segment_phi(lo, hi, tables)
            assert seg.tolist() == naive_phi[lo:hi].tolist()

    @settings(max_examples=100, deadline=None)
    @example(lo=(1 << 17) - 3, width=7)  # holds 2^17
    @example(lo=3**11, width=1)  # exactly 3^11
    @example(lo=1, width=NAIVE_LIMIT - 1)  # every stride of the table
    @given(
        lo=st.integers(1, 200_000),
        width=st.one_of(st.integers(1, 64), st.integers(1, 20_000)),
    )
    def test_random_segments_match_naive_phi(self, tables200k, naive_phi, lo, width):
        hi = min(lo + width, NAIVE_LIMIT)
        assert segment_phi(lo, hi, tables200k).tolist() == naive_phi[lo:hi].tolist()

    @settings(deadline=None)
    @example(lo=1, hi=FIRST_SEGMENT + 1)  # the whole table
    @example(lo=1, hi=FIRST_SEGMENT + 2)  # one integer past it
    @example(lo=FIRST_SEGMENT, hi=FIRST_SEGMENT + 2)
    @given(
        lo=st.integers(1, 2 * FIRST_SEGMENT - 1),
        hi=st.integers(2, 2 * FIRST_SEGMENT),
    )
    def test_first_segments_match_naive_phi(self, tables, naive_phi, lo, hi):
        # inside the per-process table, across its end and past it
        lo, hi = min(lo, hi - 1), max(lo + 1, hi)
        assert segment_phi(lo, hi, tables).tolist() == naive_phi[lo:hi].tolist()

    def test_first_table_is_read_only(self, tables, naive_phi):
        table = search._first_phi()
        assert table.size == FIRST_SEGMENT and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 7
        seg = segment_phi(1, 101, tables)
        seg[:] = 0
        assert segment_phi(1, 101, tables).tolist() == naive_phi[1:101].tolist()
        assert table.tolist() == naive_phi[1 : FIRST_SEGMENT + 1].tolist()

    def test_checks_run_inside_the_table(self, tables):
        search._first_phi()  # built, so only the checks can raise
        for lo, hi in ((10, 10), (20, 10), (0, 5), (-3, 5)):
            with pytest.raises(DomainError):
                segment_phi(lo, hi, tables)
        with pytest.raises(BoundsError, match="sieve limit 10 below"):
            segment_phi(1, 200, build_sieve(10))  # isqrt(199) = 14 > 10

    def test_reads_only_its_base_primes(self, tables200k, naive_phi, monkeypatch):
        def unbuilt(tables):
            raise AssertionError(f"every prime up to {tables.limit} listed")

        monkeypatch.setattr(SieveTables, "primes", property(unbuilt))
        seg = segment_phi(1, 10_001, tables200k)
        assert seg.tolist() == naive_phi[1:10_001].tolist()

    def test_bad_segment(self, tables):
        with pytest.raises(DomainError):
            segment_phi(10, 10, tables)

    def test_needs_base_primes(self, tables):
        t = build_sieve(10)
        with pytest.raises(BoundsError):
            segment_phi(1, 1000, t)
        # past the first segment: isqrt(5041) = 71 is the least limit
        with pytest.raises(BoundsError):
            segment_phi(5000, 5042, build_sieve(70))
        want = segment_phi(5000, 5042, tables)
        assert segment_phi(5000, 5042, build_sieve(71)).tolist() == want.tolist()

    def test_end_past_int64_rejected(self, tables):
        # checked before the base primes, which this sieve lacks
        with pytest.raises(BoundsError, match="segment end .* exceeds 2\\^63"):
            segment_phi(2**63 - 10, 2**63 + 1, tables)


class TestOracle:
    def test_golden_values(self, tables):
        assert oracle_N_multi([2], 3, 27, tables) == {2: 3}
        assert oracle_N_multi([3, 2, 4], 5, 125, tables) == {3: 15, 2: 3, 4: 5}

    def test_a_equal_one_is_immediate(self, tables):
        for m in range(3, 100, 2):
            assert oracle_N_multi([1], m, 5, tables) == {1: 1}

    def test_keyed_by_class(self, tables):
        assert oracle_N_multi([-1, 8, 17], 9, 729, tables) == {8: 15}

    def test_not_found_reports_cap(self, tables):
        assert oracle_N_multi([3], 5, 10, tables) == {3: None}  # N(3,5) = 15 > 10
        assert oracle_N_multi([3], 5, 15, tables) == {3: 15}

    def test_exponent(self):
        assert abs(exponent(3, 3) - 1.0) < 1e-12
        assert exponent(9, 3) == 2.0
        assert exponent(None, 5) is None  # not found at the cap
        assert exponent(1, 1) is None  # m < 2 has no exponent
        w = search.SearchWitness(m=1, a=5, delta=0, p1=7, p2=3, p3=2)
        assert (w.n, w.exponent) == (42, None)

    def test_even_modulus_rejected(self, tables):
        with pytest.raises(EvenModulusError):
            oracle_N_multi([3], 4, 100, tables)

    def test_reduced_class_required(self, tables):
        with pytest.raises(DomainError):
            oracle_N_multi([3], 9, 100, tables)

    def test_bad_cap(self, tables):
        with pytest.raises(DomainError):
            oracle_N_multi([1], 5, 0, tables)

    def test_cap_guard_both_sides(self):
        check_cap(2**63 - 1)  # the largest n the int64 stream holds
        with pytest.raises(BoundsError):
            check_cap(2**63)

    def test_multi_matches_single(self, tables):
        m = 45
        found = oracle_N_multi(units_of(m), m, default_cap(m), tables)
        for a in units_of(m):
            assert oracle_N_multi([a], m, default_cap(m), tables) == {a: found[a]}

    def test_minimality_rescan(self, tables200k, naive_phi):
        # independent route: phi(n) from factorizations over the prefix
        for m in (9, 25, 45):
            found = oracle_N_multi(units_of(m), m, default_cap(m), tables200k)
            assert all(n is not None for n in found.values())
            assert found == naive_first_hits(found, m, default_cap(m), naive_phi)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_naive_first_hits(self, tables200k, naive_phi, data):
        m = data.draw(
            st.one_of(
                st.integers(0, 199).map(lambda i: 2 * i + 1),
                st.integers(1, 7).map(lambda j: 3**j),
            ),
            label="m",
        )
        a_values = data.draw(
            st.lists(st.sampled_from(units_of(m)), min_size=1, unique=True),
            label="a_values",
        )
        start = st.sampled_from(SEGMENT_STARTS)
        caps = [
            start,  # the first integer of a segment
            start.map(lambda c: c - 1),  # the last of the one before
            st.integers(1, NAIVE_LIMIT - 1),
            st.integers(0, 17).map(lambda e: 2**e),
        ]
        hits = naive_first_hits(a_values, m, NAIVE_LIMIT - 1, naive_phi)
        least = sorted(n for n in hits.values() if n is not None and n > 1)
        if least:  # at a target's least hit N, and at N - 1, which misses it
            n = st.sampled_from(least)
            caps += [n, n.map(lambda c: c - 1)]
        cap = data.draw(st.one_of(*caps), label="cap")
        found = oracle_N_multi(a_values, m, cap, tables200k)
        assert found == naive_first_hits(a_values, m, cap, naive_phi)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_more_classes_than_first_segment(self, tables200k, naive_phi, data):
        # m > FIRST_SEGMENT: the class table is longer than the first
        # segments, and most classes stay unhit in them
        m = data.draw(st.integers(2049, 2**14 - 1).map(lambda i: 2 * i + 1), label="m")
        a_values = data.draw(
            st.lists(st.sampled_from(units_of(m)), min_size=1, max_size=40, unique=True),
            label="a_values",
        )
        cap = data.draw(st.integers(1, NAIVE_LIMIT - 1), label="cap")
        found = oracle_N_multi(a_values, m, cap, tables200k)
        assert found == naive_first_hits(a_values, m, cap, naive_phi)

    def test_stream_stops_near_largest_hit(self, tables10k, naive_phi, monkeypatch):
        segments = []

        def spy(lo, hi, tables):
            segments.append((lo, hi))
            return segment_phi(lo, hi, tables)

        monkeypatch.setattr(search, "segment_phi", spy)
        m = 301
        a_values = units_of(m)[:20]
        found = oracle_N_multi(a_values, m, m**3, tables10k)
        assert found == naive_first_hits(a_values, m, m**3, naive_phi)
        # doubling segments overshoot the largest N by less than a factor 2
        streamed = sum(hi - lo for lo, hi in segments)
        assert streamed <= 2 * max(found.values()) + FIRST_SEGMENT
        assert max(hi - lo for lo, hi in segments) <= DEFAULT_SEGMENT

    def test_segments_stop_doubling_at_ceiling(
        self, tables200k, naive_phi, monkeypatch
    ):
        sizes = []

        def spy(lo, hi, tables):
            sizes.append(hi - lo)
            return segment_phi(lo, hi, tables)

        monkeypatch.setattr(search, "segment_phi", spy)
        monkeypatch.setattr(search, "FIRST_SEGMENT", 256)
        monkeypatch.setattr(search, "DEFAULT_SEGMENT", 1024)
        m = 301  # largest N over all units: 3657
        # first with the per-process table unbuilt, as when run on its own,
        # which builds it at its own size under the patched FIRST_SEGMENT;
        # then with it built, so that it serves the first segments
        search._first_phi.cache_clear()
        for _ in range(2):
            sizes.clear()
            found = oracle_N_multi(units_of(m), m, default_cap(m), tables200k)
            assert found == naive_first_hits(found, m, default_cap(m), naive_phi)
            assert sizes == [256, 512, 1024, 1024, 1024]
            assert search._first_phi().size == 4096


class TestConstructiveSearch:
    def test_witness_42(self, tables):
        w = witness(2, 5, 2, tables)
        assert (w.p1, w.p2, w.p3, w.delta) == (7, 3, 2, 0)
        assert w.n == 42
        assert euler_phi(trial_factorize(w.n)) % 5 == 2

    def test_witness_70(self, tables):
        w = witness(4, 5, 2, tables)
        assert w.n == 70

    def test_not_found(self, tables):
        assert witness(1, 5, 2, tables) is None

    def test_witness_validity_and_congruence(self, tables):
        for m in (17, 25, 35, 45):
            for a in units_of(m)[:10]:
                w = witness(a, m, 2, tables)
                if w is None:
                    continue
                phi_n = euler_phi(trial_factorize(w.n))
                assert phi_n % m == a % m
                assert phi_n == (1 + w.delta) * (w.p1 - 1) * (w.p2 - 1) * (w.p3 - 1)

    def test_parity_structure(self, tables):
        # n = 0 (mod 4) exactly when the indicator forces the factor 4
        seen_delta1 = 0
        for m in (51, 57, 63):
            for a in units_of(m)[:12]:
                w = witness(a, m, 2, tables)
                if w is None:
                    continue
                assert (w.n % 4 == 0) == (w.delta == 1)
                seen_delta1 += w.delta
        assert seen_delta1 > 0

    def test_hit_iff_count_positive(self, tables):
        # for k=2 and m >= 17 no interval contains 2, so the formal count
        # and the witness search see the same solution set
        for m in range(17, 46, 2):
            ivs = canonical_triple(m, 2, tables)
            assert all(2 not in iv.primes for iv in ivs)
            for a in units_of(m):
                w = witness(a, m, 2, tables)
                j = count_solutions_direct(a, ivs)
                assert (w is not None) == (j > 0)

    def test_delta_one_skips_two(self, tables):
        # m = 9, a = 2: the only formal solution uses p3 = 2, which is
        # not a phi-witness since 4 and 2 share a factor
        ivs = canonical_triple(9, 2, tables)
        assert count_solutions_direct(2, ivs) == 1
        assert witness(2, 9, 2, tables) is None

    def test_overlapping_intervals_rejected(self, tables):
        with pytest.raises(DomainError):
            witness(1, 3, 2, tables)

    def test_i1_empty_once_two_is_dropped(self, tables):
        # a = 2 mod 9 has delta = 1, so p1 = 2 is dropped and I1 is empty
        m, a = 9, 2
        assert indicator_1am(a, m) == 1
        i1, i2, i3 = (
            build_custom_interval(lo, hi, m, tables)
            for lo, hi in ((1, 2), (2, 30), (30, 60))
        )
        assert i1.primes.tolist() == [2]
        assert constructive_search(a, IntervalTriple(i1, i2, i3)) is None

    def test_two_dropped_from_a_shared_class(self, tables):
        # 2 and 11 share class 1 mod 9: with d = 1 the grid's least prime
        # 2 of that class is unusable, and 11 takes its place
        m = 9
        triple = IntervalTriple(
            build_custom_interval(40, 200, m, tables),
            build_custom_interval(12, 40, m, tables),
            PrimeIntervalSet(1, 12, m, np.array([2, 11])),
        )
        assert triple.class_grid.px.tolist() == [2]
        units = units_of(m)
        got = least_witnesses(units, triple)
        want = [least_witness(a, triple) for a in units]
        assert [witness_key(w) for w in got] == want
        assert {w.p3 for w in got if w.delta} == {11}
        assert {w.p3 for w in got if not w.delta} == {2}

    @pytest.mark.parametrize("m", [45, 63, 99, 201])
    def test_one_grid_for_both_d_past_sixteen(self, tables, m, monkeypatch):
        # at k = 2 and m >= 17 every set opens above 2 (sqrt(17) / 2 > 2), so
        # the odd triple is the triple and both d read its one class grid
        built = []
        cached = IntervalTriple.class_grid
        real = cached.func

        def counted(triple):
            built.append(triple)
            return real(triple)

        monkeypatch.setattr(cached, "func", counted)
        triple = canonical_triple(m, 2, tables)
        units = units_of(m)
        assert {indicator_1am(a, m) for a in units} == {0, 1}
        got = least_witnesses(units, triple)
        assert triple.odd is triple
        assert len(built) == 1 and built[0] is triple
        assert {w.delta for w in got if w} == {0, 1}

    @pytest.mark.parametrize("m, k", [(45, 2), (63, 3)])
    def test_triple_freed_by_its_reference_count(self, tables, m, k):
        # the odd triple is the triple at (45, 2) and its own at (63, 3),
        # where I3 holds 2; neither may leave a cycle for the collector
        triple = canonical_triple(m, k, tables)
        least_witnesses(units_of(m), triple)
        assert (triple.odd is triple) == (k == 2)
        ref = weakref.ref(triple)
        gc.disable()
        try:
            del triple
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_two_in_i3_leaves_d1_without_witness(self, tables, k):
        # I3 = (m^(1/k) / 2, m^(1/k)] holds 2 only when m < 4^k, and then
        # lies within {2, 3}.  With 3 | m, every prime p > 3 of the triple
        # has p - 1 = 1 (mod 3), so a d = 1 unit (a = 2 mod 3) needs
        # p3 - 1 = 1 (mod 3), that is p3 = 2, which a d = 1 witness may not
        # use; the direct count still counts those p3 = 2 triples.
        seen = 0
        for m in range(9, 4**k, 6):
            triple = canonical_triple(m, k, tables)
            i3 = triple.i3.primes.tolist()
            if 2 not in i3:
                continue
            assert set(i3) <= {2, 3}
            units = [a for a in units_of(m) if indicator_1am(a, m)]
            assert least_witnesses(units, triple) == [None] * len(units)
            r1, r2 = ((iv.primes - 1) % m for iv in (triple.i1, triple.i2))
            with_two = np.bincount((2 * r1[:, None] * r2 % m).ravel(), minlength=m)
            counts = direct_counts(units, triple)
            assert counts == with_two[units].tolist()
            seen += sum(j > 0 for j in counts)
        assert seen

    def test_minimizes_n(self, tables):
        # every other admissible triple gives a product at least as large
        m, a, k = 35, 2, 2
        w = witness(a, m, k, tables)
        ivs = canonical_triple(m, k, tables)
        best = None
        for p1 in ivs.i1.primes:
            for p2 in ivs.i2.primes:
                for p3 in ivs.i3.primes:
                    if (p1 - 1) * (p2 - 1) * (p3 - 1) % m == a:
                        n = int(p1 * p2 * p3)
                        best = n if best is None else min(best, n)
        assert w is not None and w.n == best


    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_minimum_over_custom_triples(self, tables, data):
        m = data.draw(st.integers(0, 37).map(lambda i: 2 * i + 1), label="m")
        a = data.draw(st.sampled_from(units_of(m)), label="a")
        lo = data.draw(st.integers(0, 300))
        ivs = []
        for _ in range(3):
            width = data.draw(st.integers(1, 120))
            ivs.append(build_custom_interval(lo, lo + width, m, tables))
            lo += width + data.draw(st.integers(0, 60))
        triple = IntervalTriple(*data.draw(st.permutations(ivs), label="order"))
        best = least_witness(a, triple)
        w = constructive_search(a, triple)
        if best is None:
            assert w is None
        else:
            assert (w.n, (w.p1, w.p2, w.p3), w.delta) == (*best, indicator_1am(a, m))

    def test_products_past_int64(self, monkeypatch):
        # the products p1 p2 p3 straddle 2^63, where int64 would wrap the
        # larger ones to negative values below the true minimum; a spy on
        # the dtype of _least_products shows which path each case takes
        cases = [
            # the least prime of every class keeps the bound below 2^63 - 1
            (7, (2_096_552, 2_097_002, 2_097_452), "int64"),
            # the least class primes alone push the bound past 2^63
            (7, (2_096_652, 2_097_102, 2_097_552), "object"),
            # each d group's bound passes 2^63 - 1, and the witnesses
            # themselves lie on both sides of 2^63
            (21, (2_096_552, 2_097_002, 2_097_452), "object"),
        ]
        paths = []
        real = search._least_products

        def spy(px, py, pz, dtype, empty):
            paths.append(np.dtype(dtype).name)
            return real(px, py, pz, dtype, empty)

        monkeypatch.setattr(search, "_least_products", spy)
        for m, lows, path in cases:
            triple = IntervalTriple(*(prime_window(lo, 300, m) for lo in lows))
            assert math.prod(int(iv.primes[-1]) for iv in triple) > 2**63
            assert math.prod(int(iv.primes[0]) for iv in triple) < 2**63
            paths.clear()
            hits = 0
            for a in units_of(m):
                best = least_witness(a, triple)
                w = constructive_search(a, triple)
                if best is None:
                    assert w is None
                    continue
                hits += 1
                assert (w.n, (w.p1, w.p2, w.p3)) == best
                assert all(type(p) is int for p in (w.p1, w.p2, w.p3))
            assert hits
            assert paths and set(paths) == {path}, (m, lows)
            # every unit at once, reversed and repeated, takes the same path
            paths.clear()
            units = units_of(m)[::-1] * 2
            got = least_witnesses(units, triple)
            assert [
                None if w is None else (w.n, (w.p1, w.p2, w.p3)) for w in got
            ] == [least_witness(a, triple) for a in units]
            assert all(
                type(p) is int for w in got if w for p in (w.p1, w.p2, w.p3)
            )
            assert paths and set(paths) == {path}, (m, lows)

    def test_one_grid_serves_units_in_any_order(self, tables):
        # I1 holds 2, which a = 2 (mod 3) units must skip and the others
        # may use, so a cached table altered by one unit would show
        m = 45
        triple = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables)
              for lo, hi in ((1, 40), (40, 120), (120, 300)))
        )
        assert triple.i1.primes[0] == 2
        units = units_of(m)
        expected = {
            a: (least_witness(a, triple), count_solutions_enumerate(a, triple))
            for a in units
        }
        for a in units + units[::-1]:
            w = constructive_search(a, triple)
            got = None if w is None else (w.n, (w.p1, w.p2, w.p3))
            assert (got, count_solutions_direct(a, triple)) == expected[a]
        assert any(w for w, _ in expected.values())

    def test_modulus_mismatch_rejected(self, tables):
        i1, i2, _ = canonical_triple(45, 2, tables)
        i3 = canonical_triple(47, 2, tables).i3
        with pytest.raises(DomainError, match="interval modulus 47 differs from 45"):
            constructive_search(2, IntervalTriple(i1, i2, i3))


@pytest.fixture(scope="module")
def tables2m():
    """A sieve past 2^21, where products of three primes pass 2^63."""
    return build_sieve(2_200_000)


def witness_key(w):
    return None if w is None else (w.n, (w.p1, w.p2, w.p3))


# I2 = {2095007} and I3 = {2090003} put (2^63 - 1) / (p2 p3) at 2106479,
# inside I1: the windows of I1 below it take int64 products and those above
# Python ints.  a = 1 (mod 7) forces the class of p1 - 1 = 0, which holds
# no prime of I1, so J = 0 and its search reads every window.
STRADDLE_M = 7
STRADDLE = ((2_106_419, 2_109_479), (2_095_006, 2_095_007), (2_090_002, 2_090_003))


@st.composite
def witness_cases(draw):
    """(m, units, bounds): an odd m below 200 (multiples of 3 and prime
    powers among them), up to six units, and three disjoint intervals in a
    drawn order, near 2^21 when `far`, from 0 (holding 2) otherwise.  Near
    0 a set reaches up to about 6 times its lower end, so the search reads
    I2 in growing prefixes, and any upper bound may end in .5."""
    m = draw(
        st.one_of(
            st.integers(0, 99).map(lambda i: 2 * i + 1),
            st.integers(0, 32).map(lambda i: 6 * i + 3),
            st.sampled_from([q for q in ODD_PRIME_POWERS if q < 200]),
        ),
        label="m",
    )
    units = draw(st.lists(st.sampled_from(units_of(m)), min_size=1, max_size=6))
    far = draw(st.booleans())
    lo = draw(st.integers(0, 2000)) + (2_096_000 if far else 0)
    bounds = []
    for _ in range(3):
        width = draw(st.integers(1, 300 if far else max(150, min(5 * lo, 3000))))
        hi = lo + width + draw(st.sampled_from([0, 0.5]))
        bounds.append((lo, hi))
        lo = math.floor(hi) + draw(st.integers(0, 100))
    return m, tuple(units), tuple(draw(st.permutations(bounds)))


class TestWindowedWitness:
    """least_witnesses over an unlisted I1 and I2, read in windows and
    prefixes, against the grid route over all of I1
    (reference.full_least_witnesses)."""

    @settings(deadline=None)
    # width None reads I1 in the windows of the unpatched search._first_window
    @given(
        case=witness_cases(),
        width=st.sampled_from([1, 2, 7, 64, FIRST_WINDOW, None]),
    )
    # 2 opens I1 and sits alone in its first window; a = 2 (mod 3) skips it
    @example(case=(45, (2, 1, 4, 11), ((1, 40), (40, 120), (120, 300))), width=1)
    # J = 0 for a = 1, and the products cross 2^63 between windows
    @example(case=(STRADDLE_M, (1, 2, 5, 3), STRADDLE), width=8)
    # I3 is empty, so the grid is too and no window is read
    @example(case=(9, (2, 4), ((40, 80), (20, 30), (24, 28))), width=1)
    # one window ends at floor(1630.5) and must read all of I2: a test of
    # the last window against the fractional top of I1 took a prefix here
    @example(
        case=(327, (10, 11, 17, 20), ((1246, 1630.5), (111, 764), (2, 30))),
        width=None,
    )
    def test_matches_full_reference(self, tables2m, case, width):
        m, units, bounds = case
        lazy = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables2m) for lo, hi in bounds)
        )
        listed = IntervalTriple(
            *(shifted_prime_interval(lo, hi, m) for lo, hi in bounds)
        )
        with pytest.MonkeyPatch.context() as mp:
            if width is not None:
                mp.setattr(search, "_first_window", lambda m: width)
            got = least_witnesses(list(units), lazy)
        assert [witness_key(w) for w in got] == full_least_witnesses(units, listed)
        assert [w.delta for w in got if w] == [
            indicator_1am(w.a, m) for w in got if w
        ]

    def test_windows_cross_int64_and_no_witness_reads_all(self, tables2m, monkeypatch):
        paths, sieved = [], []
        products, primes_in = search._least_products, SieveTables.primes_in

        def spy_products(px, py, pz, dtype, empty):
            paths.append(np.dtype(dtype).name)
            return products(px, py, pz, dtype, empty)

        def spy_primes_in(tables, lo, hi):
            sieved.append((lo, hi))
            return primes_in(tables, lo, hi)

        monkeypatch.setattr(search, "_least_products", spy_products)
        monkeypatch.setattr(SieveTables, "primes_in", spy_primes_in)
        monkeypatch.setattr(search, "_first_window", lambda m: 8)
        m = STRADDLE_M
        listed = IntervalTriple(
            *(shifted_prime_interval(lo, hi, m) for lo, hi in STRADDLE)
        )

        def unlisted():
            return IntervalTriple(
                *(build_custom_interval(lo, hi, m, tables2m) for lo, hi in STRADDLE)
            )

        for a in (2, 5):
            triple = unlisted()
            paths.clear()
            w = constructive_search(a, triple)
            assert witness_key(w) == full_least_witnesses([a], listed)[0]
            assert paths[0] == "int64" and paths[-1] == "object"
            assert not triple.i1.listed
        assert count_solutions_direct(1, listed) == 0
        triple = unlisted()
        sieved.clear()
        assert constructive_search(1, triple) is None
        (i1_lo, i1_hi), *_ = STRADDLE
        covered = sum(max(0, min(b, i1_hi) - max(a, i1_lo)) for a, b in sieved)
        assert covered == i1_hi - i1_lo

    def test_each_window_sieved_once_per_call(self, tables10k, monkeypatch):
        # d = 0 for a = 1, 4 and d = 1 for a = 2, 8 at m = 45: two groups
        # over the same windows of I1 = (300, 900]
        m, units, bounds = 45, [1, 2, 4, 8], ((300, 900), (120, 300), (40, 120))
        triple = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables10k) for lo, hi in bounds)
        )
        triple.class_grid  # lists I2 and I3
        sieved, primes_in = [], SieveTables.primes_in

        def spy(tables, lo, hi):
            sieved.append((lo, hi))
            return primes_in(tables, lo, hi)

        monkeypatch.setattr(SieveTables, "primes_in", spy)
        monkeypatch.setattr(search, "_first_window", lambda m: 8)
        got = least_witnesses(units, triple)
        assert sorted({indicator_1am(a, m) for a in units}) == [0, 1]
        assert sieved == [(300, 308), (308, 324), (324, 356), (356, 420), (420, 548)]
        listed = IntervalTriple(*(shifted_prime_interval(lo, hi, m) for lo, hi in bounds))
        assert [witness_key(w) for w in got] == full_least_witnesses(units, listed)

    @pytest.mark.parametrize(
        "i2, i3, units, read_to",
        [
            # 7 - 1 = 6 shares the factor 3 with m = 9, so I3 has no usable
            # prime for either d: nothing past I3 is read
            ((100, 300), (6, 7), [1, 2, 4, 5], 7),
            # I3 = {2}, which the d = 1 units (a = 2 mod 3) may not use
            ((100, 300), (1, 2), [2, 5, 8], 2),
            # I2 = (6, 10] holds only 7, which is not usable either: the
            # first I1 window finds no I2 prime up to Y = 7 and lists I2,
            # whose empty grid ends the search
            ((6, 10), (1, 5), [1, 4, 7], 308),
        ],
    )
    def test_no_usable_prime_reads_no_further_window(
        self, tables10k, i2, i3, units, read_to, monkeypatch
    ):
        m, bounds = 9, ((300, 900), i2, i3)
        triple = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables10k) for lo, hi in bounds)
        )
        sieved, primes_in = [], SieveTables.primes_in

        def spy(tables, lo, hi):
            sieved.append((lo, hi))
            return primes_in(tables, lo, hi)

        monkeypatch.setattr(SieveTables, "primes_in", spy)
        monkeypatch.setattr(search, "_first_window", lambda m: 8)
        assert least_witnesses(units, triple) == [None] * len(units)
        assert sieved and all(hi <= read_to for _, hi in sieved)

    def test_one_unit_mask_per_triple(self, tables, monkeypatch):
        built = []
        real = intervals.unit_mask

        def counted(m):
            built.append(m)
            return real(m)

        monkeypatch.setattr(intervals, "unit_mask", counted)
        monkeypatch.setattr(search, "unit_mask", counted)
        triple = canonical_triple(45, 2, tables)
        constructive_search(2, triple)
        count_solutions_direct(2, triple)
        assert built == [45]

    @pytest.mark.parametrize("m", [301, 19001])
    def test_canonical_triple_checked_without_sieving(self, m, monkeypatch):
        # at k = 2 the bounds of I1, I2 and I3 do not overlap once m >= 4,
        # so the disjointness check reads none of the three sets
        tables = build_sieve(intervals.interval_sieve_limit(m, 2))
        sieved, primes_in = [], SieveTables.primes_in

        def spy(tables, lo, hi):
            sieved.append((lo, hi))
            return primes_in(tables, lo, hi)

        monkeypatch.setattr(SieveTables, "primes_in", spy)
        triple = canonical_triple(m, 2, tables)
        assert sieved == []
        assert not any(iv.listed for iv in triple)


class TestReadPaths:
    """The search over a fresh canonical triple, I1 read in windows and I2
    in prefixes, against the same triple once its class grid and I1 are
    listed: the scan's path, one window over the full grid."""

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.one_of(
            st.integers(0, 1499).map(lambda i: 2 * i + 1),
            st.integers(0, 499).map(lambda i: 6 * i + 3),
            st.sampled_from([3**j for j in range(1, 8)]),
        ),
        k=st.sampled_from([2, 3, 4]),
        data=st.data(),
    )
    @example(m=2187, k=2, data=None)
    @example(m=2997, k=3, data=None)
    def test_unlisted_matches_listed(self, tables200k, m, k, data):
        try:
            triple = canonical_triple(m, k, tables200k)
        except DomainError:  # colliding intervals at small m
            return
        units = units_of(m)[:8] if data is None else data.draw(
            st.lists(st.sampled_from(units_of(m)), min_size=1, max_size=8),
            label="units",
        )
        calls, prefix_grid = [], IntervalTriple.prefix_grid

        def spy(view, top):
            calls.append((id(view), top))
            return prefix_grid(view, top)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(IntervalTriple, "prefix_grid", spy)
            windowed = least_witnesses(units, triple)
        # one prefix grid per window and distinct view: d = 0 and d = 1
        # share it when the odd triple is the triple
        assert len(calls) == len(set(calls))
        assert not triple.i1.listed
        triple.class_grid, triple.i1.primes
        listed = least_witnesses(units, triple)
        assert [witness_key(w) for w in windowed] == [witness_key(w) for w in listed]
        assert [w.delta for w in windowed if w] == [w.delta for w in listed if w]


# odd moduli up to 1500: any odd m, the multiples of 3 (where d = 1 occurs)
# and the odd prime powers
ODD_PRIME_POWERS = [
    p**e for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for e in range(1, 8) if p**e <= 1500
]
MODULI = st.one_of(
    st.integers(0, 749).map(lambda i: 2 * i + 1),
    st.integers(0, 249).map(lambda i: 6 * i + 3),
    st.sampled_from(ODD_PRIME_POWERS),
)
# the reference routes loop over every prime triple, once per unit
CANONICAL_PRODUCT_CAP = 30_000


def check_batch(units, triple):
    """least_witnesses and direct_counts of `units` at once against the
    literal references, unit by unit."""
    for iv in triple:
        assert iv.least_per_class().tolist() == least_prime_per_class(
            iv.primes.tolist(), iv.modulus
        )
    witnesses = least_witnesses(units, triple)
    counts = direct_counts(units, triple)
    assert len(witnesses) == len(counts) == len(units)
    for a, w, j in zip(units, witnesses, counts):
        best = least_witness(a, triple)
        if best is None:
            assert w is None
        else:
            assert (w.a, w.delta) == (a, indicator_1am(a, triple.modulus))
            assert (w.n, (w.p1, w.p2, w.p3)) == best
        assert j == count_solutions_enumerate(a, triple)
    return witnesses, counts


class TestBatchedCore:
    """The scan's one pass over all units against the reference routes;
    a GRID_BLOCK of 7 entries spreads the units over several blocks."""

    @pytest.mark.parametrize("block", [intervals.GRID_BLOCK, 7])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_references(self, tables200k, block, data):
        m = data.draw(MODULI, label="m")
        units = data.draw(
            st.lists(st.sampled_from(units_of(m)), min_size=2, max_size=10),
            label="units",
        )
        triple = None
        if data.draw(st.booleans(), label="canonical"):
            k = data.draw(st.integers(2, 4), label="k")
            try:
                triple = canonical_triple(m, k, tables200k)
            except DomainError:  # colliding intervals at small m
                pass
            if triple is not None and triple.product > CANONICAL_PRODUCT_CAP:
                triple = None
        if triple is None:
            lo = data.draw(st.integers(0, 2000), label="lo")
            ivs = []
            for _ in range(3):
                width = data.draw(st.integers(1, 150))
                ivs.append(build_custom_interval(lo, lo + width, m, tables200k))
                lo += width + data.draw(st.integers(0, 100))
            triple = IntervalTriple(*data.draw(st.permutations(ivs), label="order"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "GRID_BLOCK", block)
            check_batch(units, triple)

    @pytest.mark.parametrize("block", [intervals.GRID_BLOCK, 7])
    @pytest.mark.parametrize(
        "bounds",
        [
            # I1 holds 2, which d = 1 units (a = 2 mod 3) must skip
            ((1, 40), (40, 120), (120, 300)),
            # (24, 28] holds no prime, so the class grid has an empty axis
            ((24, 28), (40, 120), (120, 300)),
        ],
    )
    def test_edge_triples(self, tables, bounds, block, monkeypatch):
        monkeypatch.setattr(intervals, "GRID_BLOCK", block)
        m = 45
        triple = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables) for lo, hi in bounds)
        )
        units = units_of(m)[::-1] + units_of(m)[:5]
        assert {indicator_1am(a, m) for a in units} == {0, 1}
        witnesses, counts = check_batch(units, triple)
        if triple.i1.size:
            assert triple.i1.primes[0] == 2
            assert any(witnesses)
        else:
            assert not triple.i1.count_vector.any()
            assert witnesses == [None] * len(units)
            assert counts == [0] * len(units)


    def test_one_unit_grid_read_in_row_chunks(self):
        # one unit's class grid at m = 1000003, k = 2 is 73 x 36,961 entries,
        # 41 GRID_BLOCKs; whole-grid tensors peaked at 83 MiB here, chunks of
        # x rows at about 17 MiB, with the same witness
        m = 1_000_003
        tables = build_sieve(intervals.interval_sieve_limit(m, 2))
        triple = canonical_triple(m, 2, tables)
        grid = triple.class_grid
        assert grid.x.size * grid.y.size > 40 * intervals.GRID_BLOCK
        tracemalloc.start()
        try:
            (w,) = least_witnesses([2], triple)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w.n, w.delta, w.p1, w.p2, w.p3) == (
            125_969_675_071_175_807, 0, 500_694_211, 500_179, 503
        )
        assert peak < 24 << 20


class TestExponentScan:
    def test_rows_and_summary(self):
        rows = exponent_scan([5, 9], a_sample="all", k=3)
        summary = cli._summarize(rows)
        assert summary["rows"] == len(rows) == 4 + 6
        assert [r["m"] for r in rows] == [5] * 4 + [9] * 6
        for r in rows:
            assert set(r) >= {
                "m", "a", "delta", "N", "N_exponent",
                "witness_n", "witness_exponent", "J_direct", "found",
            }
        assert summary["oracle_found"] == 10

    def test_sieve_sized_to_its_moduli(self):
        # m = 3, k = 2: oracle base primes to isqrt(27) + 1 = 6, I1 to 3^1.5
        assert scan_sieve_limit([3], 2) == 7
        assert exponent_scan([], a_sample=2, k=2) == []
        assert cli._summarize([]) == {
            "rows": 0, "oracle_found": 0, "witness_found": 0, "errors": 0
        }

    def test_a_sample_limit(self):
        rows = exponent_scan([45], a_sample=5, k=2)
        assert [r["a"] for r in rows] == units_of(45)[:5]
        assert [r["a"] for r in exponent_scan([51], a_sample=1)] == [1]

    @pytest.mark.parametrize("a_sample", [-2, 0, 2.5, "x", True])
    def test_bad_a_sample_rejected_before_sieving(self, a_sample, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"sieve of {limit} built")

        monkeypatch.setattr(search, "build_sieve", no_sieve)
        with pytest.raises(DomainError, match="a_sample must be 'all' or an int >= 1"):
            exponent_scan([51], a_sample=a_sample)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", True, None])
    def test_bad_jobs_rejected_before_sieving(self, jobs, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"sieve of {limit} built")

        monkeypatch.setattr(search, "build_sieve", no_sieve)
        with pytest.raises(DomainError, match="jobs must be an int >= 1"):
            exponent_scan([51], a_sample=1, jobs=jobs)

    def test_row_errors_propagate(self):
        # m = 3, k = 2 has colliding intervals: the row records the error
        rows = exponent_scan([3, 5], a_sample="all", k=2)
        bad = [r for r in rows if r["m"] == 3]
        assert all(
            r["error"] == "interval sets 1 and 2 share primes at m=3"
            and r["N"] is not None
            and r["witness_n"] is None
            and r["J_direct"] is None
            and not r["found"]
            for r in bad
        )
        assert cli._summarize(rows)["errors"] == len(bad)
        good = [r for r in rows if r["m"] == 5]
        assert all("error" not in r for r in good)
        assert any(r["found"] for r in good)

    def test_rejects_even_m(self):
        with pytest.raises(DomainError):
            exponent_scan([10], a_sample=1)

    def test_jobs_deterministic(self, monkeypatch):
        # three CPUs whatever the host has, so the real pool always runs
        monkeypatch.setattr(search, "_usable_cpus", lambda: 3)
        serial = exponent_scan(list(range(9, 30, 2)), a_sample=4, k=2, jobs=1)
        parallel = exponent_scan(list(range(9, 30, 2)), a_sample=4, k=2, jobs=3)
        assert serial == parallel
        assert cli._summarize(serial) == cli._summarize(parallel)

    def test_one_interval_triple_per_modulus(self, monkeypatch):
        built = []

        def build(*args, **kwargs):
            built.append(args[:2])
            return build_interval(*args, **kwargs)

        monkeypatch.setattr(search, "build_interval", build)
        exponent_scan([51, 53], a_sample=6, k=2)
        assert built == [(j, m) for m in (51, 53) for j in (1, 2, 3)]

    def test_one_class_grid_per_modulus(self, monkeypatch):
        # counts the builds behind the triple's own caching descriptor
        built = []
        cached = IntervalTriple.class_grid
        real = cached.func

        def counted(triple):
            built.append(triple.modulus)
            return real(triple)

        monkeypatch.setattr(cached, "func", counted)
        exponent_scan([51, 53], a_sample=6, k=2)
        assert built == [51, 53]

    def test_one_batched_pass_per_modulus(self, monkeypatch):
        # each modulus answers all its units in one call of each core, which
        # takes the target classes of the units
        calls = []

        def spy(name, fn):
            def counted(*args):
                calls.append((name, args[-1].modulus, list(args[-2])))
                return fn(*args)

            monkeypatch.setattr(search, name, counted)

        spy("least_solutions", search.least_solutions)
        spy("class_counts", search.class_counts)
        exponent_scan([51, 53], a_sample=6, k=2)
        targets = {
            m: [target_class(a, indicator_1am(a, m), m) for a in units_of(m)[:6]]
            for m in (51, 53)
        }
        assert sorted(calls) == sorted(
            (name, m, targets[m])
            for m in (51, 53)
            for name in ("least_solutions", "class_counts")
        )

    def test_workers_capped(self, monkeypatch):
        # a recording stand-in for the pool, which runs the tasks in-process;
        # both paths map the same per-modulus call, bound to the scan's sieve
        seen, mapped = [], []

        def recording_map(fn, *iterables):
            mapped.append((fn.func, fn.keywords["k"], fn.keywords["tables"].limit))
            return map(fn, *iterables)

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(recording_map)

        # exponent_scan imports the pool only when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(search, "map", recording_map, raising=False)
        monkeypatch.setattr(search, "_usable_cpus", lambda: 4)
        serial = exponent_scan([9, 11, 13], a_sample=2, k=3)
        assert exponent_scan([9, 11, 13], a_sample=2, k=3, jobs=1000) == serial
        bound = (search._scan_one_m, 3, scan_sieve_limit([9, 11, 13], 3))
        assert mapped == [bound, bound]
        exponent_scan(list(range(9, 30, 2)), a_sample=1, k=3, jobs=1000)
        assert seen == [3, 4]
        monkeypatch.setattr(search, "_usable_cpus", lambda: 1)
        exponent_scan([9, 11, 13], a_sample=2, k=3, jobs=1000)
        assert seen == [3, 4]

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        assert search._usable_cpus() == 2
        monkeypatch.delattr(search.os, "sched_getaffinity")
        monkeypatch.setattr(search.os, "cpu_count", lambda: None)
        assert search._usable_cpus() == 1

    def test_oracle_dominated_by_witness(self):
        rows = exponent_scan([51, 53], a_sample=6, k=2)
        for r in rows:
            if r["found"] and r["N"] is not None:
                assert r["witness_n"] >= r["N"]


# odd m up to 400: any odd m, the multiples of 3 (where d = 1 occurs) and
# the powers of 3
SCAN_MODULI = st.one_of(
    st.integers(1, 199).map(lambda i: 2 * i + 1),
    st.integers(0, 66).map(lambda i: 6 * i + 3),
    st.integers(1, 5).map(lambda j: 3**j),
)


class TestScanRowsMatchCheckedRoutes:
    """exponent_scan derives d and the target classes of its units once,
    unchecked; each row against the checked one-unit routes."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=SCAN_MODULI,
        k=st.integers(2, 4),
        a_sample=st.one_of(st.just("all"), st.integers(1, 30)),
    )
    # the canonical sets collide, so every row is an error row
    @example(m=3, k=2, a_sample="all")
    @example(m=13, k=4, a_sample=5)
    @example(m=243, k=2, a_sample="all")
    def test_rows(self, tables200k, m, k, a_sample):
        rows = exponent_scan([m], a_sample=a_sample, k=k)
        units = units_of(m)[: None if a_sample == "all" else a_sample]
        assert [(r["m"], r["a"]) for r in rows] == [(m, a) for a in units]
        try:
            triple, error = canonical_triple(m, k, tables200k), None
        except DomainError as exc:
            triple, error = None, str(exc)
        for row, a in zip(rows, units):
            n = oracle_N_multi([a], m, default_cap(m), tables200k)[a]
            assert (row["N"], row["N_exponent"]) == (n, exponent(n, m))
            assert row["delta"] == indicator_1am(a, m)
            if triple is None:
                assert row["error"] == error
                got = (row["witness_n"], row["witness_exponent"], row["J_direct"])
                assert got == (None, None, None) and row["found"] is False
                continue
            assert "error" not in row
            w = constructive_search(a, triple)
            assert row["found"] is (w is not None)
            assert row["witness_n"] == (w and w.n)
            assert row["witness_exponent"] == (w and w.exponent)
            assert row["J_direct"] == count_solutions_direct(a, triple)
