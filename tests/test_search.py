import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin import intervals, search
from phimin.arith import trial_factorize
from phimin.counting import count_solutions_direct, direct_counts, indicator_1am
from phimin.errors import BoundsError, DomainError, EvenModulusError
from phimin.intervals import IntervalTriple, build_custom_interval, build_interval
from phimin.search import (
    DEFAULT_SEGMENT,
    FIRST_SEGMENT,
    canonical_triple,
    constructive_search,
    default_cap,
    exponent_scan,
    least_witnesses,
    oracle_N,
    oracle_N_multi,
    scan_sieve_limit,
    segment_phi,
)
from reference import (
    count_solutions_enumerate,
    euler_phi,
    least_witness,
    phi_table,
    prime_window,
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

    def test_bad_segment(self, tables):
        with pytest.raises(DomainError):
            segment_phi(10, 10, tables)

    def test_needs_base_primes(self):
        from phimin.sieve import build_sieve

        t = build_sieve(10)
        with pytest.raises(BoundsError):
            segment_phi(1, 1000, t)

    def test_end_past_int64_rejected(self, tables):
        # checked before the base primes, which this sieve lacks
        with pytest.raises(BoundsError, match="segment end .* exceeds 2\\^63"):
            segment_phi(2**63 - 10, 2**63 + 1, tables)


class TestOracle:
    def test_golden_values(self, tables):
        assert oracle_N(2, 3, 27, tables).N == 3
        assert oracle_N(3, 5, 125, tables).N == 15
        assert oracle_N(2, 5, 125, tables).N == 3
        assert oracle_N(4, 5, 125, tables).N == 5

    def test_a_equal_one_is_immediate(self, tables):
        for m in range(3, 100, 2):
            assert oracle_N(1, m, 5, tables).N == 1

    def test_not_found_reports_cap(self, tables):
        res = oracle_N(3, 5, 10, tables)  # N(3,5) = 15 > 10
        assert res.N is None and not res.found
        assert res.exponent is None
        assert res.cap == 10

    def test_exponent(self, tables):
        res = oracle_N(2, 3, 27, tables)
        assert abs(res.exponent - 1.0) < 1e-12

    def test_even_modulus_rejected(self, tables):
        with pytest.raises(EvenModulusError):
            oracle_N(3, 4, 100, tables)

    def test_reduced_class_required(self, tables):
        with pytest.raises(DomainError):
            oracle_N(3, 9, 100, tables)

    def test_bad_cap(self, tables):
        with pytest.raises(DomainError):
            oracle_N(1, 5, 0, tables)

    def test_multi_matches_single(self, tables):
        m = 45
        found = oracle_N_multi(units_of(m), m, default_cap(m), tables)
        for a in units_of(m):
            assert found[a] == oracle_N(a, m, default_cap(m), tables).N

    def test_minimality_rescan(self, tables200k, naive_phi):
        # independent route: phi(n) from factorizations over the prefix
        for m in (9, 25, 45):
            found = oracle_N_multi(units_of(m), m, default_cap(m), tables200k)
            assert all(n is not None for n in found.values())
            assert found == naive_first_hits(found, m, default_cap(m), naive_phi)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_naive_first_hits(self, tables200k, naive_phi, data):
        m = data.draw(st.integers(0, 199).map(lambda i: 2 * i + 1), label="m")
        a_values = data.draw(
            st.lists(st.sampled_from(units_of(m)), min_size=1, unique=True),
            label="a_values",
        )
        start = st.sampled_from(SEGMENT_STARTS)
        cap = data.draw(
            st.one_of(
                start,  # the first integer of a segment
                start.map(lambda c: c - 1),  # the last of the one before
                st.integers(1, NAIVE_LIMIT - 1),
            ),
            label="cap",
        )
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
        found = oracle_N_multi(units_of(m), m, default_cap(m), tables200k)
        assert found == naive_first_hits(found, m, default_cap(m), naive_phi)
        assert sizes == [256, 512, 1024, 1024, 1024]


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
            assert triple.class_grid.x.size == 0
            assert witnesses == [None] * len(units)
            assert counts == [0] * len(units)


class TestExponentScan:
    def test_rows_and_summary(self):
        rows, summary = exponent_scan([5, 9], a_sample="all", k=3)
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
        assert exponent_scan([], a_sample=2, k=2) == (
            [], {"rows": 0, "oracle_found": 0, "witness_found": 0, "errors": 0}
        )

    def test_a_sample_limit(self):
        rows, _ = exponent_scan([45], a_sample=5, k=2)
        assert [r["a"] for r in rows] == units_of(45)[:5]

    def test_row_errors_propagate(self):
        # m = 3, k = 2 has colliding intervals: the row records the error
        rows, summary = exponent_scan([3, 5], a_sample="all", k=2)
        bad = [r for r in rows if r["m"] == 3]
        assert all(
            r["error"] == "interval sets 1 and 2 share primes at m=3"
            and r["N"] is not None
            and r["witness_n"] is None
            and r["J_direct"] is None
            and not r["found"]
            for r in bad
        )
        assert summary["errors"] == len(bad)
        good = [r for r in rows if r["m"] == 5]
        assert all("error" not in r for r in good)
        assert any(r["found"] for r in good)

    def test_rejects_even_m(self):
        with pytest.raises(DomainError):
            exponent_scan([10], a_sample=1)

    def test_jobs_deterministic(self, monkeypatch):
        # three CPUs whatever the host has, so the real pool always runs
        monkeypatch.setattr(search, "_usable_cpus", lambda: 3)
        serial, s1 = exponent_scan(list(range(9, 30, 2)), a_sample=4, k=2, jobs=1)
        parallel, s2 = exponent_scan(list(range(9, 30, 2)), a_sample=4, k=2, jobs=3)
        assert serial == parallel
        assert s1 == s2

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
        # each modulus answers all its units in one call of each core
        calls = []

        def spy(name, fn):
            def counted(a_values, triple):
                calls.append((name, triple.modulus, list(a_values)))
                return fn(a_values, triple)

            monkeypatch.setattr(search, name, counted)

        spy("least_witnesses", search.least_witnesses)
        spy("direct_counts", search.direct_counts)
        exponent_scan([51, 53], a_sample=6, k=2)
        assert sorted(calls) == sorted(
            (name, m, units_of(m)[:6])
            for m in (51, 53)
            for name in ("least_witnesses", "direct_counts")
        )

    def test_workers_capped(self, monkeypatch):
        # a recording stand-in for the pool, which runs the tasks in-process
        seen = []

        class Pool:
            def __init__(self, max_workers, initializer, initargs):
                seen.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(search, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(search, "_WORKER_TABLES", None)
        monkeypatch.setattr(search, "_usable_cpus", lambda: 4)
        serial, _ = exponent_scan([9, 11, 13], a_sample=2, k=3)
        assert exponent_scan([9, 11, 13], a_sample=2, k=3, jobs=1000)[0] == serial
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
        rows, _ = exponent_scan([51, 53], a_sample=6, k=2)
        for r in rows:
            if r["found"] and r["N"] is not None:
                assert r["witness_n"] >= r["N"]
