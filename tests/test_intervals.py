import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin import intervals
from phimin.arith import log_integral_between, unit_mask
from phimin.characters import build_unit_group
from phimin.counting import indicator_1am
from phimin.errors import BoundsError, DomainError
from phimin.intervals import (
    IntervalTriple,
    PrimeIntervalSet,
    build_custom_interval,
    build_interval,
    cardinality_prediction,
    character_sums_all,
    parseval_sum,
    require_disjoint,
    rho_closed_form,
    rho_definition,
    target_class,
)
from phimin.search import canonical_triple
from phimin.sieve import build_sieve
from reference import (
    class_grid_axes,
    dense_characters,
    least_prime_per_class,
    primes_upto,
    shifted_prime_interval,
)


def canonical(m, k, tables):
    return tuple(build_interval(j, m, k, tables) for j in (1, 2, 3))


def interval_from_primes(primes, m):
    """Interval set built from an explicit prime list."""
    arr = np.array(sorted(primes), dtype=np.int64)
    counts = np.bincount((arr - 1) % m, minlength=m).astype(np.int64)
    return PrimeIntervalSet(
        lo=float(arr.min() - 1),
        hi=float(arr.max()),
        modulus=m,
        primes=arr,
        count_vector=counts,
    )


class TestBuildInterval:
    def test_canonical_m5_k2(self, tables):
        i1, i2, i3 = canonical(5, 2, tables)
        assert i1.primes.tolist() == [7]  # 11 excluded: gcd(10, 5) = 5
        assert i2.primes.tolist() == [3, 5]
        assert i3.primes.tolist() == [2]

    def test_count_vectors(self, tables):
        _, i2, _ = canonical(5, 2, tables)
        assert i2.count_vector.tolist() == [0, 0, 1, 0, 1]
        assert i2.count_vector.sum() == i2.size

    def test_count_vector_zero_off_units(self, tables):
        for m in (9, 15, 45):
            iv = build_custom_interval(2, 500, m, tables)
            for b in range(m):
                if math.gcd(b, m) != 1:
                    assert iv.count_vector[b] == 0

    def test_small_k_does_not_warn(self, tables):
        # the k < 10 advice is the CLI's; the library stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_interval(2, 9, 2, tables)

    def test_k_below_two_rejected(self, tables):
        with pytest.raises(DomainError):
            build_interval(2, 9, 1, tables)

    def test_bad_index_rejected(self, tables):
        with pytest.raises(DomainError):
            build_interval(4, 9, 10, tables)

    def test_even_modulus_rejected(self, tables):
        with pytest.raises(DomainError):
            build_custom_interval(2, 20, 6, tables)

    def test_sieve_limit_enforced(self, tables):
        with pytest.raises(BoundsError):
            build_custom_interval(2, tables.limit + 10, 5, tables)

    def test_exact_square_boundary_included(self, tables):
        # f_3(9) = 3 for k = 2: the boundary prime 3 belongs to I_3
        i3 = build_interval(3, 9, 2, tables)
        assert i3.primes.tolist() == [2, 3]

    def test_custom_examples(self, tables):
        assert build_custom_interval(2, 10, 3, tables).primes.tolist() == [3, 5]
        assert build_custom_interval(0, 2, 9, tables).primes.tolist() == [2]
        assert build_custom_interval(10, 10, 9, tables).size == 0
        assert build_custom_interval(10, 3, 9, tables).size == 0

    # The `tables` fixture sieves to 3000.  No max_examples here, so the
    # hypothesis profile (the "ci" one from conftest) sets how hard it looks.
    @settings(deadline=None)
    @given(
        m=st.one_of(
            st.integers(0, 1500).map(lambda i: 2 * i + 1),
            # m = 1, prime powers, and multiples of 3
            st.sampled_from([1, 3, 81, 2187, 625, 343, 2197, 15, 105, 1155, 2835]),
        ),
        lo=st.one_of(st.integers(-1, 3000).map(float), st.floats(-1.0, 3000.0)),
        hi=st.one_of(st.integers(-1, 3000).map(float), st.floats(-1.0, 3000.0)),
    )
    @example(m=1, lo=0.0, hi=3000.0)  # every prime, ending at the sieve limit
    @example(m=3, lo=1.0, hi=2.0)  # only 2, whose p - 1 = 1 is a unit
    @example(m=9, lo=1.5, hi=10.0)  # straddles 2
    @example(m=2187, lo=-1.0, hi=3000.0)  # a prime power over the whole sieve
    @example(m=1155, lo=2999.0, hi=3000.0)  # an empty range at the limit
    @example(m=7, lo=10.0, hi=3.0)  # lo >= hi
    def test_matches_gcd_definition(self, tables, m, lo, hi):
        got = build_custom_interval(lo, hi, m, tables)
        want = shifted_prime_interval(lo, hi, m)
        assert got.primes.dtype == np.int64
        assert got.count_vector.dtype == np.int64
        np.testing.assert_array_equal(got.primes, want.primes)
        np.testing.assert_array_equal(got.count_vector, want.count_vector)
        np.testing.assert_array_equal(got.classes, want.classes)
        primes = want.primes.tolist()
        assert got.least_per_class().tolist() == least_prime_per_class(primes, m)
        # the odd set drops p = 2 alone
        odd = [p for p in primes if p != 2]
        assert got.odd().least_per_class().tolist() == least_prime_per_class(odd, m)


class TestReadingInPieces:
    """windows and between of a set over the sieve, against the set listed
    by primality tests, with the set left unlisted."""

    @settings(deadline=None)
    @given(
        m=st.one_of(
            st.integers(0, 1500).map(lambda i: 2 * i + 1),
            st.sampled_from([1, 3, 2187, 1155]),
        ),
        lo=st.one_of(st.integers(-1, 3000).map(float), st.floats(-1.0, 3000.0)),
        span=st.floats(0.0, 3000.0),
        width=st.integers(1, 300),
        low=st.one_of(st.integers(-1, 3000), st.floats(-1.0, 3000.0)),
        top=st.one_of(st.integers(-1, 3000), st.floats(-1.0, 3000.0)),
    )
    @example(m=9, lo=1.0, span=30.0, width=1, low=-1, top=2)  # 2 alone in the first window
    @example(m=7, lo=5.5, span=0.25, width=4, low=0, top=10)  # no integer in (lo, hi]
    @example(m=7, lo=1.0, span=100.0, width=4, low=50, top=20)  # low above top
    def test_match_listing(self, tables, m, lo, span, width, low, top):
        hi = min(lo + span, 3000.0)
        iv = build_custom_interval(lo, hi, m, tables)
        want = shifted_prime_interval(lo, hi, m).primes
        windows = list(iv.windows(width))
        np.testing.assert_array_equal(
            np.concatenate([w.primes for w in windows] + [want[:0]]), want
        )
        if lo < hi:
            assert not iv.listed
            # contiguous from floor(lo) to floor(hi), each twice as wide
            edges = [math.floor(lo)] + [w.hi for w in windows]
            assert [w.lo for w in windows] == edges[:-1]
            assert edges[-1] == max(math.floor(hi), math.floor(lo))
            for i, w in enumerate(windows[:-1]):
                assert w.hi - w.lo == width * 2**i
        inside = want[(want > low) & (want <= top)]
        np.testing.assert_array_equal(iv.between(low, top), inside)
        # reading a part of the set lists nothing
        assert iv.listed == (lo >= hi)
        np.testing.assert_array_equal(iv.primes, want)
        assert iv.listed and list(iv.windows(width)) == [iv]
        np.testing.assert_array_equal(iv.between(low, top), inside)


class TestOddSet:
    """odd() against the set over (max(lo, 2), hi] listed by primality
    tests, on a listed set and on an unlisted one, which it leaves
    unlisted."""

    @settings(deadline=None)
    @given(
        m=st.one_of(
            st.integers(0, 1500).map(lambda i: 2 * i + 1),
            st.sampled_from([1, 3, 9, 1155]),
        ),
        lo=st.sampled_from([-1.0, 0.0, 1.0, 1.5, 2.0, 2.5]),
        span=st.one_of(st.integers(0, 3000).map(float), st.floats(0.0, 3000.0)),
        listed=st.booleans(),
    )
    @example(m=3, lo=1.0, span=1.0, listed=False)  # only 2, which odd() drops
    @example(m=9, lo=1.5, span=0.25, listed=True)  # hi below 2
    @example(m=1, lo=2.0, span=3000.0, listed=False)  # lo = 2: the set itself
    def test_matches_definition(self, tables, m, lo, span, listed):
        hi = min(lo + span, 3000.0)
        iv = build_custom_interval(lo, hi, m, tables)
        if listed:
            iv.primes
        odd = iv.odd()
        assert (odd is iv) == (lo >= 2)
        assert (odd.lo, odd.hi, odd.modulus) == (max(lo, 2), hi, m)
        # odd() lists nothing
        assert odd.listed == iv.listed == (listed or lo >= hi)
        want = shifted_prime_interval(max(lo, 2), hi, m)
        np.testing.assert_array_equal(odd.primes, want.primes)
        np.testing.assert_array_equal(odd.count_vector, want.count_vector)
        assert 2 not in odd.primes
        # listing the odd set leaves the set as it was
        assert iv.listed == (listed or lo >= hi or odd is iv)
        np.testing.assert_array_equal(iv.primes[iv.primes != 2], want.primes)


def sorted_interval(values, m=7):
    """Interval set over an explicit sorted array of values in 0..41,
    possibly empty, with bounds (-1, 41] that hold every value."""
    arr = np.array(values, dtype=np.int64)
    return PrimeIntervalSet(
        lo=-1.0,
        hi=41.0,
        modulus=m,
        primes=arr,
        count_vector=np.bincount((arr - 1) % m, minlength=m).astype(np.int64),
    )


class TestRequireDisjoint:
    @settings(max_examples=300, deadline=None)
    @given(
        arrays=st.lists(
            st.lists(st.integers(0, 40), max_size=8, unique=True).map(sorted),
            min_size=2,
            max_size=3,
        )
    )
    @example(arrays=[[], []])
    @example(arrays=[[], [3, 5]])
    @example(arrays=[[7], [7]])
    @example(arrays=[[7], [2, 5, 11]])
    @example(arrays=[[41], [2, 5, 11]])
    @example(arrays=[[2, 3, 5], [5, 7, 11]])
    @example(arrays=[[5, 7, 11], [2, 3, 5]])
    @example(arrays=[[2, 3], [5, 7], [3, 11]])
    def test_matches_set_intersection(self, arrays):
        clash = next(
            (
                (i, j)
                for (i, x), (j, y) in itertools.combinations(enumerate(arrays, 1), 2)
                if set(x) & set(y)
            ),
            None,
        )
        ivs = [sorted_interval(a) for a in arrays]
        # the triple constructor sees two arrays with an empty third set
        padded = ivs + [sorted_interval([])] * (3 - len(ivs))
        for route in (lambda: require_disjoint(*ivs), lambda: IntervalTriple(*padded)):
            if clash is None:
                route()
            else:
                i, j = clash
                with pytest.raises(DomainError, match=f"interval sets {i} and {j} share"):
                    route()

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 60).map(lambda i: 2 * i + 1),
        bounds=st.lists(
            st.tuples(
                st.one_of(st.integers(-1, 600).map(float), st.floats(-1.0, 600.0)),
                st.floats(0.0, 600.0),
            ),
            min_size=2,
            max_size=3,
        ),
    )
    @example(m=1, bounds=[(1.0, 2.0), (1.5, 3.0)])  # 2 read from the overlap (1.5, 2]
    @example(m=3, bounds=[(10.0, 20.0), (20.0, 30.0)])  # bounds meet at 20 only
    @example(m=5, bounds=[(100.0, 50.0), (120.0, 10.0), (125.0, 30.0)])
    def test_unlisted_sets_match_set_intersection(self, tables, m, bounds):
        ivs = [build_custom_interval(lo, lo + span, m, tables) for lo, span in bounds]
        unlisted = [iv for iv in ivs if not iv.listed]
        clash = None
        try:
            require_disjoint(*ivs)
        except DomainError as exc:
            clash = str(exc)
        # the check reads pieces of the sets and lists none of them
        assert not any(iv.listed for iv in unlisted)
        want = next(
            (
                f"interval sets {i} and {j} share primes at m={m}"
                for (i, x), (j, y) in itertools.combinations(enumerate(ivs, 1), 2)
                if set(x.primes.tolist()) & set(y.primes.tolist())
            ),
            None,
        )
        assert clash == want


def one_prime_triple(m, short_counts=False):
    """I1, I2, I3 listed as the single primes 11, 7 and 3 mod m;
    `short_counts` gives each set a count vector that ends at its one
    class, not m long."""
    sets = []
    for p in (11, 7, 3):
        vector = np.bincount([p - 1]) if short_counts else None
        sets.append(PrimeIntervalSet(p - 1, p, m, np.array([p]), vector))
    return IntervalTriple(*sets)


class TestClassGridGuard:
    """class_grid multiplies residues below m in int64, so it needs
    m^2 < 2^63 and raises before any m-long count vector is read."""

    def test_raises_before_allocating(self):
        triple = one_prime_triple(3_037_000_501)  # the least odd m with m^2 >= 2^63
        tracemalloc.start()
        try:
            with pytest.raises(BoundsError):
                triple.class_grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_builds_just_inside(self):
        m = 3_037_000_499  # 13 * 233615423, the largest odd m with m^2 < 2^63
        assert m * m < 2**63 <= (m + 2) ** 2
        grid = one_prime_triple(m, short_counts=True).class_grid
        assert grid.x.tolist() == [2] and grid.y.tolist() == [6]
        inv_xy = [x * y % m for x in grid.inv_x.tolist() for y in grid.inv_y.tolist()]
        assert inv_xy == [pow(2 * 6, -1, m)] == [253_083_375]


PRIMES_3000 = primes_upto(3000)


@st.composite
def grid_sets(draw):
    """(m, I3 primes, I2 primes): odd m and two disjoint ascending lists of
    the primes below 3000 with p - 1 a unit of m, either possibly empty,
    either possibly holding 2, their classes in no particular order."""
    m = draw(st.one_of(
        st.integers(0, 1500).map(lambda i: 2 * i + 1),
        st.sampled_from([1, 3, 9, 15, 81, 2187, 625, 1155]),
    ))
    usable = [p for p in PRIMES_3000 if math.gcd(p - 1, m) == 1]
    picked = draw(st.lists(st.sampled_from(usable), unique=True))
    side = draw(st.lists(st.booleans(), min_size=len(picked), max_size=len(picked)))
    i3 = sorted(p for p, s in zip(picked, side) if s)
    i2 = sorted(p for p, s in zip(picked, side) if not s)
    return m, i3, i2


class TestClassGridAxes:
    """class_grid against the plain reference: a bincount of the classes,
    the first index of each class in the ascending primes, pow inverses."""

    @settings(max_examples=150, deadline=None)
    @given(case=grid_sets())
    @example(case=(9, [2, 3, 5, 11], [17, 23, 29]))  # 2 and 11 share class 1
    @example(case=(9, [], [2]))
    @example(case=(1, [2, 3], []))
    def test_matches_reference(self, case):
        m, *sets = case

        def triple_of(i3, i2):
            # both sets span the whole range: their primes, not their
            # bounds, are disjoint
            i3, i2 = (
                PrimeIntervalSet(0, 3000, m, np.array(s, dtype=np.int64))
                for s in (i3, i2)
            )
            i1 = PrimeIntervalSet(3000, 3001, m, np.empty(0, dtype=np.int64))
            return IntervalTriple(i1, i2, i3)

        def axes(grid):
            return [
                [a.tolist() for a in (grid.x, grid.cx, grid.px, grid.inv_x)],
                [a.tolist() for a in (grid.y, grid.cy, grid.py, grid.inv_y)],
            ]

        triple = triple_of(*sets)
        assert axes(triple.class_grid) == [list(a) for a in class_grid_axes(triple)]
        # no m-long count vector was built
        assert triple.i2._counts is None and triple.i3._counts is None
        # d = 1 drops p = 2: the odd triple's own grid, over the sets
        # without it, and never 0 as a least prime
        odd = triple_of(*([p for p in s if p != 2] for s in sets))
        assert axes(triple.odd.class_grid) == [list(a) for a in class_grid_axes(odd)]
        assert triple.odd is not triple  # both sets open at 0
        assert triple.odd.class_grid.px.all() and triple.odd.class_grid.py.all()

    def test_memory_at_large_m(self):
        # the grid holds its axes and nothing m long: one m-long int64
        # table alone would take 7.6 MiB at this m
        m = 1_000_003
        tables = build_sieve(intervals.interval_sieve_limit(m, 2))
        triple = canonical_triple(m, 2, tables)
        for iv in (triple.i2, triple.i3):
            iv.primes  # list both sets before measuring
        tracemalloc.start()
        try:
            grid = triple.class_grid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.x.size * grid.y.size > 40 * intervals.GRID_BLOCK
        assert peak < 4 << 20


class TestClassGridBlocks:
    """ClassGrid.blocks covers every (unit, x row) once, each chunk within
    GRID_BLOCK entries or one unit over one row."""

    @pytest.mark.parametrize(
        "shape,block",
        [
            ((3, 4), 7), ((3, 4), 12), ((3, 4), 13), ((5, 2), 100), ((0, 4), 7),
            ((9, 2), 1),
        ],
    )
    @pytest.mark.parametrize("units", [0, 1, 5])
    def test_chunks_cover_grid(self, shape, block, units, monkeypatch):
        monkeypatch.setattr(intervals, "GRID_BLOCK", block)
        rows, cols = shape
        # cx, cy, px, py, inv_x, inv_y: zeros as long as their axes
        axes = [np.zeros(n, dtype=np.int64) for n in (rows, cols) * 3]
        grid = intervals.ClassGrid(7, np.arange(rows), np.arange(cols), *axes)
        seen = []
        for us, xs in grid.blocks(units):
            u, x = range(units)[us], range(rows)[xs]
            assert len(u) and (len(x) or not rows)
            assert len(u) * len(x) * cols <= block or len(u) == len(x) == 1
            seen += itertools.product(u, x)
        assert sorted(seen) == list(itertools.product(range(units), range(rows)))
        assert len(seen) == len(set(seen))


class TestTargetClass:
    # odd m up to 463, the largest whose k = 2 triple fits a 10^4 sieve:
    # m = 1, powers of 3, multiples of 3, and any odd m
    moduli = st.one_of(
        st.just(1),
        st.integers(1, 5).map(lambda j: 3**j),
        st.integers(0, 76).map(lambda i: 6 * i + 3),
        st.integers(0, 231).map(lambda i: 2 * i + 1),
    )

    @settings(max_examples=60, deadline=None)
    @given(m=moduli)
    def test_target_solves_congruence_and_grid_forces_it(self, tables10k, m):
        grid = None
        if m != 3:  # the canonical sets of m = 3 collide at every k
            grid = canonical_triple(m, 2, tables10k).class_grid
        for a in np.flatnonzero(unit_mask(m)).tolist():
            d = indicator_1am(a, m)
            t = target_class(a, d, m)
            assert 0 <= t < m
            assert ((1 + d) * t - a) % m == 0
            if grid is not None:
                (z,) = grid.forced([t])
                assert (z * grid.x[:, None] * grid.y % m == t).all()


class TestCardinalityPrediction:
    def test_m5_j2_formula(self):
        li_5, li_25 = (log_integral_between(2.0, x) for x in (5, 2.5))
        want = (li_5 - li_25) * (1 - 1 / 4)
        assert abs(cardinality_prediction(2, 5, 2) - want) < 1e-12

    def test_clamped_lower_endpoint(self):
        # 0.5 * f_2(3) = 1.5 < 2 clamps to 2
        li_3, li_2 = (log_integral_between(2.0, x) for x in (3, 2))
        want = (li_3 - li_2) * (1 - 1 / 2)
        assert abs(cardinality_prediction(2, 3, 2) - want) < 1e-12

    def test_monotone_in_m(self):
        vals = [cardinality_prediction(2, m, 2) for m in (11, 101, 1001, 10001)]
        assert vals == sorted(vals)
        assert all(v > 0 for v in vals)

    def test_small_m_rejected(self):
        with pytest.raises(DomainError):
            cardinality_prediction(2, 1, 2)


def primitive_indices(ctx):
    """Positions of the primitive characters in the character order: the
    entries of rho_definition and rho_closed_form, in turn."""
    return np.flatnonzero(ctx.conductors() == ctx.modulus)


class TestCharacterSum:
    def test_principal_gives_size(self, tables):
        for m in (5, 9, 15):
            ctx = build_unit_group(m)
            iv = build_custom_interval(2, 400, m, tables)
            s = character_sums_all(ctx, iv.count_vector)[0]
            assert abs(s - iv.size) < 1e-9

    def test_hand_case_mod5(self):
        ctx = build_unit_group(5)
        iv = interval_from_primes([3, 7], 5)
        # the exponent-2 character: chi(2) + chi(1) = 0
        assert abs(character_sums_all(ctx, iv.count_vector)[2]) < 1e-12

    def test_empty_interval(self, tables):
        ctx = build_unit_group(5)
        iv = build_custom_interval(10, 5, 5, tables)
        assert character_sums_all(ctx, iv.count_vector)[0] == 0

    def test_modulus_mismatch(self, tables):
        ctx = build_unit_group(9)
        iv = build_custom_interval(2, 40, 15, tables)
        with pytest.raises(DomainError):
            character_sums_all(ctx, iv.count_vector)


class TestRho:
    def test_quadratic_mod5(self):
        ctx = build_unit_group(5)
        # the primitive characters mod 5 are exponents 1, 2, 3; 2 is quadratic
        assert primitive_indices(ctx).tolist() == [1, 2, 3]
        assert abs(rho_definition(ctx)[1] - (-0.25)) < 1e-12
        assert abs(rho_closed_form(ctx)[1] - (-0.25)) < 1e-12

    def test_primitive_mod9_vanishes(self):
        ctx = build_unit_group(9)
        definition, closed = rho_definition(ctx), rho_closed_form(ctx)
        assert definition.shape == closed.shape == (4,)  # 4 primitive characters
        assert np.all(np.abs(definition) < 1e-9)
        assert np.all(closed == 0)

    def test_mod15_closed_form(self):
        ctx = build_unit_group(15)
        # mu(15) = 1, (3-1)(5-1) = 8
        want = ctx.values_at(-1)[primitive_indices(ctx)] / 8
        assert np.all(np.abs(rho_definition(ctx) - want) < 1e-12)

    def test_closed_form_sweep_to_45(self):
        for d in range(3, 46, 2):
            ctx = build_unit_group(d)
            assert np.all(np.abs(rho_definition(ctx) - rho_closed_form(ctx)) < 1e-9)

    def test_magnitude_for_squarefree(self):
        for d in (15, 21, 33):
            ctx = build_unit_group(d)
            want = 1.0
            for c in ctx.components:
                want /= c.prime - 1
            assert np.all(np.abs(np.abs(rho_closed_form(ctx)) - want) < 1e-12)

    def test_rejects_imprimitive_and_trivial(self):
        # only primitive characters are evaluated: mod 9 the conductor-3
        # character (exponent 3) is not among them
        ctx = build_unit_group(9)
        assert primitive_indices(ctx).tolist() == [1, 2, 4, 5]
        assert rho_definition(ctx).size == rho_closed_form(ctx).size == 4
        ctx1 = build_unit_group(1)
        with pytest.raises(DomainError):
            rho_definition(ctx1)
        with pytest.raises(DomainError):
            rho_closed_form(ctx1)


class TestParseval:
    def test_hand_case(self):
        ctx = build_unit_group(5)
        iv = interval_from_primes([3, 5], 5)
        assert abs(parseval_sum(iv, ctx) - 8.0) < 1e-9

    def test_empty(self, tables):
        ctx = build_unit_group(9)
        iv = build_custom_interval(5, 4, 9, tables)
        assert parseval_sum(iv, ctx) == 0

    def test_singleton(self):
        for m in (9, 15):
            ctx = build_unit_group(m)
            iv = interval_from_primes([2], m)
            assert abs(parseval_sum(iv, ctx) - ctx.phi) < 1e-9

    def test_identity_grid(self, tables):
        for m in range(9, 106, 4):
            if m % 2 == 0:
                continue
            ctx = build_unit_group(m)
            for lo, hi in ((2, 3 * m), (m, 8 * m)):
                iv = build_custom_interval(float(lo), float(hi), m, tables)
                total = parseval_sum(iv, ctx)
                exact = ctx.phi * float((iv.count_vector**2).sum())
                assert abs(total - exact) <= 1e-6 * max(exact, 1.0)


def count_vector_interval(counts, m):
    """Interval set that carries only a count vector, for Parseval."""
    empty = np.empty(0, dtype=np.int64)
    return PrimeIntervalSet(0.0, 0.0, m, empty, counts)


odd_moduli = st.integers(0, 199).map(lambda i: 2 * i + 1)


class TestCharacterSumsFFT:
    """The grid FFT against the dense reference table."""

    @settings(max_examples=40, deadline=None)
    @given(m=odd_moduli, data=st.data())
    def test_matches_dense_table(self, m, data):
        ctx = build_unit_group(m)
        # classes off the units too: chi vanishes there on both routes; the
        # counts come from a drawn seed, so a failure shrinks fast
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts = rng.integers(0, 10**6, size=m, endpoint=True)
        got = character_sums_all(ctx, counts)
        want = dense_characters(ctx) @ counts
        assert got.shape == (ctx.phi,)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * max(counts.sum(), 1)

    @settings(max_examples=40, deadline=None)
    @given(m=odd_moduli, x=st.integers(-10**6, 10**6))
    def test_values_at_match_dense_columns(self, m, x):
        ctx = build_unit_group(m)
        v = dense_characters(ctx)
        non_units = [0, ctx.components[0].prime] if m > 1 else []
        for y in (x, 1, -1, *non_units):
            assert np.max(np.abs(ctx.values_at(y) - v[:, y % m])) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(m=odd_moduli, data=st.data())
    def test_parseval_random_counts(self, m, data):
        ctx = build_unit_group(m)
        counts = np.zeros(m, dtype=np.int64)
        units = ctx.units()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts[units] = rng.integers(0, 1000, size=units.size, endpoint=True)
        total = parseval_sum(count_vector_interval(counts, m), ctx)
        exact = ctx.phi * float((counts**2).sum())
        assert abs(total - exact) <= 1e-9 * max(exact, 1.0)

    def test_trivial_group(self):
        ctx = build_unit_group(1)
        assert character_sums_all(ctx, np.array([7], dtype=np.int64)).tolist() == [7]
        assert ctx.values_at(5).tolist() == [1]


def psi_column(ctx):
    """Position of psi, the one character of conductor 3."""
    (psi,) = np.flatnonzero(ctx.conductors() == 3)
    return psi


class TestPsiSumIdentity:
    def test_custom_intervals(self, tables):
        # intervals start above 3 so psi(p-1) = 1 for every member
        for m in (9, 15, 21, 33):
            ctx = build_unit_group(m)
            ivs = (
                build_custom_interval(2.0 * m, 4.0 * m, m, tables),
                build_custom_interval(float(m), 2.0 * m, m, tables),
                build_custom_interval(3.0, float(m), m, tables),
            )
            psi = psi_column(ctx)
            s = [character_sums_all(ctx, iv.count_vector)[psi] for iv in ivs]
            for iv, s_psi in zip(ivs, s):
                assert abs(s_psi - iv.size) < 1e-9
            product = ivs[0].size * ivs[1].size * ivs[2].size
            assert product > 0
            for a in range(1, m):
                if math.gcd(a, m) != 1:
                    continue
                delta = 1 if a % 3 == 2 else 0
                val = (
                    s[0] * s[1] * s[2]
                    * ctx.values_at(a)[psi].conjugate()
                    * ctx.values_at(1 + delta)[psi]
                )
                assert abs(val - product) < 1e-9

    def test_identity_fails_when_three_in_interval(self, tables):
        # p = 3 contributes psi(2) = -1, so the plain sum drops below |I|
        ctx = build_unit_group(15)
        iv = build_custom_interval(2.0, 8.0, 15, tables)
        assert 3 in iv.primes.tolist()
        s_psi = character_sums_all(ctx, iv.count_vector)[psi_column(ctx)]
        assert abs(s_psi - iv.size) > 1.0
