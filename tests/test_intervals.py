import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin.arith import log_integral_between
from phimin.characters import build_unit_group
from phimin.errors import BoundsError, DomainError
from phimin.intervals import (
    IntervalTriple,
    PrimeIntervalSet,
    SmallKWarning,
    build_custom_interval,
    build_interval,
    cardinality_prediction,
    character_sums_all,
    parseval_sum,
    require_disjoint,
    rho_closed_form,
    rho_definition,
)
from reference import dense_characters, shifted_prime_interval


def canonical(m, k, tables):
    with pytest.warns(SmallKWarning) if k < 10 else _nullcontext():
        return tuple(build_interval(j, m, k, tables) for j in (1, 2, 3))


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False


def interval_from_primes(primes, m):
    """Interval set built from an explicit prime list."""
    arr = np.array(sorted(primes), dtype=np.int64)
    counts = np.bincount((arr - 1) % m, minlength=m).astype(np.int64)
    return PrimeIntervalSet(
        index=None,
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

    def test_small_k_warns(self, tables):
        with pytest.warns(SmallKWarning):
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
        with pytest.warns(SmallKWarning):
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


def sorted_interval(values, m=7):
    """Interval set over an explicit sorted array, possibly empty."""
    arr = np.array(values, dtype=np.int64)
    return PrimeIntervalSet(
        index=None,
        lo=0.0,
        hi=0.0,
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
    return PrimeIntervalSet(None, 0.0, 0.0, m, np.empty(0, dtype=np.int64), counts)


odd_moduli = st.integers(0, 199).map(lambda i: 2 * i + 1)


class TestCharacterSumsFFT:
    """The grid FFT against the dense reference table."""

    @settings(max_examples=40, deadline=None)
    @given(m=odd_moduli, data=st.data())
    def test_matches_dense_table(self, m, data):
        ctx = build_unit_group(m)
        # classes off the units too: chi vanishes there on both routes
        counts = np.array(
            data.draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m)),
            dtype=np.int64,
        )
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
        counts[units] = data.draw(
            st.lists(st.integers(0, 1000), min_size=units.size, max_size=units.size)
        )
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
