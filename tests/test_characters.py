import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phimin.arith import unit_mask
from phimin.characters import build_unit_group
from phimin.errors import BoundsError, EvenModulusError
from phimin.intervals import character_sums_all
from reference import dense_characters, discrete_logs, kernel_conductors


def units_of(m):
    return [x for x in range(1, m + 1) if math.gcd(x, m) == 1]


def grid_table(ctx):
    """phi(m) x m table of the grid route: column x is values_at(x)."""
    return np.stack([ctx.values_at(x) for x in range(ctx.modulus)], axis=1)


def assert_tables_zero_off_units(ctx):
    """dlogs[j] has length q_j and is 0 off the units of q_j."""
    for comp, table in zip(ctx.components, ctx.dlogs):
        q = comp.prime_power
        assert table.shape == (q,)
        assert not table[np.gcd(np.arange(q), q) > 1].any()


def index_of(ctx, exponents):
    """Position of the character with this exponent vector in the
    character order."""
    return int(np.ravel_multi_index(exponents, ctx.orders))


def psi_index(ctx):
    """Positions of the characters of conductor 3."""
    return np.flatnonzero(ctx.conductors() == 3)


class TestUnitGroup:
    def test_trivial_modulus(self):
        ctx = build_unit_group(1)
        assert ctx.components == ()
        assert ctx.phi == 1

    def test_prime_power(self):
        ctx = build_unit_group(9)
        assert [(c.prime_power, c.generator, c.order) for c in ctx.components] == [
            (9, 2, 6)
        ]

    def test_two_components(self):
        ctx = build_unit_group(15)
        assert [(c.prime_power, c.generator, c.order) for c in ctx.components] == [
            (3, 2, 2),
            (5, 2, 4),
        ]

    def test_even_rejected(self):
        with pytest.raises(EvenModulusError):
            build_unit_group(10)

    def test_generator_exponents_reproduce_units(self):
        for m in (9, 15, 21, 45):
            ctx = build_unit_group(m)
            for u in units_of(m):
                for comp, log in zip(ctx.components, ctx.logs(u % m)):
                    e = int(log)
                    assert pow(comp.generator, e, comp.prime_power) == u % comp.prime_power

    @settings(deadline=None)
    @given(m=st.integers(0, 499).map(lambda i: 2 * i + 1))
    @example(m=1)
    @example(m=3**7)
    @example(m=5**5)
    @example(m=3003)
    def test_dlogs_match_brute_force(self, m):
        # every unit of q_j lifts to a unit of m, so the logs at the units
        # and the zeros off the units of q_j pin each whole table
        ctx = build_unit_group(m)
        units = ctx.units()
        assert np.array(ctx.logs(units)).tolist() == discrete_logs(ctx)[:, units].tolist()
        assert_tables_zero_off_units(ctx)

    def test_build_holds_no_m_wide_logs(self):
        # 255255 = 3*5*7*11*13*17: six log tables of 3 to 17 entries beside
        # the m-byte unit mask; logs tiled to (6, m) int64 would take 12 MiB
        tracemalloc.start()
        try:
            build_unit_group(255_255)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        # 3037000507 is the least prime q with q^2 > 2^63 - 1, 3^20 the least
        # power of 3; one table mod q would take about 24 GB
        "m", [3_037_000_507, 3 * 3_037_000_507, 3**20],
    )
    def test_power_table_guard_allocates_nothing(self, m):
        tracemalloc.start()
        try:
            with pytest.raises(BoundsError):
                build_unit_group(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_orders_multiply_to_phi(self):
        for m in (1, 9, 15, 105, 225):
            ctx = build_unit_group(m)
            assert ctx.phi == len(units_of(m))
            assert math.prod(c.prime_power for c in ctx.components) == m


class TestAllCharacters:
    """Every character at once, in the character order."""

    @pytest.mark.parametrize("m,count", [(1, 1), (9, 6), (15, 8)])
    def test_counts(self, m, count):
        ctx = build_unit_group(m)
        table = grid_table(ctx)
        assert table.shape == (count, m)
        # pairwise distinct characters, the principal one first
        rows = {tuple(np.round(row, 9)) for row in table}
        assert len(rows) == count
        assert all(abs(table[0, u % m] - 1) < 1e-12 for u in units_of(m))

    def test_lexicographic_order(self):
        # the reference lists rows in itertools.product order of exponents
        ctx = build_unit_group(15)
        assert np.max(np.abs(grid_table(ctx) - dense_characters(ctx))) < 1e-12
        assert index_of(ctx, (1, 3)) == 7


class TestEval:
    def test_principal_is_one_on_units(self):
        for m in (9, 15, 45):
            ctx = build_unit_group(m)
            for u in units_of(m):
                assert abs(ctx.values_at(u)[0] - 1) < 1e-12

    def test_quadratic_mod5(self):
        ctx = build_unit_group(5)
        chi = index_of(ctx, (2,))
        assert abs(ctx.values_at(4)[chi] - 1) < 1e-12
        assert abs(ctx.values_at(2)[chi] + 1) < 1e-12
        assert abs(ctx.values_at(3)[chi] + 1) < 1e-12

    def test_zero_off_units(self):
        ctx = build_unit_group(15)
        assert not ctx.values_at(5).any()
        assert not ctx.values_at(0).any()

    def test_values_on_unit_circle(self):
        for m in (9, 21):
            mags = np.abs(grid_table(build_unit_group(m)))
            assert np.all((mags < 1e-12) | (np.abs(mags - 1) < 1e-12))

    def test_multiplicative_exhaustive(self):
        for m in range(3, 46, 2):
            ctx = build_unit_group(m)
            table = grid_table(ctx)
            us = units_of(m)
            for x in us:
                for y in us:
                    prod = table[:, x % m] * table[:, y % m]
                    assert np.max(np.abs(table[:, x * y % m] - prod)) < 1e-12

    def test_value_matrix_columns_are_values_at(self):
        ctx = build_unit_group(45)
        v = ctx.value_matrix()
        for x in range(-45, 90):
            assert np.array_equal(v[:, x % 45], ctx.values_at(x))


class TestConductor:
    def test_examples(self):
        assert build_unit_group(15).conductors()[0] == 1
        ctx9 = build_unit_group(9)
        assert ctx9.conductors()[index_of(ctx9, (3,))] == 3  # order 2
        assert ctx9.conductors()[index_of(ctx9, (2,))] == 9  # order 3

    def test_conductor_divides_modulus(self):
        for m in (9, 15, 45, 63):
            assert np.all(m % build_unit_group(m).conductors() == 0)

    def test_against_period_oracle(self):
        # conductor = least d | m such that chi is constant on unit
        # classes mod d
        for m in (9, 15, 45, 63):
            ctx = build_unit_group(m)
            table = grid_table(ctx)
            us = units_of(m)
            for chi, got in enumerate(ctx.conductors()):
                vec = table[chi]
                best = None
                for d in range(1, m + 1):
                    if m % d:
                        continue
                    constant = all(
                        abs(vec[x % m] - vec[y % m]) < 1e-12
                        for x in us
                        for y in us
                        if (x - y) % d == 0
                    )
                    if constant:
                        best = d
                        break
                assert got == best

    def test_vectorised_matches_per_character(self):
        # each character's conductor by the kernel definition, read off the
        # reference table
        for m in range(1, 226, 2):
            ctx = build_unit_group(m)
            want = kernel_conductors(ctx, dense_characters(ctx))
            assert ctx.conductors().tolist() == want.tolist()

    def test_kernel_definition_higher_prime_powers(self):
        # at prime powers with alpha >= 3 and their multiples
        for m in (27, 81, 125, 243, 343, 675, 1029):
            ctx = build_unit_group(m)
            want = kernel_conductors(ctx, dense_characters(ctx))
            assert ctx.conductors().tolist() == want.tolist()

    def test_primitive_counts_squarefree(self):
        # squarefree odd d has prod (p-2) primitive characters
        for d, expected in [(5, 3), (15, 3), (35, 15), (105, 15)]:
            assert np.count_nonzero(build_unit_group(d).conductors() == d) == expected


class TestPsi:
    """psi, the character of conductor 3, on the grid route."""

    def test_values_mod15(self):
        ctx = build_unit_group(15)
        (psi,) = psi_index(ctx)
        assert abs(ctx.values_at(2)[psi] + 1) < 1e-12
        assert abs(ctx.values_at(4)[psi] - 1) < 1e-12
        assert abs(ctx.values_at(7)[psi] - 1) < 1e-12
        assert ctx.values_at(5)[psi] == 0

    def test_requires_three_divides_m(self):
        for m in (5, 25, 35):
            assert psi_index(build_unit_group(m)).size == 0

    def test_unique_conductor_three_character(self):
        for m in (9, 15, 21, 45, 105):
            ctx = build_unit_group(m)
            half = [c.order // 2 if c.prime == 3 else 0 for c in ctx.components]
            assert psi_index(ctx).tolist() == [index_of(ctx, half)]

    def test_tracks_residue_mod_three(self):
        for m in (9, 21, 45):
            ctx = build_unit_group(m)
            (psi,) = psi_index(ctx)
            for u in units_of(m):
                want = 1 if u % 3 == 1 else -1
                assert abs(ctx.values_at(u)[psi] - want) < 1e-12


def test_orthogonality_all_odd_moduli_to_105():
    for m in range(1, 106, 2):
        ctx = build_unit_group(m)
        v = ctx.value_matrix()
        gram = v.conj().T @ v / ctx.phi
        us = np.nonzero(ctx.unit_mask)[0]
        want = np.zeros((len(us), len(us)))
        np.fill_diagonal(want, 1.0)
        assert np.max(np.abs(gram[np.ix_(us, us)] - want)) < 1e-9


# odd m up to 1200, powers of 3, odd prime powers with alpha >= 3, and
# multiples of 3
grid_moduli = st.one_of(
    st.integers(0, 599).map(lambda i: 2 * i + 1),
    st.integers(1, 6).map(lambda j: 3**j),
    st.sampled_from([27, 81, 125, 343, 625, 1331]),
    st.integers(0, 133).map(lambda i: 3 * (2 * i + 1)),
)


class TestGridAgainstReference:
    """Sums, values and conductors of the grid route against the dense
    table built from brute-force discrete logs."""

    @settings(max_examples=40, deadline=None)
    @given(m=grid_moduli, data=st.data())
    def test_grid_route(self, m, data):
        ctx = build_unit_group(m)
        table = dense_characters(ctx)
        # classes off the units too: chi vanishes there on both routes; the
        # counts come from a drawn seed, so a failure shrinks over m and
        # the seed only
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        counts = rng.integers(0, 10**6, size=m)
        got = character_sums_all(ctx, counts)
        assert got.shape == (ctx.phi,)
        scale = max(counts.sum(), 1)
        assert np.max(np.abs(got - table @ counts)) <= 1e-9 * scale
        x = data.draw(st.integers(-10**6, 10**6))
        for y in (x, 1, -1, 0, ctx.components[0].prime if m > 1 else 0):
            assert np.max(np.abs(ctx.values_at(y) - table[:, y % m])) < 1e-12
        assert ctx.conductors().tolist() == kernel_conductors(ctx, table).tolist()
        assert ctx.unit_mask.tolist() == unit_mask(m).tolist()
        assert_tables_zero_off_units(ctx)


# odd m, multiples of 3, powers of 3, and products of several prime powers
# with a square or higher among them, where each component's table is read
# at x mod q_j
layout_moduli = st.one_of(
    st.integers(0, 599).map(lambda i: 2 * i + 1),
    st.integers(0, 133).map(lambda i: 3 * (2 * i + 1)),
    st.integers(1, 8).map(lambda j: 3**j),
    st.sampled_from([45, 225, 675, 1575, 2475, 3375, 11025, 15435, 45045]),
)


@settings(max_examples=40, deadline=None)
@given(m=layout_moduli, seed=st.integers(0, 2**32 - 1))
@example(m=45045, seed=0)
@example(m=11025, seed=0)
def test_factorized_logs_match_reference(m, seed):
    """The per-component logs against brute-force discrete logs at the
    units, and the character sums against an FFT over the grid placed
    from those logs, bit for bit."""
    ctx = build_unit_group(m)
    units = ctx.units()
    want_logs = discrete_logs(ctx)[:, units]
    assert np.array(ctx.logs(units)).tolist() == want_logs.tolist()
    counts = np.random.default_rng(seed).integers(0, 10**6, size=m)
    got = character_sums_all(ctx, counts)
    if m == 1:
        assert got.tolist() == [counts.sum()]
        return
    grid = np.zeros(ctx.orders)
    grid[tuple(want_logs)] = counts[units]
    assert np.array_equal(got, np.fft.ifftn(grid, norm="forward").ravel())
