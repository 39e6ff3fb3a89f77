import math

import numpy as np
import pytest

from phimin.characters import (
    DirichletCharacter,
    all_characters,
    build_unit_group,
    principal_character,
    psi_character,
)
from phimin.errors import DomainError, EvenModulusError


def units_of(m):
    return [x for x in range(1, m + 1) if math.gcd(x, m) == 1]


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
                for comp, dlog in zip(ctx.components, ctx.dlogs):
                    e = int(dlog[u % m])
                    assert pow(comp.generator, e, comp.prime_power) == u % comp.prime_power

    def test_orders_multiply_to_phi(self):
        for m in (1, 9, 15, 105, 225):
            ctx = build_unit_group(m)
            assert ctx.phi == len(units_of(m))
            assert math.prod(c.prime_power for c in ctx.components) == m


class TestAllCharacters:
    @pytest.mark.parametrize("m,count", [(1, 1), (9, 6), (15, 8)])
    def test_counts(self, m, count):
        ctx = build_unit_group(m)
        chars = all_characters(ctx)
        assert len(chars) == count
        assert len({c.exponents for c in chars}) == count
        assert chars[0].is_principal()

    def test_lexicographic_order(self):
        ctx = build_unit_group(15)
        exps = [c.exponents for c in all_characters(ctx)]
        assert exps == sorted(exps)


class TestEval:
    def test_principal_is_one_on_units(self):
        for m in (9, 15, 45):
            chi0 = principal_character(build_unit_group(m))
            for u in units_of(m):
                assert abs(chi0(u) - 1) < 1e-12

    def test_quadratic_mod5(self):
        ctx = build_unit_group(5)
        chi = DirichletCharacter(ctx, [2])
        assert abs(chi(4) - 1) < 1e-12
        assert abs(chi(2) + 1) < 1e-12
        assert abs(chi(3) + 1) < 1e-12

    def test_zero_off_units(self):
        ctx = build_unit_group(15)
        for chi in all_characters(ctx):
            assert chi(5) == 0
            assert chi(0) == 0

    def test_values_on_unit_circle(self):
        for m in (9, 21):
            ctx = build_unit_group(m)
            for chi in all_characters(ctx):
                vec = chi.value_vector()
                mags = np.abs(vec)
                assert np.all((mags < 1e-12) | (np.abs(mags - 1) < 1e-12))

    def test_multiplicative_exhaustive(self):
        for m in range(3, 46, 2):
            ctx = build_unit_group(m)
            us = units_of(m)
            for chi in all_characters(ctx):
                vec = chi.value_vector()
                for x in us:
                    for y in us:
                        assert abs(vec[x * y % m] - vec[x % m] * vec[y % m]) < 1e-12

    def test_value_vector_matches_scalar(self):
        ctx = build_unit_group(45)
        for chi in all_characters(ctx)[:6]:
            vec = chi.value_vector()
            for x in range(45):
                assert abs(vec[x] - chi(x)) < 1e-15


class TestConductor:
    def test_examples(self):
        ctx15 = build_unit_group(15)
        assert principal_character(ctx15).conductor() == 1
        ctx9 = build_unit_group(9)
        order2 = DirichletCharacter(ctx9, [3])
        assert order2.conductor() == 3
        order3 = DirichletCharacter(ctx9, [2])
        assert order3.conductor() == 9

    def test_conductor_divides_modulus(self):
        for m in (9, 15, 45, 63):
            ctx = build_unit_group(m)
            for chi in all_characters(ctx):
                assert m % chi.conductor() == 0

    def test_against_period_oracle(self):
        # conductor = least d | m such that chi is constant on unit
        # classes mod d
        for m in (9, 15, 45, 63):
            ctx = build_unit_group(m)
            us = units_of(m)
            for chi in all_characters(ctx):
                vec = chi.value_vector()
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
                assert chi.conductor() == best

    def test_vectorised_matches_per_character(self):
        for m in range(1, 226, 2):
            ctx = build_unit_group(m)
            want = [chi.conductor() for chi in all_characters(ctx)]
            assert ctx.conductors().tolist() == want

    def test_kernel_definition_higher_prime_powers(self):
        # least d | m with chi = 1 on every unit = 1 (mod d), read off the
        # dense value table, at prime powers with alpha >= 3
        for m in (27, 81, 125, 243, 343, 675, 1029):
            ctx = build_unit_group(m)
            v = ctx.value_matrix()
            want = np.zeros(ctx.phi, dtype=np.int64)
            for d in sorted(d for d in range(1, m + 1) if m % d == 0):
                kernel = [u for u in range(1, m, d) if math.gcd(u, m) == 1]
                trivial = np.all(np.abs(v[:, kernel] - 1) < 1e-9, axis=1)
                want[(want == 0) & trivial] = d
            assert ctx.conductors().tolist() == want.tolist()

    def test_primitive_counts_squarefree(self):
        # squarefree odd d has prod (p-2) primitive characters
        for d, expected in [(5, 3), (15, 3), (35, 15), (105, 15)]:
            ctx = build_unit_group(d)
            n = sum(1 for chi in all_characters(ctx) if chi.is_primitive())
            assert n == expected


class TestPsi:
    def test_values_mod15(self):
        psi = psi_character(build_unit_group(15))
        assert abs(psi(2) + 1) < 1e-12
        assert abs(psi(4) - 1) < 1e-12
        assert abs(psi(7) - 1) < 1e-12
        assert psi(5) == 0

    def test_requires_three_divides_m(self):
        with pytest.raises(DomainError):
            psi_character(build_unit_group(5))

    def test_unique_conductor_three_character(self):
        for m in (9, 15, 21, 45, 105):
            ctx = build_unit_group(m)
            psi = psi_character(ctx)
            assert psi.conductor() == 3
            matches = [c.exponents for c in all_characters(ctx) if c.conductor() == 3]
            assert matches == [psi.exponents]

    def test_tracks_residue_mod_three(self):
        for m in (9, 21, 45):
            psi = psi_character(build_unit_group(m))
            for u in units_of(m):
                want = 1 if u % 3 == 1 else -1
                assert abs(psi(u) - want) < 1e-12


def test_orthogonality_all_odd_moduli_to_105():
    for m in range(1, 106, 2):
        ctx = build_unit_group(m)
        v = ctx.value_matrix()
        gram = v.conj().T @ v / ctx.phi
        us = np.nonzero(ctx.unit_mask)[0]
        want = np.zeros((len(us), len(us)))
        np.fill_diagonal(want, 1.0)
        assert np.max(np.abs(gram[np.ix_(us, us)] - want)) < 1e-9

