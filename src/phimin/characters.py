"""Dirichlet characters modulo an odd integer m.

The unit group (Z/mZ)* is represented through its prime-power components
p^a || m, each cyclic with a least primitive root (m odd), so a character
is just a vector of exponents on the component generators.  Values are
roots of unity exp(2*pi*i * t / T) with T = lcm of the component orders;
the numerator t is kept as an exact integer, and only the final
evaluation is floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import check_odd_modulus, primitive_root, trial_factorize
from .errors import DomainError


@dataclass(frozen=True)
class Component:
    """One cyclic factor of (Z/mZ)*: units mod prime^alpha."""

    prime: int
    alpha: int
    prime_power: int
    generator: int
    order: int


class UnitGroupContext:
    """Generators, orders, and discrete-log tables for (Z/mZ)*, m odd.

    Immutable after construction; safe to share across workers.
    """

    def __init__(self, modulus: int, components: Sequence[Component]):
        self.modulus = modulus
        self.components = tuple(components)
        self.orders = tuple(c.order for c in self.components)
        self.phi = math.prod(self.orders)
        self.value_order = math.lcm(*self.orders) if self.orders else 1
        self._build_tables()
        self._value_matrix: np.ndarray | None = None
        self._conductors: np.ndarray | None = None

    def _build_tables(self) -> None:
        m = self.modulus
        residues = np.arange(max(m, 1), dtype=np.int64)
        unit_mask = np.ones(max(m, 1), dtype=bool)
        dlogs = np.zeros((len(self.components), max(m, 1)), dtype=np.int64)
        for i, comp in enumerate(self.components):
            table = np.full(comp.prime_power, -1, dtype=np.int64)
            cur = 1
            for j in range(comp.order):
                table[cur] = j
                cur = cur * comp.generator % comp.prime_power
            local = table[residues % comp.prime_power]
            unit_mask &= local >= 0
            dlogs[i] = local
        dlogs[:, ~unit_mask] = 0
        self.unit_mask = unit_mask
        self.dlogs = dlogs
        T = self.value_order
        self.roots = np.exp(2j * np.pi * np.arange(T) / T)

    def units(self) -> np.ndarray:
        """Ascending unit residues (for m = 1 this is [0])."""
        return np.nonzero(self.unit_mask)[0]

    def value_matrix(self) -> np.ndarray:
        """Rows = characters in all_characters order, columns = residues.

        The dense phi(m) x m reference table; production paths use
        character sums over the discrete-log grid and values_at instead.
        """
        if self._value_matrix is None:
            self._value_matrix = np.vstack(
                [chi.value_vector() for chi in all_characters(self)]
            )
        return self._value_matrix

    def values_at(self, x: int) -> np.ndarray:
        """chi(x) for every character, in all_characters order.

        The angle numerators sum_i e_i * dlog_i(x) * (T / o_i) mod T are
        exact integers over the exponent grid; only the root lookup is
        floating point.
        """
        r = x % self.modulus
        if not self.unit_mask[r]:
            return np.zeros(self.phi, dtype=complex)
        T = self.value_order
        t = np.zeros(1, dtype=np.int64)
        for o, dlog in zip(self.orders, self.dlogs):
            step = int(dlog[r]) * (T // o) % T
            t = np.add.outer(t, np.arange(o, dtype=np.int64) * step % T).ravel() % T
        return self.roots[t]

    def conductors(self) -> np.ndarray:
        """Conductor of each character, in all_characters order: the
        component rule applied over every exponent vector at once."""
        if self._conductors is None:
            cond = np.ones(1, dtype=np.int64)
            for comp in self.components:
                local = _component_conductor(comp, np.arange(comp.order))
                cond = np.multiply.outer(cond, local).ravel()
            self._conductors = cond
        return self._conductors

    def __repr__(self) -> str:
        comps = [(c.prime_power, c.generator, c.order) for c in self.components]
        return f"UnitGroupContext(modulus={self.modulus}, components={comps})"


def build_unit_group(m: int) -> UnitGroupContext:
    """Unit-group context for odd m >= 1 (m = 1 gives the trivial group)."""
    check_odd_modulus(m)
    comps = []
    for p, a in trial_factorize(m).factors:
        pp = p**a
        g = primitive_root(p, a)
        comps.append(
            Component(prime=p, alpha=a, prime_power=pp, generator=g, order=pp - pp // p)
        )
    return UnitGroupContext(m, comps)


class DirichletCharacter:
    """A character mod m, stored as exponents on the component generators.

    chi(x) = exp(2*pi*i * sum_i e_i * dlog_i(x) / order_i) on units,
    0 off units.  The conductor is an exact integer operation on the
    exponent vector.
    """

    __slots__ = ("context", "exponents", "_conductor")

    def __init__(self, context: UnitGroupContext, exponents: Sequence[int]):
        if len(exponents) != len(context.components):
            raise DomainError("exponent vector length mismatch")
        self.context = context
        self.exponents = tuple(
            e % o for e, o in zip(exponents, context.orders)
        )
        self._conductor: int | None = None

    def __call__(self, x: int) -> complex:
        return complex(self.value_vector()[x % self.context.modulus])

    def value_vector(self) -> np.ndarray:
        """chi on residues 0..m-1 as a complex array: exact integer angle
        numerators t, then one lookup of exp(2*pi*i*t/T)."""
        ctx = self.context
        T = ctx.value_order
        t = np.zeros(max(ctx.modulus, 1), dtype=np.int64)
        for e, o, dlog in zip(self.exponents, ctx.orders, ctx.dlogs):
            t += e * (T // o) * dlog
        vals = ctx.roots[t % T]
        return np.where(ctx.unit_mask, vals, 0j)

    # -- group structure ------------------------------------------------

    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __repr__(self) -> str:
        return f"DirichletCharacter(mod {self.context.modulus}, exponents={self.exponents})"

    # -- conductor ------------------------------------------------------

    def conductor(self) -> int:
        """Least d | m with chi trivial on every unit = 1 (mod d),
        multiplicative across the components."""
        if self._conductor is None:
            self._conductor = math.prod(
                int(_component_conductor(comp, e))
                for comp, e in zip(self.context.components, self.exponents)
            )
        return self._conductor

    def is_primitive(self) -> bool:
        return self.conductor() == self.context.modulus


def _component_conductor(comp: Component, e: int | np.ndarray) -> np.ndarray:
    """Least p^beta such that the exponent-e character on this component
    is trivial on units congruent to 1 mod p^beta, elementwise over e.

    Those units form the subgroup generated by g^((p-1) p^(beta-1)), of
    order p^(alpha-beta), so the character is trivial there exactly when
    p^(alpha-beta) | e: the conductor is p^max(1, alpha - v_p(e)), and 1
    for e = 0 (mod order).
    """
    e = np.asarray(e, dtype=np.int64) % comp.order
    v = np.zeros(e.shape, dtype=np.int64)
    for j in range(1, comp.alpha):
        v += e % comp.prime**j == 0
    return np.where(e == 0, 1, comp.prime ** np.maximum(1, comp.alpha - v))


def all_characters(ctx: UnitGroupContext) -> list[DirichletCharacter]:
    """All phi(m) characters, ordered lexicographically by exponent
    vector; the principal character comes first."""
    return [
        DirichletCharacter(ctx, exps)
        for exps in itertools.product(*(range(o) for o in ctx.orders))
    ]


def psi_character(ctx: UnitGroupContext) -> DirichletCharacter:
    """The character mod m induced by the nontrivial character mod 3:
    +1 on x = 1 (mod 3), -1 on x = 2 (mod 3), 0 off units.  Defined only
    when 3 | m; it is the unique character of conductor 3."""
    if ctx.modulus % 3 != 0:
        raise DomainError(f"3 does not divide {ctx.modulus}")
    exps = [
        comp.order // 2 if comp.prime == 3 else 0 for comp in ctx.components
    ]
    return DirichletCharacter(ctx, exps)
