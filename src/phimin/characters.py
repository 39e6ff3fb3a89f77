"""The unit group (Z/mZ)* of an odd modulus m and its Dirichlet characters.

(Z/mZ)* is the product of its prime-power components p^a || m, each
cyclic with a least primitive root (m odd), and a unit's discrete logs on
those generators place it on a grid of shape `orders`.  A character is a
point of the same grid, so every character-valued quantity is an array
over the grid: values at one residue, conductors, and (in `intervals`)
the character sums of a count vector, which are one FFT over it.  Angle
numerators are exact integers; only the final root-of-unity lookup is
floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arith import check_odd_modulus, primitive_root, trial_factorize


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

    The character order, used by every per-character array in phimin:
    the character with exponent vector e, 0 <= e_i < orders[i], is

        chi_e(x) = exp(2 pi i sum_i e_i dlog_i(x) / orders[i])

    on units and 0 off them, and the characters are the exponent grid of
    shape `orders` flattened in C order, so index 0 is the principal
    character and index i has exponents np.unravel_index(i, orders).

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
        """Dense phi(m) x m table: column x is values_at(x).

        No phimin path reads it; it stays only while bench/worker.py
        traces it by name, and goes with that tracing (ROADMAP item 1).
        """
        if self._value_matrix is None:
            columns = [self.values_at(x) for x in range(self.modulus)]
            self._value_matrix = np.stack(columns, axis=1)
        return self._value_matrix

    def values_at(self, x: int) -> np.ndarray:
        """chi(x) for every character, in the character order.

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
        """Conductor of each character, in the character order: the least
        d | m with chi trivial on every unit = 1 (mod d), the product of
        the component conductors."""
        if self._conductors is None:
            cond = np.ones(1, dtype=np.int64)
            for comp in self.components:
                cond = np.multiply.outer(cond, _component_conductors(comp)).ravel()
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


def _component_conductors(comp: Component) -> np.ndarray:
    """For each exponent e in 0..order-1, the least p^beta such that the
    exponent-e character on this component is trivial on units congruent
    to 1 mod p^beta.

    Those units form the subgroup generated by g^((p-1) p^(beta-1)), of
    order p^(alpha-beta), so the character is trivial there exactly when
    p^(alpha-beta) | e: the conductor is p^max(1, alpha - v_p(e)), and 1
    for e = 0 (mod order).
    """
    e = np.arange(comp.order, dtype=np.int64)
    v = np.zeros(e.shape, dtype=np.int64)
    for j in range(1, comp.alpha):
        v += e % comp.prime**j == 0
    return np.where(e == 0, 1, comp.prime ** np.maximum(1, comp.alpha - v))
