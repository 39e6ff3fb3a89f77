"""Shifted-prime interval sets and character sums over them.

An interval set holds the primes p in (lo, hi] with gcd(p-1, m) = 1
together with the residue count vector c[b] = #{p : p-1 = b (mod m)},
so every character sum S(chi) = sum_p chi(p-1) costs O(m) instead of
O(|I|).  The canonical triple uses bounds m^(1+1/k), m, m^(1/k).
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .arith import log_integral_between, trial_factorize
from .characters import DirichletCharacter, UnitGroupContext
from .errors import BoundsError, ConsistencyError, DomainError
from .sieve import SieveTables

PARSEVAL_REL_TOL = 1e-6


class SmallKWarning(UserWarning):
    """k below 10 only weakens the asymptotics, not the identities."""


@dataclass(frozen=True)
class PrimeIntervalSet:
    """Primes p in (lo, hi] with gcd(p-1, m) = 1, ascending, plus residue
    counts."""

    index: int | None
    lo: float
    hi: float
    modulus: int
    primes: np.ndarray = field(repr=False)
    count_vector: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return int(self.primes.size)


def require_disjoint(*intervals: PrimeIntervalSet) -> None:
    """The canonical intervals separate once m is large enough; at small
    m they can collide, which breaks the product structure, so it is an
    explicit error rather than an assumed threshold.

    Each pair is decided by looking up the smaller sorted prime array in
    the larger one, O(s log L) with no hashing."""
    for (i, x), (j, y) in itertools.combinations(enumerate(intervals, 1), 2):
        small, large = sorted((x.primes, y.primes), key=len)
        if not small.size:
            continue
        at = np.minimum(np.searchsorted(large, small), large.size - 1)
        if (large[at] == small).any():
            raise DomainError(
                f"interval sets {i} and {j} share primes at m={x.modulus}"
            )


def first_index(residues: np.ndarray, m: int) -> np.ndarray:
    """Index of the first occurrence of each class 0..m-1 in `residues`,
    or len(residues) for a class that does not occur: one O(len) scatter-min."""
    first = np.full(m, residues.size)
    np.minimum.at(first, residues, np.arange(residues.size))
    return first


def smallest_per_class(primes: np.ndarray, m: int) -> np.ndarray:
    """Least prime in each class of p - 1 mod m, 0 for an empty class;
    the primes ascend, so that is the one at each class's first index."""
    return np.append(primes, 0)[first_index((primes - 1) % m, m)]


class ClassGrid(NamedTuple):
    """The forced-class table of a triple, shared by the direct count and
    the witness search.  I_axes[0] and I_axes[1] have the fewest occupied
    classes x and y of p - 1, and inv_xy = (x y)^-1 mod m, so the
    congruence forces the class z = a (1 + d)^-1 inv_xy of the third."""

    modulus: int
    axes: tuple[int, int, int]
    x: np.ndarray
    y: np.ndarray
    inv_xy: np.ndarray

    def forced(self, a: int, delta: int) -> np.ndarray:
        """The class z of I_axes[2] forced by each pair (x, y) for unit a."""
        m = self.modulus
        return a * pow(1 + delta, -1, m) % m * self.inv_xy % m


@dataclass(frozen=True)
class IntervalTriple:
    """I1, I2, I3 over one modulus, checked once to share it and to be
    pairwise disjoint; `product` is |I1||I2||I3|."""

    i1: PrimeIntervalSet
    i2: PrimeIntervalSet
    i3: PrimeIntervalSet
    modulus: int = field(init=False)
    product: int = field(init=False)

    def __post_init__(self) -> None:
        m = self.i1.modulus
        for iv in (self.i2, self.i3):
            if iv.modulus != m:
                raise DomainError(f"interval modulus {iv.modulus} differs from {m}")
        require_disjoint(self.i1, self.i2, self.i3)
        object.__setattr__(self, "modulus", m)
        object.__setattr__(self, "product", self.i1.size * self.i2.size * self.i3.size)

    def __iter__(self):
        return iter((self.i1, self.i2, self.i3))

    @functools.cached_property
    def class_grid(self) -> ClassGrid:
        """Built on first use, then shared by every unit a."""
        m = self.modulus
        if m * m >= 2**63:
            raise BoundsError(f"int64 class products would overflow at m={m}")
        ivs = tuple(self)
        occupied = [np.flatnonzero(iv.count_vector) for iv in ivs]
        axes = tuple(sorted(range(3), key=lambda j: occupied[j].size))
        x, y = (occupied[j] for j in axes[:2])
        inv_x, inv_y = (
            np.array([pow(int(b), -1, m) for b in c], dtype=np.int64) for c in (x, y)
        )
        return ClassGrid(m, axes, x, y, np.outer(inv_x, inv_y) % m)

    @functools.cached_property
    def least_primes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """smallest_per_class of I1, I2, I3, which only the search reads."""
        return tuple(smallest_per_class(iv.primes, self.modulus) for iv in self)


def _snap_root(m: int, num: int, den: int) -> float:
    """m**(num/den) with exact integer k-th roots snapped to the integer,
    so boundary primes are classified correctly."""
    x = float(m) ** (num / den)
    r = round(x)
    if r > 0 and r**den == m**num:
        return float(r)
    return x


def interval_bounds(j: int, m: int, k: int) -> tuple[float, float]:
    """(0.5*f_j(m), f_j(m)) with f_1, f_2, f_3 = m^(1+1/k), m, m^(1/k)."""
    if j == 1:
        hi = _snap_root(m, k + 1, k)
    elif j == 2:
        hi = float(m)
    elif j == 3:
        hi = _snap_root(m, 1, k)
    else:
        raise DomainError(f"interval index must be 1, 2 or 3, got {j}")
    return 0.5 * hi, hi


def _check_k(k: int) -> None:
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")


def interval_sieve_limit(m: int, k: int) -> int:
    """Sieve limit that covers the canonical triple: just above the top
    m^(1+1/k) of I1."""
    _check_k(k)
    return int(m ** (1 + 1 / k)) + 2


def _make_interval(
    index: int | None, lo: float, hi: float, m: int, tables: SieveTables
) -> PrimeIntervalSet:
    if m < 1 or m % 2 == 0:
        raise DomainError(f"modulus must be odd and positive, got {m}")
    if lo >= hi:
        primes = np.empty(0, dtype=np.int64)
    else:
        primes = tables.primes_in(lo, hi)
        shifted = (primes - 1) % m
        primes = primes[np.gcd(shifted, m) == 1]
    counts = np.bincount((primes - 1) % m, minlength=m).astype(np.int64)
    return PrimeIntervalSet(
        index=index, lo=lo, hi=hi, modulus=m, primes=primes, count_vector=counts
    )


def build_interval(j: int, m: int, k: int, tables: SieveTables) -> PrimeIntervalSet:
    """Canonical interval set I_j for modulus m and parameter k >= 2."""
    _check_k(k)
    if k < 10:
        warnings.warn(
            f"k={k} below 10: asymptotic exponents degrade, identities are unaffected",
            SmallKWarning,
            stacklevel=2,
        )
    lo, hi = interval_bounds(j, m, k)
    return _make_interval(j, lo, hi, m, tables)


def build_custom_interval(
    lo: float, hi: float, m: int, tables: SieveTables
) -> PrimeIntervalSet:
    """Interval set over explicit bounds (lo, hi]."""
    return _make_interval(None, lo, hi, m, tables)


def cardinality_prediction(j: int, m: int, k: int) -> float:
    """Main-term estimate of |I_j|:

        [Li(f_j(m)) - Li(0.5 f_j(m))] * prod_{p | m} (1 - 1/(p-1)),

    with Li endpoints clamped up to 2 (Li starts at 2 by convention).
    """
    if m < 3:
        raise DomainError(f"m must be >= 3, got {m}")
    lo, hi = interval_bounds(j, m, k)
    lo, hi = max(2.0, lo), max(2.0, hi)
    if hi <= lo:
        return 0.0
    prod = 1.0
    for p in trial_factorize(m).primes():
        prod *= 1.0 - 1.0 / (p - 1)
    return log_integral_between(lo, hi) * prod


def character_sum(chi: DirichletCharacter, interval: PrimeIntervalSet) -> complex:
    """S(chi) = sum_{p in I} chi(p-1), computed from the count vector."""
    if chi.context.modulus != interval.modulus:
        raise DomainError(
            f"character mod {chi.context.modulus} vs interval mod {interval.modulus}"
        )
    return complex(np.dot(chi.value_vector(), interval.count_vector))


def character_sums_all(
    ctx: UnitGroupContext, interval: PrimeIntervalSet
) -> np.ndarray:
    """S(chi) for every character at once (all_characters order).

    S(chi_e) = sum_u c[u] exp(2 pi i sum_j e_j dlog_j(u) / o_j) is an
    unnormalised inverse DFT of the counts placed on the discrete-log
    grid of shape ctx.orders, whose C-order flattening is the
    all_characters order (the abelian-group FFT).  O(phi log phi) time
    and O(m) memory; classes off the units contribute nothing.
    """
    if ctx.modulus != interval.modulus:
        raise DomainError("context and interval moduli differ")
    counts = interval.count_vector
    if not ctx.components:  # m = 1: only the trivial character
        return np.array([counts.sum()], dtype=complex)
    units = ctx.units()
    grid = np.zeros(ctx.orders)
    grid[tuple(ctx.dlogs[:, units])] = counts[units]
    return np.fft.ifftn(grid, norm="forward").ravel()


def rho_definition(chi_d: DirichletCharacter) -> complex:
    """The shifted-unit average sum_{v mod d} chi_0(v) chi_d(v-1) / phi(d),
    evaluated directly from its defining sum."""
    d = _require_primitive(chi_d)
    vals = chi_d.value_vector()
    units = chi_d.context.units()
    return complex(vals[(units - 1) % d].sum()) / chi_d.context.phi


def rho_closed_form(chi_d: DirichletCharacter) -> complex:
    """Closed form mu(d) * chi_d(-1) * prod_{p | d} (p-1)^(-1)."""
    d = _require_primitive(chi_d)
    comps = chi_d.context.components
    if any(c.alpha >= 2 for c in comps):
        return 0j
    mu = -1 if len(comps) % 2 else 1
    prod = 1.0
    for c in comps:
        prod /= c.prime - 1
    return mu * chi_d(-1) * prod


def _require_primitive(chi_d: DirichletCharacter) -> int:
    d = chi_d.context.modulus
    if d <= 1:
        raise DomainError("rho is defined for conductors d > 1")
    if not chi_d.is_primitive():
        raise DomainError(f"character mod {d} is not primitive")
    return d


def parseval_sum(interval: PrimeIntervalSet, ctx: UnitGroupContext) -> float:
    """sum_chi |S(chi)|^2, asserted equal to phi(m) * sum_b c[b]^2."""
    sums = character_sums_all(ctx, interval)
    total = float(np.sum(np.abs(sums) ** 2))
    exact = ctx.phi * float(np.sum(interval.count_vector.astype(np.float64) ** 2))
    if not math.isclose(total, exact, rel_tol=PARSEVAL_REL_TOL, abs_tol=1e-9):
        raise ConsistencyError(
            f"Parseval identity violated: {total} vs {exact} (m={interval.modulus})"
        )
    return total

