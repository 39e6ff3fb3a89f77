"""Shifted-prime interval sets and character sums over them.

An interval set holds the primes p in (lo, hi] with gcd(p-1, m) = 1
together with the residue count vector c[b] = #{p : p-1 = b (mod m)},
so the sums S(chi) = sum_p chi(p-1) over every character are one FFT of
the count vector.  A set over a sieve is listed when first read, and
can be read over any part of its bounds, or in ascending windows,
instead.  The canonical triple uses bounds m^(1+1/k), m, m^(1/k), and
its sets are disjoint because those bounds barely meet.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .arith import (
    check_odd_modulus,
    first_index,
    log_integral_between,
    trial_factorize,
    unit_inverses,
    unit_mask,
)
from .characters import UnitGroupContext, build_unit_group
from .errors import BoundsError, ConsistencyError, DomainError
from .sieve import SieveTables

PARSEVAL_REL_TOL = 1e-6
# most (unit, x, y) entries of a forced-class tensor held at once
GRID_BLOCK = 1 << 16


class PrimeIntervalSet:
    """Primes p in (lo, hi] with gcd(p - 1, m) = 1, ascending, and their
    residue counts c[b] = #{p : p - 1 = b (mod m)}.

    A set built over a sieve (`tables`, with `unit`, the unit mask of m)
    is listed when `primes` or `count_vector` is first read; it then
    keeps the list and lets go of the sieve and the mask.  Before that,
    `between` and `windows` read parts of it without listing it.  A set
    built from its primes is listed from the start, its count vector by
    default the counts of those primes; those primes too must lie in
    (lo, hi], which the disjointness check relies on.  The classes
    (p - 1) mod m are computed where they are read, never kept; `odd`
    reads the set without p = 2.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        modulus: int,
        primes: np.ndarray | None = None,
        count_vector: np.ndarray | None = None,
        *,
        tables: SieveTables | None = None,
        unit: np.ndarray | None = None,
    ) -> None:
        self.lo, self.hi, self.modulus = lo, hi, modulus
        self._primes, self._counts = primes, count_vector
        self._tables, self._unit = tables, unit

    @property
    def listed(self) -> bool:
        return self._primes is not None

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            self._primes = self._sieve(self.lo, self.hi)
            self._tables = self._unit = None  # a listed set reads neither
        return self._primes

    @property
    def count_vector(self) -> np.ndarray:
        if self._counts is None:
            self._counts = np.bincount(self.classes, minlength=self.modulus)
        return self._counts

    @property
    def classes(self) -> np.ndarray:
        """(p - 1) mod m of every prime, in the order of `primes`."""
        res = self.primes - 1
        res %= self.modulus
        return res

    @property
    def size(self) -> int:
        return int(self.primes.size)

    def _sieve(self, lo: float, hi: float) -> np.ndarray:
        """The primes p in (lo, hi] of the sieve with p - 1 a unit of m."""
        primes = self._tables.primes_in(lo, hi)
        res = primes - 1
        res %= self.modulus
        return primes[self._unit[res]]

    def between(self, lo: float, hi: float) -> np.ndarray:
        """The primes of the set in (lo, hi], read without listing it."""
        lo, hi = max(lo, self.lo), min(hi, self.hi)
        if not self.listed:
            return self._sieve(lo, hi)
        start, stop = np.searchsorted(self.primes, (lo, hi), "right")
        return self.primes[start:stop]

    def windows(self, width: int) -> Iterator[PrimeIntervalSet]:
        """The set as listed sets over ascending windows that cover
        (lo, hi]: a listed set is its one window; an unlisted one is read
        in windows of `width` integers from lo, each next one twice as
        wide, each sieved when the iteration reaches it."""
        if self.listed:
            # measured: doubling windows over a listed I1 slowed scans at m >= 3001
            yield self
            return
        lo, hi = math.floor(self.lo), math.floor(self.hi)
        while lo < hi:
            top = min(lo + width, hi)
            primes = self._sieve(lo, top)
            yield PrimeIntervalSet(lo, top, self.modulus, primes)
            lo, width = top, 2 * width

    def odd(self) -> PrimeIntervalSet:
        """The set over (max(lo, 2), hi], without the p = 2 a d = 1 witness
        may not use (phi(4 p) = 2 (p - 1) only for odd p): itself when
        lo >= 2, else a slice of a listed set, or an unlisted set over the
        same sieve and unit mask, so that reading it lists nothing."""
        if self.lo >= 2:
            return self
        primes = self.between(2, self.hi) if self.listed else None
        return PrimeIntervalSet(
            2, self.hi, self.modulus, primes, tables=self._tables, unit=self._unit
        )

    def least_per_class(self) -> np.ndarray:
        """Least prime in each class of p - 1 mod m, 0 for an empty class.
        The primes ascend, so a class's least prime is its first: one
        O(len + m) first_index."""
        primes = np.append(self.primes, 0)
        return primes[first_index(self.classes, self.modulus)]

    def occupied(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The occupied classes, ascending, their counts and least primes
        (the first of each class, as the primes ascend): one O(len log len)
        sort, nothing m long."""
        classes, first, counts = np.unique(
            self.classes, return_index=True, return_counts=True
        )
        return classes, counts, self.primes[first]


def require_disjoint(*intervals: PrimeIntervalSet) -> None:
    """The canonical intervals separate once m is large enough; at small
    m they can collide, which breaks the product structure, so it is an
    explicit error rather than an assumed threshold.

    Each set holds only primes in its bounds (lo, hi], so two sets can
    share a prime only where their bounds overlap: a pair whose bounds
    do not overlap is not read at all, and any other pair is read over
    the overlap only.  The smaller piece is then looked up in the larger
    one, O(s log L) with no hashing."""
    for (i, x), (j, y) in itertools.combinations(enumerate(intervals, 1), 2):
        lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
        if lo >= hi:
            continue
        small, large = sorted((x.between(lo, hi), y.between(lo, hi)), key=len)
        if not small.size:
            continue
        at = np.minimum(np.searchsorted(large, small), large.size - 1)
        if (large[at] == small).any():
            raise DomainError(
                f"interval sets {i} and {j} share primes at m={x.modulus}"
            )


def target_class(a: int, d: int, m: int) -> int:
    """t = a (1 + d)^-1 mod m: the class of (p1 - 1)(p2 - 1)(p3 - 1) that
    solves (1 + d)(p1 - 1)(p2 - 1)(p3 - 1) = a (mod m), so J(a) counts
    the triples of product class t."""
    return a * pow(1 + d, -1, m) % m


class ClassGrid(NamedTuple):
    """The forced-class grid of a triple, shared by the direct count and
    the witness search.  x and y are the occupied classes of p - 1 in I3
    and I2 (or a prefix of I2: IntervalTriple.prefix_grid), ascending,
    read from their primes (PrimeIntervalSet.occupied, never the count
    vectors), with prime counts cx, cy, least primes px, py (never 0) and
    inverses inv_x, inv_y mod m, so a target class t (see target_class)
    forces the class z = t inv_x inv_y of p1 - 1.  I1 is the widest
    interval of a canonical triple, so it has the most occupied classes,
    and the grid never reads it.  The d = 1 witnesses read the grid of
    IntervalTriple.odd."""

    modulus: int
    x: np.ndarray
    y: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    px: np.ndarray
    py: np.ndarray
    inv_x: np.ndarray
    inv_y: np.ndarray

    def forced(self, targets: Sequence[int], rows: slice = slice(None)) -> np.ndarray:
        """The class z[u, i, j] of p1 - 1 forced by the pair (x[i], y[j])
        for target class targets[u], i over `rows`, shape (units,
        |x[rows]|, |y|).  Every factor is below m and m^2 < 2^63."""
        m = self.modulus
        tx = np.array(targets, dtype=np.int64)[:, None] * self.inv_x[rows] % m
        z = tx[:, :, None] * self.inv_y
        z %= m
        return z

    def blocks(self, units: int) -> Iterator[tuple[slice, slice]]:
        """(units, rows) slices of 0..units-1 and of x whose forced tensors
        hold at most GRID_BLOCK entries: units over every row while one
        unit's grid fits, else one unit over chunks of rows, one at least."""
        size = self.x.size * self.y.size
        if size <= GRID_BLOCK:
            step = GRID_BLOCK // max(1, size)
            return ((slice(s, s + step), slice(None)) for s in range(0, units, step))
        step = max(1, GRID_BLOCK // self.y.size)
        chunks = [slice(r, r + step) for r in range(0, self.x.size, step)]
        return ((slice(u, u + 1), rows) for u in range(units) for rows in chunks)


@dataclass(frozen=True)
class IntervalTriple:
    """I1, I2, I3 over one modulus, checked once to share it and to be
    pairwise disjoint.  The product |I1||I2||I3| and the per-modulus
    tables (class grid, unit group, character sums) are built on first
    use and cached, so a scan never builds the character side; a search
    lists neither I1 nor I2, and reads uncached grids of I2's prefixes."""

    i1: PrimeIntervalSet
    i2: PrimeIntervalSet
    i3: PrimeIntervalSet

    def __post_init__(self) -> None:
        m = self.modulus
        for iv in (self.i2, self.i3):
            if iv.modulus != m:
                raise DomainError(f"interval modulus {iv.modulus} differs from {m}")
        require_disjoint(self.i1, self.i2, self.i3)

    @property
    def modulus(self) -> int:
        return self.i1.modulus

    def __iter__(self):
        return iter((self.i1, self.i2, self.i3))

    @functools.cached_property
    def product(self) -> int:
        return self.i1.size * self.i2.size * self.i3.size

    @functools.cached_property
    def class_grid(self) -> ClassGrid:
        """Built on first use, then shared by every unit a."""
        return self._grid(self.i2)

    def prefix_grid(self, top: float) -> ClassGrid:
        """The class grid of I3 and of the primes of I2 up to top, read
        without listing I2 (PrimeIntervalSet.between); class_grid itself
        once that is cached, or when top reaches the top of I2 or no prime."""
        if "class_grid" not in vars(self) and top < self.i2.hi:
            i2 = self.i2
            primes = i2.between(i2.lo, top)
            if primes.size:
                return self._grid(PrimeIntervalSet(i2.lo, top, i2.modulus, primes))
        return self.class_grid

    def _grid(self, i2: PrimeIntervalSet) -> ClassGrid:
        m = self.modulus
        if m * m >= 2**63:
            raise BoundsError(f"int64 class products would overflow at m={m}")
        (x, cx, px), (y, cy, py) = (iv.occupied() for iv in (self.i3, i2))
        inv = unit_inverses(np.concatenate((x, y)), m)
        return ClassGrid(m, x, y, cx, cy, px, py, inv[: x.size], inv[x.size :])

    @property
    def odd(self) -> IntervalTriple:
        """The triple of the odd sets (PrimeIntervalSet.odd), read by the
        d = 1 witnesses, with its own class grid; the triple itself when
        no set changes, which is not cached: a triple holding itself is a
        cycle, so each would wait for the cyclic garbage collector."""
        return self if self._odd is None else self._odd

    @functools.cached_property
    def _odd(self) -> IntervalTriple | None:
        sets = [iv.odd() for iv in self]
        return None if sets == list(self) else IntervalTriple(*sets)

    @functools.cached_property
    def unit_group(self) -> UnitGroupContext:
        return build_unit_group(self.modulus)

    @functools.cached_property
    def character_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """character_sums_all of I1, I2, I3: one FFT per interval."""
        return tuple(character_sums_all(self.unit_group, iv.count_vector) for iv in self)


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
    lo: float,
    hi: float,
    m: int,
    tables: SieveTables,
    unit: np.ndarray | None,
) -> PrimeIntervalSet:
    """The set over (lo, hi], unlisted; the modulus and the sieve limit
    are checked now, and `unit` (arith.unit_mask(m)) is built when None."""
    check_odd_modulus(m)
    if lo >= hi:
        return PrimeIntervalSet(lo, hi, m, np.empty(0, dtype=np.int64))
    tables.check_limit(hi)
    unit = unit_mask(m) if unit is None else unit
    return PrimeIntervalSet(lo, hi, m, tables=tables, unit=unit)


def build_interval(
    j: int, m: int, k: int, tables: SieveTables, unit: np.ndarray | None = None
) -> PrimeIntervalSet:
    """Canonical interval set I_j for modulus m and parameter k >= 2; a k
    below 10 only weakens the exponent 2 + 2/k, which the CLI's search and
    count point out, and the library does not warn.  `unit`, the unit
    mask of m, lets the intervals of one triple share it."""
    _check_k(k)
    lo, hi = interval_bounds(j, m, k)
    return _make_interval(lo, hi, m, tables, unit)


def build_custom_interval(
    lo: float, hi: float, m: int, tables: SieveTables
) -> PrimeIntervalSet:
    """Interval set over explicit bounds (lo, hi]."""
    return _make_interval(lo, hi, m, tables, None)


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
    for p, _ in trial_factorize(m):
        prod *= 1.0 - 1.0 / (p - 1)
    return log_integral_between(lo, hi) * prod


def character_sums_all(ctx: UnitGroupContext, counts: np.ndarray) -> np.ndarray:
    """S(chi) = sum_b counts[b] chi(b) for every character, in the
    character order of UnitGroupContext.

    S(chi_e) = sum_u c[u] exp(2 pi i sum_j e_j dlog_j(u) / o_j) is an
    unnormalised inverse DFT of the counts placed on the discrete-log
    grid of shape ctx.orders (the abelian-group FFT), each unit at its
    logs on the per-component tables (ctx.logs).  O(phi log phi) time and
    O(m) memory; classes off the units contribute nothing.
    """
    if len(counts) != ctx.modulus:
        raise DomainError(f"{len(counts)} counts for modulus {ctx.modulus}")
    if not ctx.components:  # m = 1: only the trivial character
        return np.array([counts.sum()], dtype=complex)
    units = ctx.units()
    grid = np.zeros(ctx.orders)
    grid[ctx.logs(units)] = counts[units]
    return np.fft.ifftn(grid, norm="forward").ravel()


def _primitive(ctx: UnitGroupContext) -> np.ndarray:
    """Mask of the primitive characters mod d = ctx.modulus (conductor d)."""
    if ctx.modulus <= 1:
        raise DomainError("rho is defined for conductors d > 1")
    return ctx.conductors() == ctx.modulus


def rho_definition(ctx: UnitGroupContext) -> np.ndarray:
    """The shifted-unit average sum_{v mod d} chi_0(v) chi(v-1) / phi(d) of
    every primitive character chi mod d, in the character order: the
    character sums of the indicator of the classes v - 1."""
    primitive = _primitive(ctx)
    shifted = np.bincount((ctx.units() - 1) % ctx.modulus, minlength=ctx.modulus)
    return character_sums_all(ctx, shifted)[primitive] / ctx.phi


def rho_closed_form(ctx: UnitGroupContext) -> np.ndarray:
    """Closed form mu(d) * chi(-1) * prod_{p | d} (p-1)^(-1) of every
    primitive character chi mod d, in the character order."""
    primitive = _primitive(ctx)
    comps = ctx.components
    if any(c.alpha >= 2 for c in comps):
        return np.zeros(int(primitive.sum()), dtype=complex)
    mu = -1 if len(comps) % 2 else 1
    prod = 1.0
    for c in comps:
        prod /= c.prime - 1
    return mu * ctx.values_at(-1)[primitive] * prod


def parseval_sum(interval: PrimeIntervalSet, ctx: UnitGroupContext) -> float:
    """sum_chi |S(chi)|^2, asserted equal to phi(m) * sum_b c[b]^2."""
    sums = character_sums_all(ctx, interval.count_vector)
    total = float(np.sum(np.abs(sums) ** 2))
    exact = ctx.phi * float(np.sum(interval.count_vector.astype(np.float64) ** 2))
    if not math.isclose(total, exact, rel_tol=PARSEVAL_REL_TOL, abs_tol=1e-9):
        raise ConsistencyError(
            f"Parseval identity violated: {total} vs {exact} (m={interval.modulus})"
        )
    return total

