"""Least totient preimages: the exact oracle for the smallest n with
phi(n) = a (mod m), the three-prime constructive search for a solution
n = 4^d * p1 p2 p3, and exponent statistics log N / log m over scans.
The odd-modulus and reduced-class rules come from arith; this module
adds the oracle cap rule and the scan's m >= 3.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import check_odd_modulus, check_reduced_odd, first_index, unit_mask
# count_solutions_direct stays importable here: bench/worker.py traces it by name
from .counting import class_counts, count_solutions_direct, indicator_1am  # noqa: F401
from .errors import BoundsError, DomainError
from .intervals import (
    IntervalTriple,
    build_interval,
    interval_sieve_limit,
    target_class,
)
from .sieve import SieveTables, build_sieve

FIRST_SEGMENT = 1 << 12
# floor of I1's first window (_first_window): a narrower window would pay
# the sieve's loop over its base primes for too few integers
FIRST_WINDOW = 1 << 13
DEFAULT_SEGMENT = 1 << 20
INT64_MAX = 2**63 - 1


def exponent(n: int | None, m: int) -> float | None:
    """log n / log m, the exponent the paper bounds by 2 + o(1); None
    when there is no n or when m < 2."""
    if n is None or m < 2:
        return None
    return math.log(n) / math.log(m)


@dataclass(frozen=True)
class SearchWitness:
    """A constructed solution n = 4^delta * p1 p2 p3 of the congruence."""

    m: int
    a: int
    delta: int
    p1: int
    p2: int
    p3: int

    @property
    def n(self) -> int:
        return 4**self.delta * self.p1 * self.p2 * self.p3

    @property
    def exponent(self) -> float | None:
        return exponent(self.n, self.m)


def segment_phi(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """phi(n) for lo <= n < hi, vectorized over a segment.

    Needs hi <= 2^63, so that every n fits int64, and base primes up to
    sqrt(hi - 1); memory is O(hi - lo).  Past the same checks, a segment
    in 1..FIRST_SEGMENT copies a per-process constant (_first_phi), which
    a process serving many moduli computes once.
    """
    if lo < 1 or hi <= lo:
        raise DomainError(f"bad segment [{lo}, {hi})")
    if hi > 2**63:
        raise BoundsError(f"segment end {hi} exceeds 2^63: n would overflow int64")
    top = math.isqrt(hi - 1)
    if tables.limit < top:
        raise BoundsError(
            f"sieve limit {tables.limit} below sqrt({hi - 1}) = {top}"
        )
    first = _first_phi()
    if hi - 1 <= first.size:
        return first[lo - 1 : hi - 1].copy()
    return _strike(lo, hi, tables.primes_in(1, top))


@functools.cache
def _first_phi(size: int = FIRST_SEGMENT) -> np.ndarray:
    """phi(1..size), read-only, built on first use; size is fixed at import."""
    phi = _strike(1, size + 1, build_sieve(size).primes_in(1, math.isqrt(size)))
    phi.flags.writeable = False
    return phi


def _strike(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """phi(n), lo <= n < hi, from the primes up to sqrt(hi - 1): each
    prime p and each power p^e < hi is one strided slice of the segment."""
    rem = np.arange(lo, hi, dtype=np.int64)
    phi = np.ones(hi - lo, dtype=np.int64)
    for p in base.tolist():
        s = -lo % p
        phi[s::p] *= p - 1
        rem[s::p] //= p
        q = p * p
        while q < hi:
            s = -lo % q
            phi[s::q] *= p
            rem[s::q] //= p
            q *= p
    # rem is now 1 or one prime above sqrt(hi - 1); in place, no temporary
    rem -= 1
    phi *= np.maximum(rem, 1, out=rem)
    return phi


def check_cap(cap: int) -> None:
    """Reject an oracle cap below 1, or one the int64 stream cannot reach."""
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    if cap >= 2**63:
        raise BoundsError(f"cap {cap} does not fit the int64 totient stream")


def oracle_N_multi(
    a_values: Sequence[int], m: int, cap: int, tables: SieveTables
) -> dict[int, int | None]:
    """Least n <= cap with phi(n) = a (mod m) for every target a, keyed by
    a % m, in one streaming pass.  None means no n <= cap: a statement
    about the cap, never about nonexistence.

    The first segment holds FIRST_SEGMENT integers and each next one
    twice as many, up to DEFAULT_SEGMENT: until that ceiling the stream
    ends before 2 * max N + FIRST_SEGMENT integers, and memory stays
    O(DEFAULT_SEGMENT) at any cap.  One scatter-min pass per segment
    (first_index) finds the first hit of every class without sorting.
    The first segment is segment_phi's per-process constant.
    """
    check_cap(cap)
    check_odd_modulus(m)
    bad = [a for a in a_values if math.gcd(a, m) != 1]
    if bad:
        check_reduced_odd(bad[0], m)  # raises the reduced-class error
    targets = {a % m for a in a_values}
    found: dict[int, int | None] = {a: None for a in targets}
    wanted = np.zeros(m, dtype=bool)
    wanted[list(targets)] = True
    lo, size = 1, FIRST_SEGMENT
    while lo <= cap and wanted.any():
        hi = min(lo + size, cap + 1)
        first = first_index(segment_phi(lo, hi, tables) % m, m)
        hit = wanted & (first < hi - lo)
        at = np.flatnonzero(hit)
        found.update(zip(at.tolist(), (first[at] + lo).tolist()))
        wanted &= ~hit
        lo, size = hi, min(2 * size, DEFAULT_SEGMENT)
    return found


def canonical_triple(m: int, k: int, tables: SieveTables) -> IntervalTriple:
    """The checked canonical triple I1, I2, I3 for modulus m and k, over
    one unit mask of m; a k below 10 is valid and only weakens the
    exponent 2 + 2/k.  The intervals are listed when first read."""
    check_odd_modulus(m)
    unit = unit_mask(m)
    return IntervalTriple(*(build_interval(j, m, k, tables, unit) for j in (1, 2, 3)))


def constructive_search(a: int, triple: IntervalTriple) -> SearchWitness | None:
    """Least solution n = 4^d * p1 p2 p3 with p_j in I_j, or None when the
    congruence has no solution over the intervals: least_witnesses of
    one unit."""
    return least_witnesses([a], triple)[0]


def least_witnesses(
    a_values: Sequence[int], triple: IntervalTriple
) -> list[SearchWitness | None]:
    """constructive_search of every unit: least_solutions of their
    checked d (indicator_1am) and target classes."""
    m = triple.modulus
    deltas = [indicator_1am(a, m) for a in a_values]
    targets = [target_class(a, d, m) for a, d in zip(a_values, deltas)]
    return [
        None if w is None else SearchWitness(m, a, d, *w[1:])
        for a, d, w in zip(a_values, deltas, least_solutions(deltas, targets, triple))
    ]


def least_solutions(
    deltas: Sequence[int], targets: Sequence[int], triple: IntervalTriple
) -> list[tuple[int, int, int, int] | None]:
    """(n, p1, p2, p3) of the least solution n = 4^d p1 p2 p3 of each
    unit, given its d and its target class, or None; over the units x
    grid tensor.

    Each p_j of a solution can be swapped for the least prime of its
    class of p_j - 1, so the least n is the least product of class
    minima over the triple's forced-class grid; n fixes (p1, p2, p3)
    because the three sets are pairwise disjoint.  The grid's axes are
    I3 and I2, whose least primes it holds, and the least p1 of each
    forced class comes from I1 one window at a time (I1.windows: all of
    I1 at once when it is listed), merged over the windows read.  A d = 1
    witness takes odd primes only, so the d = 1 units read triple.odd and
    the odd part of each window (PrimeIntervalSet.odd).
    A window pays O(m) for its least primes per class however few primes
    it holds, so the first is _first_window(m) integers wide and each next
    one twice as wide; each is sieved once, its least primes read once per
    d.  A window with top B reads the grid of I3 and of the I2 primes up
    to Y = ceil((B + 1) L2 / L1) - 1, L_j the least integer of I_j, once
    per view (IntervalTriple.prefix_grid: the full grid at the last window
    or when no I2 prime is up to Y; a grid without I2 primes ends the d).
    One masked argmin per ClassGrid.blocks chunk finds every unit's least
    product, and one gather reads its primes.  A solution with p1 > B, or
    with p2 > Y, has n >= 4^d (B + 1) L2 p3 with p3 the least prime of I3,
    so a unit with a solution no larger reads no further window, and once
    every unit has one, the rest of I1 is never sieved nor I2 listed.
    """
    m = triple.modulus
    best: list[tuple[int, int, int, int] | None] = [None] * len(deltas)
    # per d: the units still open and the d's view of the triple (groups),
    # and its least p1 per class over the windows read so far (merged)
    groups, merged = {}, {}
    for delta in (0, 1):
        units = [u for u, d in enumerate(deltas) if d == delta]
        view = triple.odd if delta else triple
        if units and view.i3.size:
            groups[delta] = units, view
    last = math.floor(triple.i1.hi)
    windows = triple.i1.windows(_first_window(m))
    while groups and (window := next(windows, None)) is not None:
        b, grids = math.floor(window.hi), {}
        for delta, (units, view) in groups.items():
            scale = 4**delta
            fresh = (window.odd() if delta else window).least_per_class()
            least = merged.setdefault(delta, fresh)  # the first window's table
            np.copyto(least, fresh, where=least == 0)
            l1, l2 = (max(math.floor(iv.lo) + 1, 2) for iv in (view.i1, view.i2))
            y = math.inf if b >= last else -(-(b + 1) * l2 // l1) - 1
            grid = grids.get(view) or grids.setdefault(view, view.prefix_grid(y))
            top = int(grid.px.max()) * int(grid.py.max(initial=0))
            for s, rows in grid.blocks(len(units)) if top else ():
                block, px, py = units[s], grid.px[rows], grid.py
                pz = least[grid.forced([targets[u] for u in block], rows)]
                at = _least_hits(px, py, pz, scale * top)
                # a unit with no hit (at = -1) gathers the grid's last entry
                i, j = np.divmod(at, py.size)
                gathered = (at, pz[np.arange(len(at)), i, j], py[j], px[i])
                for u, hit, p1, p2, p3 in zip(block, *(p.tolist() for p in gathered)):
                    n = scale * p1 * p2 * p3
                    if hit >= 0 and (best[u] is None or n < best[u][0]):
                        best[u] = (n, p1, p2, p3)
            reach = scale * (b + 1) * l2 * int(grid.px.min())
            units[:] = [u for u in units if top and (not best[u] or best[u][0] > reach)]
        groups = {d: group for d, group in groups.items() if group[0]}
    return best


def _first_window(m: int) -> int:
    """Width of I1's first window: 2m integers, at least FIRST_WINDOW."""
    return max(FIRST_WINDOW, 2 * m)


def _least_hits(
    px: np.ndarray, py: np.ndarray, pz: np.ndarray, top: int
) -> np.ndarray:
    """_least_products of every unit's pz, with exact products: int64
    while every n fits below the empty-class mark 2^63 - 1, Python ints
    one unit at a time beyond.  top bounds px py."""
    bound = top * int(pz.max())
    if bound < INT64_MAX:
        return _least_products(px, py, pz, np.int64, INT64_MAX)
    return np.concatenate(
        [_least_products(px, py, u[None], object, bound + 1) for u in pz]
    )


def _least_products(
    px: np.ndarray, py: np.ndarray, pz: np.ndarray, dtype, empty: int
) -> np.ndarray:
    """Per unit u, the flat (x, y) index of the first least px py pz[u],
    or -1 when every class is empty.  An empty class has least prime 0,
    so its product is 0, and `empty`, above every product, replaces it."""
    px, py, pz = (p.astype(dtype, copy=False) for p in (px, py, pz))
    n = px[:, None] * py * pz
    n[n == 0] = empty
    n = n.reshape(len(n), -1)
    at = n.argmin(axis=1)
    at[n.min(axis=1) == empty] = -1
    return at


# -- scan ----------------------------------------------------------------

SCAN_FIELDS = (
    "m",
    "a",
    "delta",
    "N",
    "N_exponent",
    "witness_n",
    "witness_exponent",
    "J_direct",
    "found",
)


def default_cap(m: int) -> int:
    """m^3: comfortably above the conjectured truth at desk scale."""
    return m**3


def _sample_units(m: int, a_sample: int | str) -> list[int]:
    units = np.flatnonzero(unit_mask(m)).tolist()
    return units if a_sample == "all" else units[:a_sample]


def scan_sieve_limit(m_values: Iterable[int], k: int) -> int:
    """One sieve covering every modulus's oracle base primes and triple;
    the least sieve, limit 2, when there are no moduli."""
    return max(
        (
            max(math.isqrt(default_cap(m)) + 1, interval_sieve_limit(m, k))
            for m in m_values
        ),
        default=2,
    )


def _scan_one_m(
    m: int,
    a_values: Sequence[int],
    k: int,
    tables: SieveTables,
) -> list[dict]:
    """One row per unit a.  One oracle stream serves every unit, and
    least_solutions and class_counts answer all of them in one pass over
    the triple's class grid.  Each unit's d (indicator_1am) and target
    class are derived once here for both; the a are units of m
    (_sample_units), so indicator_1am's check never fires.  When
    the canonical triple fails its check (the intervals collide at small
    m), every row carries the error instead of a witness and a count."""
    oracle = oracle_N_multi(a_values, m, default_cap(m), tables)
    try:
        triple, error = canonical_triple(m, k, tables), {}
    except DomainError as exc:
        triple, error = None, {"error": str(exc)}
    deltas = [indicator_1am(a, m) for a in a_values]
    solutions = counts = [None] * len(a_values)
    if triple is not None:
        targets = [target_class(a, d, m) for a, d in zip(a_values, deltas)]
        # the count lists I1, so the search reads it as one window
        counts = class_counts(targets, triple)
        solutions = least_solutions(deltas, targets, triple)
    rows = []
    for a, d, solution, j in zip(a_values, deltas, solutions, counts):
        n, w_n = oracle[a % m], solution and solution[0]
        rows.append({
            "m": m, "a": a, "delta": d, "N": n, "N_exponent": exponent(n, m), **error,
            "witness_n": w_n, "witness_exponent": exponent(w_n, m), "J_direct": j,
            "found": solution is not None,
        })
    return rows


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def exponent_scan(
    m_values: Sequence[int],
    a_sample: int | str = "all",
    k: int = 2,
    jobs: int = 1,
) -> list[dict]:
    """Oracle N, witness n, and their exponents for every (m, a) row, with
    a the first `a_sample` units of m ("all" or an int >= 1).

    Every modulus runs the same call over one sieve, here or in one of up
    to `jobs` workers (an int >= 1; at most one per modulus and per CPU),
    and rows keep input order regardless of `jobs`; per-row domain errors
    are recorded in the row instead of aborting the scan.
    """
    if a_sample != "all" and (type(a_sample) is not int or a_sample < 1):
        raise DomainError(f"a_sample must be 'all' or an int >= 1, got {a_sample!r}")
    if type(jobs) is not int or jobs < 1:
        raise DomainError(f"jobs must be an int >= 1, got {jobs!r}")
    for m in m_values:
        check_odd_modulus(m)
        if m < 3:
            raise DomainError(f"scan moduli must be odd and >= 3, got {m}")
    tables = build_sieve(scan_sieve_limit(m_values, k))
    scan = functools.partial(_scan_one_m, k=k, tables=tables)
    units = [_sample_units(m, a_sample) for m in m_values]
    jobs = min(jobs, len(m_values), _usable_cpus())
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_m = list(pool.map(scan, m_values, units))
    else:
        per_m = list(map(scan, m_values, units))
    return [row for group in per_m for row in group]
