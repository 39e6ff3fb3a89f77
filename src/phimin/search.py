"""Least totient preimages: the exact oracle for the smallest n with
phi(n) = a (mod m), the three-prime constructive search for a solution
n = 4^d * p1 p2 p3, and exponent statistics log N / log m over scans.
The odd-modulus and reduced-class rules come from arith; this module
adds the oracle cap rule and the scan's m >= 3.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .arith import check_odd_modulus, check_reduced_odd
# count_solutions_direct stays importable here: bench/worker.py traces it by name
from .counting import count_solutions_direct, direct_counts, indicator_1am  # noqa: F401
from .errors import BoundsError, DomainError
from .intervals import (
    IntervalTriple,
    SmallKWarning,
    build_interval,
    first_index,
    interval_sieve_limit,
    smallest_per_class,
)
from .sieve import SieveTables, build_sieve

FIRST_SEGMENT = 1 << 12
DEFAULT_SEGMENT = 1 << 20
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the brute-force scan for N(a, m) up to `cap`.

    N is None when no n <= cap satisfies the congruence; that is a
    statement about the cap, never about nonexistence.
    """

    m: int
    a: int
    cap: int
    N: int | None

    @property
    def found(self) -> bool:
        return self.N is not None

    @property
    def exponent(self) -> float | None:
        if self.N is None or self.m < 2:
            return None
        return math.log(self.N) / math.log(self.m)


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
        if self.m < 2:
            return None
        return math.log(self.n) / math.log(self.m)


def segment_phi(lo: int, hi: int, tables: SieveTables) -> np.ndarray:
    """phi(n) for lo <= n < hi, vectorized over a segment.

    Needs hi <= 2^63, so that every n fits int64, and base primes up to
    sqrt(hi - 1); memory is O(hi - lo).  Each prime p and each power
    p^e < hi is one strided slice of the segment.
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
    rem = np.arange(lo, hi, dtype=np.int64)
    phi = np.ones(hi - lo, dtype=np.int64)
    for p in tables.primes[: np.searchsorted(tables.primes, top, "right")].tolist():
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


def oracle_N(a: int, m: int, cap: int, tables: SieveTables) -> OracleResult:
    """Least n <= cap with phi(n) = a (mod m), by streaming scan."""
    found = oracle_N_multi([a], m, cap, tables)
    return OracleResult(m=m, a=a, cap=cap, N=found[a % m])


def oracle_N_multi(
    a_values: Sequence[int], m: int, cap: int, tables: SieveTables
) -> dict[int, int | None]:
    """One streaming pass serving several targets a for the same m.

    The first segment holds FIRST_SEGMENT integers and each next one
    twice as many, up to DEFAULT_SEGMENT: until that ceiling the stream
    ends before 2 * max N + FIRST_SEGMENT integers, and memory stays
    O(DEFAULT_SEGMENT) at any cap.  One scatter-min pass per segment
    (first_index) finds the first hit of every class without sorting.
    """
    check_cap(cap)
    targets = set()
    for a in a_values:
        check_reduced_odd(a, m)
        targets.add(a % m)
    found: dict[int, int | None] = {a: None for a in targets}
    wanted = np.zeros(m, dtype=bool)
    wanted[list(targets)] = True
    lo, size = 1, FIRST_SEGMENT
    while lo <= cap and wanted.any():
        hi = min(lo + size, cap + 1)
        first = first_index(segment_phi(lo, hi, tables) % m, m)
        hit = wanted & (first < hi - lo)
        for a in np.flatnonzero(hit).tolist():
            found[a] = lo + int(first[a])
        wanted &= ~hit
        lo, size = hi, min(2 * size, DEFAULT_SEGMENT)
    return found


def canonical_triple(m: int, k: int, tables: SieveTables) -> IntervalTriple:
    """The checked canonical triple I1, I2, I3 for modulus m and k."""
    return IntervalTriple(*(build_interval(j, m, k, tables) for j in (1, 2, 3)))


def constructive_search(a: int, triple: IntervalTriple) -> SearchWitness | None:
    """Least solution n = 4^d * p1 p2 p3 with p_j in I_j, or None when the
    congruence has no solution over the intervals: least_witnesses of
    one unit."""
    return least_witnesses([a], triple)[0]


def least_witnesses(
    a_values: Sequence[int], triple: IntervalTriple
) -> list[SearchWitness | None]:
    """constructive_search of every unit, over the units x grid tensor.

    Each p_j of a solution can be swapped for the least prime of its
    class of p_j - 1, so the least n is the least product of class
    minima over the triple's forced-class grid; n fixes (p1, p2, p3)
    because the three sets are pairwise disjoint.  One masked argmin per
    block of GRID_BLOCK entries of one d finds every unit's first least
    product in the C order of the (x, y) grid.
    """
    m = triple.modulus
    deltas = [indicator_1am(a, m) for a in a_values]
    grid = triple.class_grid
    found: list[SearchWitness | None] = [None] * len(deltas)
    if not (grid.x.size and grid.y.size):
        return found
    for delta in (0, 1):
        units = [u for u, d in enumerate(deltas) if d == delta]
        if not units:
            continue
        smallest = list(triple.least_primes)
        if delta:
            # 4^1 shares the factor 2 with p_j = 2, so such triples are not
            # phi-witnesses even when they satisfy the formal congruence.
            for j, iv in enumerate(triple):
                if iv.size and iv.primes[0] == 2:
                    smallest[j] = smallest_per_class(iv.primes[1:], m)
        sx, sy, sz = (smallest[j] for j in grid.axes)
        px, py = sx[grid.x], sy[grid.y]
        top = 4**delta * int(px.max()) * int(py.max())
        for s in grid.blocks(len(units)):
            block = units[s]
            pz = sz[grid.forced([a_values[u] for u in block], [delta] * len(block))]
            # exact products: int64 while every n fits below the empty-class
            # mark 2^63 - 1, Python ints one unit at a time beyond
            bound = top * int(pz.max())
            if bound < INT64_MAX:
                hits = _least_products(px, py, pz, np.int64, INT64_MAX)
            else:
                hits = [
                    _least_products(px, py, pz[b : b + 1], object, bound + 1)[0]
                    for b in range(len(block))
                ]
            for b, (u, hit) in enumerate(zip(block, hits)):
                if hit is None:
                    continue
                i, j = divmod(hit, py.size)
                at = dict(zip(grid.axes, (px[i], py[j], pz[b, i, j])))
                p1, p2, p3 = (int(at[axis]) for axis in range(3))
                found[u] = SearchWitness(
                    m=m, a=a_values[u], delta=delta, p1=p1, p2=p2, p3=p3
                )
    return found


def _least_products(
    px: np.ndarray, py: np.ndarray, pz: np.ndarray, dtype, empty: int
) -> list[int | None]:
    """Per unit u, the flat (x, y) index of the first least px py pz[u],
    or None when every class is empty.  An empty class has least prime 0,
    so its product is 0, and `empty`, above every product, replaces it."""
    px, py, pz = (p.astype(dtype, copy=False) for p in (px, py, pz))
    n = px[:, None] * py * pz
    n[n == 0] = empty
    n = n.reshape(len(n), -1)
    return [
        None if low == empty else at
        for at, low in zip(n.argmin(axis=1).tolist(), n.min(axis=1).tolist())
    ]


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
    units = [a for a in range(1, m + 1) if math.gcd(a, m) == 1]
    return units if a_sample == "all" else units[: int(a_sample)]


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
    least_witnesses and direct_counts answer all of them in one pass over
    the triple's class grid.  When the canonical triple fails its check
    (the intervals collide at small m), every row carries the error
    instead of a witness and a count."""
    rows = []
    oracle = oracle_N_multi(a_values, m, default_cap(m), tables)
    triple = error = None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallKWarning)
        try:
            triple = canonical_triple(m, k, tables)
        except DomainError as exc:
            error = str(exc)
    deltas = [indicator_1am(a, m) for a in a_values]
    witnesses = counts = [None] * len(a_values)
    if triple is not None:
        witnesses = least_witnesses(a_values, triple)
        counts = direct_counts(a_values, triple)
    for a, delta, witness, j_direct in zip(a_values, deltas, witnesses, counts):
        n_val = oracle[a % m]
        row: dict = {
            "m": m,
            "a": a,
            "delta": delta,
            "N": n_val,
            "N_exponent": math.log(n_val) / math.log(m) if n_val is not None else None,
        }
        if triple is None:
            row["error"] = error
        row["witness_n"] = witness.n if witness else None
        row["witness_exponent"] = witness.exponent if witness else None
        row["J_direct"] = j_direct
        row["found"] = witness is not None
        rows.append(row)
    return rows


_WORKER_TABLES: SieveTables | None = None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _init_worker(limit: int) -> None:
    global _WORKER_TABLES
    _WORKER_TABLES = build_sieve(limit)


def _worker_task(args: tuple[int, tuple[int, ...], int]) -> list[dict]:
    m, a_values, k = args
    assert _WORKER_TABLES is not None
    return _scan_one_m(m, list(a_values), k, _WORKER_TABLES)


def exponent_scan(
    m_values: Sequence[int],
    a_sample: int | str = "all",
    k: int = 2,
    jobs: int = 1,
) -> tuple[list[dict], dict]:
    """Oracle N, witness n, and their exponents for every (m, a) row.

    Rows keep input order regardless of `jobs` (at most one worker per
    modulus and per CPU); per-row domain errors are recorded in the row
    instead of aborting the scan.  Returns
    (rows, summary) where the summary aggregates the exponents.
    """
    for m in m_values:
        check_odd_modulus(m)
        if m < 3:
            raise DomainError(f"scan moduli must be odd and >= 3, got {m}")
    limit = scan_sieve_limit(m_values, k)
    task_args = [(m, tuple(_sample_units(m, a_sample)), k) for m in m_values]
    # fork starts every worker at the first submit, each sieving to `limit`
    jobs = min(jobs, len(m_values), _usable_cpus())
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(limit,)
        ) as pool:
            per_m = list(pool.map(_worker_task, task_args))
    else:
        tables = build_sieve(limit)
        per_m = [
            _scan_one_m(m, list(a_values), k, tables) for m, a_values, k in task_args
        ]
    rows = [row for group in per_m for row in group]
    return rows, _summarize(rows)


def _summarize(rows: list[dict]) -> dict:
    n_exps = [r["N_exponent"] for r in rows if r["N_exponent"] is not None]
    w_exps = [r["witness_exponent"] for r in rows if r["witness_exponent"] is not None]
    summary = {
        "rows": len(rows),
        "oracle_found": sum(1 for r in rows if r["N"] is not None),
        "witness_found": sum(1 for r in rows if r["found"]),
        "errors": sum(1 for r in rows if "error" in r),
    }
    if n_exps:
        arr = np.array(n_exps)
        summary["max_N_exponent"] = float(arr.max())
        summary["mean_N_exponent"] = float(arr.mean())
        summary["p90_N_exponent"] = float(np.quantile(arr, 0.9))
    if w_exps:
        arr = np.array(w_exps)
        summary["max_witness_exponent"] = float(arr.max())
        summary["mean_witness_exponent"] = float(arr.mean())
    return summary
