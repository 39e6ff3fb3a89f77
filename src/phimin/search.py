"""Least totient preimages: the exact oracle for the smallest n with
phi(n) = a (mod m), the three-prime constructive search for a solution
n = 4^d * p1 p2 p3, and exponent statistics log N / log m over scans.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .counting import count_solutions_direct, indicator_1am
from .errors import BoundsError, DomainError, EvenModulusError
from .intervals import (
    PrimeIntervalSet,
    SmallKWarning,
    build_interval,
    interval_sieve_limit,
    require_disjoint,
    require_modulus,
)
from .sieve import SieveTables, build_sieve

FIRST_SEGMENT = 1 << 12
DEFAULT_SEGMENT = 1 << 20


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

    Needs base primes up to sqrt(hi - 1); memory is O(hi - lo).  Each
    prime p and each power p^e < hi is one strided slice of the segment.
    """
    if lo < 1 or hi <= lo:
        raise DomainError(f"bad segment [{lo}, {hi})")
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
    big = rem > 1
    phi[big] *= rem[big] - 1
    return phi


def check_reduced_odd(a: int, m: int) -> None:
    """Reject a modulus that is not odd and positive, and a class a that
    is not reduced mod m."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    if m % 2 == 0:
        raise EvenModulusError(
            f"modulus {m} is even: a reduced class a (mod m) contains a "
            "totient only when a = 1, where N = 1; use odd m"
        )
    if math.gcd(a, m) != 1:
        raise DomainError(
            f"gcd({a}, {m}) > 1: least-solution bounds require a reduced class"
        )


def check_cap(cap: int) -> None:
    """Reject an oracle cap below 1."""
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")


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
    O(DEFAULT_SEGMENT) at any cap.  One np.unique pass per segment finds
    the first hit of every class.
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
        classes, first = np.unique(segment_phi(lo, hi, tables) % m, return_index=True)
        hit = wanted[classes]
        for a, i in zip(classes[hit].tolist(), first[hit].tolist()):
            found[a] = lo + i
        wanted[classes] = False
        lo, size = hi, min(2 * size, DEFAULT_SEGMENT)
    return found


def constructive_search(
    a: int,
    m: int,
    i1: PrimeIntervalSet,
    i2: PrimeIntervalSet,
    i3: PrimeIntervalSet,
) -> SearchWitness | None:
    """Search for a solution n = 4^d * p1 p2 p3 with p_j in I_j.

    I1 is indexed by the residue of p1 - 1 keeping the smallest p1 per
    class; each (p2, p3) pair then forces the residue of p1 - 1.  Among
    hits the witness minimizing n wins (ties broken by (p1, p2, p3)).
    Returns None when the congruence has no solution over the intervals.
    """
    check_reduced_odd(a, m)
    require_modulus(m, i1, i2, i3)
    require_disjoint(i1, i2, i3)
    delta = indicator_1am(a, m)
    lists = [iv.primes for iv in (i1, i2, i3)]
    if delta:
        # 4^1 shares the factor 2 with p_j = 2, so such triples are not
        # phi-witnesses even when they satisfy the formal congruence.
        lists = [ps[ps != 2] for ps in lists]
    if m == 1:
        if any(ps.size == 0 for ps in lists):
            return None
        return SearchWitness(
            m=m, a=a, delta=delta,
            p1=int(lists[0][0]), p2=int(lists[1][0]), p3=int(lists[2][0]),
        )
    # the primes ascend, so the first index of each class is its smallest p1
    classes, first = np.unique((lists[0] - 1) % m, return_index=True)
    smallest_p1 = dict(zip(classes.tolist(), lists[0][first].tolist()))
    inv3 = [(p3, pow((p3 - 1) % m, -1, m)) for p3 in lists[2].tolist()]
    t = a * pow(1 + delta, -1, m) % m
    best: tuple[int, tuple[int, int, int]] | None = None
    for p2 in lists[1].tolist():
        t2 = t * pow((p2 - 1) % m, -1, m) % m
        for p3, inv in inv3:
            p1 = smallest_p1.get(t2 * inv % m)
            if p1 is None:
                continue
            n = 4**delta * p1 * p2 * p3
            key = (n, (p1, p2, p3))
            if best is None or key < best:
                best = key
    if best is None:
        return None
    p1, p2, p3 = best[1]
    return SearchWitness(m=m, a=a, delta=delta, p1=p1, p2=p2, p3=p3)


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
    if a_sample == "all":
        return units
    return units[: int(a_sample)]


def scan_sieve_limit(m_values: Iterable[int], k: int) -> int:
    need = 100
    for m in m_values:
        need = max(need, math.isqrt(default_cap(m)) + 1, interval_sieve_limit(m, k))
    return need


def _scan_one_m(
    m: int,
    a_values: Sequence[int],
    k: int,
    tables: SieveTables,
) -> list[dict]:
    rows = []
    oracle = oracle_N_multi(a_values, m, default_cap(m), tables)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallKWarning)
        intervals = [build_interval(j, m, k, tables) for j in (1, 2, 3)]
        for a in a_values:
            row: dict = {"m": m, "a": a, "delta": indicator_1am(a, m)}
            n_val = oracle[a % m]
            row["N"] = n_val
            row["N_exponent"] = (
                math.log(n_val) / math.log(m) if n_val is not None else None
            )
            try:
                witness = constructive_search(a, m, *intervals)
            except DomainError as exc:
                witness = None
                row["error"] = str(exc)
            row["witness_n"] = witness.n if witness else None
            row["witness_exponent"] = witness.exponent if witness else None
            try:
                row["J_direct"] = count_solutions_direct(a, m, *intervals)
            except DomainError as exc:
                row["J_direct"] = None
                row.setdefault("error", str(exc))
            row["found"] = witness is not None
            rows.append(row)
    return rows


_WORKER_TABLES: SieveTables | None = None


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

    Rows keep input order regardless of `jobs`; per-row domain errors
    are recorded in the row instead of aborting the scan.  Returns
    (rows, summary) where the summary aggregates the exponents.
    """
    for m in m_values:
        if m < 3 or m % 2 == 0:
            raise DomainError(f"scan moduli must be odd and >= 3, got {m}")
    limit = scan_sieve_limit(m_values, k)
    task_args = [(m, tuple(_sample_units(m, a_sample)), k) for m in m_values]
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
