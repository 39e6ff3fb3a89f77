"""Counting solutions of the shifted-prime congruence

    (1 + d) * (p1 - 1)(p2 - 1)(p3 - 1) = a  (mod m),   p_j in I_j,

where d = 1 exactly when 3 | m and a = 2 (mod 3).  The count J is
computed two independent ways: an integer convolution over residue
classes, and the character-orthogonality average.  The character route
splits into main term, psi term, and a remainder bounded by conductor.
The psi term is exact class arithmetic: psi, the one character of
conductor 3, is read off the count vectors' classes mod 3 (psi_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .arith import check_reduced_odd
from .errors import BoundsError, ConsistencyError, DomainError
# character_sums_all stays importable here: bench/worker.py traces it by name
from .intervals import IntervalTriple, character_sums_all  # noqa: F401

ORACLE_REL_TOL = 1e-6
# psi, the one character of conductor 3, when 3 | m: psi(b) = PSI[b % 3]
PSI = (0, 1, -1)


def indicator_1am(a: int, m: int) -> int:
    """1 when 3 | m and a = 2 (mod 3), else 0.  Requires odd m and
    gcd(a, m) = 1."""
    check_reduced_odd(a, m)
    return 1 if m % 3 == 0 and a % 3 == 2 else 0


def direct_counts(a_values: Sequence[int], triple: IntervalTriple) -> list[int]:
    """Exact solution count J of every unit, by convolving residue count
    vectors.

    Pure integer arithmetic over the triple's class grid: each pair of
    occupied classes (x, y) forces the class z of the third interval, so
    J = sum cx[x] cy[y] cz[z], contracted by two mat-vecs over the
    units x grid tensor of forced classes, GRID_BLOCK entries at a time.
    """
    m = triple.modulus
    deltas = [indicator_1am(a, m) for a in a_values]
    if triple.product >= 2**63:
        # J <= |I1||I2||I3| bounds every partial sum below
        raise BoundsError(f"int64 convolution would overflow at m={m}")
    grid = triple.class_grid
    cx, cy, cz = (tuple(triple)[j].count_vector for j in grid.axes)
    cx, cy = cx[grid.x], cy[grid.y]
    counts: list[int] = []
    for s in grid.blocks(len(deltas)):
        counts += (cz[grid.forced(a_values[s], deltas[s])] @ cy @ cx).tolist()
    return counts


def count_solutions_direct(a: int, triple: IntervalTriple) -> int:
    """Exact solution count J of unit a: direct_counts of one unit."""
    return direct_counts([a], triple)[0]


def count_solutions_characters(a: int, triple: IntervalTriple) -> float:
    """J via orthogonality:

        (1/phi(m)) sum_chi S1 S2 S3 * conj(chi(a)) * chi(1 + d).

    The imaginary part must vanish; a residual above tolerance raises.
    """
    phi = triple.unit_group.phi
    total = complex(_character_terms(a, triple).sum())
    if abs(total.imag) > ORACLE_REL_TOL * phi:
        raise ConsistencyError(
            f"imaginary part {total.imag} of the character count did not cancel"
        )
    return total.real / phi


def _character_terms(a: int, triple: IntervalTriple) -> np.ndarray:
    """S1 S2 S3 * conj(chi(a)) * chi(1 + d) for every character."""
    delta = indicator_1am(a, triple.modulus)
    ctx = triple.unit_group
    s1, s2, s3 = triple.character_sums
    return s1 * s2 * s3 * np.conj(ctx.values_at(a)) * ctx.values_at(1 + delta)


def _beyond_chi0_psi(triple: IntervalTriple) -> np.ndarray:
    """Mask of the characters other than chi0 (conductor 1) and psi, the
    only character of conductor 3, which exists only when 3 | m."""
    conductors = triple.unit_group.conductors()
    return (conductors != 1) & (conductors != 3)


def main_term(a: int, triple: IntervalTriple) -> float:
    """(1 + [3 | m]) |I1| |I2| |I3| / phi(m)."""
    m = triple.modulus
    indicator_1am(a, m)
    factor = 2 if m % 3 == 0 else 1
    return factor * triple.product / triple.unit_group.phi


def psi_sum(counts: np.ndarray) -> int:
    """S(psi) = sum_b counts[b] psi(b) over the classes b mod m, 3 | m:
    the exact difference of the class counts at 1 and 2 mod 3."""
    return sum(PSI[r] * int(counts[r::3].sum()) for r in (1, 2))


def psi_term(a: int, triple: IntervalTriple) -> float:
    """Exact contribution of the conductor-3 character psi to J:
    S1(psi) S2(psi) S3(psi) conj(psi(a)) psi(1 + d) / phi(m); zero when
    3 does not divide m.

    S_j(psi) is psi_sum of the count vector; d = 1 exactly when
    a = 2 (mod 3), so conj(psi(a)) psi(1 + d) = 1 for every unit a.  The
    product is an integer, divided once with correct rounding.
    """
    m = triple.modulus
    indicator_1am(a, m)
    if m % 3 != 0:
        return 0.0
    prod = math.prod(psi_sum(iv.count_vector) for iv in triple)
    return prod / triple.unit_group.phi


def remainder_term(a: int, triple: IntervalTriple) -> float:
    """Signed contribution of all characters outside {chi0, psi} to J,
    so that J = |I1||I2||I3|/phi + psi_term + remainder_term exactly."""
    terms = _character_terms(a, triple)
    return float(terms[_beyond_chi0_psi(triple)].sum().real) / triple.unit_group.phi


def conductor_split(
    a: int, triple: IntervalTriple, threshold: float
) -> tuple[float, float]:
    """Split sum_{chi != chi0, psi} |S1 S2 S3| by conductor <= threshold
    versus conductor > threshold."""
    if not (math.isfinite(threshold) and threshold >= 1):
        raise DomainError(f"threshold must be finite and >= 1, got {threshold}")
    indicator_1am(a, triple.modulus)
    s1, s2, s3 = (np.abs(s) for s in triple.character_sums)
    prod = s1 * s2 * s3
    conductors = triple.unit_group.conductors()
    beyond = _beyond_chi0_psi(triple)
    small = float(prod[beyond & (conductors <= threshold)].sum())
    large = float(prod[beyond & (conductors > threshold)].sum())
    return small, large


@dataclass(frozen=True)
class PositivityReport:
    m: int
    a: int
    remainder_sum: float
    interval_product: int
    ratio: float | None
    certified: bool


def positivity_certificate(a: int, triple: IntervalTriple) -> PositivityReport:
    """Compare S = sum_{chi != chi0, psi} |S1 S2 S3| against |I1||I2||I3|.

    When S < |I1||I2||I3| the count J is positive for every reduced a,
    with no enumeration needed.
    """
    m = triple.modulus
    small, large = conductor_split(a, triple, threshold=float(m))
    s, product = small + large, triple.product
    return PositivityReport(
        m=m,
        a=a,
        remainder_sum=s,
        interval_product=product,
        ratio=s / product if product else None,
        certified=bool(product and s < product),
    )


@dataclass(frozen=True)
class CountReport:
    """Everything the counting formula produces for one (a, m)."""

    m: int
    a: int
    k: int | None
    delta: int
    J_direct: int
    J_characters: float
    main_term: float
    psi_term: float
    S_small: float
    S_large: float
    threshold: float
    certified: bool

    def to_dict(self) -> dict:
        return asdict(self)


def count_report(
    a: int,
    triple: IntervalTriple,
    k: int | None = None,
    threshold: float | None = None,
) -> CountReport:
    """Full two-route count with decomposition and conductor split.

    The threshold defaults to m, past every conductor.  That is the
    paper's (log m)^(4(k+3)^2) capped at m: with k >= 2 the exponent is
    at least 100, and (log m)^100 exceeds m for every odd m from 5 up to
    e^647, far past the sieve cap; m <= 3 gives m either way.  k is only
    echoed in the report.

    The split runs first, so a bad threshold raises before either count.
    Raises ConsistencyError when the two routes disagree beyond
    1e-6 * (1 + J_direct): orthogonality is exact, so disagreement
    means a bug.
    """
    m = triple.modulus
    if threshold is None:
        threshold = float(m)
    # any threshold splits the same characters, so small + large is the
    # positivity certificate's sum
    small, large = conductor_split(a, triple, threshold)
    j_direct = count_solutions_direct(a, triple)
    j_chars = count_solutions_characters(a, triple)
    if abs(j_chars - j_direct) > ORACLE_REL_TOL * (1 + j_direct):
        raise ConsistencyError(
            f"count mismatch at (a={a}, m={m}): direct {j_direct}, characters {j_chars}"
        )
    return CountReport(
        m=m,
        a=a,
        k=k,
        delta=indicator_1am(a, m),
        J_direct=j_direct,
        J_characters=j_chars,
        main_term=main_term(a, triple),
        psi_term=psi_term(a, triple),
        S_small=small,
        S_large=large,
        threshold=threshold,
        certified=bool(triple.product and small + large < triple.product),
    )
