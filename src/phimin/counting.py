"""Counting solutions of the shifted-prime congruence

    (1 + d) * (p1 - 1)(p2 - 1)(p3 - 1) = a  (mod m),   p_j in I_j,

where d = 1 exactly when 3 | m and a = 2 (mod 3).  The count J is
computed two independent ways: an integer convolution over residue
classes, and the character-orthogonality average.  The character route
splits into main term, psi term, and a remainder bounded by conductor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .arith import euler_phi, trial_factorize
from .characters import UnitGroupContext, psi_character
from .errors import BoundsError, ConsistencyError, DomainError
from .intervals import IntervalTriple, character_sums_all

ORACLE_REL_TOL = 1e-6


def indicator_1am(a: int, m: int) -> int:
    """1 when 3 | m and a = 2 (mod 3), else 0.  Requires gcd(a, m) = 1."""
    if math.gcd(a, m) != 1:
        raise DomainError(f"gcd({a}, {m}) > 1; the class contains no reduced residue")
    return 1 if m % 3 == 0 and a % 3 == 2 else 0


def count_solutions_direct(a: int, triple: IntervalTriple) -> int:
    """Exact solution count by convolving residue count vectors.

    Pure integer arithmetic over the triple's class grid: each pair of
    occupied classes (x, y) forces the class z of the third interval, so
    J = sum cx[x] cy[y] cz[z], contracted by two mat-vecs.
    """
    m = triple.modulus
    delta = indicator_1am(a, m)
    if triple.product >= 2**63:
        # J <= |I1||I2||I3| bounds every partial sum below
        raise BoundsError(f"int64 convolution would overflow at m={m}")
    grid = triple.class_grid
    cx, cy, cz = (tuple(triple)[j].count_vector for j in grid.axes)
    return int(cx[grid.x] @ (cz[grid.forced(a, delta)] @ cy[grid.y]))


def count_solutions_characters(
    a: int, triple: IntervalTriple, ctx: UnitGroupContext
) -> float:
    """J via orthogonality:

        (1/phi(m)) sum_chi S1 S2 S3 * conj(chi(a)) * chi(1 + d).

    The imaginary part must vanish; a residual above tolerance raises.
    """
    if ctx.modulus != triple.modulus:
        raise DomainError("context modulus mismatch")
    total = complex(_character_terms(a, triple, ctx).sum())
    if abs(total.imag) > ORACLE_REL_TOL * ctx.phi:
        raise ConsistencyError(
            f"imaginary part {total.imag} of the character count did not cancel"
        )
    return total.real / ctx.phi


def _character_terms(
    a: int, triple: IntervalTriple, ctx: UnitGroupContext
) -> np.ndarray:
    """S1 S2 S3 * conj(chi(a)) * chi(1 + d) for every character."""
    delta = indicator_1am(a, triple.modulus)
    s1, s2, s3 = (character_sums_all(ctx, iv) for iv in triple)
    return s1 * s2 * s3 * np.conj(ctx.values_at(a)) * ctx.values_at(1 + delta)


def main_term(a: int, triple: IntervalTriple) -> float:
    """(1 + [3 | m]) |I1| |I2| |I3| / phi(m)."""
    m = triple.modulus
    indicator_1am(a, m)
    factor = 2 if m % 3 == 0 else 1
    return factor * triple.product / euler_phi(trial_factorize(m))


def psi_term(a: int, triple: IntervalTriple, ctx: UnitGroupContext) -> float:
    """Exact contribution of the conductor-3 character psi to J:
    S1(psi) S2(psi) S3(psi) conj(psi(a)) psi(1 + d) / phi(m); zero when
    3 does not divide m."""
    m = triple.modulus
    if m % 3 != 0:
        indicator_1am(a, m)
        return 0.0
    delta = indicator_1am(a, m)
    psi = psi_character(ctx)
    vec = psi.value_vector()
    prod = complex(1.0)
    for iv in triple:
        prod *= complex(np.dot(vec, iv.count_vector))
    prod *= psi(a).conjugate() * psi(1 + delta)
    if abs(prod.imag) > 1e-9 * max(1.0, abs(prod.real)):
        raise ConsistencyError("psi term must be real")
    return float(prod.real) / ctx.phi


def remainder_term(a: int, triple: IntervalTriple, ctx: UnitGroupContext) -> float:
    """Signed contribution of all characters outside {chi0, psi} to J,
    so that J = |I1||I2||I3|/phi + psi_term + remainder_term exactly."""
    terms = _character_terms(a, triple, ctx)
    conductors = ctx.conductors()
    keep = conductors > 1
    if triple.modulus % 3 == 0:
        keep &= conductors != 3  # psi is the only character there
    return float(terms[keep].sum().real) / ctx.phi


def default_split_threshold(m: int, k: int) -> float:
    """(log m)^(4(k+3)^2), capped at m.

    The uncapped value exceeds m for every feasible m at k >= 10, which
    would make the conductor split degenerate, so the default threshold
    is min of the two.
    """
    if m <= 3:
        return float(m)
    a_exp = 4 * (k + 3) ** 2
    log_log = math.log(math.log(m))
    if a_exp * log_log >= math.log(m):
        return float(m)
    return math.exp(a_exp * log_log)


def conductor_split(
    a: int, triple: IntervalTriple, ctx: UnitGroupContext, threshold: float
) -> tuple[float, float]:
    """Split sum_{chi != chi0, psi} |S1 S2 S3| by conductor <= threshold
    versus conductor > threshold."""
    if not (math.isfinite(threshold) and threshold >= 1):
        raise DomainError(f"threshold must be finite and >= 1, got {threshold}")
    m = triple.modulus
    indicator_1am(a, m)
    sums = [np.abs(character_sums_all(ctx, iv)) for iv in triple]
    prod = sums[0] * sums[1] * sums[2]
    conductors = ctx.conductors()
    skip = conductors == 1
    if m % 3 == 0:
        skip |= conductors == 3  # the psi character is the only one there
    small = float(prod[~skip & (conductors <= threshold)].sum())
    large = float(prod[~skip & (conductors > threshold)].sum())
    return small, large


@dataclass(frozen=True)
class PositivityReport:
    m: int
    a: int
    remainder_sum: float
    interval_product: int
    ratio: float | None
    certified: bool


def positivity_certificate(
    a: int, triple: IntervalTriple, ctx: UnitGroupContext
) -> PositivityReport:
    """Compare S = sum_{chi != chi0, psi} |S1 S2 S3| against |I1||I2||I3|.

    When S < |I1||I2||I3| the count J is positive for every reduced a,
    with no enumeration needed.
    """
    m = triple.modulus
    small, large = conductor_split(a, triple, ctx, threshold=float(m))
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
    ctx: UnitGroupContext,
    k: int | None = None,
    threshold: float | None = None,
) -> CountReport:
    """Full two-route count with decomposition and conductor split.

    Raises ConsistencyError when the two routes disagree beyond
    1e-6 * (1 + J_direct): orthogonality is exact, so disagreement
    means a bug.
    """
    m = triple.modulus
    j_direct = count_solutions_direct(a, triple)
    j_chars = count_solutions_characters(a, triple, ctx)
    if abs(j_chars - j_direct) > ORACLE_REL_TOL * (1 + j_direct):
        raise ConsistencyError(
            f"count mismatch at (a={a}, m={m}): direct {j_direct}, characters {j_chars}"
        )
    if threshold is None:
        threshold = default_split_threshold(m, k) if k is not None else float(m)
    small, large = conductor_split(a, triple, ctx, threshold)
    # any threshold splits the same characters, so small + large is the
    # positivity certificate's sum
    return CountReport(
        m=m,
        a=a,
        k=k,
        delta=indicator_1am(a, m),
        J_direct=j_direct,
        J_characters=j_chars,
        main_term=main_term(a, triple),
        psi_term=psi_term(a, triple, ctx),
        S_small=small,
        S_large=large,
        threshold=threshold,
        certified=bool(triple.product and small + large < triple.product),
    )
