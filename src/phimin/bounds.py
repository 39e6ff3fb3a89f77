"""Numerical certification of the quantitative ingredients: the
small-conductor Euler-product constant, interval cardinality main terms,
and Rakhmonov's shifted-prime character sum bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import divisor_count, trial_factorize
from .characters import build_unit_group
from .errors import ConsistencyError, DomainError
from .intervals import (
    build_custom_interval,
    build_interval,
    cardinality_prediction,
    character_sums_all,
)
from .sieve import SieveTables, build_sieve

CONSTANT_CEILING = 0.53
_EXACT_CUTOFF = 10**4


def euler_product_constant(prime_cutoff: int) -> tuple[float, float]:
    """Certified value of sum over odd squarefree d >= 5 of
    prod_{p | d} (p-2)^(-2), via the truncated product

        prod_{3 <= p <= cutoff} (1 + (p-2)^(-2)) - 2.

    Returns (value, tail_bound) where tail_bound covers the omitted
    primes: the tail sum is at most 1/(cutoff - 2) by the integral test,
    and the full product exceeds the truncation by at most the factor
    exp of that, so tail_bound = product * expm1(1/(cutoff - 2)).
    From cutoff 1000 on the tail is small enough to certify, and the
    function raises if value + tail_bound fails to stay below 0.53.

    Exact rational arithmetic up to cutoff 10^4, extended-precision
    floats beyond.
    """
    if prime_cutoff < 3:
        raise DomainError(f"cutoff must be >= 3, got {prime_cutoff}")
    primes = build_sieve(prime_cutoff).primes
    primes = primes[primes >= 3]
    if prime_cutoff <= _EXACT_CUTOFF:
        prod_exact = Fraction(1)
        for p in primes:
            p = int(p)
            prod_exact *= 1 + Fraction(1, (p - 2) ** 2)
        product = prod_exact
        value = float(prod_exact - 2)
    else:
        acc = np.longdouble(0.0)
        for p in primes:
            acc += np.log1p(np.longdouble(1.0) / np.longdouble(int(p) - 2) ** 2)
        product = np.exp(acc)
        value = float(product - 2)
    tail_sum = 1.0 / (prime_cutoff - 2)
    tail_bound = float(product * math.expm1(tail_sum))
    if prime_cutoff >= 1000 and value + tail_bound >= CONSTANT_CEILING:
        raise ConsistencyError(
            f"constant not certified: {value} + {tail_bound} >= {CONSTANT_CEILING}"
        )
    return value, tail_bound


def interval_count_accuracy(
    m: int, k: int, j: int, tables: SieveTables
) -> tuple[int, float, float]:
    """|I_j| against its main-term prediction.

    Returns (actual, predicted, rel_error) with rel_error relative to
    the prediction (inf when the prediction vanishes).
    """
    actual = build_interval(j, m, k, tables).size
    predicted = cardinality_prediction(j, m, k)
    rel = abs(actual - predicted) / predicted if predicted > 0 else math.inf
    return actual, predicted, rel


def rakhmonov_inequality_check(
    x: float, m: int, tables: SieveTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|sum_{p <= x} chi(p-1)| against the bound

        x (log x)^5 tau(q) (sqrt(1/q + q tau(q1)^2 / x) + x^(-1/6) tau(q1)),

    q = conductor(chi), q1 = product of primes dividing m but not q, for
    every non-principal character chi mod m at once: (lhs, rhs, holds)
    arrays in the character order of UnitGroupContext without its
    principal first entry.  The sums are one FFT; the bound is worked out
    once per distinct conductor.  The bound is a theorem, so a False in
    holds signals an implementation bug.
    """
    if x > tables.limit:
        raise DomainError(f"x={x} exceeds sieve limit {tables.limit}")
    ctx = build_unit_group(m)
    counts = build_custom_interval(0.0, x, m, tables).count_vector
    lhs = np.abs(character_sums_all(ctx, counts)[1:])
    rhs = np.zeros(lhs.shape)
    if x < 2:
        return lhs, rhs, lhs <= rhs
    conductors = ctx.conductors()[1:]
    primes = trial_factorize(m).primes()
    logx = math.log(x)
    for q in np.unique(conductors).tolist():
        q1 = math.prod(p for p in primes if q % p)
        tau_q, tau_q1 = (divisor_count(trial_factorize(n)) for n in (q, q1))
        rhs[conductors == q] = (
            x
            * logx**5
            * tau_q
            * (math.sqrt(1.0 / q + q * tau_q1**2 / x) + x ** (-1 / 6) * tau_q1)
        )
    return lhs, rhs, lhs <= rhs
