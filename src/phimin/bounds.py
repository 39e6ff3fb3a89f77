"""Numerical certification of the quantitative ingredients: the
small-conductor Euler-product constant, interval cardinality main terms,
and Rakhmonov's shifted-prime character sum bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arith import divisor_count, trial_factorize
from .characters import DirichletCharacter
from .errors import ConsistencyError, DomainError
from .intervals import build_interval, cardinality_prediction
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
    chi: DirichletCharacter, x: float, m: int, tables: SieveTables
) -> tuple[float, float, bool]:
    """|sum_{p <= x} chi(p-1)| against the bound

        x (log x)^5 tau(q) (sqrt(1/q + q tau(q1)^2 / x) + x^(-1/6) tau(q1)),

    q = conductor(chi), q1 = product of primes dividing m but not q.
    The bound is a theorem, so holds=False signals an implementation bug.
    """
    if chi.context.modulus != m:
        raise DomainError("character modulus mismatch")
    if chi.is_principal():
        raise DomainError("the bound concerns non-principal characters")
    if x > tables.limit:
        raise DomainError(f"x={x} exceeds sieve limit {tables.limit}")
    primes = tables.primes_in(0, x)
    if primes.size:
        counts = np.bincount((primes - 1) % m, minlength=m).astype(np.int64)
        lhs = abs(complex(np.dot(chi.value_vector(), counts)))
    else:
        lhs = 0.0
    if x < 2:
        return lhs, 0.0, lhs <= 0.0
    q = chi.conductor()
    q1 = math.prod(p for p in trial_factorize(m).primes() if q % p)
    tau_q, tau_q1 = (divisor_count(trial_factorize(n)) for n in (q, q1))
    logx = math.log(x)
    rhs = (
        x
        * logx**5
        * tau_q
        * (math.sqrt(1.0 / q + q * tau_q1**2 / x) + x ** (-1 / 6) * tau_q1)
    )
    return lhs, rhs, lhs <= rhs

