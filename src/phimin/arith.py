"""Elementary arithmetic: the input rules for a modulus m and a class
a (mod m), factorization, multiplicative functions, primitive roots, and
the logarithmic integral int_a^b dt/log t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvenModulusError


def check_odd_modulus(m: int) -> None:
    """Reject a modulus that is not odd and positive."""
    if m < 1:
        raise DomainError(f"modulus must be positive, got {m}")
    if m % 2 == 0:
        raise EvenModulusError(
            f"modulus {m} is even: a reduced class a (mod m) contains a "
            "totient only when a = 1, where N = 1; use odd m"
        )


def check_reduced_odd(a: int, m: int) -> None:
    """Reject a modulus that is not odd and positive, and a class a that
    is not reduced mod m."""
    check_odd_modulus(m)
    if math.gcd(a, m) != 1:
        raise DomainError(
            f"gcd({a}, {m}) > 1: least-solution bounds require a reduced class"
        )


# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization: (prime, exponent) pairs, primes increasing."""

    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def trial_factorize(n: int) -> Factorization:
    """Factor n >= 1 by trial division: the package's one factorizer, for
    the moduli, conductors and group orders, which stay small."""
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return Factorization(tuple(out))


def divisor_count(f: Factorization) -> int:
    return math.prod(e + 1 for _, e in f.factors)


def primitive_root(p: int, alpha: int = 1) -> int:
    """Least primitive root modulo p^alpha, for odd prime p."""
    if p % 2 == 0 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    if alpha < 1:
        raise DomainError("alpha must be >= 1")
    order = p ** (alpha - 1) * (p - 1)
    prime_parts = trial_factorize(order).primes()
    mod = p**alpha
    for g in range(2, mod):
        if g % p == 0:
            continue
        if all(pow(g, order // l, mod) != 1 for l in prime_parts):
            return g
    raise DomainError(f"no primitive root found mod {p}^{alpha}")  # unreachable


# 32-point Gauss-Legendre nodes; exact to machine precision for 1/log t
# on the geometric subintervals used below.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def log_integral_between(a: float, b: float) -> float:
    """int_a^b dt/log t for 2 <= a <= b, by composite Gauss-Legendre on
    geometrically split subintervals (ratio <= 2)."""
    if a < 2:
        raise DomainError(f"lower endpoint {a} below 2")
    if b <= a:
        if b < a:
            raise DomainError("endpoints out of order")
        return 0.0
    total = 0.0
    lo = a
    while lo < b:
        hi = min(2.0 * lo, b)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = mid + half * _GL_NODES
        total += half * float(np.sum(_GL_WEIGHTS / np.log(t)))
        lo = hi
    return total
