"""Elementary arithmetic: the input rules for a modulus m and a class
a (mod m), factorization, the units of m, multiplicative functions,
primitive roots, and the logarithmic integral int_a^b dt/log t.
"""

from __future__ import annotations

import math

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


def trial_factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of n >= 1, primes increasing, by trial
    division: the package's one factorizer, for the moduli, conductors
    and group orders, which stay small."""
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
    return tuple(out)


def unit_mask(m: int) -> np.ndarray:
    """mask[b] is gcd(b, m) == 1 for b in 0..m-1, m >= 1: the units of m."""
    mask = np.ones(m, dtype=bool)
    for p, _ in trial_factorize(m):
        mask[::p] = False
    return mask


def unit_inverses(b: np.ndarray, m: int) -> np.ndarray:
    """b^-1 mod m for an int64 array of units b of m >= 1, as
    b^(lambda - 1) by square-and-multiply over the whole array, with
    lambda = lcm over p^a || m of p^(a-1) (p - 1): the Carmichael exponent
    of odd m, so b^lambda = 1 for every unit, and a divisor of phi(m).

    Precondition: m^2 < 2^63, so that every product of two residues below
    m is exact in int64; the caller checks it.
    """
    e = math.lcm(*(p ** (a - 1) * (p - 1) for p, a in trial_factorize(m))) - 1
    inv = np.full_like(b, 1 % m)
    base = b % m
    while e:
        if e & 1:
            inv = inv * base % m
        base = base * base % m
        e >>= 1
    return inv


def first_index(residues: np.ndarray, m: int) -> np.ndarray:
    """Index of the first occurrence of each class 0..m-1 in `residues`,
    or len(residues) for a class that does not occur: one O(len) scatter-min."""
    first = np.full(m, residues.size)
    np.minimum.at(first, residues, np.arange(residues.size))
    return first


def divisor_count(factors: tuple[tuple[int, int], ...]) -> int:
    return math.prod(e + 1 for _, e in factors)


def primitive_root(p: int, alpha: int = 1) -> int:
    """Least primitive root modulo p^alpha, for odd prime p."""
    if p < 3 or trial_factorize(p) != ((p, 1),):
        raise DomainError(f"{p} is not an odd prime")
    if alpha < 1:
        raise DomainError("alpha must be >= 1")
    order = p ** (alpha - 1) * (p - 1)
    prime_parts = [l for l, _ in trial_factorize(order)]
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
