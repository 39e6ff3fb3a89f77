import math
import time
from fractions import Fraction

import numpy as np
import pytest

from phimin.bounds import (
    CONSTANT_CEILING,
    euler_product_constant,
    interval_count_accuracy,
    rakhmonov_inequality_check,
)
from phimin.characters import build_unit_group
from phimin.cli import _summarize
from phimin.errors import DomainError
from phimin.intervals import build_custom_interval
from phimin.search import exponent_scan
from reference import euler_product_exact


class TestEulerProductConstant:
    def test_cutoff_three(self):
        value, tail = euler_product_constant(3)
        assert value == 0.0  # lone factor (1 + 1) gives product 2

    def test_cutoff_seven_exact(self):
        value, _ = euler_product_constant(7)
        want = float(Fraction(2) * Fraction(10, 9) * Fraction(26, 25) - 2)
        assert abs(value - want) < 1e-15
        assert abs(value - 0.3111111111111111) < 1e-12

    def test_large_cutoff_certified(self):
        t0 = time.monotonic()
        value, tail = euler_product_constant(10**6)
        elapsed = time.monotonic() - t0
        # frozen from an independent mpmath/sympy product
        assert abs(value - 0.4050050022) < 1e-6
        assert tail < 1e-4
        assert value + tail < CONSTANT_CEILING
        assert elapsed < 5.0

    def test_monotone_in_cutoff(self):
        vals = [euler_product_constant(c)[0] for c in (10**3, 10**4, 10**5)]
        assert vals == sorted(vals)
        for c in (10**3, 10**4, 10**5):
            v, t = euler_product_constant(c)
            assert v + t < CONSTANT_CEILING

    def test_matches_exact_reference(self):
        for cutoff in (3, 7, 1000, 10**4):
            value, tail = euler_product_constant(cutoff)
            exact = euler_product_exact(cutoff)
            want_tail = float(exact) * math.expm1(1 / (cutoff - 2))
            assert math.isclose(value, float(exact - 2), rel_tol=1e-15)
            assert math.isclose(tail, want_tail, rel_tol=1e-15)

    def test_small_cutoff_rejected(self):
        with pytest.raises(DomainError):
            euler_product_constant(2)


class TestIntervalCountAccuracy:
    def test_m101_k10_j2(self, tables):
        actual, predicted, rel = interval_count_accuracy(101, 10, 2, tables)
        assert actual == 11
        assert predicted > 0
        assert rel < 1.0

    def test_m5_k2_j3(self, tables):
        actual, predicted, rel = interval_count_accuracy(5, 2, 3, tables)
        assert actual == 1

    def test_prediction_positive_above_four(self, tables):
        for m in (5, 9, 101):
            actual, predicted, _ = interval_count_accuracy(m, 2, 2, tables)
            assert predicted > 0  # f_2(m) = m > 4


class TestRakhmonov:
    def test_empty_sum_below_two(self, tables):
        lhs, rhs, holds = rakhmonov_inequality_check(1.5, 5, tables)
        assert lhs.shape == (3,)
        assert np.all(lhs == 0.0) and holds.all()

    def test_quadratic_mod5_x100(self, tables):
        lhs, rhs, holds = rakhmonov_inequality_check(100.0, 5, tables)
        # independent enumeration of the shifted-prime sum of the
        # quadratic character mod 5 (exponent 2, entry 1 after chi0)
        legendre = {0: 0, 1: 1, 2: -1, 3: -1, 4: 1}
        want = abs(sum(legendre[(int(p) - 1) % 5] for p in tables.primes_in(0, 100)))
        assert abs(lhs[1] - want) < 1e-9
        assert holds[1] and rhs[1] > lhs[1]

    def test_holds_across_moduli(self, tables):
        for m in (15, 21):
            for x in (200.0, 1000.0):
                lhs, rhs, holds = rakhmonov_inequality_check(x, m, tables)
                assert holds.all(), (m, x, np.flatnonzero(~holds), lhs, rhs)

    def test_principal_excluded(self, tables):
        ctx = build_unit_group(15)
        lhs, rhs, holds = rakhmonov_inequality_check(100.0, 15, tables)
        assert lhs.shape == rhs.shape == holds.shape == (ctx.phi - 1,)
        # chi0 would sum to the prime count, past every other |S(chi)| here
        count = build_custom_interval(0.0, 100.0, 15, tables).size
        assert np.all(lhs < count)

    def test_rhs_per_conductor(self, tables):
        # the bound depends on chi only through its conductor q
        ctx = build_unit_group(105)
        conductors = ctx.conductors()[1:]
        _, rhs, _ = rakhmonov_inequality_check(1000.0, 105, tables)
        for q in np.unique(conductors):
            assert np.unique(rhs[conductors == q]).size == 1
        assert np.unique(rhs).size == np.unique(conductors).size

    def test_x_beyond_sieve_rejected(self, tables):
        with pytest.raises(DomainError):
            rakhmonov_inequality_check(tables.limit + 1.0, 15, tables)


def test_scan_exponent_regression():
    # small slice of the scan grid; the acceptance suite runs the full one
    summary = _summarize(exponent_scan([51, 53, 55], a_sample=10, k=2))
    assert summary["max_N_exponent"] <= 2.6
