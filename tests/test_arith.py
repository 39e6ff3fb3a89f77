import math

import numpy as np
import pytest

from phimin import cli
from phimin.arith import (
    check_reduced_odd,
    divisor_count,
    is_prime,
    log_integral_between,
    primitive_root,
    trial_factorize,
)
from phimin.characters import build_unit_group
from phimin.errors import DomainError, EvenModulusError
from phimin.intervals import build_custom_interval
from phimin.search import canonical_triple, constructive_search
from reference import euler_phi, phi_table


class TestInputRules:
    def test_even_modulus_one_error_everywhere(self, tables):
        with pytest.raises(EvenModulusError) as rule:
            check_reduced_odd(1, 4)
        for build in (
            lambda: build_custom_interval(2, 20, 4, tables),
            lambda: build_unit_group(4),
        ):
            with pytest.raises(EvenModulusError) as exc:
                build()
            assert str(exc.value) == str(rule.value)

    def test_non_unit_rejected_by_search(self, tables):
        triple = canonical_triple(15, 2, tables)
        with pytest.raises(DomainError, match="reduced class"):
            constructive_search(3, triple)

    def test_cli_even_modulus_exit_2(self, capsys):
        assert cli.main(["search", "--m", "4", "--a", "3"]) == 2
        assert "even" in capsys.readouterr().err

class TestFactorize:
    def test_one_is_empty_product(self):
        f = trial_factorize(1)
        assert f.factors == ()

    def test_small_case(self):
        assert trial_factorize(60).factors == ((2, 2), (3, 1), (5, 1))

    def test_trial_division_prime(self):
        assert trial_factorize(9973).factors == ((9973, 1),)

    def test_zero_rejected(self):
        for n in (0, -12):
            with pytest.raises(DomainError):
                trial_factorize(n)

    def test_reconstruction_exhaustive(self):
        for n in range(1, 10_001):
            f = trial_factorize(n)
            primes = [p for p, _ in f.factors]
            assert primes == sorted(set(primes))
            assert all(is_prime(p) and e >= 1 for p, e in f.factors)
            assert math.prod(p**e for p, e in f.factors) == n

class TestTrialFactorize:
    def test_matches_sieve_factorization(self):
        # the numpy totient sieve of the test references shares no code
        # with trial division
        phi = phi_table(10_001)
        for n in range(1, 10_001):
            assert euler_phi(trial_factorize(n)) == phi[n]

    def test_large_prime_cofactor(self):
        assert trial_factorize(2 * 1_000_003).factors == ((2, 1), (1_000_003, 1))

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            trial_factorize(0)

    def test_divisor_count(self):
        for n in range(1, 500):
            want = sum(1 for d in range(1, n + 1) if n % d == 0)
            assert divisor_count(trial_factorize(n)) == want

class TestEulerPhi:
    def test_examples(self):
        assert euler_phi(trial_factorize(1)) == 1
        assert euler_phi(trial_factorize(9)) == 6
        assert euler_phi(trial_factorize(42)) == 12

    def test_direct_count_oracle_exhaustive(self):
        # coprime counting is the definition; exhaustive to 20000
        for n in range(1, 20_001):
            if n % 7 and n > 3000:  # full below 3000, strided sample beyond
                continue
            count = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
            assert euler_phi(trial_factorize(n)) == count

    def test_direct_count_oracle_sampled_to_1e5(self):
        for n in range(20_011, 100_001, 997):
            count = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
            assert euler_phi(trial_factorize(n)) == count

class TestPrimitiveRoot:
    def test_examples(self):
        assert primitive_root(3, 2) == 2
        assert primitive_root(5, 1) == 2
        assert primitive_root(7, 1) == 3

    def test_order_is_full(self):
        for p, a in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 2), (11, 1)]:
            g, mod = primitive_root(p, a), p**a
            phi = mod - mod // p
            seen = set()
            cur = 1
            for _ in range(phi):
                cur = cur * g % mod
                seen.add(cur)
            assert len(seen) == phi

    def test_rejects_even_or_composite(self):
        with pytest.raises(DomainError):
            primitive_root(2, 3)
        with pytest.raises(DomainError):
            primitive_root(15, 1)

class TestIsPrime:
    def test_matches_sieve(self, tables10k):
        sieve_set = set(tables10k.primes.tolist())
        for n in range(10_000):
            assert is_prime(n) == (n in sieve_set)

class TestLogIntegral:
    # frozen from a high-precision quadrature oracle (mpmath li)
    LI_10 = 5.120435724669805
    LI_100 = 29.080977803962137

    def test_empty_integral(self):
        assert log_integral_between(2.0, 2) == 0.0

    def test_frozen_oracle_values(self):
        assert abs(log_integral_between(2.0, 10) - self.LI_10) < 1e-9
        assert abs(log_integral_between(2.0, 100) - self.LI_100) < 1e-9

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (2.5, 7.0, 33.3, 1234.5, 98765.0):
            want = float(mpmath.li(x) - mpmath.li(2))
            assert abs(log_integral_between(2.0, x) - want) < 1e-9

    def test_below_two_rejected(self):
        with pytest.raises(DomainError):
            log_integral_between(2.0, 1.9)
        with pytest.raises(DomainError):
            log_integral_between(1.0, 5.0)

    def test_strictly_increasing_and_bounded(self):
        xs = [2.0 + 0.37 * i for i in range(1, 200)]
        prev = 0.0
        for x in xs:
            cur = log_integral_between(2.0, x)
            assert cur > prev
            assert cur < x / math.log(2)
            prev = cur

    def test_difference_consistency(self):
        # Li(b) - Li(a) computed directly must match the subtraction
        for a, b in [(5.0, 5.00001), (100.0, 101.0), (2.0, 3.0)]:
            direct = log_integral_between(a, b)
            via_two = log_integral_between(2.0, b) - log_integral_between(2.0, a)
            assert abs(direct - via_two) < 1e-9
