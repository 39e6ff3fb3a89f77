import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phimin import cli, counting, intervals
from phimin.characters import UnitGroupContext, psi_character
from phimin.counting import (
    conductor_split,
    count_report,
    count_solutions_characters,
    count_solutions_direct,
    indicator_1am,
    main_term,
    positivity_certificate,
    psi_term,
    remainder_term,
)
from phimin.errors import BoundsError, DomainError
from phimin.intervals import (
    IntervalTriple,
    PrimeIntervalSet,
    build_custom_interval,
    character_sum,
)
from phimin.search import canonical_triple
from reference import ENUMERATION_CAP, count_solutions_enumerate, prime_window


def units_of(m):
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


class TestIndicator:
    def test_examples(self):
        assert indicator_1am(2, 9) == 1
        assert indicator_1am(1, 9) == 0
        assert indicator_1am(2, 5) == 0

    def test_reduced_required(self):
        with pytest.raises(DomainError):
            indicator_1am(3, 9)


class TestCountsMod5:
    # canonical k=2 intervals: I1={7}, I2={3,5}, I3={2}
    def test_three_routes_agree(self, tables):
        ivs = canonical_triple(5, 2, tables)
        expected = {1: 0, 2: 1, 3: 0, 4: 1}
        for a, want in expected.items():
            jd = count_solutions_direct(a, ivs)
            je = count_solutions_enumerate(a, ivs)
            jc = count_solutions_characters(a, ivs)
            assert jd == je == want
            assert abs(jc - want) < 1e-9

    def test_main_term(self, tables):
        ivs = canonical_triple(5, 2, tables)
        assert main_term(2, ivs) == 0.5  # 1*2*1 / 4

    def test_empty_intervals_give_zero(self, tables):
        empty = build_custom_interval(4, 3, 9, tables)
        triple = IntervalTriple(empty, empty, empty)
        assert count_solutions_direct(1, triple) == 0
        assert count_solutions_characters(1, triple) == 0
        assert main_term(1, triple) == 0


class TestPreconditions:
    def test_overlapping_intervals_rejected(self, tables):
        a = build_custom_interval(2, 30, 5, tables)
        b = build_custom_interval(20, 60, 5, tables)
        c = build_custom_interval(70, 90, 5, tables)
        with pytest.raises(DomainError, match="interval sets 1 and 2 share primes at m=5"):
            IntervalTriple(a, b, c)

    def test_modulus_mismatch_rejected(self, tables):
        a = build_custom_interval(2, 10, 5, tables)
        b = build_custom_interval(11, 20, 5, tables)
        c = build_custom_interval(21, 30, 9, tables)
        with pytest.raises(DomainError, match="interval modulus 9 differs from 5"):
            IntervalTriple(a, b, c)

    def test_enumeration_cap(self, tables):
        ivs = IntervalTriple(
            *(build_custom_interval(lo, hi, 5, tables)
              for lo, hi in ((2, 900), (900, 1900), (1900, 2999)))
        )
        assert ivs.product > ENUMERATION_CAP
        with pytest.raises(DomainError, match="capped"):
            count_solutions_enumerate(1, ivs)


class TestOracleEquivalence:
    def test_canonical_grid(self, tables):
        for m in (9, 15, 21, 25):
            for k in (2, 3):
                ivs = canonical_triple(m, k, tables)
                for a in units_of(m):
                    jd = count_solutions_direct(a, ivs)
                    jc = count_solutions_characters(a, ivs)
                    assert abs(jc - jd) < 1e-6 * (1 + jd)
                    assert jd == count_solutions_enumerate(a, ivs)

    def test_randomized_custom_intervals(self, tables):
        rng = random.Random(20260809)
        for m in (9, 15, 33, 35):
            for _ in range(4):
                cuts = sorted(rng.sample(range(2, 900), 6))
                ivs = IntervalTriple(
                    *(build_custom_interval(cuts[2 * i], cuts[2 * i + 1], m, tables)
                      for i in range(3))
                )
                for a in units_of(m)[:6]:
                    jd = count_solutions_direct(a, ivs)
                    jc = count_solutions_characters(a, ivs)
                    assert abs(jc - jd) < 1e-6 * (1 + jd)


class TestLargePrimes:
    def test_enumeration_exact_near_1e9(self):
        # (p1 - 1)(p2 - 1)(p3 - 1) is near 6e27 here, far past int64
        ivs = IntervalTriple(
            *(prime_window(lo, 800, 7) for lo in (10**9, 2 * 10**9, 3 * 10**9))
        )
        assert count_solutions_direct(1, ivs) == 5396
        assert count_solutions_enumerate(1, ivs) == 5396

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_enumeration_matches_direct(self, tables, data):
        m = data.draw(st.integers(0, 37).map(lambda i: 2 * i + 1), label="m")
        a = data.draw(st.sampled_from(units_of(m)), label="a")
        near_1e9 = data.draw(st.booleans(), label="near_1e9")
        lo = data.draw(st.integers(10**9, 3 * 10**9) if near_1e9 else st.integers(0, 2000))
        ivs = []
        for _ in range(3):
            width = data.draw(st.integers(1, 150))
            if near_1e9:
                ivs.append(prime_window(lo, width, m))
            else:
                ivs.append(build_custom_interval(lo, lo + width, m, tables))
            lo += width + data.draw(st.integers(0, 10**8 if near_1e9 else 100))
        ivs = IntervalTriple(*data.draw(st.permutations(ivs), label="order"))
        j = count_solutions_direct(a, ivs)
        assert count_solutions_enumerate(a, ivs) == j
        jc = count_solutions_characters(a, ivs)
        assert abs(jc - j) <= 1e-6 * (1 + j)


class TestDirectCount:
    def test_gather_interval_changes(self, tables):
        # I1 has the fewest occupied classes and I3 the most, so the
        # largest count vector gathered is I3's, not I1's
        m = 63
        ivs = IntervalTriple(
            *(build_custom_interval(lo, hi, m, tables)
              for lo, hi in ((100, 130), (200, 300), (400, 1200)))
        )
        occupied = [np.count_nonzero(iv.count_vector) for iv in ivs]
        assert occupied[0] < occupied[1] < occupied[2]
        counts = [count_solutions_direct(a, ivs) for a in units_of(m)]
        assert counts == [count_solutions_enumerate(a, ivs) for a in units_of(m)]
        assert sum(counts) > 0

    def test_overflow_guard(self):
        # |I1||I2||I3| = 2^63 would overflow the int64 contraction
        n = 2**21
        ivs = IntervalTriple(
            *(PrimeIntervalSet(None, p - 1, p, 9, np.broadcast_to(np.int64(p), (n,)),
                               np.zeros(9, dtype=np.int64))
              for p in (2, 5, 11))
        )
        with pytest.raises(BoundsError):
            count_solutions_direct(1, ivs)

    def test_cli_count_beyond_dense_table(self, capsys):
        # the phi(m) x m table would take about 4.2 GB at this modulus
        assert cli.main(["count", "--m", "20001", "--a", "2", "--k", "2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["J_direct"] == 29711
        assert abs(rec["J_characters"] - rec["J_direct"]) <= 1e-6 * (1 + rec["J_direct"])

    @staticmethod
    def spy_character_side(monkeypatch):
        """Record each character-sum FFT by interval index, and each
        unit-group build by modulus."""
        sums, groups = [], []
        real_sums, real_group = intervals.character_sums_all, intervals.build_unit_group

        def counted_sums(ctx, iv):
            sums.append(iv.index)
            return real_sums(ctx, iv)

        def counted_group(m):
            groups.append(m)
            return real_group(m)

        monkeypatch.setattr(intervals, "character_sums_all", counted_sums)
        monkeypatch.setattr(intervals, "build_unit_group", counted_group)
        return sums, groups

    def test_report_skips_dense_table(self, tables, monkeypatch):
        def no_table(self):
            raise AssertionError("value_matrix called")

        monkeypatch.setattr(UnitGroupContext, "value_matrix", no_table)
        sums, groups = self.spy_character_side(monkeypatch)
        m = 45
        rep = count_report(2, canonical_triple(m, 2, tables), k=2)
        assert abs(rep.J_characters - rep.J_direct) <= 1e-6 * (1 + rep.J_direct)
        assert sorted(sums) == [1, 2, 3]
        assert groups == [m]

    def test_character_side_built_once_per_triple(self, tables, monkeypatch):
        sums, groups = self.spy_character_side(monkeypatch)
        m = 45
        triple = canonical_triple(m, 2, tables)
        first = count_report(2, triple, k=2)
        assert count_report(2, triple, k=2) == first
        for a in (4, 7):
            count_report(a, triple, threshold=7.0)
            remainder_term(a, triple)
            psi_term(a, triple)
        assert sorted(sums) == [1, 2, 3]
        assert groups == [m]

    def test_bad_threshold_exits_before_counting(self, monkeypatch, capsys):
        sums, _ = self.spy_character_side(monkeypatch)
        direct = []
        monkeypatch.setattr(
            counting, "count_solutions_direct", lambda *args: direct.append(args)
        )
        argv = ["count", "--m", "20001", "--a", "2", "--threshold", "nan"]
        assert cli.main(argv) == 2
        assert "threshold must be finite" in capsys.readouterr().err
        assert direct == [] and sums == []


class TestDecomposition:
    def three_free_intervals(self, m, tables):
        return IntervalTriple(
            build_custom_interval(2.0 * m, 4.0 * m, m, tables),
            build_custom_interval(float(m), 2.0 * m, m, tables),
            build_custom_interval(3.0, float(m), m, tables),
        )

    def test_reassembly(self, tables):
        for m in (9, 15, 21, 35):
            ivs = self.three_free_intervals(m, tables)
            base = ivs.product / ivs.unit_group.phi
            for a in units_of(m):
                total = base + psi_term(a, ivs) + remainder_term(a, ivs)
                jc = count_solutions_characters(a, ivs)
                assert abs(jc - total) < 1e-6

    def test_psi_term_doubles_main_term(self, tables):
        # with intervals free of p = 3 the psi term equals the second
        # copy of the main term exactly when 3 | m
        for m in (9, 15, 21):
            ivs = self.three_free_intervals(m, tables)
            copy = ivs.product / ivs.unit_group.phi
            for a in units_of(m):
                assert abs(psi_term(a, ivs) - copy) < 1e-9

    def test_psi_term_zero_without_three(self, tables):
        ivs = self.three_free_intervals(35, tables)
        assert psi_term(2, ivs) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_psi_term_matches_character_engine(self, tables, data):
        # a lowest interval from 2.0 may hold p = 3, whose class 2 = -1
        # (mod 3) gives S(psi) = |I| - 2; the class-count route must agree
        m = data.draw(st.integers(0, 99).map(lambda i: 6 * i + 3), label="m")
        lo = data.draw(st.sampled_from([2.0, 3.5]), label="lo")
        cuts = sorted(data.draw(
            st.lists(st.integers(4, 2900), min_size=3, max_size=3, unique=True),
            label="cuts",
        ))
        bounds = [lo, *map(float, cuts)]
        ivs = IntervalTriple(
            *(build_custom_interval(bounds[i], bounds[i + 1], m, tables)
              for i in range(3))
        )
        psi = psi_character(ivs.unit_group)
        sums = math.prod(character_sum(psi, iv) for iv in ivs)
        phi = ivs.unit_group.phi
        for a in units_of(m):
            want = sums * psi(a).conjugate() * psi(1 + indicator_1am(a, m))
            assert abs(psi_term(a, ivs) * phi - want) < 1e-9
            assert abs(want - round(want.real)) < 1e-9


class TestStructuralInvariances:
    def test_permutation_of_primes_within_interval(self, tables):
        m = 15
        ivs = canonical_triple(m, 3, tables)
        shuffled = PrimeIntervalSet(
            index=ivs.i1.index,
            lo=ivs.i1.lo,
            hi=ivs.i1.hi,
            modulus=m,
            primes=ivs.i1.primes[::-1].copy(),
            count_vector=ivs.i1.count_vector,
        )
        for a in units_of(m):
            assert count_solutions_direct(a, IntervalTriple(shuffled, ivs.i2, ivs.i3)) == \
                count_solutions_direct(a, ivs)

    def test_unit_shift_invariance(self, tables):
        # multiply I1's residues by a unit u and a by the same u: J fixed
        m = 35  # 3 does not divide m so delta stays 0
        ivs = canonical_triple(m, 2, tables)
        c1 = ivs.i1.count_vector
        for u in (2, 4, 11):
            shifted = np.zeros_like(c1)
            for b in range(m):
                if c1[b]:
                    shifted[b * u % m] = c1[b]
            iv_shift = PrimeIntervalSet(
                index=None,
                lo=ivs.i1.lo,
                hi=ivs.i1.hi,
                modulus=m,
                primes=ivs.i1.primes,
                count_vector=shifted,
            )
            shifted_triple = IntervalTriple(iv_shift, ivs.i2, ivs.i3)
            for a in units_of(m)[:8]:
                assert count_solutions_direct(a * u % m, shifted_triple) == \
                    count_solutions_direct(a, ivs)


class TestConductorSplit:
    def test_mod5_hand_values(self, tables):
        ivs = canonical_triple(5, 2, tables)
        small, large = conductor_split(2, ivs, threshold=5.0)
        assert abs(small - 2 * math.sqrt(2)) < 1e-9
        assert large == 0.0

    def test_threshold_at_least_m_empties_large(self, tables):
        for m in (9, 15, 21):
            ivs = canonical_triple(m, 2, tables)
            _, large = conductor_split(1, ivs, threshold=float(m))
            assert large == 0.0

    def test_threshold_below_one_rejected(self, tables):
        ivs = canonical_triple(5, 2, tables)
        with pytest.raises(DomainError):
            conductor_split(2, ivs, threshold=0.5)

    def test_split_partitions_total(self, tables):
        for m in (15, 21):
            ivs = canonical_triple(m, 2, tables)
            s_all = conductor_split(1, ivs, threshold=float(m))
            for thr in (1.0, 3.0, 7.0):
                small, large = conductor_split(1, ivs, threshold=thr)
                assert abs(small + large - (s_all[0] + s_all[1])) < 1e-9


class TestPositivity:
    def test_mod5_not_certified_at_desk_scale(self, tables):
        ivs = canonical_triple(5, 2, tables)
        rep = positivity_certificate(2, ivs)
        assert rep.interval_product == 2
        assert abs(rep.remainder_sum - 2 * math.sqrt(2)) < 1e-9
        assert not rep.certified

    def test_empty_interval_no_certificate(self, tables):
        a = build_custom_interval(20, 40, 9, tables)
        b = build_custom_interval(41, 60, 9, tables)
        empty = build_custom_interval(4, 3, 9, tables)
        rep = positivity_certificate(1, IntervalTriple(a, b, empty))
        assert rep.interval_product == 0
        assert rep.ratio is None
        assert not rep.certified

    def test_ratio_decreases_on_prime_ladder(self):
        from phimin.sieve import build_sieve

        t = build_sieve(170_000)
        ratios = []
        for m in (101, 1009, 3001):
            ivs = canonical_triple(m, 2, t)
            rep = positivity_certificate(1, ivs)
            ratios.append(rep.ratio)
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] < 1.0  # certified from m = 1009 on

    def test_certificate_implies_positive_counts(self, tables):
        # wide custom intervals make the main term dominate
        m = 9
        ivs = IntervalTriple(
            build_custom_interval(600.0, 2900.0, m, tables),
            build_custom_interval(150.0, 600.0, m, tables),
            build_custom_interval(3.0, 150.0, m, tables),
        )
        rep = positivity_certificate(1, ivs)
        assert rep.certified
        for a in units_of(m):
            assert count_solutions_direct(a, ivs) > 0


class TestThresholdAndReport:
    def test_report_fields(self, tables):
        m = 15
        ivs = canonical_triple(m, 3, tables)
        rep = count_report(2, ivs, k=3)
        d = rep.to_dict()
        assert d["m"] == 15 and d["a"] == 2 and d["k"] == 3
        assert d["delta"] == 1
        assert abs(d["J_characters"] - d["J_direct"]) < 1e-6 * (1 + d["J_direct"])
        assert d["threshold"] == 15.0
        assert set(d) == {
            "m", "a", "k", "delta", "J_direct", "J_characters", "main_term",
            "psi_term", "S_small", "S_large", "threshold", "certified",
        }
