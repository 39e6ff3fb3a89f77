"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np

from phimin import cli
from phimin.arith import trial_factorize
from phimin.bounds import (
    CONSTANT_CEILING,
    euler_product_constant,
    rakhmonov_inequality_check,
)
from phimin.characters import build_unit_group
from phimin.counting import (
    count_solutions_characters,
    count_solutions_direct,
    indicator_1am,
)
from phimin.intervals import (
    build_custom_interval,
    character_sums_all,
    parseval_sum,
    rho_closed_form,
    rho_definition,
)
from phimin.search import (
    canonical_triple,
    default_cap,
    exponent_scan,
    oracle_N_multi,
)
from phimin.sieve import build_sieve
from reference import count_solutions_enumerate, euler_phi

EQUIVALENCE_MODULI = (9, 15, 21, 25, 33, 35, 45)

# regression baseline from the recorded scan of odd m in [51, 301],
# 20 units per m, k = 2, cap m^3 (observed max 1.8424)
N_EXPONENT_BASELINE = 1.85

# SHA-256 of that scan's CSV (111,024 bytes), as written by
# `phimin scan --m-range 51:301 --a-sample 20 --k 2`
SCAN_CSV_SHA256 = "f4111be8fe6027bf40e19ef228ae09a995f84be52951e1c0728e9022aeefec2b"


def units_of(m):
    return [a for a in range(1, m + 1) if math.gcd(a, m) == 1]


def three_free_intervals(m, tables):
    """Desk-scale custom intervals with every endpoint above p = 3."""
    return (
        build_custom_interval(2.0 * m, 4.0 * m, m, tables),
        build_custom_interval(float(m), 2.0 * m, m, tables),
        build_custom_interval(3.0, float(m), m, tables),
    )


def report(num, ok, text):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_criterion_1_rho_closed_form():
    t0 = time.monotonic()
    checked = 0
    worst = 0.0
    for d in range(3, 166, 2):
        ctx = build_unit_group(d)
        dev = np.abs(rho_definition(ctx) - rho_closed_form(ctx))
        worst = max(worst, dev.max())
        checked += dev.size
    # primitive characters on non-squarefree odd d up to 200 average to 0
    zero_worst = 0.0
    for d in range(9, 201, 2):
        if all(e == 1 for _, e in trial_factorize(d).factors):
            continue
        zero_worst = max(zero_worst, np.abs(rho_definition(build_unit_group(d))).max())
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and zero_worst < 1e-9 and elapsed < 10.0
    report(
        1,
        ok,
        f"rho defining sum vs closed form on {checked} primitive characters "
        f"(odd d <= 165): max deviation {worst:.2e}, non-squarefree max "
        f"{zero_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_counting_oracle_equivalence():
    t0 = time.monotonic()
    tables = build_sieve(3000)
    rows = 0
    worst = 0.0
    for m in EQUIVALENCE_MODULI:
        for k in (2, 3):
            ivs = canonical_triple(m, k, tables)
            for a in units_of(m):
                jd = count_solutions_direct(a, ivs)
                jc = count_solutions_characters(a, ivs)
                je = count_solutions_enumerate(a, ivs)
                assert jd == je, (m, k, a, jd, je)
                dev = abs(jc - jd) / (1 + jd)
                worst = max(worst, dev)
                rows += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report(
        2,
        ok,
        f"character count vs direct convolution vs literal enumeration on "
        f"{rows} (m, k, a) rows: worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_psi_product_identity():
    tables = build_sieve(1000)
    worst = 0.0
    rows = 0
    for m in (9, 15, 21, 33, 45):
        ctx = build_unit_group(m)
        ivs = three_free_intervals(m, tables)
        (psi,) = np.flatnonzero(ctx.conductors() == 3)
        s = [character_sums_all(ctx, iv.count_vector)[psi] for iv in ivs]
        product = ivs[0].size * ivs[1].size * ivs[2].size
        assert product > 0
        for a in units_of(m):
            delta = indicator_1am(a, m)
            chi_a, chi_d = ctx.values_at(a)[psi], ctx.values_at(1 + delta)[psi]
            val = s[0] * s[1] * s[2] * chi_a.conjugate() * chi_d
            worst = max(worst, abs(val - product))
            rows += 1
    ok = worst < 1e-9
    report(
        3,
        ok,
        f"psi product identity S1 S2 S3 conj(psi(a)) psi(1+d) = |I1||I2||I3| "
        f"on {rows} (m, a) pairs: max deviation {worst:.2e}",
    )


def test_criterion_4_parseval():
    tables = build_sieve(3000)
    worst = 0.0
    pairs = 0
    for m in EQUIVALENCE_MODULI:
        ctx = build_unit_group(m)
        tested = []
        for k in (2, 3):
            tested.extend(canonical_triple(m, k, tables))
        tested.append(build_custom_interval(float(m), 8.0 * m, m, tables))
        for iv in tested:
            total = parseval_sum(iv, ctx)  # raises on violation already
            exact = ctx.phi * float((iv.count_vector**2).sum())
            if exact:
                worst = max(worst, abs(total - exact) / exact)
            pairs += 1
    ok = worst < 1e-6
    report(
        4,
        ok,
        f"Parseval sum_chi |S|^2 = phi(m) sum_b c[b]^2 on {pairs} "
        f"(m, interval) pairs: worst relative gap {worst:.2e}",
    )


def test_criterion_5_constant_certified():
    t0 = time.monotonic()
    value, tail = euler_product_constant(10**6)
    elapsed = time.monotonic() - t0
    ok = (
        abs(value - 0.4050050022) < 1e-6  # frozen independent-oracle value
        and tail < 1e-4
        and value + tail < CONSTANT_CEILING
        and elapsed < 5.0
    )
    report(
        5,
        ok,
        f"small-conductor constant = {value:.10f} + tail {tail:.2e} "
        f"< {CONSTANT_CEILING} (below the analytic ceiling 0.5265...), "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_oracle_golden_values():
    tables = build_sieve(2000)
    # N(1, m) = 1 for every odd m <= 999
    for m in range(1, 1000, 2):
        found = oracle_N_multi([1], m, 5, tables)
        assert found[1 % m] == 1, m
    golden = {(2, 3): 3, (3, 5): 15, (2, 5): 3, (4, 5): 5}
    for (a, m), want in golden.items():
        got = oracle_N_multi([a], m, want + 10, tables)[a]
        assert got == want, (a, m, got)
    # minimality for odd m <= 99 against phi(n) from factorizations
    phi = [0]
    checked = 0
    for m in range(3, 100, 2):
        found = oracle_N_multi(units_of(m), m, default_cap(m), tables)
        assert all(n is not None for n in found.values()), m
        top = max(found.values())
        phi += [euler_phi(trial_factorize(n)) for n in range(len(phi), top + 1)]
        residues = np.array(phi[1:]) % m
        for a, n_val in found.items():
            hits = np.nonzero(residues == a)[0]
            assert hits.size and hits[0] + 1 == n_val, (m, a)
            checked += 1
    report(
        6,
        True,
        f"oracle golden values and N(1,m)=1 for odd m<=999; minimality "
        f"re-verified for {checked} (a, m) pairs with odd m <= 99",
    )


def test_criterion_7_witness_scan():
    t0 = time.monotonic()
    rows, summary = exponent_scan(
        list(range(51, 302, 2)), a_sample=20, k=2, jobs=4
    )
    assert summary["errors"] == 0
    hits = misses = 0
    for row in rows:
        assert row["J_direct"] is not None
        if row["found"]:
            hits += 1
            n = row["witness_n"]
            a, m = row["a"], row["m"]
            assert euler_phi(trial_factorize(n)) % m == a % m, row
            assert row["J_direct"] > 0, row
        else:
            misses += 1
            assert row["J_direct"] == 0, row
    csv_out = io.StringIO()
    cli._write_scan_csv(rows, csv_out)
    digest = hashlib.sha256(csv_out.getvalue().encode("utf-8")).hexdigest()
    max_exp = summary["max_N_exponent"]
    elapsed = time.monotonic() - t0
    ok = (
        max_exp <= N_EXPONENT_BASELINE
        and max_exp <= 2.6
        and digest == SCAN_CSV_SHA256
    )
    report(
        7,
        ok,
        f"witness scan odd m in [51, 301], 20 units per m, k=2: {hits} hits "
        f"all re-verified via factorization, {misses} misses all with J=0; "
        f"max oracle exponent {max_exp:.4f} <= {N_EXPONENT_BASELINE} "
        f"(baseline) <= 2.6; CSV sha256 {digest[:12]}... "
        f"(recorded {SCAN_CSV_SHA256[:12]}...), {elapsed:.0f}s",
    )


def test_criterion_8_rakhmonov_never_violated():
    tables = build_sieve(10_000)
    checked = 0
    for m in (15, 21, 105):
        for x in (1000.0, 10_000.0):
            lhs, rhs, holds = rakhmonov_inequality_check(x, m, tables)
            assert holds.all(), (m, x, np.flatnonzero(~holds), lhs, rhs)
            checked += holds.size
    # the CLI surfaces a violation as exit 4
    r = subprocess.run(
        [sys.executable, "-m", "phimin", "verify", "--suite", "rakhmonov"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    final = json.loads(r.stdout.strip().splitlines()[-1])
    assert final["passed"] is True
    report(
        8,
        True,
        f"Rakhmonov shifted-prime bound held on all {checked} "
        f"(chi, x, m) checks; verify suite exit 0",
    )


def test_criterion_9_scan_determinism(tmp_path):
    args = [
        sys.executable, "-m", "phimin", "scan",
        "--m-range", "51:121:2", "--a-sample", "6", "--k", "2",
    ]
    out1, out8 = tmp_path / "jobs1.csv", tmp_path / "jobs8.csv"
    r1 = subprocess.run(
        args + ["--jobs", "1", "--out", str(out1)], capture_output=True, text=True
    )
    r8 = subprocess.run(
        args + ["--jobs", "8", "--out", str(out8)], capture_output=True, text=True
    )
    assert r1.returncode == 0 and r8.returncode == 0
    same = out1.read_bytes() == out8.read_bytes()
    report(
        9,
        same,
        f"scan CSV byte-identical for --jobs 1 vs 8 "
        f"({out1.stat().st_size} bytes)",
    )
