"""Command-line front end.

Subcommands: oracle, search, count, verify, scan.  Outputs are JSON
records (one per line, each carrying schema_version) or CSV with stable
headers; all bytes are deterministic given the flags, regardless of
--jobs.

Exit codes: 0 success, 2 usage or domain error, 3 not found at the
given cap/scale, 4 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import bounds, counting, intervals, search
from .arith import check_reduced_odd
from .characters import build_unit_group
from .errors import ConsistencyError, DomainError
from .intervals import build_custom_interval, build_interval
from .sieve import build_sieve

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_FOUND = 3
EXIT_INCONSISTENT = 4


def _emit(record: dict) -> None:
    record = {"schema_version": SCHEMA_VERSION, **record}
    sys.stdout.write(json.dumps(record) + "\n")


# -- subcommands ----------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    m, a = args.m, args.a
    check_reduced_odd(a, m)
    cap = args.cap if args.cap is not None else search.default_cap(m)
    search.check_cap(cap)
    tables = build_sieve(math.isqrt(cap) + 1)
    n = search.oracle_N_multi([a], m, cap, tables)[a % m]
    record = {"command": "oracle", "m": m, "a": a, "cap": cap, "found": n is not None}
    _emit({**record, "N": n, "exponent": search.exponent(n, m)})
    return EXIT_OK if n is not None else EXIT_NOT_FOUND


def _canonical_triple(a: int, m: int, k: int) -> intervals.IntervalTriple:
    """Check (a, m), then build the canonical triple over a sieve sized
    to cover it.  A k below 10 only weakens the exponent 2 + 2/k, and
    search and count, its only callers, say so on stderr."""
    check_reduced_odd(a, m)
    tables = build_sieve(intervals.interval_sieve_limit(m, k))
    if k < 10:
        print(
            f"phimin: warning: k={k} below 10: asymptotic exponents degrade, "
            "identities are unaffected",
            file=sys.stderr,
        )
    return search.canonical_triple(m, k, tables)


def cmd_search(args: argparse.Namespace) -> int:
    m, a, k = args.m, args.a, args.k
    witness = search.constructive_search(a, _canonical_triple(a, m, k))
    record = {"command": "search", "m": m, "a": a, "k": k, "found": witness is not None}
    if witness is not None:
        record.update(
            n=witness.n,
            delta=witness.delta,
            p1=witness.p1,
            p2=witness.p2,
            p3=witness.p3,
            exponent=witness.exponent,
        )
    _emit(record)
    return EXIT_OK if witness is not None else EXIT_NOT_FOUND


def cmd_count(args: argparse.Namespace) -> int:
    m, a, k = args.m, args.a, args.k
    triple = _canonical_triple(a, m, k)
    report = counting.count_report(a, triple, k=k, threshold=args.threshold)
    _emit({"command": "count", **report.to_dict()})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    runner = _VERIFY_SUITES[args.suite]
    checks = runner()
    passed = all(c["holds"] for c in checks)
    for c in checks:
        _emit({"command": "verify", "suite": args.suite, **c})
    _emit(
        {
            "command": "verify",
            "suite": args.suite,
            "checks": len(checks),
            "passed": passed,
        }
    )
    return EXIT_OK if passed else EXIT_INCONSISTENT


def cmd_scan(args: argparse.Namespace) -> int:
    parts = args.m_range.split(":")
    try:  # a bad integer and a wrong part count both raise ValueError
        lo, hi, step = map(int, parts + ["2"] if len(parts) == 2 else parts)
    except ValueError:
        raise DomainError(f"malformed --m-range {args.m_range!r}, want lo:hi[:step]")
    if step < 1 or hi < lo:
        raise DomainError(f"empty or descending --m-range {args.m_range!r}")
    m_values = list(range(lo, hi + 1, step))
    try:  # other text stays text, and exponent_scan accepts only "all"
        a_sample: int | str = int(args.a_sample)
    except ValueError:
        a_sample = args.a_sample
    rows = search.exponent_scan(m_values, a_sample=a_sample, k=args.k, jobs=args.jobs)
    if args.out == "-":
        _write_scan_csv(rows, sys.stdout)
        return EXIT_OK
    # opened only after the scan, so a scan that fails its checks leaves no file
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_scan_csv(rows, fh)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out}: {exc.strerror or exc}")
    _emit({"command": "scan", "out": args.out, **_summarize(rows)})
    return EXIT_OK


def _summarize(rows: list[dict]) -> dict:
    """The scan's file-mode record: row counts and exponent statistics."""
    n_exps = [r["N_exponent"] for r in rows if r["N_exponent"] is not None]
    w_exps = [r["witness_exponent"] for r in rows if r["witness_exponent"] is not None]
    summary = {
        "rows": len(rows),
        "oracle_found": sum(1 for r in rows if r["N"] is not None),
        "witness_found": sum(1 for r in rows if r["found"]),
        "errors": sum(1 for r in rows if "error" in r),
    }
    if n_exps:
        arr = np.array(n_exps)
        summary["max_N_exponent"] = float(arr.max())
        summary["mean_N_exponent"] = float(arr.mean())
        summary["p90_N_exponent"] = float(np.quantile(arr, 0.9))
    if w_exps:
        arr = np.array(w_exps)
        summary["max_witness_exponent"] = float(arr.max())
        summary["mean_witness_exponent"] = float(arr.mean())
    return summary


def _cell(x, spec: str = "") -> str:
    """x formatted by spec; None is an empty cell."""
    return "" if x is None else format(x, spec)


def _write_scan_csv(rows: list[dict], out) -> None:
    """The scan CSV in search.SCAN_FIELDS order; no cell holds a comma, a
    quote or a newline, so none is quoted."""
    out.write(",".join(search.SCAN_FIELDS) + "\n")
    out.write("".join(
        f"{r['m']},{r['a']},{r['delta']},"
        f"{_cell(r['N'])},{_cell(r['N_exponent'], '.6f')},"
        f"{_cell(r['witness_n'])},{_cell(r['witness_exponent'], '.6f')},"
        f"{_cell(r['J_direct'])},{'true' if r['found'] else 'false'}\n"
        for r in rows
    ))


# -- verify suites ---------------------------------------------------------


def _check(name: str, inputs: dict, lhs, rhs, holds: bool) -> dict:
    """One verify record: the check, its inputs, and whether lhs meets rhs."""
    return {"check": name, "inputs": inputs, "lhs": lhs, "rhs": rhs, "holds": holds}


def _suite_rho() -> list[dict]:
    checks = []
    for d in range(3, 166, 2):
        ctx = build_unit_group(d)
        dev = abs(intervals.rho_definition(ctx) - intervals.rho_closed_form(ctx))
        worst = float(dev.max(initial=0.0))
        inputs = {"d": d, "primitive_characters": dev.size}
        checks.append(_check("rho_closed_form", inputs, worst, 1e-9, worst < 1e-9))
    return checks


def _suite_parseval() -> list[dict]:
    tables = build_sieve(1200)
    checks = []
    for m in range(9, 106, 2):
        ctx = build_unit_group(m)
        ivs = [build_interval(j, m, 2, tables) for j in (1, 2, 3)]
        ivs.append(build_custom_interval(float(m), 3.0 * m, m, tables))
        worst = 0.0
        for iv in ivs:
            total = intervals.parseval_sum(iv, ctx)
            exact = ctx.phi * float((iv.count_vector**2).sum())
            if exact:
                worst = max(worst, abs(total - exact) / exact)
        inputs = {"m": m, "intervals": len(ivs)}
        checks.append(_check("parseval", inputs, worst, 1e-6, worst < 1e-6))
    return checks


def _suite_constant() -> list[dict]:
    value, tail = bounds.euler_product_constant(10**6)
    total, ceiling = value + tail, bounds.CONSTANT_CEILING
    inputs = {"cutoff": 10**6}
    return [_check("euler_product_constant", inputs, total, ceiling, total < ceiling)]


def _suite_lemma1() -> list[dict]:
    checks = []
    small = build_sieve(2000)
    # enumerated counts are exact; rel_error is diagnostic only
    for m, k, j, want in ((101, 10, 2, 11), (5, 2, 3, 1)):
        actual, predicted, rel = bounds.interval_count_accuracy(m, k, j, small)
        inputs = {"m": m, "k": k, "j": j, "rel_error": rel}
        holds = actual == want and predicted > 0
        checks.append(_check("interval_cardinality", inputs, actual, want, holds))
    big = build_sieve(100_003)
    moduli = [1001, 10_001, 100_003]
    rels = [bounds.interval_count_accuracy(m, 10, 2, big)[2] for m in moduli]
    inputs = {"m": moduli, "rel_errors": rels}
    holds = rels[0] > rels[1] > rels[2]
    checks.append(
        _check("interval_cardinality_trend", inputs, rels[-1], rels[0], holds)
    )
    return checks


def _suite_rakhmonov() -> list[dict]:
    tables = build_sieve(10_000)
    checks = []
    for m in (15, 21, 105):
        for x in (1000.0, 10_000.0):
            lhs, rhs, holds = bounds.rakhmonov_inequality_check(x, m, tables)
            bounded = rhs > 0
            worst = float((lhs[bounded] / rhs[bounded]).max(initial=0.0))
            ok = bool(holds.all())
            checks.append(_check("rakhmonov_bound", {"m": m, "x": x}, worst, 1.0, ok))
    return checks


def _suite_identity() -> list[dict]:
    tables = build_sieve(1000)
    psi = counting.PSI
    checks = []
    for m in (9, 15, 21, 33, 45):
        ivs = intervals.IntervalTriple(
            build_custom_interval(2.0 * m, 4.0 * m, m, tables),
            build_custom_interval(float(m), 2.0 * m, m, tables),
            build_custom_interval(3.0, float(m), m, tables),
        )
        product = ivs.product
        # S1(psi) S2(psi) S3(psi) does not depend on a
        sums = math.prod(counting.psi_sum(iv.count_vector) for iv in ivs)
        worst = 0.0
        for a in ivs.unit_group.units().tolist():
            delta = counting.indicator_1am(a, m)
            val = sums * psi[a % 3] * psi[(1 + delta) % 3]
            worst = max(worst, float(abs(val - product)))
        inputs = {"m": m, "interval_product": product}
        checks.append(_check("psi_product_identity", inputs, worst, 1e-9, worst < 1e-9))
        # decomposition: J = |I|^3/phi + psi term + remainder/phi
        base = product / ivs.unit_group.phi
        psi_part = counting.psi_term(ivs)
        for a in (1, 2):
            j_char = counting.count_solutions_characters(a, ivs)
            rest = counting.remainder_term(a, ivs)
            err = abs(j_char - (base + psi_part + rest))
            inputs = {"m": m, "a": a}
            checks.append(_check("count_decomposition", inputs, err, 1e-6, err < 1e-6))
    return checks


_VERIFY_SUITES = {
    "rho": _suite_rho,
    "parseval": _suite_parseval,
    "constant": _suite_constant,
    "lemma1": _suite_lemma1,
    "rakhmonov": _suite_rakhmonov,
    "identity": _suite_identity,
}


# -- parser ----------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """Built once; main looks each command up by name when it runs."""
    parser = argparse.ArgumentParser(
        prog="phimin",
        description="Least totient preimages in residue classes: oracles, "
        "three-prime search, character-sum counting, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="least n <= cap with phi(n) = a (mod m)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="default m^3")

    p = sub.add_parser("search", help="three-prime witness n = 4^d p1 p2 p3")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, default=2)

    p = sub.add_parser("count", help="solution count J by two independent routes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--threshold", type=float, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=tuple(_VERIFY_SUITES))

    p = sub.add_parser("scan", help="exponent scan over a range of moduli")
    p.add_argument("--m-range", required=True, help="lo:hi[:step], hi inclusive")
    p.add_argument("--a-sample", default="all", help="'all' or a count per m")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="-", help="CSV path or - for stdout")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConsistencyError as exc:
        code, error = EXIT_INCONSISTENT, f"consistency failure: {exc}"
    except DomainError as exc:
        code, error = EXIT_USAGE, str(exc)
    print(f"phimin: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
