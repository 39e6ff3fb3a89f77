"""The four workloads: seeded inputs, independent references and output checks.

Each workload is one round of items run in a fixed order; the worker repeats
whole rounds.  `make_items(seed)` draws the round, `references(items)`
computes what every output must be without calling phimin, and
`check(item, record, refs)` returns the reasons an output is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import reference as ref

K = ["--k", "2"]


def _record(text: str) -> dict:
    lines = text.strip().splitlines()
    if len(lines) != 1:
        raise ValueError(f"want one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _witness_problems(m, a, delta, p, is_prime, n=None) -> list[str]:
    if n is not None and n != 4**delta * p[0] * p[1] * p[2]:
        return [f"n={n} != 4^{delta} * {p}"]
    why = ref.witness_error(m, a, delta, p, is_prime)
    return [f"witness for ({a}, {m}): {why}"] if why else []


# -- scan -----------------------------------------------------------------
# One item is `phimin scan` over a single odd m with the first 20 units and
# k = 2.  A round is the acceptance scan, every odd m in [51, 301], one modulus
# at a time; the seed orders the moduli.  A sample of the range would make the
# cost of a round depend on the seed: one modulus drawn from each run of 9
# spread the mean item time over seeds by 4%.

SCAN_UNITS = 20
SCAN_FIELDS = ["m", "a", "delta", "N", "N_exponent", "witness_n",
               "witness_exponent", "J_direct", "found"]


def scan_items(seed: int) -> list[dict]:
    ms = list(range(51, 302, 2))
    random.Random(seed).shuffle(ms)
    return [
        {"m": m, "argv": ["scan", "--m-range", f"{m}:{m}", "--a-sample", str(SCAN_UNITS),
                          *K, "--jobs", "1"]}
        for m in ms
    ]


def scan_references(items: list[dict]) -> dict:
    phi = ref.totient_table(1 << 17)
    is_prime = ref.prime_mask(max(math.isqrt(it["m"] ** 3) for it in items) + 1)
    out = {"is_prime": is_prime}
    for it in items:
        m = it["m"]
        a_values = ref.units(m)[:SCAN_UNITS]
        counter = ref.TripleCounter.canonical(m, is_prime)
        out[m] = {
            "a": a_values,
            "N": ref.least_preimages(phi, m, a_values),
            "J": {a: counter.count(a) for a in a_values},
        }
    return out


def scan_check(item: dict, record: dict, refs: dict) -> list[str]:
    m, want = item["m"], refs[item["m"]]
    reader = csv.DictReader(io.StringIO(record["out"]))
    if reader.fieldnames != SCAN_FIELDS:
        return [f"scan m={m}: header {reader.fieldnames}"]
    rows = list(reader)
    if [int(r["m"]) for r in rows] != [m] * len(rows) or [int(r["a"]) for r in rows] != want["a"]:
        return [f"scan m={m}: rows are not the first {SCAN_UNITS} units"]
    problems = []
    for r in rows:
        a, delta = int(r["a"]), int(r["delta"])
        N, J = want["N"][a], want["J"][a]
        if r["N"] != str(N) or abs(float(r["N_exponent"]) - math.log(N) / math.log(m)) > 1e-6:
            problems.append(f"scan ({a}, {m}): N={r['N']!r}, want {N}")
        if r["J_direct"] != str(J) or r["found"] != ("true" if J > 0 else "false"):
            problems.append(f"scan ({a}, {m}): J={r['J_direct']!r} found={r['found']}, want J={J}")
        if r["found"] == "true":
            p = ref.factor_witness(int(r["witness_n"]), delta)
            problems += _witness_problems(m, a, delta, p or (0, 0, 0), refs["is_prime"])
    return problems


# -- oracle ---------------------------------------------------------------
# One item is search.oracle_N_multi over every unit of m with cap m^3: the
# paper's quantity max_a N(a, m).  4095, 6435 and 8001 need a second 2^20
# segment (max N 1,124,481, 1,635,303, 1,152,175); 3003 and 5001 need one.
# The seed only orders the five moduli.

ORACLE_MODULI = [3003, 4095, 5001, 6435, 8001]


def oracle_items(seed: int) -> list[dict]:
    ms = list(ORACLE_MODULI)
    random.Random(seed).shuffle(ms)
    return [{"m": m, "a": ref.units(m)} for m in ms]


def oracle_references(items: list[dict]) -> dict:
    phi = ref.totient_table(1 << 21)
    return {it["m"]: ref.least_preimages(phi, it["m"], it["a"]) for it in items}


def oracle_check(item: dict, record: dict, refs: dict) -> list[str]:
    m, want = item["m"], refs[item["m"]]
    got = record["out"]
    bad = [a for a in item["a"] if got.get(str(a)) != want[a]]
    if len(got) != len(want) or bad:
        return [f"oracle m={m}: {len(bad)} wrong N, first a={bad[:1]}"]
    return []


# -- search ---------------------------------------------------------------
# One item is `phimin search --k 2` for one (a, m).  The moduli are fixed,
# 10001 + 1000 i for i = 0..9, and the seed picks a unit a of each.  The cost
# of an item is the sieve up to m^1.5 plus the |I2| |I3| pair loop, and the
# interval sizes jump with m: 1,722 pairs at 11001, 13,748 at 19001.  Moduli
# drawn from 100-wide windows made the pairs of a round range over 54k-78k
# across seeds, so the seed now draws only a, which does not change the cost.

SEARCH_MODULI = [10_001 + 1000 * i for i in range(10)]


def search_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for m in SEARCH_MODULI:
        a = rng.choice(ref.units(m))
        items.append({"m": m, "a": a, "argv": ["search", "--m", m, "--a", a, *K]})
    return items


def _counting_references(items: list[dict]) -> dict:
    is_prime = ref.prime_mask(max(math.isqrt(it["m"] ** 3) for it in items) + 1)
    out = {"is_prime": is_prime}
    for m in {it["m"] for it in items}:
        out[m] = ref.TripleCounter.canonical(m, is_prime)
    return out


search_references = _counting_references


def search_check(item: dict, record: dict, refs: dict) -> list[str]:
    m, a = item["m"], item["a"]
    J = refs[m].count(a)
    try:
        rec = _record(record["out"])
    except ValueError as exc:
        return [f"search ({a}, {m}): {exc}"]
    if (rec["m"], rec["a"], rec["found"]) != (m, a, J > 0) or record["rc"] != (0 if J else 3):
        return [f"search ({a}, {m}): found={rec['found']} rc={record['rc']}, reference J={J}"]
    if not rec["found"]:
        return []
    p = (rec["p1"], rec["p2"], rec["p3"])
    return _witness_problems(m, a, rec["delta"], p, refs["is_prime"], rec["n"])


# -- count ----------------------------------------------------------------
# One item is `phimin count --k 2` for one (a, m).  The moduli are a prime
# (2003), a squarefree modulus with 3 | m (3003, the psi term) and two prime
# powers (2187 = 3^7, 3125 = 5^5); the seed picks a unit of each.  The
# phi(m) x m character table sets the memory.

COUNT_MODULI = [2003, 3003, 2187, 3125]


def count_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    items = []
    for m in COUNT_MODULI:
        a = rng.choice(ref.units(m))
        items.append({"m": m, "a": a, "argv": ["count", "--m", m, "--a", a, *K]})
    return items


count_references = _counting_references


def count_check(item: dict, record: dict, refs: dict) -> list[str]:
    m, a = item["m"], item["a"]
    counter = refs[m]
    J = counter.count(a)
    try:
        rec = _record(record["out"])
    except ValueError as exc:
        return [f"count ({a}, {m}): {exc}"]
    s1, s2, s3 = counter.sizes
    main = (2 if m % 3 == 0 else 1) * s1 * s2 * s3 / len(ref.units(m))
    checks = {
        "echo": (rec["m"], rec["a"], rec["delta"]) == (m, a, ref.delta_of(a, m)),
        "J_direct": rec["J_direct"] == J,
        "J_characters": abs(rec["J_characters"] - J) <= 1e-6 * (1 + J),
        "main_term": math.isclose(rec["main_term"], main, rel_tol=1e-12),
        "certified": J > 0 or not rec["certified"],
        "psi_term": m % 3 == 0 or rec["psi_term"] == 0,
        "exit": record["rc"] == 0,
    }
    return [f"count ({a}, {m}): {name} (reference J={J})" for name, ok in checks.items() if not ok]


WORKLOADS = {
    "scan": (scan_items, scan_references, scan_check),
    "oracle": (oracle_items, oracle_references, oracle_check),
    "search": (search_items, search_references, search_check),
    "count": (count_items, count_references, count_check),
}

# exit codes that mean the call ran to its end; `search` exits 3 when the
# intervals hold no solution, which its check then compares with J = 0
FINISHED = {"scan": {0}, "oracle": {0}, "search": {0, 3}, "count": {0}}
