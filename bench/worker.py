"""One benchmark process: drives phimin through its public entry points.

Started by run.py with the path of a JSON plan as its argument.  The worker imports
phimin from the checkout's `src`, builds the tables the workload reuses,
prints `ready`, runs one untimed warm-up item and then whole rounds of the
plan's items in their fixed order until `seconds` have passed.  Its last
stdout line is one JSON record with every item's time, exit code and
output, the peak RSS, and, when tracing, the spans.  A plan marked
`probe` stops at `ready`: run.py times several such set-ups.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class NullTracer:
    """The untraced run: a span is a plain call."""

    spans = None

    def span(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory as [name, start, end, parent, attrs].  A call that
    raises keeps attrs None."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name, fn, *args, attrs=None, before=None, **kwargs):
        index = len(self.spans)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.spans.append(rec)
        self.stack.append(index)
        state = before(args) if before else None
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if attrs:
            rec[4] = attrs(args, result, state)
        return result

    def wrap(self, owner, attr, name, attrs=None, before=None):
        """Replace owner.attr, where its callers look it up, by a traced call."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, attrs=attrs, before=before, **kwargs)

        setattr(owner, attr, traced)


def install_tracing(tracer: Tracer) -> None:
    from phimin import characters, cli, counting, search

    def sieve_bytes(args, tables, _):
        return tables.spf.nbytes + tables.primes.nbytes

    def interval_size(args, iv, _):
        return [args[0], iv.size]

    def oracle_attrs(args, found, _):
        hits = [n for n in found.values() if n is not None]
        return [len(found), max(hits, default=0)]

    for owner in (cli, search):
        tracer.wrap(owner, "build_sieve", "sieve.build", sieve_bytes)
        tracer.wrap(owner, "build_interval", "intervals.build", interval_size)
    tracer.wrap(search, "segment_phi", "search.segment_phi", lambda a, r, s: a[1] - a[0])
    tracer.wrap(search, "oracle_N_multi", "search.oracle", oracle_attrs)
    tracer.wrap(search, "constructive_search", "search.witness", lambda a, r, s: r is not None)
    tracer.wrap(search, "exponent_scan", "search.scan")
    for owner in (search, counting):
        tracer.wrap(owner, "count_solutions_direct", "counting.direct")
    tracer.wrap(counting, "count_report", "counting.report")
    tracer.wrap(counting, "count_solutions_characters", "counting.characters")
    tracer.wrap(counting, "conductor_split", "counting.split")
    tracer.wrap(counting, "positivity_certificate", "counting.split")
    tracer.wrap(counting, "character_sums_all", "intervals.char_sums")
    tracer.wrap(cli, "build_unit_group", "characters.unit_group")
    tracer.wrap(
        characters.UnitGroupContext,
        "value_matrix",
        "characters.value_matrix",
        attrs=lambda a, r, built: r.nbytes if built else 0,
        before=lambda a: a[0]._value_matrix is None,
    )
    tracer.wrap(characters.UnitGroupContext, "conductors", "characters.conductors")


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if plan["trace"] else NullTracer()
    import phimin
    from phimin import cli, search

    if not Path(phimin.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: phimin imported from {phimin.__file__}", file=sys.stderr)
        return 2
    if plan["trace"]:
        install_tracing(tracer)

    workload, items = plan["workload"], plan["items"]
    if workload == "oracle":
        limit = max(math.isqrt(it["m"] ** 3) + 1 for it in items)
        tables = tracer.span("bench.setup", search.build_sieve, limit)

        def call(item):
            m = item["m"]
            found = search.oracle_N_multi(item["a"], m, m**3, tables)
            return 0, {str(a): n for a, n in found.items()}
    else:

        def call(item):
            return tracer.span("cli.main", cli.main, [str(x) for x in item["argv"]]), None

    def run(item):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, result = call(item)
        except Exception as exc:  # an item that raises counts as failed
            rc, result = None, None
            err.write(repr(exc))
        ms = (time.perf_counter() - t0) * 1e3
        return {"ms": ms, "rc": rc, "out": out.getvalue() if result is None else result,
                "err": err.getvalue()[-2000:]}

    print("ready", flush=True)
    if plan.get("probe"):
        return 0

    warmup = min(items, key=lambda it: it["m"])
    tracer.span("bench.warmup", run, warmup)

    records = []
    start = time.perf_counter()
    while True:
        for i, item in enumerate(items):
            rec = tracer.span("bench.item", run, item)
            rec["item"] = i
            records.append(rec)
        if time.perf_counter() - start >= plan["seconds"]:
            break
    wall = time.perf_counter() - start

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": peak_kib / 1024,
        "records": records,
        "spans": tracer.spans,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
