"""phimin benchmark: one workload, one run.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Draws the workload's inputs from --seed, computes independent references,
times several set-ups, then runs the workload in a fresh worker process for
--seconds and checks every output.  The last stdout line is one JSON record
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics from a traced worker with --trace 1.
Run outputs and span files go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS/OpenMP thread in this process and the workers, set before numpy
# loads: the workloads are single-threaded, and a second BLAS thread would
# compete with the launcher and the host for the second core.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 10  # probe processes, half before and half after the measured worker


def start_worker(plan: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; return it with the set-up
    time, interpreter start-up included."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(plan)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup_s = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def run_worker(plan: dict, stem: str) -> tuple[dict, list[float]]:
    """Run the measured worker.  Untraced, also time SETUP_PROBES set-ups of
    processes that stop at `ready`, spread before and after it so that they
    see the same host speed as the run."""
    # A run lasts at most one round past `seconds`; a round is well under a minute.
    timeout = 2 * plan["seconds"] + 60
    path = OUT / f"{stem}-plan.json"
    probe_path = OUT / f"{stem}-probe.json"
    probe_path.write_text(json.dumps({**plan, "probe": True}))
    path.write_text(json.dumps(plan))
    probes = 0 if plan["trace"] else SETUP_PROBES

    def probe():
        proc, setup_s = start_worker(probe_path)
        finish(proc, timeout)
        return setup_s

    setups = [probe() for _ in range(probes // 2)]
    proc, setup_s = start_worker(path)
    setups.append(setup_s)
    out = finish(proc, timeout)
    setups += [probe() for _ in range(probes - probes // 2)]
    return json.loads(out.strip().splitlines()[-1]), setups


# -- per-layer metrics from spans -------------------------------------------

LAYER_TIMES = {  # metric: the span whose self time it sums
    "sieve.build_s": "sieve.build",
    "search.segment_phi_s": "search.segment_phi",
    "search.first_hit_s": "search.oracle",
    "search.witness_s": "search.witness",
    "search.scan_self_s": "search.scan",
    "intervals.build_s": "intervals.build",
    "intervals.char_sums_s": "intervals.char_sums",
    "characters.unit_group_s": "characters.unit_group",
    "characters.value_matrix_s": "characters.value_matrix",
    "characters.conductors_s": "characters.conductors",
    "counting.direct_s": "counting.direct",
    "counting.characters_s": "counting.characters",
    "counting.split_s": "counting.split",
    "counting.report_self_s": "counting.report",
    "cli.self_s": "cli.main",
}


def layer_metrics(spans: list[list], items: int) -> dict:
    """Per-item self times and counters of the timed items, plus the sieve
    time of the set-up.  A span's self time is its duration minus that of its
    direct children, which run inside it on the one thread."""
    self_s = [end - start for _, start, end, _, _ in spans]
    root = list(range(len(spans)))
    children: dict[int, list[int]] = {}
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            self_s[parent] -= end - start
            root[i] = root[parent]
            children.setdefault(parent, []).append(i)
    timed = [i for i in range(len(spans)) if spans[root[i]][0] == "bench.item"]

    def named(name):
        return [i for i in timed if spans[i][0] == name]

    def total(name):
        return sum(self_s[i] for i in named(name))

    def calls(name):
        return len(named(name))

    def attr(name, pick=lambda a: a):  # calls that raised have no attrs
        return sum(pick(spans[i][4]) for i in named(name) if spans[i][4] is not None)

    def pairs(i):  # |I2| * |I3| from the intervals this witness search built
        sizes = dict(spans[c][4] for c in children.get(i, [])
                     if spans[c][0] == "intervals.build" and spans[c][4] is not None)
        return sizes.get(2, 0) * sizes.get(3, 0)

    streamed = attr("search.segment_phi")
    witness_calls = calls("search.witness")
    per_item = {metric: total(name) for metric, name in LAYER_TIMES.items()}
    per_item.update({
        "sieve.bytes": attr("sieve.build"),
        "search.integers_streamed": streamed,
        "search.targets": attr("search.oracle", lambda a: a[0]),
        "search.witness_calls": witness_calls,
        "search.pairs_examined": sum(pairs(i) for i in named("search.witness")),
        "intervals.builds": calls("intervals.build"),
        "intervals.char_sum_calls": calls("intervals.char_sums"),
        "characters.value_matrix_bytes": attr("characters.value_matrix"),
    })
    metrics = {name: value / items for name, value in per_item.items()}
    metrics["search.stream_yield"] = (
        attr("search.oracle", lambda a: a[1]) / streamed if streamed else 0.0
    )
    metrics["search.witness_hit_ratio"] = (
        attr("search.witness", int) / witness_calls if witness_calls else 0.0
    )
    metrics["sieve.setup_build_s"] = sum(
        self_s[i] for i in range(len(spans))
        if spans[i][0] == "sieve.build" and spans[root[i]][0] == "bench.setup"
    )
    return metrics


# -- main -------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "phimin" / "__init__.py").is_file():
        print(f"run.py: no phimin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import reference
    from workloads import FINISHED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    make_items, references, check = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference.self_check()
    items = make_items(args.seed)
    refs = references(items)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    plan = {"workload": args.workload, "items": items, "seconds": args.seconds,
            "trace": args.trace}
    result, setups = run_worker(plan, stem)
    records = result["records"]
    failed, problems = [], []
    for r in records:
        if r["rc"] in FINISHED[args.workload]:
            problems += check(items[r["item"]], r, refs)
        else:
            failed.append(r["err"])

    times = [r["ms"] for r in records]
    n = len(records)
    items_per_s = n / result["wall_s"]
    if args.trace:
        metrics = layer_metrics(result["spans"], n)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "items_per_s": items_per_s,
            "item_p50_ms": statistics.median(times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    summary = {"workload": args.workload, "seed": args.seed,
               "items": [it.get("argv") or it["m"] for it in items],
               "item_ms": times, "setup_samples_s": setups, "metrics": metrics,
               "problems": problems[:50], "failures": failed[:10]}
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1))
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))

    line = (f"{args.workload} seed={args.seed} trace={args.trace}: {n} items in "
            f"{result['wall_s']:.2f} s ({items_per_s:.3f}/s), "
            f"p50 {statistics.median(times):.1f} ms")
    if n >= 100:  # a p90 with at least ten items beyond it; for reference only
        line += f", p90 {statistics.quantiles(times, n=10)[-1]:.1f} ms"
    print(line)
    for p in problems[:10]:
        print("wrong:", p)
    print(json.dumps({"correct": not problems, "attempted": n, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
