#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, and their summary.

    python3 scripts/ab_pairs.py --parent DIR --change DIR --workload tensor_qq \\
        --seeds 1811-1820 [--seconds 25] [--out BENCH_18.json]

For each seed, ``perfbench/run.py --workload W --seed S --seconds N --trace 0``
runs once in each checkout, one run at a time; the side that runs first
alternates from seed to seed, the parent first at the first seed.  Each run's
last stdout line is its JSON result.  For every metric the script prints both
medians, the parent's quartiles (``statistics.quantiles``, inclusive method)
and in how many pairs the change reads lower; for each end-to-end metric of
``BENCHMARK.json`` it also prints whether the change median is within that
metric's relative bound of the parent median.  ``--out`` writes the pairs,
seeds and per-metric summary into a ``BENCH_<n>.json`` file under this
workload's name, keeping the other workloads already in that file.

Exit code 1 if any run reports ``"correct": false`` or prints no result.
Stdlib only.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

SPEC = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

METHOD = (
    "each seed runs parent then change or change then parent, alternating; each side in its"
    " own directory holding that commit's tracked files; medians over the pairs, quartiles by"
    " statistics.quantiles(method='inclusive'); 'pairs' lists [parent, change] per seed"
)


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or one seed ``A``."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range: {text}")
    return seeds


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def read_bounds(path=SPEC) -> dict:
    """{metric: relative bound} for the lower-is-better end-to-end metrics of
    a benchmark spec file."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"] if m["better"] == "lower"}


def summarize(pairs: list[tuple[dict, dict]], bounds: dict | None = None) -> dict:
    """Per-metric summary of (parent result, change result) pairs, each the
    last-line JSON of one ``perfbench/run.py`` run, in the BENCH file layout.
    A metric with a bound (``read_bounds()`` by default) gets ``bound`` and
    ``within_bound``: whether the change median is at most the parent median
    times (1 + bound)."""
    bounds = read_bounds() if bounds is None else bounds
    out: dict = {}
    for name in pairs[0][0]["metrics"]:
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs]
        parent = [p for p, _ in values]
        change = [c for _, c in values]
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": round(parent_median, 4),
            "parent_q1_q3": _quartiles(parent),
            "parent_min_max": [round(min(parent), 4), round(max(parent), 4)],
            "change_median": round(change_median, 4),
            "change_q1_q3": _quartiles(change),
            "change_min_max": [round(min(change), 4), round(max(change), 4)],
            "change_lower_in_pairs": sum(c < p for p, c in values),
            "ratio": round(change_median / parent_median, 4),
            "pairs": [[round(p, 4), round(c, 4)] for p, c in values],
        }
        if name in bounds:
            out[name]["bound"] = bounds[name]
            out[name]["within_bound"] = change_median <= parent_median * (1 + bounds[name])
    out["operations_failed"] = {
        "parent": sum(p["failed"] for p, _ in pairs),
        "change": sum(c["failed"] for _, c in pairs),
        "attempted_per_run": sorted({r["attempted"] for pair in pairs for r in pair}),
    }
    return out


def format_summary(workload: str, summary: dict) -> str:
    rows = [f"== {workload}: {len(next(iter(summary.values()))['pairs'])} pairs"]
    for name, s in summary.items():
        if name == "operations_failed":
            rows.append(f"  operations failed: parent {s['parent']}, change {s['change']}")
            continue
        q1, q3 = s["parent_q1_q3"]
        row = (
            f"  {name:<14} parent {s['parent_median']:.4f} (q1-q3 {q1:.4f}-{q3:.4f})"
            f" -> change {s['change_median']:.4f}, lower in"
            f" {s['change_lower_in_pairs']}/{len(s['pairs'])}, ratio {s['ratio']:.4f}"
        )
        if "within_bound" in s:
            row += f" {'within' if s['within_bound'] else 'OVER'} bound +{s['bound']:g}"
        rows.append(row)
    return "\n".join(rows)


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict | None:
    """One benchmark run in ``checkout``; its last-line JSON, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout} seed {seed}: no result (exit {proc.returncode})", file=sys.stderr)
        print(proc.stderr[-2000:], file=sys.stderr)
        return None


def write_bench(path: str, workload: str, seeds: list, summary: dict) -> None:
    """Put this workload's pairs, seeds and summary into the BENCH file."""
    bench: dict = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            bench = json.load(fh)
    command = "python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0"
    bench.setdefault("command", command)
    bench.setdefault("method", METHOD)
    for key, value in (("pairs", len(seeds)), ("seeds", seeds), ("workloads", summary)):
        bench.setdefault(key, {})[workload] = value
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", help="BENCH_<n>.json to write this workload into")
    args = parser.parse_args(argv)
    pairs, seeds = [], []
    ok = True
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        sides = {s: run_once(getattr(args, s), args.workload, seed, args.seconds) for s in order}
        ok &= all(r is not None and r["correct"] is True for r in sides.values())
        if None not in sides.values():
            pairs.append((sides["parent"], sides["change"]))
            seeds.append(seed)
        print(f"seed {seed}: {order[0]} first, done", file=sys.stderr)
    if not pairs:
        print("no pair gave results", file=sys.stderr)
        return 1
    summary = summarize(pairs)
    print(format_summary(args.workload, summary))
    if args.out:
        write_bench(args.out, args.workload, seeds, summary)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
