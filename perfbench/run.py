"""Benchmark of the spfk exact checker: one workload per run, end to end or
layer by layer.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter (bench_pass.py), so caches start cold.
Passes repeat while the next one is expected to end within --seconds (and
at least MIN_PASSES run); each reported time is the median over the run's
passes, given at the reference machine speed (see calibrate.py).  With
--trace 0 the run reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead.  The last line of stdout is one JSON object;
the exit code is 1 if any operation or output check failed, 2 on bad usage.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("suite", "suite_jobs2", "tensor_qq", "wick")

MIN_PASSES = 3
SETUP_SAMPLES = 9  # set-ups per run: one per pass, topped up by set-up-only starts
BUDGET_S = 170  # a run ends within this, whatever --seconds asks
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """A pass that could not be run or whose output could not be read."""


def run_child(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """Start bench_pass.py in its own process group and wait for it."""
    launched = time.monotonic()
    argv = [sys.executable, os.path.join(HERE, "bench_pass.py"), workload, str(seed), mode]
    proc = subprocess.Popen(
        argv + [repr(launched)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} pass did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{workload} {mode} pass printed no result: {exc}") from exc


def read_loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_state() -> dict:
    """Commit and dirty flag of the checkout, if it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", "--no-optional-locks", "-C", ROOT, *args],
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}


def metadata(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": read_loadavg(),
        "git": git_state(),
        "seed": seed,
    }


def percentile(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


class Run:
    """All passes of one run, the failures they reported and the run's own
    cross-pass checks."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.t0 = time.monotonic()
        self.passes = {"plain": [], "traced": []}
        self.setups: list[tuple[float, float]] = []  # (setup_s, slowness)
        self.failures: list[str] = []
        self.attempted = 0
        self.longest = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def fits(self) -> bool:
        """Whether another pass as long as the longest so far ends in budget."""
        return self.elapsed() + self.longest < BUDGET_S

    def child(self, mode: str, workload: str | None = None) -> dict | None:
        start = time.monotonic()
        try:
            timeout = min(CHILD_TIMEOUT_S, BUDGET_S - self.elapsed())
            result = run_child(workload or self.workload, self.seed, mode, timeout)
        except BenchError as exc:
            self.attempted += 1
            self.failures.append(str(exc))
            return None
        self.longest = max(self.longest, time.monotonic() - start)
        self.setups.append((result["setup_s"], result["setup_slowness"]))
        if mode != "setup":
            self.attempted += result["attempted"]
            self.failures.extend(result["failures"])
        return result

    def measure(self, modes: tuple) -> None:
        """Rounds of passes, one per mode, while another round fits in --seconds."""
        while True:
            for mode in modes:
                result = self.child(mode)
                if result is None:
                    return
                self.passes[mode].append(result)
            done = len(self.passes[modes[0]])
            enough = done >= (MIN_PASSES if len(modes) == 1 else 1)
            # Stop before a round that would end past --seconds.
            if (enough and self.elapsed() * (done + 1) / done > self.seconds) or not self.fits():
                return

    def check_same_output(self, reference: str | None = None) -> None:
        """Every pass of a suite workload reports the same canonical bytes,
        and suite_jobs2 the same bytes as the serial suite for its seed."""
        digests = {r["suite_digest"] for rs in self.passes.values() for r in rs}
        if reference is not None:
            digests.add(reference)
        self.attempted += 1
        if len(digests) > 1:
            self.failures.append(f"{self.workload}: passes disagree on the suite bytes")


def own_wall_s(r: dict) -> float:
    """A plain pass's wall time without its calibration chunks."""
    return r["wall_s"] - r["cal_wall_s"]


def end_to_end(run: Run) -> dict:
    """Medians over the run's passes, times at the reference machine speed."""
    plain = run.passes["plain"]
    return {
        "wall_ref_s": statistics.median(own_wall_s(r) / r["slowness"] for r in plain),
        "cpu_ref_s": statistics.median((r["cpu_s"] - r["cal_cpu_s"]) / r["slowness"] for r in plain),
        "setup_s": statistics.median(s / slowness for s, slowness in run.setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def op_latency(run: Run) -> dict:
    """Median over passes of each pass's p50/p90 per-operation latency."""
    plain = run.passes["plain"]
    return {
        "op_p50_ms": statistics.median(percentile(r["op_ms"], 50) for r in plain),
        "op_p90_ms": statistics.median(percentile(r["op_ms"], 90) for r in plain),
        "ops_per_pass": len(plain[0]["op_ms"]),
    }


def per_layer(run: Run, section: list) -> dict:
    """Medians over the traced passes.  Times are at the reference machine
    speed, except the raw.* ones, which are medians over the plain passes."""
    traced, plain = run.passes["traced"], run.passes["plain"]
    values = {}
    for metric in section:
        name, is_time = metric["name"], metric["unit"] in ("s", "ms")
        seen = [
            r["layers"][name] / (r["slowness"] if is_time else 1)
            for r in traced
            if name in r["layers"]
        ]
        values[name] = statistics.median(seen) if seen else 0
    if run.workload in ("suite", "suite_jobs2"):
        slowest = statistics.median(r["slowest_case_ms"] / r["slowness"] for r in traced)
        values["suite.pool.slowest_case_ms"] = slowest
    if run.workload == "suite_jobs2":
        idle = statistics.median(r["idle_core_s"] / r["slowness"] for r in traced)
        values["suite.pool.idle_core_s"] = idle
    values["trace.overhead_s"] = statistics.median(
        own_wall_s(r) / r["slowness"] for r in traced
    ) - statistics.median(own_wall_s(r) / r["slowness"] for r in plain)
    values["raw.wall_s"] = statistics.median(own_wall_s(r) for r in plain)
    values["raw.cpu_s"] = statistics.median(r["cpu_s"] - r["cal_cpu_s"] for r in plain)
    values["raw.setup_s"] = statistics.median(s for s, _ in run.setups)
    values["calibrate.slowness"] = statistics.median(r["slowness"] for r in plain)
    values["trace.spans"] = statistics.median(r["spans"] for r in traced)
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: bool, spec: dict):
    """One run of one workload; returns its result object and the Run."""
    meta = metadata(seed)
    run = Run(workload, seed, seconds)
    if trace:
        run.measure(("plain", "traced"))
    else:
        run.measure(("plain",))
        while len(run.setups) < SETUP_SAMPLES and run.fits() and not run.failures:
            run.child("setup")
    if not run.failures and workload in ("suite", "suite_jobs2"):
        reference = None
        if workload == "suite_jobs2" and run.fits():
            serial = run.child("plain", "suite")
            reference = serial["suite_digest"] if serial else None
        run.check_same_output(reference)
    meta["loadavg_end"] = read_loadavg()
    meta["passes"] = {mode: len(rs) for mode, rs in run.passes.items()}

    metrics: dict = {}
    info: dict = {}
    if run.passes["plain"] and (not trace or run.passes["traced"]):
        section = spec["per_layer"] if trace else spec["end_to_end"]
        values = per_layer(run, section) if trace else end_to_end(run)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
        if not trace:
            info = op_latency(run)
    elif not run.failures:
        run.failures.append(f"{workload}: no complete pass within {BUDGET_S} s")
    result = {
        "correct": not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures),
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": workload,
        "meta": meta,
        "result": result,
        "info": info,
        "passes": run.passes,
        "setups": run.setups,
        "failures": run.failures,
    }
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print_summary(workload, meta, result, info)
    return result, run


def print_summary(workload: str, meta: dict, result: dict, info: dict) -> None:
    print(f"== {workload}  seed={meta['seed']}  passes={meta['passes']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    if info.get("ops_per_pass", 0) >= 100:
        print(
            f"  {'op_p50_ms':<42} {info['op_p50_ms']:>14.6g} ms  (p90 {info['op_p90_ms']:.6g} ms; "
            f"{info['ops_per_pass']} ops per pass)"
        )
    print(
        f"  {'failed_ratio':<42} {result['failed'] / result['attempted']:>14.6g} 1  "
        f"({result['failed']} of {result['attempted']})"
    )
    print("  meta " + json.dumps(meta, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "spfk", "__init__.py")):
        print(f"perfbench: no spfk sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name], run = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        for failure in run.failures:
            print(f"  FAILED: {failure}", file=sys.stderr)
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
