"""Tests of the benchmark itself: tracing never changes results, inputs come
from the seed alone, and a checkout without the package gives no result.

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spfk import identities, integrals, suite, tensors  # noqa: E402


def _suite_bytes(traced: bool) -> bytes:
    cases = workloads.case_list("suite")
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
        # Chunks every 3 ms interrupt the wrappers' bookkeeping often.
        calibrator = calibrate.Calibrator(tracer.aside, interval_s=0.003)
        calibrator.start()
    try:
        p = workloads.run_pass("suite", workloads.make_inputs("suite", cases, 42), 42)
    finally:
        tracer.restore()
        if traced:
            calibrator.stop()
    workloads.check_pass("suite", p, 42, len(cases))
    assert p.failures == []
    if traced:
        layers = tracer.layers()
        assert layers["suite.run_case.calls"] == len(cases)
        assert layers["calibrate.chunk.calls"] == calibrator.chunks > 0
    return p.suite_bytes


def test_traced_suite_bytes_equal_untraced():
    lookups = lambda: (tensors.pfaffian, identities.pfaffian, integrals._signed_perms, suite.run_case)
    originals = lookups()
    traced = _suite_bytes(traced=True)
    assert lookups() == originals
    assert traced == _suite_bytes(traced=False)
    assert traced == workloads.GOLDEN.read_bytes()


def test_same_seed_same_inputs_other_seed_other_inputs():
    cases = workloads.case_list("tensor_qq")
    digest = lambda seed: workloads.inputs_digest(workloads.make_inputs("tensor_qq", cases, seed))
    assert digest(7) == digest(7)
    assert digest(7) != digest(8)
    wick = workloads.case_list("wick")
    assert workloads.make_inputs("wick", wick, 7) == workloads.make_inputs("wick", wick, 7)


def test_tensor_qq_has_enough_operations_and_sparse_inputs():
    inputs = workloads.make_inputs("tensor_qq", workloads.case_list("tensor_qq"), 1)
    ops = sum(1 if kernel == "det" else 2 for kernel, _ in inputs)
    assert ops >= 100
    pf12 = [o for k, o in inputs if k == "pf" and o["dim"] == 12]
    assert sorted(len(o["entries"]) for o in pf12) == [16, 66]


def test_calibrator_samples_during_a_pass_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    calibrator = calibrate.Calibrator(interval_s=0.005)
    calibrator.start()
    end = time.monotonic() + 0.2
    while time.monotonic() < end:
        pass
    calibrator.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert calibrator.chunks >= 5
    assert 0 < calibrator.cpu_s <= calibrator.wall_s
    assert calibrator.slowness() > 0


def _busy(seconds: float) -> int:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass
    return os.getpid()


def test_calibrator_follows_forked_workers():
    calibrator = calibrate.Calibrator(interval_s=0.005)
    calibrator.start()
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_busy, 0.2).result() != os.getpid()
    calibrator.stop()
    (worker_chunks, worker_cpu_s), = calibrator.workers()
    assert worker_chunks >= 5
    assert calibrator.cpu_s > worker_cpu_s > 0


def test_every_per_layer_metric_is_produced():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    produced = set(tracer.layers()) | set(tracing.word_caches()) | {
        "tensors.blocked_terms",
        "multilinear.GrassmannElement.mul.pairs",
        "multilinear.SquareZeroElement.mul.pairs",
        "suite.pool.idle_core_s",
        "suite.pool.slowest_case_ms",
        "trace.overhead_s",
        "trace.spans",
        "raw.wall_s",
        "raw.cpu_s",
        "raw.setup_s",
        "calibrate.slowness",
    }
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_no_result_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wick", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
