"""One pass of a perfbench workload in a fresh interpreter, so the package's
word and permutation caches start cold as they do for a user of ``spfk``.

Usage: bench_pass.py <workload> <seed> <setup|plain|traced> <launch time>

The launch time is the parent's ``time.monotonic()`` just before it started
this interpreter; set-up runs from then until ``import spfk`` is done and the
case list is built.  The pass runs under a ``calibrate.Calibrator``, which
samples the machine's speed so that the parent can give its times at the
reference speed.  Prints one JSON object on stdout.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu_s(resource) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv) -> dict:
    launched = float(argv[4])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spfk
    import workloads

    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    cases = workloads.case_list(workload)
    setup_s = time.monotonic() - launched

    import resource

    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(spfk.__file__).startswith(src + os.sep):
        raise SystemExit(f"spfk was imported from {spfk.__file__}, not from {src}")
    import calibrate

    out = {"setup_s": setup_s, "setup_slowness": calibrate.spot_slowness()}
    if mode == "setup":
        return out
    inputs = workloads.make_inputs(workload, cases, seed)
    tracer = None
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        if workload == "suite_jobs2":
            tracer.install(tracing.POOL_PARENT, ())
        else:
            tracer.install()
    # In a traced pass each chunk is recorded aside, so no layer's self time
    # includes it.
    calibrator = calibrate.Calibrator(tracer.aside if tracer is not None else None)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    calibrator.start()
    cpu0 = _cpu_s(resource)
    try:
        p = workloads.run_pass(workload, inputs, seed)
    finally:
        if tracer is not None:
            tracer.restore()
        calibrator.stop()
    cpu1 = _cpu_s(resource)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Read before the checks, which import sympy; ru_maxrss is in KiB on Linux.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    workloads.check_pass(workload, p, seed, len(cases))
    out.update(
        wall_s=p.wall_s,
        slowness=calibrator.slowness(),
        cal_wall_s=calibrator.wall_s,
        cal_cpu_s=calibrator.cpu_s,
        cal_chunks=calibrator.chunks,
        cal_workers=len(calibrator.workers()),
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=peak_kib / 1024,
        op_ms=p.op_ms,
        attempted=len(p.op_ms) + p.checks,
        failures=p.failures,
        suite_digest=workloads.suite_digest(p),
    )
    if workload == "tensor_qq":
        out["inputs_digest"] = workloads.inputs_digest(inputs)
    if workload in ("suite", "suite_jobs2"):
        out["slowest_case_ms"] = max((r.elapsed_ms for _, r in p.reports), default=0)
    if workload == "suite_jobs2":
        worker_cpu = (kids1.ru_utime + kids1.ru_stime) - (kids0.ru_utime + kids0.ru_stime)
        worker_cpu -= sum(cpu for _, cpu in calibrator.workers())
        out["idle_core_s"] = workloads.JOBS * (p.wall_s - calibrator.wall_s) - worker_cpu
    if tracer is not None:
        out["layers"] = tracer.layers()
        out["layers"].update(tracing.word_caches())
        out["spans"] = len(tracer.name_id)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{workload}-seed{seed}.json"))
    return out


if __name__ == "__main__":
    import json

    print(json.dumps(main(sys.argv)))
