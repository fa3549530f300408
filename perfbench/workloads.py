"""The four perfbench workloads: each one's fixed operation list, the inputs
it derives from the workload seed, one closed-loop pass over the list, and
the checks the outputs must pass.

The package is driven only through its public functions, looked up on the
module at call time so that the traced run's wrappers are the ones called.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from spfk import identities, suite, tensors

JOBS = 2  # suite_jobs2 workers; equals nproc on the reference machine

GOLDEN_SEED = 42
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / "suite_seed42.json"

# One size above the default suite matrix; pfab n=4 is left out for length.
WICK_CHECKS = (
    ("SDB2", 4, None),
    ("FHAFF2", 4, None),
    ("FHAFF1", 4, None),
    ("ANTISHUFFLE", 6, None),
    ("ODD_EVEN", 6, None),
    ("XIPFASHU", 4, 1),
)

# (kernel, order, dim, copies per density).  Small dimensions repeat so a
# pass holds over 100 operations; each kernel value is followed by its oracle.
# Odd-order hpf is absent: the Grassmann power oracle does not hold there.
TENSOR_PLAN = (
    ("pf", 2, 6, 4),
    ("pf", 2, 8, 3),
    ("pf", 2, 10, 2),
    ("pf", 2, 12, 1),
    ("hf", 2, 6, 4),
    ("hf", 2, 8, 3),
    ("hf", 2, 10, 2),
    ("hf", 2, 12, 1),
    ("hpf", 4, 4, 4),
    ("hpf", 4, 8, 3),
    ("hpf", 4, 12, 1),
    ("hhf", 3, 6, 4),
    ("hhf", 3, 9, 2),
    ("hhf", 3, 12, 1),
    ("hhf", 4, 8, 3),
    ("hhf", 4, 12, 1),
)
DENSITIES = (1.0, 0.25)
DET_PLAN = ((8, 2), (12, 2), (16, 2))  # (n, copies); dense only

_KIND = {"pf": "alt", "hpf": "alt", "hf": "sym", "hhf": "sym"}
_KERNEL = {"pf": "pfaffian", "hpf": "hyperpfaffian", "hf": "hafnian", "hhf": "hyperhafnian"}
_ORACLE = {"alt": "grassmann_pf_oracle", "sym": "sz_hf_oracle"}


def case_list(workload: str) -> list:
    """The workload's fixed operation list; building it is part of set-up."""
    if workload in ("suite", "suite_jobs2"):
        return suite.default_cases()
    if workload == "tensor_qq":
        return [
            (kernel, order, dim, density, copy)
            for density in DENSITIES
            for kernel, order, dim, copies in TENSOR_PLAN
            for copy in range(copies)
        ] + [("det", 2, n, 1.0, copy) for n, copies in DET_PLAN for copy in range(copies)]
    if workload == "wick":
        return list(WICK_CHECKS)
    raise ValueError(f"unknown workload: {workload}")


def _rational(rng: random.Random) -> tuple[int, int]:
    return rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6)


def tensor_json(seed: int, kernel: str, order: int, dim: int, density: float, copy: int) -> dict:
    """A seeded rational tensor in the CLI's tensor-JSON format.  A sparse
    tensor has exactly round(density * C(dim, order)) nonzero entries."""
    rng = random.Random(f"{seed}:{kernel}:{order}:{dim}:{density}:{copy}")
    slots = list(itertools.combinations(range(1, dim + 1), order))
    keep = sorted(rng.sample(range(len(slots)), max(1, round(density * len(slots)))))
    entries = []
    for i in keep:
        num, den = _rational(rng)
        entries.append({"idx": list(slots[i]), "num": str(num), "den": str(den)})
    return {"order": order, "dim": dim, "entries": entries}


def det_rows(seed: int, n: int, copy: int) -> list:
    rng = random.Random(f"{seed}:det:{n}:{copy}")
    return [[Fraction(*_rational(rng)) for _ in range(n)] for _ in range(n)]


def make_inputs(workload: str, cases: list, seed: int) -> list:
    """Inputs for one pass, derived from the seed alone."""
    if workload in ("suite", "suite_jobs2"):
        return cases
    if workload == "tensor_qq":
        out = []
        for kernel, order, dim, density, copy in cases:
            if kernel == "det":
                out.append((kernel, tensors.DenseMatrix.from_rows(det_rows(seed, dim, copy))))
            else:
                out.append((kernel, tensor_json(seed, kernel, order, dim, density, copy)))
        return out
    # The wick identities are symbolic: the seed only permutes the check order.
    order = list(cases)
    random.Random(seed).shuffle(order)
    return order


def inputs_digest(inputs: list) -> str:
    """sha256 over the tensor-JSON objects (and matrices) of a tensor_qq pass."""
    h = hashlib.sha256()
    for kernel, obj in inputs:
        if kernel == "det":
            obj = [[str(x) for x in row] for row in obj.data]
        h.update(json.dumps([kernel, obj], sort_keys=True).encode("utf-8"))
    return h.hexdigest()


class Pass:
    """Outcome of one pass: per-operation latencies, raw outputs, failures."""

    def __init__(self):
        self.op_ms: list[float] = []
        self.failures: list[str] = []
        self.checks = 0
        self.first_start = None
        self.last_end = None
        self.suite_bytes = None
        self.reports = []

    def op(self, label: str, fn, *args):
        """Time one operation; an exception counts as a failed operation."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # an operation that raised is a failure, not a crash
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        finally:
            t1 = time.perf_counter()
            self.op_ms.append((t1 - t0) * 1000)
            if self.first_start is None:
                self.first_start = t0
            self.last_end = t1

    def check(self, ok: bool, what: str):
        self.checks += 1
        if not ok:
            self.failures.append(what)

    @property
    def wall_s(self) -> float:
        return self.last_end - self.first_start


def run_pass(workload: str, inputs: list, seed: int) -> Pass:
    """One closed-loop pass over the operation list, with one caller."""
    p = Pass()
    if workload == "suite":
        config = suite.SuiteConfig(seed=seed)
        results = []
        for case in inputs:
            report = p.op(f"suite case {case.runner} {case.params}", suite.run_case, case, config)
            if report is not None:
                results.append((case, report))
        p.reports = results
    elif workload == "suite_jobs2":
        config = suite.SuiteConfig(seed=seed, jobs=JOBS)
        out = p.op(f"run_suite jobs={JOBS}", suite.run_suite, config)
        p.reports = out[0] if out else []
    elif workload == "tensor_qq":
        p.reports = []
        for kernel, obj in inputs:
            if kernel == "det":
                value = p.op(f"determinant n={obj.rows}", _determinant, obj)
                p.reports.append((kernel, obj, value, None))
                continue
            parsed = p.op(f"{kernel} dim {obj['dim']}", _parse_and_run, kernel, obj)
            if parsed is None:
                continue
            tensor, value = parsed
            oracle = getattr(tensors, _ORACLE[_KIND[kernel]])
            expected = p.op(f"{_ORACLE[_KIND[kernel]]} dim {obj['dim']}", oracle, tensor)
            p.reports.append((kernel, obj, value, expected))
    elif workload == "wick":
        p.reports = [
            (variant, n, p.op(f"wick {variant} n={n}", _wick, variant, n, k))
            for variant, n, k in inputs
        ]
    else:
        raise ValueError(f"unknown workload: {workload}")
    return p


def _parse_and_run(kernel: str, obj: dict):
    tensor = tensors.tensor_from_json(obj, _KIND[kernel])
    return tensor, getattr(tensors, _KERNEL[kernel])(tensor)


def _determinant(matrix):
    return tensors.determinant(matrix)


def _wick(variant: str, n: int, k):
    return identities.verify_shuffle_wick(variant, n, k=k)


def _canonical_order(case_report):
    # The order run_suite reports in: identity, then params, then seeds.
    report = case_report[1]
    return (
        report.identity,
        json.dumps(report.params, sort_keys=True, default=str),
        list(report.seeds),
    )


def check_pass(workload: str, p: Pass, seed: int, expected_cases: int) -> None:
    """Gate the pass's outputs; every failed check is recorded on the pass."""
    if workload in ("suite", "suite_jobs2"):
        results = sorted(p.reports, key=_canonical_order)
        for case, report in results:
            p.check(
                report.equal == case.expect_equal,
                f"{report.identity} {report.params}: equal={report.equal}, "
                f"expected {case.expect_equal}",
            )
        p.check(len(results) == expected_cases, f"{len(results)} of {expected_cases} cases ran")
        p.suite_bytes = suite.suite_json_bytes(results)
        if seed == GOLDEN_SEED:
            p.check(p.suite_bytes == GOLDEN.read_bytes(), f"suite bytes differ from {GOLDEN.name}")
    elif workload == "tensor_qq":
        for kernel, obj, value, expected in p.reports:
            if kernel == "det":
                p.check(value == _sympy_det(obj), f"determinant n={obj.rows} differs from sympy")
            else:
                p.check(
                    value is not None and value == expected,
                    f"{kernel} order {obj['order']} dim {obj['dim']}: "
                    f"kernel {value} != oracle {expected}",
                )
    elif workload == "wick":
        for variant, n, report in p.reports:
            p.check(report is not None and report.equal is True, f"wick {variant} n={n} not equal")


def _sympy_det(matrix) -> Fraction:
    import sympy

    value = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix.data]
    ).det()
    return Fraction(int(value.p), int(value.q))


def suite_digest(p: Pass) -> str | None:
    return hashlib.sha256(p.suite_bytes).hexdigest() if p.suite_bytes is not None else None
