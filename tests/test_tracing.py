"""The benchmark's tracer (perfbench/tracing.py) wraps package functions and
methods by name from outside the package, and its workloads
(perfbench/workloads.py) call package functions by name.  These tests keep a
rename or a deletion of one of those names from failing only
`pytest perfbench`: every traced name must be found, wrapped, reached by the
package's own calls, and put back afterwards, and every name a workload
calls must still run and pass the workload's own checks."""
import os
import sys

from spfk import freealg, identities, integrals
from spfk.core import QQ
from spfk.multilinear import GrassmannElement, SquareZeroElement

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every spfk module and of every traced class."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.split(".")[0] == "spfk":
            out.update({(name, key): value for key, value in vars(module).items()})
    for _span, cls, _attr, _weight in tracing.METHODS:
        out.update({(cls, key): value for key, value in vars(cls).items()})
    return out


def test_tracer_wraps_every_name_and_restores_it():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install(tracing.FUNCTIONS + tracing.POOL_PARENT, tracing.METHODS)
    try:
        for _span, owner, attr, _weight in tracing.FUNCTIONS + tracing.POOL_PARENT:
            assert getattr(owner, attr) is not before[owner.__name__, attr], attr
        for _span, cls, attr, _weight in tracing.METHODS:
            assert cls.__dict__[attr] is not before[cls, attr], (cls, attr)
        # The package's own calls reach the wrappers: the ring products look
        # shuffle/q_shuffle up at call time, each algebra has its own __mul__.
        a, b = freealg.FreePoly.from_word((0,)), freealg.FreePoly.from_word((1,))
        freealg.SHUFFLE_RING.mul(a, b)
        freealg.ANTISHUFFLE_RING.mul(a, b)
        for cls in (GrassmannElement, SquareZeroElement):
            cls(QQ, {1: QQ.one}) * cls(QQ, {2: QQ.one})
    finally:
        tracer.restore()
    layers = tracer.layers()
    for span in ("freealg.shuffle", "freealg.q_shuffle"):
        assert layers[f"{span}.calls"] == 1, span
    for span in ("multilinear.GrassmannElement.mul", "multilinear.SquareZeroElement.mul"):
        assert layers[f"{span}.calls"] == 1, span
        assert layers[f"{span}.pairs"] == 1, span
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_traced_r_value_counts_the_calls_made_through_identities():
    # identities imports r_value by name; the tracer rebinds that name too,
    # so every ARQ and MEHTA1 right-side call reaches the integrals.r_value
    # span, as a counter on the identities name confirms.
    original = integrals.r_value
    tracer = tracing.Tracer()
    tracer.install([f for f in tracing.FUNCTIONS if f[0] == "integrals.r_value"], ())
    counted = []
    try:
        traced = identities.r_value
        assert traced is integrals.r_value is not original

        def count(*args, **kwargs):
            counted.append(args)
            return traced(*args, **kwargs)

        identities.r_value = count
        for variant, size in (("ARQ", 1), ("MEHTA1", 3)):
            assert identities.verify_rational_identity(variant, size).equal, variant
    finally:
        tracer.restore()
    assert identities.r_value is integrals.r_value is original
    assert len(counted) == tracer.layers()["integrals.r_value.calls"] > 0


def test_workloads_find_every_name_they_call():
    # One small tensor_qq operation per kernel, each with its oracle, and one
    # determinant; one small wick check through verify_shuffle_wick.
    tensor_cases = [
        ("pf", 2, 4, 1.0, 0),
        ("hf", 2, 4, 1.0, 0),
        ("hpf", 4, 8, 1.0, 0),
        ("hhf", 3, 6, 1.0, 0),
        ("det", 2, 4, 1.0, 0),
    ]
    for workload, cases in (("tensor_qq", tensor_cases), ("wick", [("SDB2", 2, None)])):
        p = workloads.run_pass(workload, workloads.make_inputs(workload, cases, 1), 1)
        workloads.check_pass(workload, p, 1, len(cases))
        assert p.failures == [], workload
        assert p.checks == len(cases), workload
    # A traced pass also reads the word cache's statistics by both its names.
    caches = tracing.word_caches()
    for label in ("word_cache", "q_word_cache"):
        for stat in ("hit_ratio", "entries", "fill_ratio"):
            assert f"freealg.{label}.{stat}" in caches, (label, stat)
