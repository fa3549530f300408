"""Spans around calls into the package's layers, recorded from outside.

The wrappers are installed only for a traced pass and restored afterwards.
Each one replaces a function under every name the package's callers look it
up by (``identities`` imports ``pfaffian`` by name, ``integrals`` calls
``signed_permutations`` through the alias ``_signed_perms``), or a method on
its class.  Spans are kept in memory as (name, start, end, parent) columns
and written out when the pass ends.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

from spfk import freealg, identities, integrals, multilinear, report, suite, tensors


def _blocked_terms(t, *_args, **_kwargs) -> int:
    # |E_{kn,k}| for the tensor's shape; computed, not counted inside the kernel.
    if t.order < 1 or t.dim % t.order:
        return 0
    return tensors.blocked_count(t.dim // t.order, t.order)


def _pairs(a, b) -> int:
    # Term pairs a product visits: terms(a) * terms(b); computed.
    return a.num_terms() * b.num_terms()


# (span name, owner, attribute, weight): the weight, when given, is a
# (metric name, function of the call's arguments) adding a computed count.
FUNCTIONS = (
    ("integrals.r_value", integrals, "r_value", None),
    ("integrals.merged_exponent", integrals, "merged_exponent", None),
    ("integrals.chen_form", integrals, "chen_form", None),
    ("integrals.verify_debruijn", integrals, "verify_debruijn", None),
    ("integrals.verify_chen_batch", integrals, "verify_chen_batch", None),
    ("identities.verify_shuffle_wick", identities, "verify_shuffle_wick", None),
    ("identities.verify_hyperpf_structure", identities, "verify_hyperpf_structure", None),
    ("identities.verify_rational_identity", identities, "verify_rational_identity", None),
    ("identities.verify_VI", identities, "verify_VI", None),
    ("identities.verify_vandermonde_average", identities, "verify_vandermonde_average", None),
    ("tensors.pfaffian", tensors, "pfaffian", ("tensors.blocked_terms", _blocked_terms)),
    ("tensors.hafnian", tensors, "hafnian", ("tensors.blocked_terms", _blocked_terms)),
    ("tensors.hyperpfaffian", tensors, "hyperpfaffian", ("tensors.blocked_terms", _blocked_terms)),
    ("tensors.hyperhafnian", tensors, "hyperhafnian", ("tensors.blocked_terms", _blocked_terms)),
    ("tensors.determinant", tensors, "determinant", None),
    ("tensors.signed_permutations", tensors, "signed_permutations", None),
    ("tensors.grassmann_pf_oracle", tensors, "grassmann_pf_oracle", None),
    ("tensors.sz_hf_oracle", tensors, "sz_hf_oracle", None),
    ("tensors.tensor_from_json", tensors, "tensor_from_json", None),
    ("freealg.shuffle", freealg, "shuffle", None),
    ("freealg.q_shuffle", freealg, "q_shuffle", None),
    ("report.digest", report, "digest", None),
    ("suite.run_case", suite, "run_case", None),
)
METHODS = (
    ("freealg.FreePoly.add", freealg.FreePoly, "__add__", None),
    (
        "multilinear.GrassmannElement.mul",
        multilinear.GrassmannElement,
        "__mul__",
        ("multilinear.GrassmannElement.mul.pairs", _pairs),
    ),
    (
        "multilinear.SquareZeroElement.mul",
        multilinear.SquareZeroElement,
        "__mul__",
        ("multilinear.SquareZeroElement.mul.pairs", _pairs),
    ),
)
# Only the parent of a process pool is traced: spans in its workers are not
# visible here, and wrappers inherited by forked workers would only slow them.
POOL_PARENT = (("suite.run_suite", suite, "run_suite", None),)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.weights: Counter = Counter()
        self.asides: list[tuple[int, int, float, float]] = []  # (name, parent, start, end)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, weight):
        nid = len(self.names)
        self.names.append(name)
        ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack, weights = self._stack, self.weights
        clock = time.perf_counter
        weight_name, weigh = weight or (None, None)

        def traced(*args, **kwargs):
            if weigh is not None:
                weights[weight_name] += weigh(*args, **kwargs)
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    def aside(self, name: str, fn):
        """``fn`` wrapped for a signal handler.  The handler can run between
        any two steps of a span's bookkeeping, so its calls are kept apart
        from the span columns, one tuple append each; each still counts as a
        child of the span it interrupted."""
        nid = len(self.names)
        self.names.append(name)
        stack, asides, clock = self._stack, self.asides, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                asides.append((nid, parent, t0, clock()))

        return traced

    def install(self, functions=FUNCTIONS, methods=METHODS) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "spfk"]
        for name, owner, attr, weight in functions:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, weight)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, cls, attr, weight in methods:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, weight))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layers(self) -> dict:
        """Per span name: calls and self time (duration minus child spans)."""
        own = [0.0] * len(self.name_id)
        for i in range(len(own)):
            dur = self.end[i] - self.start[i]
            own[i] += dur
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur
        calls = Counter()
        self_s = Counter()
        for nid, p, start, end in self.asides:
            calls[nid] += 1
            self_s[nid] += end - start
            if p >= 0:
                own[p] -= end - start
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            self_s[nid] += own[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
        out.update(self.weights)
        return out

    def dump(self, path) -> None:
        """Write the spans out as columns; parent -1 marks a root span."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_id.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "asides": self.asides,
                },
                fh,
            )


def word_caches() -> dict:
    """Hit ratio and size of the two 2^18-entry word caches of freealg."""
    out = {}
    caches = (("word_cache", freealg._shuffle_words), ("q_word_cache", freealg._q_shuffle_words))
    for label, cache in caches:
        info = cache.cache_info()
        lookups = info.hits + info.misses
        out[f"freealg.{label}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"freealg.{label}.entries"] = info.currsize
        out[f"freealg.{label}.fill_ratio"] = info.currsize / info.maxsize
    return out
