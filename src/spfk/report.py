"""Canonical record of one identity check, and the one driver that runs a
check from its table row to its report.

Digests are deterministic functions of the canonical form of each side, so
the same (identity, params, seed) always reproduces the same report.  The
elapsed time is kept on the object for human output but excluded from the
canonical JSON, which must be byte-identical across runs.  The report is a
``NamedTuple`` record, as the table row is: it pickles back from the suite's
worker processes, and start-up needs no ``dataclasses`` (nor the ``inspect``
that loads).
"""
from __future__ import annotations

import gc
import hashlib
import time
from typing import Callable, NamedTuple

from .core import SeededSampler, check_domain, double_factorial_coeff, integer, mix_seed


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scalar_list_canonical(values) -> str:
    return ";".join(f"{v.numerator}/{v.denominator}" for v in values) or "0"


class VerificationReport(NamedTuple):
    identity: str
    params: dict
    seeds: list
    equal: bool
    lhs_digest: str
    rhs_digest: str
    lhs_terms: int
    rhs_terms: int
    elapsed_ms: int = 0
    counterexample: tuple | None = None
    conventions: dict = {}  # read only: the default is one dict shared by every report

    def to_json_dict(self) -> dict:
        return {
            "id": self.identity,
            "params": dict(self.params),
            "seeds": list(self.seeds),
            "equal": self.equal,
            "lhs_digest": self.lhs_digest,
            "rhs_digest": self.rhs_digest,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "counterexample": list(self.counterexample) if self.counterexample else None,
            "conventions": dict(self.conventions),
        }


class Check(NamedTuple):
    """One identity's table row.

    ``sides(params, seed)`` returns the report header's departures from the
    default (params: the flag values; seeds: [seed]) and the two sides as
    zero-argument callables, each giving a FreePoly or a list of exact
    scalars.  ``name`` is the check's seed tag and its name in refusals;
    ``flags`` maps each CLI flag it reads to its default, ``...`` marking a
    required one; ``domain`` is (ranges, caps) as ``core.check_domain`` reads
    it; ``inputs`` names its other inputs (a de Bruijn ``fam``, a sampled
    row's ``points``), absent unless given and never reported."""

    sides: Callable
    name: str
    flags: dict
    domain: tuple
    inputs: tuple = ()


def complete(identity: str, check: Check, given: dict) -> tuple[dict, dict]:
    """(params, measures): ``given``, None meaning not given, over the row's
    defaults.  A flag the row does not read, or one it needs and lacks, is a
    ValueError naming ``identity``; then ``core.check_domain`` runs."""
    given = {name: value for name, value in given.items() if value is not None}
    unread = [f"--{k}" for k in given if k not in check.flags and k not in check.inputs]
    if unread:
        raise ValueError(f"{identity} does not read {', '.join(unread)}")
    params = {**check.flags, **given}
    missing = [f"--{name}" for name, value in params.items() if value is ...]
    if missing:
        raise ValueError(f"{', '.join(missing)} is required for {identity}")
    return params, check_domain(check.name, params, check.domain)


def run_check(table: dict, variant: str, given: dict, seed: int = 42) -> VerificationReport:
    """Check the row ``table[variant.lower()]`` of ``table`` (id: Check).

    ``given`` is completed and refused by ``complete`` before any work; then
    ``_compare`` runs the sides and builds the report.  A check with a
    ``coeff`` flag names its double-factorial convention.

    The cyclic collector is paused from the sides until the report is built
    and left as it was found, even if a side raises.  The sides make many
    new tracked tuples (every merged word is one) but no reference cycle, so
    a pass among them frees nothing; it is resumed once ``_compare`` has
    returned, when the two sides are freed and its first pass has little
    left to scan."""
    identity = variant.lower()
    if identity not in table:
        raise ValueError(f"unknown variant: {variant.upper()}")
    check = table[identity]
    params, _measures = complete(identity, check, given)
    header = {"params": {f: params[f] for f in check.flags}, "seeds": [seed], "conventions": {}}
    if "coeff" in check.flags:  # the convention's name does not depend on n
        _, named = double_factorial_coeff(0, params["coeff"])
        header["conventions"] = {"double_factorial": named}
    t0 = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _compare(identity, header, t0, *check.sides(params, seed))
    finally:
        if collecting:
            gc.enable()


def _compare(identity: str, header: dict, t0: float, shown: dict, lhs, rhs) -> VerificationReport:
    """Run the left side, then the right side, and report on the two.  Equal
    sides are formatted once, after the right side is dropped, so both sides
    and the string are never held at once."""
    header.update(shown)
    left = lhs()
    right = rhs()
    equal = left == right
    if isinstance(left, list):
        canonical, lhs_terms, rhs_terms = scalar_list_canonical, len(left), len(right)
    else:
        canonical = type(left).canonical_string
        lhs_terms, rhs_terms = left.num_terms(), right.num_terms()
    if equal:  # one canonical string, formatted and hashed once, after the right side is freed
        right = None
    lhs_canonical = canonical(left)
    rhs_canonical = lhs_canonical if equal else canonical(right)
    lhs_digest = digest(lhs_canonical)
    return VerificationReport(
        identity=identity,
        lhs_digest=lhs_digest,
        rhs_digest=lhs_digest if equal else digest(rhs_canonical),
        equal=equal,
        lhs_terms=lhs_terms,
        rhs_terms=rhs_terms,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        counterexample=None if equal else (lhs_canonical, rhs_canonical),
        **header,
    )


def at_points(name: str, seed: int, tag: tuple, points, sides_at) -> tuple:
    """The two sides of check ``name`` at its seeded sample points, as lists:
    ``sides_at(sampler)`` gives one point's (lhs, rhs) callables, and point p
    draws from a sampler seeded with (seed, (*tag, p)).  ``points`` is 3 if
    None; fewer than 1 would check nothing and is refused before any draw."""
    points = 3 if points is None else integer(points)
    if points < 1:
        raise ValueError(f"{name} needs points >= 1, got points={points}")
    pairs = [sides_at(SeededSampler(mix_seed(seed, (*tag, p)))) for p in range(points)]
    return (lambda: [lhs() for lhs, _ in pairs]), (lambda: [rhs() for _, rhs in pairs])
