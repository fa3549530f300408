"""Canonical record of one identity check.

Digests are deterministic functions of the canonical form of each side, so
the same (identity, params, seed) always reproduces the same report.  The
elapsed time is kept on the object for human output but excluded from the
canonical JSON, which must be byte-identical across runs.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction


def digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def scalar_list_canonical(values) -> str:
    parts = []
    for v in values:
        frac = Fraction(v)
        parts.append(f"{frac.numerator}/{frac.denominator}")
    return ";".join(parts) if parts else "0"


@dataclass
class VerificationReport:
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
    conventions: dict = field(default_factory=dict)

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


class ReportBuilder:
    """Collects the two sides of a check and stamps the elapsed time."""

    def __init__(self, identity: str, params: dict, seeds=(), conventions=None):
        self.identity = identity
        self.params = dict(params)
        self.seeds = list(seeds)
        self.conventions = dict(conventions or {})
        self._t0 = time.perf_counter()

    def finish(
        self, equal: bool, lhs_canonical: str, rhs_canonical: str, lhs_terms: int, rhs_terms: int
    ) -> VerificationReport:
        elapsed = int((time.perf_counter() - self._t0) * 1000)
        return VerificationReport(
            identity=self.identity,
            params=self.params,
            seeds=self.seeds,
            equal=equal,
            lhs_digest=digest(lhs_canonical),
            rhs_digest=digest(rhs_canonical),
            lhs_terms=lhs_terms,
            rhs_terms=rhs_terms,
            elapsed_ms=elapsed,
            counterexample=None if equal else (lhs_canonical, rhs_canonical),
            conventions=self.conventions,
        )

    def finish_scalars(self, lhs_vals, rhs_vals, equal=None) -> VerificationReport:
        """``finish`` for two lists of exact scalars; ``equal`` defaults to
        the lists being equal."""
        return self.finish(
            list(lhs_vals) == list(rhs_vals) if equal is None else equal,
            scalar_list_canonical(lhs_vals),
            scalar_list_canonical(rhs_vals),
            len(lhs_vals),
            len(rhs_vals),
        )
