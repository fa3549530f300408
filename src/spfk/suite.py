"""The identity table and the default verification suite, with
deterministic text and JSON reporting.

``IDENTITIES`` is the one place that maps an identity id to its verifier:
`spfk verify`, the suite matrix and `spfk verify --help` all read it.  A
case is an id plus its parameters, named like the CLI flags.  Each row
carries its verifier's parameter domain; building a case checks it
(``core.check_domain``), whose measures are the case's `--max` caps.

The JSON output is byte-identical across runs for a fixed seed (timing is
never serialized), and the report array is sorted by identity id, parameters,
and seeds.  Negative regressions (uncorrected coefficient conventions) are
part of the matrix and expected to report equal=false.
"""
from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .core import check_domain
from .identities import (
    _RATIONAL_IMPL,
    STRUCTURE,
    VANDERMONDE_DOMAIN,
    VI_DOMAIN,
    WICK,
    verify_VI,
    verify_hyperpf_structure,
    verify_rational_identity,
    verify_shuffle_wick,
    verify_vandermonde_average,
)
from .integrals import _DEBRUIJN_IMPL, CHEN_DOMAIN, verify_chen_batch, verify_debruijn
from .report import VerificationReport

DEFAULT_SEED = 42


@dataclass(frozen=True)
class SuiteCase:
    runner: str  # the identity id
    params: tuple  # sorted (key, value) pairs; values are ints/strings/tuples
    expect_equal: bool = True
    caps: tuple = ()
    seed_offset: int = 0

    def param_dict(self) -> dict:
        return dict(self.params)


@dataclass
class SuiteConfig:
    seed: int = DEFAULT_SEED
    paranoid: bool = False
    jobs: int = 1
    caps: dict = field(default_factory=dict)

    @property
    def points(self) -> int:
        return 10 if self.paranoid else 3


# One runner per verifier family: (variant, seed, points, **params).  Each
# calls its verifier through this module's global name, so patching that name
# sees every call.


def _wick(variant, _seed, _points, **p):
    return verify_shuffle_wick(variant, **p)


def _structure(variant, seed, _points, **p):
    return verify_hyperpf_structure(variant, seed=seed, **p)


def _rational(variant, seed, points, coeff="corrected", **p):
    (size,) = p.values()  # the one size flag of the row, n or m
    return verify_rational_identity(variant, size, seed=seed, points=points, coeff=coeff)


def _vi(_variant, seed, points, **p):
    return verify_VI(seed=seed, points=points, **p)


def _vandermonde(_variant, seed, _points, **p):
    return verify_vandermonde_average(seed=seed, **p)


def _chen(_variant, seed, _points, **p):
    return verify_chen_batch(seed, **p)


def _debruijn(variant, seed, _points, **p):
    return verify_debruijn(variant, seed=seed, **p)


# Each family's table, whose rows are (sides, domain).
_TABLES = {_wick: WICK, _structure: STRUCTURE, _rational: _RATIONAL_IMPL, _debruijn: _DEBRUIJN_IMPL}


def _row(runner, variant, flags):
    return (runner, variant, flags, _TABLES[runner][variant][1])


def _rational_row(variant, **coeff):
    (name,) = _RATIONAL_IMPL[variant][1][0]  # the one size flag, n or m
    return _row(_rational, variant, {name: ..., **coeff})


_COEFF = {"coeff": "corrected"}

# id: (runner, variant, flags with their defaults, domain).  A default of
# ``...`` marks a flag the id cannot run without; only the ids whose flags
# include `coeff` take one.  The domain is the verifier's own (see
# core.check_domain): the case's caps are the measures it returns, and
# `spfk suite --max CAP=VALUE` skips the cases above a cap.
IDENTITIES = {
    "pfab": _row(_wick, "PFAB", {"n": ...}),
    "sdb2": _row(_wick, "SDB2", {"n": ...}),
    "fhaff2": _row(_wick, "FHAFF2", {"n": ...}),
    "fhaff1": _row(_wick, "FHAFF1", {"n": ..., **_COEFF}),
    "odd_even": _row(_wick, "ODD_EVEN", {"n": ...}),
    "antishuffle": _row(_wick, "ANTISHUFFLE", {"n": ...}),
    "xipfashu": _row(_wick, "XIPFASHU", {"k": ..., "n": ...}),
    "composition": _row(_structure, "COMPOSITION", {"m": ..., "n": ...}),
    "sum": _row(_structure, "SUM", {"m": ..., "n": ...}),
    "minor": _row(_structure, "MINOR", {"m": ..., "n": ..., "t": ...}),
    "det_decomp": _row(_structure, "DET_DECOMP", {"m": ..., "n": ...}),
    "schur": _rational_row("SCHUR"),
    "schur_hyper": _rational_row("SCHUR_HYPER", **_COEFF),
    "sundquist": _rational_row("SUNDQUIST"),
    "mehta1": _rational_row("MEHTA1"),
    "mehta2": _rational_row("MEHTA2"),
    "sum1": _rational_row("SUM1"),
    "hafsym": _rational_row("HAFSYM"),
    "wigner_rank1": _rational_row("WIGNER_RANK1", **_COEFF),
    "arq": _rational_row("ARQ"),
    "vi": (_vi, "VI", {"parts": ..., "N": 8}, VI_DOMAIN),
    "vandermonde": (
        _vandermonde, "VANDERMONDE", {"N": ..., "n": ..., "m": ..., "y": None}, VANDERMONDE_DOMAIN
    ),
    "chen": (_chen, "CHEN", {"pairs": 100}, CHEN_DOMAIN),
    "debruijn_even": _row(_debruijn, "EVEN", {"n": ...}),
    "debruijn_odd": _row(_debruijn, "ODD", {"n": ...}),
    "debruijn_interleaved": _row(_debruijn, "INTERLEAVED", {"n": ...}),
    "debruijn_new_pairing": _row(_debruijn, "NEW_PAIRING", {"n": ...}),
    "debruijn_perm_product": _row(_debruijn, "PERM_PRODUCT", {"n": ..., **_COEFF}),
    "debruijn_perm_interleaved": _row(_debruijn, "PERM_INTERLEAVED", {"n": ...}),
    "debruijn_general_det": _row(_debruijn, "GENERAL_DET", {"k": ..., "n": ...}),
    "debruijn_general_perm": _row(_debruijn, "GENERAL_PERM", {"k": ..., "n": ...}),
}

# The names `spfk suite --max` takes: every measure a domain caps.
CAP_NAMES = tuple(
    dict.fromkeys(["size", *(m for *_, (_, caps) in IDENTITIES.values() for m in caps)])
)


def takes_points(identity) -> bool:
    """Whether the id's runner checks at sample points, so that ``paranoid``
    (10 points instead of 3) changes its check."""
    return IDENTITIES[identity][0] in (_rational, _vi)


def make_case(identity, given: dict, expect_equal=True, seed_offset=0, caps=None) -> SuiteCase:
    """The case of one id: ``given`` plus the row's defaults.  A flag the id
    does not read, or one it needs and lacks, is a ValueError."""
    _runner, variant, flags, domain = IDENTITIES[identity]
    unread = [f"--{name}" for name in given if name not in flags]
    if unread:
        raise ValueError(f"{identity} does not read {', '.join(unread)}")
    params = {**flags, **given}
    missing = [f"--{name}" for name, value in params.items() if value is ...]
    if missing:
        raise ValueError(f"{', '.join(missing)} is required for {identity}")
    measures = check_domain(variant, params, domain)
    if caps is None:
        caps = {"size": next(iter(measures.values())), **measures}
    return SuiteCase(
        identity,
        tuple(sorted(params.items())),
        expect_equal,
        tuple(sorted(caps.items())),
        seed_offset,
    )


def default_cases() -> list[SuiteCase]:
    matrix = [(i, {"n": n}) for n in (1, 2, 3) for i in ("pfab", "sdb2", "fhaff2", "fhaff1")]
    for n in (2, 3, 4, 5):
        matrix += [("odd_even", {"n": n}), ("antishuffle", {"n": n})]
    for k, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        matrix.append(("xipfashu", {"k": k, "n": n}))
    cases = [make_case(i, p) for i, p in matrix]
    # Erratum regressions: the uncorrected double-factorial coefficient fails.
    cases.append(make_case("fhaff1", {"n": 2, "coeff": "paper"}, expect_equal=False))
    cases.append(
        make_case("schur_hyper", {"n": 1, "coeff": "paper"}, expect_equal=False, caps={"size": 4})
    )

    mn = lambda ident, pairs: [(ident, {"m": m, "n": n}) for m, n in pairs]
    matrix = mn("composition", ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)))
    matrix += mn("sum", ((1, 1), (1, 2), (1, 3), (2, 2)))
    for m, t, n in ((1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 2)):
        matrix.append(("minor", {"m": m, "t": t, "n": n}))
    matrix += mn("det_decomp", ((1, 2), (1, 3), (2, 2)))
    cases += [make_case(i, p) for i, p in matrix]

    rational = (
        [("schur", {"n": n}) for n in (1, 2, 3)]
        + [("schur_hyper", {"n": n}) for n in (1, 2)]
        + [("sundquist", {"m": m}) for m in (1, 2, 3)]
        + [("mehta1", {"n": n}) for n in (1, 2, 3, 4, 5, 6)]
        + [("mehta2", {"n": n}) for n in (2, 4)]
        + [("sum1", {"m": m}) for m in (1, 2, 3, 4, 5)]
        + [("hafsym", {"n": n}) for n in (1, 2, 3)]
        + [("wigner_rank1", {"n": n}) for n in (1, 2, 3)]
        + [("arq", {"m": m}) for m in (1, 2)]
    )
    cases += [make_case(i, p, seed_offset=offset) for i, p in rational for offset in (0, 1, 2)]

    vi_parts = [(1, 1)]
    for r in (1, 2, 3, 4):
        vi_parts.extend(itertools.permutations((1, 2, 3, 4), r))
    matrix = [("vi", {"parts": parts}) for parts in vi_parts]
    matrix += [
        ("vandermonde", {"N": N, "n": n, "m": m})
        for N, n, m in ((2, 2, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2))
    ]
    matrix.append(("chen", {}))
    for n in (2, 4, 6):
        for variant in ("even", "interleaved", "new_pairing", "perm_product", "perm_interleaved"):
            matrix.append((f"debruijn_{variant}", {"n": n}))
    matrix += [("debruijn_odd", {"n": n}) for n in (3, 5)]
    for k, n in ((1, 2), (1, 3), (2, 1), (2, 2)):
        matrix += [(f"debruijn_general_{v}", {"k": k, "n": n}) for v in ("det", "perm")]
    cases += [make_case(i, p) for i, p in matrix]
    return cases


def run_case(case: SuiteCase, config: SuiteConfig) -> VerificationReport:
    runner, variant, _flags, _caps = IDENTITIES[case.runner]
    return runner(variant, config.seed + case.seed_offset, config.points, **case.param_dict())


def _within_caps(case: SuiteCase, overrides: dict) -> bool:
    caps = dict(case.caps)
    for key, limit in overrides.items():
        if key in caps and caps[key] > limit:
            return False
    return True


def _pool_entry(args):
    case, config = args
    return run_case(case, config)


def run_suite(config: SuiteConfig) -> tuple[list[tuple[SuiteCase, VerificationReport]], bool]:
    """Run the (possibly capped) default matrix; results sorted canonically."""
    cases = [c for c in default_cases() if _within_caps(c, config.caps)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            reports = list(pool.map(_pool_entry, [(c, config) for c in cases]))
    else:
        reports = [run_case(c, config) for c in cases]
    results = list(zip(cases, reports))
    results.sort(key=lambda cr: _sort_key(cr[1]))
    ok = all(r.equal == c.expect_equal for c, r in results)
    return results, ok


def _sort_key(report: VerificationReport):
    return (
        report.identity,
        json.dumps(report.params, sort_keys=True, default=str),
        list(report.seeds),
    )


def suite_json_bytes(results) -> bytes:
    entries = []
    for case, report in results:
        entry = report.to_json_dict()
        entry["expect_equal"] = case.expect_equal
        entries.append(entry)
    return (json.dumps(entries, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def suite_text(results, ok: bool) -> str:
    lines = []
    width = max(len(r.identity) for _, r in results) if results else 10
    for case, report in results:
        status = "ok" if report.equal == case.expect_equal else "FAIL"
        expected = "" if case.expect_equal else " (expected NOT equal)"
        ps = ",".join(f"{k}={v}" for k, v in sorted(report.params.items(), key=lambda kv: kv[0]))
        lines.append(
            f"[{status:>4}] {report.identity:<{width}} {ps:<40} "
            f"equal={str(report.equal).lower():<5} {report.elapsed_ms:>6} ms"
        )
    passed = sum(1 for c, r in results if r.equal == c.expect_equal)
    lines.append(f"{passed}/{len(results)} checks as expected: {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)
