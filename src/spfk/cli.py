"""Command-line front end: run single verifiers or the full suite, and
evaluate (hyper)Pfaffians/hafnians of tensors stored as JSON files.

Exit codes: 0 pass, 1 identity failure, 2 usage or input error.  The default
seed is 42, overridable by the SPFK_SEED environment variable and then by
--seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .identities import (
    verify_VI,
    verify_hyperpf_structure,
    verify_rational_identity,
    verify_shuffle_wick,
    verify_vandermonde_average,
)
from .integrals import verify_chen_batch, verify_debruijn
from .report import VerificationReport
from .suite import DEFAULT_SEED, SuiteConfig, run_suite, suite_json_bytes, suite_text
from .tensors import hafnian, hyperhafnian, hyperpfaffian, pfaffian, tensor_from_json


def _need(ns, attr: str, flag: str):
    value = getattr(ns, attr)
    if value is None:
        raise ValueError(f"{flag} is required for this identity")
    return value


def _points(ns) -> int:
    return 10 if ns.paranoid else 3


def _parse_parts(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --parts value: {text!r}") from exc


def _parse_rationals(text: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            if "/" in piece:
                num, den = piece.split("/")
                out.append(Fraction(int(num), int(den)))
            else:
                out.append(Fraction(int(piece)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational value: {piece!r}") from exc
    return out


def _run_identity(identity: str, ns, seed: int) -> VerificationReport:
    wick = {"pfab": "PFAB", "sdb2": "SDB2", "fhaff2": "FHAFF2", "fhaff1": "FHAFF1",
            "odd_even": "ODD_EVEN", "antishuffle": "ANTISHUFFLE"}
    rational_n = {"schur": "SCHUR", "schur_hyper": "SCHUR_HYPER", "mehta1": "MEHTA1",
                  "mehta2": "MEHTA2", "hafsym": "HAFSYM", "wigner_rank1": "WIGNER_RANK1"}
    rational_m = {"sundquist": "SUNDQUIST", "sum1": "SUM1", "arq": "ARQ"}
    debruijn_order = {"debruijn_even": "EVEN", "debruijn_odd": "ODD",
                      "debruijn_interleaved": "INTERLEAVED",
                      "debruijn_new_pairing": "NEW_PAIRING",
                      "debruijn_perm_product": "PERM_PRODUCT",
                      "debruijn_perm_interleaved": "PERM_INTERLEAVED"}

    if identity in wick:
        return verify_shuffle_wick(wick[identity], _need(ns, "n", "--n"), coeff=ns.coeff)
    if identity == "xipfashu":
        return verify_shuffle_wick(
            "XIPFASHU", _need(ns, "n", "--n"), k=_need(ns, "k", "--k"), coeff=ns.coeff
        )
    if identity in ("composition", "sum", "det_decomp"):
        return verify_hyperpf_structure(
            identity.upper(), _need(ns, "m", "--m"), _need(ns, "n", "--n"), seed=seed
        )
    if identity == "minor":
        return verify_hyperpf_structure(
            "MINOR", _need(ns, "m", "--m"), _need(ns, "n", "--n"), t=_need(ns, "t", "--t"),
            seed=seed,
        )
    if identity in rational_n:
        return verify_rational_identity(
            rational_n[identity], _need(ns, "n", "--n"), seed=seed, points=_points(ns),
            coeff=ns.coeff,
        )
    if identity in rational_m:
        return verify_rational_identity(
            rational_m[identity], _need(ns, "m", "--m"), seed=seed, points=_points(ns),
            coeff=ns.coeff,
        )
    if identity == "vi":
        parts = _parse_parts(_need(ns, "parts", "--parts"))
        return verify_VI(parts, N=ns.cap_n or 8, seed=seed, points=_points(ns))
    if identity == "vandermonde":
        y = _parse_rationals(ns.y) if ns.y else None
        return verify_vandermonde_average(
            _need(ns, "cap_n", "--N"), _need(ns, "n", "--n"), _need(ns, "m", "--m"),
            y=y, seed=seed,
        )
    if identity == "chen":
        return verify_chen_batch(seed, pairs=ns.pairs)
    if identity in debruijn_order:
        return verify_debruijn(
            debruijn_order[identity], n=_need(ns, "n", "--n"), seed=seed, coeff=ns.coeff
        )
    if identity in ("debruijn_general_det", "debruijn_general_perm"):
        variant = "GENERAL_DET" if identity.endswith("det") else "GENERAL_PERM"
        return verify_debruijn(
            variant, n=_need(ns, "n", "--n"), k=_need(ns, "k", "--k"), seed=seed
        )
    raise KeyError(identity)


KNOWN_IDENTITIES = (
    "pfab", "sdb2", "fhaff2", "fhaff1", "odd_even", "antishuffle", "xipfashu",
    "composition", "sum", "minor", "det_decomp",
    "schur", "schur_hyper", "sundquist", "mehta1", "mehta2", "sum1", "hafsym",
    "wigner_rank1", "arq", "vi", "vandermonde", "chen",
    "debruijn_even", "debruijn_odd", "debruijn_interleaved", "debruijn_new_pairing",
    "debruijn_perm_product", "debruijn_perm_interleaved",
    "debruijn_general_det", "debruijn_general_perm",
)


def _report_text(report: VerificationReport) -> str:
    lines = [
        f"identity: {report.identity}",
        f"params: {json.dumps(report.params, sort_keys=True, default=str)}",
        f"seeds: {report.seeds}",
        f"equal: {report.equal}",
        f"lhs: {report.lhs_terms} terms, digest {report.lhs_digest[:16]}",
        f"rhs: {report.rhs_terms} terms, digest {report.rhs_digest[:16]}",
        f"elapsed_ms: {report.elapsed_ms}",
    ]
    if report.conventions:
        lines.append(f"conventions: {json.dumps(report.conventions, sort_keys=True)}")
    if report.counterexample:
        lhs, rhs = report.counterexample
        lines.append(f"counterexample lhs: {lhs[:400]}")
        lines.append(f"counterexample rhs: {rhs[:400]}")
    return "\n".join(lines)


def _cmd_verify(ns) -> int:
    identity = ns.identity
    seed = ns.seed
    if identity not in KNOWN_IDENTITIES:
        print(f"unknown identity: {identity!r}", file=sys.stderr)
        print("known identities: " + ", ".join(KNOWN_IDENTITIES), file=sys.stderr)
        return 2
    try:
        report = _run_identity(identity, ns, seed)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.format == "json":
        print(json.dumps(report.to_json_dict(include_timing=False), sort_keys=True,
                         separators=(",", ":")))
    else:
        print(_report_text(report))
    return 0 if report.equal else 1


def _cmd_tensor(ns) -> int:
    kind = ns.command
    try:
        with open(ns.file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {ns.file}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    try:
        tensor = tensor_from_json(obj, "alt" if kind in ("pf", "hpf") else "sym")
        if kind == "pf":
            value = pfaffian(tensor)
        elif kind == "hf":
            value = hafnian(tensor)
        elif kind == "hpf":
            value = hyperpfaffian(tensor)
        else:
            value = hyperhafnian(tensor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    frac = Fraction(value)
    print(f"{frac.numerator}/{frac.denominator}")
    return 0


def _parse_caps(raw) -> dict:
    caps = {}
    for item in raw or ():
        if "=" not in item:
            raise ValueError(f"bad --max value (want name=value): {item!r}")
        key, _, val = item.partition("=")
        try:
            caps[key.strip()] = int(val)
        except ValueError as exc:
            raise ValueError(f"bad --max value: {item!r}") from exc
    return caps


def _cmd_suite(ns) -> int:
    try:
        caps = _parse_caps(ns.max)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.jobs < 1:
        print(f"error: --jobs must be at least 1, got {ns.jobs}", file=sys.stderr)
        return 2
    jobs = min(ns.jobs, os.cpu_count() or 1)
    config = SuiteConfig(seed=ns.seed, paranoid=ns.paranoid, jobs=jobs, caps=caps)
    results, ok = run_suite(config)
    if ns.json:
        sys.stdout.buffer.write(suite_json_bytes(results))
        sys.stdout.buffer.flush()
    else:
        print(suite_text(results, ok))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spfk",
        description="Exact shuffle/Pfaffian/hafnian identity verification kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a single identity verifier")
    pv.add_argument("identity")
    pv.add_argument("--n", type=int, default=None)
    pv.add_argument("--m", type=int, default=None)
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--t", type=int, default=None)
    pv.add_argument("--N", dest="cap_n", type=int, default=None)
    pv.add_argument("--parts", type=str, default=None, help="composition, e.g. 1,2,3")
    pv.add_argument("--y", type=str, default=None, help="sample values, e.g. 1,2,5/2")
    pv.add_argument("--pairs", type=int, default=100)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument("--paranoid", action="store_true")
    pv.add_argument("--coeff", choices=("corrected", "paper"), default="corrected")

    for kind in ("pf", "hf", "hpf", "hhf"):
        pt = sub.add_parser(kind, help=f"evaluate {kind} of a tensor JSON file")
        pt.add_argument("file")

    ps = sub.add_parser("suite", help="run the full verification matrix")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--jobs", type=int, default=1)
    ps.add_argument("--paranoid", action="store_true")
    ps.add_argument("--max", action="append", metavar="CAP=VALUE",
                    help="lower a size cap, e.g. --max 2mn=6")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command in ("verify", "suite") and ns.seed is None:
        try:
            ns.seed = int(os.environ.get("SPFK_SEED", DEFAULT_SEED))
        except ValueError:
            print("error: SPFK_SEED must be an integer", file=sys.stderr)
            return 2
    if ns.command == "verify":
        return _cmd_verify(ns)
    if ns.command in ("pf", "hf", "hpf", "hhf"):
        return _cmd_tensor(ns)
    return _cmd_suite(ns)


if __name__ == "__main__":
    raise SystemExit(main())
