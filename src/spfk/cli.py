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

from .report import VerificationReport
from .suite import (
    CAP_NAMES,
    DEFAULT_SEED,
    IDENTITIES,
    SuiteConfig,
    make_case,
    run_case,
    run_suite,
    suite_json_bytes,
    suite_text,
    takes_points,
)
from .tensors import hafnian, hyperhafnian, hyperpfaffian, pfaffian, tensor_from_json


def _parse_parts(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --parts value: {text!r}") from exc


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
            raise argparse.ArgumentTypeError(f"bad rational value: {piece!r}") from exc
    return out


# The value flags of `spfk verify`.  Which of them an identity reads, and
# their defaults, is in the identity table; none has an argparse default, so
# a flag given to an id that does not read it is refused.
_IDENTITY_FLAGS = {
    "n": {"type": int},
    "m": {"type": int},
    "k": {"type": int},
    "t": {"type": int},
    "N": {"type": int},
    "parts": {"type": _parse_parts, "help": "parts, e.g. 1,2,3"},
    "y": {"type": _parse_rationals, "help": "sample values, e.g. 1,2,5/2"},
    "pairs": {"type": int},
    "coeff": {"choices": ("corrected", "paper")},
}


def _flag_usage(name: str, default) -> str:
    if default is ...:
        return f"--{name}"
    return f"[--{name}]" if default is None else f"[--{name} {default}]"


def _range_text(flag: str, bound: tuple) -> str:
    least, most, *parity = bound
    text = f"{flag} >= {least}" if most is None else f"{least} <= {flag} <= {most}"
    return ", ".join([text, *(f"{flag} {p}" for p in parity)])


def _identity_help() -> str:
    lines = ["identities, their flags ([--flag default] is optional), ranges; size caps:"]
    for identity, (_runner, _variant, flags, (ranges, caps)) in IDENTITIES.items():
        usage = " ".join(_flag_usage(name, default) for name, default in flags.items())
        bounds = ", ".join(_range_text(flag, bound) for flag, bound in ranges.items())
        capped = [f"{m} <= {limit}" for m, (_, limit) in caps.items() if limit is not None]
        lines.append(f"  {identity:<26} {usage:<24} {'; '.join([bounds, *capped])}")
    return "\n".join(lines)


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
    if ns.identity not in IDENTITIES:
        print(f"unknown identity: {ns.identity!r}", file=sys.stderr)
        print("known identities: " + ", ".join(IDENTITIES), file=sys.stderr)
        return 2
    given = {name: getattr(ns, name) for name in _IDENTITY_FLAGS if getattr(ns, name) is not None}
    try:
        case = make_case(ns.identity, given)
        if ns.paranoid and not takes_points(ns.identity):
            raise ValueError(f"{ns.identity} does not read --paranoid")
        report = run_case(case, SuiteConfig(seed=ns.seed, paranoid=ns.paranoid))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
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
    except ValueError as exc:  # bad syntax, not UTF-8, or an int past the str-digits limit
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
        key = key.strip()
        if key not in CAP_NAMES:
            raise ValueError(f"unknown --max cap {key!r}; known caps: {', '.join(CAP_NAMES)}")
        try:
            caps[key] = int(val)
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

    pv = sub.add_parser(
        "verify",
        help="run a single identity verifier",
        epilog=_identity_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    pv.add_argument("identity")
    for name, kwargs in _IDENTITY_FLAGS.items():
        pv.add_argument(f"--{name}", default=None, **kwargs)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument("--paranoid", action="store_true")

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
