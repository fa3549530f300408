"""Command-line front end: run single verifiers or the full suite, and
evaluate (hyper)Pfaffians/hafnians of tensors stored as JSON files.

Exit codes: 0 pass, 1 identity failure, a `--jobs` worker that died or a
closed stdout (the reader of a pipe went away, as after ``| head -1``), 2
usage or input error.  The default seed is 42, overridable by the SPFK_SEED
environment variable and then by --seed.  Every integer in a flag or in
SPFK_SEED is read by ``core.integer`` (-?[0-9]+ in ASCII); spaces may stand
only around a list piece, a ``/`` or the ``=`` of ``--max NAME=VALUE``.

No command imports a process pool: `suite --jobs N>1` forks its workers
(``suite.run_suite``).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import tensors
from .core import COEFF_CONVENTIONS, integer
from .report import VerificationReport, run_check
from .suite import (
    CAP_NAMES,
    DEFAULT_SEED,
    IDENTITIES,
    PARANOID_POINTS,
    SuiteConfig,
    WorkerError,
    run_suite,
    suite_json_bytes,
    suite_text,
)

# Each tensor command: the tensor kind it reads and its kernel's name in
# ``tensors``, looked up when the command runs.
_TENSOR_COMMANDS = {
    "pf": ("alt", "pfaffian"),
    "hf": ("sym", "hafnian"),
    "hpf": ("alt", "hyperpfaffian"),
    "hhf": ("sym", "hyperhafnian"),
}


def _parse_parts(text: str) -> tuple:
    try:
        return tuple(integer(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --parts value: {text!r}") from exc


def _parse_rationals(text: str) -> list:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        num, slash, den = piece.partition("/")
        try:
            out.append(Fraction(integer(num.strip()), integer(den.strip()) if slash else 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"bad rational value: {piece!r}") from exc
    return out


# The value flags of `spfk verify`.  Which of them an identity reads, and
# their defaults, is in the identity table; none has an argparse default, so
# a flag given to an id that does not read it is refused.
_IDENTITY_FLAGS = {
    "n": {"type": integer},
    "m": {"type": integer},
    "k": {"type": integer},
    "t": {"type": integer},
    "N": {"type": integer},
    "parts": {"type": _parse_parts, "help": "parts, e.g. 1,2,3"},
    "y": {"type": _parse_rationals, "help": "sample values, e.g. 1,2,5/2"},
    "pairs": {"type": integer},
    "coeff": {"choices": COEFF_CONVENTIONS},
}


def _glue_negative_values(argv: list) -> list:
    """Join a value flag and a following value such as ``-1/2`` into
    ``--flag=-1/2``: argparse reads a token that starts with ``-`` and is not
    a plain number as an option, and no option here starts with a digit."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if flag[:2] == "--" and flag[2:] in _IDENTITY_FLAGS and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


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
    for identity, (_, _, flags, (ranges, caps), _) in IDENTITIES.items():
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
    given = {name: getattr(ns, name) for name in _IDENTITY_FLAGS}
    try:
        if ns.paranoid:  # refused here, as complete would name the input --points
            if "points" not in IDENTITIES[ns.identity].inputs:
                raise ValueError(f"{ns.identity} does not read --paranoid")
            given["points"] = PARANOID_POINTS
        report = run_check(IDENTITIES, ns.identity, given, ns.seed)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.format == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True, separators=(",", ":")))
    else:
        print(_report_text(report))
    return 0 if report.equal else 1


def _cmd_tensor(ns) -> int:
    kind, kernel = _TENSOR_COMMANDS[ns.command]
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
        value = getattr(tensors, kernel)(tensors.tensor_from_json(obj, kind))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{value.numerator}/{value.denominator}")
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
            caps[key] = integer(val.strip())
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
    try:
        results, ok = run_suite(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: worker pool failed: {exc}", file=sys.stderr)
        return 1
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
    pv.add_argument("--seed", type=integer, default=None)
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.add_argument("--paranoid", action="store_true")

    for command in _TENSOR_COMMANDS:
        pt = sub.add_parser(command, help=f"evaluate {command} of a tensor JSON file")
        pt.add_argument("file")

    ps = sub.add_parser("suite", help="run the full verification matrix")
    ps.add_argument("--seed", type=integer, default=None)
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--jobs", type=integer, default=1)
    ps.add_argument("--paranoid", action="store_true")
    ps.add_argument("--max", action="append", metavar="CAP=VALUE",
                    help="lower a size cap, e.g. --max 2mn=6")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else list(argv)))
    if ns.command in ("verify", "suite") and ns.seed is None:
        try:
            ns.seed = integer(os.environ.get("SPFK_SEED", DEFAULT_SEED))
        except ValueError:
            print("error: SPFK_SEED must be an integer", file=sys.stderr)
            return 2
    command = {"verify": _cmd_verify, "suite": _cmd_suite}.get(ns.command, _cmd_tensor)
    try:
        code = command(ns)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the
        # interpreter's last flush of the unwritten rest is silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
