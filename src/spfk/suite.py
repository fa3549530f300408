"""The identity table and the default verification suite, with
deterministic text and JSON reporting.

``IDENTITIES`` maps each identity id to its ``report.Check`` row, gathered
from the tables of ``identities`` and ``integrals`` that declare it:
`spfk verify`, the suite matrix and `spfk verify --help` all read it, and
``run_case`` hands a case straight to ``report.run_check`` (a paranoid run
sets ``points`` of a row that reads it).  A case is an id plus its
parameters, named like the CLI flags.  Building a case completes and checks
them (``report.complete``); the domain's measures are the case's `--max` caps.

`--jobs N>1` runs the cases on N workers, at most one per case, made by
``os.fork``, which ``os.register_at_fork`` hooks (a profiler's) follow; the
package starts no thread, so forking is safe.  Every case number is first
written into one pipe as a 4-byte record, so each worker's 4-byte read takes
one whole case until the pipe is empty.  A worker sends its reports and its
cases' exceptions back as one pickle on a pipe of its own; then the parent
kills and reaps every worker.  No run loads ``concurrent.futures`` or
``multiprocessing``; without ``os.fork`` the cases run serially.

The JSON output is byte-identical across runs for a fixed seed (timing is
never serialized), and the report array is sorted by identity id, parameters,
and seeds.  Negative regressions (uncorrected coefficient conventions) are
part of the matrix and expected to report equal=false.
"""
from __future__ import annotations

import itertools
import json
import os
from typing import NamedTuple

from .identities import RATIONAL, STRUCTURE, VANDERMONDE, VI, WICK
from .integrals import CHEN, DEBRUIJN
from .report import VerificationReport, complete, run_check

DEFAULT_SEED = 42
PARANOID_POINTS = 10


class SuiteCase(NamedTuple):
    runner: str  # the identity id
    params: tuple  # sorted (key, value) pairs; values are ints/strings/tuples
    expect_equal: bool = True
    caps: tuple = ()
    seed_offset: int = 0

    def param_dict(self) -> dict:
        return dict(self.params)


class SuiteConfig(NamedTuple):
    seed: int = DEFAULT_SEED
    paranoid: bool = False
    jobs: int = 1
    caps: dict = {}  # read only: the default is one dict shared by every config


# id: Check(sides, name, flags with their defaults, domain, inputs), from the
# tables that declare each row once.  A default of ``...`` marks a flag the id
# cannot run without; only the ids whose flags include `coeff` take one.  The
# domain is checked by core.check_domain: the case's caps are the measures it
# returns, and `spfk suite --max CAP=VALUE` skips the cases above a cap.
IDENTITIES = {**WICK, **STRUCTURE, **RATIONAL, **VI, **VANDERMONDE, **CHEN, **DEBRUIJN}

# The names `spfk suite --max` takes: every measure a domain caps.
CAP_NAMES = tuple(
    dict.fromkeys(["size", *(m for check in IDENTITIES.values() for m in check.domain[1])])
)


def make_case(identity, given: dict, expect_equal=True, seed_offset=0, caps=None) -> SuiteCase:
    """The case of one id: ``given`` completed by ``report.complete``, which
    refuses a flag the id does not read or one it needs and lacks."""
    params, measures = complete(identity, IDENTITIES[identity], given)
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
    given = case.param_dict()
    if config.paranoid and "points" in IDENTITIES[case.runner].inputs:
        given["points"] = PARANOID_POINTS
    return run_check(IDENTITIES, case.runner, given, config.seed + case.seed_offset)


def _within_caps(case: SuiteCase, overrides: dict) -> bool:
    caps = dict(case.caps)
    for key, limit in overrides.items():
        if key in caps and caps[key] > limit:
            return False
    return True


def run_suite(config: SuiteConfig) -> tuple[list[tuple[SuiteCase, VerificationReport]], bool]:
    """Run the (possibly capped) default matrix; results sorted canonically.
    Caps that exclude every case raise ValueError: an empty run checks
    nothing, so it must not pass."""
    cases = [c for c in default_cases() if _within_caps(c, config.caps)]
    if not cases:
        caps = " ".join(f"--max {name}={limit}" for name, limit in config.caps.items())
        raise ValueError(f"no suite case is within the caps {caps}")
    jobs = min(config.jobs, len(cases))
    if jobs > 1 and hasattr(os, "fork"):
        reports = _run_forked(cases, config, jobs)
    else:
        reports = [run_case(c, config) for c in cases]
    results = list(zip(cases, reports))
    results.sort(key=lambda cr: _sort_key(cr[1]))
    ok = all(r.equal == c.expect_equal for c, r in results)
    return results, ok


class WorkerError(RuntimeError):
    """A `--jobs` worker could not start or did not send its full report."""


class _CaseTraceback(Exception):
    """A case's traceback text in its worker: the cause of the re-raised error."""


def _work(queue: int, out: int, cases, config) -> None:
    """A forked worker: run each case whose number it reads from ``queue``,
    then pickle ``(reports, errors)``, keyed by case number, to ``out``; an
    error is an exception and its traceback text.  It ends in ``os._exit``,
    never returning into the caller's frames nor flushing inherited stdio."""
    import pickle

    code = 1
    try:
        reports, errors = {}, {}
        while record := os.read(queue, 4):
            i = int.from_bytes(record, "little")
            try:
                reports[i] = run_case(cases[i], config)
            except Exception as exc:  # sent back, raised by the parent
                import traceback

                errors[i] = exc, traceback.format_exc()
        with open(out, "wb") as f:
            pickle.dump((reports, errors), f)
        code = 0
    finally:
        os._exit(code)


def _run_forked(cases, config, jobs: int) -> list:
    """The reports of ``cases`` in order, run on ``jobs`` forked workers.
    However it ends, one ``finally`` closes every pipe and kills and reaps
    every started worker (harmless: a worker whose pipe has ended is in
    ``os._exit``, an unreaped one keeps its pid).  Then it raises
    ``WorkerError`` if a worker could not start or sent no full report, else
    the lowest-numbered case's exception, caused by its worker traceback.
    The queue's records (904 bytes here) must fit a pipe's 64 KiB buffer."""
    import pickle
    import signal

    fds, pids, reports, errors, broken = [], [], {}, {}, None  # fds: the parent's pipe ends
    try:
        try:
            fds += os.pipe()  # fds[0] reads the queue
            os.write(fds[1], b"".join(i.to_bytes(4, "little") for i in range(len(cases))))
            os.close(fds.pop())
            for _ in range(jobs):
                fds += os.pipe()
                pid = os.fork()
                if pid == 0:
                    _work(fds[0], fds[-1], cases, config)
                pids.append(pid)
                os.close(fds.pop())  # the write end: the pipe ends when the worker closes its copy
        except OSError as exc:
            raise WorkerError(f"cannot start a worker: {exc}") from exc
        for pid, fd in zip(pids, fds[1:]):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                done, failed = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):  # empty or cut short
                broken = pid
                break
            reports.update(done)
            errors.update(failed)
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        status = {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids}
    if broken is not None:
        raise WorkerError(f"a worker ended (exit status {status[broken]}) without its full report")
    if errors:
        exc, text = errors[min(errors)]
        raise exc from _CaseTraceback(text)
    return [reports[i] for i in range(len(cases))]


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
