import contextlib
import io
import itertools
import json
import os
import pathlib
import pickle
import re
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from spfk import cli, identities, integrals, report, suite, tensors
from spfk.cli import main
from spfk.tensors import MAX_BLOCKED, hyperpfaffian
from oracles import tensor_to_json
from test_tensors import _random_alt


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pfab_json(capsys):
    code, out, _ = run(capsys, "verify", "pfab", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["id"] == "pfab"
    assert payload["equal"] is True
    assert "elapsed_ms" not in payload


def test_verify_erratum_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "fhaff1", "--n", "2", "--coeff", "paper")
    assert code == 1
    assert "counterexample" in out


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "known identities" in err


def test_verify_missing_param(capsys):
    code, _, err = run(capsys, "verify", "pfab")
    assert code == 2
    assert "--n" in err


def test_verify_cap_error(capsys):
    code, _, err = run(capsys, "verify", "pfab", "--n", "9")
    assert code == 2
    assert "size cap" in err


def test_verify_vi_and_vandermonde(capsys):
    code, out, _ = run(capsys, "verify", "vi", "--parts", "1,2,3", "--N", "8", "--format", "json")
    assert code == 0 and json.loads(out)["equal"]
    code, out, _ = run(
        capsys, "verify", "vandermonde", "--N", "3", "--n", "2", "--m", "2", "--format", "json"
    )
    assert code == 0 and json.loads(out)["equal"]
    code, out, _ = run(
        capsys, "verify", "vandermonde", "--N", "2", "--n", "2", "--m", "1", "--y", "1,2"
    )
    assert code == 0


def test_verify_debruijn_general(capsys):
    code, out, _ = run(
        capsys, "verify", "debruijn_general_det", "--k", "1", "--n", "2", "--format", "json"
    )
    assert code == 0 and json.loads(out)["equal"]


@pytest.mark.parametrize("pairs", ("0", "-3"))
def test_verify_chen_needs_a_pair(capsys, pairs):
    code, out, err = run(capsys, "verify", "chen", "--pairs", pairs)
    assert code == 2
    assert out == ""
    assert err == f"error: CHEN needs pairs >= 1, got pairs={pairs}\n"


def test_verify_minor_t_above_n_is_a_domain_error(capsys):
    code, _, err = run(capsys, "verify", "minor", "--m", "1", "--n", "1", "--t", "5")
    assert code == 2
    assert "MINOR needs t <= n" in err
    assert "size cap" not in err


def test_verify_minor_t_below_one_names_minor_and_t(capsys):
    code, _, err = run(capsys, "verify", "minor", "--m", "1", "--n", "2", "--t", "0")
    assert code == 2
    assert err == "error: MINOR needs t >= 1, got t=0\n"


@pytest.mark.parametrize(
    "argv,message",
    (
        (("debruijn_general_det", "--k", "-1", "--n", "-1"), "GENERAL_DET needs k >= 1, got k=-1"),
        (("debruijn_odd", "--n", "-1"), "ODD needs n >= 0, got n=-1"),
    ),
)
def test_verify_debruijn_negative_params_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_verify_debruijn_even_odd_n_names_the_identity_before_any_work(capsys, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the left side ran before the parity check")

    monkeypatch.setattr(integrals, "ordered_sum", refuse)
    code, out, err = run(capsys, "verify", "debruijn_even", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: EVEN needs even n, got n=3\n"


@pytest.mark.parametrize(
    "identity,n,message",
    (
        ("debruijn_even", 3, "EVEN needs even n, got n=3"),
        ("debruijn_odd", 2, "ODD needs odd n, got n=2"),
        ("debruijn_interleaved", 3, "INTERLEAVED needs even n, got n=3"),
        ("debruijn_new_pairing", 3, "NEW_PAIRING needs even n, got n=3"),
        ("debruijn_perm_product", 5, "PERM_PRODUCT needs even n, got n=5"),
        ("debruijn_perm_interleaved", 1, "PERM_INTERLEAVED needs even n, got n=1"),
    ),
)
def test_verify_debruijn_parity_names_the_flag_before_sampling(capsys, monkeypatch, identity, n,
                                                               message):
    monkeypatch.setattr(integrals, "default_family", _refuse)
    monkeypatch.setattr(integrals, "ordered_sum", _refuse)
    code, out, err = run(capsys, "verify", identity, "--n", str(n))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("big_n, n, y, shown", (
    ("1", "0", "-1/2", ["-1/2"]),
    ("2", "2", "-1,-3/2", ["-1/1", "-3/2"]),
))
def test_verify_negative_y_reads_the_same_in_both_spellings(capsys, big_n, n, y, shown):
    argv = ("verify", "vandermonde", "--N", big_n, "--n", n, "--m", "1", "--format", "json")
    outs = []
    for spelling in (("--y", y), (f"--y={y}",)):
        code, out, err = run(capsys, *argv, *spelling)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["params"]["y"] == shown


def test_verify_vandermonde_y_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "verify", "vandermonde", "--N", "3", "--n", "2", "--m", "1",
                         "--y", "1,2")
    assert code == 2
    assert out == ""
    assert err == "error: VANDERMONDE needs N values of y, got y=[1, 2] for N=3\n"


def test_verify_vandermonde_y_is_in_the_report_params(capsys):
    payloads = []
    for y in ("1,2", "1,3", "1/2,5/3"):
        code, out, _ = run(capsys, "verify", "vandermonde", "--N", "2", "--n", "2", "--m", "1",
                           "--y", y, "--format", "json")
        assert code == 0
        payloads.append(json.loads(out))
    assert [p["params"]["y"] for p in payloads] == [["1/1", "2/1"], ["1/1", "3/1"], ["1/2", "5/3"]]
    assert payloads[0]["lhs_digest"] != payloads[1]["lhs_digest"]
    # Sampled points are named by the seed, not listed.
    code, out, _ = run(capsys, "verify", "vandermonde", "--N", "2", "--n", "2", "--m", "1",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["params"] == {"N": 2, "m": 1, "n": 2}


def test_verify_vi_N_zero_is_not_replaced_by_the_default(capsys):
    code, out, err = run(capsys, "verify", "vi", "--parts", "1,2", "--N", "0")
    assert code == 2
    assert out == ""
    assert "VI needs N >= 1, got N=0" in err


@pytest.mark.parametrize(
    "argv,flag",
    (
        (("pfab", "--n", "2", "--coeff", "paper"), "--coeff"),
        (("mehta1", "--n", "2", "--coeff", "paper"), "--coeff"),
        (("debruijn_even", "--n", "2", "--coeff", "paper"), "--coeff"),
        (("pfab", "--n", "2", "--m", "7"), "--m"),
    ),
)
def test_verify_refuses_a_flag_the_id_does_not_read(capsys, argv, flag):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {argv[0]} does not read {flag}\n"


@pytest.mark.parametrize(
    "argv",
    (("vi", "--parts", "1,a"), ("vandermonde", "--N", "2", "--n", "2", "--m", "1", "--y", "1/0")),
)
def test_verify_bad_list_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "bad " in capsys.readouterr().err


# The identity table against the suite, the CLI, --help and the README.

ROOT = pathlib.Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden" / "suite_seed42.json"


def _first_cases():
    first = {}
    for case in suite.default_cases():
        first.setdefault(case.runner, case)
    return first


def _flag_argv(params: dict) -> list:
    argv = []
    for name, value in params.items():
        if value is not None:
            text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            argv.append(f"--{name}={text}")  # `=` keeps a value like -1/2 a value
    return argv


@pytest.mark.parametrize("identity", list(suite.IDENTITIES))
def test_verify_runs_every_id_with_its_first_suite_case(capsys, monkeypatch, identity):
    monkeypatch.delenv("SPFK_SEED", raising=False)
    case = _first_cases()[identity]
    argv = ["verify", identity, *_flag_argv(case.param_dict()), "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == (0 if case.expect_equal else 1)
    payload = json.loads(out)
    assert payload["id"] == identity
    # The CLI report is the suite's report for the same case at seed 42.
    assert {**payload, "expect_equal": case.expect_equal} in json.loads(GOLDEN.read_bytes())


def _library_report(identity, p, seed, points):
    """The id's case through the library verifier its table is named for."""
    name = suite.IDENTITIES[identity].name
    if identity in identities.WICK:
        return identities.verify_shuffle_wick(name, p["n"], k=p.get("k"), coeff=p.get("coeff"))
    if identity in identities.STRUCTURE:
        return identities.verify_hyperpf_structure(name, p["m"], p["n"], t=p.get("t"), seed=seed)
    if identity in identities.RATIONAL:
        size = p.get("n", p.get("m"))
        return identities.verify_rational_identity(
            name, size, seed=seed, points=points, coeff=p.get("coeff"))
    if identity == "vi":
        return identities.verify_VI(p["parts"], N=p["N"], seed=seed, points=points)
    if identity == "vandermonde":
        return identities.verify_vandermonde_average(p["N"], p["n"], p["m"], y=p["y"], seed=seed)
    if identity == "chen":
        return integrals.verify_chen_batch(seed, pairs=p["pairs"])
    return integrals.verify_debruijn(name, n=p["n"], k=p.get("k"), seed=seed, coeff=p.get("coeff"))


@pytest.mark.parametrize("identity", list(suite.IDENTITIES))
def test_suite_case_and_library_verifier_give_one_report(identity):
    case = _first_cases()[identity]
    config = suite.SuiteConfig(seed=7, paranoid=True)
    via_suite = suite.run_case(case, config).to_json_dict()
    via_library = _library_report(identity, case.param_dict(), 7 + case.seed_offset,
                                   suite.PARANOID_POINTS)
    assert via_library.to_json_dict() == via_suite


# One mistake each: a library call, the `spfk verify` argv of the same
# mistake, and the message both give.
_LIBRARY_MISTAKES = [
    pytest.param(lambda: identities.verify_shuffle_wick("PFAB", 2, coeff="paper"),
                 ["pfab", "--n", "2", "--coeff", "paper"], "pfab does not read --coeff",
                 id="pfab-coeff"),
    pytest.param(lambda: identities.verify_shuffle_wick("PFAB", 2, k=3),
                 ["pfab", "--n", "2", "--k", "3"], "pfab does not read --k", id="pfab-k"),
    pytest.param(lambda: identities.verify_rational_identity("SCHUR", 2, coeff="paper"),
                 ["schur", "--n", "2", "--coeff", "paper"], "schur does not read --coeff",
                 id="schur-coeff"),
    pytest.param(lambda: integrals.verify_debruijn("EVEN", n=4, k=2),
                 ["debruijn_even", "--n", "4", "--k", "2"], "debruijn_even does not read --k",
                 id="even-k"),
    pytest.param(lambda: identities.verify_hyperpf_structure("MINOR", 1, 2),
                 ["minor", "--m", "1", "--n", "2"], "--t is required for minor", id="minor-no-t"),
    pytest.param(lambda: identities.verify_shuffle_wick("XIPFASHU", 2),
                 ["xipfashu", "--n", "2"], "--k is required for xipfashu", id="xipfashu-no-k"),
    pytest.param(lambda: integrals.verify_debruijn("GENERAL_DET", n=2),
                 ["debruijn_general_det", "--n", "2"], "--k is required for debruijn_general_det",
                 id="general-det-no-k"),
    pytest.param(lambda: report.run_check(suite.IDENTITIES, "MINOR", {"m": 1, "n": 2}),
                 ["minor", "--m", "1", "--n", "2"], "--t is required for minor",
                 id="run-check-minor-no-t"),
]


def _refuse_every_row(monkeypatch):
    for table in (identities.WICK, identities.STRUCTURE, identities.RATIONAL, identities.VI,
                  identities.VANDERMONDE, integrals.CHEN, integrals.DEBRUIJN, suite.IDENTITIES):
        for key, row in table.items():
            monkeypatch.setitem(table, key, row._replace(sides=_refuse))


@pytest.mark.parametrize("call,argv,message", _LIBRARY_MISTAKES)
def test_library_verifier_refuses_as_spfk_verify_does(capsys, monkeypatch, call, argv, message):
    _refuse_every_row(monkeypatch)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
    assert run(capsys, "verify", *argv) == (2, "", f"error: {message}\n")


def test_library_verifier_names_the_rows_own_flag_and_refuses_bad_parts(monkeypatch):
    sundquist = identities.verify_rational_identity("SUNDQUIST", 2)
    assert sundquist.params == {"m": 2}
    fam = integrals.default_family("GENERAL_DET", 2, 1, 42)
    assert integrals.verify_debruijn("GENERAL_DET", n=1, k=1, fam=fam).params == {"k": 1, "n": 1}
    _refuse_every_row(monkeypatch)
    with pytest.raises(ValueError, match="^unknown variant: NOPE$"):
        identities.verify_rational_identity("NOPE", 2)
    for parts in ([1.5, True], [1, True]):
        with pytest.raises(TypeError, match="^expected an integer, got (1.5|True)$"):
            identities.verify_VI(parts, N=3)


def test_verify_help_lists_exactly_each_rows_cli_flags(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    out = capsys.readouterr().out
    for identity, check in suite.IDENTITIES.items():
        line = re.search(rf"^  {identity} .*$", out, re.M).group(0)
        assert re.findall(r"--(\w+)", line) == list(check.flags), identity
    assert "fam" not in out


def _src_env() -> dict:
    """The environment for a child interpreter: this one's, with the
    repository's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_erratum_demo_script_runs():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "erratum_demo.py")],
                          capture_output=True, text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "coefficient 1/(2n-1)!!: equal=True" in lines
    assert "coefficient 1/(2n)!!: equal=False" in lines


def test_python_m_spfk_suite_prints_the_golden_report():
    proc = subprocess.run([sys.executable, "-m", "spfk", "suite", "--seed", "42", "--json"],
                          capture_output=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == GOLDEN.read_bytes()


def test_each_module_imports_first():
    # The package's __init__ imports nothing, so no entry point fixes the
    # import order: each module must import cleanly on its own.  One fresh
    # interpreter imports each module after dropping every cached spfk module.
    names = sorted(f"spfk.{path.stem}" for path in (ROOT / "src" / "spfk").glob("*.py"))
    code = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for key in [key for key in sys.modules if key.split('.')[0] == 'spfk']:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module(name)\n"
        "    print(name)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == names


def test_serial_commands_load_no_pool_and_no_dataclasses(tmp_path):
    # No command imports a process pool: `suite --jobs 2` forks its workers,
    # so neither the serial commands nor the forked run load one.  The
    # modules the site hook loads before the snapshot do not count.  The
    # forked run prints the serial bytes.
    path = tmp_path / "alt.json"
    path.write_text(json.dumps({"order": 2, "dim": 4, "entries": [
        {"idx": [1, 2], "num": "1", "den": "1"}, {"idx": [3, 4], "num": "2", "den": "3"}]}))
    code = (
        "import io, json, sys\n"
        "before = set(sys.modules)\n"
        "from spfk import cli\n"
        "def out(argv):\n"
        "    sys.stdout = io.TextIOWrapper(io.BytesIO())\n"
        "    code = cli.main(argv)\n"
        "    sys.stdout.flush()\n"
        "    data, sys.stdout = sys.stdout.buffer.getvalue(), sys.__stdout__\n"
        "    return code, data\n"
        "serial = [out(['verify', 'pfab', '--n', '1']), out(['pf', sys.argv[1]]),\n"
        "          out(['suite', '--max', 'size=1', '--json'])]\n"
        "loaded = sorted(set(sys.modules) - before)\n"
        "pooled = out(['suite', '--jobs', '2', '--max', 'size=1', '--json'])\n"
        "forked = sorted(set(sys.modules) - before)\n"
        "print(json.dumps({'codes': [c for c, _ in serial], 'pf': serial[1][1].decode(),\n"
        "                  'loaded': loaded, 'forked': forked, 'same': pooled == serial[2]}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["pf"] == "2/3\n"
    assert "spfk.suite" in result["loaded"]
    heavy = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect"}
    assert heavy.isdisjoint(result["loaded"])
    assert {"concurrent.futures", "multiprocessing"}.isdisjoint(result["forked"])
    assert result["same"]


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "argv",
    (("suite", "--seed", "42"), ("verify", "fhaff1", "--n", "2", "--coeff", "paper")),
    ids=("suite", "verify"),
)
def test_closed_stdout_pipe_exits_1_with_empty_stderr(argv, unbuffered):
    # `| head -1` closes the pipe after one line, and the next write fails
    # with EPIPE.  Whether a write comes after the close depends on how much
    # of the output the pipe buffer took first, so the read end is closed
    # before the command starts: every write then meets a closed pipe.
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "spfk", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.parametrize("identity", list(suite.IDENTITIES))
def test_verify_coeff_only_where_the_table_takes_it(capsys, identity):
    flags = suite.IDENTITIES[identity].flags
    case = _first_cases()[identity]
    params = {k: v for k, v in case.param_dict().items() if k != "coeff"}
    code, out, err = run(capsys, "verify", identity, *_flag_argv(params), "--coeff", "paper",
                         "--format", "json")
    if "coeff" in flags:
        assert code in (0, 1)
        assert json.loads(out)["params"]["coeff"] == "paper"
    else:
        assert code == 2
        assert err == f"error: {identity} does not read --coeff\n"


def test_coeff_column():
    takes = [i for i, row in suite.IDENTITIES.items() if "coeff" in row.flags]
    assert takes == ["fhaff1", "schur_hyper", "wigner_rank1", "debruijn_perm_product"]


def test_suite_emits_exactly_the_table_ids():
    assert {c.runner for c in suite.default_cases()} == set(suite.IDENTITIES)
    assert {e["id"] for e in json.loads(GOLDEN.read_bytes())} == set(suite.IDENTITIES)


def test_readme_id_list_is_the_table():
    readme = (ROOT / "README.md").read_text()
    listed = re.search(r"Identity ids: `([^`]*)`", readme).group(1).split()
    assert listed == list(suite.IDENTITIES)


def test_verify_help_names_every_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for identity, row in suite.IDENTITIES.items():
        ranges, caps = row.domain
        line = re.search(rf"^  {identity} .*$", out, re.M).group(0)
        for flag, (least, most, *parity) in ranges.items():
            bound = f"{flag} >= {least}" if most is None else f"{least} <= {flag} <= {most}"
            assert bound in line, (identity, bound)
            assert all(f"{flag} {p}" in line for p in parity), identity
        for measure, (_size_of, limit) in caps.items():
            assert limit is None or f"{measure} <= {limit}" in line, (identity, measure)


def test_suite_cap_selection_counts():
    cases = suite.default_cases()
    assert len(cases) == 226
    counts = [sum(suite._within_caps(c, {"size": s}) for c in cases) for s in (2, 3, 4)]
    assert counts == [82, 127, 187]
    erratum = [c for c in cases if c.runner == "schur_hyper" and not c.expect_equal]
    assert [c.caps for c in erratum] == [(("size", 4),)]
    # The cases each --max name keeps at 0, 1, 2, 3, 4, 6, 8 and 100: the
    # measures the domains return must select these and no others.
    pinned = {
        "2kn": [213, 213, 214, 214, 220, 223, 226, 226],
        "2mn": [205, 205, 207, 207, 215, 220, 226, 226],
        "2n": [213, 213, 217, 217, 222, 226, 226, 226],
        "Nn": [221, 221, 221, 221, 223, 223, 223, 226],
        "len": [161, 165, 178, 202, 226, 226, 226, 226],
        "n": [218, 218, 220, 222, 224, 226, 226, 226],
        "order": [209, 209, 214, 215, 220, 226, 226, 226],
        "size": [0, 28, 82, 127, 187, 216, 226, 226],
    }
    assert set(suite.CAP_NAMES) == set(pinned)
    for name, expected in pinned.items():
        kept = [sum(suite._within_caps(c, {name: v}) for c in cases)
                for v in (0, 1, 2, 3, 4, 6, 8, 100)]
        assert kept == expected, name


@pytest.mark.parametrize("name", ("2nm", "N", "pairs", "SIZE"))
def test_suite_unknown_max_cap_is_refused(capsys, monkeypatch, name):
    monkeypatch.setattr(suite, "run_case", _refuse)
    code, out, err = run(capsys, "suite", "--max", f"{name}=4")
    assert code == 2
    assert out == ""
    known = "size, 2n, n, 2kn, 2mn, len, Nn, order"
    assert err == f"error: unknown --max cap {name!r}; known caps: {known}\n"


def test_suite_known_max_caps_are_the_table_measures():
    measured = {m for row in suite.IDENTITIES.values() for m in row.domain[1]}
    assert set(suite.CAP_NAMES) == measured | {"size"}
    assert cli._parse_caps([f"{name}=3" for name in suite.CAP_NAMES]) == dict.fromkeys(
        suite.CAP_NAMES, 3
    )


# Every bound the table declares, one step outside: the id's first suite case
# with one value moved past the bound exits 2 with the bound's message before
# any row's sides are built.


def _refuse(*_args, **_kwargs):
    raise AssertionError("work ran before the domain check")


def _shown(value):
    return list(value) if isinstance(value, tuple) else value


def _grown(value, step):
    # One step up: a list flag gets one more element, an int flag `step` more.
    return value + value[:1] if isinstance(value, tuple) else value + step


def _past_the_cap(base, ranges, caps, measure):
    """The first params, growing one flag, whose `measure` passes its limit
    while the caps before it hold.  The flags are tried in the order the
    ranges declare them, one with a fixed bound only within it."""
    earlier = list(caps)[: list(caps).index(measure)]
    size_of, limit = caps[measure]
    bounded = lambda flag: ranges[flag][1] is not None and not isinstance(base[flag], tuple)
    for flag in ranges:
        _least, most, *parity = ranges[flag]
        if isinstance(most, str):
            continue
        params = dict(base)
        for _ in range(200):
            params[flag] = _grown(params[flag], 2 if parity else 1)
            if bounded(flag) and params[flag] > most:
                break
            if any(caps[e][0](params) > caps[e][1] for e in earlier):
                break
            if size_of(params) > limit:
                return params
    raise AssertionError(f"no flag reaches the {measure} cap")


# Fixed upper bounds whose one-step-outside case is listed after all the
# others, in this order: the cases are numbered by position (params<k>), so a
# bound added later goes last and leaves the numbers of the cases before it as
# they were.
_LISTED_LAST = (
    ("vandermonde", "N"),
    ("xipfashu", "k"),
    ("vandermonde", "m"),
    ("debruijn_general_det", "k"),
    ("debruijn_general_perm", "k"),
)


def _one_step_outside():
    cases, last = [], {}
    for identity, row in suite.IDENTITIES.items():
        name, (ranges, caps) = row.name, row.domain
        base = _first_cases()[identity].param_dict()
        moved = lambda flag, value: {**base, flag: value}
        for flag, (least, most, *parity) in ranges.items():
            below = (least - 1,) if isinstance(base[flag], tuple) else least - 1
            cases.append((identity, moved(flag, below),
                          f"{name} needs {flag} >= {least}, got {flag}={_shown(below)}"))
            if isinstance(most, str):
                above = base[most] + 1
                cases.append((identity, moved(flag, above), f"{name} needs {flag} <= {most}, "
                              f"got {flag}={above} > {most}={base[most]}"))
            elif most is not None:
                above = (most + 1,) if isinstance(base[flag], tuple) else most + 1
                case = (identity, moved(flag, above), f"size cap exceeded for {name}: "
                        f"{flag} <= {most}, got {flag}={_shown(above)}")
                if (identity, flag) in _LISTED_LAST:
                    last[identity, flag] = case
                else:
                    cases.append(case)
            if parity:
                wrong = base[flag] + 1
                cases.append((identity, moved(flag, wrong),
                              f"{name} needs {parity[0]} {flag}, got {flag}={wrong}"))
        for measure, (size_of, limit) in caps.items():
            if limit is not None:
                params = _past_the_cap(base, ranges, caps, measure)
                cases.append((identity, params, f"size cap exceeded for {name}: {measure} <= "
                              f"{limit}, got {measure}={size_of(params)}"))
    return cases + [last[key] for key in _LISTED_LAST]


@pytest.mark.parametrize("identity,params,message", _one_step_outside())
def test_verify_one_step_outside_each_declared_bound(capsys, monkeypatch, identity, params,
                                                     message):
    for key, row in suite.IDENTITIES.items():
        monkeypatch.setitem(suite.IDENTITIES, key, row._replace(sides=_refuse))
    code, out, err = run(capsys, "verify", identity, *_flag_argv(params))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_every_id_has_a_bound_one_step_outside():
    assert {identity for identity, _p, _m in _one_step_outside()} == set(suite.IDENTITIES)


def test_no_ranged_flag_defaults_to_none():
    # core.check_domain reads each ranged flag as a value: a None default
    # would reach it, as no given value or `...` can.
    for identity, row in suite.IDENTITIES.items():
        ranges, _caps = row.domain
        assert [flag for flag in ranges if row.flags[flag] is None] == [], identity


def _far_past():
    """Each ranged flag of each id at 10**11 (a list flag: one element), the
    id's other ranged flags at the least value their range and parity allow."""
    cases = []
    for identity, row in suite.IDENTITIES.items():
        ranges, _caps = row.domain
        least = {}
        for flag, (low, _most, *parity) in ranges.items():
            least[flag] = low + (bool(parity) and low % 2 != (parity[0] == "odd"))
        tuples = {flag for flag, value in _first_cases()[identity].param_dict().items()
                  if isinstance(value, tuple)}
        shaped = lambda flag, value: (value,) if flag in tuples else value
        for flag in ranges:
            params = {f: shaped(f, v) for f, v in {**least, flag: 10**11}.items()}
            cases.append(pytest.param(identity, params, id=f"{identity}-{flag}"))
    return cases


@pytest.mark.parametrize("identity,params", _far_past())
def test_verify_each_flag_far_past_its_range_ends_promptly(identity, params):
    out = io.StringIO()
    assert _fuzz_main(["verify", identity, *_flag_argv(params)], limit=5.0, out=out) == 2
    assert out.getvalue() == ""


def test_verify_completes_its_inputs_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[0])
        return complete(*args)

    complete = report.complete
    monkeypatch.setattr(report, "complete", counted)
    monkeypatch.setattr(suite, "complete", counted)
    code, _out, _err = run(capsys, "verify", "schur", "--n", "2")
    assert code == 0
    assert calls == ["schur"]


def test_run_check_refuses_points_on_a_row_without_sample_points(monkeypatch):
    _refuse_every_row(monkeypatch)
    with pytest.raises(ValueError, match="^pfab does not read --points$"):
        report.run_check(suite.IDENTITIES, "pfab", {"n": 2, "points": 10})


def test_pf_command(tmp_path, capsys):
    path = tmp_path / "pf2.json"
    path.write_text(json.dumps({"order": 2, "dim": 2,
                                "entries": [{"idx": [1, 2], "num": "1", "den": "1"}]}))
    code, out, _ = run(capsys, "pf", str(path))
    assert code == 0
    assert out.strip() == "1/1"


def test_hf_command_all_ones(tmp_path, capsys):
    entries = [{"idx": [i, j], "num": "1", "den": "1"} for i in range(1, 5) for j in range(i + 1, 5)]
    path = tmp_path / "hf4.json"
    path.write_text(json.dumps({"order": 2, "dim": 4, "entries": entries}))
    code, out, _ = run(capsys, "hf", str(path))
    assert code == 0
    assert out.strip() == "3/1"


def test_hpf_roundtrip(tmp_path, capsys):
    tensor = _random_alt(4321, 4, 8)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor_to_json(tensor)))
    code, out, _ = run(capsys, "hpf", str(path))
    assert code == 0
    value = hyperpfaffian(tensor)
    assert out.strip() == f"{value.numerator}/{value.denominator}"


@pytest.mark.parametrize(
    "command,kind,kernel",
    (("pf", "alt", "pfaffian"), ("hf", "sym", "hafnian"), ("hpf", "alt", "hyperpfaffian"),
     ("hhf", "sym", "hyperhafnian")),
)
def test_tensor_command_looks_its_kernel_up_when_it_runs(tmp_path, capsys, monkeypatch, command,
                                                         kind, kernel):
    # A kernel replaced after import (as the benchmark tracer does) is the one called.
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"order": 2, "dim": 2,
                                "entries": [{"idx": [1, 2], "num": "3", "den": "2"}]}))
    seen = []
    monkeypatch.setattr(tensors, kernel, lambda t: seen.append(type(t).__name__) or 7)
    code, out, err = run(capsys, command, str(path))
    assert (code, out, err) == (0, "7/1\n", "")
    assert seen == [{"alt": "AltTensor", "sym": "SymTensor"}[kind]]


def test_pf_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(capsys, "pf", str(path))
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("kind", ("pf", "hf", "hpf", "hhf"))
def test_tensor_json_duplicate_idx_exits_2(tmp_path, capsys, kind):
    # Two values at one idx are ambiguous: refused, not read last-wins.
    entry = {"idx": [1, 2], "num": "1", "den": "1"}
    obj = {"order": 2, "dim": 2, "entries": [entry, dict(entry, num="5")]}
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, kind, str(path))
    assert (code, out) == (2, "")
    assert err.strip() == "error: malformed tensor entry: duplicate idx [1, 2]"


def test_pf_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"order": 2, "dim": 3,
                                "entries": [{"idx": [1, 2], "num": "1", "den": "1"}]}))
    code, _, err = run(capsys, "pf", str(path))
    assert code == 2
    assert "even" in err


def test_pf_missing_file(capsys):
    code, _, err = run(capsys, "pf", "/nonexistent/file.json")
    assert code == 2


def test_suite_capped_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    code2, out2, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    entries = json.loads(out1)
    assert entries and all(e["equal"] == e["expect_equal"] for e in entries)
    ids = [e["id"] for e in entries]
    assert ids == sorted(ids)


def test_suite_capped_text(capsys):
    code, out, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2")
    assert code == 0
    assert "PASS" in out


def test_suite_max_2mn(capsys):
    code, out, _ = run(capsys, "suite", "--seed", "7", "--max", "2mn=6", "--max", "size=4", "--json")
    assert code == 0
    entries = json.loads(out)
    for e in entries:
        if e["id"] in ("composition", "sum", "minor", "det_decomp"):
            assert 2 * e["params"]["m"] * e["params"]["n"] <= 6


def test_suite_bad_max(capsys):
    code, _, err = run(capsys, "suite", "--max", "nonsense")
    assert code == 2
    assert "--max" in err


@pytest.mark.parametrize("argv", (
    ("--max", "size=0"),
    ("--max", "size=0", "--json"),
    ("--max", "size=0", "--max", "2mn=1", "--jobs", "2"),
))
def test_suite_refuses_caps_that_exclude_every_case(capsys, monkeypatch, argv):
    monkeypatch.setattr(suite, "run_case", _refuse)
    code, out, err = run(capsys, "suite", *argv)
    assert code == 2
    assert out == ""
    caps = " ".join(f"--max {argv[i + 1]}" for i, a in enumerate(argv) if a == "--max")
    assert err == f"error: no suite case is within the caps {caps}\n"


def test_suite_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "suite", "--seed", "7", "--max", "size=3", "--json")
    code2, out2, _ = run(capsys, "suite", "--seed", "7", "--max", "size=3", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_jobs2_prints_the_golden_report():
    # Two forked workers take the cases from one queue in whatever order they
    # get to them; the report's bytes do not depend on which worker ran which
    # case: the full matrix (226 cases) and a capped one (28) match the
    # serial run.
    results, ok = suite.run_suite(suite.SuiteConfig(seed=42, jobs=2))
    assert ok
    assert suite.suite_json_bytes(results) == GOLDEN.read_bytes()
    serial, _ = suite.run_suite(suite.SuiteConfig(seed=42, caps={"size": 1}))
    pooled, _ = suite.run_suite(suite.SuiteConfig(seed=42, jobs=2, caps={"size": 1}))
    assert suite.suite_json_bytes(pooled) == suite.suite_json_bytes(serial)


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("SPFK_SEED", "99")
    code, out, _ = run(capsys, "verify", "schur", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["seeds"] == [99]
    code, out, _ = run(capsys, "verify", "schur", "--n", "1", "--seed", "5", "--format", "json")
    assert json.loads(out)["seeds"] == [5]


class _Alarm(Exception):
    pass


def _raise_alarm(_signum, _frame):
    raise _Alarm


@contextlib.contextmanager
def _time_limit(argv, limit):
    """Fail, rather than hang, if the block outlives the limit."""
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    except _Alarm:
        pytest.fail(f"spfk {' '.join(argv)} still running after {limit} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timed_run(capsys, *argv, limit=10.0):
    """run() under _time_limit, with its elapsed time."""
    t0 = time.perf_counter()
    with _time_limit(argv, limit):
        result = run(capsys, *argv)
    return result, time.perf_counter() - t0


@pytest.mark.parametrize("kind", ("pf", "hf", "hpf", "hhf"))
def test_tensor_size_cap_fires_before_work(tmp_path, capsys, kind):
    dim = MAX_BLOCKED + 2
    dense = [{"idx": [i, j], "num": "1", "den": "1"}
             for i, j in itertools.combinations(range(1, dim + 1), 2)]
    files = {
        "dense.json": {"order": 2, "dim": dim, "entries": dense},
        "huge.json": {"order": 2, "dim": 10_000_000, "entries": []},
    }
    for name, obj in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        (code, _, err), elapsed = _timed_run(capsys, kind, str(path))
        assert code == 2, name
        assert "size cap" in err
        assert elapsed < 2.0, (name, elapsed)


@pytest.mark.parametrize(
    "obj",
    (
        {"order": True, "dim": 2, "entries": []},
        {"order": 2, "dim": True, "entries": []},
        {"order": 2, "dim": 2, "entries": [{"idx": [True, 2], "num": "1", "den": "1"}]},
        {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "num": True, "den": "1"}]},
        {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "num": "1", "den": True}]},
        {"order": 2, "dim": 2, "entries": [{"idx": [1.5, 2], "num": "1", "den": "1"}]},
        {"order": 2, "dim": 2, "entries": [{"idx": "12", "num": "1", "den": "1"}]},
        {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "num": 1e400, "den": "1"}]},
    ),
)
def test_tensor_json_non_integers_exit_2(tmp_path, capsys, obj):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "pf", str(path))
    assert code == 2
    assert "malformed" in err


# Strings int() reads but that are not -?[0-9]+: an underscore, surrounding
# spaces, a leading plus and a non-ASCII digit (ARABIC-INDIC DIGIT THREE).
@pytest.mark.parametrize("spelling", ("1_0", " 3 ", "+1", "\u0663"),
                         ids=("underscore", "spaces", "plus", "arabic-indic"))
@pytest.mark.parametrize("field", ("dim", "idx", "num", "den"))
def test_tensor_json_refuses_a_non_decimal_string_before_any_work(tmp_path, capsys, monkeypatch,
                                                                  field, spelling):
    monkeypatch.setattr(tensors, "pfaffian", lambda _M: pytest.fail("ran the kernel"))
    entry = {"idx": [1, 2], "num": "1", "den": "3"}
    obj = {"order": 2, "dim": "2", "entries": [entry]}
    if field == "dim":
        obj["dim"] = spelling
    elif field == "idx":
        entry["idx"] = [spelling, 2]
    else:
        entry[field] = spelling
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pf", str(path))
    where = "tensor JSON" if field == "dim" else "tensor entry"
    message = f"error: malformed {where}: expected a decimal string, got {spelling!r}"
    assert (code, out, err.strip()) == (2, "", message)


def test_env_seed_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SPFK_SEED", "abc")
    code, _, err = run(capsys, "suite", "--max", "size=2")
    assert code == 2
    assert "error: SPFK_SEED must be an integer" in err
    # An explicit --seed does not read the environment.
    code, out, _ = run(capsys, "verify", "schur", "--n", "1", "--seed", "5", "--format", "json")
    assert code == 0 and json.loads(out)["seeds"] == [5]


# Every path that reads an integer from outside: (the argv before the value,
# the value around the bad spelling, the one error line, a single value?).
# Spaces are refused around a single value and taken around a list piece or
# either side of --max NAME=VALUE; SPFK_SEED (value None) is a single value.
_INTEGER_PATHS = {
    **{
        f"verify-{flag}": (["verify", "pfab", flag], "{}",
                           f"spfk verify: error: argument {flag}: invalid integer value: {{!r}}", True)
        for flag in ("--n", "--m", "--k", "--t", "--N", "--pairs", "--seed")
    },
    **{
        f"suite-{flag}": (["suite", flag], "{}",
                          f"spfk suite: error: argument {flag}: invalid integer value: {{!r}}", True)
        for flag in ("--seed", "--jobs")
    },
    "parts-piece": (["verify", "vi", "--parts"], "1,{}",
                    "spfk verify: error: argument --parts: bad --parts value: {!r}", False),
    "y-numerator": (["verify", "vandermonde", "--y"], "{}/2",
                    "spfk verify: error: argument --y: bad rational value: {!r}", False),
    "y-denominator": (["verify", "vandermonde", "--y"], "1/{}",
                      "spfk verify: error: argument --y: bad rational value: {!r}", False),
    "max-value": (["suite", "--max"], "size={}", "error: bad --max value: {!r}", False),
    "SPFK_SEED-verify": (["verify", "pfab", "--n", "2"], None,
                         "error: SPFK_SEED must be an integer", True),
    "SPFK_SEED-suite": (["suite"], None, "error: SPFK_SEED must be an integer", True),
}
_BAD_SPELLINGS = {"underscore": "1_0", "plus": "+1", "arabic-indic": "\u0663", "spaces": " 3 "}


def _bad_integer_cases():
    for path, (argv, value, message, single) in _INTEGER_PATHS.items():
        for name, spelling in _BAD_SPELLINGS.items():
            if single or name != "spaces":
                yield pytest.param(argv, value, message, spelling, id=f"{path}-{name}")


@pytest.mark.parametrize("argv,value,message,spelling", _bad_integer_cases())
def test_each_outside_integer_path_refuses_each_bad_spelling(capsys, monkeypatch, argv, value,
                                                             message, spelling):
    for key, row in suite.IDENTITIES.items():
        monkeypatch.setitem(suite.IDENTITIES, key, row._replace(sides=_refuse))
    monkeypatch.setattr(suite, "run_case", _refuse)
    if value is None:
        monkeypatch.setenv("SPFK_SEED", spelling)
    else:
        monkeypatch.delenv("SPFK_SEED", raising=False)
        argv = [*argv, value.format(spelling)]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if "error" in line] == [message.format(argv[-1])]


@pytest.mark.parametrize(
    "argv,values",
    (
        (["verify", "vi", "--format=json", "--parts"], ("1,2", " 1 , 2 ")),
        (["verify", "vandermonde", "--format=json", "--N", "2", "--n", "2", "--m", "1", "--y"],
         ("1,5/2", "1, 5 / 2 ")),
        (["suite", "--json", "--max"], ("size=1", " size = 1 ")),
    ),
    ids=("parts", "y", "max"),
)
def test_spaces_around_a_separator_give_the_same_run(capsys, argv, values):
    plain, padded = values
    code, out, _ = run(capsys, *argv, plain)
    assert code == 0 and out
    assert run(capsys, *argv, padded)[:2] == (code, out)


@pytest.mark.parametrize("jobs", ("0", "-3"))
def test_suite_jobs_below_one(capsys, jobs):
    code, _, err = run(capsys, "suite", "--max", "size=2", "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err


@pytest.fixture
def forks(monkeypatch):
    """The pids that ``os.fork`` returns to the parent while the test runs:
    the real ``os.fork``, counted."""
    pids = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_suite_jobs_clamped_to_cpu_count(capsys, monkeypatch, forks):
    code0, serial, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    assert forks == []
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    code1, pooled, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "64", "--json")
    assert len(forks) == 3
    _assert_no_child()
    monkeypatch.setattr("os.cpu_count", lambda: None)
    code2, single, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "64", "--json")
    assert len(forks) == 3
    assert code0 == code1 == code2 == 0
    assert serial == pooled == single


def test_suite_without_fork_runs_serially(capsys, monkeypatch):
    code0, serial, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    code1, pooled, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "2", "--json")
    assert code0 == code1 == 0
    assert serial == pooled


def _exit_3(case, config):
    os._exit(3)


def test_suite_broken_pool_is_one_error_line(capsys, monkeypatch, forks):
    # Each real worker dies at its first case, before it reports.
    monkeypatch.setattr(suite, "run_case", _exit_3)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    code, out, err = run(capsys, "suite", "--jobs", "2", "--json")
    assert len(forks) == 2
    assert code == 1
    assert out == ""
    assert err == ("error: worker pool failed: "
                   "a worker ended (exit status 3) without its full report\n")
    _assert_no_child()


def test_suite_kills_the_live_workers_when_one_dies(capsys, monkeypatch, forks):
    # The first worker dies at once; the second would run for a minute, so
    # the command ends promptly only if it is killed.
    def first_dies(case, config):
        if not forks:  # the first worker forked before its pid was counted
            os._exit(3)
        time.sleep(60)

    monkeypatch.setattr(suite, "run_case", first_dies)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    start = time.monotonic()
    code, out, err = run(capsys, "suite", "--jobs", "2", "--json")
    assert time.monotonic() - start < 30
    assert (code, out) == (1, "")
    assert err.startswith("error: worker pool failed: ")
    _assert_no_child()


@pytest.mark.parametrize(
    "refused",
    (lambda case: case.runner == "sdb2", lambda case: True, lambda case: case.runner.startswith("debruijn_")),
    ids=("some", "every", "one_late"),
)
def test_suite_case_error_is_the_serial_error(capsys, monkeypatch, forks, refused):
    # The forked run raises the error of the lowest-numbered case that
    # raised one, which is the first the serial run meets.
    def run_case(case, config):
        if refused(case):
            raise ValueError(f"refused {case.runner} {case.params}")
        return real(case, config)

    real = suite.run_case
    monkeypatch.setattr(suite, "run_case", run_case)
    serial = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    pooled = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "2", "--json")
    assert len(forks) == 2
    assert serial == pooled
    assert serial[:2] == (2, "") and serial[2].startswith("error: refused ")
    _assert_no_child()


@pytest.mark.parametrize(
    "record",
    (
        suite.make_case("fhaff1", {"n": 2, "coeff": "paper"}, expect_equal=False),
        suite.SuiteConfig(seed=7, paranoid=True, jobs=2, caps={"size": 1}),
        report.run_check(suite.IDENTITIES, "fhaff1", {"n": 2, "coeff": "paper"}),
        integrals.MonomialFamily(phi=(2, 3), psi=(5,), grid=((7,), (11,))),
        tensors.DenseMatrix.from_rows([[1, 2], [3, 4]]),
    ),
    ids=("case", "config", "report", "family", "matrix"),
)
def test_records_sent_between_processes_pickle_back_equal(record):
    # `--jobs` sends cases and the config to the workers and reports back.
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize(
    "argv,message",
    (
        (("composition", "--m", "0", "--n", "2"), "COMPOSITION needs m >= 1, got m=0"),
        (("sum", "--m", "-1", "--n", "-1"), "SUM needs m >= 1, got m=-1"),
        (("det_decomp", "--m", "1", "--n", "0"), "DET_DECOMP needs n >= 1, got n=0"),
        (("minor", "--m", "1", "--n", "0", "--t", "1"), "MINOR needs n >= 1, got n=0"),
        (("vandermonde", "--N", "0", "--n", "1", "--m", "1"), "VANDERMONDE needs N >= 1, got N=0"),
        (("vandermonde", "--N", "2", "--n", "-1", "--m", "1"), "VANDERMONDE needs n >= 0, got n=-1"),
        (("vandermonde", "--N", "2", "--n", "1", "--m", "0"), "VANDERMONDE needs m >= 1, got m=0"),
        (("xipfashu", "--k", "-1", "--n", "-1"), "XIPFASHU needs n >= 0, got n=-1"),
        (("xipfashu", "--k", "0", "--n", "1"), "XIPFASHU needs k >= 1, got k=0"),
        (("sdb2", "--n", "-1"), "SDB2 needs n >= 0, got n=-1"),
        (("odd_even", "--n", "-2"), "ODD_EVEN needs n >= 0, got n=-2"),
        (("mehta1", "--n", "0"), "MEHTA1 needs n >= 1, got n=0"),
        (("mehta2", "--n", "3"), "MEHTA2 needs even n, got n=3"),
        (("schur", "--n", "-1"), "SCHUR needs n >= 1, got n=-1"),
        (("vi", "--parts", "0,1"), "VI needs parts >= 1, got parts=[0, 1]"),
        # With n = 0 the Nn cap reads 1 whatever N is: N has its own bound.
        (("vandermonde", "--N", str(10**41), "--n", "0", "--m", "1"),
         f"size cap exceeded for VANDERMONDE: N <= 200, got N={10**41}"),
    ),
)
def test_verify_size_below_minimum_names_the_identity_and_flag(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    (
        ("pfab", "--n", "0"),
        ("fhaff2", "--n", "0"),
        ("antishuffle", "--n", "0"),
        ("xipfashu", "--k", "1", "--n", "0"),
        ("xipfashu", "--k", "2", "--n", "0"),
        ("vandermonde", "--N", "2", "--n", "0", "--m", "1"),
    ),
)
def test_verify_empty_sizes_stay_equal(capsys, argv):
    code, out, _ = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize(
    "argv",
    (
        # N**n would have thousands of digits: the case is refused before
        # the power is taken, in building the case and in the verifier.
        ("vandermonde", "--N", "2", "--n", str(10**20), "--m", "1"),
        ("vandermonde", "--N", "2", "--n", str(10**20), "--m", "-1"),
        ("chen", "--pairs", str(10**9)),
    ),
)
def test_verify_huge_sizes_are_refused_at_once(capsys, argv):
    (code, out, err), elapsed = _timed_run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert elapsed < 2.0


_SAMPLED_IDS = {
    "schur", "schur_hyper", "sundquist", "mehta1", "mehta2", "sum1", "hafsym",
    "wigner_rank1", "arq", "vi",
}


@pytest.mark.parametrize("identity", list(suite.IDENTITIES))
def test_verify_paranoid_only_where_the_check_samples_points(capsys, identity):
    case = _first_cases()[identity]
    code, out, err = run(capsys, "verify", identity, *_flag_argv(case.param_dict()),
                         "--paranoid", "--format", "json")
    if identity in _SAMPLED_IDS:
        assert code == (0 if case.expect_equal else 1)
        assert json.loads(out)["lhs_terms"] == 10  # one value per sample point
    else:
        assert code == 2
        assert out == ""
        assert err == f"error: {identity} does not read --paranoid\n"


def test_paranoid_ids_are_the_table_rows_with_sample_points():
    assert {i for i, row in suite.IDENTITIES.items() if "points" in row.inputs} == _SAMPLED_IDS


@pytest.mark.parametrize(
    "content",
    (
        b'{"order": 2, "dim": \xff}',  # not UTF-8
        b'{"order": 2, "dim": ' + b"9" * 5000 + b', "entries": []}',  # past the int-digit limit
    ),
)
def test_tensor_file_that_does_not_decode_exits_2(tmp_path, capsys, content):
    path = tmp_path / "t.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "pf", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed JSON")


# Fuzz: generated tensor JSON and verify flags through main() in-process.
# Every input ends with exit 0, 1 or 2, with no exception escaping main and
# within the time limit.

_odd_values = st.one_of(
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.none(),
    st.sampled_from((10**7, 10**30, -(10**30))),
)


@st.composite
def _tensor_command(draw):
    """A kernel and a tensor document for it: two times in three a
    well-formed tensor of any size class, else one with a single field, entry
    or the whole document replaced by a value of the wrong kind."""
    kind = draw(st.sampled_from(("pf", "hf", "hpf", "hhf")))
    order = 2 if kind in ("pf", "hf") else draw(st.integers(1, 4))
    dim = draw(st.one_of(st.integers(0, 24 // order).map(lambda b: b * order),
                         st.integers(0, 24), st.sampled_from((10**7, 10**30))))
    entries = [
        {
            "idx": draw(st.lists(st.integers(1, min(dim, 30)), min_size=order,
                                 max_size=order, unique=True).map(sorted)),
            "num": draw(st.one_of(st.integers(-(10**40), 10**40), st.integers(-9, 9).map(str))),
            "den": draw(st.one_of(st.integers(1, 9), st.integers(1, 9).map(str))),
        }
        for _ in range(draw(st.integers(0, 8) if dim >= order else st.just(0)))
    ]
    obj = {"order": order, "dim": dim, "entries": entries}
    spoil = draw(st.integers(0, 8))
    if spoil == 0:
        obj = draw(st.one_of(_odd_values, st.lists(st.integers(), max_size=3)))
    elif spoil == 1:
        obj[draw(st.sampled_from(("order", "dim", "entries")))] = draw(
            st.one_of(_odd_values, st.integers(-2, 30)))
    elif spoil == 2 and entries:
        entry = draw(st.sampled_from(entries))
        entry[draw(st.sampled_from(("idx", "num", "den")))] = draw(
            st.one_of(_odd_values, st.lists(st.integers(-1, 25), max_size=6), st.just(0)))
    return kind, obj


# Sizes around the caps and far past them.  Valid sizes stop at 3, so that
# the examples that pass every check stay cheap.
_size_text = st.one_of(
    st.integers(1, 3), st.integers(-2, 3), st.sampled_from((9, 50, 10**20, -(10**20)))
).map(str)
_flag_text = {
    "parts": st.lists(st.integers(-1, 5), min_size=0, max_size=5).map(
        lambda ps: ",".join(map(str, ps))
    ) | st.sampled_from(("", "1,a", "1,,2")),
    "y": st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=9), max_size=4).map(
        lambda ys: ",".join(str(y) for y in ys)
    ) | st.sampled_from(("", "1/0", "x")),
    "coeff": st.sampled_from(("corrected", "paper", "neither")),
}


@st.composite
def _verify_argv(draw):
    identity = draw(st.sampled_from([*suite.IDENTITIES, "nope"]))
    flags = suite.IDENTITIES[identity].flags if identity in suite.IDENTITIES else {"n": ...}
    # Mostly the id's own flags, sometimes one missing or one it does not read.
    names = [name for name in flags if draw(st.integers(0, 7))]
    if draw(st.integers(0, 4)) == 0:
        names.append(draw(st.sampled_from(["n", "m", "k", "t", "N", "pairs", "coeff"])))
    argv = ["verify", identity]
    for name in names:
        argv += [f"--{name}", draw(_flag_text.get(name, _size_text))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    if draw(st.integers(0, 3)) == 0:
        argv.append("--paranoid")
    return argv + ["--format", draw(st.sampled_from(("json", "text")))]


def _fuzz_main(argv, limit=10.0, out=None):
    """The exit code of main(argv), its output captured (stdout into ``out``
    when given), under _time_limit."""
    err = io.StringIO()
    with _time_limit(argv, limit), contextlib.redirect_stdout(out or io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=_tensor_command())
def test_fuzz_tensor_json(tmp_path_factory, command):
    kind, obj = command
    path = tmp_path_factory.getbasetemp() / "fuzz_tensor.json"
    path.write_text(json.dumps(obj))
    assert _fuzz_main([kind, str(path)]) in (0, 2)


def _in_domain(draw, identity):
    """Flag values inside the id's table domain.  An int stays within two of
    its minimum, so that an example costs no more than a suite case."""
    row = suite.IDENTITIES[identity]
    flags, (ranges, caps) = row.flags, row.domain
    base = _first_cases()[identity].param_dict()
    params = {}
    for flag, (least, most, *parity) in ranges.items():
        top = params[most] if isinstance(most, str) else least + 2 if most is None else min(
            most, least + 2)
        values = st.sampled_from(
            [v for v in range(least, top + 1) if not parity or v % 2 == (parity[0] == "odd")])
        if isinstance(base[flag], tuple):
            values = st.lists(values, min_size=1, max_size=4).map(tuple)
        params[flag] = draw(values)
    assume(all(limit is None or size_of(params) <= limit for size_of, limit in caps.values()))
    if "coeff" in flags:
        params["coeff"] = draw(st.sampled_from(("corrected", "paper")))
    if "y" in flags and draw(st.booleans()):
        ys = st.fractions(min_value=-5, max_value=5, max_denominator=9)
        params["y"] = tuple(draw(st.lists(ys, min_size=params["N"], max_size=params["N"])))
    # A flag with a default may be left to it.
    return {k: v for k, v in params.items() if flags[k] is ... or draw(st.integers(0, 3))}


def _out_of_domain(draw, identity):
    """In-domain values with one ranged flag moved past one of its bounds."""
    ranges, _caps = suite.IDENTITIES[identity].domain
    params = _in_domain(draw, identity)
    full = {**_first_cases()[identity].param_dict(), **params}
    flag = draw(st.sampled_from(list(ranges)))
    least, most, *parity = ranges[flag]
    past = [least - draw(st.integers(1, 3))]
    if isinstance(most, str):
        past.append(full[most] + 1)
    elif most is not None:
        past.append(most + draw(st.integers(1, 3)))
    if parity:
        past.append(full[flag] + 1)
    value = draw(st.sampled_from(past))
    if isinstance(full[flag], tuple):  # one element out of range
        value = full[flag][1:] + (value,)
    return {**params, flag: value}


@st.composite
def _table_argv(draw, inside):
    identity = draw(st.sampled_from(list(suite.IDENTITIES)))
    params = (_in_domain if inside else _out_of_domain)(draw, identity)
    argv = ["verify", identity, *_flag_argv(params)]
    if "points" in suite.IDENTITIES[identity].inputs and draw(st.booleans()):
        argv.append("--paranoid")
    return argv + ["--format", draw(st.sampled_from(("json", "text")))]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=st.one_of(
    _verify_argv().map(lambda argv: (argv, (0, 1, 2))),
    _table_argv(inside=True).map(lambda argv: (argv, (0, 1))),
    _table_argv(inside=False).map(lambda argv: (argv, (2,))),
))
def test_fuzz_verify_flags(case):
    argv, codes = case
    assert _fuzz_main(argv) in codes, argv
