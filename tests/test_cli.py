import contextlib
import io
import itertools
import json
import pathlib
import re
import signal
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from spfk import cli, integrals, suite
from spfk.cli import main
from spfk.tensors import MAX_BLOCKED, hyperpfaffian, tensor_to_json
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

GOLDEN = pathlib.Path(__file__).parent / "golden" / "suite_seed42.json"


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


@pytest.mark.parametrize("identity", list(suite.IDENTITIES))
def test_verify_coeff_only_where_the_table_takes_it(capsys, identity):
    flags = suite.IDENTITIES[identity][2]
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
    takes = [i for i, (_r, _v, flags, _c) in suite.IDENTITIES.items() if "coeff" in flags]
    assert takes == ["fhaff1", "schur_hyper", "wigner_rank1", "debruijn_perm_product"]


def test_suite_emits_exactly_the_table_ids():
    assert {c.runner for c in suite.default_cases()} == set(suite.IDENTITIES)
    assert {e["id"] for e in json.loads(GOLDEN.read_bytes())} == set(suite.IDENTITIES)


def test_readme_id_list_is_the_table():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    listed = re.search(r"Identity ids: `([^`]*)`", readme).group(1).split()
    assert listed == list(suite.IDENTITIES)


def test_verify_help_names_every_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for identity, (*_, (ranges, caps)) in suite.IDENTITIES.items():
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
    measured = {m for *_, (_ranges, caps) in suite.IDENTITIES.values() for m in caps}
    assert set(suite.CAP_NAMES) == measured | {"size"}
    assert cli._parse_caps([f"{name}=3" for name in suite.CAP_NAMES]) == dict.fromkeys(
        suite.CAP_NAMES, 3
    )


# Every bound the table declares, one step outside: the id's first suite case
# with one value moved past the bound exits 2 with the bound's message before
# any verifier runs.

_VERIFIERS = (
    "verify_shuffle_wick", "verify_hyperpf_structure", "verify_rational_identity", "verify_VI",
    "verify_vandermonde_average", "verify_chen_batch", "verify_debruijn",
)


def _refuse(*_args, **_kwargs):
    raise AssertionError("work ran before the domain check")


def _shown(value):
    return list(value) if isinstance(value, tuple) else value


def _grown(value, step):
    # One step up: a list flag gets one more element, an int flag `step` more.
    return value + value[:1] if isinstance(value, tuple) else value + step


def _past_the_cap(base, ranges, caps, measure):
    """The first params, growing one flag the ranges leave unbounded above,
    whose `measure` passes its limit while the caps before it hold."""
    earlier = list(caps)[: list(caps).index(measure)]
    size_of, limit = caps[measure]
    for flag, (_least, most, *parity) in ranges.items():
        if most is not None and not isinstance(base[flag], tuple):
            continue
        params = dict(base)
        for _ in range(200):
            params[flag] = _grown(params[flag], 2 if parity else 1)
            if any(caps[e][0](params) > caps[e][1] for e in earlier):
                break
            if size_of(params) > limit:
                return params
    raise AssertionError(f"no flag reaches the {measure} cap")


def _one_step_outside():
    cases = []
    for identity, (_runner, name, _flags, (ranges, caps)) in suite.IDENTITIES.items():
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
                cases.append((identity, moved(flag, above), f"size cap exceeded for {name}: "
                              f"{flag} <= {most}, got {flag}={_shown(above)}"))
            if parity:
                wrong = base[flag] + 1
                cases.append((identity, moved(flag, wrong),
                              f"{name} needs {parity[0]} {flag}, got {flag}={wrong}"))
        for measure, (size_of, limit) in caps.items():
            if limit is not None:
                params = _past_the_cap(base, ranges, caps, measure)
                cases.append((identity, params, f"size cap exceeded for {name}: {measure} <= "
                              f"{limit}, got {measure}={size_of(params)}"))
    return cases


@pytest.mark.parametrize("identity,params,message", _one_step_outside())
def test_verify_one_step_outside_each_declared_bound(capsys, monkeypatch, identity, params,
                                                     message):
    for name in _VERIFIERS:
        monkeypatch.setattr(suite, name, _refuse)
    code, out, err = run(capsys, "verify", identity, *_flag_argv(params))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_every_id_has_a_bound_one_step_outside():
    assert {identity for identity, _p, _m in _one_step_outside()} == set(suite.IDENTITIES)


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


def test_pf_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, _, err = run(capsys, "pf", str(path))
    assert code == 2
    assert "malformed JSON" in err


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


def test_suite_parallel_matches_serial(capsys):
    code1, out1, _ = run(capsys, "suite", "--seed", "7", "--max", "size=3", "--json")
    code2, out2, _ = run(capsys, "suite", "--seed", "7", "--max", "size=3", "--jobs", "2", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_env_seed_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SPFK_SEED", "abc")
    code, _, err = run(capsys, "suite", "--max", "size=2")
    assert code == 2
    assert "error: SPFK_SEED must be an integer" in err
    # An explicit --seed does not read the environment.
    code, out, _ = run(capsys, "verify", "schur", "--n", "1", "--seed", "5", "--format", "json")
    assert code == 0 and json.loads(out)["seeds"] == [5]


@pytest.mark.parametrize("jobs", ("0", "-3"))
def test_suite_jobs_below_one(capsys, jobs):
    code, _, err = run(capsys, "suite", "--max", "size=2", "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_suite_jobs_clamped_to_cpu_count(capsys, monkeypatch):
    monkeypatch.setattr(suite, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "created", [])
    code0, serial, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--json")
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    code1, pooled, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "64", "--json")
    assert _SerialPool.created == [3]
    monkeypatch.setattr("os.cpu_count", lambda: None)
    code2, single, _ = run(capsys, "suite", "--seed", "7", "--max", "size=2", "--jobs", "64", "--json")
    assert _SerialPool.created == [3]
    assert code0 == code1 == code2 == 0
    assert serial == pooled == single


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
    assert {i for i in suite.IDENTITIES if suite.takes_points(i)} == _SAMPLED_IDS


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
    flags = suite.IDENTITIES[identity][2] if identity in suite.IDENTITIES else {"n": ...}
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


def _fuzz_main(argv, limit=10.0):
    """The exit code of main(argv), its output captured, under _time_limit."""
    err = io.StringIO()
    with _time_limit(argv, limit), contextlib.redirect_stdout(io.StringIO()), \
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
    _runner, _name, flags, (ranges, caps) = suite.IDENTITIES[identity]
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
    _runner, _name, _flags, (ranges, _caps) = suite.IDENTITIES[identity]
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
    if suite.takes_points(identity) and draw(st.booleans()):
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
