import itertools
import json
import pathlib
import re
import signal
import time

import pytest

from spfk import suite
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
    assert err == f"error: chen needs pairs >= 1, got {pairs}\n"


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
        (("debruijn_general_det", "--k", "-1", "--n", "-1"), "need k >= 1 and n >= 0"),
        (("debruijn_odd", "--n", "-1"), "ODD needs n >= 0, got n=-1"),
    ),
)
def test_verify_debruijn_negative_params_exit_2(capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert message in err


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
            argv += [f"--{name}", text]
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
    for identity in suite.IDENTITIES:
        assert re.search(rf"^  {identity} ", out, re.M), identity


def test_suite_cap_selection_counts():
    cases = suite.default_cases()
    assert len(cases) == 226
    counts = [sum(suite._within_caps(c, {"size": s}) for c in cases) for s in (2, 3, 4)]
    assert counts == [82, 127, 187]
    erratum = [c for c in cases if c.runner == "schur_hyper" and not c.expect_equal]
    assert [c.caps for c in erratum] == [(("size", 4),)]


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


def _timed_run(capsys, *argv, limit=10.0):
    """run() that fails, rather than hangs, if the command outlives the limit."""
    previous = signal.signal(signal.SIGALRM, _raise_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        result = run(capsys, *argv)
    except _Alarm:
        pytest.fail(f"spfk {' '.join(argv)} still running after {limit} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
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
