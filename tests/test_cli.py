import itertools
import json
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
