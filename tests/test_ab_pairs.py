import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _run(wall, rss, correct=True, failed=0, attempted=162):
    # The last-line JSON of one perfbench run, cut to what the summary reads.
    metrics = {
        "wall_ref_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


_PAIRS = [
    (_run(1.0, 25.0), _run(0.3, 25.0)),
    (_run(1.2, 24.0), _run(0.4, 25.5)),
    (_run(1.1, 26.0), _run(1.3, 24.5, failed=1, attempted=163)),
    (_run(0.9, 25.0), _run(0.2, 24.0)),
]


def test_summarize_gives_medians_quartiles_and_lower_pairs():
    summary = ab_pairs.summarize(_PAIRS)
    wall = summary["wall_ref_s"]
    assert wall["parent_median"] == 1.05 and wall["change_median"] == 0.35
    assert wall["parent_q1_q3"] == [0.975, 1.125]  # inclusive quartiles of 0.9, 1.0, 1.1, 1.2
    assert wall["parent_min_max"] == [0.9, 1.2] and wall["change_min_max"] == [0.2, 1.3]
    assert wall["change_lower_in_pairs"] == 3
    assert wall["ratio"] == round(0.35 / 1.05, 4)
    assert wall["pairs"] == [[1.0, 0.3], [1.2, 0.4], [1.1, 1.3], [0.9, 0.2]]
    rss = summary["peak_rss_mb"]
    assert rss["change_lower_in_pairs"] == 2  # a tie counts for neither side
    assert summary["operations_failed"] == {
        "parent": 0, "change": 1, "attempted_per_run": [162, 163]
    }
    text = ab_pairs.format_summary("tensor_qq", summary)
    assert text.splitlines()[0] == "== tensor_qq: 4 pairs"
    line = "wall_ref_s     parent 1.0500 (q1-q3 0.9750-1.1250) -> change 0.3500, lower in 3/4"
    assert line in text


def test_summarize_one_pair_has_degenerate_quartiles():
    summary = ab_pairs.summarize(_PAIRS[:1])
    assert summary["wall_ref_s"]["parent_q1_q3"] == [1.0, 1.0]


@pytest.mark.parametrize("text, seeds", [("1801-1803", [1801, 1802, 1803]), ("7", [7])])
def test_parse_seeds(text, seeds):
    assert ab_pairs.parse_seeds(text) == seeds


def test_parse_seeds_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty seed range"):
        ab_pairs.parse_seeds("5-4")


def test_main_alternates_sides_and_writes_the_bench_file(monkeypatch, tmp_path, capsys):
    calls = []
    canned = iter(_PAIRS)
    pair = {}

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        if not pair:
            pair.update(zip(("parent", "change"), next(canned)))
        return pair.pop(checkout)

    monkeypatch.setattr(ab_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"change": "kept", "workloads": {"wick": {"kept": 1}}}))
    argv = ["--parent", "parent", "--change", "change", "--workload", "tensor_qq"]
    assert ab_pairs.main(argv + ["--seeds", "11-14", "--seconds", "5", "--out", str(out)]) == 0
    assert calls == [
        ("parent", 11), ("change", 11), ("change", 12), ("parent", 12),
        ("parent", 13), ("change", 13), ("change", 14), ("parent", 14),
    ]
    bench = json.loads(out.read_text())
    assert bench["change"] == "kept" and bench["workloads"]["wick"] == {"kept": 1}
    assert bench["pairs"] == {"tensor_qq": 4} and bench["seeds"] == {"tensor_qq": [11, 12, 13, 14]}
    assert bench["workloads"]["tensor_qq"] == ab_pairs.summarize(_PAIRS)
    assert "lower in 3/4" in capsys.readouterr().out


@pytest.mark.parametrize("change", [_run(0.3, 25.0, correct=False, failed=1), None])
def test_main_exits_1_when_a_run_is_not_correct_or_gives_no_result(monkeypatch, change):
    results = iter([_run(1.0, 25.0), change])
    monkeypatch.setattr(ab_pairs, "run_once", lambda *_: next(results))
    argv = ["--parent", "p", "--change", "c", "--workload", "tensor_qq", "--seeds", "1"]
    assert ab_pairs.main(argv) == 1


def test_summarize_reports_each_bound_from_the_spec(tmp_path):
    # A fake spec: wall_ref_s may rise 20 %, peak_rss_mb only 1 %.
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": [
        {"name": "wall_ref_s", "unit": "s", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.01},
    ]}))
    bounds = ab_pairs.read_bounds(spec)
    assert bounds == {"wall_ref_s": 0.2, "peak_rss_mb": 0.01}
    pairs = [(_run(1.0, 25.0), _run(1.1, 25.5)), (_run(1.0, 25.0), _run(1.15, 25.5))]
    summary = ab_pairs.summarize(pairs, bounds)
    assert summary["wall_ref_s"]["bound"] == 0.2
    assert summary["wall_ref_s"]["within_bound"] is True  # 1.125 <= 1.0 * 1.2
    assert summary["peak_rss_mb"]["within_bound"] is False  # 25.5 > 25.0 * 1.01
    text = ab_pairs.format_summary("suite", summary)
    assert "lower in 0/2, ratio 1.1250 within bound +0.2" in text
    assert "lower in 0/2, ratio 1.0200 OVER bound +0.01" in text
    assert "within_bound" not in ab_pairs.summarize(pairs, {})["wall_ref_s"]


def test_the_repo_spec_bounds_every_end_to_end_metric():
    assert set(ab_pairs.read_bounds()) == {"wall_ref_s", "cpu_ref_s", "setup_s", "peak_rss_mb"}
