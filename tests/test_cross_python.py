"""scripts/cross_python.py checks the pinned outputs on each interpreter it is
given; here it runs on this one, so the script and its pins stay tested."""
import importlib.util
import pathlib
import subprocess
import sys

from test_identities import PARANOID_SHA256, WICK_PINNED

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "cross_python.py"
_SPEC = importlib.util.spec_from_file_location("cross_python", _PATH)
cross_python = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cross_python)


def test_this_interpreter_gives_every_pinned_output():
    proc = subprocess.run([sys.executable, str(_PATH), sys.executable], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 9
    assert all(line.startswith(sys.executable) and line.endswith(": ok") for line in lines)


def test_the_paranoid_pin_is_tier1s():
    assert cross_python.PARANOID_SHA256 == PARANOID_SHA256


def test_the_sdb2_pin_is_tier1s():
    (pinned,) = [row[3] for row in WICK_PINNED if row[:2] == ("SDB2", 4)]
    assert cross_python.SDB2_SHA256 == pinned


def test_a_difference_or_a_missing_interpreter_exits_1(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(cross_python, "_run", lambda python, args: b"0/1\n")
    assert cross_python.main(["python-x"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(line.endswith(": DIFF") for line in lines)
    monkeypatch.undo()
    assert cross_python.main([str(tmp_path / "no-python")]) == 1
    assert "cannot run" in capsys.readouterr().out
