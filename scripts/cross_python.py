#!/usr/bin/env python3
"""The pinned outputs of ``spfk``, checked on each interpreter given.

    python3 scripts/cross_python.py PYTHON [PYTHON ...]

Each PYTHON runs this checkout's ``src`` (put first on PYTHONPATH) and must
give:
- ``spfk suite --seed 42 --json``, serially and with ``--jobs 2``, byte for
  byte as ``tests/golden/suite_seed42.json``;
- the sha256 of ``spfk suite --seed 42 --json --paranoid`` that Tier-1 pins;
- the first 64 samples of ``SeededSampler(42)`` as
  ``tests/golden/sampler_seed42.json``;
- both sides' digest and term count of the SDB2 and FHAFF1 Wick checks at
  n = 4 (40 320 words each: SDB2's with +-1 coefficients and two-digit
  letters, FHAFF1's from the largest counted shuffle dot), as Tier-1 pins
  them;
- ``spfk pf|hf|hpf|hhf`` of one fixed order-2 tensor file, as pinned below.

Prints one line per interpreter and check, ``ok`` or ``DIFF`` with the
interpreter's version, and exits 1 on any difference or failed run.
Stdlib only.
"""
from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# sha256 of `spfk suite --seed 42 --json --paranoid`, as in tests/test_identities.py.
PARANOID_SHA256 = "7f2b9e29d91970ce9ecb507d64e715d4cb4885a935d5eaa1538ca7de3743a1f8"

# Digests of both sides of `verify_shuffle_wick(variant, 4)`, as in WICK_PINNED of
# tests/test_identities.py; WICK takes the variant as its argument.
SDB2_SHA256 = "afe6b0048c9c5cb6c68050c0df33ac61268a5702c471ae615f1d44a021d94b90"
FHAFF1_SHA256 = "3d5a64ef032b55d208d0ea9e5a4717e22633adce1846ff78b66ad9b7d5ea9a9b"
WICK = (
    "import sys\n"
    "from spfk.identities import verify_shuffle_wick\n"
    "r = verify_shuffle_wick(sys.argv[1], 4)\n"
    "print(r.lhs_digest, r.rhs_digest, r.lhs_terms, r.rhs_terms)\n"
)

# An alternating and a symmetric reading of one order-2 tensor of dimension 6:
# entry (i, j) is (i j - 5) / (i + 2 j).
TENSOR = {
    "order": 2,
    "dim": 6,
    "entries": [
        {"idx": [i, j], "num": str(i * j - 5), "den": str(i + 2 * j)}
        for i in range(1, 7)
        for j in range(i + 1, 7)
    ],
}
TENSOR_VALUES = {
    "pf": "-808076149/1824469920",
    "hf": "-229886557/107321760",
    "hpf": "-808076149/1824469920",
    "hhf": "-229886557/107321760",
}

SAMPLER = (
    "from spfk.core import SeededSampler\n"
    "for v in SeededSampler(42).positive_distinct(64, 1000):\n"
    "    print(f'{v.numerator}/{v.denominator}')\n"
)


def _run(python: str, args: list) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([python, *args], capture_output=True, env=env, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}")
    return proc.stdout


def checks(python: str, tensor_file: str) -> list:
    """(name, zero-argument callable giving (got, want)) for one interpreter."""
    suite = ["-m", "spfk", "suite", "--seed", "42", "--json"]
    golden = (GOLDEN / "suite_seed42.json").read_bytes()
    out = [
        ("suite", lambda: (_run(python, suite), golden)),
        ("suite --jobs 2", lambda: (_run(python, [*suite, "--jobs", "2"]), golden)),
        (
            "suite --paranoid sha256",
            lambda: (hashlib.sha256(_run(python, [*suite, "--paranoid"])).hexdigest(),
                     PARANOID_SHA256),
        ),
        (
            "sampler seed 42",
            lambda: (_run(python, ["-c", SAMPLER]).decode().split(),
                     json.loads((GOLDEN / "sampler_seed42.json").read_text())),
        ),
    ]
    for variant, pinned in (("SDB2", SDB2_SHA256), ("FHAFF1", FHAFF1_SHA256)):
        out.append((
            f"wick {variant.lower()} n=4 digest",
            lambda variant=variant, pinned=pinned: (
                _run(python, ["-c", WICK, variant]).decode().split(),
                [pinned, pinned, "40320", "40320"]),
        ))
    for command, value in TENSOR_VALUES.items():
        out.append((
            f"{command} tensor",
            lambda command=command, value=value: (
                _run(python, ["-m", "spfk", command, tensor_file]).decode().strip(), value),
        ))
    return out


def main(argv=None) -> int:
    pythons = sys.argv[1:] if argv is None else list(argv)
    if not pythons:
        print("usage: cross_python.py PYTHON [PYTHON ...]", file=sys.stderr)
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tensor_file = os.path.join(tmp, "tensor.json")
        with open(tensor_file, "w", encoding="utf-8") as fh:
            json.dump(TENSOR, fh)
        for python in pythons:
            try:
                version = _run(python, ["-c", "import platform; print(platform.python_version())"])
                version = version.decode().strip()
            except (OSError, RuntimeError) as exc:
                print(f"{python}: cannot run: {exc}")
                failed = True
                continue
            for name, check in checks(python, tensor_file):
                try:
                    got, want = check()
                    status = "ok" if got == want else "DIFF"
                except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
                    status = f"DIFF ({exc})"
                failed |= status != "ok"
                print(f"{python} ({version}) {name}: {status}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
