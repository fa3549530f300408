"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1, 2, 4, 5, 6, 7, and 8 assert against a single shared run of the
default suite (seed 42); criteria 3 and 9 check the kernels and the antipode
directly; criterion 10 reruns the suite and compares bytes with the committed
golden report.
"""
import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest

from spfk.core import QQ, SeededSampler, mix_seed
from spfk.suite import SuiteConfig, run_suite, suite_json_bytes
from spfk.tensors import (
    AltTensor,
    DenseMatrix,
    SymTensor,
    blocked_count,
    determinant,
    enumerate_blocked,
    grassmann_pf_oracle,
    hyperhafnian,
    hyperpfaffian,
    pfaffian,
    sz_hf_oracle,
)

from oracles import antipode_convolution, entry_at

GOLDEN = pathlib.Path(__file__).parent / "golden" / "suite_seed42.json"


@pytest.fixture(scope="module")
def suite_run():
    results, ok = run_suite(SuiteConfig(seed=42))
    index = {}
    for case, report in results:
        key = (report.identity, json.dumps(report.params, sort_keys=True, default=str),
               tuple(report.seeds))
        index[key] = (case, report)
    return {"results": results, "ok": ok, "index": index,
            "bytes": suite_json_bytes(results)}


def _get(suite_run, identity, params, seeds=()):
    key = (identity, json.dumps(params, sort_keys=True, default=str), tuple(seeds))
    assert key in suite_run["index"], f"missing suite case: {key}"
    return suite_run["index"][key]


def _announce(num, label, ok):
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok


def test_criterion_01_shuffle_wick_suite(suite_run):
    ok = True
    for n in (1, 2, 3):
        for ident in ("pfab", "sdb2", "fhaff2"):
            ok &= _get(suite_run, ident, {"n": n})[1].equal
        ok &= _get(suite_run, "fhaff1", {"n": n, "coeff": "corrected"})[1].equal
    for n in (2, 3, 4, 5):
        ok &= _get(suite_run, "odd_even", {"n": n})[1].equal
        ok &= _get(suite_run, "antishuffle", {"n": n})[1].equal
    for k, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        ok &= _get(suite_run, "xipfashu", {"k": k, "n": n})[1].equal
    _announce(1, "shuffle Wick identities (PFAB/SDB2/FHAFF2/FHAFF1/ODD_EVEN/"
                 "ANTISHUFFLE/XIPFASHU)", ok)


def test_criterion_02_erratum_regressions(suite_run):
    case, rep = _get(suite_run, "fhaff1", {"n": 2, "coeff": "paper"})
    ok = (not rep.equal) and (not case.expect_equal)
    case, rep = _get(suite_run, "fhaff1", {"n": 2, "coeff": "corrected"})
    ok &= rep.equal
    case, rep = _get(suite_run, "schur_hyper", {"n": 1, "coeff": "paper"}, seeds=[42])
    ok &= (not rep.equal) and (not case.expect_equal)
    case, rep = _get(suite_run, "schur_hyper", {"n": 1, "coeff": "corrected"}, seeds=[42])
    ok &= rep.equal
    _announce(2, "erratum regressions: (2n)!! fails, (2n-1)!! passes", ok)


def test_criterion_03_kernel_cross_oracles():
    ok = True
    for k, d in ((2, 4), (2, 6), (2, 8), (4, 4), (4, 8), (6, 6)):
        sampler = SeededSampler(mix_seed(42, ("acc3", k, d)))
        combos = list(itertools.combinations(range(1, d + 1), k))
        vals = sampler.positive_distinct(len(combos), 1000)
        A = AltTensor(QQ, k, d, dict(zip(combos, vals)))
        S = SymTensor(QQ, k, d, dict(zip(combos, vals)))
        ok &= hyperpfaffian(A) == grassmann_pf_oracle(A)
        ok &= hyperhafnian(S) == sz_hf_oracle(S)
    for d in (2, 4, 6):
        sampler = SeededSampler(mix_seed(42, ("acc3pf", d)))
        combos = list(itertools.combinations(range(1, d + 1), 2))
        M = AltTensor(QQ, 2, d, dict(zip(combos, sampler.positive_distinct(len(combos), 1000))))
        rows = [[entry_at(M, (i, j)) for j in range(1, d + 1)] for i in range(1, d + 1)]
        ok &= pfaffian(M) ** 2 == determinant(DenseMatrix.from_rows(rows))
    for k in range(1, 13):
        for n in range(1, 13):
            if k * n <= 12:
                ok &= sum(1 for _ in enumerate_blocked(n, k)) == blocked_count(n, k)
    _announce(3, "kernel cross-oracles: Grassmann/square-zero powers, Pf^2=det, "
                 "|E_{kn,k}| counts", ok)


def test_criterion_04_hyperpfaffian_structure(suite_run):
    ok = True
    for m, n in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2)):
        ok &= _get(suite_run, "composition", {"m": m, "n": n}, seeds=[42])[1].equal
    for m, n in ((1, 1), (1, 2), (1, 3), (2, 2)):
        ok &= _get(suite_run, "sum", {"m": m, "n": n}, seeds=[42])[1].equal
    for m, t, n in ((1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 2)):
        ok &= _get(suite_run, "minor", {"m": m, "t": t, "n": n}, seeds=[42])[1].equal
    for m, n in ((1, 2), (1, 3), (2, 2)):
        ok &= _get(suite_run, "det_decomp", {"m": m, "n": n}, seeds=[42])[1].equal
    _announce(4, "hyperpfaffian structure: COMPOSITION/SUM/MINOR/DET_DECOMP", ok)


def test_criterion_05_rational_identities(suite_run):
    matrix = (
        [("schur", "n", v) for v in (1, 2, 3)]
        + [("sundquist", "m", v) for v in (1, 2, 3)]
        + [("mehta1", "n", v) for v in (1, 2, 3, 4, 5, 6)]
        + [("mehta2", "n", v) for v in (2, 4)]
        + [("sum1", "m", v) for v in (1, 2, 3, 4, 5)]
        + [("hafsym", "n", v) for v in (1, 2, 3)]
        + [("wigner_rank1", "n", v) for v in (1, 2, 3)]
        + [("arq", "m", v) for v in (1, 2)]
    )
    ok = True
    for ident, pname, value in matrix:
        for seed in (42, 43, 44):
            params = {pname: value}
            if ident == "wigner_rank1":
                params["coeff"] = "corrected"
            ok &= _get(suite_run, ident, params, seeds=[seed])[1].equal
    for n in (1, 2):
        for seed in (42, 43, 44):
            ok &= _get(suite_run, "schur_hyper", {"n": n, "coeff": "corrected"},
                       seeds=[seed])[1].equal
    _announce(5, "rational identities at 3 points for 3 seeds each", ok)


def test_criterion_06_chen_and_debruijn(suite_run):
    ok = _get(suite_run, "chen", {"pairs": 100}, seeds=[42])[1].equal
    for order in (2, 4, 6):
        ok &= _get(suite_run, "debruijn_even", {"order": order}, seeds=[42])[1].equal
        ok &= _get(suite_run, "debruijn_interleaved", {"order": order}, seeds=[42])[1].equal
        ok &= _get(suite_run, "debruijn_new_pairing", {"order": order}, seeds=[42])[1].equal
        ok &= _get(suite_run, "debruijn_perm_product",
                   {"order": order, "coeff": "corrected"}, seeds=[42])[1].equal
        ok &= _get(suite_run, "debruijn_perm_interleaved", {"order": order}, seeds=[42])[1].equal
    for order in (3, 5):
        ok &= _get(suite_run, "debruijn_odd", {"order": order}, seeds=[42])[1].equal
    for k, n in ((1, 2), (1, 3), (2, 1), (2, 2)):
        ok &= _get(suite_run, "debruijn_general_det", {"k": k, "n": n}, seeds=[42])[1].equal
        ok &= _get(suite_run, "debruijn_general_perm", {"k": k, "n": n}, seeds=[42])[1].equal
    _announce(6, "Chen batch (100 pairs) and de Bruijn variants", ok)


def test_criterion_07_quasi_symmetric(suite_run):
    parts_list = [(1, 1)]
    for r in (1, 2, 3, 4):
        parts_list.extend(itertools.permutations((1, 2, 3, 4), r))
    ok = True
    for parts in parts_list:
        ok &= _get(suite_run, "vi", {"parts": list(parts), "N": 8}, seeds=[42])[1].equal
    _announce(7, f"alternating quasi-symmetric V_I for {len(parts_list)} compositions at N=8",
              ok)


def test_criterion_08_vandermonde_averages(suite_run):
    ok = True
    for N, n, m in ((2, 2, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2)):
        ok &= _get(suite_run, "vandermonde", {"N": N, "n": n, "m": m}, seeds=[42])[1].equal
    # m=1 determinant form, checked independently of the verifier
    for N, n in ((2, 2), (3, 2), (3, 3)):
        sampler = SeededSampler(mix_seed(42, ("vandermonde", N, n, 1)))
        y = sampler.positive_distinct(N, 200)
        total = Fraction(0)
        for tup in itertools.product(range(N), repeat=n):
            prod = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    prod *= (y[tup[j]] - y[tup[i]]) ** 2
            total += prod
        brute = total / N ** n
        rows = [[sum(v ** (i + j) for v in y) for j in range(n)] for i in range(n)]
        det_form = Fraction(math.factorial(n), N ** n) * determinant(DenseMatrix.from_rows(rows))
        ok &= brute == det_form
    _announce(8, "Vandermonde-power averages vs brute force and m=1 determinant form", ok)


def test_criterion_09_antipode_exhaustive():
    ok = True
    count = 0
    for length in range(1, 6):
        for word in itertools.product(range(5), repeat=length):
            count += 1
            if antipode_convolution(word):
                ok = False
    _announce(9, f"antipode convolution vanishes on all {count} non-empty words "
                 "of length <= 5 over 5 letters", ok)


def test_criterion_10_determinism_and_golden(suite_run):
    first = suite_run["bytes"]
    results, ok_run = run_suite(SuiteConfig(seed=42))
    second = suite_json_bytes(results)
    golden = GOLDEN.read_bytes()
    ok = ok_run and first == second == golden and suite_run["ok"]
    _announce(10, "suite --seed 42 --json is byte-identical across runs and "
                  "matches the committed golden report", ok)
