import gc
import hashlib
import itertools
import math
import pathlib
import sys
import weakref
from fractions import Fraction

import pytest

from spfk import freealg, identities, integrals, suite, tensors
from spfk.core import QQ, SeededSampler, mix_seed
from spfk.freealg import (
    ANTISHUFFLE_RING,
    SHUFFLE_RING,
    FreePoly,
    q_shuffle,
    shuffle,
    sort_with_sign,
)
from spfk.identities import (
    _SAMPLE_BOUND,
    verify_VI,
    verify_hyperpf_structure,
    verify_rational_identity,
    verify_shuffle_wick,
    verify_vandermonde_average,
)
from spfk.integrals import r_value
from spfk.report import Check, complete, digest, run_check
from spfk.tensors import (
    AltTensor,
    SymTensor,
    hafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)

from oracles import (
    MIXED,
    arq_loop,
    first_row_expansion,
    group_form_loop,
    refuse_fraction_arithmetic,
    scale,
    schur_product_loop,
    wick_lhs_loop,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "suite_seed42.json"


def test_pfab_n1_both_sides():
    report = verify_shuffle_wick("PFAB", 1)
    assert report.equal
    assert report.lhs_terms == 2  # a1 b2 - a2 b1


@pytest.mark.parametrize("n", (1, 2, 3))
def test_pfab(n):
    assert verify_shuffle_wick("PFAB", n).equal


def test_sdb2_n2_term_counts():
    report = verify_shuffle_wick("SDB2", 2)
    assert report.equal
    assert report.lhs_terms == 24  # one word per permutation of S_4


@pytest.mark.parametrize("variant", ("SDB2", "FHAFF2"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_pair_letter_variants(variant, n):
    assert verify_shuffle_wick(variant, n).equal


@pytest.mark.parametrize("n", (1, 2, 3))
def test_fhaff1_corrected(n):
    report = verify_shuffle_wick("FHAFF1", n)
    assert report.equal
    assert report.conventions["double_factorial"] == "(2n-1)!!"


def test_fhaff1_erratum_regression():
    # the uncorrected coefficient 1/(2n)!! fails at n=2: scaling 1/3 vs 1/8
    good = verify_shuffle_wick("FHAFF1", 2, coeff="corrected")
    bad = verify_shuffle_wick("FHAFF1", 2, coeff="paper")
    assert good.equal and not bad.equal
    assert bad.counterexample is not None
    assert bad.conventions["double_factorial"] == "(2n)!!"


def test_fhaff1_n2_coefficient_is_three():
    # the hafnian side is 3 * (a1 sh a2 sh a3 sh a4)
    from spfk.freealg import SHUFFLE_RING
    from spfk.tensors import SymTensor, hafnian

    d = 4
    Q = SymTensor.from_function(
        SHUFFLE_RING,
        2,
        d,
        lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): 1}),
    )
    full_shuffle = FreePoly.from_word((0,))
    for i in range(1, d):
        full_shuffle = shuffle(full_shuffle, FreePoly.from_word((i,)))
    assert hafnian(Q) == scale(full_shuffle, 3)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_odd_even(n):
    assert verify_shuffle_wick("ODD_EVEN", n).equal


def test_odd_even_n3_hand_case():
    # sum of all words of S_3 equals a1 sh a2 sh a3
    report = verify_shuffle_wick("ODD_EVEN", 3)
    assert report.equal
    full = shuffle(shuffle(FreePoly.from_word((0,)), FreePoly.from_word((1,))), FreePoly.from_word((2,)))
    acc = {}
    for perm, _ in signed_permutations(3):
        acc[tuple(p - 1 for p in perm)] = 1
    assert FreePoly(acc) == full


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_antishuffle_variant(n):
    assert verify_shuffle_wick("ANTISHUFFLE", n).equal


@pytest.mark.parametrize("n", range(7))
def test_odd_even_and_antishuffle_right_sides_match_the_first_row_expansion(n):
    for name, ring, cls, kernel, mul, sign in (
        ("odd_even", SHUFFLE_RING, AltTensor, pfaffian, shuffle, 1),
        ("antishuffle", ANTISHUFFLE_RING, SymTensor, hafnian, ANTISHUFFLE_RING.mul, -1),
    ):
        Q = cls.from_function(
            ring, 2, n, lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): sign})
        )
        if n % 2 == 0:
            expected = kernel(Q)
        else:
            single = lambda p: FreePoly.from_word((p - 1,))
            minor = lambda keep: kernel(Q.restrict(keep))
            expected = first_row_expansion(n, single, minor, mul, signed=kernel is pfaffian)
        _header, _lhs, rhs = identities.WICK[name].sides({"n": n}, 0)
        assert rhs() == expected, (name, n)


def test_antishuffle_n4_reduces_to_antishuffle_product():
    report = verify_shuffle_wick("ANTISHUFFLE", 4)
    assert report.equal
    prod = FreePoly.from_word((0,))
    for i in range(1, 4):
        prod = q_shuffle(prod, FreePoly.from_word((i,)), -1)
    acc = {}
    for perm, sign in signed_permutations(4):
        acc[tuple(p - 1 for p in perm)] = sign
    assert FreePoly(acc) == prod


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_xipfashu(k, n):
    assert verify_shuffle_wick("XIPFASHU", n, k=k).equal


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2)])
def test_xipfashu_left_side_matches_unmemoised_loop(k, n):
    # Oracle: one id lookup per block of every permutation, so letter ids,
    # and with them the canonical string, follow first-encounter order.
    width = 2 * k
    ids = {}
    acc = {}
    for perm, sign in signed_permutations(width * n):
        coeff = sign
        letters = []
        for b in range(n):
            canon, s = sort_with_sign(perm[b * width : (b + 1) * width])
            coeff *= s
            letters.append(ids.setdefault(canon, len(ids)))
        word = tuple(letters)
        acc[word] = acc.get(word, 0) + coeff
    expected = FreePoly(acc)
    report = verify_shuffle_wick("XIPFASHU", n, k=k)
    assert report.equal
    assert report.lhs_terms == expected.num_terms()
    assert report.lhs_digest == digest(expected.canonical_string())


def _xipfashu_ids_by_scan(k, n):
    # Oracle: walk the permutations in lexicographic order, blocks left to
    # right, numbering each sorted block the first time it is met.
    width, order = 2 * k, 2 * k * n
    ids = {}
    for perm in itertools.permutations(range(1, order + 1)):
        for b in range(0, order, width):
            ids.setdefault(tuple(sorted(perm[b : b + width])), len(ids))
        if len(ids) == math.comb(order, width):
            break
    return ids


@pytest.mark.parametrize(
    "k,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1), (4, 1)]
)
def test_xipfashu_ids_match_the_permutation_scan(k, n):
    assert identities._xipfashu_ids(k, n) == _xipfashu_ids_by_scan(k, n)


def test_xipfashu_term_count_sanity():
    # the permutation sum enumerates (2kn)! summands; both sides collapse to
    # the same canonical multiset (digest equality)
    assert len(tuple(signed_permutations(8))) == math.factorial(8) == 40320
    report = verify_shuffle_wick("XIPFASHU", 2, k=2)
    assert report.equal
    assert report.lhs_digest == report.rhs_digest
    assert report.lhs_terms == report.rhs_terms == 70  # ordered pairs of disjoint 4-sets
    # independent recount: collecting the 8! summands leaves 70 canonical
    # words, each with coefficient +-(4!)^2
    acc = {}
    for perm, sign in signed_permutations(8):
        coeff = sign
        letters = []
        for block in (perm[:4], perm[4:]):
            canon, s = sort_with_sign(block)
            coeff *= s
            letters.append(canon)
        word = tuple(letters)
        acc[word] = acc.get(word, 0) + coeff
    assert len(acc) == 70
    assert all(abs(c) == 576 for c in acc.values())


def _wick_left_side_and_rule(monkeypatch, identity, given):
    # The row's left side, and the (order, word_of, signed) it sums, read off
    # the row's one _wick_sides call.
    seen = []
    real = identities._wick_sides

    def record(order, g, word_of, signed, *rest):
        seen.append((order, word_of, signed))
        return real(order, g, word_of, signed, *rest)

    check = identities.WICK[identity]
    monkeypatch.setattr(identities, "_wick_sides", record)
    _header, lhs, _rhs = check.sides(complete(identity, check, given)[0], 0)
    monkeypatch.undo()
    (rule,) = seen
    return lhs, rule


def _wick_left_side_cases():
    # Every default suite size, then order 8 and the odd orders, each once.
    cases = [(c.runner, c.param_dict()) for c in suite.default_cases() if c.runner in identities.WICK]
    extra = (
        [(identity, {"n": 4}) for identity in ("pfab", "sdb2", "fhaff2", "fhaff1")]
        + [("xipfashu", {"k": 1, "n": 4}), ("xipfashu", {"k": 2, "n": 2})]
        + [(identity, {"n": n}) for identity in ("odd_even", "antishuffle") for n in (3, 5)]
    )
    return cases + [case for case in extra if case not in cases]


@pytest.mark.parametrize(
    "identity, given",
    _wick_left_side_cases(),
    ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}{v[k]}" for k in sorted(v)),
)
def test_wick_left_side_is_the_permutation_sum(monkeypatch, identity, given):
    # The DP over placed groups against the literal n! loop over the row's
    # own word_of: every default suite size, order 8, and the odd orders
    # whose trailing single carries the sign.
    lhs, (order, word_of, signed) = _wick_left_side_and_rule(monkeypatch, identity, given)
    assert lhs() == wick_lhs_loop(order, word_of, signed)


def test_wick_left_side_drops_a_word_whose_orderings_cancel():
    # Both signed orderings of the one group of two give the word (0,), so
    # they cancel: the left side stores no zero coefficient, as no FreePoly does.
    lhs, _rhs = identities._wick_sides(2, 2, lambda p: ((0,), 1), True, True)
    value = lhs()
    assert value == FreePoly.zero()
    assert value.num_terms() == 0


def _right_side_first(sides):
    # The row's sides with the right side evaluated as soon as they are built,
    # before run_check calls the left side.
    def swapped(params, seed):
        shown, lhs, rhs = sides(params, seed)
        right = rhs()
        return shown, lhs, lambda: right

    return swapped


def test_every_suite_case_reports_the_same_with_the_right_side_first(monkeypatch):
    # Each side is a function of its inputs alone: the order the two sides
    # run in changes no byte of the suite's report (XIPFASHU numbers its
    # blocks before either side runs).
    for identity, check in list(suite.IDENTITIES.items()):
        swapped = check._replace(sides=_right_side_first(check.sides))
        monkeypatch.setitem(suite.IDENTITIES, identity, swapped)
    results, ok = suite.run_suite(suite.SuiteConfig())
    assert ok
    assert suite.suite_json_bytes(results) == GOLDEN.read_bytes()


# sha256 of `spfk suite --seed 42 --json --paranoid`: every sampled row at 10
# points, so the ARQ and VI arithmetic runs at each of them.
PARANOID_SHA256 = "7f2b9e29d91970ce9ecb507d64e715d4cb4885a935d5eaa1538ca7de3743a1f8"


def test_paranoid_suite_report_is_pinned():
    results, ok = suite.run_suite(suite.SuiteConfig(seed=42, paranoid=True))
    assert ok
    assert hashlib.sha256(suite.suite_json_bytes(results)).hexdigest() == PARANOID_SHA256


# The wick checks one size above the suite (perfbench's WICK_CHECKS), with
# the digests and term counts of the memoised-recursion shuffle: a faster word
# product must leave every one of them unchanged.
WICK_PINNED = (
    ("SDB2", 4, None, "afe6b0048c9c5cb6c68050c0df33ac61268a5702c471ae615f1d44a021d94b90", 40320),
    ("FHAFF2", 4, None, "b5cca470a48bb61c6d4ddab3b95766ebda82c8a0fbc5cd3049083e43925510e6", 40320),
    ("FHAFF1", 4, None, "3d5a64ef032b55d208d0ea9e5a4717e22633adce1846ff78b66ad9b7d5ea9a9b", 40320),
    ("ANTISHUFFLE", 6, None, "849cf0b299c01c61833d1f27ad9a412f9680bb85ec6c83a6713471d06591b403", 720),
    ("ODD_EVEN", 6, None, "b2f836e0aadd53d536825e19508ffb00734fbc2400fe66d0bde467784bf34cc0", 720),
    ("XIPFASHU", 4, 1, "034c56e9da4f1bff674fef1a8ea2bc4965c11c7d570a723d5c5223d9c09e9b7d", 2520),
)


@pytest.mark.parametrize("variant, n, k, pinned, terms", WICK_PINNED)
def test_wick_one_size_above_the_suite_keeps_its_digests(variant, n, k, pinned, terms):
    report = verify_shuffle_wick(variant, n, k=k)
    assert report.equal
    assert (report.lhs_digest, report.rhs_digest) == (pinned, pinned)
    assert (report.lhs_terms, report.rhs_terms) == (terms, terms)


# PFAB at n = 4 is the signed row the counted shuffle dots leave alone;
# perfbench's WICK_CHECKS leave it out for length, so it is pinned here.
PFAB_PINNED = "45c98bb115f40bc1aa41be114e5d3b250f918e07ada997afb973921318dca334"


def test_pfab_one_size_above_the_suite_keeps_its_digest():
    report = verify_shuffle_wick("PFAB", 4)
    assert report.equal
    assert (report.lhs_digest, report.rhs_digest) == (PFAB_PINNED, PFAB_PINNED)
    assert (report.lhs_terms, report.rhs_terms) == (40320, 40320)


@pytest.mark.parametrize("variant", ("FHAFF1", "FHAFF2"))
def test_the_fhaff_dots_stay_counted(monkeypatch, variant):
    # Every shuffle dot of the two hafnians is counted, save the bottom
    # level's (entry, unit) dots, which hold the empty word.
    counted_sum, calls = freealg._counted_sum, []

    def spy(pairs):
        counted = counted_sum(pairs)
        calls.append((pairs, counted))
        return counted

    monkeypatch.setattr(freealg, "_counted_sum", spy)
    assert verify_shuffle_wick(variant, 3).equal
    assert any(counted is not None for _, counted in calls)
    for pairs, counted in calls:
        if counted is None:
            assert pairs and all(q == FreePoly.unit() for _, q in pairs), pairs


@pytest.mark.parametrize(
    "verify",
    (
        lambda v: verify_shuffle_wick(v, 2),
        lambda v: verify_hyperpf_structure(v, 1, 1),
        lambda v: verify_rational_identity(v, 1),
        lambda v: integrals.verify_debruijn(v, n=2),
    ),
)
def test_every_variant_wrapper_refuses_an_unknown_variant(verify):
    with pytest.raises(ValueError, match="^unknown variant: NOPE$"):
        verify("nope")


def test_wick_caps():
    with pytest.raises(ValueError, match="size cap"):
        verify_shuffle_wick("PFAB", 5)
    with pytest.raises(ValueError, match="size cap"):
        verify_shuffle_wick("ODD_EVEN", 7)
    with pytest.raises(ValueError, match="size cap"):
        verify_shuffle_wick("XIPFASHU", 3, k=2)
    with pytest.raises(ValueError, match="unknown variant"):
        verify_shuffle_wick("NOPE", 2)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_composition(m, n):
    assert verify_hyperpf_structure("COMPOSITION", m, n, seed=42).equal


def test_composition_coefficient_ratio():
    # explicit ratio check: Pf^[4] of the Pfaffian-minor tensor = 3 Pf(A) at (2,2)
    sampler = SeededSampler(mix_seed(4242, "ratio"))
    combos = list(itertools.combinations(range(1, 9), 2))
    A = AltTensor(QQ, 2, 8, dict(zip(combos, sampler.positive_distinct(len(combos), 1000))))
    P = AltTensor.from_function(QQ, 4, 8, lambda K: pfaffian(A.restrict(K)))
    assert hyperpfaffian(P) == 3 * pfaffian(A)
    assert math.factorial(4) // (math.factorial(2) ** 2 * math.factorial(2)) == 3


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (2, 2)])
def test_stembridge_sum(m, n):
    assert verify_hyperpf_structure("SUM", m, n, seed=42).equal


def test_stembridge_sum_classical_expansion():
    # m=1, n=2: Pf(A+B) expanded over index subsets, both sides by hand
    sampler = SeededSampler(777)
    combos = list(itertools.combinations(range(1, 5), 2))
    A = AltTensor(QQ, 2, 4, dict(zip(combos, sampler.positive_distinct(6, 1000))))
    B = AltTensor(QQ, 2, 4, dict(zip(combos, sampler.positive_distinct(6, 1000))))
    lhs = pfaffian(AltTensor.from_function(QQ, 2, 4, lambda I: A.entry(I) + B.entry(I)))
    rhs = Fraction(0)
    for size in (0, 2, 4):
        for I in itertools.combinations(range(1, 5), size):
            comp = tuple(i for i in range(1, 5) if i not in I)
            sgn = (-1) ** (sum(I) - size // 2)
            rhs += sgn * pfaffian(A.restrict(I)) * pfaffian(B.restrict(comp))
    assert lhs == rhs


@pytest.mark.parametrize("m,t,n", [(1, 1, 2), (1, 2, 2), (1, 2, 3), (2, 1, 2)])
def test_minor_summation(m, t, n):
    assert verify_hyperpf_structure("MINOR", m, n, t=t, seed=42).equal


@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 2)])
def test_det_decomposition(m, n):
    assert verify_hyperpf_structure("DET_DECOMP", m, n, seed=42).equal


def test_structure_caps():
    with pytest.raises(ValueError, match="size cap"):
        verify_hyperpf_structure("COMPOSITION", 2, 3, seed=42)
    with pytest.raises(ValueError, match="^--t is required for minor$"):
        verify_hyperpf_structure("MINOR", 1, 2, seed=42)
    with pytest.raises(ValueError, match="MINOR needs t <= n"):
        verify_hyperpf_structure("MINOR", 1, 2, t=3, seed=42)
    for t in (0, -1):
        with pytest.raises(ValueError, match="MINOR needs t >= 1"):
            verify_hyperpf_structure("MINOR", 1, 2, t=t, seed=42)


def test_schur_n1_identical():
    report = verify_rational_identity("SCHUR", 1, seed=42)
    assert report.equal


@pytest.mark.parametrize(
    "variant,sizes",
    [
        ("SCHUR", (1, 2, 3)),
        ("SCHUR_HYPER", (1, 2)),
        ("SUNDQUIST", (1, 2, 3)),
        ("MEHTA1", (1, 2, 3, 4, 5, 6)),
        ("MEHTA2", (2, 4)),
        ("SUM1", (1, 2, 3, 4, 5)),
        ("HAFSYM", (1, 2, 3)),
        ("WIGNER_RANK1", (1, 2, 3)),
        ("ARQ", (1, 2)),
    ],
)
def test_rational_identities_three_seeds(variant, sizes):
    for size in sizes:
        for seed in (42, 43, 44):
            assert verify_rational_identity(variant, size, seed=seed).equal, (variant, size, seed)


def test_schur_hyper_erratum_regression():
    good = verify_rational_identity("SCHUR_HYPER", 1, seed=42, coeff="corrected")
    bad = verify_rational_identity("SCHUR_HYPER", 1, seed=42, coeff="paper")
    assert good.equal and not bad.equal


def test_sum1_m2_closed_form():
    x1, x2 = Fraction(2), Fraction(5)
    lhs = 1 / (x1 * (x1 + x2)) + 1 / (x2 * (x1 + x2))
    assert lhs == 1 / (x1 * x2)


@pytest.mark.parametrize("variant,sizes", [("MEHTA2", (2, 4, 6)), ("SUM1", (1, 2, 3, 4, 5))])
def test_mehta2_sum1_left_sides_match_permutation_sums(variant, sizes):
    impl = getattr(identities, f"_rat_{variant.lower()}")
    signed = variant == "MEHTA2"
    for size in sizes:
        for seed in range(3):
            lhs = impl(size, SeededSampler(seed), "corrected")[0]()
            x = SeededSampler(seed).positive_distinct(size, _SAMPLE_BOUND)
            expected = sum(
                (sign if signed else 1) * r_value([x[p - 1] for p in perm])
                for perm, sign in signed_permutations(size)
            )
            assert lhs == expected, (variant, size, seed)


def _hafsym_lhs_by_permutations(x, y):
    # The literal (2n)!-term sum the DP replaces.
    d = len(x)
    lhs = Fraction(0)
    for perm, _sign in signed_permutations(d):
        num = Fraction(1)
        for pos in range(0, d, 2):
            num *= y[perm[pos] - 1]
        den = Fraction(1)
        acc = Fraction(0)
        for s in range(d):
            acc += x[perm[s] - 1]
            if s % 2 == 1:
                den *= acc
        lhs += num / den
    return lhs


@pytest.mark.parametrize("n", (1, 2, 3))
def test_hafsym_left_side_matches_permutation_sum(n):
    for seed in range(20):
        lhs = identities._rat_hafsym(n, SeededSampler(seed), "corrected")[0]()
        batch = SeededSampler(seed).positive_distinct(4 * n, _SAMPLE_BOUND)
        assert lhs == _hafsym_lhs_by_permutations(batch[: 2 * n], batch[2 * n :]), (n, seed)


def test_hafsym_left_side_never_calls_the_hafnian(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the left side called the hafnian")

    monkeypatch.setattr(identities, "hafnian", refuse)
    x = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]
    y = [Fraction(5), Fraction(1, 4), Fraction(3), Fraction(2, 7)]
    assert identities._hafsym_lhs(x, y) == _hafsym_lhs_by_permutations(x, y)


@pytest.mark.parametrize("d", (2, 4, 6))
def test_hafsym_left_side_runs_on_ints(monkeypatch, d):
    # x and y with mixed denominators, cleared together once: no Fraction
    # arithmetic runs in the DP, and the value is the permutation sum's.
    x, y = MIXED[:d], MIXED[::-1][:d]
    refuse_fraction_arithmetic(monkeypatch)
    got = identities._hafsym_lhs(x, y)
    monkeypatch.undo()
    assert type(got) is Fraction
    assert got == _hafsym_lhs_by_permutations(x, y)


def test_wick_debruijn_and_vi_left_sides_never_enter_group_form(monkeypatch):
    # Every Wick, de Bruijn and VI right side is one group_form call, and no
    # left side of a default suite case enters it, under any name it has.
    class Entered(Exception):
        pass

    def refuse(*_args):
        raise Entered

    names = [
        (module, attr)
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "spfk"
        for attr, value in vars(module).items()
        if value is tensors.group_form
    ]
    assert {m.__name__ for m, _ in names} >= {"spfk.tensors", "spfk.identities", "spfk.integrals"}
    for module, attr in names:
        monkeypatch.setattr(module, attr, refuse)
    rows = {**identities.WICK, **integrals.DEBRUIJN, **identities.VI}
    cases = [case for case in suite.default_cases() if case.runner in rows]
    assert {case.runner for case in cases} == set(rows)
    for case in cases:
        seed = suite.DEFAULT_SEED + case.seed_offset
        _shown, lhs, rhs = rows[case.runner].sides(case.param_dict(), seed)
        lhs()
        with pytest.raises(Entered):
            rhs()


def test_mehta1_n2_expansion():
    x = [Fraction(3), Fraction(7, 2)]
    total = (
        r_value(x)
        - r_value([x[0]]) * r_value([x[1]])
        + r_value([x[1], x[0]])
    )
    assert total == 0


def test_sundquist_m2_matrix_shape():
    # columns are (u, v, x^2 u, x^2 v); the verifier reproduces this layout
    report = verify_rational_identity("SUNDQUIST", 2, seed=42)
    assert report.equal


def test_rational_caps():
    with pytest.raises(ValueError, match="size cap"):
        verify_rational_identity("SCHUR", 4)
    with pytest.raises(ValueError, match="MEHTA2 needs even n, got n=3"):
        verify_rational_identity("MEHTA2", 3)  # odd order not defined
    with pytest.raises(ValueError, match="size cap"):
        verify_rational_identity("ARQ", 3)
    with pytest.raises(ValueError, match="unknown variant"):
        verify_rational_identity("NOPE", 1)


# One RATIONAL row (the erratum row, which passed at 0 points) and VI.
_SAMPLED_CALLS = (
    pytest.param(
        lambda pts: verify_rational_identity("SCHUR_HYPER", 1, points=pts, coeff="paper"),
        "SCHUR_HYPER",
        id="schur_hyper",
    ),
    pytest.param(lambda pts: verify_VI((1, 2), N=3, points=pts), "VI", id="vi"),
)


@pytest.mark.parametrize("call,name", _SAMPLED_CALLS)
def test_a_sample_count_below_one_is_refused_before_any_point_is_drawn(monkeypatch, call, name):
    # Zero points would compare two empty lists and pass vacuously.
    def refuse(*_args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr("spfk.report.SeededSampler", refuse)
    for points in (0, -2):
        with pytest.raises(ValueError, match=f"^{name} needs points >= 1, got points={points}$"):
            call(points)
    with pytest.raises(TypeError, match="^expected an integer, got True$"):
        call(True)


@pytest.mark.parametrize("call,name", _SAMPLED_CALLS)
def test_one_sample_point_gives_one_term(call, name):
    report = call(1)
    assert report.identity == name.lower()
    assert (report.lhs_terms, report.rhs_terms) == (1, 1)
    assert call(None).lhs_terms == 3  # the default count


def test_vi_simple_cases():
    r12 = verify_VI((1, 2), N=8, seed=42)
    assert r12.equal
    zero = verify_VI((1, 1), N=8, seed=42)
    assert zero.equal
    # the (1,1) case is identically zero on both sides
    assert zero.lhs_digest == zero.rhs_digest
    quad = verify_VI((1, 2, 3, 4), N=8, seed=42)
    assert quad.equal


def test_vi_odd_length():
    assert verify_VI((2, 1, 4), N=8, seed=42).equal
    assert verify_VI((3,), N=8, seed=42).equal


def test_vi_value_matches_direct_quasimonomial_sum():
    # independent dense evaluation of M_J at one point
    parts = (1, 2)
    sampler = SeededSampler(mix_seed(42, ("vi", parts, 8, 0)))
    x = sampler.positive_distinct(8, 200)

    def M(J):
        total = Fraction(0)
        for idx in itertools.combinations(range(8), len(J)):
            prod = Fraction(1)
            for pos, e in zip(idx, J):
                prod *= x[pos] ** e
            total += prod
        return total

    direct = M((1, 2)) - M((2, 1))
    report = verify_VI(parts, N=8, seed=42, points=1)
    import hashlib

    canonical = f"{direct.numerator}/{direct.denominator}"
    assert report.lhs_digest == hashlib.sha256(canonical.encode()).hexdigest()


def _quasimonomial_fraction(parts, x) -> Fraction:
    # The Fraction DP over the point itself, no denominators cleared.
    r = len(parts)
    dp = [Fraction(1)] + [Fraction(0)] * r
    for i, xi in enumerate(x):
        for depth in range(min(i + 1, r), 0, -1):
            dp[depth] += dp[depth - 1] * xi ** parts[depth - 1]
    return dp[r]


def _vi_sides_by_fractions(parts, x):
    """Both sides of VI in Fractions: the signed sum, and the Pfaffian of
    q(a, b) = M_ab - M_ba, expanded along the singles for odd length."""
    M = lambda J: _quasimonomial_fraction(J, x)
    perms = signed_permutations(len(parts))
    lhs = sum(sign * M([parts[p - 1] for p in perm]) for perm, sign in perms)

    def pf_of(ps):
        entry = lambda kl: M((ps[kl[0] - 1], ps[kl[1] - 1])) - M((ps[kl[1] - 1], ps[kl[0] - 1]))
        return pfaffian(AltTensor.from_function(QQ, 2, len(ps), entry))

    if len(parts) % 2 == 0:
        return lhs, pf_of(parts)
    rhs = sum(
        (-1) ** kk * M((parts[kk],)) * pf_of(parts[:kk] + parts[kk + 1 :])
        for kk in range(len(parts))
    )
    return lhs, rhs


def test_quasimonomial_fraction_oracle_matches_the_dense_sum():
    x = [Fraction(3, 2), Fraction(5), Fraction(2, 7), Fraction(9, 4), Fraction(1, 3)]
    for J in ((1,), (2, 1), (1, 3, 2), (4, 1, 2, 3)):
        dense = sum(
            math.prod(x[i] ** e for i, e in zip(idx, J))
            for idx in itertools.combinations(range(len(x)), len(J))
        )
        assert _quasimonomial_fraction(J, x) == dense, J


def _vi_values(parts, x):
    return tuple(side() for side in identities._vi_sides(parts, x))


def _suite_vi_compositions():
    return [case.param_dict()["parts"] for case in suite.default_cases() if case.runner == "vi"]


def test_vi_integer_sides_match_the_fraction_oracle_on_every_suite_composition():
    compositions = _suite_vi_compositions()
    assert len(compositions) == 65
    for parts in compositions:
        x = SeededSampler(mix_seed(42, ("vi", parts, 8, 0))).positive_distinct(8, _SAMPLE_BOUND)
        assert math.lcm(*(v.denominator for v in x)) > 1
        lhs, rhs = _vi_values(parts, x)
        want_lhs, want_rhs = _vi_sides_by_fractions(parts, x)
        assert lhs == want_lhs, parts
        assert rhs == want_rhs, parts


def test_vi_sides_scale_by_their_own_degree():
    # M_J(x / c) = c^-|J| M_J(x): both sides follow the homogeneity separately.
    x = [Fraction(v) for v in (2, 3, 5, 7, 11, 13)]
    for parts in ((1, 2), (2, 1, 4), (3, 1, 4, 2), (4,)):
        lhs, rhs = _vi_values(parts, x)
        assert (lhs, rhs) == _vi_sides_by_fractions(parts, x)
        assert rhs and lhs == rhs
        c = Fraction(7, 3)
        scaled = _vi_values(parts, [v / c for v in x])
        assert scaled == (lhs / c ** sum(parts), rhs / c ** sum(parts)), parts


def test_vi_caps():
    with pytest.raises(ValueError, match="size cap"):
        verify_VI((1, 2, 3, 4, 1), N=8)
    with pytest.raises(ValueError, match="size cap"):
        verify_VI((5,), N=8)
    with pytest.raises(ValueError, match="size cap"):
        verify_VI((1,), N=9)


def test_vandermonde_n1_trivial():
    report = verify_vandermonde_average(3, 1, 2, seed=42)
    assert report.equal


def test_vandermonde_m1_determinant_form_is_part_of_the_right_side(monkeypatch):
    # A wrong determinant form alone makes the check fail, as a second
    # right-side value next to the hyperpfaffian one.
    real = identities.determinant
    monkeypatch.setattr(identities, "determinant", lambda M: real(M) + 1)
    report = verify_vandermonde_average(2, 2, 1, seed=42)
    assert not report.equal
    assert (report.lhs_terms, report.rhs_terms) == (1, 2)
    assert verify_vandermonde_average(2, 2, 2, seed=42).equal  # m = 2 has no such form


def test_vandermonde_closed_form_2_2_1():
    y = [Fraction(1), Fraction(2)]
    report = verify_vandermonde_average(2, 2, 1, y=y, seed=42)
    assert report.equal
    # direct brute force: average of (y_t2 - y_t1)^2 over 4 tuples = 1/2
    total = sum((y[b] - y[a]) ** 2 for a in range(2) for b in range(2))
    assert Fraction(total, 4) == Fraction(1, 2)


@pytest.mark.parametrize("N,n,m", [(2, 2, 1), (3, 2, 1), (3, 3, 1), (2, 2, 2), (3, 2, 2)])
def test_vandermonde_acceptance_tuples(N, n, m):
    assert verify_vandermonde_average(N, n, m, seed=42).equal


def test_vandermonde_caps():
    with pytest.raises(ValueError, match="size cap"):
        verify_vandermonde_average(2, 20, 1)
    with pytest.raises(ValueError, match="size cap"):
        verify_vandermonde_average(2, 3, 2)


def test_vandermonde_y_of_the_wrong_length_is_refused_before_any_work(monkeypatch):
    def refuse(*_):
        raise AssertionError("a side ran")

    monkeypatch.setattr(identities, "hyperpfaffian", refuse)
    monkeypatch.setattr(identities, "determinant", refuse)
    expected = "VANDERMONDE needs N values of y, got y=[1, 5/2] for N=3"
    with pytest.raises(ValueError) as info:
        verify_vandermonde_average(3, 2, 1, y=[1, Fraction(5, 2)])
    assert str(info.value) == expected


def test_reports_are_deterministic():
    a = verify_rational_identity("SCHUR", 2, seed=42)
    b = verify_rational_identity("SCHUR", 2, seed=42)
    assert (a.lhs_digest, a.rhs_digest) == (b.lhs_digest, b.rhs_digest)
    c = verify_rational_identity("SCHUR", 2, seed=43)
    assert a.lhs_digest != c.lhs_digest
    w1 = verify_shuffle_wick("PFAB", 2)
    w2 = verify_shuffle_wick("PFAB", 2)
    assert w1.lhs_digest == w2.lhs_digest == w1.rhs_digest


def test_counterexample_only_on_failure():
    ok = verify_shuffle_wick("FHAFF1", 2)
    assert ok.counterexample is None
    bad = verify_shuffle_wick("FHAFF1", 2, coeff="paper")
    assert bad.counterexample is not None
    lhs_str, rhs_str = bad.counterexample
    assert lhs_str != rhs_str


class _Watched(FreePoly):
    # FreePoly has __slots__, so a weak reference needs a slot of its own.
    __slots__ = ("__weakref__",)


def _watched_row(rhs_terms):
    """A one-row table whose left side is 1*(0,1) + 2*(1,0) and whose right
    side is a _Watched poly on ``rhs_terms``, with a weakref to it kept."""
    refs = []

    def rhs():
        poly = _Watched(rhs_terms)
        refs.append(weakref.ref(poly))
        return poly

    def sides(_params, _seed):
        return {}, lambda: FreePoly({(0, 1): 1, (1, 0): 2}), rhs

    return {"watched": Check(sides, "WATCHED", {}, ({}, {}))}, refs


def test_an_equal_check_frees_its_right_side_before_formatting(monkeypatch):
    table, refs = _watched_row({(1, 0): 2, (0, 1): 1})
    alive = []
    formatter = FreePoly.canonical_string

    def watched_format(poly):
        alive.append(refs[0]() is not None)
        return formatter(poly)

    monkeypatch.setattr(FreePoly, "canonical_string", watched_format)
    report = run_check(table, "watched", {})
    assert report.equal and report.lhs_terms == report.rhs_terms == 2
    assert alive == [False]
    assert report.lhs_digest == report.rhs_digest == digest("1/1:0.1;2/1:1.0")


def test_an_unequal_check_reports_both_canonical_strings():
    table, _refs = _watched_row({(0, 1): 1})
    report = run_check(table, "watched", {})
    assert not report.equal and (report.lhs_terms, report.rhs_terms) == (2, 1)
    assert report.counterexample == ("1/1:0.1;2/1:1.0", "1/1:0.1")
    assert report.lhs_digest == digest("1/1:0.1;2/1:1.0")
    assert report.rhs_digest == digest("1/1:0.1")


def _collector_row(raising: str):
    """A one-row table whose sides record ``gc.isenabled()`` as they run;
    the side named ``raising`` raises after recording."""
    seen = []

    def side(name):
        def run():
            seen.append(gc.isenabled())
            if name == raising:
                raise RuntimeError(f"{name} failed")
            return FreePoly({(0, 1): 1})

        return run

    def sides(_params, _seed):
        return {}, side("lhs"), side("rhs")

    return {"collector": Check(sides, "COLLECTOR", {}, ({}, {}))}, seen


@pytest.mark.parametrize("raising", ("neither", "lhs", "rhs"))
@pytest.mark.parametrize("collecting", (True, False))
def test_run_check_pauses_the_collector_and_leaves_it_as_found(collecting, raising):
    table, seen = _collector_row(raising)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if raising == "neither":
            assert run_check(table, "collector", {}).equal
        else:
            with pytest.raises(RuntimeError, match=f"^{raising} failed$"):
                run_check(table, "collector", {})
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert after is collecting
    assert seen == [False] * (1 if raising == "lhs" else 2)


# Points with mixed denominators, negative values, no values and one value.
_SCHUR_POINTS = (
    MIXED,
    (Fraction(-3, 2), Fraction(5, 7), 2, Fraction(1, 3), Fraction(-9, 4)),
    (),
    (Fraction(4, 9),),
)


def test_schur_product_does_no_fraction_arithmetic(monkeypatch):
    # The products run on the cleared point and one Fraction is built, for
    # an int and for a Fraction factor: a Fraction sum, product or quotient
    # anywhere in it raises here.  Each value, from a list or an iterator,
    # must equal the Fraction loop's.
    factors = (1, 3, Fraction(-2, 7))
    refuse_fraction_arithmetic(monkeypatch)
    got = [
        (identities._schur_product(x, c), identities._schur_product(iter(x), c))
        for x in _SCHUR_POINTS
        for c in factors
    ]
    with pytest.raises(ZeroDivisionError):
        identities._schur_product([Fraction(1, 2), Fraction(-1, 2)])
    monkeypatch.undo()
    assert got == [(schur_product_loop(x, c),) * 2 for x in _SCHUR_POINTS for c in factors]
    assert all(type(value) is Fraction for pair in got for value in pair)


# Points with mixed denominators, some given over a negative denominator and
# some negative, whose partial sums in any order are nonzero.
_SIGNED_POINT = (
    Fraction(3, 2), Fraction(5, -7), 2, Fraction(-1, -3), Fraction(11, 4), Fraction(9, -8),
    Fraction(13, 6), 6, Fraction(17, 5), Fraction(-4, 9), Fraction(7, 3), Fraction(1, 10),
)


@pytest.mark.parametrize("parts", ((1, 2), (2, 1, 3), (3, 1, 4, 2)), ids=("12", "213", "3142"))
def test_vi_group_form_does_no_fraction_arithmetic(monkeypatch, parts):
    # VI's right side is group_form over QQ of its pair entries, each two
    # values summed over their lcm into one Fraction (a bordered first row of
    # singles at an odd length), so a Fraction sum, product, quotient or
    # negation anywhere in it raises here.  It equals the form whose entries
    # add one Fraction per permutation.
    x = _SIGNED_POINT[:8]
    with monkeypatch.context() as patch:
        patch.setattr(identities, "group_form", lambda _ring, _order, _g, value_of, *_: value_of)
        value_of = identities._vi_sides(parts, x)[1]()
    _lhs, rhs = identities._vi_sides(parts, x)
    refuse_fraction_arithmetic(monkeypatch)
    got = rhs()
    monkeypatch.undo()
    assert got == group_form_loop(len(parts), 2, value_of, True, True) != 0


class _FixedPoint:
    # A sampler whose one draw is the given batch.
    def __init__(self, batch):
        self.batch = list(batch)

    def positive_distinct(self, count, _bound):
        assert count == len(self.batch)
        return self.batch


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize("start", (0, 6), ids=["head", "tail"])
def test_arq_sides_do_no_fraction_arithmetic(monkeypatch, m, start):
    # ARQ clears x and (a, b) once: the q and x-power products run on ints,
    # each antisymmetrisation is one QQ.sum and each side builds one
    # Fraction, so a Fraction sum, product, quotient or negation anywhere in
    # either side raises here.  The left side keeps one Fraction built per
    # permutation, R times its int q product, beside r_value's own.  Both
    # sides equal the Fraction loop's.
    d = 2 * m
    batch = (_SIGNED_POINT + _SIGNED_POINT)[start : start + 3 * d]
    lhs, rhs = identities._rat_arq(m, _FixedPoint(batch), None)
    refuse_fraction_arithmetic(monkeypatch)
    got = (lhs(), rhs())
    monkeypatch.undo()
    assert got == arq_loop(batch[:d], batch[d : 2 * d], batch[2 * d :])
    assert got[0] == got[1] != 0
    assert all(type(value) is Fraction for value in got)
