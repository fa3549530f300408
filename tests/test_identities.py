import itertools
import math
from fractions import Fraction

import pytest

from spfk.core import QQ, SeededSampler, mix_seed
from spfk.freealg import FreePoly, antishuffle, shuffle
from spfk.identities import (
    verify_VI,
    verify_hyperpf_structure,
    verify_rational_identity,
    verify_shuffle_wick,
    verify_vandermonde_average,
)
from spfk.integrals import r_value
from spfk.tensors import AltTensor, hyperpfaffian, pfaffian, signed_permutations


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
    assert hafnian(Q) == full_shuffle.scale(3)


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


def test_antishuffle_n4_reduces_to_antishuffle_product():
    report = verify_shuffle_wick("ANTISHUFFLE", 4)
    assert report.equal
    prod = FreePoly.from_word((0,))
    for i in range(1, 4):
        prod = antishuffle(prod, FreePoly.from_word((i,)))
    acc = {}
    for perm, sign in signed_permutations(4):
        acc[tuple(p - 1 for p in perm)] = sign
    assert FreePoly(acc) == prod


@pytest.mark.parametrize("k,n", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_xipfashu(k, n):
    assert verify_shuffle_wick("XIPFASHU", n, k=k).equal


def test_xipfashu_term_count_sanity():
    # the permutation sum enumerates (2kn)! summands; both sides collapse to
    # the same canonical multiset (digest equality)
    assert len(signed_permutations(8)) == math.factorial(8) == 40320
    report = verify_shuffle_wick("XIPFASHU", 2, k=2)
    assert report.equal
    assert report.lhs_digest == report.rhs_digest
    assert report.lhs_terms == report.rhs_terms == 70  # ordered pairs of disjoint 4-sets
    # independent recount: collecting the 8! summands leaves 70 canonical
    # words, each with coefficient +-(4!)^2
    from spfk.freealg import LetterRegistry

    reg = LetterRegistry()
    acc = {}
    for perm, sign in signed_permutations(8):
        coeff = sign
        letters = []
        for block in (perm[:4], perm[4:]):
            lid, s = reg.alternating_letter(block)
            coeff *= s
            letters.append(lid)
        word = tuple(letters)
        acc[word] = acc.get(word, 0) + coeff
    assert len(acc) == 70
    assert all(abs(c) == 576 for c in acc.values())


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
    lhs = pfaffian(A + B)
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
    with pytest.raises(ValueError, match="needs t"):
        verify_hyperpf_structure("MINOR", 1, 2, seed=42)
    with pytest.raises(ValueError, match="MINOR needs t <= n"):
        verify_hyperpf_structure("MINOR", 1, 2, t=3, seed=42)


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
    with pytest.raises(ValueError, match="size cap"):
        verify_rational_identity("MEHTA2", 3)  # odd order not defined
    with pytest.raises(ValueError, match="size cap"):
        verify_rational_identity("ARQ", 3)
    with pytest.raises(ValueError, match="unknown variant"):
        verify_rational_identity("NOPE", 1)


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
