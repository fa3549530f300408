import itertools
from fractions import Fraction

import pytest

from spfk.core import QQ, SeededSampler
from spfk.freealg import SHUFFLE_RING, FreePoly
from spfk.multilinear import GrassmannElement, SquareZeroElement, mask_of
from spfk.tensors import AltTensor, SymTensor, hafnian, pfaffian

from oracles import (
    berezin_extract,
    exp_even,
    grassmann_generators,
    ordered_product,
    sz_generators,
    wedge_sign,
)


def test_wedge_examples():
    e1, e2 = grassmann_generators(QQ, 2)
    assert (e1 * e2).coeff(mask_of((1, 2))) == 1
    assert (e2 * e1).coeff(mask_of((1, 2))) == -1
    assert not (e1 * e2 * e1).num_terms()


def test_sz_examples():
    x1, x2 = sz_generators(QQ, 2)
    assert (x1 * x2).coeff(mask_of((1, 2))) == 1
    assert x2 * x1 == x1 * x2
    assert not (x1 * x1).num_terms()


def test_wedge_sign_is_inversion_parity():
    # {1,3} * {2,4}: single inversion (3 before 2)
    assert wedge_sign(mask_of((1, 3)), mask_of((2, 4))) == -1
    assert wedge_sign(mask_of((1, 2)), mask_of((3, 4))) == 1
    assert wedge_sign(mask_of((1, 4)), mask_of((2, 3))) == 1


@pytest.mark.parametrize("cls, signed", ((GrassmannElement, True), (SquareZeroElement, False)))
def test_single_term_products_on_six_generators(cls, signed):
    # Every ordered pair of masks: the shared product against the pair-by-pair
    # wedge_sign (Grassmann) or +1 (square-zero); overlapping masks give zero.
    c = Fraction(3, 7)
    for a in range(1 << 6):
        left = cls(QQ, {a: c})
        for b in range(1 << 6):
            prod = left * cls(QQ, {b: Fraction(2)})
            if a & b:
                assert not prod.num_terms(), (a, b)
            else:
                sign = wedge_sign(a, b) if signed else 1
                assert prod.terms() == [(a | b, sign * 2 * c)], (a, b)


def _random_element(cls, sampler, ngen, nterms):
    terms = {}
    for _ in range(nterms):
        mask = sampler.next_int((1 << ngen) - 1)
        terms[mask] = Fraction(sampler.next_int(9) - 5)
    return cls(QQ, terms)


@pytest.mark.parametrize("cls", [GrassmannElement, SquareZeroElement])
def test_associativity_sampled(cls):
    sampler = SeededSampler(99)
    for _ in range(100):
        a = _random_element(cls, sampler, 6, 2)
        b = _random_element(cls, sampler, 6, 2)
        c = _random_element(cls, sampler, 6, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("cls", [GrassmannElement, SquareZeroElement])
def test_coeff_of_product_matches_the_product(cls):
    # Random non-homogeneous elements and the zero element, at every mask on
    # six generators and at masks that reach past both supports.
    sampler = SeededSampler(17)
    masks = list(range(1 << 6)) + [1 << 6, (1 << 7) | 3, (1 << 63) | 5]
    zero = cls(QQ)
    for _ in range(40):
        a = _random_element(cls, sampler, 6, 1 + sampler.next_int(8))
        b = _random_element(cls, sampler, 6, 1 + sampler.next_int(8))
        for left, right in ((a, b), (b, a), (a, zero), (zero, b)):
            prod = left * right
            for mask in masks:
                assert left.coeff_of_product(right, mask) == prod.coeff(mask), mask


def test_cancelling_product_stores_no_zero_term():
    e1, e2 = grassmann_generators(QQ, 2)
    assert ((e1 + e2) * (e1 + e2)).num_terms() == 0
    x1, x2 = sz_generators(QQ, 2)
    assert ((x1 + x2) * (x1 + -x2)).num_terms() == 0
    # x1 x2 and x2 x3 cancel; x1 x3 stays.
    x3 = SquareZeroElement(QQ, {1 << 2: QQ.one})
    assert ((x1 + x2 + x3) * (x1 + -x2 + x3)).terms() == [(0b101, 2)]


def test_graded_commutativity():
    sampler = SeededSampler(5)
    for _ in range(60):
        da, db = sampler.next_int(3), sampler.next_int(3)
        terms_a = {}
        terms_b = {}
        for _ in range(2):
            idx = tuple(sorted({sampler.next_int(6) for _ in range(da)}))
            if len(idx) == da:
                terms_a[mask_of(idx)] = Fraction(sampler.next_int(7) - 3)
            idx = tuple(sorted({sampler.next_int(6) for _ in range(db)}))
            if len(idx) == db:
                terms_b[mask_of(idx)] = Fraction(sampler.next_int(7) - 3)
        a = GrassmannElement(QQ, terms_a)
        b = GrassmannElement(QQ, terms_b)
        sign = (-1) ** (da * db)
        assert a * b == (b * a if sign > 0 else -(b * a))


def test_berezin_examples():
    T = GrassmannElement(QQ, {mask_of((1, 2)): Fraction(3)})
    assert berezin_extract(T, (1, 2)) == 3
    assert berezin_extract(T, (1, 3)) == 0
    q = Fraction(5, 7)
    H = GrassmannElement(QQ, {mask_of((1, 2)): q})
    assert berezin_extract(exp_even(H), (1, 2)) == q


def test_berezin_needs_increasing_indices():
    T = GrassmannElement(QQ, {mask_of((1, 2)): Fraction(1)})
    with pytest.raises(ValueError):
        berezin_extract(T, (2, 1))


def test_exp_even_examples():
    q12, q34 = Fraction(2), Fraction(-3)
    H = GrassmannElement(QQ, {mask_of((1, 2)): q12, mask_of((3, 4)): q34})
    e = exp_even(H)
    assert e.coeff(0) == 1
    assert e.coeff(mask_of((1, 2))) == q12
    assert e.coeff(mask_of((3, 4))) == q34
    assert e.coeff(mask_of((1, 2, 3, 4))) == q12 * q34
    inv = exp_even(-H)
    assert e * inv == GrassmannElement.one(QQ)


def test_exp_even_rejects_odd_terms():
    H = GrassmannElement(QQ, {mask_of((1,)): Fraction(1)})
    with pytest.raises(ValueError, match="non-central"):
        exp_even(H)
    with pytest.raises(ValueError, match="non-central"):
        exp_even(GrassmannElement.one(QQ))


def test_exp_even_square_zero():
    H = SquareZeroElement(QQ, {mask_of((1, 2)): Fraction(2), mask_of((2, 3)): Fraction(1)})
    e = exp_even(H)
    assert e.coeff(0) == 1
    assert e.coeff(mask_of((1, 2))) == 2
    # overlapping masks annihilate in the square term
    assert e.coeff(mask_of((1, 2, 3))) == 0


def test_ordered_product_examples():
    one = GrassmannElement.one(QQ)
    f1 = one + GrassmannElement(QQ, {mask_of((1, 2)): Fraction(1)})
    f2 = one + GrassmannElement(QQ, {mask_of((3, 4)): Fraction(1)})
    prod = ordered_product([f1, f2])
    assert prod.coeff(0) == 1
    assert prod.coeff(mask_of((1, 2))) == 1
    assert prod.coeff(mask_of((3, 4))) == 1
    assert prod.coeff(mask_of((1, 2, 3, 4))) == 1
    assert ordered_product([f1]) == f1
    with pytest.raises(ValueError):
        ordered_product([])


def test_ordered_product_quadratic_series_gives_pfaffian_expansion():
    # coefficient of eta_1..eta_4 in prod(1 + sum Q_ij eta_i eta_j)
    sampler = SeededSampler(11)
    q = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            q[(i, j)] = sampler.rational(50)
    factors = []
    one = GrassmannElement.one(QQ)
    for i in range(1, 5):
        quad = GrassmannElement(
            QQ, {mask_of((i, j)): q[(i, j)] for j in range(i + 1, 5)}
        )
        factors.append(one + quad)
    top = berezin_extract(ordered_product(factors), (1, 2, 3, 4))
    expected = q[(1, 2)] * q[(3, 4)] - q[(1, 3)] * q[(2, 4)] + q[(1, 4)] * q[(2, 3)]
    assert top == expected
    M = AltTensor(QQ, 2, 4, q)
    assert top == pfaffian(M)


def test_wick_formula_exp_of_quadratic():
    # berezin(exp(sum_{i<j} Q_ij eta_i eta_j), I) == Pf(Q_I) for all even I
    ngen = 8
    sampler = SeededSampler(13)
    q = {}
    for i in range(1, ngen + 1):
        for j in range(i + 1, ngen + 1):
            q[(i, j)] = sampler.rational(30)
    H = GrassmannElement(QQ, {mask_of(ij): c for ij, c in q.items()})
    T = exp_even(H)
    M = AltTensor(QQ, 2, ngen, q)
    for size in (0, 2, 4, 6, 8):
        for I in itertools.combinations(range(1, ngen + 1), size):
            assert berezin_extract(T, I) == pfaffian(M.restrict(I))


def test_sz_series_coefficients_are_hafnians():
    ngen = 8
    sampler = SeededSampler(17)
    q = {}
    for i in range(1, ngen + 1):
        for j in range(i + 1, ngen + 1):
            q[(i, j)] = sampler.rational(30)
    one = SquareZeroElement.one(QQ)
    factors = []
    for i in range(1, ngen + 1):
        quad = SquareZeroElement(QQ, {mask_of((i, j)): q[(i, j)] for j in range(i + 1, ngen + 1)})
        factors.append(one + quad)
    T = ordered_product(factors)
    S = SymTensor(QQ, 2, ngen, q)
    for size in (2, 4, 6, 8):
        for I in itertools.combinations(range(1, ngen + 1), size):
            assert berezin_extract(T, I) == hafnian(S.restrict(I))


def test_sz_exp_of_quadratic_gives_hafnians():
    # berezin(exp(sum_{i<j} Q_ij xi_i xi_j), I) == Hf(Q_I) for all even I
    ngen = 6
    sampler = SeededSampler(23)
    q = {}
    for i in range(1, ngen + 1):
        for j in range(i + 1, ngen + 1):
            q[(i, j)] = sampler.rational(30)
    H = SquareZeroElement(QQ, {mask_of(ij): c for ij, c in q.items()})
    assert H.num_terms() == len(q)
    T = exp_even(H)
    S = SymTensor(QQ, 2, ngen, q)
    for size in (0, 2, 4, 6):
        for I in itertools.combinations(range(1, ngen + 1), size):
            assert berezin_extract(T, I) == hafnian(S.restrict(I))
    pairs = itertools.combinations(range(1, 4), 2)
    assert not SquareZeroElement(QQ, {mask_of(ij): Fraction(0) for ij in pairs}).num_terms()


def test_linear_factor_series_coefficients():
    # T = prod(1 + x_i eta_i): t_I = prod x_i; matches the Pfaffian formulas
    # with pair entries x_i x_j for even I and the bordered sum for odd I.
    nvals = 5
    sampler = SeededSampler(19)
    x = sampler.positive_distinct(nvals, 50)
    one = GrassmannElement.one(QQ)
    factors = [
        one + GrassmannElement(QQ, {mask_of((i,)): x[i - 1]}) for i in range(1, nvals + 1)
    ]
    T = ordered_product(factors)
    for size in range(1, nvals + 1):
        for I in itertools.combinations(range(1, nvals + 1), size):
            t = berezin_extract(T, I)
            M = AltTensor.from_function(
                QQ, 2, size, lambda kl: x[I[kl[0] - 1] - 1] * x[I[kl[1] - 1] - 1]
            )
            if size % 2 == 0:
                assert t == pfaffian(M)
            else:
                total = Fraction(0)
                for pos in range(size):
                    keep = tuple(p + 1 for p in range(size) if p != pos)
                    total += (-1) ** pos * x[I[pos] - 1] * pfaffian(M.restrict(keep))
                assert t == total


def test_shuffle_ring_coefficients():
    # Grassmann algebra over the shuffle ring: the engine behind the symbolic checks
    a = FreePoly.from_word((0,))
    b = FreePoly.from_word((1,))
    e1, e2 = grassmann_generators(SHUFFLE_RING, 2)
    ea = e1 * GrassmannElement(SHUFFLE_RING, {0: a})
    eb = e2 * GrassmannElement(SHUFFLE_RING, {0: b})
    elem = ea * eb
    assert elem.coeff(mask_of((1, 2))) == FreePoly({(0, 1): 1, (1, 0): 1})


def test_capacity_error():
    with pytest.raises(ValueError, match="capacity"):
        GrassmannElement(QQ, {1 << 64: QQ.one})
    with pytest.raises(ValueError, match="capacity"):
        mask_of((65,))
