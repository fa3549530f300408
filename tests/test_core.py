import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spfk.core import (
    QQ,
    SeededSampler,
    double_factorial_coeff,
    even_double_factorial,
    mix_seed,
    normalize,
    odd_double_factorial,
    sample_positive_distinct,
)
from spfk.freealg import SHUFFLE_RING, FreePoly

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_normalize_examples():
    assert normalize(2, 4) == Fraction(1, 2)
    assert normalize(3, -6) == Fraction(-1, 2)
    assert normalize(0, 7) == Fraction(0, 1)


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        normalize(1, 0)


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12).filter(lambda d: d != 0))
def test_normalize_canonical(num, den):
    r = normalize(num, den)
    assert r.denominator > 0
    assert math.gcd(abs(r.numerator), r.denominator) == 1
    assert r * den == num


def _matchings(points):
    # independent brute-force count of perfect matchings
    if not points:
        return 1
    first, rest = points[0], points[1:]
    total = 0
    for i, partner in enumerate(rest):
        total += _matchings(rest[:i] + rest[i + 1 :])
    return total


@pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 3), (4, 105)])
def test_odd_double_factorial(n, expected):
    assert odd_double_factorial(n) == expected
    assert odd_double_factorial(n) == _matchings(tuple(range(2 * n)))


def test_even_double_factorial():
    assert [even_double_factorial(n) for n in range(4)] == [1, 2, 8, 48]
    with pytest.raises(ValueError):
        odd_double_factorial(-1)
    with pytest.raises(ValueError):
        even_double_factorial(-1)


def test_double_factorial_coeff_conventions():
    assert [double_factorial_coeff(n, "corrected") for n in (0, 3)] == [
        (1, "(2n-1)!!"), (15, "(2n-1)!!")
    ]
    assert [double_factorial_coeff(n, "paper") for n in (0, 3)] == [(1, "(2n)!!"), (48, "(2n)!!")]
    with pytest.raises(ValueError, match="coeff must be 'corrected' or 'paper'"):
        double_factorial_coeff(2, "bogus")


def test_sampler_deterministic():
    a = sample_positive_distinct(42, 3, 100)
    b = sample_positive_distinct(42, 3, 100)
    assert a == b
    assert len(set(a)) == 3
    assert all(v > 0 for v in a)
    c = sample_positive_distinct(43, 3, 100)
    assert a != c


def test_sampler_bounds_and_errors():
    vals = sample_positive_distinct(7, 10, 10)
    assert len(set(vals)) == 10
    for v in vals:
        assert 1 <= v.numerator <= 10 and 1 <= v.denominator <= 10
    with pytest.raises(ValueError):
        sample_positive_distinct(7, 5, 4)
    with pytest.raises(ValueError):
        sample_positive_distinct(7, 0, 4)


def test_sampler_golden_file():
    # The first 64 samples of seed 42 are the platform-independence contract.
    expected = json.loads((GOLDEN / "sampler_seed42.json").read_text())
    got = [f"{v.numerator}/{v.denominator}" for v in sample_positive_distinct(42, 64, 1000)]
    assert got == expected


def test_child_seeds_independent():
    s = SeededSampler(42)
    c1 = s.child(("check", 1))
    c2 = s.child(("check", 2))
    assert c1.seed != c2.seed
    assert mix_seed(42, "a") != mix_seed(42, "b")
    assert mix_seed(42, ("x", 1)) == mix_seed(42, ("x", 1))


def _ring_elements(ring, sampler, count):
    if ring is QQ:
        return sampler.positive_distinct(count, 1000)
    # small shuffle-ring elements: up to 2 words of length <= 3 on 4 letters
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(2):
            length = sampler.next_int(3)
            word = tuple(sampler.next_int(4) - 1 for _ in range(length))
            terms[word] = Fraction(sampler.next_int(9) - 5)
        out.append(FreePoly(terms))
    return out


@pytest.mark.parametrize("ring", [QQ, SHUFFLE_RING], ids=["rationals", "shuffle"])
def test_ring_axioms_on_sampled_triples(ring):
    sampler = SeededSampler(mix_seed(2024, ("ring", ring.__class__.__name__)))
    elems = _ring_elements(ring, sampler, 600)
    triples = [tuple(elems[3 * i : 3 * i + 3]) for i in range(200)]
    for a, b, c in triples:
        assert ring.eq(ring.add(a, b), ring.add(b, a))
        assert ring.eq(ring.add(ring.add(a, b), c), ring.add(a, ring.add(b, c)))
        assert ring.eq(ring.mul(a, b), ring.mul(b, a))
        assert ring.eq(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)))
        assert ring.eq(ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c)))
        assert ring.eq(ring.add(a, ring.zero), a)
        assert ring.eq(ring.mul(a, ring.one), a)
        assert ring.eq(ring.add(a, ring.neg(a)), ring.zero)
        fifth = ring.div_int(a, 5)
        assert ring.eq(ring.add(fifth, ring.add(fifth, ring.add(fifth, ring.add(fifth, fifth)))), a)
