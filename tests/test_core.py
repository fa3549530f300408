import functools
import json
import math
import operator
import pathlib
from fractions import Fraction

import pytest
import sympy as sp

from spfk import core, identities, integrals, report, suite
from spfk.core import (
    QQ,
    ZZ,
    Ring,
    SeededSampler,
    clear_denominators,
    double_factorial_coeff,
    integer,
    mix_seed,
)
from spfk.freealg import ANTISHUFFLE_RING, SHUFFLE_RING, FreePoly

from oracles import mix_seed_fold, refuse_fraction_arithmetic
from test_symbolic_ring import SYMPY_RING

GOLDEN = pathlib.Path(__file__).parent / "golden"


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
    assert double_factorial_coeff(n, "corrected")[0] == expected
    assert double_factorial_coeff(n, "corrected")[0] == _matchings(tuple(range(2 * n)))


def test_even_double_factorial():
    assert [double_factorial_coeff(n, "paper")[0] for n in range(4)] == [1, 2, 8, 48]
    with pytest.raises(ValueError):
        double_factorial_coeff(-1, "corrected")
    with pytest.raises(ValueError):
        double_factorial_coeff(-1, "paper")


def test_double_factorial_coeff_conventions():
    assert [double_factorial_coeff(n, "corrected") for n in (0, 3)] == [
        (1, "(2n-1)!!"), (15, "(2n-1)!!")
    ]
    assert [double_factorial_coeff(n, "paper") for n in (0, 3)] == [(1, "(2n)!!"), (48, "(2n)!!")]
    with pytest.raises(ValueError, match="coeff must be 'corrected' or 'paper'"):
        double_factorial_coeff(2, "bogus")


def test_sampler_deterministic():
    a = SeededSampler(42).positive_distinct(3, 100)
    b = SeededSampler(42).positive_distinct(3, 100)
    assert a == b
    assert len(set(a)) == 3
    assert all(v > 0 for v in a)
    c = SeededSampler(43).positive_distinct(3, 100)
    assert a != c


def test_sampler_bounds_and_errors():
    vals = SeededSampler(7).positive_distinct(10, 10)
    assert len(set(vals)) == 10
    for v in vals:
        assert 1 <= v.numerator <= 10 and 1 <= v.denominator <= 10
    with pytest.raises(ValueError):
        SeededSampler(7).positive_distinct(5, 4)
    with pytest.raises(ValueError):
        SeededSampler(7).positive_distinct(0, 4)


def test_next_int_refuses_a_bound_below_one():
    with pytest.raises(ValueError, match="^bound must be >= 1$"):
        SeededSampler(7).next_int(0)


def test_distinct_keeps_first_draws_in_order():
    draws = iter([3, 1, 3, 2, 1, 5])
    assert SeededSampler(7).distinct(3, lambda: next(draws)) == [3, 1, 2]
    assert next(draws) == 1  # nothing past the third distinct value is drawn


def test_distinct_keeps_the_first_of_equal_int_and_fraction_draws():
    draws = iter([Fraction(1, 2), 2, Fraction(2), Fraction(2, 4), -3, 7])
    got = SeededSampler(7).distinct(3, lambda: next(draws))
    assert got == [Fraction(1, 2), 2, -3]
    assert list(map(type, got)) == [Fraction, int, int]
    assert next(draws) == 7


def test_distinct_of_zero_values_draws_nothing():
    def refuse():
        raise AssertionError("drew a value")

    assert SeededSampler(7).distinct(0, refuse) == []


def test_sampler_golden_file():
    # The first 64 samples of seed 42 are the platform-independence contract.
    expected = json.loads((GOLDEN / "sampler_seed42.json").read_text())
    got = [f"{v.numerator}/{v.denominator}" for v in SeededSampler(42).positive_distinct(64, 1000)]
    assert got == expected


def test_child_seeds_independent():
    c1 = SeededSampler(mix_seed(42, ("check", 1)))
    c2 = SeededSampler(mix_seed(42, ("check", 2)))
    assert c1.seed != c2.seed
    assert mix_seed(42, "a") != mix_seed(42, "b")
    assert mix_seed(42, ("x", 1)) == mix_seed(42, ("x", 1))


# mix_seed's values, pinned: the suite's samples, and so the golden report,
# follow from them.  The seed is read mod 2^64 (-1 is 2^64 - 1).
@pytest.mark.parametrize(
    "seed,tag,value",
    [
        (42, (), 4585920040508063452),
        (42, "", 14244689599190620302),
        (42, 0, 1315597890332495672),
        (42, -1, 4490333183104252778),
        (42, 2**64, 16714881957025213475),
        (42, -(2**64), 555795608101356270),
        (42, b"\x00\xff", 10755244764638106716),
        (42, "é", 18155888414579775966),
        (42, ("vi", (1, 2), 8, 0), 10997211037229705523),
        (42, ["vi", [1, 2], 8, 0], 10997211037229705523),  # a list folds as the equal tuple
        (0, (), 16608969375651130126),
        (-1, ("vi", (1, 2), 8, 0), 18442143990578589494),
        (2**64 - 1, ("vi", (1, 2), 8, 0), 18442143990578589494),
        (10**30, "", 3783628167981254675),
    ],
)
def test_mix_seed_values(seed, tag, value):
    assert mix_seed(seed, tag) == value


def test_memoised_mix_seed_is_the_plain_fold_on_the_suites_tags(monkeypatch):
    # Every (seed, tag) the default and --paranoid suites draw, caught where
    # report, identities and integrals look mix_seed up, gives the per-byte
    # fold's value: first with the memo of tag heads cold, then warm, when
    # every head is served from the memo.
    drawn = []

    def record(seed, tag):
        drawn.append((seed, tag))
        return mix_seed(seed, tag)

    for module in (report, identities, integrals):
        monkeypatch.setattr(module, "mix_seed", record)
    for paranoid in (False, True):
        assert suite.run_suite(suite.SuiteConfig(paranoid=paranoid))[1]
    monkeypatch.undo()
    assert len(drawn) > 1000
    core._fold_head.cache_clear()
    cold = [mix_seed(seed, tag) for seed, tag in drawn]
    misses = core._fold_head.cache_info().misses
    warm = [mix_seed(seed, tag) for seed, tag in drawn]
    assert cold == warm == [mix_seed_fold(seed, tag) for seed, tag in drawn]
    assert 0 < misses == core._fold_head.cache_info().misses < len(drawn)
    assert core._fold_head.cache_info().maxsize is not None


def test_mix_seed_refuses_a_float_tag():
    with pytest.raises(TypeError, match="unsupported tag type: float"):
        mix_seed(42, 1.5)
    with pytest.raises(TypeError, match="unsupported tag type: float"):
        mix_seed(42, ("vi", 1.5))


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


def _word(*letters, coeff=1):
    return FreePoly.from_word(letters, coeff)


_X, _Y, _Z = sp.symbols("x y z")
_UNIT = FreePoly.unit()
# (ring, case, pairs, whether the sum cancels to zero).  In the free rings
# "repeated" shuffles words that share a letter (the recursion), "distinct"
# words with no letter in common (the merge table), and "mixed" both into
# one sum.  A single letter has odd degree, so in the antishuffle ring
# mul(a, b) = -mul(b, a) for the letters of "distinct": a sum that swapped
# its factors would differ from the fold there, and "cancels" cancels only
# because both orders meet.  "cancels repeated" cancels word for word within
# the recursion alone.
_DOT_CASES = [
    (SHUFFLE_RING, "repeated", [(_word(0, 1) + _word(1, coeff=2), _word(0) - _word(1, 1))], False),
    (SHUFFLE_RING, "distinct", [(_word(0, 1), _word(2)), (_word(3, coeff=3), _word(4, 5))], False),
    (
        SHUFFLE_RING,
        "mixed",
        [(_word(0, 1), _word(2)), (_word(0), _word(0, 2)), (_word(2, 0), _word(1, coeff=-1))],
        False,
    ),
    (SHUFFLE_RING, "empty word", [(_UNIT, _word(0)), (_word(1), _UNIT), (_UNIT, _UNIT)], False),
    (
        SHUFFLE_RING,
        "cancels",
        [
            (_word(0, 1), _word(2)),
            (_word(0), _word(0)),
            (_word(2), _word(0, 1, coeff=-1)),
            (_word(0, 0, coeff=-2), _UNIT),
        ],
        True,
    ),
    (SHUFFLE_RING, "cancels repeated",
     [(_word(0), _word(0, 1)), (_word(0, 1, coeff=-1), _word(0))], True),
    (SHUFFLE_RING, "no pairs", [], True),
    (ANTISHUFFLE_RING, "repeated", [(_word(0), _word(0, 1)), (_word(1, 0), _word(0))], False),
    (ANTISHUFFLE_RING, "distinct", [(_word(0), _word(1)), (_word(2, 3, 5), _word(4))], False),
    (
        ANTISHUFFLE_RING,
        "mixed",
        [(_word(0), _word(1)), (_word(0), _word(0, 2)), (_word(1, 2), _word(0, coeff=5))],
        False,
    ),
    (ANTISHUFFLE_RING, "empty word", [(_UNIT, _word(0)), (_word(1), _UNIT)], False),
    (
        ANTISHUFFLE_RING,
        "cancels",
        [
            (_word(0), _word(1)),
            (_word(1), _word(0)),
            (_word(0, 2, 1), _word(3)),
            (_word(3), _word(0, 2, 1)),
        ],
        True,
    ),
    (ANTISHUFFLE_RING, "cancels repeated",
     [(_word(0), _word(0, 1)), (_word(0, 1, coeff=-1), _word(0))], True),
    (ANTISHUFFLE_RING, "no pairs", [], True),
    (QQ, "values", [(Fraction(1, 2), Fraction(3)), (Fraction(-2, 3), Fraction(5, 7))], False),
    (QQ, "cancels", [(Fraction(1, 2), Fraction(4)), (Fraction(-1), Fraction(2))], True),
    (QQ, "no pairs", [], True),
    (ZZ, "values", [(2, 3), (-4, 5), (7, 1)], False),
    (ZZ, "cancels", [(2, 6), (-3, 4)], True),
    (ZZ, "no pairs", [], True),
    (SYMPY_RING, "values", [(_X + 1, _Y), (_Z, _X - _Y)], False),
    (SYMPY_RING, "cancels", [(_X, _Y + _Z), (-_Y - _Z, _X)], True),
    (SYMPY_RING, "no pairs", [], True),
]
_RING_NAMES = {
    SHUFFLE_RING: "shuffle",
    ANTISHUFFLE_RING: "antishuffle",
    QQ: "qq",
    ZZ: "zz",
    SYMPY_RING: "sympy",
}


@pytest.mark.parametrize(
    "ring, pairs, cancels",
    [(ring, pairs, cancels) for ring, _name, pairs, cancels in _DOT_CASES],
    ids=[f"{_RING_NAMES[ring]}-{name}" for ring, name, *_ in _DOT_CASES],
)
def test_dot_equals_the_fold_of_mul_and_add(ring, pairs, cancels):
    got = ring.dot(pairs)
    fold = functools.reduce(ring.add, [ring.mul(a, b) for a, b in pairs], ring.zero)
    assert ring.eq(got, fold)
    assert ring.is_zero(got) == cancels
    if isinstance(got, FreePoly):
        assert all(got._terms.values())


def test_integer_ring_is_the_int_operators():
    # Python's operators are the Ring defaults; QQ and ZZ name only 0 and 1.
    for ring in (ZZ, QQ):
        assert (ring.zero, ring.one) == (0, 1)
        assert ring.add is operator.add and ring.neg is operator.neg
        assert ring.mul is operator.mul and ring.eq is operator.eq
        assert ring.is_zero is operator.not_
        assert (ring.add(2, -5), ring.neg(3), ring.mul(-4, 6)) == (-3, -3, -24)
        assert ring.eq(7, 7) and not ring.eq(7, -7)
        assert ring.is_zero(ring.zero) and not ring.is_zero(-1)
    assert QQ.div_int(3, 6) == QQ.div_int(Fraction(3, 2), 3) == Fraction(1, 2)
    with pytest.raises(NotImplementedError):
        ZZ.div_int(4, 2)


# (values, signs, sum) for Ring.sum: ints among Fractions, mixed and negative
# denominators, signed values, cancelling sums and no values.
_SUM_CASES = {
    "ints-and-fractions": ([3, Fraction(1, 2), -2, Fraction(5, 3)], None, Fraction(19, 6)),
    "mixed": ([Fraction(7, 12), Fraction(-5, 8), Fraction(3, 10)], None, Fraction(31, 120)),
    "negative": ([Fraction(3, -4), Fraction(-5, -6), Fraction(1, -9)], [1, -1, -1],
                 Fraction(-53, 36)),
    "signed": ([Fraction(2, 5), 4, Fraction(-7, 15)], [-1, 1, -1], Fraction(61, 15)),
    "cancels": ([Fraction(1, 6), Fraction(1, 3), Fraction(-1, 2)], None, Fraction(0)),
    "cancels-signed": ([Fraction(3, 4), 1, Fraction(1, 4)], [1, -1, 1], Fraction(0)),
    "empty": ([], None, QQ.zero),
    "empty-signed": ([], [], QQ.zero),
}


@pytest.mark.parametrize("values, signs, total", _SUM_CASES.values(), ids=_SUM_CASES.keys())
def test_rational_sum_is_the_fold_of_add(monkeypatch, values, signs, total):
    # QQ.sum takes one int sum over the values' lcm and builds one Fraction:
    # a Fraction operator anywhere in it raises here.  From a list or an
    # iterator it equals the fold of add over the signed values, which is
    # the Ring default on QQ.
    signed = values if signs is None else [v if s > 0 else -v for v, s in zip(values, signs)]
    fold = functools.reduce(operator.add, signed, QQ.zero)
    default = Ring.sum(QQ, values, signs)
    refuse_fraction_arithmetic(monkeypatch)
    got = [QQ.sum(values, signs), QQ.sum(iter(values), signs)]
    monkeypatch.undo()
    assert got == [total, total] == [fold, fold] == [default, default]
    assert all(type(value) is Fraction for value in got)


def test_ring_sum_default_is_the_fold_on_the_shuffle_ring():
    words = [_word(0, 1), _word(1, 0, coeff=Fraction(-2, 3)), _word(0, 1, coeff=-1), _word(2)]
    for signs in (None, [1, -1, 1, -1], [-1, -1, -1, 1], [1, 1, 1, 1]):
        signed = words if signs is None else [w if s > 0 else -w for w, s in zip(words, signs)]
        fold = functools.reduce(SHUFFLE_RING.add, signed, SHUFFLE_RING.zero)
        assert SHUFFLE_RING.sum(iter(words), signs) == fold, signs
    assert SHUFFLE_RING.is_zero(SHUFFLE_RING.sum([words[0], words[0]], [1, -1]))
    assert SHUFFLE_RING.sum([]) == SHUFFLE_RING.zero


@pytest.mark.parametrize(
    "values, scale, ints",
    [
        ([], 1, []),
        ([3, -2], 1, [3, -2]),
        ([Fraction(1, 2), Fraction(-2, 3), 5], 6, [3, -4, 30]),
        ([Fraction(4, 6), Fraction(1, 4), Fraction(0)], 12, [8, 3, 0]),
        ([Fraction(-7, 10)] * 2, 10, [-7, -7]),
        ([Fraction(1, 2), Fraction(5, 3)], 6, [3, 10]),
        ([-3, Fraction(-5, 4), Fraction(1, 6)], 12, [-36, -15, 2]),
    ],
    ids=["empty", "ints", "mixed", "reduced", "repeated", "fractions", "negative"],
)
def test_clear_denominators(values, scale, ints):
    got_scale, got_ints = clear_denominators(iter(values))
    assert (got_scale, got_ints) == (scale, ints)
    assert [Fraction(i, got_scale) for i in got_ints] == [Fraction(v) for v in values]


@pytest.mark.parametrize("bad", (1.5, 2.0), ids=["float", "integral-float"])
def test_clear_denominators_refuses_a_float_before_any_work(monkeypatch, bad):
    def no_work(*_args):
        raise AssertionError("took the lcm of a point holding a float")

    monkeypatch.setattr(math, "lcm", no_work)
    with pytest.raises(TypeError, match="ints and Fractions, got float"):
        clear_denominators(iter([Fraction(1, 2), 3, bad]))


@pytest.mark.parametrize(
    "value, expected",
    [(-5, -5), (2**70, 2**70), ("-0", 0), ("007", 7), ("-12", -12)],
    ids=["negative-int", "big-int", "minus-zero", "leading-zeros", "negative-string"],
)
def test_integer_reads_an_int_or_a_decimal_string(value, expected):
    got = integer(value)
    assert got == expected and type(got) is int


@pytest.mark.parametrize(
    "value, error, message",
    [
        (True, TypeError, "expected an integer, got True"),
        (1.0, TypeError, "expected an integer, got 1.0"),
        (None, TypeError, "expected an integer, got None"),
        ("", ValueError, "expected a decimal string, got ''"),
        ("-", ValueError, "expected a decimal string, got '-'"),
        ("--1", ValueError, "expected a decimal string, got '--1'"),
        ("1_0", ValueError, "expected a decimal string, got '1_0'"),
        ("+1", ValueError, "expected a decimal string, got '+1'"),
        (" 3 ", ValueError, "expected a decimal string, got ' 3 '"),
        ("\u0663", ValueError, "expected a decimal string, got '\u0663'"),
    ],
    ids=["bool", "float", "none", "empty", "minus", "two-minuses", "underscore", "plus", "spaces",
         "arabic-indic"],
)
def test_integer_refuses_every_other_value(value, error, message):
    with pytest.raises(error) as exc:
        integer(value)
    assert str(exc.value) == message
