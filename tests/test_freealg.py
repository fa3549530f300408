import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spfk.freealg import (
    ANTISHUFFLE_RING,
    SHUFFLE_RING,
    FreePoly,
    ShuffleRing,
    q_shuffle,
    shuffle,
    sort_with_sign,
    _q_shuffle_words,
    _shuffle_words,
)

from oracles import antipode_convolution, canonical_string_per_term, mirror, scale, word_key

A, B, C = 0, 1, 2


def w(*letters):
    return FreePoly.from_word(tuple(letters))


words_st = st.lists(st.integers(0, 2), max_size=3).map(tuple)


def test_shuffle_examples():
    assert shuffle(w(A), w(B)) == w(A, B) + w(B, A)
    assert shuffle(w(A, B), w(C)) == w(A, B, C) + w(A, C, B) + w(C, A, B)
    assert shuffle(w(A), w(A)) == FreePoly.from_word((A, A), 2)
    assert shuffle(FreePoly.unit(), w(A, B)) == w(A, B)


def test_q_shuffle_examples():
    assert q_shuffle(w(A), w(B), -1) == w(A, B) - w(B, A)
    assert q_shuffle(w(A), w(B), 1) == shuffle(w(A), w(B))
    # hand-run recursion: ab sh_{-1} c = a(b sh c) + (-1)^2 c(ab)
    assert q_shuffle(w(A, B), w(C), -1) == w(A, B, C) - w(A, C, B) + w(C, A, B)
    # Any other q takes the same recursion; q = 0 keeps only the concatenation
    # and stores no zero coefficient.
    assert q_shuffle(w(A, B), w(C), 0) == w(A, B, C)
    assert q_shuffle(w(A, B), w(A), 2) == FreePoly({(A, A, B): 6, (A, B, A): 1})
    # a sh_{-1} a = aa - aa: the recursion's own loop drops the cancelled word.
    assert _shuffle_words((A,), (A,), -1) == {}
    cancelled = q_shuffle(w(A), w(A), -1)
    assert cancelled == FreePoly.zero() and cancelled.num_terms() == 0


def _antishuffle_oracle(u, v, qval=-1):
    """Interleavings with the inversion sign of crossing letter pairs; with
    qval=1 every interleaving counts +1 (the shuffle)."""
    out = {}
    p, q = len(u), len(v)
    for positions in itertools.combinations(range(p + q), p):
        merged = [None] * (p + q)
        for idx, pos in enumerate(positions):
            merged[pos] = ("u", idx)
        vslots = [i for i in range(p + q) if merged[i] is None]
        for idx, pos in enumerate(vslots):
            merged[pos] = ("v", idx)
        # count pairs where a v letter precedes a u letter
        crossings = 0
        for i in range(p + q):
            for j in range(i + 1, p + q):
                if merged[i][0] == "v" and merged[j][0] == "u":
                    crossings += 1
        word = tuple(u[i] if side == "u" else v[i] for side, i in merged)
        out[word] = out.get(word, 0) + qval ** crossings
    return FreePoly(out)


def _pairwise(p, q, product):
    """Bilinear extension of a word-pair product given as FreePoly values."""
    out = FreePoly.zero()
    for u, cu in p.terms():
        for v, cv in q.terms():
            out = out + scale(product(u, v), cu * cv)
    return out


def _by_recursion(p, q, qval):
    return _pairwise(p, q, lambda u, v: FreePoly(_shuffle_words(u, v, qval)))


def _check_against_recursion_and_oracle(p, q, qval):
    got = shuffle(p, q) if qval == 1 else q_shuffle(p, q, qval)
    assert got == _by_recursion(p, q, qval)
    assert got == _pairwise(p, q, lambda u, v: _antishuffle_oracle(u, v, qval))


@settings(max_examples=150, deadline=None)
@given(st.permutations(range(9)), st.integers(0, 4), st.integers(0, 4), st.sampled_from((1, -1)))
def test_merge_table_matches_recursion_and_oracle(letters, a, b, qval):
    # Distinct letters in any order (the merge table), lengths 0 and 1 included.
    u, v = tuple(letters[:a]), tuple(letters[a:a + b])
    _check_against_recursion_and_oracle(FreePoly.from_word(u), FreePoly.from_word(v), qval)


poly_st = st.dictionaries(
    st.lists(st.integers(0, 4), max_size=3).map(tuple),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=4,
).map(FreePoly)


@settings(max_examples=150, deadline=None)
@given(poly_st, poly_st, st.sampled_from((1, -1)))
def test_mixed_polys_match_recursion_and_oracle(p, q, qval):
    # Distinct-letter pairs, repeated-letter pairs and the empty word in one
    # product, with coefficients that can cancel between pairs.
    _check_against_recursion_and_oracle(p, q, qval)


def test_only_pairs_with_a_repeated_letter_or_empty_word_reach_the_word_caches():
    # One memoised recursion serves every q; the second name is the same cache.
    assert _q_shuffle_words is _shuffle_words
    for qval in (1, -1):
        _shuffle_words.cache_clear()
        q_shuffle(w(0, 1) + w(4), w(2, 3) + w(5, 6, 7), qval)
        assert _shuffle_words.cache_info().currsize == 0
        for u, v in (((0, 1), (2, 2)), ((0, 0), (2, 3)), ((0, 1), (1, 2)), ((), (2, 3))):
            q_shuffle(FreePoly.from_word(u), FreePoly.from_word(v), qval)
            assert _shuffle_words.cache_info().misses > 0, (u, v)
            _shuffle_words.cache_clear()
    # At q = -1, a repeated letter makes words meet at any depth of the
    # recursion, and both halves of each step merge through one loop.
    for u, v in (((0, 1, 0), (2, 0)), ((1, 1), (0, 1)), ((2, 0, 2), (0, 2, 1)), ((0,), (1, 1, 0))):
        got = q_shuffle(FreePoly.from_word(u), FreePoly.from_word(v), -1)
        assert got == FreePoly(_shuffle_words(u, v, -1)) == _antishuffle_oracle(u, v), (u, v)


@settings(max_examples=150, deadline=None)
@given(words_st, words_st)
def test_antishuffle_matches_interleaving_oracle(u, v):
    assert q_shuffle(FreePoly.from_word(u), FreePoly.from_word(v), -1) == _antishuffle_oracle(u, v)


@settings(max_examples=150, deadline=None)
@given(words_st, words_st)
def test_shuffle_mass(u, v):
    # distinct letters => total coefficient mass C(p+q, p); relabel to force it
    u = tuple(range(len(u)))
    v = tuple(range(len(u), len(u) + len(v)))
    total = sum(c for _, c in shuffle(FreePoly.from_word(u), FreePoly.from_word(v)).terms())
    assert total == math.comb(len(u) + len(v), len(u))


@settings(max_examples=120, deadline=None)
@given(words_st, words_st)
def test_antishuffle_graded_anticommutativity(u, v):
    lhs = q_shuffle(FreePoly.from_word(u), FreePoly.from_word(v), -1)
    rhs = q_shuffle(FreePoly.from_word(v), FreePoly.from_word(u), -1)
    sign = (-1) ** (len(u) * len(v))
    assert lhs == scale(rhs, sign)


def _all_words(alphabet, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(range(alphabet), repeat=length))
    return out


def test_shuffle_commutative_exhaustive():
    polys = [FreePoly.from_word(word) for word in _all_words(3, 3)]
    for p, q in itertools.product(polys, repeat=2):
        assert shuffle(p, q) == shuffle(q, p)


def test_shuffle_associative_exhaustive():
    polys = [FreePoly.from_word(word) for word in _all_words(3, 3)]
    for p in polys:
        for q in polys:
            pq = shuffle(p, q)
            for r in polys:
                assert shuffle(pq, r) == shuffle(p, shuffle(q, r))


def test_antishuffle_associative_exhaustive():
    polys = [FreePoly.from_word(word) for word in _all_words(3, 3)]
    for p in polys:
        for q in polys:
            pq = q_shuffle(p, q, -1)
            for r in polys:
                assert q_shuffle(pq, r, -1) == q_shuffle(p, q_shuffle(q, r, -1), -1)


def test_shuffle_ring_q_selects_the_product():
    u, v = w(A, B), w(C)
    assert SHUFFLE_RING.mul(u, v) == shuffle(u, v)
    assert ANTISHUFFLE_RING.mul(u, v) == q_shuffle(u, v, -1) != shuffle(u, v)
    assert ShuffleRing(1).q == SHUFFLE_RING.q == 1 and ANTISHUFFLE_RING.q == -1
    # Sum, negation, equality and the zero test are FreePoly's own operators.
    p = u + FreePoly.from_word((C, A), Fraction(-3, 2))
    for ring in (SHUFFLE_RING, ANTISHUFFLE_RING):
        assert ring.is_zero(ring.zero) and not ring.is_zero(ring.one)
        assert ring.eq(ring.add(p, ring.neg(p)), ring.zero)
    for q in (0, 2, Fraction(1, 2)):
        with pytest.raises(ValueError, match="q must be 1 or -1"):
            ShuffleRing(q)


@pytest.mark.parametrize("ring", (SHUFFLE_RING, ANTISHUFFLE_RING), ids=("shuffle", "antishuffle"))
@pytest.mark.parametrize("n", (1, 2, 3, 105, -3))
def test_div_int_keeps_exact_quotients_as_ints(ring, n):
    # Int coefficients that some n divide and some not, and Fraction ones.
    ints = {(A,): 6, (A, B): -210, (B,): 7, (C,): 1}
    p = FreePoly({**ints, (A, A): Fraction(3, 2), (): Fraction(4), (B, C): Fraction(-9)})
    got = ring.div_int(p, n)
    for word, c in p.terms():
        q = got.coeff(word)
        if type(c) is int and c % n == 0:
            assert type(q) is int and q == c // n, (word, c)
        else:
            assert type(q) is Fraction and q == Fraction(c) / n, (word, c)
    assert got.canonical_string() == scale(p, Fraction(1, n)).canonical_string()
    assert not ring.div_int(FreePoly.zero(), n)


def test_mirror():
    assert mirror((A, B, C)) == (C, B, A)
    assert mirror(()) == ()
    assert mirror((A,)) == (A,)


def test_antipode_single_letter():
    assert not antipode_convolution((A,))


def test_antipode_two_letters():
    # ab - (a sh b) + ba = 0
    expansion = w(A, B) - shuffle(w(A), w(B)) + w(B, A)
    assert antipode_convolution((A, B)) == expansion
    assert not expansion


def test_antipode_three_letters_expanded():
    word = (A, B, C)
    total = FreePoly.zero()
    for cut in range(4):
        u, v = word[:cut], word[cut:]
        term = shuffle(FreePoly.from_word(mirror(u)), FreePoly.from_word(v))
        total = total + scale(term, (-1) ** cut)
    assert antipode_convolution(word) == total
    assert not total


def test_antipode_empty_word_is_unit():
    assert antipode_convolution(()) == FreePoly.unit()


def test_antipode_exhaustive_small():
    for word in _all_words(3, 4):
        if word:
            assert not antipode_convolution(word)


def test_freepoly_canonical():
    p = FreePoly({(A,): Fraction(1), (B,): Fraction(0)})
    assert p.num_terms() == 1
    assert not (p - p)
    q = FreePoly({(A,): 1})
    assert p == q
    assert p.canonical_string() == "1/1:0"
    assert FreePoly.zero().canonical_string() == "0"
    # term order: length first, then ids
    r = w(1, 0) + w(0) + w(2)
    assert [term for term, _ in r.terms()] == [(0,), (2,), (1, 0)]


def _canonical_string_oracle(p):
    # The per-term Fraction and join formula canonical_string replaced, over
    # the word_key sort terms() replaced.
    parts = []
    for word, c in sorted(p.terms(), key=lambda kv: word_key(kv[0])):
        frac = Fraction(c)
        parts.append(f"{frac.numerator}/{frac.denominator}:{'.'.join(map(str, word))}")
    return ";".join(parts) if parts else "0"


coeffs_st = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**12),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.lists(st.integers(0, 200), max_size=6).map(tuple), coeffs_st, max_size=12))
def test_canonical_string_matches_fraction_join_formula(terms):
    p = FreePoly(terms)
    assert p.canonical_string() == _canonical_string_oracle(p)


def test_canonical_string_edge_cases():
    for p in (
        FreePoly.zero(),
        FreePoly.unit(),
        FreePoly({(): Fraction(-3, 4), (7,): 2, (1, 0): Fraction(5), (12, 3, 40): -1}),
        FreePoly.from_word((0, 1), Fraction(1, 3)) + w(2) + FreePoly.from_word((1, 0), -2),
    ):
        assert p.canonical_string() == _canonical_string_oracle(p)
    assert FreePoly({(): Fraction(-3, 4), (7,): 2}).canonical_string() == "-3/4:;2/1:7"


def _random_poly(rng):
    # Word lengths 0..8, letters up to 1200, int and Fraction coefficients
    # of both signs drawn from a small pool, so coefficients repeat.
    pool = [rng.randint(-9, 9) or 1 for _ in range(4)]
    pool += [Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 40)) for _ in range(4)]
    terms = {}
    for _ in range(rng.randint(0, 30)):
        word = tuple(rng.randint(0, 1200) for _ in range(rng.randint(0, 8)))
        terms[word] = rng.choice(pool)
    return FreePoly(terms)


def test_canonical_string_matches_the_per_term_formatter():
    rng = random.Random(2024)
    cases = [
        FreePoly.zero(),
        FreePoly.unit(),
        FreePoly({(): Fraction(-7, 3)}),
        FreePoly({(0,): 2, (1,): Fraction(2), (2, 1): 2, (1, 2): Fraction(2)}),
        FreePoly({(5,): Fraction(-1, 2), (4, 3): Fraction(-3, 7), (): Fraction(-1, 2)}),
        FreePoly({tuple(range(n)): Fraction(n - 4, n + 1) or 1 for n in range(9)}),
        FreePoly({(1000, 1001): 3, (999,): Fraction(5, 1000), (123456, 7, 1000): -1}),
    ]
    cases += [_random_poly(rng) for _ in range(200)]
    for p in cases:
        assert p.canonical_string() == canonical_string_per_term(p)
    two = FreePoly({(0,): 2, (1,): Fraction(2)})
    assert two.canonical_string() == "2/1:0;2/1:1"


def test_sort_with_sign():
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((3, 1, 2)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1, 3)) == ((1, 2, 3), -1)
    assert sort_with_sign(()) == ((), 1)
    assert sort_with_sign((1, 1)) == ((1, 1), 0)
