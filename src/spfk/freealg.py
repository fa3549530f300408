"""Words over an abstract alphabet and the free algebra with the shuffle
and q-shuffle products; ``ShuffleRing(q)`` makes the q = 1 (shuffle) or
q = -1 (antishuffle) product a coefficient ring for the kernels.

A word is a plain tuple of non-negative letter ids; the algebra core never
inspects what a letter means.  FreePoly values are immutable; every
operation returns a new instance.

The shuffle, the q-shuffle and ``ShuffleRing.dot`` share one sum into one
dict, with one add loop per path.  A word pair whose letters are all distinct
(the common case in the Wick checks) is read off a per-length merge table;
every other pair goes to the one memoised q-shuffle recursion (Reutenauer,
*Free Lie Algebras*, ch. 1), which merges the words that repeated letters
make equal.
"""
from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from .core import Ring

Word = tuple


class FreePoly:
    """Finite formal sum of words with rational coefficients.

    Canonical: zero coefficients are never stored, and equality is term-map
    equality.  The word product is deliberately not an operator; use
    shuffle() or q_shuffle() explicitly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for w, c in terms.items():
                if c:
                    clean[tuple(w)] = c
        self._terms = clean

    @staticmethod
    def _make(terms: dict) -> "FreePoly":
        # Trusted constructor: terms must already be canonical (no zeros).
        obj = object.__new__(FreePoly)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls) -> "FreePoly":
        return cls._make({})

    @classmethod
    def unit(cls) -> "FreePoly":
        return cls._make({(): 1})

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "FreePoly":
        if not coeff:
            return cls.zero()
        return cls._make({tuple(w): coeff})

    def coeff(self, w: Word) -> Fraction:
        return self._terms.get(tuple(w), 0)

    def _canonical_words(self):
        """The words in canonical order: length first, then lexicographic on
        ids.  They are sorted as tuples, then stably by length: each length's
        bucket keeps its sorted order, and no Python key runs per term."""
        words = sorted(self._terms)
        words.sort(key=len)
        return words

    def terms(self):
        """Canonically ordered (word, coefficient) pairs."""
        words = self._canonical_words()
        return list(zip(words, map(self._terms.__getitem__, words)))

    def num_terms(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "FreePoly") -> "FreePoly":
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return FreePoly._make(out)

    def __neg__(self) -> "FreePoly":
        return FreePoly._make({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "FreePoly") -> "FreePoly":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreePoly):
            return NotImplemented
        return self._terms == other._terms

    __hash__ = None

    def canonical_string(self) -> str:
        """``num/den:l1.l2...`` per term in ``terms()`` order, joined by ``;``;
        ``0`` for the zero polynomial.  Terms are keyed on (num, den): an int
        and the equal Fraction share one format string per word length, no
        ``Fraction.__hash__`` runs, and int coefficients take no Python step."""
        terms = self._terms
        if not terms:
            return "0"
        ratio = operator.attrgetter("numerator", "denominator")
        words = self._canonical_words()
        runs = []
        for length, run in itertools.groupby(words, len):
            run = list(run)
            coeffs = list(map(terms.__getitem__, run))
            body = ".".join(("%d",) * length)
            # The (num, den) keys are made twice, not held: 40 320 pairs take 2 MiB.
            fmt = {key: "%d/%d:" % key + body for key in set(map(ratio, coeffs))}
            runs.append(";".join(map(operator.mod, map(fmt.__getitem__, map(ratio, coeffs)), run)))
        return ";".join(runs)

    def __repr__(self) -> str:
        if not self._terms:
            return "FreePoly(0)"
        bits = [f"{c}*{''.join(map(str, w)) or 'e'}" for w, c in self.terms()]
        return "FreePoly(" + " + ".join(bits) + ")"


@functools.lru_cache(maxsize=1 << 18)
def _shuffle_words(u: Word, v: Word, qval) -> dict:
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    head = (u[0],)
    out = {head + w: c for w, c in _shuffle_words(u[1:], v, qval).items()}
    head, factor = (v[0],), qval ** len(u)
    for w, c in _shuffle_words(u, v[1:], qval).items():
        key = head + w
        s = out.get(key, 0) + c * factor
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


# No package code calls this name; perfbench/tracing.py reads the cache by it.
_q_shuffle_words = _shuffle_words


@functools.lru_cache(maxsize=256)
def _merges(a: int, b: int) -> tuple:
    """The C(a+b, a) interleavings of a word u of length a with a word v of
    length b, as (getter, odd) pairs: getter(u + v) is the interleaved word,
    and odd is the parity of its inversions, the (v letter, u letter) pairs
    in which the v letter comes first.  The q-shuffle coefficient of that
    word is q ** inversions when the letters of u + v are distinct."""
    out = []
    for slots in itertools.combinations(range(a + b), a):
        u_at = set(slots)
        u_index, v_index = iter(range(a)), iter(range(a, a + b))
        perm = [next(u_index) if pos in u_at else next(v_index) for pos in range(a + b)]
        inversions = sum(pos - i for i, pos in enumerate(slots))
        out.append((operator.itemgetter(*perm), inversions & 1))
    return tuple(out)


def _shuffle_sum(pairs, qval) -> FreePoly:
    """Sum over the (p, q) factor pairs, and over their term pairs, of
    cu * cv * (u sh_q v), formed in one dict.

    For qval = 1 or -1, a term pair whose letters are all distinct has
    C(a+b, a) distinct result words, each with coefficient q ** inversions,
    so it is read off ``_merges(a, b)`` with no dict and no cache entry per
    pair.  Every other pair (an empty word, a repeated letter, another qval)
    goes to the memoised recursion, which merges repeated words.  Each path
    adds every term pair through its one loop, dropping the words that cancel."""
    table = qval == 1 or qval == -1
    out: dict = {}
    get = out.get
    for p, q in pairs:
        for u, cu in p._terms.items():
            letters = set(u) if table else ()
            if len(letters) != len(u):
                letters = ()
            for v, cv in q._terms.items():
                c = cu * cv
                if letters and v and letters.isdisjoint(v) and len(set(v)) == len(v):
                    uv = u + v
                    signed = (c, c * qval)
                    for pick, odd in _merges(len(u), len(v)):
                        w = pick(uv)
                        s = get(w, 0) + signed[odd]
                        if s:
                            out[w] = s
                        else:
                            out.pop(w)
                    continue
                for w, mult in _shuffle_words(u, v, qval).items():
                    s = get(w, 0) + c * mult
                    if s:
                        out[w] = s
                    else:
                        out.pop(w, None)
    return FreePoly._make(out)


def shuffle(p: FreePoly, q: FreePoly) -> FreePoly:
    """Bilinear extension of the recursive shuffle product.

    Base case: the empty word is the unit.  Multiplicities are retained,
    e.g. shuffle(a, a) = 2aa.
    """
    return _shuffle_sum(((p, q),), 1)


def q_shuffle(p: FreePoly, q: FreePoly, qval) -> FreePoly:
    """q-deformed shuffle; qval=1 is the shuffle, qval=-1 the antishuffle."""
    return _shuffle_sum(((p, q),), qval)


def sort_with_sign(idx) -> tuple[tuple, int]:
    """Sorted tuple and the sign of the sorting permutation; sign 0 on repeats."""
    seq = list(idx)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(seq)):
        if seq[i - 1] == seq[i]:
            return tuple(seq), 0
    return tuple(seq), sign


class ShuffleRing(Ring):
    """FreePoly under the q-shuffle product, q = 1 or -1, with unit the empty
    word.

    q = 1 is the shuffle product: a commutative ring, the ambient ring of the
    symbolic identity checks.  q = -1 is the antishuffle product, only
    graded-commutative: odd-degree elements anticommute, so kernels multiply
    entries in a fixed canonical order, and callers must ensure the entries
    they feed in are even-degree (central) wherever commutativity matters.
    Sum, negation, equality and the zero test are FreePoly's own operators,
    the Ring defaults.
    """

    zero = FreePoly.zero()
    one = FreePoly.unit()

    def __init__(self, q: int):
        if q not in (1, -1):
            raise ValueError(f"q must be 1 or -1, got {q!r}")
        self.q = q

    def mul(self, a, b):
        # The products are looked up as module globals on every call, so a
        # wrapper installed on them sees the ring's products too.
        return shuffle(a, b) if self.q == 1 else q_shuffle(a, b, self.q)

    def dot(self, pairs):
        # All products go into one dict, so the sum is never copied.
        return _shuffle_sum(pairs, self.q)

    def div_int(self, a, n: int):
        # A coefficient n divides stays an int; any other becomes c/n.
        terms = a._terms.items()
        return FreePoly._make(
            {w: c // n if type(c) is int and not c % n else Fraction(c, n) for w, c in terms}
        )


SHUFFLE_RING = ShuffleRing(1)
ANTISHUFFLE_RING = ShuffleRing(-1)
