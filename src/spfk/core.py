"""Exact rational arithmetic, the ring contract, the one reader of integers
from outside (``integer``), and seeded sampling.

Everything in this package computes over exact coefficient rings: the base
field is arbitrary-precision rationals (``fractions.Fraction``), and the
polynomial rings built on top of it inherit exactness.  No operation ever
rounds.

Samplers are deterministic 64-bit streams.  The byte-for-byte output of a
given seed is part of the package contract: a golden file pins the first 64
samples of seed 42, so the mixing algorithm must never change silently.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

_MASK64 = (1 << 64) - 1


COEFF_CONVENTIONS = ("corrected", "paper")


def double_factorial_coeff(half: int, coeff: str) -> tuple[int, str]:
    """The normalising double factorial of a 2n-point sum and its name:
    (2n-1)!! = (2n)!/(2n)!! for the ``"corrected"`` convention, the source
    paper's (2n)!! = 2^n n! for ``"paper"``.  A negative n raises ValueError."""
    even = math.factorial(half) << half
    if coeff == "corrected":
        return math.factorial(2 * half) // even, "(2n-1)!!"
    if coeff == "paper":
        return even, "(2n)!!"
    raise ValueError("coeff must be 'corrected' or 'paper'")


def integer(value) -> int:
    """An integer from outside (a CLI flag, a list piece, ``SPFK_SEED`` or a
    tensor-JSON field): an int as it is, or a str of the form ``-?[0-9]+`` in
    ASCII, where only 0-9 are isdigit().  int() would also read true/false as
    1/0, truncate 1.5, overflow on 1e400, and take "1_0", " 3 ", "+1" and
    non-ASCII digits."""
    if type(value) is int:
        return value
    if not isinstance(value, str):
        raise TypeError(f"expected an integer, got {value!r}")
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ValueError(f"expected a decimal string, got {value!r}")
    return int(value)


def check_domain(name: str, params: dict, domain) -> dict:
    """Refuse params outside an identity's domain, (ranges, caps), and
    return the measures of its caps in declaration order.

    ``ranges`` maps a flag to (min, max[, "even" | "odd"]); a max of None is
    no bound, a max naming an earlier flag bounds by its value, and a list
    flag is bounded element by element.  ``caps`` maps a size measure to
    (function of params, limit or None), each computed only after the
    ones before it have passed."""
    ranges, caps = domain
    for flag, (least, most, *parity) in ranges.items():
        value = params.get(flag)
        items = value if isinstance(value, (list, tuple)) else [value]
        shown = list(items) if items is value else value
        if not items or min(items) < least:
            raise ValueError(f"{name} needs {flag} >= {least}, got {flag}={shown}")
        if isinstance(most, str) and value > params[most]:
            raise ValueError(
                f"{name} needs {flag} <= {most}, got {flag}={value} > {most}={params[most]}"
            )
        if isinstance(most, int) and max(items) > most:
            raise ValueError(f"size cap exceeded for {name}: {flag} <= {most}, got {flag}={shown}")
        if parity and value % 2 != (parity[0] == "odd"):
            raise ValueError(f"{name} needs {parity[0]} {flag}, got {flag}={value}")
    measures = {}
    for measure, (size_of, limit) in caps.items():
        size = measures[measure] = size_of(params)
        if limit is not None and size > limit:
            raise ValueError(
                f"size cap exceeded for {name}: {measure} <= {limit}, got {measure}={size}"
            )
    return measures


class Ring:
    """Ring interface the kernels are generic over.

    Implementations supply ``zero``/``one``; the arithmetic hooks default to
    Python's operators (``operator.add``, ``neg``, ``mul``, ``eq``), so a ring
    whose elements already implement them names only its zero and one.
    ``is_zero`` is Python truthiness (``operator.not_``): a ring whose zero
    is truthy must override it.  A ring need not be commutative (the
    antishuffle ring is only graded-commutative): ``mul(a, b)`` and ``dot``
    keep a on the left.  ``sum`` of signed values defaults to the fold of
    ``add`` and ``neg``; QQ sums int numerators over the values' lcm.
    ``div_int`` is required only where a kernel divides by an integer
    (nilpotent exponentials, double-factorial normalizations) and by default
    raises.
    """

    zero = None
    one = None
    add, neg, mul, eq = operator.add, operator.neg, operator.mul, operator.eq
    is_zero = operator.not_

    def dot(self, pairs):
        """Sum of mul(a, b) over the (a, b) pairs; zero for no pairs."""
        return functools.reduce(self.add, itertools.starmap(self.mul, pairs), self.zero)

    def sum(self, values, signs=None):
        """The exact sum of ``values``, each negated where its entry of
        ``signs`` (one +1 or -1 per value; all +1 if None) is negative; zero
        for none.  By default one ``add`` (and ``neg``) per value."""
        if signs is not None:
            values = (v if s > 0 else self.neg(v) for v, s in zip(values, signs))
        return functools.reduce(self.add, values, self.zero)

    def div_int(self, a, n: int):
        raise NotImplementedError(f"{type(self).__name__} does not support integer division")


class RationalField(Ring):
    """The rationals as a Ring; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def sum(self, values, signs=None):
        """One pass of int numerators over the lcm of the denominators
        (``clear_denominators``), and one Fraction built: no Fraction
        arithmetic per value."""
        scale, nums = clear_denominators(values)
        return Fraction(sum(nums if signs is None else map(operator.mul, signs, nums)), scale)

    def div_int(self, a, n: int):
        return Fraction(a, n)


QQ = RationalField()


class IntegerRing(Ring):
    """The integers as a Ring whose every operation is one C call."""

    zero, one = 0, 1


ZZ = IntegerRing()


def clear_denominators(values) -> tuple[int, list[int]]:
    """(L, [L * v for v in values]) for L the lcm of the denominators of
    ``values`` (1 for none): int numerators over one denominator.

    ``values`` is any iterable of ints and Fractions, read once; their
    ``numerator`` and ``denominator`` are read as they are, so no Fraction is
    built.  Any other value, a float included, is refused with a TypeError
    before the lcm is taken."""
    values = list(values)
    for v in values:
        if not isinstance(v, (int, Fraction)):
            raise TypeError(f"clear_denominators takes ints and Fractions, got {type(v).__name__}")
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _splitmix64(state: int) -> tuple[int, int]:
    # One step of the splitmix64 sequence: new state and a mixed output word.
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def mix_seed(seed: int, tag) -> int:
    """Derive an independent child seed from (seed, tag).

    Tags may be ints, strings, or tuples of those; folding is bytewise so the
    result never depends on interpreter hash randomization.  The state after
    a tuple's bytes before its last part is memoised (``_fold_head``): the
    points of one check, and CHEN's pairs, differ only in that last part.
    """
    if isinstance(tag, (tuple, list)) and tag:
        head, tail = _tag_bytes(tag[:-1]), _part_bytes(tag[-1])
    else:
        head, tail = b"", _tag_bytes(tag)
    _, out = _splitmix64(_fold(_fold_head(seed & _MASK64, head), tail))
    return out


def _fold(h: int, data: bytes) -> int:
    # Each byte is XORed into the state, which then takes one splitmix64 output.
    for byte in data:
        _, h = _splitmix64(h ^ byte)
    return h


_fold_head = functools.lru_cache(maxsize=256)(_fold)  # about 190 tag heads in one suite


def _tag_bytes(tag) -> bytes:
    if isinstance(tag, bytes):
        return tag
    if isinstance(tag, int):
        return b"i" + tag.to_bytes(16, "little", signed=True)
    if isinstance(tag, str):
        return b"s" + tag.encode("utf-8")
    if isinstance(tag, (tuple, list)):
        return b"t" + b"".join([_part_bytes(part) for part in tag])
    raise TypeError(f"unsupported tag type: {type(tag).__name__}")


def _part_bytes(part) -> bytes:
    # One part of a tuple tag: its byte length, then its bytes.
    piece = _tag_bytes(part)
    return len(piece).to_bytes(4, "little") + piece


class SeededSampler:
    """Deterministic, platform-independent stream of positive rationals.

    Identical seeds yield identical sequences on every platform.  Values are
    immutable once drawn; each check draws from its own sampler, seeded with
    ``mix_seed(seed, tag)`` for its own tag.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [1, bound]; the golden file is the contract."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self._state, word = _splitmix64(self._state)
        return 1 + word % bound

    def rational(self, bound: int) -> Fraction:
        p = self.next_int(bound)
        q = self.next_int(bound)
        return Fraction(p, q)

    def distinct(self, count: int, draw) -> list:
        """The first ``count`` pairwise-distinct values of ``draw()``, in the
        order first drawn (a repeat is drawn again), within 10^6 draws.  A
        draw, int or Fraction, is recorded under its (numerator, denominator),
        so no ``Fraction.__hash__`` runs; a repeat keeps its first value."""
        found: dict = {}  # insertion-ordered; a repeat keeps its first place
        attempts = 0
        while len(found) < count:
            attempts += 1
            if attempts > 1_000_000:
                raise RuntimeError("sampler failed to find distinct values")
            value = draw()
            found.setdefault((value.numerator, value.denominator), value)
        return list(found.values())

    def positive_distinct(self, count: int, bound: int) -> list[Fraction]:
        """`count` pairwise-distinct strictly positive rationals p/q, p,q <= bound."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if bound < count:
            raise ValueError(f"infeasible count/bound: need bound >= count, got {count}/{bound}")
        return self.distinct(count, lambda: self.rational(bound))
