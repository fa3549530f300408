"""Exact rational arithmetic, the commutative-ring contract, and seeded sampling.

Everything in this package computes over exact coefficient rings: the base
field is arbitrary-precision rationals (``fractions.Fraction``), and the
polynomial rings built on top of it inherit exactness.  No operation ever
rounds.

Samplers are deterministic 64-bit streams.  The byte-for-byte output of a
given seed is part of the package contract: a golden file pins the first 64
samples of seed 42, so the mixing algorithm must never change silently.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction

_MASK64 = (1 << 64) - 1


def normalize(num: int, den: int) -> Fraction:
    """Reduced rational with positive denominator; (0, d) canonicalizes to 0/1."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    return Fraction(num, den)


def odd_double_factorial(n: int) -> int:
    """(2n-1)!! = 1*3*5*...*(2n-1), the number of perfect matchings of 2n points.

    Computed as (2n)!/(2^n n!); odd_double_factorial(0) == 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.factorial(2 * n) // ((1 << n) * math.factorial(n))


def even_double_factorial(n: int) -> int:
    """(2n)!! = 2*4*...*(2n), with even_double_factorial(0) == 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (1 << n) * math.factorial(n)


def double_factorial_coeff(half: int, coeff: str) -> tuple[int, str]:
    """The normalising double factorial of a 2n-point sum and its name:
    (2n-1)!! for the ``"corrected"`` convention, the source paper's (2n)!!
    for ``"paper"``."""
    if coeff == "corrected":
        return odd_double_factorial(half), "(2n-1)!!"
    if coeff == "paper":
        return even_double_factorial(half), "(2n)!!"
    raise ValueError("coeff must be 'corrected' or 'paper'")


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
        if value is None or not items or min(items) < least:
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
    """Commutative-ring interface the kernels are generic over.

    Implementations supply ``zero``/``one`` plus the arithmetic hooks below.
    ``div_int`` is required only where a kernel divides by an integer
    (nilpotent exponentials, double-factorial normalizations) and may raise
    for rings without that capability.
    """

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def scale_int(self, a, n: int):
        raise NotImplementedError

    def div_int(self, a, n: int):
        raise NotImplementedError(f"{type(self).__name__} does not support integer division")

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)


class RationalField(Ring):
    """The rationals as a Ring; elements are fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def eq(self, a, b) -> bool:
        return a == b

    def scale_int(self, a, n: int):
        return a * n

    def div_int(self, a, n: int):
        return Fraction(a, n) if isinstance(a, int) else a / n


QQ = RationalField()


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
    result never depends on interpreter hash randomization.
    """
    h = seed & _MASK64
    for byte in _tag_bytes(tag):
        h = (h ^ byte) & _MASK64
        _, h = _splitmix64(h)
    _, out = _splitmix64(h)
    return out


def _tag_bytes(tag) -> bytes:
    if isinstance(tag, bytes):
        return tag
    if isinstance(tag, int):
        return b"i" + tag.to_bytes(16, "little", signed=True)
    if isinstance(tag, str):
        return b"s" + tag.encode("utf-8")
    if isinstance(tag, (tuple, list)):
        out = b"t"
        for part in tag:
            piece = _tag_bytes(part)
            out += len(piece).to_bytes(4, "little") + piece
        return out
    raise TypeError(f"unsupported tag type: {type(tag).__name__}")


class SeededSampler:
    """Deterministic, platform-independent stream of positive rationals.

    Identical seeds yield identical sequences on every platform.  Values are
    immutable once drawn; child samplers for concurrent checks derive their
    seeds by mixing (parent seed, check tag).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed
        self.position = 0

    def next_int(self, bound: int) -> int:
        """Uniform-ish integer in [1, bound]; the golden file is the contract."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        self._state, word = _splitmix64(self._state)
        self.position += 1
        return 1 + word % bound

    def rational(self, bound: int) -> Fraction:
        p = self.next_int(bound)
        q = self.next_int(bound)
        return Fraction(p, q)

    def positive_distinct(self, count: int, bound: int) -> list[Fraction]:
        """`count` pairwise-distinct strictly positive rationals p/q, p,q <= bound."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if bound < count:
            raise ValueError(f"infeasible count/bound: need bound >= count, got {count}/{bound}")
        seen: set[Fraction] = set()
        out: list[Fraction] = []
        attempts = 0
        while len(out) < count:
            attempts += 1
            if attempts > 1_000_000:
                raise RuntimeError("sampler failed to find distinct rationals")
            r = self.rational(bound)
            if r not in seen:
                seen.add(r)
                out.append(r)
        return out

    def child(self, tag) -> "SeededSampler":
        return SeededSampler(mix_seed(self.seed, tag))


def sample_positive_distinct(seed: int, count: int, bound: int) -> list[Fraction]:
    """Deterministic batch of `count` distinct positive rationals for `seed`."""
    return SeededSampler(seed).positive_distinct(count, bound)
