"""Exact Chen iterated-integral linear form for monomial integrands on (0,1),
and the ordered-integral identities it implies.

Convention used everywhere: for a word w = z1 z2 ... zr the first letter is
attached to the smallest time, so

    <w> = integral over 0 <= t1 < ... < tr <= 1 of prod t_s^(z_s - 1)
        = R(z1, ..., zr) = 1 / (z1 (z1+z2) ... (z1+...+zr)).

The mirrored convention satisfies the same multiplicativity; one convention
is fixed and used throughout.  Products of monomial integrands are again
monomials (the z-parameters add, minus one per extra factor), so every
identity here evaluates in exact rationals.

All eight de Bruijn rows are built by one function, ``_debruijn_sides``,
position p of the matrix reading the family slots[p % g].  Its left side,
the ordered integral of the expanded determinant or permanent, is
``ordered_sum``, which runs on ints through ``placed_sum``: the one forward
DP over the set of placed indices behind every permutation-sum left side
(HAFSYM's and the Wick rows' in ``identities`` too), so no n! expansion
runs (the literal expansion is the tests' oracle).  Its right side is
``tensors.group_form`` of the ordered integral of one group of g letters,
bordered at an odd order by the single-letter integrals; the left side
calls none of that code.

The right sides' ordered integrals run on ints too.  R is homogeneous of
degree -r, R(L z) = L^-r R(z), so with L the lcm of a family's denominators
``r_value`` takes the ints L z and builds one Fraction(L^r, product of the
int partial sums).  Each family is cleared once: the de Bruijn slot
families once per check (merged block exponents stay cleared,
``merged_exponent(params, L)``), and CHEN's ``fam.phi`` once per
``chen_form`` call.

The de Bruijn checks are the ``DEBRUIJN`` rows and Chen's identity, on
seeded word pairs over ``ALPHABET`` letters, is the ``CHEN`` row, run by
``report.run_check``; each order's parity and every cap is in its row's
domain, checked (``report.complete``) before any sampling.  CHEN's left
side, <u><v>, integrates each word by ``iterated_integral_oracle``, which
runs on Fractions by design; only its right side, the FreePoly
<u shuffle v>, goes through ``chen_form`` and ``r_value``.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import QQ, SeededSampler, clear_denominators, double_factorial_coeff, mix_seed
from .freealg import FreePoly, shuffle
from .report import Check, VerificationReport, at_points, run_check
from .tensors import group_form, signed_permutations

MAX_WORD = 8
ALPHABET = 5
MAX_ORDER = 8
MAX_PAIRS = 1000


class _Family(NamedTuple):
    phi: tuple = ()
    psi: tuple = ()
    grid: tuple = ()


class MonomialFamily(_Family):
    """Monomial integrand family: letter i integrates t^(phi[i] - 1).

    ``psi`` is the second family of the two-family rows; ``grid`` holds the
    row-families of the generalized block variants.  All parameters must be
    strictly positive so every integral converges at 0: a record is refused
    when it is made (``_make`` and ``_replace`` do not check).
    """

    __slots__ = ()

    def __new__(cls, phi=(), psi=(), grid=()):
        for group in (phi, psi, *grid):
            for z in group:
                if z <= 0:
                    raise ValueError("exponent parameters must be > 0")
        return super().__new__(cls, phi, psi, grid)


def merged_exponent(params, scale=1):
    """z-parameter of a product of monomials: sum of parameters minus (count-1).

    For parameters cleared over ``scale`` (each one scale times its value)
    the result is cleared over it too: sum - scale * (count - 1)."""
    params = list(params)
    return sum(params) - scale * (len(params) - 1)


def r_value(xs, scale=None) -> Fraction:
    """R(x) = 1 / (x1 (x1+x2) ... (x1+...+xr)); the empty product is 1.

    ``xs`` (any iterable) holds ints cleared over ``scale``, each x = scale z
    for the z whose R is wanted.  R is homogeneous of degree -r, R(L z) =
    L^-r R(z), so the value is one Fraction(scale^r, product of the int
    partial sums).  With no scale, ``xs`` (ints and Fractions) is cleared
    here first (``core.clear_denominators``).
    """
    if scale is None:
        scale, xs = clear_denominators(xs)
    acc = r = 0
    prod = 1
    for x in xs:
        acc += x
        if not acc:
            raise ZeroDivisionError("zero partial sum")
        prod *= acc
        r += 1
    return Fraction(scale**r, prod)


def _family_params(word, phi):
    try:
        return [phi[i] for i in word]
    except IndexError as exc:
        raise ValueError("unknown letter for this family") from exc


def chen_form(w: FreePoly, fam: MonomialFamily):
    """<w>, extended linearly over the words of the FreePoly ``w``.

    ``fam.phi`` is cleared over its lcm L once per call, each word's value
    is ``r_value`` of its cleared parameters over L, and the values are
    summed by one ``QQ.sum``."""
    scale, phi = clear_denominators(fam.phi)
    return QQ.sum(c * r_value(_family_params(word, phi), scale) for word, c in w.terms())


def iterated_integral_oracle(params) -> Fraction:
    """Independent evaluation of the ordered monomial integral.

    Integrates outermost-first: each step is an antiderivative over
    (t, 1), splitting into the value at 1 minus the lower-limit monomial, so
    the intermediate state is a genuine sum of monomials rather than the
    single-term closed-form recursion.
    """
    poly = {Fraction(0): Fraction(1)}
    for z in reversed(list(params)):
        nxt: dict = {}
        for e, c in poly.items():
            zz = z + e
            term = c / zz
            nxt[Fraction(0)] = nxt.get(Fraction(0), Fraction(0)) + term
            nxt[zz] = nxt.get(zz, Fraction(0)) - term
        poly = {e: c for e, c in nxt.items() if c}
    return poly.get(Fraction(0), Fraction(0))


def _chen_pair(u, v, fam: MonomialFamily):
    """The two sides of Chen's identity for one word pair, as callables:
    <u><v>, each factor integrated by the oracle, and <u shuffle v> by the
    closed form ``r_value``."""
    integral = lambda word: iterated_integral_oracle(_family_params(word, fam.phi))
    lhs = lambda: integral(u) * integral(v)
    return lhs, lambda: chen_form(shuffle(FreePoly.from_word(u), FreePoly.from_word(v)), fam)


def _random_chen_pair(sampler: SeededSampler):
    # A word pair of total length <= MAX_WORD and a family for its letters.
    total = sampler.next_int(MAX_WORD - 1) + 1
    lu = sampler.next_int(total - 1)
    u = tuple(sampler.next_int(ALPHABET) - 1 for _ in range(lu))
    v = tuple(sampler.next_int(ALPHABET) - 1 for _ in range(total - lu))
    return _chen_pair(u, v, MonomialFamily(phi=tuple(sampler.positive_distinct(ALPHABET, 100))))


def verify_chen_batch(seed: int, pairs: int | None = None) -> VerificationReport:
    """Chen's identity on seeded random word pairs of total length <= 8."""
    return run_check(CHEN, "CHEN", {"pairs": pairs}, seed)


def _chen_check(p, seed):
    return {}, *at_points("CHEN", seed, ("chen",), p["pairs"], _random_chen_pair)


_CHEN_DOMAIN = ({"pairs": (1, MAX_PAIRS)}, {"size": (lambda _p: MAX_WORD, None)})
CHEN = {"chen": Check(_chen_check, "CHEN", {"pairs": 100}, _CHEN_DOMAIN)}


# Nothing in the package calls this alias; perfbench/test_perfbench.py still
# looks it up when it checks that tracing restores every wrapped name.
_signed_perms = signed_permutations


def index_masks(indices):
    """(mask, parity) of a set of indices: its bitmask, and the XOR of its
    members' "indices above" masks, so the set closes an odd number of
    inversions with a placed set ``used`` exactly when
    (used & parity).bit_count() is odd."""
    mask = parity = 0
    for i in indices:
        mask |= 1 << i
        parity ^= -1 << (i + 1)  # every bit above i
    return mask, parity


def placed_sum(levels, signed: bool, start, closes=()):
    """The forward DP over the set of placed indices behind every
    permutation-sum left side.

    A state maps the bitmask of the indices placed so far to {key: weight},
    from {0: {start: 1}}.  ``levels[t]`` lists level t's moves as (mask,
    parity, {piece: coeff}), mask and parity from ``index_masks``: a move
    disjoint from a state extends each of its keys to key + piece, the
    weight times coeff, negated when ``signed`` and (used & parity) has an
    odd popcount (the inversions the move closes).  States that meet are
    merged, and each state is dropped once it is extended.  key + piece is a
    word concatenation for the Wick rows and an int sum for the sums of R.

    After each level t in ``closes`` every weight is divided by its key: the
    zero weights are dropped, and the rest become int numerators over one
    denominator D, the lcm of the keys, each weight times D // key.  The
    result is (states, the product of the D's).
    """
    states = {0: {start: 1}}
    denominator = 1
    for t, moves in enumerate(levels):
        nxt: dict = {}
        while states:
            used, keys = states.popitem()
            for mask, parity, pieces in moves:
                if used & mask:
                    continue
                into = nxt.setdefault(used | mask, {})
                flip = signed and (used & parity).bit_count() & 1
                for piece, coeff in pieces.items():
                    if flip:
                        coeff = -coeff
                    for key, weight in keys.items():
                        grown = key + piece
                        into[grown] = into.get(grown, 0) + weight * coeff
        states = nxt
        if t in closes:
            states = {used: {key: w for key, w in keys.items() if w}
                      for used, keys in states.items()}
            step = math.lcm(*(key for keys in states.values() for key in keys))
            denominator *= step
            states = {used: {key: w * (step // key) for key, w in keys.items()}
                      for used, keys in states.items()}
    return states, denominator


def ordered_sum(slots, width: int, signed: bool) -> Fraction:
    """Sum over sigma of sgn(sigma)^signed * R(z_1, ..., z_r) for letters 0..m-1.

    ``slots[p]`` is the parameter family read at position p (m = len(slots)
    positions, one letter each); consecutive runs of ``width`` positions form
    a block whose exponent is its merged exponent, sum - (width - 1).

    Since R(z_1..z_r) = prod_j 1/(z_1+...+z_j), each factor depends only on
    the blocks placed so far, so the sum is ``placed_sum`` with one level
    per position, one move per letter, the key the partial sum of the
    blocks placed, and a close at each block's last position.  It runs on
    ints: the parameters are scaled by L, the lcm of their denominators,
    the block shift L (width - 1) is subtracted at a block's first position,
    and R(L z) = L^-r R(z) for r blocks.

    Every block exponent must be positive, or the integral diverges (and a
    zero partial sum the brute-force expansion divides by could cancel out
    of a state here unseen); that is checked before any work.
    """
    m = len(slots)
    if width < 1 or m % width:
        raise ValueError(f"{m} positions do not split into blocks of width {width}")
    if any(len(fam) < m for fam in slots):
        raise ValueError(f"every slot family needs a parameter for each of the {m} letters")
    scale, flat = clear_denominators(z for fam in slots for z in fam[:m])
    fams = [flat[p * m : (p + 1) * m] for p in range(m)]
    shift = scale * (width - 1)
    for b in range(0, m, width):
        if sum(min(f) for f in fams[b : b + width]) - shift <= 0:
            raise ValueError(
                "a merged block exponent can be <= 0: the ordered integral diverges"
            )
    letters = [index_masks((i,)) for i in range(m)]
    levels = [[(mask, parity, {fam[i] - (shift if p % width == 0 else 0): 1})
               for i, (mask, parity) in enumerate(letters)]
              for p, fam in enumerate(fams)]
    states, denominator = placed_sum(levels, signed, 0, range(width - 1, m, width))
    total = sum(w for keys in states.values() for w in keys.values())
    return Fraction(total * scale ** (m // width), denominator)


def _sample_params(seed: int, tag, count: int) -> tuple:
    # Parameters strictly greater than 1 keep every merged product integrable.
    # Small distinct integers keep the partial-sum denominators of the large
    # permutation expansions compact without losing exactness.
    sampler = SeededSampler(mix_seed(seed, tag))
    draws = sampler.distinct(count, lambda: sampler.next_int(count + 16))
    return tuple(Fraction(1 + v) for v in draws)


def default_family(variant: str, order: int, k: int | None, seed: int) -> MonomialFamily:
    """The seeded family of a de Bruijn row: phi and psi for a plain row,
    2k grid rows for a generalized one (``k`` given).  Each is ``order``
    distinct ints 1 + v, v <= order + 16, from ``SeededSampler.distinct``."""
    if k is None:
        return MonomialFamily(
            phi=_sample_params(seed, ("phi", variant, order), order),
            psi=_sample_params(seed, ("psi", variant, order), order),
        )
    rows = tuple(_sample_params(seed, ("grid", variant, order, s), order) for s in range(2 * k))
    return MonomialFamily(grid=rows)


def verify_debruijn(
    variant: str,
    n: int | None = None,
    k: int | None = None,
    fam: MonomialFamily | None = None,
    seed: int = 42,
    coeff: str | None = None,
) -> VerificationReport:
    """Ordered integral of a determinant/permanent against its (hyper)Pfaffian
    or hafnian form, exactly.  ``n`` is the matrix order of the plain
    variants; the generalized block variants take (k, n), matrix order 2kn;
    ``fam`` replaces the row's seeded family."""
    identity = "debruijn_" + variant.lower()
    if identity not in DEBRUIJN:  # named as the caller named it, with no id prefix
        raise ValueError(f"unknown variant: {variant.upper()}")
    return run_check(DEBRUIJN, identity, {"n": n, "k": k, "coeff": coeff, "fam": fam}, seed)


def _debruijn_sides(slots, width: int, signed: bool, order: int):
    """The two sides of a de Bruijn identity of matrix order ``order``, as
    callables.  The right side is ``tensors.group_form`` of value_of(seq), the
    ordered integral R of the letters of seq read from slots[0], slots[1],
    ..., merged in blocks of ``width``; an odd order (pair rows only) is
    bordered by the single-letter integrals 1 / slots[0][i].  The slot
    families are cleared over one scale L once, and each entry is
    ``r_value`` of its cleared block exponents over L."""
    g = len(slots)
    if g % width:
        raise ValueError(f"a group of {g} letters does not split into blocks of width {width}")
    lhs = lambda: ordered_sum([slots[p % g] for p in range(order)], width, signed)
    scale, flat = clear_denominators(z for fam in slots for z in fam)
    flat = iter(flat)
    cleared = [list(itertools.islice(flat, len(fam))) for fam in slots]

    def value_of(seq):
        zs = [cleared[s][i - 1] for s, i in enumerate(seq)]
        if width > 1:
            zs = [merged_exponent(zs[b : b + width], scale) for b in range(0, len(zs), width)]
        return r_value(zs, scale)

    return lhs, lambda: group_form(QQ, order, g, value_of, signed, signed)


def _debruijn(name, families, width, signed=True, parity="even", coeff=False):
    # A plain row: matrix order n, with the given parity and at most
    # MAX_ORDER, reading the named families (phi, psi) in turn of its seeded
    # family or of a given input ``fam``; its report names the order.
    def sides(p, seed):
        order = p["n"]
        fam = p.get("fam") or default_family(name, order, None, seed)
        lhs, rhs = _debruijn_sides([getattr(fam, f) for f in families], width, signed, order)
        shown = {"order": order}
        if coeff:  # the hafnian over the double factorial of the convention
            shown["coeff"] = p["coeff"]
            cval = double_factorial_coeff(order // 2, p["coeff"])[0]
            rhs = lambda hf=rhs: hf() / cval
        return {"params": shown}, lambda: [lhs()], lambda: [rhs()]

    flags = {"n": ..., "coeff": "corrected"} if coeff else {"n": ...}
    domain = ({"n": (0, None, parity)}, {"order": (lambda q: q["n"], MAX_ORDER)})
    return Check(sides, name, flags, domain, ("fam",))


def _general(name, signed: bool):
    # A generalized block row: 2k-wise blocks of a matrix of order 2kn; k <= 4
    # bounds the 2k grid rows of its family at n = 0 too.
    def sides(p, seed):
        width, order = 2 * p["k"], 2 * p["k"] * p["n"]
        grid = (p.get("fam") or default_family(name, order, p["k"], seed)).grid
        lhs, rhs = _debruijn_sides(grid[:width], width, signed, order)
        return {}, lambda: [lhs()], lambda: [rhs()]

    domain = ({"k": (1, 4), "n": (0, None)}, {"2kn": (lambda q: 2 * q["k"] * q["n"], MAX_ORDER)})
    return Check(sides, name, {"k": ..., "n": ...}, domain, ("fam",))


DEBRUIJN = {
    "debruijn_" + check.name.lower(): check
    for check in (
        _debruijn("EVEN", ("phi", "phi"), 1),
        _debruijn("ODD", ("phi", "phi"), 1, parity="odd"),
        _debruijn("INTERLEAVED", ("phi", "psi"), 2),
        _debruijn("NEW_PAIRING", ("phi", "psi"), 1),
        _debruijn("PERM_PRODUCT", ("phi", "phi"), 1, signed=False, coeff=True),
        _debruijn("PERM_INTERLEAVED", ("phi", "psi"), 2, signed=False),
        _general("GENERAL_DET", signed=True),
        _general("GENERAL_PERM", signed=False),
    )
}
