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

The de Bruijn left sides, sums over all permutations sigma of
sgn(sigma)^signed * R(block exponents), go through one kernel,
``ordered_sum``: a forward DP over block boundaries whose state is the set of
letters used so far and the partial sum, so no n! expansion runs.  It
clears the denominators once and runs on ints.  The literal permutation
expansion is kept only in the tests, as the oracle the DP is compared
against.  The left side calls no Pfaffian or hafnian code, so it stays
independent of the right side.

The de Bruijn checks are the ``DEBRUIJN`` rows and Chen's identity on
seeded word pairs is the ``CHEN`` row, both ``report.Check`` rows run by
``report.run_check``; each order's parity and cap are in its row's domain,
checked (``core.check_domain``) before any sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import QQ, SeededSampler, double_factorial_coeff, mix_seed
from .freealg import FreePoly, shuffle
from .report import Check, VerificationReport, at_points, run_check
from .tensors import (
    AltTensor,
    SymTensor,
    hafnian,
    hyperhafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)

MAX_WORD = 8
MAX_ORDER = 8
MAX_PAIRS = 1000


@dataclass(frozen=True)
class MonomialFamily:
    """Monomial integrand family: letter i integrates t^(phi[i] - 1).

    ``psi`` is the second family of interleaved variants; ``grid`` holds the
    row-families of the generalized block variants.  All parameters must be
    strictly positive so every integral converges at 0.
    """

    phi: tuple = ()
    psi: tuple = ()
    grid: tuple = ()

    def __post_init__(self):
        for group in (self.phi, self.psi) + tuple(self.grid):
            for z in group:
                if z <= 0:
                    raise ValueError("exponent parameters must be > 0")


def merged_exponent(params) -> Fraction:
    """z-parameter of a product of monomials: sum of parameters minus (count-1)."""
    params = list(params)
    return sum(params) - (len(params) - 1)


def r_value(xs) -> Fraction:
    """1 / (x1 (x1+x2) ... (x1+...+xr)); the empty product is 1."""
    acc = Fraction(0)
    prod = Fraction(1)
    for x in xs:
        acc += x
        if acc == 0:
            raise ZeroDivisionError("zero partial sum")
        prod *= acc
    return 1 / prod


def _family_params(word, fam: MonomialFamily):
    try:
        return [fam.phi[i] for i in word]
    except IndexError as exc:
        raise ValueError("unknown letter for this family") from exc


def chen_form(w, fam: MonomialFamily, check: bool = False):
    """<w> for a word (tuple of letter indices) or linearly for a FreePoly.

    With check=True each word is re-evaluated through the independent
    integration oracle and cross-asserted.
    """
    if isinstance(w, FreePoly):
        out = Fraction(0)
        for word, c in w.terms():
            out += c * chen_form(word, fam, check=check)
        return out
    params = _family_params(tuple(w), fam)
    value = r_value(params)
    if check:
        oracle = iterated_integral_oracle(params)
        if oracle != value:
            raise AssertionError("chen_form cross-check failed")
    return value


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
    <u><v>, each factor cross-checked by the integration oracle, and
    <u shuffle v>."""
    lhs = lambda: chen_form(u, fam, check=True) * chen_form(v, fam, check=True)
    return lhs, lambda: chen_form(shuffle(FreePoly.from_word(u), FreePoly.from_word(v)), fam)


def verify_chen(u, v, fam: MonomialFamily, seed: int = 0) -> VerificationReport:
    """<u><v> == <u shuffle v> with all three values exact."""
    u, v = tuple(u), tuple(v)
    if len(u) + len(v) > MAX_WORD:
        raise ValueError(f"size cap exceeded: |u|+|v| <= {MAX_WORD}")
    lhs, rhs = _chen_pair(u, v, fam)
    sides = lambda *_: ({"params": {"lu": len(u), "lv": len(v)}}, lambda: [lhs()], lambda: [rhs()])
    # One given pair: no flags, and the word-length cap above is its domain.
    return run_check({"chen": Check(sides, "CHEN", {}, ({}, {}))}, "CHEN", {}, seed)


def _random_chen_pair(sampler: SeededSampler, alphabet: int):
    # A word pair of total length <= MAX_WORD and a family for its letters.
    total = sampler.next_int(MAX_WORD - 1) + 1
    lu = sampler.next_int(total - 1)
    u = tuple(sampler.next_int(alphabet) - 1 for _ in range(lu))
    v = tuple(sampler.next_int(alphabet) - 1 for _ in range(total - lu))
    return _chen_pair(u, v, MonomialFamily(phi=tuple(sampler.positive_distinct(alphabet, 100))))


def verify_chen_batch(seed: int, pairs: int = 100, alphabet: int = 5) -> VerificationReport:
    """Run verify_chen on seeded random word pairs of total length <= 8."""
    return run_check(CHEN, "CHEN", {"pairs": pairs, "alphabet": alphabet}, seed)


def _chen_check(p, seed, _points):
    sides_at = lambda s: _random_chen_pair(s, p.get("alphabet", 5))
    return {}, *at_points(seed, ("chen",), p["pairs"], sides_at)


CHEN = {
    "chen": Check(
        _chen_check,
        "CHEN",
        {"pairs": 100},
        ({"pairs": (1, MAX_PAIRS)}, {"size": (lambda _p: MAX_WORD, None)}),
    )
}


# Nothing in the package calls this alias; perfbench/test_perfbench.py still
# looks it up when it checks that tracing restores every wrapped name.
_signed_perms = signed_permutations


def _append_letter(tuples, fam, m: int, signed: bool):
    """Each (used mask, sum, sign) extended by every unused letter i at a
    position read through ``fam``; the sign flips with the used letters > i."""
    for u, z, sg in tuples:
        for i in range(m):
            if not u >> i & 1:
                flip = signed and (u >> (i + 1)).bit_count() & 1
                yield u | 1 << i, z + fam[i], -sg if flip else sg


def ordered_sum(slots, width: int, signed: bool) -> Fraction:
    """Sum over sigma of sgn(sigma)^signed * R(z_1, ..., z_r) for letters 0..m-1.

    ``slots[p]`` is the parameter family read at position p (m = len(slots)
    positions, one letter each); consecutive runs of ``width`` positions form
    a block whose exponent is its merged exponent, sum - (width - 1).

    Since R(z_1..z_r) = prod_j 1/(z_1+...+z_j), each factor depends only on
    the blocks placed so far, so the sum is a forward DP over block
    boundaries.  A state is (bitmask of used letters, partial sum); inside a
    block every ordered width-tuple of unused letters is appended, letter i
    after mask u flipping the sign when popcount(u >> (i+1)) is odd (the
    inversions it closes), and the +-1 counts reaching each new state are
    merged.  The DP runs on ints: the parameters are scaled by L, the lcm of
    their denominators, and the block shift by L (width - 1), and R(L z) =
    L^-r R(z) for r blocks.  At each block boundary the weights are int
    numerators over one denominator D, the lcm of the partial sums reached
    there, so closing a block multiplies a numerator by D // (its partial
    sum).  The result is Fraction(total * L^r, product of the D's).

    Every block exponent must be positive, or the integral diverges (and a
    zero partial sum the brute-force expansion divides by could cancel out
    of a state here unseen); that is checked before any work.
    """
    m = len(slots)
    if width < 1 or m % width:
        raise ValueError(f"{m} positions do not split into blocks of width {width}")
    fams = [tuple(Fraction(z) for z in fam[:m]) for fam in slots]
    if any(len(f) < m for f in fams):
        raise ValueError(f"every slot family needs a parameter for each of the {m} letters")
    scale = math.lcm(*(z.denominator for f in fams for z in f))
    fams = [tuple(z.numerator * (scale // z.denominator) for z in f) for f in fams]
    shift = scale * (width - 1)
    for b in range(0, m, width):
        if sum(min(f) for f in fams[b : b + width]) - shift <= 0:
            raise ValueError(
                "a merged block exponent can be <= 0: the ordered integral diverges"
            )
    states = {(0, 0): 1}
    denominator = 1
    for b in range(0, m, width):
        block = fams[b : b + width]
        nxt: dict = {}
        for (used, acc), weight in states.items():
            tuples = [(used, acc - shift, 1)]
            for fam in block:
                tuples = _append_letter(tuples, fam, m, signed)
            counts: dict = {}
            for u, z, sg in tuples:
                counts[u, z] = counts.get((u, z), 0) + sg
            for key, c in counts.items():
                if c:
                    nxt[key] = nxt.get(key, 0) + weight * c
        nxt = {key: w for key, w in nxt.items() if w}
        step = math.lcm(*(acc for _used, acc in nxt))
        denominator *= step
        states = {key: w * (step // key[1]) for key, w in nxt.items()}
    return Fraction(sum(states.values()) * scale ** (m // width), denominator)


def _sample_params(seed: int, tag, count: int) -> tuple:
    # Parameters strictly greater than 1 keep every merged product integrable.
    # Small distinct integers keep the partial-sum denominators of the large
    # permutation expansions compact without losing exactness.
    sampler = SeededSampler(mix_seed(seed, tag))
    bound = count + 16
    seen: set[int] = set()
    out: list[Fraction] = []
    while len(out) < count:
        v = sampler.next_int(bound)
        if v not in seen:
            seen.add(v)
            out.append(Fraction(1 + v))
    return tuple(out)


def default_family(variant: str, order: int, k: int | None, seed: int) -> MonomialFamily:
    if variant in ("EVEN", "ODD", "PERM_PRODUCT"):
        return MonomialFamily(phi=_sample_params(seed, ("phi", variant, order), order))
    if variant in ("INTERLEAVED", "NEW_PAIRING", "PERM_INTERLEAVED"):
        return MonomialFamily(
            phi=_sample_params(seed, ("phi", variant, order), order),
            psi=_sample_params(seed, ("psi", variant, order), order),
        )
    if variant in ("GENERAL_DET", "GENERAL_PERM"):
        rows = tuple(
            _sample_params(seed, ("grid", variant, order, s), order) for s in range(2 * k)
        )
        return MonomialFamily(grid=rows)
    raise ValueError(f"unknown variant: {variant}")


def verify_debruijn(
    variant: str,
    n: int | None = None,
    k: int | None = None,
    fam: MonomialFamily | None = None,
    seed: int = 42,
    coeff: str = "corrected",
) -> VerificationReport:
    """Ordered integral of a determinant/permanent against its closed form.

    ``n`` is the matrix order for the plain variants; the generalized block
    variants take (k, n) and have matrix order 2kn.  Both sides evaluate to
    exact rationals: the left side is the ordered integral of the expanded
    determinant/permanent, summed by ``ordered_sum``; the right side is the
    (hyper)Pfaffian or hafnian of pairwise (or 2k-wise) integrals.
    """
    return run_check(DEBRUIJN, variant, {"n": n, "k": k, "coeff": coeff, "fam": fam}, seed)


def _pair_pf(order, f):
    # Pf of the antisymmetrised pair integrals f(i, j) - f(j, i).
    return pfaffian(AltTensor.from_function(QQ, 2, order, lambda ij: f(*ij) - f(ij[1], ij[0])))


def _pair_hf(order, f):
    # Hf of the symmetrised pair integrals f(i, j) + f(j, i).
    return hafnian(SymTensor.from_function(QQ, 2, order, lambda ij: f(*ij) + f(ij[1], ij[0])))


# Each plain variant gives its two sides from (order, family, coeff).


def _db_even(order, fam, _coeff):
    z = fam.phi
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])
    return lambda: ordered_sum([z] * order, 1, signed=True), lambda: _pair_pf(order, pair)


def _db_odd(order, fam, _coeff):
    z = fam.phi
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])

    def rhs():
        total = Fraction(0)
        for p in range(1, order + 1):
            keep = tuple(i for i in range(1, order + 1) if i != p)
            minor = _pair_pf(order - 1, lambda i, j: pair(keep[i - 1], keep[j - 1]))
            total += (-1) ** (p + 1) * Fraction(1, 1) / z[p - 1] * minor
        return total

    return lambda: ordered_sum([z] * order, 1, signed=True), rhs


def _db_interleaved(order, fam, _coeff):
    phi, psi = fam.phi, fam.psi
    single = lambda i, j: 1 / merged_exponent((phi[i - 1], psi[j - 1]))
    lhs = lambda: ordered_sum([phi, psi] * (order // 2), 2, signed=True)
    return lhs, lambda: _pair_pf(order, single)


def _db_new_pairing(order, fam, _coeff):
    phi, psi = fam.phi, fam.psi
    pair = lambda i, j: r_value([phi[i - 1], psi[j - 1]])
    lhs = lambda: ordered_sum([phi, psi] * (order // 2), 1, signed=True)
    return lhs, lambda: _pair_pf(order, pair)


def _db_perm_product(order, fam, coeff):
    z = fam.phi
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])
    rhs = lambda: _pair_hf(order, pair) / double_factorial_coeff(order // 2, coeff)[0]
    return lambda: ordered_sum([z] * order, 1, signed=False), rhs


def _db_perm_interleaved(order, fam, _coeff):
    phi, psi = fam.phi, fam.psi
    single = lambda i, j: 1 / merged_exponent((phi[i - 1], psi[j - 1]))
    lhs = lambda: ordered_sum([phi, psi] * (order // 2), 2, signed=False)
    return lhs, lambda: _pair_hf(order, single)


def _debruijn(name, sides_of, parity="even", coeff=False):
    # A plain row: matrix order n, with the given parity and at most
    # MAX_ORDER; its report names the order.
    def sides(p, seed, _points):
        order = p["n"]
        fam = p.get("fam") or default_family(name, order, None, seed)
        shown = {"order": order, **({"coeff": p["coeff"]} if coeff else {})}
        lhs, rhs = sides_of(order, fam, p.get("coeff"))
        return {"params": shown}, lambda: [lhs()], lambda: [rhs()]

    flags = {"n": ..., "coeff": "corrected"} if coeff else {"n": ...}
    domain = ({"n": (0, None, parity)}, {"order": (lambda q: q["n"], MAX_ORDER)})
    return Check(sides, name, flags, domain)


def _general(name, signed: bool):
    # A generalized block row: 2k-wise blocks of a matrix of order 2kn.
    def sides(p, seed, _points):
        k = p["k"]
        width, order = 2 * k, 2 * k * p["n"]
        grid = (p.get("fam") or default_family(name, order, k, seed)).grid

        def entry(idx):
            out = Fraction(0)
            for tau, tsign in signed_permutations(width):
                z = merged_exponent(tuple(grid[s][idx[tau[s] - 1] - 1] for s in range(width)))
                out += (tsign if signed else 1) / z
            return out

        def rhs():
            if signed:
                return [hyperpfaffian(AltTensor.from_function(QQ, width, order, entry))]
            return [hyperhafnian(SymTensor.from_function(QQ, width, order, entry))]

        lhs = lambda: [ordered_sum([grid[s % width] for s in range(order)], width, signed)]
        return {}, lhs, rhs

    caps = {"2kn": (lambda q: 2 * q["k"] * q["n"], MAX_ORDER)}
    return Check(sides, name, {"k": ..., "n": ...}, ({"k": (1, None), "n": (0, None)}, caps))


DEBRUIJN = {
    "debruijn_" + check.name.lower(): check
    for check in (
        _debruijn("EVEN", _db_even),
        _debruijn("ODD", _db_odd, "odd"),
        _debruijn("INTERLEAVED", _db_interleaved),
        _debruijn("NEW_PAIRING", _db_new_pairing),
        _debruijn("PERM_PRODUCT", _db_perm_product, coeff=True),
        _debruijn("PERM_INTERLEAVED", _db_perm_interleaved),
        _general("GENERAL_DET", signed=True),
        _general("GENERAL_PERM", signed=False),
    )
}
DEBRUIJN_VARIANTS = tuple(check.name for check in DEBRUIJN.values())
