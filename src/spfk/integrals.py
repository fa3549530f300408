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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import QQ, SeededSampler, double_factorial_coeff, mix_seed
from .freealg import FreePoly, shuffle
from .report import ReportBuilder, VerificationReport, scalar_list_canonical
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


def verify_chen(u, v, fam: MonomialFamily, seed: int = 0) -> VerificationReport:
    """<u><v> == <u shuffle v> with all three values exact."""
    u, v = tuple(u), tuple(v)
    if len(u) + len(v) > MAX_WORD:
        raise ValueError(f"size cap exceeded: |u|+|v| <= {MAX_WORD}")
    builder = ReportBuilder("chen", {"lu": len(u), "lv": len(v)}, seeds=[seed])
    lhs = chen_form(u, fam, check=True) * chen_form(v, fam, check=True)
    rhs = chen_form(shuffle(FreePoly.from_word(u), FreePoly.from_word(v)), fam)
    return builder.finish(
        lhs == rhs, scalar_list_canonical([lhs]), scalar_list_canonical([rhs]), 1, 1
    )


def verify_chen_batch(seed: int, pairs: int = 100, alphabet: int = 5) -> VerificationReport:
    """Run verify_chen on seeded random word pairs of total length <= 8."""
    if pairs < 1:
        raise ValueError(f"chen needs pairs >= 1, got {pairs}")
    if pairs > MAX_PAIRS:
        raise ValueError(f"size cap exceeded: pairs <= {MAX_PAIRS}")
    builder = ReportBuilder("chen", {"pairs": pairs}, seeds=[seed])
    lhs_vals = []
    rhs_vals = []
    all_equal = True
    for i in range(pairs):
        sampler = SeededSampler(mix_seed(seed, ("chen", i)))
        total = sampler.next_int(MAX_WORD - 1) + 1
        lu = sampler.next_int(total - 1)
        lv = total - lu
        u = tuple(sampler.next_int(alphabet) - 1 for _ in range(lu))
        v = tuple(sampler.next_int(alphabet) - 1 for _ in range(lv))
        fam = MonomialFamily(phi=tuple(sampler.positive_distinct(alphabet, 100)))
        lhs = chen_form(u, fam, check=True) * chen_form(v, fam, check=True)
        rhs = chen_form(shuffle(FreePoly.from_word(u), FreePoly.from_word(v)), fam)
        lhs_vals.append(lhs)
        rhs_vals.append(rhs)
        all_equal = all_equal and lhs == rhs
    return builder.finish(
        all_equal,
        scalar_list_canonical(lhs_vals),
        scalar_list_canonical(rhs_vals),
        len(lhs_vals),
        len(rhs_vals),
    )


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
    variant = variant.upper()
    if variant not in _DEBRUIJN_IMPL:
        raise ValueError(f"unknown variant: {variant}")
    if variant in ("GENERAL_DET", "GENERAL_PERM"):
        if k is None or n is None:
            raise ValueError("GENERAL variants need k and n")
        if k < 1 or n < 0:
            raise ValueError(f"GENERAL variants need k >= 1 and n >= 0, got k={k}, n={n}")
        order = 2 * k * n
    else:
        if n is None:
            raise ValueError("variant needs the matrix order n")
        if n < 0:
            raise ValueError(f"{variant} needs n >= 0, got n={n}")
        order = n
    if order > MAX_ORDER:
        raise ValueError(f"size cap exceeded: order <= {MAX_ORDER}")
    if fam is None:
        fam = default_family(variant, order, k, seed)

    params: dict = {"order": order}
    if variant in ("GENERAL_DET", "GENERAL_PERM"):
        params = {"k": k, "n": n}
    conventions = {}
    if variant == "PERM_PRODUCT":
        _, conventions["double_factorial"] = double_factorial_coeff(order // 2, coeff)
        params["coeff"] = coeff
    builder = ReportBuilder(
        "debruijn_" + variant.lower(), params, seeds=[seed], conventions=conventions
    )
    lhs, rhs = _DEBRUIJN_IMPL[variant](order, k, fam, coeff)
    return builder.finish(
        lhs == rhs, scalar_list_canonical([lhs]), scalar_list_canonical([rhs]), 1, 1
    )


def _db_even(order, _k, fam, _coeff):
    if order % 2:
        raise ValueError(f"EVEN needs even n, got n={order}")
    z = fam.phi
    lhs = ordered_sum([z] * order, 1, signed=True)
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])
    M = AltTensor.from_function(QQ, 2, order, lambda ij: pair(*ij) - pair(ij[1], ij[0]))
    return lhs, pfaffian(M)


def _db_odd(order, _k, fam, _coeff):
    if order % 2 == 0:
        raise ValueError("ODD variant needs odd order")
    z = fam.phi
    lhs = ordered_sum([z] * order, 1, signed=True)
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])
    rhs = Fraction(0)
    for p in range(1, order + 1):
        keep = tuple(i for i in range(1, order + 1) if i != p)
        M = AltTensor.from_function(
            QQ, 2, order - 1, lambda ij: pair(keep[ij[0] - 1], keep[ij[1] - 1]) - pair(keep[ij[1] - 1], keep[ij[0] - 1])
        )
        rhs += (-1) ** (p + 1) * Fraction(1, 1) / z[p - 1] * pfaffian(M)
    return lhs, rhs


def _db_interleaved(order, _k, fam, _coeff):
    if order % 2:
        raise ValueError("INTERLEAVED variant needs even order")
    phi, psi = fam.phi, fam.psi
    lhs = ordered_sum([phi, psi] * (order // 2), 2, signed=True)
    single = lambda i, j: 1 / merged_exponent((phi[i - 1], psi[j - 1]))
    M = AltTensor.from_function(QQ, 2, order, lambda ij: single(*ij) - single(ij[1], ij[0]))
    return lhs, pfaffian(M)


def _db_new_pairing(order, _k, fam, _coeff):
    if order % 2:
        raise ValueError("NEW_PAIRING variant needs even order")
    phi, psi = fam.phi, fam.psi
    lhs = ordered_sum([phi, psi] * (order // 2), 1, signed=True)
    pair = lambda i, j: r_value([phi[i - 1], psi[j - 1]])
    M = AltTensor.from_function(QQ, 2, order, lambda ij: pair(*ij) - pair(ij[1], ij[0]))
    return lhs, pfaffian(M)


def _db_perm_product(order, _k, fam, coeff):
    if order % 2:
        raise ValueError("PERM_PRODUCT variant needs even order")
    z = fam.phi
    lhs = ordered_sum([z] * order, 1, signed=False)
    pair = lambda i, j: r_value([z[i - 1], z[j - 1]])
    S = SymTensor.from_function(QQ, 2, order, lambda ij: pair(*ij) + pair(ij[1], ij[0]))
    c, _ = double_factorial_coeff(order // 2, coeff)
    return lhs, hafnian(S) / c


def _db_perm_interleaved(order, _k, fam, _coeff):
    if order % 2:
        raise ValueError("PERM_INTERLEAVED variant needs even order")
    phi, psi = fam.phi, fam.psi
    lhs = ordered_sum([phi, psi] * (order // 2), 2, signed=False)
    single = lambda i, j: 1 / merged_exponent((phi[i - 1], psi[j - 1]))
    S = SymTensor.from_function(QQ, 2, order, lambda ij: single(*ij) + single(ij[1], ij[0]))
    return lhs, hafnian(S)


def _general_sides(order, k, fam, signed: bool):
    grid = fam.grid
    width = 2 * k
    lhs = ordered_sum([grid[s % width] for s in range(order)], width, signed)

    def entry(idx):
        out = Fraction(0)
        for tau, tsign in signed_permutations(width):
            z = merged_exponent(tuple(grid[s][idx[tau[s] - 1] - 1] for s in range(width)))
            out += (tsign if signed else 1) / z
        return out

    if signed:
        M = AltTensor.from_function(QQ, width, order, entry)
        return lhs, hyperpfaffian(M)
    S = SymTensor.from_function(QQ, width, order, entry)
    return lhs, hyperhafnian(S)


def _db_general_det(order, k, fam, _coeff):
    return _general_sides(order, k, fam, signed=True)


def _db_general_perm(order, k, fam, _coeff):
    return _general_sides(order, k, fam, signed=False)


_DEBRUIJN_IMPL = {
    "EVEN": _db_even,
    "ODD": _db_odd,
    "INTERLEAVED": _db_interleaved,
    "NEW_PAIRING": _db_new_pairing,
    "PERM_PRODUCT": _db_perm_product,
    "PERM_INTERLEAVED": _db_perm_interleaved,
    "GENERAL_DET": _db_general_det,
    "GENERAL_PERM": _db_general_perm,
}
DEBRUIJN_VARIANTS = tuple(_DEBRUIJN_IMPL)
