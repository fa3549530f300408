"""Reference forms that the tests compare the package against, kept out of
the package because the checker never calls them.

- ``first_row_expansion`` is the odd-order Pfaffian (hafnian) written as its
  expansion along an absent first row of singles, term by term, with no
  bordered tensor, and ``first_row_pfaffian`` the Pfaffian by first-row
  recursion, a second algorithm beside the package's blocked-partition sum.
  ``debruijn_rhs`` writes out each de Bruijn row's right side as its own
  pair (or 2k-wise) formula over one family, the odd row through
  ``first_row_expansion``.
- ``entry_at`` reads a tensor at any index tuple, ``tensor_to_json`` writes
  the tensor JSON format the CLI reads.
- ``canonical_string_per_term`` is ``FreePoly.canonical_string`` formatted
  one term at a time, the reference for the run-at-a-time formatter.
- ``word_key`` is the word order of ``FreePoly.terms()``, ``scale`` the
  term-by-term product that ``ShuffleRing.div_int`` is checked against, and
  ``mirror`` and ``antipode_convolution`` the antipode of the shuffle
  algebra.
- ``wedge_sign`` counts the sign of a Grassmann product pair by pair, the
  reference for the product's one population count.  The generators,
  ``berezin_extract``, ``exp_even`` and ``ordered_product`` build the
  Gaussian and Wick forms whose coefficients are Pfaffians and hafnians.
- ``r_value_loop`` and ``schur_product_loop`` are R(x) and the Schur
  product with one Fraction operation per factor, the references for the
  package's forms that clear the point's denominators once;
  ``refuse_fraction_arithmetic`` makes every Fraction operator raise, and
  ``MIXED`` is a point with mixed denominators.  ``group_form_loop`` and
  ``arq_loop`` are ``tensors.group_form`` over QQ and ARQ's two sides with
  one Fraction operation per permutation (per factor in ARQ), the
  references for their sums over one lcm.
- ``mix_seed_fold`` is ``core.mix_seed`` folding every tag byte in turn,
  with no memo.
- ``wick_lhs_loop`` is a Wick row's left side as its literal sum over the
  permutations, one ``word_of`` per permutation, the reference for the
  package's DP over placed groups.
"""
import math
from fractions import Fraction

from spfk.core import QQ, _splitmix64, _tag_bytes, double_factorial_coeff
from spfk.freealg import FreePoly, shuffle, sort_with_sign
from spfk.integrals import merged_exponent, r_value
from spfk.multilinear import GrassmannElement, SquareZeroElement, mask_of
from spfk.tensors import (
    AltTensor,
    SymTensor,
    hafnian,
    hyperhafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)


def first_row_expansion(n, single, minor, mul, signed):
    """For odd n >= 1: sum over p in 1..n of (-1)^(p+1) (no sign unless
    ``signed``) mul(single(p), minor(the other indices, increasing))."""
    total = None
    for p in range(1, n + 1):
        term = mul(single(p), minor(tuple(i for i in range(1, n + 1) if i != p)))
        if signed and p % 2 == 0:
            term = -term
        total = term if total is None else total + term
    return total


def first_row_pfaffian(M):
    """Pfaffian by first-row expansion over entries read through ``entry_at``,
    memoised per call on the tuple of remaining indices; the entry of the
    first index multiplies on the left, as in the blocked sum."""
    ring = M.ring
    memo = {(): ring.one}

    def rec(idx: tuple):
        hit = memo.get(idx)
        if hit is not None:
            return hit
        i0 = idx[0]
        out = ring.zero
        for t in range(1, len(idx)):
            entry = entry_at(M, (i0, idx[t]))
            if ring.is_zero(entry):
                continue
            term = ring.mul(entry, rec(idx[1:t] + idx[t + 1 :]))
            out = ring.add(out, term if t % 2 == 1 else ring.neg(term))
        memo[idx] = out
        return out

    return rec(tuple(range(1, M.dim + 1)))


def _pair_pf(order, f):
    # Pf of the antisymmetrised pair integrals f(i, j) - f(j, i).
    return pfaffian(AltTensor.from_function(QQ, 2, order, lambda ij: f(*ij) - f(ij[1], ij[0])))


def _pair_hf(order, f):
    # Hf of the symmetrised pair integrals f(i, j) + f(j, i).
    return hafnian(SymTensor.from_function(QQ, 2, order, lambda ij: f(*ij) + f(ij[1], ij[0])))


def debruijn_rhs(variant, order, fam, k=None, coeff="corrected"):
    """The right side of the de Bruijn row ``variant`` at matrix order
    ``order`` (2kn for the generalized rows) on the family ``fam``."""
    phi, psi = fam.phi, fam.psi
    pair_of = lambda x, y: lambda i, j: r_value([x[i - 1], y[j - 1]])
    single = lambda i, j: 1 / merged_exponent((phi[i - 1], psi[j - 1]))
    if variant == "EVEN":
        return _pair_pf(order, pair_of(phi, phi))
    if variant == "ODD":
        pair = pair_of(phi, phi)
        minor = lambda keep: _pair_pf(len(keep), lambda i, j: pair(keep[i - 1], keep[j - 1]))
        one = lambda p: Fraction(1, 1) / phi[p - 1]
        return first_row_expansion(order, one, minor, lambda a, b: a * b, signed=True)
    if variant == "INTERLEAVED":
        return _pair_pf(order, single)
    if variant == "NEW_PAIRING":
        return _pair_pf(order, pair_of(phi, psi))
    if variant == "PERM_PRODUCT":
        return _pair_hf(order, pair_of(phi, phi)) / double_factorial_coeff(order // 2, coeff)[0]
    if variant == "PERM_INTERLEAVED":
        return _pair_hf(order, single)
    signed, width, grid = variant == "GENERAL_DET", 2 * k, fam.grid

    def entry(idx):
        out = Fraction(0)
        for tau, tsign in signed_permutations(width):
            z = merged_exponent(tuple(grid[s][idx[tau[s] - 1] - 1] for s in range(width)))
            out += (tsign if signed else 1) / z
        return out

    if signed:
        return hyperpfaffian(AltTensor.from_function(QQ, width, order, entry))
    return hyperhafnian(SymTensor.from_function(QQ, width, order, entry))


def entry_at(t, idx):
    """The entry of ``t`` at any index tuple: the stored entry at its sorted
    form, negated for an odd sort of an AltTensor; zero on a repeat."""
    canon, sign = sort_with_sign(idx)
    if sign == 0:
        return t.ring.zero
    c = t.entry(canon)
    return t.ring.neg(c) if sign < 0 and isinstance(t, AltTensor) else c


def tensor_to_json(t) -> dict:
    """A rational tensor in the tensor JSON format ``tensor_from_json`` reads."""
    entries = []
    for idx, c in t.entries():
        frac = Fraction(c)
        entries.append(
            {"idx": list(idx), "num": str(frac.numerator), "den": str(frac.denominator)}
        )
    return {"order": t.order, "dim": t.dim, "entries": entries}


def canonical_string_per_term(p) -> str:
    """``num/den:l1.l2...`` per term in ``terms()`` order, joined by ``;``,
    ``0`` for the zero polynomial: one format per word length, applied to
    each term's numerator, denominator and letters in turn."""
    parts = []
    length = -1
    for w, c in p.terms():
        if len(w) != length:
            length = len(w)
            fmt = "%d/%d:" + ".".join(("%d",) * length)
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        parts.append(fmt % (c.numerator, c.denominator, *w))
    return ";".join(parts) if parts else "0"


def word_key(w):
    """Total order on words: length first, then lexicographic on ids."""
    return (len(w), w)


def scale(p, c):
    """Every coefficient of the FreePoly ``p`` times ``c``."""
    return FreePoly({w: cw * c for w, cw in p.terms()})


def mirror(w):
    """Letters reversed: mirror((a,b,c)) == (c,b,a)."""
    return tuple(reversed(w))


def antipode_convolution(w):
    """Sum over factorizations w = uv of (-1)^|u| * shuffle(mirror(u), v).

    Zero for every non-empty word, the unit for the empty word: the map
    S(w) = (-1)^|w| mirror(w) convolved with the identity annihilates
    positive degrees.
    """
    w = tuple(w)
    out = FreePoly.zero()
    for cut in range(len(w) + 1):
        u, v = w[:cut], w[cut:]
        term = shuffle(FreePoly.from_word(mirror(u)), FreePoly.from_word(v))
        out = out + (term if cut % 2 == 0 else -term)
    return out


def wedge_sign(a_mask, b_mask):
    """Sign of eta_A * eta_B for disjoint masks: parity of pairs (i,j),
    i in A, j in B, with i > j, counted pair by pair."""
    inversions = 0
    b = b_mask
    while b:
        low = b & -b
        idx = low.bit_length() - 1
        inversions += (a_mask >> (idx + 1)).bit_count()
        b ^= low
    return -1 if inversions & 1 else 1


def grassmann_generators(ring, n):
    return [GrassmannElement(ring, {1 << i: ring.one}) for i in range(n)]


def sz_generators(ring, n):
    return [SquareZeroElement(ring, {1 << i: ring.one}) for i in range(n)]


def berezin_extract(T, indices):
    """Coefficient of eta_{i1}...eta_{ir} in T for strictly increasing indices.

    Equals the iterated left derivative taken in reversed index order; an
    absent mask extracts zero.
    """
    return T.coeff(mask_of(indices))


def exp_even(H):
    """exp(H) = sum H^n / n! for a nilpotent H whose terms all have even
    degree >= 2 (such an H is central, so the series is unambiguous).

    Raises on odd-degree or constant terms; the coefficient ring must support
    division by n!.
    """
    for mask in H._terms:
        deg = mask.bit_count()
        if deg == 0 or deg % 2:
            raise ValueError("non-central exponent: terms must have even degree >= 2")
    out = type(H).one(H.ring) + H
    power = H
    k = 1
    while True:
        k += 1
        power = power * H
        if not power.num_terms():
            return out
        out = out + power * type(H)(H.ring, {0: H.ring.div_int(H.ring.one, math.factorial(k))})


def ordered_product(factors):
    """Left-to-right product of the given factors (at least one required)."""
    factors = list(factors)
    if not factors:
        raise ValueError("ordered_product needs at least one factor")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


MIXED = (
    Fraction(3, 2), Fraction(7, 5), Fraction(11, 4), Fraction(2), Fraction(13, 6),
    Fraction(9, 7), Fraction(5, 3), Fraction(17, 8),
)


def r_value_loop(xs):
    """1 / (x1 (x1+x2) ... (x1+...+xr)), one Fraction sum and product per letter."""
    acc, prod = Fraction(0), Fraction(1)
    for x in xs:
        acc += x
        if acc == 0:
            raise ZeroDivisionError("zero partial sum")
        prod *= acc
    return 1 / prod


def schur_product_loop(x, factor=1):
    """factor * prod_{i<j} (x_i - x_j) / (x_i + x_j), one Fraction per quotient."""
    out = Fraction(factor)
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            out *= (x[i] - x[j]) / (x[i] + x[j])
    return out


def refuse_fraction_arithmetic(monkeypatch):
    """Make every Fraction sum, difference, product, quotient and negation raise."""

    def refuse(*_):
        raise AssertionError("Fraction arithmetic")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__"):
        monkeypatch.setattr(Fraction, op, refuse)


def group_form_loop(order, g, value_of, signed, alternating):
    """``tensors.group_form`` over QQ, each entry summed with one Fraction
    sum (and negation) per permutation."""

    def entry(idx):
        total = Fraction(0)
        for tau, sign in signed_permutations(g):
            value = value_of(tuple(idx[t - 1] for t in tau))
            total += -value if signed and sign < 0 else value
        return total

    dim, fn = order, entry
    if g == 2 and order % 2:
        dim = order + 1
        fn = lambda ij: value_of((ij[1] - 1,)) if ij[0] == 1 else entry((ij[0] - 1, ij[1] - 1))
    cls, kernel = (AltTensor, hyperpfaffian) if alternating else (SymTensor, hyperhafnian)
    return kernel(cls.from_function(QQ, g, dim, fn))


def arq_loop(x, a, b):
    """ARQ's (left, right) at the point (x, a, b): A(R q) A(X) and
    A(R) A(q X), A the antisymmetrisation over the permutations p of 1..d, R
    the ordered integral of x read in p's order, q(p) = prod_i (b_p(i) -+
    a_p(i)), minus at odd i, and X(p) = prod_i x_p(i)^(i-1), one Fraction
    operation per factor."""
    d = len(x)

    def q_part(perm):
        out = Fraction(1)
        for i in range(1, d + 1):
            out *= b[perm[i - 1] - 1] + (-1 if i % 2 else 1) * a[perm[i - 1] - 1]
        return out

    def x_part(perm):
        out = Fraction(1)
        for i in range(1, d + 1):
            out *= Fraction(x[perm[i - 1] - 1]) ** (i - 1)
        return out

    def antisym(fn):
        total = Fraction(0)
        for perm, sign in signed_permutations(d):
            total += sign * fn(perm)
        return total

    r_part = lambda perm: r_value_loop([x[p - 1] for p in perm])
    lhs = antisym(lambda p: r_part(p) * q_part(p)) * antisym(x_part)
    return lhs, antisym(r_part) * antisym(lambda p: q_part(p) * x_part(p))


def mix_seed_fold(seed, tag):
    """``core.mix_seed``: the seed mod 2^64 XORed with each tag byte in turn,
    each time taking one splitmix64 output, and one more step at the end."""
    h = seed & ((1 << 64) - 1)
    for byte in _tag_bytes(tag):
        _, h = _splitmix64(h ^ byte)
    return _splitmix64(h)[1]


def wick_lhs_loop(order, word_of, signed):
    """Sum over the permutations p of 1..order of sgn(p)^signed word_of(p)."""
    acc = {}
    for perm, sign in signed_permutations(order):
        word, coeff = word_of(perm)
        acc[word] = acc.get(word, 0) + (sign * coeff if signed else coeff)
    return FreePoly(acc)
