"""Hand-written reference forms of right sides that the package builds from
one shared rule, kept here so the tests can compare the two.

``first_row_expansion`` is the odd-order Pfaffian (hafnian) written as its
expansion along an absent first row of singles, term by term, with no
bordered tensor, and ``first_row_pfaffian`` the Pfaffian by first-row
recursion, a second algorithm beside the package's blocked-partition sum.
``debruijn_rhs`` writes out each de Bruijn row's right side as its own pair
(or 2k-wise) formula over one family, the odd row through
``first_row_expansion``.
"""
from fractions import Fraction

from spfk.core import QQ, double_factorial_coeff
from spfk.integrals import merged_exponent, r_value
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
    """Pfaffian by first-row expansion over entries read through ``M.get``,
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
            entry = M.get((i0, idx[t]))
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
