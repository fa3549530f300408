"""The identity checks of the source paper, one table row each.

Each check is a ``report.Check`` row (sides, name, flags, domain, inputs) in
one of the tables ``WICK``, ``STRUCTURE``, ``RATIONAL``, ``VI`` and
``VANDERMONDE`` (the de Bruijn and Chen rows are in ``integrals``).
``report.run_check`` runs every row the same way: ``report.complete`` before
any work, then the left side, then the right side.  Each ``verify_*``
function here is that driver on its table, given only what its caller gave.

The two sides are built independently: the left side is the
definition-level sum (permutation sums, tuple enumeration; every
permutation sum, of R in MEHTA2 and SUM1 (``integrals.ordered_sum``), in
HAFSYM (``_hafsym_lhs``) and of words in each Wick row (``_wick_sides``), is
one ``integrals.placed_sum`` DP over the set of placed indices) and never
goes through the kernel that computes the right side.  Equality is exact, in the free
algebra for the symbolic identities and at seeded rational points for the
rational-function ones.  The right side of every Wick row and of VI is one
``tensors.group_form`` call, whose entries (anti)symmetrise the value of one
group of letters, as for the de Bruijn rows; at an odd order ODD_EVEN,
ANTISHUFFLE and VI are bordered by its first row of singles.  The seven Wick
rows differ only in their ``word_of`` rule, which both sides read once per
ordered group of letters (``_wick_sides``).  VI clears the point's
denominators once and runs its quasimonomial DP on ints; each side is
divided back by its own power of the scale.  ARQ clears its point once too:
its products run on ints.  Every sum of rationals in a side is one
``QQ.sum`` (``core.Ring.sum``), and every product of them one ``math.prod``.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import (QQ, SeededSampler, clear_denominators, double_factorial_coeff, integer,
                   mix_seed)
from .freealg import ANTISHUFFLE_RING, SHUFFLE_RING, FreePoly, sort_with_sign
from .integrals import index_masks, ordered_sum, placed_sum, r_value
from .report import Check, VerificationReport, at_points, run_check
from .tensors import (
    AltTensor,
    DenseMatrix,
    SymTensor,
    blocked_count,
    determinant,
    enumerate_blocked,
    group_form,
    hafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)

_SAMPLE_BOUND = 200


# ---------------------------------------------------------------------------
# Shuffle Wick identities (symbolic, coefficients in the free algebra)


def verify_shuffle_wick(
    variant: str, n: int, k: int | None = None, coeff: str | None = None
) -> VerificationReport:
    """Permutation sum of concatenation words against the matching
    (hyper)Pfaffian or hafnian computed in the shuffle/antishuffle ring."""
    return run_check(WICK, variant, {"n": n, "k": k, "coeff": coeff})


def _wick_sides(order: int, g: int, word_of, signed: bool, alternating: bool, ring=SHUFFLE_RING):
    """The two sides of a Wick row, as callables.  ``word_of(seq)`` gives the
    (word, coefficient) of a sequence of indices, a concatenation of the words
    of its groups of g.  The left side sums sgn(p)^signed word_of(p) over the
    permutations p of 1..order; the right side is ``tensors.group_form`` of
    the one-word FreePoly of each group, so both sides read one rule.

    A permutation is its groups of g in turn (the last one of order % g when
    that is nonzero), and its word the concatenation of theirs, so the left
    side is ``integrals.placed_sum`` with one level per group, its key the
    word so far.  Each index set of a group's size is one move, with the
    {word: coefficient} of its orderings, each ``word_of`` once per check
    and signed by its own inversions; its inversions with the indices
    already placed are the move's parity.
    """

    def lhs():
        groups = {}  # {size: [(set mask, parity, {word: coeff})]}
        for size in {g, order % g} - {0}:
            taus = tuple(signed_permutations(size))
            groups[size] = []
            for idx in itertools.combinations(range(1, order + 1), size):
                words: dict = {}
                for tau, sign in taus:
                    word, coeff = word_of(tuple(idx[t - 1] for t in tau))
                    words[word] = words.get(word, 0) + (sign * coeff if signed else coeff)
                groups[size].append((*index_masks(i - 1 for i in idx), words))
        sizes = [g] * (order // g) + [order % g] * (order % g > 0)
        states, _ = placed_sum([groups[size] for size in sizes], signed, ())
        (acc,) = states.values()
        for word in [word for word, c in acc.items() if not c]:
            del acc[word]
        return FreePoly._make(acc)

    value_of = lambda seq: FreePoly.from_word(*word_of(seq))

    return lhs, lambda: group_form(ring, order, g, value_of, signed, alternating)


def _wick_pfab(n: int):
    d = 2 * n  # a letters 0..d-1 at even positions, b letters d..2d-1 at odd ones
    word_of = lambda p: (tuple(p[j] - 1 + (d if j % 2 else 0) for j in range(len(p))), 1)
    return _wick_sides(d, 2, word_of, True, True)


def _wick_pair_letters(n: int, signed: bool):
    # One letter per ordered pair: SDB2 (signed, Pfaffian), FHAFF2 (hafnian).
    d = 2 * n
    c = lambda i, j: (i - 1) * d + (j - 1)
    word_of = lambda p: (tuple(c(p[t], p[t + 1]) for t in range(0, len(p), 2)), 1)
    return _wick_sides(d, 2, word_of, signed, signed)


def _word_of_letters(p):
    return tuple(i - 1 for i in p), 1


def _wick_fhaff1(n: int, coeff: str):
    lhs, hf = _wick_sides(2 * n, 2, _word_of_letters, False, False)
    return lhs, lambda: SHUFFLE_RING.div_int(hf(), double_factorial_coeff(n, coeff)[0])


def _wick_odd(n: int, signed: bool):
    # ODD_EVEN (unsigned sum, shuffle Pfaffian) and ANTISHUFFLE (signed sum,
    # antishuffle hafnian); an odd n borders the pair words by single letters.
    ring = ANTISHUFFLE_RING if signed else SHUFFLE_RING
    return _wick_sides(n, 2, _word_of_letters, signed, not signed, ring)


def _xipfashu_ids(k: int, n: int) -> dict:
    """{sorted 2k-tuple of 1..2kn: letter}.  The numbering is a definition,
    which fixes every letter id and so every XIPFASHU digest: the tuples in
    the order they first show when the permutations of 1..2kn are read in
    lexicographic order, blocks left to right.

    A set S first shows as block j in the least permutation that has it
    there: the smallest values outside S, sorted, then S, sorted, then the
    rest, sorted.  So S is keyed by the least (that permutation, j) over j,
    and the sets are numbered in key order, with no permutation scanned."""
    width, full = 2 * k, range(1, 2 * k * n + 1)

    def first_met(block):
        rest = tuple(i for i in full if i not in block)
        cut = lambda j: rest[: j * width] + block + rest[j * width :]
        return min((cut(j), j) for j in range(n))

    blocks = sorted(itertools.combinations(full, width), key=first_met)
    return {block: letter for letter, block in enumerate(blocks)}


def _wick_xipfashu(k: int, n: int):
    # Each block's letter is set by _xipfashu_ids before either side runs.
    width, order = 2 * k, 2 * k * n
    ids = _xipfashu_ids(k, n)

    def word_of(seq):
        coeff, letters = 1, []
        for b in range(0, len(seq), width):
            canon, sign = sort_with_sign(seq[b : b + width])
            letters.append(ids[canon])
            coeff *= sign
        return tuple(letters), coeff

    return _wick_sides(order, width, word_of, True, True)


def _wick(name, sides_of, domain, flags=None):
    # A Wick row: symbolic, so no seed; ``sides_of(params)`` gives the sides.
    sides = lambda p, _seed: ({"seeds": []}, *sides_of(p))
    return Check(sides, name, flags or {"n": ...}, domain)


# A domain is (ranges, caps), as core.check_domain reads it; the first cap's
# measure is also the size of the id's suite cases.
_WICK_2N = ({"n": (0, None)}, {"2n": (lambda p: 2 * p["n"], 8)})
_WICK_N = ({"n": (0, None)}, {"n": (lambda p: p["n"], 6)})
# k <= 4 bounds XIPFASHU's 2k-letter blocks at n = 0 too, where 2kn caps nothing.
_WICK_2KN = ({"n": (0, None), "k": (1, 4)}, {"2kn": (lambda p: 2 * p["k"] * p["n"], 8)})

WICK = {
    check.name.lower(): check
    for check in (
        _wick("PFAB", lambda p: _wick_pfab(p["n"]), _WICK_2N),
        _wick("SDB2", lambda p: _wick_pair_letters(p["n"], signed=True), _WICK_2N),
        _wick("FHAFF2", lambda p: _wick_pair_letters(p["n"], signed=False), _WICK_2N),
        _wick(
            "FHAFF1",
            lambda p: _wick_fhaff1(p["n"], p["coeff"]),
            _WICK_2N,
            {"n": ..., "coeff": "corrected"},
        ),
        _wick("ODD_EVEN", lambda p: _wick_odd(p["n"], signed=False), _WICK_N),
        _wick("ANTISHUFFLE", lambda p: _wick_odd(p["n"], signed=True), _WICK_N),
        _wick(
            "XIPFASHU",
            lambda p: _wick_xipfashu(p["k"], p["n"]),
            _WICK_2KN,
            {"k": ..., "n": ...},
        ),
    )
}


# ---------------------------------------------------------------------------
# Hyperpfaffian structure identities (random rational tensors)


def _random_alt_tensor(sampler: SeededSampler, order: int, dim: int) -> AltTensor:
    count = math.comb(dim, order)
    values = sampler.positive_distinct(count, 1000)
    entries = dict(zip(itertools.combinations(range(1, dim + 1), order), values))
    return AltTensor(QQ, order, dim, entries)


def _random_dense(sampler: SeededSampler, rows: int, cols: int) -> DenseMatrix:
    values = sampler.positive_distinct(rows * cols, 1000)
    data = [values[r * cols : (r + 1) * cols] for r in range(rows)]
    return DenseMatrix.from_rows(data)


def verify_hyperpf_structure(
    variant: str, m: int, n: int, t: int | None = None, seed: int = 42
) -> VerificationReport:
    """Composition, sum, minor-summation, and block-decomposition laws of the
    hyperpfaffian, checked on seeded random rational tensors."""
    return run_check(STRUCTURE, variant, {"m": m, "n": n, "t": t}, seed)


def _structure_composition(m, n, _t, sampler):
    dim = 2 * m * n
    A = _random_alt_tensor(sampler, 2, dim)
    coeff = blocked_count(n, m)

    def lhs():
        P = AltTensor.from_function(QQ, 2 * m, dim, lambda K: pfaffian(A.restrict(K)))
        return [hyperpfaffian(P)]

    return lhs, lambda: [coeff * pfaffian(A)]


def _structure_sum(m, n, _t, sampler):
    dim = 2 * m * n
    A = _random_alt_tensor(sampler, 2 * m, dim)
    B = _random_alt_tensor(sampler, 2 * m, dim)

    def rhs():
        full = range(1, dim + 1)
        splits = [(I, j) for j in range(n + 1) for I in itertools.combinations(full, 2 * j * m)]
        rest = lambda I: tuple(i for i in full if i not in I)
        terms = (hyperpfaffian(A.restrict(I)) * hyperpfaffian(B.restrict(rest(I)))
                 for I, _ in splits)
        return [QQ.sum(terms, [-1 if (sum(I) - j * m) % 2 else 1 for I, j in splits])]

    plus = lambda I: A.entry(I) + B.entry(I)
    return lambda: [hyperpfaffian(AltTensor.from_function(QQ, 2 * m, dim, plus))], rhs


def _structure_minor(m, n, t, sampler):
    dim = 2 * m * n
    rows = 2 * m * t
    A = _random_alt_tensor(sampler, 2 * m, dim)
    T = _random_dense(sampler, rows, dim)

    all_rows = tuple(range(1, rows + 1))
    lhs = lambda: [QQ.sum(hyperpfaffian(A.restrict(K)) * determinant(T.submatrix(all_rows, K))
                          for K in itertools.combinations(range(1, dim + 1), rows))]
    # The stored entries of A are its nonzero ones.
    q_entry = lambda I: QQ.sum(a * determinant(T.submatrix(I, K)) for K, a in A.entries())

    return lhs, lambda: [hyperpfaffian(AltTensor.from_function(QQ, 2 * m, rows, q_entry))]


def _structure_det_decomp(m, n, _t, sampler):
    # Row blocks go to distinct column groups: every order of each partition's
    # blocks, each with the partition's sign, as the blocks have even width.
    dim = 2 * m * n
    T = _random_dense(sampler, dim, dim)
    width = 2 * m

    cols = [tuple(range(b * width + 1, (b + 1) * width + 1)) for b in range(n)]
    minors = lambda blocks: math.prod(map(determinant, map(T.submatrix, blocks, cols)))

    def rhs():
        orders = [(blocks, sign) for partition, sign in enumerate_blocked(n, width)
                  for blocks in itertools.permutations(partition)]
        return [QQ.sum((minors(blocks) for blocks, _ in orders), [s for _, s in orders])]

    return lambda: [determinant(T)], rhs


def _structure(name, sides_of, t=False):
    # A structure row: ``sides_of(m, n, t, sampler)`` draws its tensors from
    # the sampler of (seed, name, m, n, t) and gives the sides.
    def sides(p, seed):
        m, n, t = p["m"], p["n"], p.get("t")
        sampler = SeededSampler(mix_seed(seed, ("structure", name, m, n, t or 0)))
        return {}, *sides_of(m, n, t, sampler)

    flags = {"m": ..., "n": ..., "t": ...} if t else {"m": ..., "n": ...}
    ranges = {"m": (1, None), "n": (1, None), **({"t": (1, "n")} if t else {})}
    return Check(sides, name, flags, (ranges, {"2mn": (lambda p: 2 * p["m"] * p["n"], 8)}))


STRUCTURE = {
    check.name.lower(): check
    for check in (
        _structure("COMPOSITION", _structure_composition),
        _structure("SUM", _structure_sum),
        _structure("MINOR", _structure_minor, t=True),
        _structure("DET_DECOMP", _structure_det_decomp),
    )
}


# ---------------------------------------------------------------------------
# Rational-function identities (seeded point evaluation)


def verify_rational_identity(
    variant: str, size: int, seed: int = 42, points: int | None = None, coeff: str | None = None
) -> VerificationReport:
    """Closed-form rational identities checked at seeded positive rational
    points; `size` is the row's one flag, n or m."""
    row = RATIONAL.get(variant.lower())
    flag = next(iter(row.flags)) if row else "n"  # an unknown variant is refused by name
    return run_check(RATIONAL, variant, {flag: size, "coeff": coeff, "points": points}, seed)


def _schur_product(x, factor=1) -> Fraction:
    # factor * prod_{i<j} (x_i - x_j) / (x_i + x_j), for an int or Fraction
    # factor.  Each quotient is homogeneous of degree 0, so the products run
    # on the ints y = L x of the cleared point and one Fraction is built.
    _, y = clear_denominators(x)
    num = den = 1
    for i, a in enumerate(y):
        for b in y[i + 1 :]:
            num *= a - b
            den *= a + b
    return Fraction(factor.numerator * num, factor.denominator * den)


# Each evaluator draws one sample point and gives the two sides at it.


def _rat_schur(n, sampler, _coeff):
    d = 2 * n
    x = sampler.positive_distinct(d, _SAMPLE_BOUND)
    entry = lambda ij: (x[ij[0] - 1] - x[ij[1] - 1]) / (x[ij[0] - 1] + x[ij[1] - 1])
    return lambda: pfaffian(AltTensor.from_function(QQ, 2, d, entry)), lambda: _schur_product(x)


def _rat_schur_hyper(n, sampler, coeff):
    d = 4 * n
    x = sampler.positive_distinct(d, _SAMPLE_BOUND)
    entry = lambda idx: _schur_product([x[i - 1] for i in idx])
    lhs = lambda: hyperpfaffian(AltTensor.from_function(QQ, 4, d, entry))
    return lhs, lambda: _schur_product(x, double_factorial_coeff(n, coeff)[0])


def _rat_sundquist(m, sampler, _coeff):
    d = 2 * m
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    x, u, v = batch[:d], batch[d : 2 * d], batch[2 * d :]

    def lhs():
        rows = []
        for i in range(d):
            row = []
            for j in range(m):
                pw = x[i] ** (2 * j)
                row.extend([pw * u[i], pw * v[i]])
            rows.append(row)
        return determinant(DenseMatrix.from_rows(rows))

    def rhs():
        entry = lambda ij: (
            u[ij[0] - 1] * v[ij[1] - 1] - u[ij[1] - 1] * v[ij[0] - 1]
        ) / (x[ij[0] - 1] + x[ij[1] - 1])
        pf = pfaffian(AltTensor.from_function(QQ, 2, d, entry))
        return math.prod((a + b for a, b in itertools.combinations(x, 2)), start=pf)

    return lhs, rhs


def _rat_mehta1(n, sampler, _coeff):
    x = sampler.positive_distinct(n, _SAMPLE_BOUND)

    cuts = range(n + 1)
    lhs = lambda: QQ.sum((r_value(reversed(x[:c])) * r_value(x[c:]) for c in cuts),
                         [(-1) ** c for c in cuts])
    return lhs, lambda: QQ.zero


def _rat_mehta2(n, sampler, _coeff):
    x = sampler.positive_distinct(n, _SAMPLE_BOUND)
    # Reversing x turns each (x_i - x_j)/(x_i + x_j) into (x_j - x_i)/(x_j + x_i).
    rhs = lambda: _schur_product(x[::-1], 1 / math.prod(x))
    return lambda: ordered_sum([x] * n, 1, signed=True), rhs


def _rat_sum1(m, sampler, _coeff):
    x = sampler.positive_distinct(m, _SAMPLE_BOUND)
    return lambda: ordered_sum([x] * m, 1, signed=False), lambda: 1 / math.prod(x)


def _hafsym_lhs(x, y) -> Fraction:
    """Sum over the orderings s of the letters of
    prod_{even j} y[s_j] / prod_{odd j} (x[s_0] + ... + x[s_j]).

    A prefix's weight depends only on the set of letters it places and their
    x-sum, so this is ``integrals.placed_sum`` with one level per position,
    its key the partial x-sum: a letter at an even position multiplies by
    its y, and the level of each odd position closes, dividing by the
    x-sum.  O(2^d d) instead of d!.

    It runs on ints, as ``ordered_sum`` does: x and y are cleared together
    by one scale L, which cancels, since each term has as many y factors as
    x-sums.
    """
    d = len(x)
    _scale, flat = clear_denominators([*x, *y])
    xs, ys = flat[:d], flat[d:]
    letters = [index_masks((i,)) for i in range(d)]
    even = [(mask, parity, {xs[i]: ys[i]}) for i, (mask, parity) in enumerate(letters)]
    odd = [(mask, parity, {xs[i]: 1}) for i, (mask, parity) in enumerate(letters)]
    states, denominator = placed_sum([even, odd] * (d // 2), False, 0, range(1, d, 2))
    return Fraction(sum(w for keys in states.values() for w in keys.values()), denominator)


def _rat_hafsym(n, sampler, _coeff):
    d = 2 * n
    batch = sampler.positive_distinct(2 * d, _SAMPLE_BOUND)
    x, y = batch[:d], batch[d:]
    entry = lambda ij: (y[ij[0] - 1] + y[ij[1] - 1]) / (x[ij[0] - 1] + x[ij[1] - 1])
    return lambda: _hafsym_lhs(x, y), lambda: hafnian(SymTensor.from_function(QQ, 2, d, entry))


def _rat_wigner_rank1(n, sampler, coeff):
    d = 2 * n
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    a, b, x = batch[:d], batch[d : 2 * d], batch[2 * d :]
    entry = lambda ij: (
        (b[ij[0] - 1] - a[ij[0] - 1]) * (b[ij[1] - 1] - a[ij[1] - 1])
    ) / (x[ij[0] - 1] * x[ij[1] - 1])

    def lhs():
        cval, _ = double_factorial_coeff(n, coeff)
        return hafnian(SymTensor.from_function(QQ, 2, d, entry)) / cval

    return lhs, lambda: math.prod((b[i] - a[i]) / x[i] for i in range(d))


def _rat_arq(m, sampler, _coeff):
    # Every factor is homogeneous: with x cleared over L and (a, b) over M
    # once, the q product of a permutation is Q / M^d and its x powers are
    # X / L^(d(d-1)/2) for int products Q and X, and R is ``r_value`` of the
    # cleared x over L.  Each antisymmetrisation is one ``QQ.sum``, and each
    # side builds one Fraction over M^d L^(d(d-1)/2).
    d = 2 * m
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    scale, x = clear_denominators(batch[:d])
    ab_scale, ab = clear_denominators(batch[d:])
    a, b = ab[:d], ab[d:]
    perms, signs = zip(*signed_permutations(d))
    # q: b - a at the odd positions 1, 3, ..., b + a at the even ones.
    q = [math.prod(b[p - 1] + (a[p - 1] if i % 2 else -a[p - 1]) for i, p in enumerate(perm))
         for perm in perms]
    xr = [math.prod(x[p - 1] ** i for i, p in enumerate(perm)) for perm in perms]
    den = ab_scale**d * scale ** (d * (d - 1) // 2)
    antisym = lambda values: QQ.sum(values, signs)
    r = lambda: [r_value([x[p - 1] for p in perm], scale) for perm in perms]
    # f g / (M^d L^(d(d-1)/2)) as one Fraction.
    times = lambda f, g: Fraction(f.numerator * g.numerator, f.denominator * g.denominator * den)

    def lhs():
        rq = [Fraction(v.numerator * w, v.denominator) for v, w in zip(r(), q)]
        return times(antisym(rq), antisym(xr))

    return lhs, lambda: times(antisym(r()), antisym(map(operator.mul, q, xr)))


def _rational(name, sides_at, flag, most, *parity, coeff=False):
    # A rational row, checked at seeded sample points: ``sides_at(size,
    # sampler, coeff)`` draws one point.  The one size flag runs from 1 to
    # ``most`` and is also the case's size.
    def sides(p, seed):
        size = p[flag]
        at = lambda sampler: sides_at(size, sampler, p.get("coeff"))
        return {}, *at_points(name, seed, (name, size), p.get("points"), at)

    flags = {flag: ..., "coeff": "corrected"} if coeff else {flag: ...}
    domain = ({flag: (1, most, *parity)}, {"size": (lambda q: q[flag], None)})
    return Check(sides, name, flags, domain, ("points",))


RATIONAL = {
    check.name.lower(): check
    for check in (
        _rational("SCHUR", _rat_schur, "n", 3),
        _rational("SCHUR_HYPER", _rat_schur_hyper, "n", 2, coeff=True),
        _rational("SUNDQUIST", _rat_sundquist, "m", 3),
        _rational("MEHTA1", _rat_mehta1, "n", 6),
        _rational("MEHTA2", _rat_mehta2, "n", 6, "even"),
        _rational("SUM1", _rat_sum1, "m", 6),
        _rational("HAFSYM", _rat_hafsym, "n", 3),
        _rational("WIGNER_RANK1", _rat_wigner_rank1, "n", 3, coeff=True),
        _rational("ARQ", _rat_arq, "m", 2),
    )
}


# ---------------------------------------------------------------------------
# Alternating quasi-symmetric functions


def _quasimonomial(parts, powers) -> int:
    # M_J(y) = sum over j1 < ... < jr of y_{j1}^{J1} ... y_{jr}^{Jr}, on ints
    r = len(parts)
    dp = [1] + [0] * r
    for i, row in enumerate(powers):
        for depth in range(min(i + 1, r), 0, -1):
            dp[depth] += dp[depth - 1] * row[parts[depth - 1]]
    return dp[r]


def _vi_sides(parts, x):
    """The two sides of VI at the rational point x, as callables.  The right
    side is ``tensors.group_form`` of value_of(seq) = M_(parts of seq) /
    L^|parts of seq|, an odd-length composition bordered by the singles
    M_(a) / L^a.

    M_J is homogeneous of degree |J|, so with L the lcm of the denominators
    of x the DP runs on the ints y = L x, and each value is divided back
    once: the left side's signed sum by L^|J| and each right-side value by
    its own power of L.  The two sides are unscaled separately, so a wrong
    exponent cannot cancel out of the comparison.
    """
    scale, y = clear_denominators(x)
    powers = [[v ** e for e in range(max(parts) + 1)] for v in y]

    def lhs():
        signed_sum = 0
        for perm, sign in signed_permutations(len(parts)):
            signed_sum += sign * _quasimonomial([parts[p - 1] for p in perm], powers)
        return Fraction(signed_sum, scale ** sum(parts))

    def value_of(seq):
        group = [parts[i - 1] for i in seq]
        return Fraction(_quasimonomial(group, powers), scale ** sum(group))

    return lhs, lambda: group_form(QQ, len(parts), 2, value_of, True, True)


def verify_VI(parts, N: int | None = None, seed: int = 42, points=None) -> VerificationReport:
    """Signed quasimonomial sum against its Pfaffian (even length) or
    bordered-Pfaffian (odd length) evaluation, at seeded rational points."""
    given = {"parts": tuple(map(integer, parts)), "N": N, "points": points}
    return run_check(VI, "VI", given, seed)


def _vi_check(p, seed):
    parts, N = p["parts"], p["N"]
    sides_at = lambda s: _vi_sides(parts, s.positive_distinct(N, _SAMPLE_BOUND))
    shown = {"parts": list(parts), "N": N}
    return {"params": shown}, *at_points("VI", seed, ("vi", parts, N), p.get("points"), sides_at)


VI = {
    "vi": Check(
        _vi_check,
        "VI",
        {"parts": ..., "N": 8},
        ({"parts": (1, 4), "N": (1, 8)}, {"len": (lambda p: len(p["parts"]), 4)}),
        ("points",),
    )
}


# ---------------------------------------------------------------------------
# Discrete Vandermonde-power averages


def verify_vandermonde_average(
    N: int, n: int, m: int, y=None, seed: int = 42
) -> VerificationReport:
    """Average of the 2m-th Vandermonde power over N^n uniform tuples against
    its hyperpfaffian evaluation on the power-sum tensor.

    The block structure forces entry exponent sum(i_k) - m(n(2m-1)+2) and a
    global sign (-1)^(C(n,2) C(2m,2)) from regrouping the interleaved columns;
    for m = 1 the determinant form n!/N^n det(p_{i+j-2}) is checked as well,
    as a second right-side value wherever it differs from the first.
    """
    return run_check(VANDERMONDE, "VANDERMONDE", {"N": N, "n": n, "m": m, "y": y}, seed)


def _vandermonde_check(p, seed):
    N, n, m, y = p["N"], p["n"], p["m"], p["y"]
    shown = {"N": N, "n": n, "m": m}
    if y is None:
        sampler = SeededSampler(mix_seed(seed, ("vandermonde", N, n, m)))
        y = sampler.positive_distinct(N, _SAMPLE_BOUND)
    else:
        y = [Fraction(v) for v in y]
        if len(y) != N:
            listed = ", ".join(map(str, y))
            raise ValueError(f"VANDERMONDE needs N values of y, got y=[{listed}] for N={N}")
        shown["y"] = [f"{v.numerator}/{v.denominator}" for v in y]

    pairs = list(itertools.combinations(range(n), 2))
    power = lambda tup: math.prod((y[tup[j]] - y[tup[i]]) ** (2 * m) for i, j in pairs)
    lhs = lambda: [QQ.sum(map(power, itertools.product(range(N), repeat=n))) / N ** n]

    def rhs():
        width = 2 * m
        shift = m * (n * (2 * m - 1) + 2)
        entries = {}
        blocks = [range((s - 1) * n + 1, s * n + 1) for s in range(1, width + 1)]
        for combo in itertools.product(*blocks):
            e = sum(combo) - shift
            entries[combo] = QQ.sum(v ** e for v in y)
        M = AltTensor(QQ, width, width * n, entries)
        sign = -1 if (math.comb(n, 2) * math.comb(width, 2)) % 2 else 1
        value = sign * Fraction(math.factorial(n), N ** n) * hyperpfaffian(M)
        if m > 1:
            return [value]
        rows = [[QQ.sum(v ** (i + j) for v in y) for j in range(n)] for i in range(n)]
        det_form = Fraction(math.factorial(n), N ** n) * determinant(DenseMatrix.from_rows(rows))
        return [value] if det_form == value else [value, det_form]

    return {"params": shown, "conventions": {"pf_sign": "(-1)^(C(n,2)*C(2m,2))"}}, lhs, rhs


# 2mn is capped before N^n is computed, so a huge n costs no big power; m <= 4
# caps the right side's 2m blocks at n = 0.  N <= _SAMPLE_BOUND, the most distinct
# points the sampler draws; with Nn <= 10000 a larger N allows only n <= 1, an empty product.
VANDERMONDE = {
    "vandermonde": Check(
        _vandermonde_check,
        "VANDERMONDE",
        {"N": ..., "n": ..., "m": ..., "y": None},
        (
            {"N": (1, _SAMPLE_BOUND), "n": (0, None), "m": (1, 4)},
            {
                "2mn": (lambda p: 2 * p["m"] * p["n"], 8),
                "Nn": (lambda p: p["N"] ** p["n"], 10_000),
            },
        ),
    )
}
