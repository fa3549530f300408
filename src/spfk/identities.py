"""One verifier per identity.

Every verifier builds both sides independently: the left side is the
definition-level sum (permutation sums, tuple enumeration; the sums of R over
permutations in MEHTA2 and SUM1 go through ``integrals.ordered_sum``, and
HAFSYM's permutation sum is the same kind of DP over the set of placed
letters, ``_hafsym_lhs``) and never goes through the kernel that computes the
right side.  Equality is exact, in the free algebra for the symbolic
identities and at seeded rational points for the rational-function ones.
VI clears the point's denominators once and runs its quasimonomial DP on
ints; each side is divided back by its own power of the scale.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import QQ, SeededSampler, double_factorial_coeff, mix_seed
from .freealg import (
    ANTISHUFFLE_RING,
    SHUFFLE_RING,
    FreePoly,
    LetterRegistry,
    antishuffle,
    shuffle,
)
from .integrals import ordered_sum, r_value
from .report import ReportBuilder, VerificationReport, scalar_list_canonical
from .tensors import (
    AltTensor,
    DenseMatrix,
    SymTensor,
    determinant,
    enumerate_blocked,
    hafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)

WICK_VARIANTS = ("PFAB", "SDB2", "FHAFF2", "FHAFF1", "ODD_EVEN", "ANTISHUFFLE", "XIPFASHU")
STRUCTURE_VARIANTS = ("COMPOSITION", "SUM", "MINOR", "DET_DECOMP")

_SAMPLE_BOUND = 200


# ---------------------------------------------------------------------------
# Shuffle Wick identities (symbolic, coefficients in the free algebra)


def verify_shuffle_wick(
    variant: str, n: int, k: int | None = None, coeff: str = "corrected"
) -> VerificationReport:
    """Permutation sum of concatenation words against the matching
    (hyper)Pfaffian or hafnian computed in the shuffle/antishuffle ring."""
    variant = variant.upper()
    if variant not in WICK_VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    _need_at_least(variant, n=(n, 0))
    if variant == "XIPFASHU":
        if k is None:
            raise ValueError("XIPFASHU needs k")
        _need_at_least(variant, k=(k, 1))
        if 2 * k * n > 8:
            raise ValueError("size cap exceeded: 2kn <= 8")
        return _wick_xipfashu(k, n)
    if variant in ("ODD_EVEN", "ANTISHUFFLE"):
        if n > 6:
            raise ValueError("size cap exceeded: n <= 6")
    else:
        if 2 * n > 8:
            raise ValueError("size cap exceeded: 2n <= 8")
    if variant == "PFAB":
        return _wick_pfab(n)
    if variant == "SDB2":
        return _wick_pair_letters(n, signed=True)
    if variant == "FHAFF2":
        return _wick_pair_letters(n, signed=False)
    if variant == "FHAFF1":
        return _wick_fhaff1(n, coeff)
    if variant == "ODD_EVEN":
        return _wick_odd_even(n)
    return _wick_antishuffle(n)


def _need_at_least(variant: str, **flags) -> None:
    """Refuse, before any work, a flag below its minimum: flags maps each
    flag name to (value, minimum)."""
    for name, (value, least) in flags.items():
        if value < least:
            raise ValueError(f"{variant} needs {name} >= {least}, got {name}={value}")


def _perm_sum(d: int, word_of, signed: bool) -> FreePoly:
    """Sum over the permutations p of 1..d of sgn(p)^signed * word_of(p)."""
    acc: dict = {}
    for perm, sign in signed_permutations(d):
        word = word_of(perm)
        acc[word] = acc.get(word, 0) + (sign if signed else 1)
    return FreePoly(acc)


def _poly_report(builder: ReportBuilder, lhs: FreePoly, rhs: FreePoly) -> VerificationReport:
    return builder.finish(
        lhs == rhs,
        lhs.canonical_string(),
        rhs.canonical_string(),
        lhs.num_terms(),
        rhs.num_terms(),
    )


def _wick_pfab(n: int) -> VerificationReport:
    builder = ReportBuilder("pfab", {"n": n})
    d = 2 * n
    a = lambda i: i - 1
    b = lambda i: d + i - 1
    lhs = _perm_sum(d, lambda p: tuple(a(p[j]) if j % 2 == 0 else b(p[j]) for j in range(d)), True)
    Q = AltTensor.from_function(
        SHUFFLE_RING,
        2,
        d,
        lambda ij: FreePoly({(a(ij[0]), b(ij[1])): 1, (a(ij[1]), b(ij[0])): -1}),
    )
    return _poly_report(builder, lhs, pfaffian(Q))


def _wick_pair_letters(n: int, signed: bool) -> VerificationReport:
    d = 2 * n
    builder = ReportBuilder("sdb2" if signed else "fhaff2", {"n": n})
    c = lambda i, j: (i - 1) * d + (j - 1)
    lhs = _perm_sum(d, lambda p: tuple(c(p[2 * t], p[2 * t + 1]) for t in range(n)), signed)
    if signed:
        Q = AltTensor.from_function(
            SHUFFLE_RING, 2, d, lambda ij: FreePoly({(c(*ij),): 1, (c(ij[1], ij[0]),): -1})
        )
        rhs = pfaffian(Q)
    else:
        Q = SymTensor.from_function(
            SHUFFLE_RING, 2, d, lambda ij: FreePoly({(c(*ij),): 1, (c(ij[1], ij[0]),): 1})
        )
        rhs = hafnian(Q)
    return _poly_report(builder, lhs, rhs)


def _wick_fhaff1(n: int, coeff: str) -> VerificationReport:
    cval, cname = double_factorial_coeff(n, coeff)
    builder = ReportBuilder(
        "fhaff1", {"n": n, "coeff": coeff}, conventions={"double_factorial": cname}
    )
    d = 2 * n
    lhs = _perm_sum(d, lambda p: tuple(i - 1 for i in p), False)
    Q = SymTensor.from_function(
        SHUFFLE_RING,
        2,
        d,
        lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): 1}),
    )
    rhs = hafnian(Q).scale(Fraction(1, cval))
    return _poly_report(builder, lhs, rhs)


def _wick_odd_even(n: int) -> VerificationReport:
    builder = ReportBuilder("odd_even", {"n": n})
    lhs = _perm_sum(n, lambda p: tuple(i - 1 for i in p), False)
    Q = AltTensor.from_function(
        SHUFFLE_RING,
        2,
        n,
        lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): 1}),
    )
    if n % 2 == 0:
        rhs = pfaffian(Q)
    else:
        rhs = FreePoly.zero()
        for p in range(1, n + 1):
            keep = tuple(i for i in range(1, n + 1) if i != p)
            minor = pfaffian(Q.restrict(keep))
            term = shuffle(FreePoly.from_letter(p - 1), minor)
            rhs = rhs + (term if p % 2 == 1 else -term)
    return _poly_report(builder, lhs, rhs)


def _wick_antishuffle(n: int) -> VerificationReport:
    builder = ReportBuilder("antishuffle", {"n": n})
    lhs = _perm_sum(n, lambda p: tuple(i - 1 for i in p), True)
    Q = SymTensor.from_function(
        ANTISHUFFLE_RING,
        2,
        n,
        lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): -1}),
    )
    if n % 2 == 0:
        rhs = hafnian(Q)
    else:
        rhs = FreePoly.zero()
        for p in range(1, n + 1):
            keep = tuple(i for i in range(1, n + 1) if i != p)
            minor = hafnian(Q.restrict(keep))
            rhs = rhs + antishuffle(FreePoly.from_letter(p - 1), minor)
    return _poly_report(builder, lhs, rhs)


def _wick_xipfashu(k: int, n: int) -> VerificationReport:
    builder = ReportBuilder("xipfashu", {"k": k, "n": n})
    width = 2 * k
    d = width * n
    reg = LetterRegistry()
    # A block's (letter, sign) is fixed by its index tuple, and only
    # d!/(d - width)! distinct blocks occur among the d! permutations; the
    # registry sees each block once, on its first appearance, so letter ids
    # are assigned in the same order as without the memo.
    block_letters: dict = {}
    acc: dict = {}
    for perm, sign in signed_permutations(d):
        coeff = sign
        letters = []
        for b in range(0, d, width):
            block = perm[b : b + width]
            hit = block_letters.get(block)
            if hit is None:
                hit = block_letters[block] = reg.alternating_letter(block)
            letters.append(hit[0])
            coeff *= hit[1]
        word = tuple(letters)
        acc[word] = acc.get(word, 0) + coeff
    lhs = FreePoly(acc)

    def entry(idx):
        terms: dict = {}
        for tau, tsign in signed_permutations(width):
            lid, s = reg.alternating_letter(tuple(idx[t - 1] for t in tau))
            key = (lid,)
            terms[key] = terms.get(key, 0) + tsign * s
        return FreePoly(terms)

    M = AltTensor.from_function(SHUFFLE_RING, width, d, entry)
    return _poly_report(builder, lhs, hyperpfaffian(M))


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
    variant = variant.upper()
    if variant not in STRUCTURE_VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    _need_at_least(variant, m=(m, 1), n=(n, 1))
    if variant == "MINOR":
        if t is None:
            raise ValueError("MINOR needs t")
        _need_at_least(variant, t=(t, 1))
        if t > n:
            raise ValueError(f"MINOR needs t <= n, got t={t} > n={n}")
    if 2 * m * n > 8:
        raise ValueError("size cap exceeded: 2mn <= 8")
    sampler = SeededSampler(mix_seed(seed, ("structure", variant, m, n, t or 0)))
    if variant == "COMPOSITION":
        return _structure_composition(m, n, seed, sampler)
    if variant == "SUM":
        return _structure_sum(m, n, seed, sampler)
    if variant == "MINOR":
        return _structure_minor(m, t, n, seed, sampler)
    return _structure_det_decomp(m, n, seed, sampler)


def _scalar_report(builder: ReportBuilder, lhs_vals, rhs_vals) -> VerificationReport:
    equal = len(lhs_vals) == len(rhs_vals) and all(
        a == b for a, b in zip(lhs_vals, rhs_vals)
    )
    return builder.finish(
        equal,
        scalar_list_canonical(lhs_vals),
        scalar_list_canonical(rhs_vals),
        len(lhs_vals),
        len(rhs_vals),
    )


def _structure_composition(m, n, seed, sampler) -> VerificationReport:
    builder = ReportBuilder("composition", {"m": m, "n": n}, seeds=[seed])
    dim = 2 * m * n
    A = _random_alt_tensor(sampler, 2, dim)
    P = AltTensor.from_function(QQ, 2 * m, dim, lambda K: pfaffian(A.restrict(K)))
    lhs = hyperpfaffian(P)
    coeff = math.factorial(m * n) // (math.factorial(m) ** n * math.factorial(n))
    rhs = coeff * pfaffian(A)
    return _scalar_report(builder, [lhs], [rhs])


def _structure_sum(m, n, seed, sampler) -> VerificationReport:
    builder = ReportBuilder("sum", {"m": m, "n": n}, seeds=[seed])
    dim = 2 * m * n
    A = _random_alt_tensor(sampler, 2 * m, dim)
    B = _random_alt_tensor(sampler, 2 * m, dim)
    lhs = hyperpfaffian(A + B)
    rhs = Fraction(0)
    full = range(1, dim + 1)
    for j in range(n + 1):
        for I in itertools.combinations(full, 2 * j * m):
            comp = tuple(i for i in full if i not in set(I))
            sgn = -1 if (sum(I) - j * m) % 2 else 1
            rhs += sgn * hyperpfaffian(A.restrict(I)) * hyperpfaffian(B.restrict(comp))
    return _scalar_report(builder, [lhs], [rhs])


def _structure_minor(m, t, n, seed, sampler) -> VerificationReport:
    builder = ReportBuilder("minor", {"m": m, "t": t, "n": n}, seeds=[seed])
    dim = 2 * m * n
    rows = 2 * m * t
    A = _random_alt_tensor(sampler, 2 * m, dim)
    T = _random_dense(sampler, rows, dim)
    all_rows = tuple(range(1, rows + 1))
    lhs = Fraction(0)
    for K in itertools.combinations(range(1, dim + 1), rows):
        lhs += hyperpfaffian(A.restrict(K)) * determinant(T.submatrix(all_rows, K))

    def q_entry(I):
        total = Fraction(0)
        for K in itertools.combinations(range(1, dim + 1), 2 * m):
            a = A.entry(K)
            if a:
                total += a * determinant(T.submatrix(I, K))
        return total

    Q = AltTensor.from_function(QQ, 2 * m, rows, q_entry)
    rhs = hyperpfaffian(Q)
    return _scalar_report(builder, [lhs], [rhs])


def _structure_det_decomp(m, n, seed, sampler) -> VerificationReport:
    # The row blocks are assigned to distinct column groups, so the sum runs
    # over ordered block assignments, not minima-ordered partitions.
    builder = ReportBuilder("det_decomp", {"m": m, "n": n}, seeds=[seed])
    dim = 2 * m * n
    T = _random_dense(sampler, dim, dim)
    lhs = determinant(T)
    width = 2 * m
    rhs = Fraction(0)
    for blocks, sign in enumerate_blocked(n, width, ordered=True):
        prod = Fraction(1)
        for b, block in enumerate(blocks):
            cols = tuple(range(b * width + 1, (b + 1) * width + 1))
            prod *= determinant(T.submatrix(block, cols))
        rhs += sign * prod
    return _scalar_report(builder, [lhs], [rhs])


# ---------------------------------------------------------------------------
# Rational-function identities (seeded point evaluation)


def verify_rational_identity(
    variant: str,
    size: int,
    seed: int = 42,
    points: int = 3,
    coeff: str = "corrected",
) -> VerificationReport:
    """Closed-form rational identities checked at seeded positive rational
    points; `size` is the natural parameter of each variant (n or m)."""
    variant = variant.upper()
    if variant not in _RATIONAL_IMPL:
        raise ValueError(f"unknown variant: {variant}")
    impl, param_name, least, most = _RATIONAL_IMPL[variant]
    _need_at_least(variant, **{param_name: (size, least)})
    if variant == "MEHTA2" and size % 2:
        raise ValueError(f"MEHTA2 needs even n, got n={size}")
    if size > most:
        raise ValueError(f"size cap exceeded for {variant}: {param_name}={size}")
    params = {param_name: size}
    conventions = {}
    if variant in ("SCHUR_HYPER", "WIGNER_RANK1"):
        _, cname = double_factorial_coeff(size, coeff)
        params["coeff"] = coeff
        conventions["double_factorial"] = cname
    builder = ReportBuilder(variant.lower(), params, seeds=[seed], conventions=conventions)
    lhs_vals = []
    rhs_vals = []
    for p in range(points):
        sampler = SeededSampler(mix_seed(seed, (variant, size, p)))
        lhs, rhs = impl(size, sampler, coeff)
        lhs_vals.append(lhs)
        rhs_vals.append(rhs)
    return _scalar_report(builder, lhs_vals, rhs_vals)


def _rat_schur(n, sampler, _coeff):
    d = 2 * n
    x = sampler.positive_distinct(d, _SAMPLE_BOUND)
    entry = lambda ij: (x[ij[0] - 1] - x[ij[1] - 1]) / (x[ij[0] - 1] + x[ij[1] - 1])
    lhs = pfaffian(AltTensor.from_function(QQ, 2, d, entry))
    rhs = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            rhs *= (x[i] - x[j]) / (x[i] + x[j])
    return lhs, rhs


def _rat_schur_hyper(n, sampler, coeff):
    d = 4 * n
    x = sampler.positive_distinct(d, _SAMPLE_BOUND)

    def entry(idx):
        out = Fraction(1)
        for s in range(4):
            for t in range(s + 1, 4):
                xs, xt = x[idx[s] - 1], x[idx[t] - 1]
                out *= (xs - xt) / (xs + xt)
        return out

    lhs = hyperpfaffian(AltTensor.from_function(QQ, 4, d, entry))
    cval, _ = double_factorial_coeff(n, coeff)
    rhs = Fraction(cval)
    for i in range(d):
        for j in range(i + 1, d):
            rhs *= (x[i] - x[j]) / (x[i] + x[j])
    return lhs, rhs


def _rat_sundquist(m, sampler, _coeff):
    d = 2 * m
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    x, u, v = batch[:d], batch[d : 2 * d], batch[2 * d :]
    rows = []
    for i in range(d):
        row = []
        for j in range(m):
            pw = x[i] ** (2 * j)
            row.extend([pw * u[i], pw * v[i]])
        rows.append(row)
    lhs = determinant(DenseMatrix.from_rows(rows))
    entry = lambda ij: (
        u[ij[0] - 1] * v[ij[1] - 1] - u[ij[1] - 1] * v[ij[0] - 1]
    ) / (x[ij[0] - 1] + x[ij[1] - 1])
    rhs = pfaffian(AltTensor.from_function(QQ, 2, d, entry))
    for i in range(d):
        for j in range(i + 1, d):
            rhs *= x[i] + x[j]
    return lhs, rhs


def _rat_mehta1(n, sampler, _coeff):
    x = sampler.positive_distinct(n, _SAMPLE_BOUND)
    total = Fraction(0)
    for cut in range(n + 1):
        sign = -1 if cut % 2 else 1
        total += sign * r_value(reversed(x[:cut])) * r_value(x[cut:])
    return total, Fraction(0)


def _rat_mehta2(n, sampler, _coeff):
    x = sampler.positive_distinct(n, _SAMPLE_BOUND)
    lhs = ordered_sum([x] * n, 1, signed=True)
    rhs = 1 / math.prod(x)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= (x[j] - x[i]) / (x[j] + x[i])
    return lhs, rhs


def _rat_sum1(m, sampler, _coeff):
    x = sampler.positive_distinct(m, _SAMPLE_BOUND)
    lhs = ordered_sum([x] * m, 1, signed=False)
    rhs = 1 / math.prod(x)
    return lhs, rhs


def _hafsym_lhs(x, y) -> Fraction:
    """Sum over the orderings s of the letters of
    prod_{even j} y[s_j] / prod_{odd j} (x[s_0] + ... + x[s_j]).

    A prefix's weight depends only on the set of letters it places, so this
    is a forward DP over that set, as in ``integrals.ordered_sum``: a letter
    at an even position multiplies by its y, and a set reached at an odd
    position is divided by its x-sum once, after every way into it has been
    added.  O(2^d d) instead of d!.
    """
    d = len(x)
    weight = [Fraction(0)] * (1 << d)
    weight[0] = Fraction(1)
    for placed_set in range(1 << d):  # every subset comes before its supersets
        w = weight[placed_set]
        placed = bin(placed_set).count("1")
        if placed and placed % 2 == 0:
            w /= sum(x[i] for i in range(d) if placed_set >> i & 1)
            weight[placed_set] = w
        for i in range(d):
            if not placed_set >> i & 1:
                weight[placed_set | 1 << i] += w if placed % 2 else w * y[i]
    return weight[-1]


def _rat_hafsym(n, sampler, _coeff):
    d = 2 * n
    batch = sampler.positive_distinct(2 * d, _SAMPLE_BOUND)
    x, y = batch[:d], batch[d:]
    lhs = _hafsym_lhs(x, y)
    entry = lambda ij: (y[ij[0] - 1] + y[ij[1] - 1]) / (x[ij[0] - 1] + x[ij[1] - 1])
    rhs = hafnian(SymTensor.from_function(QQ, 2, d, entry))
    return lhs, rhs


def _rat_wigner_rank1(n, sampler, coeff):
    d = 2 * n
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    a, b, x = batch[:d], batch[d : 2 * d], batch[2 * d :]
    entry = lambda ij: (
        (b[ij[0] - 1] - a[ij[0] - 1]) * (b[ij[1] - 1] - a[ij[1] - 1])
    ) / (x[ij[0] - 1] * x[ij[1] - 1])
    cval, _ = double_factorial_coeff(n, coeff)
    lhs = hafnian(SymTensor.from_function(QQ, 2, d, entry)) / cval
    rhs = Fraction(1)
    for i in range(d):
        rhs *= (b[i] - a[i]) / x[i]
    return lhs, rhs


def _rat_arq(m, sampler, _coeff):
    d = 2 * m
    batch = sampler.positive_distinct(3 * d, _SAMPLE_BOUND)
    x, a, b = batch[:d], batch[d : 2 * d], batch[2 * d :]

    def r_part(perm):
        return r_value([x[p - 1] for p in perm])

    def q_part(perm):
        out = Fraction(1)
        for i in range(1, d + 1):
            sgn = -1 if i % 2 else 1
            out *= b[perm[i - 1] - 1] + sgn * a[perm[i - 1] - 1]
        return out

    def xr_part(perm):
        out = Fraction(1)
        for i in range(1, d + 1):
            out *= x[perm[i - 1] - 1] ** (i - 1)
        return out

    def antisym(fn):
        total = Fraction(0)
        for perm, sign in signed_permutations(d):
            total += sign * fn(perm)
        return total

    lhs = antisym(lambda p: r_part(p) * q_part(p)) * antisym(xr_part)
    rhs = antisym(r_part) * antisym(lambda p: q_part(p) * xr_part(p))
    return lhs, rhs


# variant: (evaluator, size flag, minimum, size cap); MEHTA2 also needs even n.
_RATIONAL_IMPL = {
    "SCHUR": (_rat_schur, "n", 1, 3),
    "SCHUR_HYPER": (_rat_schur_hyper, "n", 1, 2),
    "SUNDQUIST": (_rat_sundquist, "m", 1, 3),
    "MEHTA1": (_rat_mehta1, "n", 1, 6),
    "MEHTA2": (_rat_mehta2, "n", 1, 6),
    "SUM1": (_rat_sum1, "m", 1, 6),
    "HAFSYM": (_rat_hafsym, "n", 1, 3),
    "WIGNER_RANK1": (_rat_wigner_rank1, "n", 1, 3),
    "ARQ": (_rat_arq, "m", 1, 2),
}
RATIONAL_VARIANTS = tuple(_RATIONAL_IMPL)


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


def _vi_sides(parts, x) -> tuple[Fraction, Fraction]:
    """Both sides of VI at the rational point x; an odd-length composition's
    Pfaffian is bordered by a first row of singles M_(a).

    M_J is homogeneous of degree |J|, so with L the lcm of the denominators
    of x the DP runs on the ints y = L x, and each value is divided back
    once: the left side's signed sum by L^|J|, each Pfaffian entry q(a, b)
    by L^(a+b) and each bordered single by L^a.  The two sides are unscaled
    separately, so a wrong exponent cannot cancel out of the comparison.
    """
    scale = math.lcm(*(v.denominator for v in x))
    y = [v.numerator * (scale // v.denominator) for v in x]
    powers = [[v ** e for e in range(max(parts) + 1)] for v in y]
    signed_sum = 0
    for perm, sign in signed_permutations(len(parts)):
        signed_sum += sign * _quasimonomial([parts[p - 1] for p in perm], powers)
    rows = parts if len(parts) % 2 == 0 else (None,) + parts  # None: the border

    def entry(kl):
        a, b = (rows[i - 1] for i in kl)
        if a is None:
            return Fraction(_quasimonomial((b,), powers), scale ** b)
        q = _quasimonomial((a, b), powers) - _quasimonomial((b, a), powers)
        return Fraction(q, scale ** (a + b))

    rhs = pfaffian(AltTensor.from_function(QQ, 2, len(rows), entry))
    return Fraction(signed_sum, scale ** sum(parts)), rhs


def verify_VI(parts, N: int = 8, seed: int = 42, points: int = 3) -> VerificationReport:
    """Signed quasimonomial sum against its Pfaffian (even length) or
    bordered-Pfaffian (odd length) evaluation, at seeded rational points."""
    parts = tuple(int(p) for p in parts)
    r = len(parts)
    if r == 0 or min(parts) < 1:
        raise ValueError(f"VI needs parts >= 1, got parts={list(parts)}")
    if r > 4 or max(parts) > 4:
        raise ValueError("size cap exceeded: composition length <= 4, parts in 1..4")
    if N < 1:
        raise ValueError(f"VI needs N >= 1, got N={N}")
    if N > 8:
        raise ValueError("size cap exceeded: N <= 8")
    builder = ReportBuilder("vi", {"parts": list(parts), "N": N}, seeds=[seed])
    lhs_vals = []
    rhs_vals = []
    for pt in range(points):
        sampler = SeededSampler(mix_seed(seed, ("vi", parts, N, pt)))
        lhs, rhs = _vi_sides(parts, sampler.positive_distinct(N, _SAMPLE_BOUND))
        lhs_vals.append(lhs)
        rhs_vals.append(rhs)
    return _scalar_report(builder, lhs_vals, rhs_vals)


# ---------------------------------------------------------------------------
# Discrete Vandermonde-power averages


def verify_vandermonde_average(
    N: int, n: int, m: int, y=None, seed: int = 42
) -> VerificationReport:
    """Average of the 2m-th Vandermonde power over N^n uniform tuples against
    its hyperpfaffian evaluation on the power-sum tensor.

    The block structure forces entry exponent sum(i_k) - m(n(2m-1)+2) and a
    global sign (-1)^(C(n,2) C(2m,2)) from regrouping the interleaved columns;
    for m = 1 the determinant form n!/N^n det(p_{i+j-2}) is checked as well.
    """
    _need_at_least("VANDERMONDE", N=(N, 1), n=(n, 0), m=(m, 1))
    if 2 * m * n > 8:
        raise ValueError("size cap exceeded: 2mn <= 8")
    if N ** n > 10_000:
        raise ValueError("size cap exceeded: N^n <= 10^4")
    if y is None:
        sampler = SeededSampler(mix_seed(seed, ("vandermonde", N, n, m)))
        y = sampler.positive_distinct(N, _SAMPLE_BOUND)
    y = [Fraction(v) for v in y]
    if len(y) != N:
        raise ValueError("y must have N values")
    builder = ReportBuilder(
        "vandermonde",
        {"N": N, "n": n, "m": m},
        seeds=[seed],
        conventions={"pf_sign": "(-1)^(C(n,2)*C(2m,2))"},
    )

    total = Fraction(0)
    for tup in itertools.product(range(N), repeat=n):
        prod = Fraction(1)
        for i in range(n):
            for j in range(i + 1, n):
                prod *= (y[tup[j]] - y[tup[i]]) ** (2 * m)
        total += prod
    lhs = total / N ** n

    width = 2 * m
    dim = width * n
    shift = m * (n * (2 * m - 1) + 2)
    entries = {}
    for combo in itertools.product(*[range((s - 1) * n + 1, s * n + 1) for s in range(1, width + 1)]):
        e = sum(combo) - shift
        entries[combo] = sum(v ** e for v in y)
    M = AltTensor(QQ, width, dim, entries)
    sign = -1 if (math.comb(n, 2) * math.comb(width, 2)) % 2 else 1
    rhs = sign * Fraction(math.factorial(n), N ** n) * hyperpfaffian(M)

    equal = lhs == rhs
    if m == 1:
        rows = [[sum(v ** (i + j) for v in y) for j in range(n)] for i in range(n)]
        det_form = Fraction(math.factorial(n), N ** n) * determinant(DenseMatrix.from_rows(rows))
        equal = equal and det_form == lhs
    return builder.finish(
        equal,
        scalar_list_canonical([lhs]),
        scalar_list_canonical([rhs]),
        1,
        1,
    )
