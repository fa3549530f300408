"""One verifier per identity.

Every verifier builds both sides independently: the left side is always the
definition-level brute force (permutation sums, tuple enumeration) and never
goes through the kernel that computes the right side.  Equality is exact, in
the free algebra for the symbolic identities and at seeded rational points
for the rational-function ones.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import (
    QQ,
    SeededSampler,
    even_double_factorial,
    mix_seed,
    odd_double_factorial,
)
from .freealg import (
    ANTISHUFFLE_RING,
    SHUFFLE_RING,
    FreePoly,
    LetterRegistry,
    antishuffle,
    shuffle,
)
from .integrals import r_value
from .report import ReportBuilder, VerificationReport, scalar_list_canonical
from .tensors import (
    AltTensor,
    DenseMatrix,
    SymTensor,
    determinant,
    enumerate_block_assignments,
    hafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
)

WICK_VARIANTS = ("PFAB", "SDB2", "FHAFF2", "FHAFF1", "ODD_EVEN", "ANTISHUFFLE", "XIPFASHU")
STRUCTURE_VARIANTS = ("COMPOSITION", "SUM", "MINOR", "DET_DECOMP")
RATIONAL_VARIANTS = (
    "SCHUR",
    "SCHUR_HYPER",
    "SUNDQUIST",
    "MEHTA1",
    "MEHTA2",
    "SUM1",
    "HAFSYM",
    "WIGNER_RANK1",
    "ARQ",
)

_SAMPLE_BOUND = 200


def _double_factorial_coeff(half: int, coeff: str) -> tuple[int, str]:
    if coeff == "corrected":
        return odd_double_factorial(half), "(2n-1)!!"
    if coeff == "paper":
        return even_double_factorial(half), "(2n)!!"
    raise ValueError("coeff must be 'corrected' or 'paper'")


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
    if variant == "XIPFASHU":
        if k is None:
            raise ValueError("XIPFASHU needs k")
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
    acc: dict = {}
    for perm, sign in signed_permutations(d):
        word = tuple(a(perm[j]) if j % 2 == 0 else b(perm[j]) for j in range(d))
        acc[word] = acc.get(word, 0) + sign
    lhs = FreePoly(acc)
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
    acc: dict = {}
    for perm, sign in signed_permutations(d):
        word = tuple(c(perm[2 * t], perm[2 * t + 1]) for t in range(n))
        acc[word] = acc.get(word, 0) + (sign if signed else 1)
    lhs = FreePoly(acc)
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
    cval, cname = _double_factorial_coeff(n, coeff)
    builder = ReportBuilder(
        "fhaff1", {"n": n, "coeff": coeff}, conventions={"double_factorial": cname}
    )
    d = 2 * n
    acc: dict = {}
    for perm, _sign in signed_permutations(d):
        word = tuple(p - 1 for p in perm)
        acc[word] = acc.get(word, 0) + 1
    lhs = FreePoly(acc)
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
    acc: dict = {}
    for perm, _sign in signed_permutations(n):
        word = tuple(p - 1 for p in perm)
        acc[word] = acc.get(word, 0) + 1
    lhs = FreePoly(acc)
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
    acc: dict = {}
    for perm, sign in signed_permutations(n):
        word = tuple(p - 1 for p in perm)
        acc[word] = acc.get(word, 0) + sign
    lhs = FreePoly(acc)
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
    acc: dict = {}
    for perm, sign in signed_permutations(d):
        coeff = sign
        letters = []
        for b in range(n):
            lid, s = reg.alternating_letter(perm[b * width : (b + 1) * width])
            coeff *= s
            letters.append(lid)
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
    if 2 * m * n > 8:
        raise ValueError("size cap exceeded: 2mn <= 8")
    sampler = SeededSampler(mix_seed(seed, ("structure", variant, m, n, t or 0)))
    if variant == "COMPOSITION":
        return _structure_composition(m, n, seed, sampler)
    if variant == "SUM":
        return _structure_sum(m, n, seed, sampler)
    if variant == "MINOR":
        if t is None:
            raise ValueError("MINOR needs t")
        if t > n:
            raise ValueError(f"MINOR needs t <= n, got t={t} > n={n}")
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
    for blocks, sign in enumerate_block_assignments(n, width):
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
    if variant not in RATIONAL_VARIANTS:
        raise ValueError(f"unknown variant: {variant}")
    impl, param_name, cap_ok = _RATIONAL_IMPL[variant]
    if not cap_ok(size):
        raise ValueError(f"size cap exceeded for {variant}: {param_name}={size}")
    params = {param_name: size}
    conventions = {}
    if variant in ("SCHUR_HYPER", "WIGNER_RANK1"):
        _, cname = _double_factorial_coeff(size, coeff)
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
    cval, _ = _double_factorial_coeff(n, coeff)
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
    lhs = Fraction(0)
    for perm, sign in signed_permutations(n):
        lhs += sign * r_value([x[p - 1] for p in perm])
    rhs = Fraction(1)
    for xi in x:
        rhs /= xi
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= (x[j] - x[i]) / (x[j] + x[i])
    return lhs, rhs


def _rat_sum1(m, sampler, _coeff):
    x = sampler.positive_distinct(m, _SAMPLE_BOUND)
    lhs = Fraction(0)
    for perm, _sign in signed_permutations(m):
        lhs += r_value([x[p - 1] for p in perm])
    rhs = Fraction(1)
    for xi in x:
        rhs /= xi
    return lhs, rhs


def _rat_hafsym(n, sampler, _coeff):
    d = 2 * n
    batch = sampler.positive_distinct(2 * d, _SAMPLE_BOUND)
    x, y = batch[:d], batch[d:]
    lhs = Fraction(0)
    for perm, _sign in signed_permutations(d):
        num = Fraction(1)
        for pos in range(0, d, 2):
            num *= y[perm[pos] - 1]
        den = Fraction(1)
        acc = Fraction(0)
        for s in range(d):
            acc += x[perm[s] - 1]
            if s % 2 == 1:
                den *= acc
        lhs += num / den
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
    cval, _ = _double_factorial_coeff(n, coeff)
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


_RATIONAL_IMPL = {
    "SCHUR": (_rat_schur, "n", lambda s: 1 <= s <= 3),
    "SCHUR_HYPER": (_rat_schur_hyper, "n", lambda s: 1 <= s <= 2),
    "SUNDQUIST": (_rat_sundquist, "m", lambda s: 1 <= s <= 3),
    "MEHTA1": (_rat_mehta1, "n", lambda s: 1 <= s <= 6),
    "MEHTA2": (_rat_mehta2, "n", lambda s: 1 <= s <= 6 and s % 2 == 0),
    "SUM1": (_rat_sum1, "m", lambda s: 1 <= s <= 6),
    "HAFSYM": (_rat_hafsym, "n", lambda s: 1 <= s <= 3),
    "WIGNER_RANK1": (_rat_wigner_rank1, "n", lambda s: 1 <= s <= 3),
    "ARQ": (_rat_arq, "m", lambda s: 1 <= s <= 2),
}


# ---------------------------------------------------------------------------
# Alternating quasi-symmetric functions


def _quasimonomial(parts, powers, nvars: int) -> Fraction:
    # M_J(x) = sum over j1 < ... < jr of x_{j1}^{J1} ... x_{jr}^{Jr}
    r = len(parts)
    dp = [Fraction(1)] + [Fraction(0)] * r
    for i in range(nvars):
        for depth in range(min(i + 1, r), 0, -1):
            dp[depth] += dp[depth - 1] * powers[i][parts[depth - 1]]
    return dp[r]


def verify_VI(parts, N: int = 8, seed: int = 42, points: int = 3) -> VerificationReport:
    """Signed quasimonomial sum against its Pfaffian (even length) or
    bordered-Pfaffian (odd length) evaluation."""
    parts = tuple(int(p) for p in parts)
    r = len(parts)
    if r == 0 or r > 4 or any(p < 1 or p > 4 for p in parts):
        raise ValueError("size cap exceeded: composition length <= 4, parts in 1..4")
    if N > 8:
        raise ValueError("size cap exceeded: N <= 8")
    builder = ReportBuilder("vi", {"parts": list(parts), "N": N}, seeds=[seed])
    lhs_vals = []
    rhs_vals = []
    for pt in range(points):
        sampler = SeededSampler(mix_seed(seed, ("vi", parts, N, pt)))
        x = sampler.positive_distinct(N, _SAMPLE_BOUND)
        max_power = max(parts)
        powers = [[x[i] ** e for e in range(max_power + 1)] for i in range(N)]

        lhs = Fraction(0)
        for perm, sign in signed_permutations(r):
            lhs += sign * _quasimonomial([parts[p - 1] for p in perm], powers, N)

        def q(pa, pb):
            return _quasimonomial((pa, pb), powers, N) - _quasimonomial((pb, pa), powers, N)

        def pf_of(position_parts):
            rr = len(position_parts)
            M = AltTensor.from_function(
                QQ, 2, rr, lambda kl: q(position_parts[kl[0] - 1], position_parts[kl[1] - 1])
            )
            return pfaffian(M)

        if r % 2 == 0:
            rhs = pf_of(parts)
        else:
            rhs = Fraction(0)
            for kk in range(r):
                rest = parts[:kk] + parts[kk + 1 :]
                single = _quasimonomial((parts[kk],), powers, N)
                sign = -1 if kk % 2 else 1
                rhs += sign * single * pf_of(rest)
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
    if N ** n > 10_000:
        raise ValueError("size cap exceeded: N^n <= 10^4")
    if 2 * m * n > 8:
        raise ValueError("size cap exceeded: 2mn <= 8")
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
