"""Alternating and symmetric tensors with exact Pfaffian, hafnian,
hyperpfaffian and hyperhafnian kernels, plus an exact determinant over the
rationals: Bareiss elimination on ints, each row's denominators cleared once.

The tensor kernels are generic over a Ring.  pf, hf, hpf and hhf share one
blocked partition sum, memoised on the set of remaining indices, which
multiplies block entries in increasing-minimum order (so the graded-commutative
antishuffle ring gets the enumeration's value) and sums each subset with one
``Ring.dot``, one dict over the shuffle rings; a block's sign is one popcount
against its one XOR parity mask.  Over QQ it runs on ints with one scale per
index (the lcm of the denominators of the entries it heads), divided out once
at the end.  ``restrict`` builds its sub-tensor with ``from_function``.
``group_form`` builds the one right side of the Wick, de Bruijn and VI
identities: the kernel of a tensor whose entries (anti)symmetrise the value of
a group of letters, each one ``Ring.sum``, an odd pair order bordered by a
first row of singles.  The hyper kernels have independent
Grassmann/square-zero power oracles, one helper over the two nilpotent
algebras that reads the top coefficient of G^h * G^(n-h), h = n // 2, in one
pass, over ZZ for a QQ tensor (int numerators over one denominator); the
Grassmann one needs an even order.
enumerate_blocked lists the partitions themselves; ``tensor_from_json`` reads
its integers with ``core.integer``, as the CLI does.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .core import QQ, ZZ, Ring, clear_denominators, integer
from .freealg import sort_with_sign
from .multilinear import GrassmannElement, SquareZeroElement, mask_of

MAX_BLOCKED = 20
MAX_PERMUTATIONS = 8


def signed_permutations(n: int):
    """All permutations of (1..n) as 1-based tuples with their signs, in
    lexicographic (``itertools.permutations``) order, as a one-pass iterator.

    The cap is checked when it is called, before any work.  Only the signs
    are cached (about 46 000 small ints for all n <= 8); the permutations are
    made as they are read, never held, so a caller that reads them twice keeps
    its own ``tuple``.
    """
    if n > MAX_PERMUTATIONS:
        raise ValueError(f"size cap exceeded: permutation sums limited to n <= {MAX_PERMUTATIONS}")
    return zip(itertools.permutations(range(1, n + 1)), _signs(n))


@functools.cache
def _signs(n: int) -> tuple:
    """The signs of the permutations of (1..n) in lexicographic order.

    A first letter i adds i - 1 inversions and the rest runs through the
    permutations of n - 1 letters in the same order, so the signs for n are
    those for n - 1 repeated n times with alternating sign.
    """
    if n < 2:
        return (1,)
    signs = _signs(n - 1)
    flipped = tuple(-s for s in signs)
    return tuple(itertools.chain.from_iterable(flipped if i % 2 else signs for i in range(n)))


class _Tensor:
    __slots__ = ("ring", "order", "dim", "_entries")

    def __init__(self, ring: Ring, order: int, dim: int, entries=None):
        if order < 1:
            raise ValueError("order must be >= 1")
        if dim < 0:
            raise ValueError("dim must be >= 0")
        self.ring = ring
        self.order = order
        self.dim = dim
        clean = {}
        if entries:
            for idx, c in entries.items():
                idx = tuple(idx)
                if len(idx) != order:
                    raise ValueError(f"index length {len(idx)} != order {order}")
                self._check_increasing(idx, "stored")
                if not ring.is_zero(c):
                    clean[idx] = c
        self._entries = clean

    def _check_increasing(self, idx, what):
        """Refuse idx unless it is strictly increasing within 1..dim."""
        prev = 0
        for i in idx:
            if i <= prev:
                raise ValueError(f"{what} indices must be strictly increasing")
            prev = i
        if prev > self.dim:
            raise ValueError(f"{what} index out of range")

    def entry(self, sorted_idx) -> object:
        """Stored coefficient at a strictly increasing tuple (zero if absent)."""
        return self._entries.get(tuple(sorted_idx), self.ring.zero)

    def entries(self):
        return sorted(self._entries.items())

    @classmethod
    def from_function(cls, ring: Ring, order: int, dim: int, fn):
        """The tensor with entry fn(idx) at each strictly increasing idx."""
        entries = {}
        for idx in itertools.combinations(range(1, dim + 1), order):
            entries[idx] = fn(idx)
        return cls(ring, order, dim, entries)

    def restrict(self, indices):
        """Sub-tensor on the strictly increasing index list, reindexed to 1..len."""
        indices = tuple(indices)
        self._check_increasing(indices, "restriction")
        pick = lambda idx: self.entry([indices[i - 1] for i in idx])
        return type(self).from_function(self.ring, self.order, len(indices), pick)


class AltTensor(_Tensor):
    """Order-k alternating tensor on dimension d, stored on sorted tuples:
    the entry at an unsorted index is sign(sigma) times the stored value for
    the sorting permutation sigma, and repeated indices give zero."""


class SymTensor(_Tensor):
    """Order-k square-free symmetric tensor: entries are permutation-invariant
    and repeated indices give zero (hafnians never read the diagonal)."""


class DenseMatrix(NamedTuple):
    """Rectangular matrix, row-major, no symmetry assumed."""

    rows: int
    cols: int
    data: tuple

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        data = tuple(tuple(r) for r in rows)
        if not data:
            return cls(0, 0, ())
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return cls(len(data), ncols, data)

    def submatrix(self, row_idx, col_idx) -> "DenseMatrix":
        """1-based row/column selections, in the order given."""
        rows = tuple(tuple(self.data[i - 1][j - 1] for j in col_idx) for i in row_idx)
        return DenseMatrix(len(row_idx), len(tuple(col_idx)), rows)


def enumerate_blocked(n: int, k: int):
    """Partitions of {1..kn} into n blocks of size k, blocks internally
    increasing and in increasing-minimum order, |E_{kn,k}| of them, each with
    the sign of the concatenated sequence.  Yields (blocks, sign)
    deterministically."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n * k > MAX_BLOCKED:
        raise ValueError(f"size cap exceeded: kn = {n * k} > {MAX_BLOCKED}")

    def rec(remaining, acc):
        if not remaining:
            flat = [i for block in acc for i in block]
            yield tuple(acc), sort_with_sign(flat)[1]
            return
        first, rest = remaining[0], remaining[1:]
        for others in itertools.combinations(rest, k - 1):  # the block of the least index
            taken = set(others)
            yield from rec(tuple(x for x in rest if x not in taken), acc + [(first, *others)])

    yield from rec(tuple(range(1, n * k + 1)), [])


def blocked_count(n: int, k: int) -> int:
    """|E_{kn,k}| = (kn)! / ((k!)^n n!)."""
    return math.factorial(n * k) // (math.factorial(k) ** n * math.factorial(n))


def _blocked_sum(tensor: _Tensor, signed: bool):
    """Sum over the blocked partitions of {1..dim} into blocks of size order
    of the products of the block entries; with ``signed``, each product
    carries the sign of its concatenated block sequence.

    Expands along the smallest remaining index and memoises on the bitmask
    of remaining indices, so each subset is summed once per call, as one
    ``ring.dot`` of its (entry, sub-result) pairs.  A block's entry
    multiplies the sub-result on the left: blocks multiply in
    increasing-minimum order, as in enumerate_blocked, which keeps the value
    over non-commutative rings such as the antishuffle ring.

    Over QQ it runs over ZZ: s_h is the lcm of the denominators of the
    entries whose smallest index is h (else 1), and the entry c at I is the
    int c * prod(s_i, i in I).  A partition uses each index once, so every
    term and memo value of a subset carries the product of its scales (as
    Pf(DAD) = det(D) Pf(A)), divided out once at the end; the ints do not
    grow as L^n, as they would with one common denominator L.
    """
    k, d = tensor.order, tensor.dim
    if d % k:
        raise ValueError(f"order {k} must divide dimension {d}")
    if d > MAX_BLOCKED:
        raise ValueError(f"size cap exceeded: kn = {d} > {MAX_BLOCKED}")
    ring, entries, scales = tensor.ring, tensor.entries(), [1] * (d + 1)
    if ring is QQ:
        for idx, c in entries:
            scales[idx[0]] = math.lcm(scales[idx[0]], c.denominator)
        entries = [(idx, c.numerator * math.prod(map(scales.__getitem__, idx)) // c.denominator)
                   for idx, c in entries]
        ring = ZZ
    # Nonzero entries by the bit of their smallest index, in lexicographic
    # order: (block mask, XOR of the masks below its members, (entry, -entry)).
    # The tensor has checked each index, and the cap bounds them by d <= 20.
    by_head = [[] for _ in range(d)]
    for idx, c in entries:
        mask = parity = 0
        for i in idx:
            bit = 1 << (i - 1)
            mask |= bit
            parity ^= bit - 1
        by_head[idx[0] - 1].append((mask, parity, (c, ring.neg(c))))
    memo = {0: ring.one}

    def rec(rest: int):
        hit = memo.get(rest)
        if hit is not None:
            return hit
        pairs = []
        for mask, parity, entry in by_head[(rest & -rest).bit_length() - 1]:
            if rest & mask != mask:
                continue
            left = rest ^ mask
            sub = rec(left)
            if ring.is_zero(sub):
                continue
            # Odd inversions between the block and the indices left: -entry.
            odd = signed and (left & parity).bit_count() & 1
            pairs.append((entry[odd], sub))
        out = memo[rest] = ring.dot(pairs)
        return out

    value = rec((1 << d) - 1)
    del rec  # rec refers to itself: unbinding it frees the memo now, not at a gc pass
    return value if ring is tensor.ring else QQ.div_int(value, math.prod(scales))


def pfaffian(M: AltTensor):
    """Pfaffian of an order-2 alternating tensor of even dimension: the
    signed blocked-partition sum, whose size cap fires before any work."""
    if M.order != 2:
        raise ValueError("pfaffian needs an order-2 tensor")
    if M.dim % 2:
        raise ValueError("pfaffian needs even dimension")
    return _blocked_sum(M, True)


def hafnian(S: SymTensor):
    """Sum over perfect matchings of an order-2 symmetric tensor, no signs."""
    if S.order != 2:
        raise ValueError("hafnian needs an order-2 tensor")
    if S.dim % 2:
        raise ValueError("hafnian needs even dimension")
    return _blocked_sum(S, False)


def hyperpfaffian(M: AltTensor):
    """Signed sum over blocked partitions of products of order-k entries."""
    return _blocked_sum(M, True)


def hyperhafnian(S: SymTensor):
    """Unsigned analog of the hyperpfaffian for symmetric tensors."""
    return _blocked_sum(S, False)


def group_form(ring: Ring, order: int, g: int, value_of, signed: bool, alternating: bool):
    """The hyperpfaffian (``alternating``) or hyperhafnian of the order-g
    tensor on 1..order whose entry at i_1 < ... < i_g is
    sum_tau sgn(tau)^signed value_of((i_tau(1), ..., i_tau(g))).

    This is the right side shared by the Wick, de Bruijn and VI identities:
    each entry (anti)symmetrises the value of one group of letters.  An odd
    order of a pair tensor (g = 2) is bordered by a first row of singles: a
    new index 1 meets old index j through value_of((j,)), the old indices
    moving up by one, so the Pfaffian is sum_j (-1)^(j+1) value_of((j,))
    Pf(the pairs without j), the odd-order form of de Bruijn's and Wick's
    identities (the hafnian has no sign).  Each entry is one ``ring.sum`` of
    its signed values, over QQ one int sum over their lcm.
    """
    perms = tuple(signed_permutations(g))  # read once per entry
    signs = [sign for _, sign in perms] if signed else None

    def entry(idx):
        return ring.sum((value_of(tuple(idx[t - 1] for t in tau)) for tau, _ in perms), signs)

    dim, fn = order, entry
    if g == 2 and order % 2:
        dim = order + 1
        fn = lambda ij: value_of((ij[1] - 1,)) if ij[0] == 1 else entry((ij[0] - 1, ij[1] - 1))
    if alternating:
        return (pfaffian if g == 2 else hyperpfaffian)(AltTensor.from_function(ring, g, dim, fn))
    return (hafnian if g == 2 else hyperhafnian)(SymTensor.from_function(ring, g, dim, fn))


def _power_oracle(algebra, T: _Tensor):
    """The top coefficient of G^n / n!, G = sum_I T_I e_I in ``algebra`` of
    rank dim, n = dim / order: each blocked partition once, signed by the
    algebra's product.

    G^n = G^h * G^(n-h) with h = n // 2, and the top coefficient of that
    product is read in one pass (``coeff_of_product``), so the two largest
    powers are never built.  Over QQ, G runs over ZZ on the entries' int
    numerators over their common denominator L, divided once by L^n n!.
    """
    if T.dim % T.order:
        raise ValueError(f"order {T.order} must divide dimension {T.dim}")
    n = T.dim // T.order
    ring, scale, values = T.ring, 1, T._entries.values()
    if ring is QQ:
        (scale, values), ring = clear_denominators(values), ZZ
    g = algebra(ring, {mask_of(idx): c for idx, c in zip(T._entries, values)})
    half = algebra.one(ring)
    for _ in range(n // 2):
        half = half * g
    rest = half * g if n % 2 else half
    top = half.coeff_of_product(rest, (1 << T.dim) - 1)
    return T.ring.div_int(top, scale**n * math.factorial(n))


def grassmann_pf_oracle(M: AltTensor):
    """Independent hyperpfaffian via the Grassmann power Omega^n / n!, for
    an even order only: an odd-order Omega squares to zero."""
    if M.order % 2:
        raise ValueError(f"grassmann_pf_oracle needs an even order, got order {M.order}")
    return _power_oracle(GrassmannElement, M)


def sz_hf_oracle(S: SymTensor):
    """Independent hyperhafnian via the square-zero power G^n / n!."""
    return _power_oracle(SquareZeroElement, S)


def determinant(M: DenseMatrix):
    """Exact determinant over the rationals, with the denominators cleared once.

    Each row is scaled to ints by the lcm of its denominators; fraction-free
    (Bareiss) elimination then divides exactly with ``//``, and the result
    is divided by the product of the row scales.
    """
    if M.rows != M.cols:
        raise ValueError("determinant needs a square matrix")
    n = M.rows
    cleared = [clear_denominators(row) for row in M.data]
    scales = math.prod(s for s, _ in cleared)
    m = [ints for _, ints in cleared]
    sign = 1
    prev = 1
    for c in range(n - 1):
        if not m[c][c]:
            for r in range(c + 1, n):
                if m[r][c]:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot, pivot_row = m[c][c], m[c]
        for row in m[c + 1 :]:
            lead = row[c]
            for cc in range(c + 1, n):
                row[cc] = (row[cc] * pivot - lead * pivot_row[cc]) // prev
            row[c] = 0
        prev = pivot
    return Fraction(sign * m[n - 1][n - 1], scales) if n else Fraction(1)


def tensor_from_json(obj: dict, kind: str) -> _Tensor:
    """Parse the tensor JSON format,
    {"order":k,"dim":d,"entries":[{"idx":[...],"num":"..","den":".."}]}, with
    1-based strictly increasing indices and unspecified entries zero; kind is
    "alt" or "sym"."""
    if not isinstance(obj, dict):
        raise ValueError("tensor JSON must be an object")
    try:
        order = integer(obj["order"])
        dim = integer(obj["dim"])
        raw = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tensor JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValueError("malformed tensor JSON: entries must be a list")
    entries = {}
    for item in raw:
        try:
            if not isinstance(item["idx"], list):
                raise TypeError("idx must be a list")
            idx = tuple(integer(i) for i in item["idx"])
            num = integer(item["num"])
            den = integer(item["den"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed tensor entry: {exc}") from exc
        if den == 0:
            raise ValueError("malformed tensor entry: zero denominator")
        if idx in entries:
            raise ValueError(f"malformed tensor entry: duplicate idx {list(idx)}")
        entries[idx] = Fraction(num, den)
    cls = AltTensor if kind == "alt" else SymTensor
    return cls(QQ, order, dim, entries)
