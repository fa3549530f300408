"""Grassmann algebra (anticommuting generators) and square-zero commutative
algebra over a generic coefficient ring.

Elements are finite maps from generator bitmasks to ring coefficients, built
by the constructor, which drops zero coefficients and refuses a mask past 64
generators: generator i is ``cls(ring, {1 << i: ring.one})``, the zero is
``cls(ring)``, and ``mask_of`` gives the mask of a 1-based index list.  The
two algebras share one product, which drops overlapping masks (eta_i^2 = 0
holds structurally: a bitmask never repeats a generator) and, for the
Grassmann algebra, signs each disjoint pair with one population count.
``coeff_of_product`` reads one coefficient of a product by the same rule
without forming it.  The tensor power oracles multiply here; the
exponentials, Berezin extraction and ordered products that test these
algebras are in ``tests/oracles.py``.
"""
from __future__ import annotations

from .core import Ring

MAX_GENERATORS = 64
_FULL = (1 << MAX_GENERATORS) - 1


def _below_parity(mask: int) -> int:
    """P(B): bit i is set iff an odd number of the bits of B lie below i, so
    that popcount(A & P(B)) is odd iff eta_A * eta_B, A and B disjoint, has
    an odd number of pairs (i, j), i in A, j in B, with i > j."""
    parity = 0
    while mask:
        low = mask & -mask
        parity ^= -(low << 1)  # every bit above the lowest bit of mask
        mask ^= low
    return parity


def _check_mask(mask: int):
    if mask < 0 or mask > _FULL:
        raise ValueError("generator capacity exceeded (64 generators)")


class _NilpotentElement:
    """Shared plumbing for the two bitmask-indexed algebras; each subclass
    sets ``signed``, which selects the Grassmann sign rule in the product."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: Ring, terms=None):
        clean = {}
        if terms:
            for mask, c in terms.items():
                _check_mask(mask)
                if not ring.is_zero(c):
                    clean[mask] = c
        self.ring = ring
        self._terms = clean

    @classmethod
    def _make(cls, ring, terms):
        obj = object.__new__(cls)
        obj.ring = ring
        obj._terms = terms
        return obj

    @classmethod
    def one(cls, ring: Ring):
        return cls._make(ring, {0: ring.one})

    def coeff(self, mask: int):
        return self._terms.get(mask, self.ring.zero)

    def terms(self):
        return sorted(self._terms.items())

    def num_terms(self) -> int:
        return len(self._terms)

    def __add__(self, other):
        self._check_compat(other)
        ring = self.ring
        out = dict(self._terms)
        for mask, c in other._terms.items():
            s = ring.add(out.get(mask, ring.zero), c)
            if ring.is_zero(s):
                out.pop(mask, None)
            else:
                out[mask] = s
        return type(self)._make(ring, out)

    def __neg__(self):
        ring = self.ring
        return type(self)._make(ring, {m: ring.neg(c) for m, c in self._terms.items()})

    def _product(self, other):
        # Bound as __mul__ in each subclass's own namespace.  P(B) is built
        # once per right-hand mask, and only for the signed product; sums
        # that cancel are dropped once, after every pair is added.
        self._check_compat(other)
        ring = self.ring
        mul, add, neg = ring.mul, ring.add, ring.neg
        signed = self.signed
        right = [
            (mb, cb, _below_parity(mb) if signed else 0) for mb, cb in other._terms.items()
        ]
        out: dict = {}
        get = out.get
        for ma, ca in self._terms.items():
            for mb, cb, below in right:
                if ma & mb:
                    continue
                c = mul(ca, cb)
                if signed and (ma & below).bit_count() & 1:
                    c = neg(c)
                mask = ma | mb
                prev = get(mask)
                out[mask] = c if prev is None else add(prev, c)
        is_zero = ring.is_zero
        return self._make(ring, {m: c for m, c in out.items() if not is_zero(c)})

    def coeff_of_product(self, other, mask: int):
        """Coefficient of ``mask`` in ``self * other`` without forming the
        product: a term e_A of self meets only the term of other at the
        complement of A in ``mask``, signed as in the product."""
        self._check_compat(other)
        ring = self.ring
        mul, add, neg = ring.mul, ring.add, ring.neg
        signed = self.signed
        right = other._terms
        out = ring.zero
        for ma, ca in self._terms.items():
            if ma & ~mask:
                continue
            mb = mask ^ ma
            cb = right.get(mb)
            if cb is None:
                continue
            c = mul(ca, cb)
            if signed and (ma & _below_parity(mb)).bit_count() & 1:
                c = neg(c)
            out = add(out, c)
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.ring is not other.ring:
            return False
        if set(self._terms) != set(other._terms):
            return False
        return all(self.ring.eq(c, other._terms[m]) for m, c in self._terms.items())

    __hash__ = None

    def _check_compat(self, other):
        if type(other) is not type(self) or other.ring is not self.ring:
            raise TypeError("operands must share algebra type and ring")

    def __repr__(self):
        name = type(self).__name__
        if not self._terms:
            return f"{name}(0)"
        bits = []
        for mask, c in self.terms():
            gens = "".join(str(i) for i in range(MAX_GENERATORS) if mask >> i & 1)
            bits.append(f"{c!r}*[{gens or '1'}]")
        return f"{name}(" + " + ".join(bits) + ")"


class GrassmannElement(_NilpotentElement):
    """Element of the Grassmann algebra: signed product, eta_i eta_j = -eta_j eta_i."""

    signed = True
    __mul__ = _NilpotentElement._product


class SquareZeroElement(_NilpotentElement):
    """Element of the square-zero commutative algebra: xi_i^2 = 0, no signs."""

    signed = False
    __mul__ = _NilpotentElement._product


def mask_of(indices) -> int:
    """Bitmask of a strictly increasing 1-based index list."""
    mask = 0
    prev = 0
    for i in indices:
        if i <= prev:
            raise ValueError("indices must be strictly increasing")
        if i > MAX_GENERATORS:
            raise ValueError("generator capacity exceeded (64 generators)")
        mask |= 1 << (i - 1)
        prev = i
    return mask
