"""The tensor kernels are generic over the coefficient ring; running them
over sympy expressions upgrades two sampled checks to symbolic identities."""
import itertools
import math

import sympy as sp

from spfk.core import Ring
from spfk.tensors import AltTensor, hyperpfaffian, pfaffian

from oracles import entry_at


class SymPyRing(Ring):
    zero = sp.Integer(0)
    one = sp.Integer(1)

    def add(self, a, b):
        return sp.expand(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return sp.expand(a * b)

    def eq(self, a, b):
        return sp.expand(a - b) == 0

    def div_int(self, a, n):
        return sp.expand(a / n)


SYMPY_RING = SymPyRing()


def _vandermonde_average_symbolic(N, n, m):
    ys = sp.symbols(f"y1:{N + 1}")
    lhs = sp.Integer(0)
    for tup in itertools.product(range(N), repeat=n):
        prod = sp.Integer(1)
        for i in range(n):
            for j in range(i + 1, n):
                prod *= (ys[tup[j]] - ys[tup[i]]) ** (2 * m)
        lhs += prod
    lhs = sp.expand(lhs / N ** n)

    width = 2 * m
    shift = m * (n * (2 * m - 1) + 2)
    entries = {}
    windows = [range((s - 1) * n + 1, s * n + 1) for s in range(1, width + 1)]
    for combo in itertools.product(*windows):
        e = sum(combo) - shift
        entries[combo] = sp.expand(sum(y ** e for y in ys))
    M = AltTensor(SYMPY_RING, width, width * n, entries)
    sign = -1 if (math.comb(n, 2) * math.comb(width, 2)) % 2 else 1
    rhs = sp.expand(sign * sp.Rational(math.factorial(n), N ** n) * hyperpfaffian(M))
    return lhs, rhs


def test_vandermonde_average_symbolic_in_y():
    # polynomial identity in the y variables, not merely point agreement
    for N, n, m in ((2, 2, 1), (3, 2, 1), (2, 2, 2)):
        lhs, rhs = _vandermonde_average_symbolic(N, n, m)
        assert sp.expand(lhs - rhs) == 0, (N, n, m)


def test_pfaffian_square_is_determinant_symbolically():
    d = 4
    syms = {(i, j): sp.Symbol(f"m{i}{j}") for i in range(1, d + 1) for j in range(i + 1, d + 1)}
    M = AltTensor(SYMPY_RING, 2, d, syms)
    rows = sp.Matrix(
        [[entry_at(M, (i, j)) for j in range(1, d + 1)] for i in range(1, d + 1)]
    )
    assert sp.expand(pfaffian(M) ** 2 - rows.det()) == 0
