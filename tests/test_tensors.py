import functools
import gc
import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
import sympy as sp

from spfk import tensors
from spfk.core import QQ, SeededSampler, mix_seed
from spfk.freealg import ANTISHUFFLE_RING, SHUFFLE_RING, FreePoly, shuffle, sort_with_sign
from spfk.tensors import (
    MAX_BLOCKED,
    AltTensor,
    DenseMatrix,
    SymTensor,
    _blocked_sum,
    blocked_count,
    determinant,
    enumerate_blocked,
    grassmann_pf_oracle,
    group_form,
    hafnian,
    hyperhafnian,
    hyperpfaffian,
    pfaffian,
    signed_permutations,
    sz_hf_oracle,
    tensor_from_json,
)
from oracles import entry_at, first_row_expansion, first_row_pfaffian, tensor_to_json
from test_symbolic_ring import SYMPY_RING


def _random_alt(seed, order, dim):
    sampler = SeededSampler(seed)
    combos = list(itertools.combinations(range(1, dim + 1), order))
    vals = sampler.positive_distinct(len(combos), 1000)
    return AltTensor(QQ, order, dim, dict(zip(combos, vals)))


def _random_sym(seed, order, dim):
    sampler = SeededSampler(seed)
    combos = list(itertools.combinations(range(1, dim + 1), order))
    vals = sampler.positive_distinct(len(combos), 1000)
    return SymTensor(QQ, order, dim, dict(zip(combos, vals)))


def test_enumerate_blocked_matchings_of_four():
    got = list(enumerate_blocked(2, 2))
    assert got == [
        (((1, 2), (3, 4)), 1),
        (((1, 3), (2, 4)), -1),
        (((1, 4), (2, 3)), 1),
    ]


def test_enumerate_blocked_single_block():
    assert list(enumerate_blocked(1, 4)) == [(((1, 2, 3, 4),), 1)]
    assert list(enumerate_blocked(0, 3)) == [((), 1)]


def test_enumerate_blocked_count_vs_brute_force():
    # filter S_8 by the membership conditions directly
    brute = 0
    for perm in itertools.permutations(range(1, 9)):
        ok = all(perm[4 * i] < perm[4 * i + 1] < perm[4 * i + 2] < perm[4 * i + 3] for i in range(2))
        ok = ok and perm[0] < perm[4]
        if ok:
            brute += 1
    assert brute == 35
    assert sum(1 for _ in enumerate_blocked(2, 4)) == 35
    assert blocked_count(2, 4) == 35


def test_enumerate_blocked_counts_formula():
    for k in range(1, 13):
        for n in range(0, 13):
            if 0 < k * n <= 12:
                assert sum(1 for _ in enumerate_blocked(n, k)) == blocked_count(n, k)


def test_enumerate_blocked_cap():
    with pytest.raises(ValueError, match="size cap"):
        list(enumerate_blocked(11, 2))


def test_block_assignments_ordered_count():
    # DET_DECOMP sums over every order of each partition's blocks: (kn)!/(k!)^n
    # assignments, partitions times n!.  At an even block width each order
    # keeps the partition's sign, the sign of its own concatenated sequence.
    def assignments(n, k):
        return {order: sign for blocks, sign in enumerate_blocked(n, k)
                for order in itertools.permutations(blocks)}

    for n, k, count in ((2, 2, 6), (2, 4, 70)):
        signs = assignments(n, k)
        assert len(signs) == count == blocked_count(n, k) * math.factorial(n)
        for order, sign in signs.items():
            assert sort_with_sign([i for block in order for i in block])[1] == sign
    signs = assignments(2, 2)
    assert signs[((1, 2), (3, 4))] == 1
    assert signs[((3, 4), (1, 2))] == 1
    assert signs[((2, 4), (1, 3))] == -1


def test_pfaffian_2x2_symbolic():
    a = FreePoly.from_word((0,))
    M = AltTensor(SHUFFLE_RING, 2, 2, {(1, 2): a})
    assert pfaffian(M) == a


def test_pfaffian_4x4_closed_form():
    # six independent letters m_ij; Pf = m12 m34 - m13 m24 + m14 m23
    letters = {}
    next_id = 0
    for i in range(1, 5):
        for j in range(i + 1, 5):
            letters[(i, j)] = FreePoly.from_word((next_id,))
            next_id += 1
    M = AltTensor(SHUFFLE_RING, 2, 4, letters)
    from spfk.freealg import shuffle

    expected = (
        shuffle(letters[(1, 2)], letters[(3, 4)])
        - shuffle(letters[(1, 3)], letters[(2, 4)])
        + shuffle(letters[(1, 4)], letters[(2, 3)])
    )
    assert pfaffian(M) == expected


def test_pfaffian_all_ones_d6():
    M = AltTensor(QQ, 2, 6, {t: Fraction(1) for t in itertools.combinations(range(1, 7), 2)})
    value = pfaffian(M)
    rows = [[entry_at(M, (i, j)) for j in range(1, 7)] for i in range(1, 7)]
    assert value ** 2 == determinant(DenseMatrix.from_rows(rows))


def test_pfaffian_errors():
    M = AltTensor(QQ, 2, 3, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError, match="even"):
        pfaffian(M)
    T = AltTensor(QQ, 4, 4, {(1, 2, 3, 4): Fraction(1)})
    with pytest.raises(ValueError, match="order-2"):
        pfaffian(T)


def test_pfaffian_squared_is_determinant():
    for d in (2, 4, 6):
        M = _random_alt(mix_seed(3, d), 2, d)
        rows = [[entry_at(M, (i, j)) for j in range(1, d + 1)] for i in range(1, d + 1)]
        assert pfaffian(M) ** 2 == determinant(DenseMatrix.from_rows(rows))


@pytest.mark.parametrize("n", range(8))
def test_bordered_pf_and_hf_expand_along_the_border(n):
    # group_form's pair tensor, its entries (anti)symmetrised or not, is the
    # Pf/Hf of those entries at an even n and its expansion along a first row
    # of the singles value_of((p,)) at an odd n.
    for ring, mul in ((QQ, lambda a, b: a * b), (SHUFFLE_RING, shuffle)):
        sampler = SeededSampler(mix_seed(5, ("bordered", n, ring is QQ)))
        seqs = [(i,) for i in range(1, n + 1)] + list(itertools.permutations(range(1, n + 1), 2))
        coeffs = {seq: Fraction(sampler.next_int(41) - 21, sampler.next_int(7)) for seq in seqs}
        if ring is QQ:
            value_of = coeffs.__getitem__
        else:
            value_of = lambda seq: FreePoly.from_word(tuple(i - 1 for i in seq), coeffs[seq])
        for signed, alternating in itertools.product((True, False), repeat=2):
            got = group_form(ring, n, 2, value_of, signed, alternating)
            if signed:
                pair = lambda ij: value_of(ij) - value_of(ij[::-1])
            else:
                pair = lambda ij: value_of(ij) + value_of(ij[::-1])
            cls, kernel = (AltTensor, pfaffian) if alternating else (SymTensor, hafnian)
            pairs = cls.from_function(ring, 2, n, pair)
            if n % 2 == 0:
                expected = kernel(pairs)
            else:
                minor = lambda keep: kernel(pairs.restrict(keep))
                single = lambda p: value_of((p,))
                expected = first_row_expansion(n, single, minor, mul, alternating)
            assert got == expected, (ring, signed, alternating)


def test_hafnian_examples():
    q = Fraction(5, 3)
    assert hafnian(SymTensor(QQ, 2, 2, {(1, 2): q})) == q
    ones4 = SymTensor(QQ, 2, 4, {t: Fraction(1) for t in itertools.combinations(range(1, 5), 2)})
    assert hafnian(ones4) == 3
    ones6 = SymTensor(QQ, 2, 6, {t: Fraction(1) for t in itertools.combinations(range(1, 7), 2)})
    assert hafnian(ones6) == 15


def test_hafnian_of_all_ones_counts_matchings():
    # cross-module link: hafnian of the all-ones off-diagonal tensor is (2n-1)!!
    from spfk.core import double_factorial_coeff

    for n in (1, 2, 3, 4):
        ones = SymTensor(
            QQ, 2, 2 * n,
            {t: Fraction(1) for t in itertools.combinations(range(1, 2 * n + 1), 2)},
        )
        assert hafnian(ones) == double_factorial_coeff(n, "corrected")[0]


def test_hyperpfaffian_examples():
    single = AltTensor(QQ, 4, 4, {(1, 2, 3, 4): Fraction(7, 2)})
    assert hyperpfaffian(single) == Fraction(7, 2)
    M = _random_alt(21, 2, 6)
    assert hyperpfaffian(M) == pfaffian(M)


def test_hyperhafnian_examples():
    single = SymTensor(QQ, 4, 4, {(1, 2, 3, 4): Fraction(2, 9)})
    assert hyperhafnian(single) == Fraction(2, 9)
    S = _random_sym(23, 2, 6)
    assert hyperhafnian(S) == hafnian(S)
    ones = SymTensor(QQ, 4, 8, {t: Fraction(1) for t in itertools.combinations(range(1, 9), 4)})
    assert hyperhafnian(ones) == 35


def test_hyper_kernels_match_power_oracles():
    for k, d in ((2, 4), (2, 6), (2, 8), (4, 4), (4, 8), (6, 6)):
        M = _random_alt(mix_seed(31, (k, d)), k, d)
        assert hyperpfaffian(M) == grassmann_pf_oracle(M), (k, d)
        S = _random_sym(mix_seed(37, (k, d)), k, d)
        assert hyperhafnian(S) == sz_hf_oracle(S), (k, d)


def test_grassmann_oracle_examples():
    M = _random_alt(41, 2, 4)
    expected = (
        M.entry((1, 2)) * M.entry((3, 4))
        - M.entry((1, 3)) * M.entry((2, 4))
        + M.entry((1, 4)) * M.entry((2, 3))
    )
    assert grassmann_pf_oracle(M) == expected
    ones4 = SymTensor(QQ, 2, 4, {t: Fraction(1) for t in itertools.combinations(range(1, 5), 2)})
    assert sz_hf_oracle(ones4) == 3


def test_grassmann_oracle_refuses_odd_order_before_work(monkeypatch):
    # An odd-order Omega squares to zero, so Omega^n / n! is not the
    # hyperpfaffian: for entries 1..20 at order 3, dim 6 the power gives 0,
    # not 162.
    combos = itertools.combinations(range(1, 7), 3)
    M = AltTensor(QQ, 3, 6, {idx: Fraction(v) for v, idx in enumerate(combos, 1)})
    assert hyperpfaffian(M) == 162

    def no_work(*_):
        raise AssertionError("the power oracle ran")

    monkeypatch.setattr(tensors, "_power_oracle", no_work)
    for T in (M, AltTensor(QQ, 1, 3, {}), AltTensor(QQ, 5, 10, {})):
        with pytest.raises(ValueError, match=f"needs an even order, got order {T.order}$"):
            grassmann_pf_oracle(T)


def test_hyperpfaffian_divisibility_error():
    M = AltTensor(QQ, 4, 6, {})
    with pytest.raises(ValueError, match="divide"):
        hyperpfaffian(M)


def test_determinant_vandermonde():
    xs = [Fraction(v) for v in (1, 2, 3, 4)]
    rows = [[x ** p for p in range(4)] for x in xs]
    expected = Fraction(1)
    for i in range(4):
        for j in range(i + 1, 4):
            expected *= xs[j] - xs[i]
    assert determinant(DenseMatrix.from_rows(rows)) == expected == 12


def test_determinant_bareiss_matches_permutation_expansion():
    sampler = SeededSampler(47)
    vals = sampler.positive_distinct(25, 500)
    rows = [vals[5 * i : 5 * i + 5] for i in range(5)]
    M = DenseMatrix.from_rows(rows)
    by_bareiss = determinant(M)
    by_perms = Fraction(0)
    for perm, sign in signed_permutations(5):
        prod = Fraction(1)
        for i in range(5):
            prod *= rows[i][perm[i] - 1]
        by_perms += sign * prod
    assert by_bareiss == by_perms


def _det_by_fractions(rows) -> Fraction:
    """Bareiss elimination carried out in Fractions, no denominators cleared."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = [[Fraction(x) for x in r] for r in rows]
    sign = 1
    prev = Fraction(1)
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for r in range(c + 1, n):
            for cc in range(c + 1, n):
                m[r][cc] = (m[r][cc] * m[c][c] - m[r][c] * m[c][cc]) / prev
            m[r][c] = Fraction(0)
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def _seeded_rational_rows(seed, n, zero_percent=0):
    rng = SeededSampler(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            zero = rng.next_int(100) <= zero_percent
            row.append(Fraction(0) if zero else rng.rational(60) * (-1) ** rng.next_int(2))
        rows.append(row)
    return rows


def test_integer_bareiss_matches_the_fraction_oracle():
    for n in range(0, 9):
        for seed in range(4):
            for zero_percent in (0, 40):
                rows = _seeded_rational_rows(mix_seed(61, (n, seed, zero_percent)), n, zero_percent)
                want = _det_by_fractions(rows)
                assert determinant(DenseMatrix.from_rows(rows)) == want, (n, seed)


@pytest.mark.parametrize(
    "rows,expected",
    (
        ([], 1),  # n = 0
        ([[Fraction(-3, 7)]], Fraction(-3, 7)),  # n = 1
        ([[Fraction(0), Fraction(2, 3)], [Fraction(5, 2), Fraction(1)]], Fraction(-5, 3)),
        # The second pivot becomes zero after the first step and needs a row swap.
        ([[1, 2, 3], [2, 4, 5], [1, 3, Fraction(1, 2)]], 1),
        # Singular: the swap search finds no pivot in the second column.
        ([[1, 2, 3], [2, 4, 6], [Fraction(3, 4), Fraction(3, 2), 10]], 0),
        # Singular: elimination runs to the end and the last entry is zero.
        ([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]], 0),
        ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4),  # all-integer rows
    ),
)
def test_integer_bareiss_edge_cases(rows, expected):
    value = determinant(DenseMatrix.from_rows(rows))
    assert isinstance(value, Fraction)
    assert value == expected == _det_by_fractions(rows)


def test_permutation_cap_keeps_its_value_and_message():
    assert tensors.MAX_PERMUTATIONS == 8
    assert len(tuple(signed_permutations(8))) == math.factorial(8)
    with pytest.raises(ValueError, match=r"size cap exceeded: permutation sums limited to n <= 8"):
        signed_permutations(9)


def test_determinant_errors():
    M = DenseMatrix.from_rows([[Fraction(1), Fraction(2)]])
    with pytest.raises(ValueError, match="square"):
        determinant(M)


def test_restrict():
    M = _random_alt(53, 2, 4)
    sub = M.restrict((1, 3))
    assert sub.dim == 2
    assert sub.entry((1, 2)) == M.entry((1, 3))
    full = M.restrict((1, 2, 3, 4))
    assert (full.order, full.dim, full.entries()) == (M.order, M.dim, M.entries())
    for i, j in itertools.combinations(range(1, 5), 2):
        assert pfaffian(M.restrict((i, j))) == M.entry((i, j))
    with pytest.raises(ValueError):
        M.restrict((3, 1))
    with pytest.raises(ValueError):
        M.restrict((1, 5))
    keep = (2, 4, 5, 6)
    S = _random_sym(54, 3, 6)
    sub = S.restrict(keep)
    assert (type(sub), sub.order, sub.dim) == (SymTensor, 3, 4)
    triples = itertools.combinations(range(1, 5), 3)
    assert sub.entries() == [(idx, S.entry([keep[i - 1] for i in idx])) for idx in triples]
    sparse = SymTensor(QQ, 2, 4, {(1, 3): Fraction(5), (2, 4): Fraction(7)}).restrict((1, 3, 4))
    assert sparse.entries() == [((1, 2), Fraction(5))]
    empty = M.restrict(())
    assert (type(empty), empty.order, empty.dim, empty.entries()) == (AltTensor, 2, 0, [])
    assert pfaffian(empty) == 1


_INCREASING = "indices must be strictly increasing"
# (case, way, index, message) for an order-2 tensor on dim 4.  Only a stored
# index has a fixed length: a restriction may keep any number of indices.
_BAD_INDICES = [
    (f"{way}-{case}", way, idx, f"{way} {message}")
    for case, idx, message in (
        ("zero", (0, 2), _INCREASING),
        ("negative", (-1, 2), _INCREASING),
        ("repeat", (2, 2), _INCREASING),
        ("decreasing", (3, 1), _INCREASING),
        ("above_dim", (1, 5), "index out of range"),
    )
    for way in ("stored", "restriction")
] + [("stored-wrong_length", "stored", (1, 2, 3), "index length 3 != order 2")]


@pytest.mark.parametrize("way, idx, message", [row[1:] for row in _BAD_INDICES],
                         ids=[row[0] for row in _BAD_INDICES])
def test_bad_index_is_refused(way, idx, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if way == "stored":
            AltTensor(QQ, 2, 4, {idx: Fraction(1)})
        else:
            _random_alt(53, 2, 4).restrict(idx)


def test_alt_get_signs():
    M = AltTensor(QQ, 2, 3, {(1, 2): Fraction(4)})
    assert entry_at(M, (2, 1)) == -4
    assert entry_at(M, (1, 1)) == 0
    S = SymTensor(QQ, 2, 3, {(1, 2): Fraction(4)})
    assert entry_at(S, (2, 1)) == 4
    assert entry_at(S, (2, 2)) == 0


@pytest.mark.parametrize("n", range(9))
def test_signed_permutations_match_inversion_count(n):
    # Oracle: the sign of sorting by adjacent swaps, one per inverted pair,
    # in itertools.permutations order.
    expected = tuple(
        (perm, sort_with_sign(perm)[1]) for perm in itertools.permutations(range(1, n + 1))
    )
    assert tuple(signed_permutations(n)) == expected


def test_signed_permutations_refuse_past_the_cap_when_called():
    # A generator would raise only at its first next(): the cap must fire at
    # the call, before any permutation or sign is made.
    tensors._signs.cache_clear()
    with pytest.raises(ValueError, match=r"size cap exceeded: permutation sums limited to n <= 8"):
        signed_permutations(9)
    assert tensors._signs.cache_info().currsize == 0


def test_a_pass_over_signed_permutations_keeps_only_the_signs():
    # Held, the 8! (perm, sign) pairs take 6.4 MiB; only the sign tuples
    # (under 0.4 MiB) may outlive a pass.
    tensors._signs.cache_clear()
    tracemalloc.start()
    try:
        count = sum(1 for _ in signed_permutations(8))
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == math.factorial(8)
    assert held < 1 << 20


def test_tensor_json_roundtrip(tmp_path):
    M = _random_alt(59, 4, 8)
    obj = tensor_to_json(M)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(obj))
    back = tensor_from_json(json.loads(path.read_text()), "alt")
    assert (back.order, back.dim, back.entries()) == (M.order, M.dim, M.entries())
    assert hyperpfaffian(back) == hyperpfaffian(M)


def test_tensor_json_rejects_booleans_and_floats():
    ok = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "num": "3", "den": 2}]}
    assert tensor_from_json(ok, "alt").entry((1, 2)) == Fraction(3, 2)
    for key in ("order", "dim"):
        with pytest.raises(ValueError, match="malformed"):
            tensor_from_json(dict(ok, **{key: True}), "alt")
    for field, value in (("idx", [True, 2]), ("idx", [1.0, 2]), ("idx", "12"),
                         ("num", True), ("num", 1e400), ("den", True)):
        entry = dict(ok["entries"][0], **{field: value})
        with pytest.raises(ValueError, match="malformed"):
            tensor_from_json(dict(ok, entries=[entry]), "sym")


def test_tensor_json_errors():
    with pytest.raises(ValueError, match="malformed"):
        tensor_from_json({"order": 2}, "alt")
    with pytest.raises(ValueError):
        tensor_from_json({"order": 2, "dim": 2, "entries": [{"idx": [2, 1], "num": "1", "den": "1"}]}, "alt")
    with pytest.raises(ValueError, match="zero denominator"):
        tensor_from_json({"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "num": "1", "den": "0"}]}, "alt")


def test_shuffle_ring_pfaffian_equals_permutation_sum():
    # pairing tensor (a_i b_j - a_j b_i) over the shuffle ring, order 4
    n = 2
    d = 2 * n
    a = lambda i: i - 1
    b = lambda i: d + i - 1
    Q = AltTensor.from_function(
        SHUFFLE_RING,
        2,
        d,
        lambda ij: FreePoly({(a(ij[0]), b(ij[1])): 1, (a(ij[1]), b(ij[0])): -1}),
    )
    acc = {}
    for perm, sign in signed_permutations(d):
        word = tuple(a(perm[j]) if j % 2 == 0 else b(perm[j]) for j in range(d))
        acc[word] = acc.get(word, 0) + sign
    assert pfaffian(Q) == FreePoly(acc)


def _enumerated_sum(tensor, signed):
    """Reference blocked sum: every partition of enumerate_blocked, its
    entries multiplied left to right in block order."""
    ring = tensor.ring
    out = ring.zero
    for blocks, sign in enumerate_blocked(tensor.dim // tensor.order, tensor.order):
        term = functools.reduce(ring.mul, (tensor.entry(b) for b in blocks), ring.one)
        out = ring.add(out, ring.neg(term) if signed and sign < 0 else term)
    return out


def _seeded_tensor(cls, ring, order, dim, seed, density, value):
    """A tensor with round(density * C(dim, order)) nonzero entries (at least
    one), chosen and valued from the seed; value(rng, slot_number) makes one."""
    rng = SeededSampler(seed)
    slots = list(itertools.combinations(range(1, dim + 1), order))
    keep = max(1, round(density * len(slots)))
    chosen = sorted(range(len(slots)), key=lambda i: (rng.next_int(1 << 30), i))[:keep]
    return cls(ring, order, dim, {slots[i]: value(rng, i) for i in chosen})


def _qq_value(rng, _slot):
    sign = -1 if rng.next_int(2) == 1 else 1
    return sign * rng.rational(9)


# (order, dim) shapes up to dim 12; hpf needs an even order for its oracle,
# since an odd-order Omega squares to zero in the Grassmann algebra.
_SHAPES = [(2, d) for d in (2, 4, 6, 8, 10, 12)] + [(3, 3), (3, 6), (3, 9), (3, 12)] + [
    (4, 4), (4, 8), (4, 12)
]


@pytest.mark.parametrize("density", (1.0, 0.25))
def test_blocked_sum_matches_enumeration_qq(density):
    shapes = [(1, 1), (1, 5), (2, 0)] + [s for s in _SHAPES if s[1] <= 10] + [(5, 10), (6, 12)]
    for order, dim in shapes:
        seed = mix_seed(61, (order, dim, round(100 * density)))
        M = _seeded_tensor(AltTensor, QQ, order, dim, seed, density, _qq_value)
        assert _blocked_sum(M, True) == _enumerated_sum(M, True), (order, dim)
        S = _seeded_tensor(SymTensor, QQ, order, dim, seed + 1, density, _qq_value)
        assert _blocked_sum(S, False) == _enumerated_sum(S, False), (order, dim)


@pytest.mark.parametrize("density", (1.0, 0.25))
def test_blocked_sum_matches_power_oracles_qq(density):
    for order, dim in _SHAPES:
        seed = mix_seed(67, (order, dim, round(100 * density)))
        S = _seeded_tensor(SymTensor, QQ, order, dim, seed, density, _qq_value)
        assert hyperhafnian(S) == sz_hf_oracle(S), (order, dim)
        if order == 2:
            assert hafnian(S) == hyperhafnian(S)
        if order % 2 == 0:
            M = _seeded_tensor(AltTensor, QQ, order, dim, seed + 1, density, _qq_value)
            assert hyperpfaffian(M) == grassmann_pf_oracle(M), (order, dim)
            if order == 2:
                assert pfaffian(M) == hyperpfaffian(M)


def _mixed_entries(order, dim, keep=1):
    # Every keep-th slot, valued with alternating signs over denominators 1..5.
    slots = itertools.combinations(range(1, dim + 1), order)
    return {
        idx: Fraction((-1) ** i * (i % 7 + 1), i % 5 + 1)
        for i, idx in enumerate(slots)
        if i % keep == 0
    }


_HAND_ENTRIES = {
    (1, 2): Fraction(1, 2),
    (1, 3): Fraction(-2, 3),
    (1, 4): Fraction(5, 6),
    (2, 3): Fraction(3, 4),
    (2, 4): Fraction(-1, 5),
    (3, 4): Fraction(7, 2),
}
# (tensor class, order, dim, entries, the oracle's value).  Every nonempty
# tensor has common denominator 60 and negative entries; n = dim / order is
# odd for the dim-6 pairs and the order-3 tensor.  The dim-4 pair values are
# a12 a34 -+ a13 a24 + a14 a23 = 7/4 -+ 2/15 + 5/8.
_PINNED_ORACLES = [
    (AltTensor, 2, 4, _HAND_ENTRIES, Fraction(269, 120)),
    (SymTensor, 2, 4, _HAND_ENTRIES, Fraction(301, 120)),
    (AltTensor, 2, 6, _mixed_entries(2, 6), Fraction(-583, 150)),
    (SymTensor, 2, 6, _mixed_entries(2, 6), Fraction(-601, 50)),
    (AltTensor, 4, 8, _mixed_entries(4, 8, keep=3), Fraction(-193, 360)),
    (SymTensor, 3, 9, _mixed_entries(3, 9, keep=2), Fraction(430543, 2160)),
    (AltTensor, 2, 4, {}, Fraction(0)),
    (SymTensor, 3, 6, {}, Fraction(0)),
    (AltTensor, 2, 0, {}, Fraction(1)),
    (SymTensor, 3, 0, {}, Fraction(1)),
]


_ORACLE_OF = {AltTensor: grassmann_pf_oracle, SymTensor: sz_hf_oracle}


@pytest.mark.parametrize(
    "cls, order, dim, entries, pinned",
    _PINNED_ORACLES,
    ids=[f"{c.__name__}-{k}-{d}-{len(e)}" for c, k, d, e, _ in _PINNED_ORACLES],
)
def test_power_oracles_keep_their_values_on_mixed_denominators(cls, order, dim, entries, pinned):
    T = cls(QQ, order, dim, entries)
    assert _enumerated_sum(T, cls is AltTensor) == pinned
    got = _ORACLE_OF[cls](T)
    assert got == pinned
    assert type(got) is Fraction


def test_power_oracles_on_qq_do_no_fraction_arithmetic(monkeypatch):
    # Over QQ the powers run on int numerators: a Fraction product or sum
    # anywhere in them raises here.
    cases = [(cls(QQ, k, d, e), _ORACLE_OF[cls], v) for cls, k, d, e, v in _PINNED_ORACLES]

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in a power oracle")

    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Fraction, op, refuse)
    for T, oracle, pinned in cases:
        assert oracle(T) == pinned


_KERNELS = (
    (AltTensor, True, (pfaffian, hyperpfaffian)),
    (SymTensor, False, (hafnian, hyperhafnian)),
)


def _kernel_values(order, dim, entries):
    """[(tensor, signed, kernel, value)] for each kernel that takes an
    order-``order`` QQ tensor with these entries."""
    out = []
    for cls, signed, kernels in _KERNELS:
        T = cls(QQ, order, dim, entries)
        for kernel in kernels[order != 2 :]:
            out.append((T, signed, kernel, kernel(T)))
    return out


def test_blocked_kernels_on_qq_do_no_fraction_arithmetic(monkeypatch):
    # Over QQ the blocked sum runs on int entries, scaled per index: a
    # Fraction sum, product or negation anywhere in it raises here.
    shapes = ((2, 4, _HAND_ENTRIES), (2, 6, _mixed_entries(2, 6)),
              (3, 9, _mixed_entries(3, 9, keep=2)), (4, 8, _mixed_entries(4, 8, keep=3)))

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in a blocked kernel")

    for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__", "__sub__"):
        monkeypatch.setattr(Fraction, op, refuse)
    cases = [case for shape in shapes for case in _kernel_values(*shape)]
    monkeypatch.undo()
    for T, signed, kernel, value in cases:
        assert value == _enumerated_sum(T, signed), (kernel.__name__, T.order, T.dim)


def _distinct_prime_entries(order, dim):
    # Every slot, each over its own prime, so no two heads share a factor.
    slots = itertools.combinations(range(1, dim + 1), order)
    return {idx: Fraction((-1) ** i * (i % 7 + 1), sp.prime(i + 1)) for i, idx in enumerate(slots)}


_LARGE_PRIME = 10**20 + 39
# The dim-4 Pfaffian a12 a34 - a13 a24 + a14 a23 = 1/6 - 1/2 + 1/3 = 0, its
# heads scaled by 70, 6 and 3.
_CANCELLING = {
    (1, 2): Fraction(1, 2),
    (1, 3): Fraction(1, 7),
    (1, 4): Fraction(1, 5),
    (2, 3): Fraction(5, 3),
    (2, 4): Fraction(7, 2),
    (3, 4): Fraction(1, 3),
}
# (order, dim, entries) whose per-index scales differ from head to head:
# distinct primes, plain ints, int entries at head 1 beside powers of a large
# prime at the other heads, a cancelling Pfaffian, empty tensors and dim 0.
_SCALED = [
    (4, 12, _distinct_prime_entries(4, 12)),
    (3, 9, _distinct_prime_entries(3, 9)),
    (2, 8, _distinct_prime_entries(2, 8)),
    (2, 6, {idx: (-1) ** sum(idx) * (idx[0] + 2 * idx[1])
            for idx in itertools.combinations(range(1, 7), 2)}),
    (3, 6, {idx: Fraction(-idx[2], 1) if idx[0] == 1 else Fraction(idx[1], _LARGE_PRIME ** idx[0])
            for idx in itertools.combinations(range(1, 7), 3)}),
    (2, 4, _CANCELLING),
    (2, 4, {}),
    (3, 6, {}),
    (2, 0, {}),
    (3, 0, {}),
]


@pytest.mark.parametrize(
    "order, dim, entries", _SCALED, ids=[f"{k}-{d}-{len(e)}" for k, d, e in _SCALED]
)
def test_blocked_kernels_match_enumeration_with_per_index_scales(order, dim, entries):
    for T, signed, kernel, value in _kernel_values(order, dim, entries):
        assert value == _enumerated_sum(T, signed), kernel.__name__
        assert type(value) is Fraction, kernel.__name__


def _letter_value(rng, slot):
    # A distinct letter per slot, with a small integer coefficient.
    return FreePoly.from_word((slot,), rng.next_int(5))


def _symbol_value(_rng, slot):
    return sp.Symbol(f"x{slot}")


@pytest.mark.parametrize("density", (1.0, 0.25))
@pytest.mark.parametrize(
    "ring, value", ((SHUFFLE_RING, _letter_value), (SYMPY_RING, _symbol_value)),
    ids=("shuffle", "sympy"),
)
def test_blocked_sum_matches_power_oracles_symbolic(ring, value, density):
    for order, dim in ((2, 4), (2, 6), (3, 6), (4, 8)):
        seed = mix_seed(71, (order, dim, round(100 * density)))
        S = _seeded_tensor(SymTensor, ring, order, dim, seed, density, value)
        assert ring.eq(hyperhafnian(S), sz_hf_oracle(S)), (order, dim)
        if order % 2 == 0:
            M = _seeded_tensor(AltTensor, ring, order, dim, seed + 1, density, value)
            assert ring.eq(hyperpfaffian(M), grassmann_pf_oracle(M)), (order, dim)
            if order == 2:
                assert ring.eq(pfaffian(M), hyperpfaffian(M))


def test_blocked_sum_keeps_block_order_in_antishuffle_ring():
    # Single letters have odd degree and anticommute under the antishuffle
    # product, so the value depends on the order the blocks multiply in.
    for order, dim in ((2, 4), (2, 6), (3, 6), (2, 8)):
        seed = mix_seed(79, (order, dim))
        M = _seeded_tensor(AltTensor, ANTISHUFFLE_RING, order, dim, seed, 1.0, _letter_value)
        expected = _enumerated_sum(M, True)
        assert _blocked_sum(M, True) == expected, (order, dim)
        assert _blocked_sum(M, False) == _enumerated_sum(M, False), (order, dim)
        ring = ANTISHUFFLE_RING
        swapped = ring.zero
        for blocks, sign in enumerate_blocked(dim // order, order):
            swap = (blocks[1], blocks[0], *blocks[2:])
            term = functools.reduce(ring.mul, (M.entry(b) for b in swap), ring.one)
            swapped += term if sign > 0 else -term
        assert swapped != expected, (order, dim)
        if order == 2:
            assert pfaffian(M) == expected


@pytest.mark.parametrize("dim", range(0, 9, 2))
@pytest.mark.parametrize(
    "ring, value",
    ((QQ, _qq_value), (SHUFFLE_RING, _letter_value), (ANTISHUFFLE_RING, _letter_value)),
    ids=("qq", "shuffle", "antishuffle"),
)
def test_pfaffian_matches_the_first_row_recursion(ring, value, dim):
    for density in (1.0, 0.25):
        M = _seeded_tensor(AltTensor, ring, 2, dim, mix_seed(83, (dim, int(100 * density))), density, value)
        assert pfaffian(M) == first_row_pfaffian(M), density


def test_shuffle_ring_kernels_add_no_polynomials(monkeypatch):
    # Each subset's products are summed in one dict by ShuffleRing.dot, so
    # the blocked sum never copies a growing sum through FreePoly.__add__.
    add = FreePoly.__add__
    calls = []
    monkeypatch.setattr(FreePoly, "__add__", lambda a, b: calls.append(1) or add(a, b))
    seed = mix_seed(89, 8)
    M = _seeded_tensor(AltTensor, SHUFFLE_RING, 2, 8, seed, 1.0, _letter_value)
    S = _seeded_tensor(SymTensor, SHUFFLE_RING, 2, 8, seed + 1, 1.0, _letter_value)
    pf, hf = pfaffian(M), hafnian(S)
    assert calls == []
    monkeypatch.undo()
    assert pf == first_row_pfaffian(M) == _enumerated_sum(M, True)
    assert hf == _enumerated_sum(S, False)
    assert pf and hf


def test_blocked_sum_frees_its_memo_on_return():
    # The memo holds a value per subset; a reference cycle through the
    # recursion would keep it alive until the next collection.
    M = _seeded_tensor(AltTensor, SHUFFLE_RING, 2, 8, mix_seed(97, 8), 1.0, _letter_value)
    gc.collect()
    gc.disable()
    try:
        pfaffian(M)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_blocked_kernels_check_size_before_work():
    # An empty tensor of huge dimension would still visit every index.
    huge = 10_000_000
    for kernel, cls in ((pfaffian, AltTensor), (hafnian, SymTensor),
                        (hyperpfaffian, AltTensor), (hyperhafnian, SymTensor)):
        with pytest.raises(ValueError, match="size cap"):
            kernel(cls(QQ, 2, huge, {}))
        with pytest.raises(ValueError, match="size cap"):
            kernel(cls(QQ, 2, MAX_BLOCKED + 2, {(1, 2): Fraction(1)}))
    with pytest.raises(ValueError, match="divide"):
        hyperhafnian(SymTensor(QQ, 3, huge + 1, {}))
