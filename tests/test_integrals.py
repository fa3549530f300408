import itertools
from fractions import Fraction

import pytest

from spfk.core import SeededSampler, mix_seed
from spfk.freealg import FreePoly, shuffle
from spfk import integrals, tensors
from spfk.integrals import (
    DEBRUIJN,
    MonomialFamily,
    chen_form,
    default_family,
    index_masks,
    iterated_integral_oracle,
    merged_exponent,
    ordered_sum,
    placed_sum,
    r_value,
    verify_chen_batch,
    verify_debruijn,
)
from spfk.tensors import signed_permutations

from oracles import (
    MIXED as _MIXED,
    debruijn_rhs,
    group_form_loop,
    r_value_loop,
    refuse_fraction_arithmetic,
)


def test_r_value_examples():
    x = Fraction(5, 2)
    assert r_value([x]) == Fraction(2, 5)
    x1, x2 = Fraction(2), Fraction(3)
    assert r_value([x1, x2]) == 1 / (x1 * (x1 + x2))
    assert r_value([Fraction(1)] * 3) == Fraction(1, 6)
    assert r_value([]) == 1


def test_r_value_zero_partial_sum():
    with pytest.raises(ZeroDivisionError):
        r_value([Fraction(1), Fraction(-1)])


# A point with mixed denominators, one whose partial sums turn negative, the
# empty point and plain ints.
_R_POINTS = (
    _MIXED,
    (Fraction(3, 2), Fraction(-7, 3), Fraction(1, 4), -2),
    (),
    (2, 3, 5),
)


def test_r_value_does_no_fraction_arithmetic(monkeypatch):
    # r_value clears the point once and builds one Fraction: a Fraction sum,
    # product or quotient anywhere in it raises here.  Each value, a list or
    # an iterator, must equal the Fraction loop's.
    refuse_fraction_arithmetic(monkeypatch)
    got = [(r_value(xs), r_value(iter(xs))) for xs in _R_POINTS]
    with pytest.raises(ZeroDivisionError, match="zero partial sum"):
        r_value([Fraction(1, 3), Fraction(-1, 3), 2])
    monkeypatch.undo()
    assert got == [(r_value_loop(xs), r_value_loop(xs)) for xs in _R_POINTS]
    assert all(type(value) is Fraction for pair in got for value in pair)


def test_merged_exponent():
    assert merged_exponent([Fraction(2), Fraction(3)]) == 4
    assert merged_exponent([Fraction(2)]) == 2


def test_family_validation():
    with pytest.raises(ValueError):
        MonomialFamily(phi=(Fraction(0),))
    with pytest.raises(ValueError):
        MonomialFamily(phi=(Fraction(1),), psi=(Fraction(-2),))
    with pytest.raises(ValueError):
        MonomialFamily(grid=((Fraction(2), Fraction(3)), (Fraction(5), Fraction(0))))


def test_chen_form_examples():
    fam = MonomialFamily(phi=(Fraction(3),))
    assert chen_form(FreePoly.from_word((0,)), fam) == Fraction(1, 3)
    fam2 = MonomialFamily(phi=(Fraction(2), Fraction(3)))
    assert chen_form(FreePoly.from_word((0, 1)), fam2) == Fraction(1, 10)
    # Chen instance: <a><b> = <a sh b>
    lhs = chen_form(FreePoly.from_word((0,)), fam2) * chen_form(FreePoly.from_word((1,)), fam2)
    rhs = chen_form(shuffle(FreePoly.from_word((0,)), FreePoly.from_word((1,))), fam2)
    assert lhs == rhs == Fraction(1, 6)
    assert Fraction(1, 6) == Fraction(1, 10) + Fraction(1, 15)


def test_chen_form_unknown_letter():
    fam = MonomialFamily(phi=(Fraction(3),))
    with pytest.raises(ValueError, match="unknown letter"):
        chen_form(FreePoly.from_word((1,)), fam)


def test_oracle_matches_closed_form_short_words():
    sampler = SeededSampler(271)
    exps = sampler.positive_distinct(5, 60)
    fam = MonomialFamily(phi=tuple(exps))
    for length in range(1, 6):
        for word in itertools.product(range(5), repeat=length):
            params = [exps[i] for i in word]
            assert iterated_integral_oracle(params) == r_value(params), word


def _enters_r_value(*_args):
    raise AssertionError("CHEN's left side entered r_value")


def test_chen_left_side_never_enters_r_value(monkeypatch):
    # The left side, <u><v>, integrates each word by the oracle; only the
    # right side, <u shuffle v>, goes through the closed form r_value.
    sampler = SeededSampler(mix_seed(42, "chen separation"))
    pairs = []
    for _ in range(12):
        u = tuple(sampler.next_int(4) - 1 for _ in range(sampler.next_int(5) - 1))
        v = tuple(sampler.next_int(4) - 1 for _ in range(sampler.next_int(4)))
        fam = MonomialFamily(phi=tuple(sampler.positive_distinct(4, 50)))
        pairs.append(integrals._chen_pair(u, v, fam))
    with monkeypatch.context() as patch:
        patch.setattr(integrals, "r_value", _enters_r_value)
        lefts = [lhs() for lhs, _ in pairs]
        with pytest.raises(AssertionError, match="entered r_value"):
            pairs[0][1]()
    assert lefts == [rhs() for _, rhs in pairs]


def test_verify_chen_cases():
    fam = MonomialFamily(phi=tuple(Fraction(z) for z in (2, 3, 5, 7)))
    for u, v in (((), (0, 1)), ((0,), (1,)), ((0, 1), (2, 3))):
        lhs, rhs = integrals._chen_pair(u, v, fam)
        assert lhs() == rhs(), (u, v)


def test_verify_chen_batch_100():
    report = verify_chen_batch(42, pairs=100)
    assert report.equal
    assert report.lhs_terms == 100


@pytest.mark.parametrize(
    "variant,orders",
    [
        ("EVEN", (2, 4, 6)),
        ("INTERLEAVED", (2, 4, 6)),
        ("NEW_PAIRING", (2, 4, 6)),
        ("PERM_PRODUCT", (2, 4, 6)),
        ("PERM_INTERLEAVED", (2, 4, 6)),
        ("ODD", (3, 5)),
    ],
)
def test_debruijn_plain_variants(variant, orders):
    for order in orders:
        report = verify_debruijn(variant, n=order, seed=42)
        assert report.equal, (variant, order)


def test_debruijn_even_order_2_trivial():
    fam = MonomialFamily(phi=(Fraction(2), Fraction(3)))
    report = verify_debruijn("EVEN", n=2, fam=fam)
    assert report.equal
    # both sides are <12> - <21> = P_12
    lhs = r_value([Fraction(2), Fraction(3)]) - r_value([Fraction(3), Fraction(2)])
    assert lhs == Fraction(1, 10) - Fraction(1, 15)


def test_debruijn_perm_product_is_product_of_single_integrals():
    # both sides equal prod 1/x_i at any even order
    fam = MonomialFamily(phi=tuple(Fraction(z) for z in (2, 3, 5, 7)))
    report = verify_debruijn("PERM_PRODUCT", n=4, fam=fam)
    assert report.equal
    expected = Fraction(1)
    for z in fam.phi:
        expected /= z
    lhs = Fraction(0)
    for perm, _sign in signed_permutations(4):
        lhs += r_value([fam.phi[p - 1] for p in perm])
    assert lhs == expected


def test_debruijn_perm_product_paper_coefficient_fails():
    report = verify_debruijn("PERM_PRODUCT", n=4, seed=42, coeff="paper")
    assert not report.equal
    assert report.counterexample is not None


def test_debruijn_perm_product_refuses_an_unknown_coefficient():
    with pytest.raises(ValueError, match="coeff must be 'corrected' or 'paper'"):
        verify_debruijn("PERM_PRODUCT", n=2, coeff="bogus")


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 1), (2, 2)])
def test_debruijn_general_variants(k, n):
    assert verify_debruijn("GENERAL_DET", n=n, k=k, seed=42).equal
    assert verify_debruijn("GENERAL_PERM", n=n, k=k, seed=42).equal


def test_general_det_k1_collapses_to_interleaved():
    # same exponent grid => identical sides
    fam2 = default_family("GENERAL_DET", 4, 1, seed=42)
    fam_il = MonomialFamily(phi=fam2.grid[0], psi=fam2.grid[1])
    general = verify_debruijn("GENERAL_DET", n=2, k=1, fam=fam2, seed=42)
    inter = verify_debruijn("INTERLEAVED", n=4, fam=fam_il, seed=42)
    assert general.equal and inter.equal
    assert general.lhs_digest == inter.lhs_digest
    assert general.rhs_digest == inter.rhs_digest


def test_default_family_draws_are_pinned():
    # Seed 42's families, one per shape: a changed draw loop moves these.
    ints = lambda values: tuple(map(Fraction, values))
    plain = default_family("EVEN", 4, None, seed=42)
    assert (plain.phi, plain.psi, plain.grid) == (ints((18, 11, 15, 4)), ints((17, 5, 6, 16)), ())
    general = default_family("GENERAL_DET", 4, 1, seed=42)
    assert general.grid == (ints((9, 7, 20, 17)), ints((11, 12, 8, 10)))
    assert (general.phi, general.psi) == ((), ())
    assert default_family("EVEN", 0, None, seed=42) == MonomialFamily()


def test_debruijn_errors():
    with pytest.raises(ValueError, match="unknown variant"):
        verify_debruijn("NOPE", n=2)
    with pytest.raises(ValueError, match="size cap"):
        verify_debruijn("EVEN", n=10)
    with pytest.raises(ValueError, match="ODD needs odd n, got n=4"):
        verify_debruijn("ODD", n=4)
    with pytest.raises(ValueError, match="^--k is required for debruijn_general_det$"):
        verify_debruijn("GENERAL_DET", n=2)


def test_general_row_refuses_a_grid_with_too_few_rows():
    # Two grid rows cannot fill the four slots of a k = 2 group.
    fam = MonomialFamily(grid=((Fraction(2), Fraction(3)), (Fraction(5), Fraction(7))))
    with pytest.raises(ValueError, match="group of 2 letters does not split into blocks of width 4"):
        verify_debruijn("GENERAL_DET", n=1, k=2, fam=fam)


@pytest.mark.parametrize(
    "variant,k,n",
    [("ODD", None, -1), ("EVEN", None, -2), ("GENERAL_DET", -1, -1), ("GENERAL_PERM", 0, 2),
     ("GENERAL_DET", 1, -1)],
)
def test_debruijn_refuses_negative_params_before_any_work(monkeypatch, variant, k, n):
    def no_work(*_args):
        raise AssertionError("sampled a family for a refused order")

    monkeypatch.setattr(integrals, "default_family", no_work)
    with pytest.raises(ValueError, match=r"needs? k >= 1|needs n >= 0"):
        verify_debruijn(variant, n=n, k=k)


def test_even_debruijn_from_pairing_identity():
    # apply the linear form to both sides of the signed pairing expansion
    # with both alphabets identified; must match the EVEN integral identity
    n = 2
    d = 2 * n
    sampler = SeededSampler(mix_seed(42, "chen-pfab"))
    exps = tuple(1 + v for v in sampler.positive_distinct(d, 50))
    fam = MonomialFamily(phi=exps)
    acc = {}
    for perm, sign in signed_permutations(d):
        word = tuple(p - 1 for p in perm)
        acc[word] = acc.get(word, 0) + sign
    lhs_poly = FreePoly(acc)
    rhs_poly = FreePoly.zero()
    from spfk.tensors import AltTensor, pfaffian
    from spfk.freealg import SHUFFLE_RING

    Q = AltTensor.from_function(
        SHUFFLE_RING,
        2,
        d,
        lambda ij: FreePoly({(ij[0] - 1, ij[1] - 1): 1, (ij[1] - 1, ij[0] - 1): -1}),
    )
    rhs_poly = pfaffian(Q)
    assert chen_form(lhs_poly, fam) == chen_form(rhs_poly, fam)
    report = verify_debruijn("EVEN", n=d, fam=fam)
    assert report.equal


# --- the left-side DP against the literal permutation expansion -------------

UNSIGNED = ("PERM_PRODUCT", "PERM_INTERLEAVED", "GENERAL_PERM")


def _left_side_args(variant, order, k, fam):
    """(slots, width, signed) of a de Bruijn variant's left side."""
    if variant.startswith("GENERAL"):
        families, width = fam.grid, 2 * k
    elif variant in ("INTERLEAVED", "PERM_INTERLEAVED"):
        families, width = (fam.phi, fam.psi), 2
    elif variant == "NEW_PAIRING":
        families, width = (fam.phi, fam.psi), 1
    else:
        families, width = (fam.phi,), 1
    slots = [families[p % len(families)] for p in range(order)]
    return slots, width, variant not in UNSIGNED


def _left_side(variant, order, k, fam):
    """The left side alone of a de Bruijn row, at the family ``fam``."""
    params = {"n": order, "coeff": "corrected"} if k is None else {"k": k, "n": order // (2 * k)}
    row = integrals.DEBRUIJN[f"debruijn_{variant.lower()}"]
    _header, lhs, _rhs = row.sides({**params, "fam": fam}, 0)
    (value,) = lhs()
    return value


def _right_side(variant, order, k, fam, coeff="corrected"):
    """The right side alone of a de Bruijn row, at the family ``fam``."""
    params = {"n": order, "coeff": coeff} if k is None else {"k": k, "n": order // (2 * k)}
    row = integrals.DEBRUIJN[f"debruijn_{variant.lower()}"]
    _header, _lhs, rhs = row.sides({**params, "fam": fam}, 0)
    (value,) = rhs()
    return value


def _brute_force(slots, width):
    """The signed and the unsigned sums over all m! permutations of
    sgn^signed * R(merged block exponents), in one pass."""
    signed = unsigned = Fraction(0)
    for perm, sign in signed_permutations(len(slots)):
        params = [slots[p][letter - 1] for p, letter in enumerate(perm)]
        blocks = range(0, len(params), width)
        term = r_value([merged_exponent(params[b : b + width]) for b in blocks])
        signed += sign * term
        unsigned += term
    return signed, unsigned


def _small_cases():
    for variant in (check.name for check in DEBRUIJN.values()):
        if variant.startswith("GENERAL"):
            for k, n in ((1, 1), (1, 2), (1, 3), (2, 1), (3, 1)):
                yield variant, 2 * k * n, k
        else:
            for order in ((1, 3, 5) if variant == "ODD" else (2, 4, 6)):
                yield variant, order, None


@pytest.mark.parametrize("seed", range(5))
def test_left_side_matches_permutation_expansion(seed):
    for variant, order, k in _small_cases():
        fam = default_family(variant, order, k, seed)
        lhs = _left_side(variant, order, k, fam)
        slots, width, signed = _left_side_args(variant, order, k, fam)
        assert lhs == _brute_force(slots, width)[not signed], (variant, order, k)


def test_general_left_sides_order_8_match_permutation_expansion():
    fam = default_family("GENERAL_DET", 8, 2, seed=42)
    slots, width, _ = _left_side_args("GENERAL_DET", 8, 2, fam)
    signed_sum, unsigned_sum = _brute_force(slots, width)
    assert ordered_sum(slots, width, signed=True) == signed_sum
    assert ordered_sum(slots, width, signed=False) == unsigned_sum
    assert _left_side("GENERAL_DET", 8, 2, fam) == signed_sum


def test_ordered_sum_non_integer_fractions():
    phi = tuple(Fraction(z) for z in ("3/2", "5/3", "7/4", "2", "9/5", "11/6"))
    psi = tuple(Fraction(z) for z in ("4/3", "3", "6/5", "8/7", "5/2", "7/3"))
    fam = MonomialFamily(phi=phi, psi=psi, grid=(phi, psi, psi[::-1], phi[::-1]))
    for variant, order, k in (
        ("EVEN", 6, None),
        ("NEW_PAIRING", 6, None),
        ("INTERLEAVED", 6, None),
        ("PERM_INTERLEAVED", 6, None),
        ("GENERAL_DET", 4, 2),
        ("GENERAL_PERM", 4, 2),
    ):
        slots, width, signed = _left_side_args(variant, order, k, fam)
        value = ordered_sum(slots, width, signed)
        assert isinstance(value, Fraction) and value.denominator > 1
        assert value == _brute_force(slots, width)[not signed], variant
        n = order if k is None else order // (2 * k)
        assert verify_debruijn(variant, n=n, k=k, fam=fam).equal


@pytest.mark.parametrize(
    "width,order",
    ((1, 4), (1, 6), (2, 4), (2, 6), (3, 6), (4, 4), (4, 8), (6, 6)),
)
def test_ordered_sum_mixed_denominators_match_permutation_expansion(width, order):
    # Each position in a block reads its own rotation of _MIXED; an odd width
    # and one full-width block pin where the shift and the in-block sign apply.
    families = tuple(_MIXED[j:] + _MIXED[:j] for j in range(6))
    slots = [families[p % width] for p in range(order)]
    signed, unsigned = _brute_force(slots, width)
    assert ordered_sum(slots, width, signed=True) == signed
    assert ordered_sum(slots, width, signed=False) == unsigned
    assert unsigned.denominator > 1


def test_ordered_sum_order_8_at_sampled_rational_points():
    # The MEHTA2/SUM1 left sides: one family, width 1, at a positive_distinct point.
    x = SeededSampler(mix_seed(42, "order-8")).positive_distinct(8, 200)
    signed, unsigned = _brute_force([x] * 8, 1)
    assert ordered_sum([x] * 8, 1, signed=True) == signed
    assert ordered_sum([x] * 8, 1, signed=False) == unsigned


def test_left_side_calls_no_right_side_kernel(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the left side called a right-side kernel")

    for name in ("pfaffian", "hafnian", "hyperpfaffian", "hyperhafnian", "group_form"):
        monkeypatch.setattr(tensors, name, refuse)
    monkeypatch.setattr(integrals, "group_form", refuse)
    monkeypatch.setattr(integrals, "r_value", refuse)
    monkeypatch.setattr(integrals, "merged_exponent", refuse)
    for variant, order, k in _small_cases():
        fam = default_family(variant, order, k, seed=3)
        ordered_sum(*_left_side_args(variant, order, k, fam))
        _left_side(variant, order, k, fam)
    with pytest.raises(AssertionError, match="right-side kernel"):
        verify_debruijn("EVEN", n=4)


def test_ordered_sum_argument_errors():
    with pytest.raises(ValueError, match="width"):
        ordered_sum([(Fraction(2),)] * 3, 2, signed=True)
    with pytest.raises(ValueError, match="each of the 2 letters"):
        ordered_sum([(Fraction(2),), (Fraction(3), Fraction(4))], 1, signed=True)
    assert ordered_sum([], 1, signed=True) == 1


@pytest.mark.parametrize("width", (1, 2, 4))
def test_ordered_sum_does_no_fraction_arithmetic(monkeypatch, width):
    # Families with mixed denominators, cleared once: the DP runs on ints,
    # and the value is the permutation expansion's.
    families = tuple(_MIXED[j:] + _MIXED[:j] for j in range(4))
    slots = [families[p % width] for p in range(4)]
    refuse_fraction_arithmetic(monkeypatch)
    got = [ordered_sum(slots, width, signed) for signed in (True, False)]
    monkeypatch.undo()
    assert all(type(value) is Fraction for value in got)
    assert got == list(_brute_force(slots, width))


def _one_letter_levels(*pieces):
    # One level per entry of ``pieces``, one move per index i carrying pieces[t][i].
    return [[(*index_masks((i,)), piece) for i, piece in enumerate(level)] for level in pieces]


def _ordering_levels(sizes):
    # One level per group size, one move per index set, its pieces the set's
    # orderings as words, each with its own inversion sign.
    order = sum(sizes)
    return [
        [
            (*index_masks(idx), {tuple(idx[t - 1] for t in tau): sign
                                 for tau, sign in signed_permutations(size)})
            for idx in itertools.combinations(range(order), size)
        ]
        for size in sizes
    ]


@pytest.mark.parametrize(
    "args,expected",
    (
        pytest.param(([], True, 7), ({0: {7: 1}}, 1), id="no-levels"),
        # Both orders of two letters reach the key 1 - 1 = 0 with opposite
        # signs, so the closed level has no weight left and no key to divide by.
        pytest.param(
            (_one_letter_levels([{1: 1}, {1: 1}], [{-1: 1}, {-1: 1}]), True, 0, (1,)),
            ({3: {}}, 1),
            id="closed-level-cancels",
        ),
        # Groups placed in turn: every permutation as its own word, with its
        # sign.  Even groups, or an odd one after an even count, read the same
        # sign from the indices below as from those above; 1, 2, 1 does not.
        *(
            pytest.param(
                (_ordering_levels(sizes), True, ()),
                ({(1 << sum(sizes)) - 1: {tuple(i - 1 for i in perm): sign
                                          for perm, sign in signed_permutations(sum(sizes))}},
                 1),
                id="signed-groups-" + "-".join(map(str, sizes)),
            )
            for sizes in ((2, 2, 1), (1, 2, 1))
        ),
    ),
)
def test_placed_sum_table(args, expected):
    states, denominator = placed_sum(*args)
    assert (states, denominator) == expected


@pytest.mark.parametrize(
    "phi",
    [
        # Every pair sum below 1 goes unnoticed by the expansion (both sides agree).
        (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3)),
        # A neighbour whose expansion meets a zero partial sum.
        (Fraction(4, 5), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3)),
    ],
)
def test_divergent_block_exponent_refused(phi):
    psi = (Fraction(1, 2), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))
    fam = MonomialFamily(phi=phi, psi=psi)
    for variant in ("INTERLEAVED", "PERM_INTERLEAVED"):
        with pytest.raises(ValueError, match="diverges"):
            verify_debruijn(variant, n=4, fam=fam)


def _suite_orders():
    # Every suite order of each de Bruijn row, and ODD at every odd order.
    for variant in (check.name for check in DEBRUIJN.values()):
        if variant.startswith("GENERAL"):
            for k, n in ((1, 2), (1, 3), (2, 1), (2, 2)):
                yield variant, 2 * k * n, k
        else:
            for order in ((1, 3, 5, 7) if variant == "ODD" else (2, 4, 6)):
                yield variant, order, None


_FRACTIONAL = MonomialFamily(
    phi=_MIXED,
    psi=_MIXED[::-1],
    grid=(_MIXED, _MIXED[::-1], _MIXED[3:] + _MIXED[:3], _MIXED[1::2] + _MIXED[::2]),
)


@pytest.mark.parametrize("seed", (0, 1, 2, None))
def test_right_sides_match_the_hand_written_formulas(seed):
    # seed None: one family of non-integer exponents for every row.
    for variant, order, k in _suite_orders():
        fam = _FRACTIONAL if seed is None else default_family(variant, order, k, seed)
        for coeff in ("corrected", "paper") if variant == "PERM_PRODUCT" else ("corrected",):
            expected = debruijn_rhs(variant, order, fam, k, coeff)
            assert _right_side(variant, order, k, fam, coeff) == expected, (variant, order, coeff)


def test_integer_families_give_exact_right_sides():
    # Plain int parameters: every entry, and the odd border, stays a Fraction.
    rows = ((2, 3, 5, 7), (4, 5, 7, 9), (3, 4, 6, 8), (5, 6, 8, 11))
    fractions = tuple(tuple(map(Fraction, row)) for row in rows)
    fam = MonomialFamily(phi=rows[0], psi=rows[1], grid=rows)
    exact = MonomialFamily(phi=fractions[0], psi=fractions[1], grid=fractions)
    for variant, order, k in _suite_orders():
        if order <= 4:
            value = _right_side(variant, order, k, fam)
            assert isinstance(value, Fraction) and value == _right_side(variant, order, k, exact)


def test_every_debruijn_row_holds_at_a_non_integer_family():
    # The suite's families are ints, cleared over scale 1, so only a family
    # with denominators shows a wrong power of the scale in either side.
    for variant, order, k in _suite_orders():
        n = order if k is None else order // (2 * k)
        assert verify_debruijn(variant, n=n, k=k, fam=_FRACTIONAL).equal is True, (variant, order)


def _entry_function(slots, width):
    """value_of of ``_debruijn_sides``: the entry function its right side
    hands to group_form, caught there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrals, "group_form", lambda _ring, _order, _g, value_of, *_: value_of)
        _lhs, rhs = integrals._debruijn_sides(slots, width, True, len(slots))
        return rhs()


def _entry_loop(slots, width, seq):
    # The ordered integral of seq's letters, each block merged, in Fractions.
    zs = [Fraction(slots[s][i - 1]) for s, i in enumerate(seq)]
    blocks = [zs[b : b + width] for b in range(0, len(zs), width)]
    return r_value_loop(sum(block) - (len(block) - 1) for block in blocks)


_NEGATIVE = (Fraction(3, 2), Fraction(-7, 3), Fraction(1, 4), 5)


@pytest.mark.parametrize(
    "slots, width",
    (
        ((_MIXED, _MIXED[::-1]), 1),
        ((_MIXED, _MIXED[::-1]), 2),
        (_FRACTIONAL.grid, 4),
        ((_NEGATIVE, _NEGATIVE[::-1]), 1),
        ((_NEGATIVE, _NEGATIVE[::-1]), 2),
        (((2, 3, 5), (7, 4, 6)), 2),
        ((_MIXED[:5], _MIXED[::-1], _MIXED[2:]), 1),
    ),
    ids=["mixed-1", "mixed-2", "mixed-4", "negative-1", "negative-2", "ints-2", "unequal-1"],
)
def test_debruijn_entries_do_no_fraction_arithmetic(monkeypatch, slots, width):
    # The entries read the slot families cleared once, on ints: a Fraction
    # sum, product or quotient anywhere in them raises here.  Each entry (a
    # group, a single letter, the empty group, an iterator) must equal the
    # Fraction loop's.
    value_of = _entry_function(slots, width)
    letters = range(1, min(map(len, slots)) + 1)
    seqs = [(), (1,), *itertools.permutations(letters, len(slots))]
    refuse_fraction_arithmetic(monkeypatch)
    got = [(value_of(seq), value_of(iter(seq))) for seq in seqs]
    monkeypatch.undo()
    assert got == [(_entry_loop(slots, width, seq),) * 2 for seq in seqs]


# Four rows of eight values with mixed denominators, some given over a
# negative denominator, some negative.
_SIGNED_GRID = tuple(
    row[r:] + row[:r]
    for row in [(Fraction(3, 2), Fraction(7, -3), Fraction(1, 4), 5, Fraction(-9, -8),
                 Fraction(13, 6), Fraction(-2, 5), Fraction(11, 4))]
    for r in range(4)
)


@pytest.mark.parametrize("signed", (True, False), ids=["det", "perm"])
@pytest.mark.parametrize("grid", (_FRACTIONAL.grid, _SIGNED_GRID), ids=["mixed", "signed"])
def test_debruijn_group_form_of_four_letters_does_no_fraction_arithmetic(
    monkeypatch, grid, signed
):
    # The right side of a k = 2 row is group_form over QQ with g = 4: each
    # entry sums its 24 values over their lcm and builds one Fraction, so a
    # Fraction sum, product, quotient or negation anywhere in it raises here.
    # At orders 4 and 8 it equals the form whose entries add one Fraction per
    # permutation.
    value_of = _entry_function(grid, 4)
    refuse_fraction_arithmetic(monkeypatch)
    got = [integrals._debruijn_sides(grid, 4, signed, order)[1]() for order in (4, 8)]
    monkeypatch.undo()
    assert got == [group_form_loop(order, 4, value_of, signed, signed) for order in (4, 8)]
    assert all(value for value in got)


def test_debruijn_entry_with_a_zero_partial_sum_raises():
    value_of = _entry_function(((2, -2), (2, -2)), 1)
    with pytest.raises(ZeroDivisionError, match="zero partial sum"):
        value_of((1, 2))
