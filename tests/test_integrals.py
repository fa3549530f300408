import itertools
from fractions import Fraction

import pytest

from spfk.core import SeededSampler, mix_seed
from spfk.freealg import FreePoly, shuffle
from spfk import integrals, tensors
from spfk.integrals import (
    DEBRUIJN_VARIANTS,
    MonomialFamily,
    chen_form,
    default_family,
    iterated_integral_oracle,
    merged_exponent,
    ordered_sum,
    r_value,
    verify_chen,
    verify_chen_batch,
    verify_debruijn,
)
from spfk.tensors import signed_permutations


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


def test_merged_exponent():
    assert merged_exponent([Fraction(2), Fraction(3)]) == 4
    assert merged_exponent([Fraction(2)]) == 2


def test_family_validation():
    with pytest.raises(ValueError):
        MonomialFamily(phi=(Fraction(0),))
    with pytest.raises(ValueError):
        MonomialFamily(phi=(Fraction(1),), psi=(Fraction(-2),))


def test_chen_form_examples():
    fam = MonomialFamily(phi=(Fraction(3),))
    assert chen_form((0,), fam) == Fraction(1, 3)
    fam2 = MonomialFamily(phi=(Fraction(2), Fraction(3)))
    assert chen_form((0, 1), fam2) == Fraction(1, 10)
    # Chen instance: <a><b> = <a sh b>
    lhs = chen_form((0,), fam2) * chen_form((1,), fam2)
    rhs = chen_form(shuffle(FreePoly.from_word((0,)), FreePoly.from_word((1,))), fam2)
    assert lhs == rhs == Fraction(1, 6)
    assert Fraction(1, 6) == Fraction(1, 10) + Fraction(1, 15)


def test_chen_form_unknown_letter():
    fam = MonomialFamily(phi=(Fraction(3),))
    with pytest.raises(ValueError, match="unknown letter"):
        chen_form((1,), fam)


def test_oracle_matches_closed_form_short_words():
    sampler = SeededSampler(271)
    exps = sampler.positive_distinct(5, 60)
    fam = MonomialFamily(phi=tuple(exps))
    for length in range(1, 6):
        for word in itertools.product(range(5), repeat=length):
            params = [exps[i] for i in word]
            assert iterated_integral_oracle(params) == r_value(params), word


def test_chen_form_check_flag():
    fam = MonomialFamily(phi=(Fraction(2), Fraction(7, 2)))
    assert chen_form((0, 1, 0), fam, check=True) == r_value(
        [Fraction(2), Fraction(7, 2), Fraction(2)]
    )


def test_verify_chen_cases():
    fam = MonomialFamily(phi=tuple(Fraction(z) for z in (2, 3, 5, 7)))
    assert verify_chen((), (0, 1), fam).equal
    assert verify_chen((0,), (1,), fam).equal
    assert verify_chen((0, 1), (2, 3), fam).equal
    with pytest.raises(ValueError, match="size cap"):
        verify_chen((0,) * 5, (1,) * 4, fam)


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


def test_debruijn_errors():
    with pytest.raises(ValueError, match="unknown variant"):
        verify_debruijn("NOPE", n=2)
    with pytest.raises(ValueError, match="size cap"):
        verify_debruijn("EVEN", n=10)
    with pytest.raises(ValueError, match="ODD needs odd n, got n=4"):
        verify_debruijn("ODD", n=4)
    with pytest.raises(ValueError, match="GENERAL_DET needs k >= 1, got k=None"):
        verify_debruijn("GENERAL_DET", n=2)


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


def _brute_force(slots, width, signed):
    """Sum over all m! permutations of sgn^signed * R(merged block exponents)."""
    total = Fraction(0)
    for perm, sign in signed_permutations(len(slots)):
        params = [slots[p][letter - 1] for p, letter in enumerate(perm)]
        zs = [merged_exponent(params[b : b + width]) for b in range(0, len(params), width)]
        total += (sign if signed else 1) * r_value(zs)
    return total


def _small_cases():
    for variant in DEBRUIJN_VARIANTS:
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
        lhs, _rhs = integrals._DEBRUIJN_IMPL[variant][0](order, k, fam, "corrected")
        assert lhs == _brute_force(*_left_side_args(variant, order, k, fam)), (variant, order, k)


def test_general_left_sides_order_8_match_permutation_expansion():
    fam = default_family("GENERAL_DET", 8, 2, seed=42)
    slots, width, _ = _left_side_args("GENERAL_DET", 8, 2, fam)
    signed_sum = unsigned_sum = Fraction(0)
    for perm, sign in signed_permutations(8):
        params = [slots[p][letter - 1] for p, letter in enumerate(perm)]
        term = r_value([merged_exponent(params[:4]), merged_exponent(params[4:])])
        signed_sum += sign * term
        unsigned_sum += term
    assert ordered_sum(slots, width, signed=True) == signed_sum
    assert ordered_sum(slots, width, signed=False) == unsigned_sum
    assert integrals._DEBRUIJN_IMPL["GENERAL_DET"][0](8, 2, fam, "corrected")[0] == signed_sum


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
        args = _left_side_args(variant, order, k, fam)
        value = ordered_sum(*args)
        assert isinstance(value, Fraction) and value.denominator > 1
        assert value == _brute_force(*args), variant
        n = order if k is None else order // (2 * k)
        assert verify_debruijn(variant, n=n, k=k, fam=fam).equal


def _brute_force_both(slots, width):
    """The signed and the unsigned permutation sums of ``_brute_force`` in one pass."""
    signed = unsigned = Fraction(0)
    for perm, sign in signed_permutations(len(slots)):
        params = [slots[p][letter - 1] for p, letter in enumerate(perm)]
        blocks = range(0, len(params), width)
        term = r_value([merged_exponent(params[b : b + width]) for b in blocks])
        signed += sign * term
        unsigned += term
    return signed, unsigned


_MIXED = (
    Fraction(3, 2), Fraction(7, 5), Fraction(11, 4), Fraction(2), Fraction(13, 6),
    Fraction(9, 7), Fraction(5, 3), Fraction(17, 8),
)


@pytest.mark.parametrize(
    "width,order",
    ((1, 4), (1, 6), (2, 4), (2, 6), (4, 4), (4, 8)),
)
def test_ordered_sum_mixed_denominators_match_permutation_expansion(width, order):
    families = (_MIXED, _MIXED[::-1], _MIXED[3:] + _MIXED[:3], _MIXED[1::2] + _MIXED[::2])
    slots = [families[p % width] for p in range(order)]
    signed, unsigned = _brute_force_both(slots, width)
    assert ordered_sum(slots, width, signed=True) == signed
    assert ordered_sum(slots, width, signed=False) == unsigned
    assert unsigned.denominator > 1


def test_ordered_sum_order_8_at_sampled_rational_points():
    # The MEHTA2/SUM1 left sides: one family, width 1, at a positive_distinct point.
    x = SeededSampler(mix_seed(42, "order-8")).positive_distinct(8, 200)
    signed, unsigned = _brute_force_both([x] * 8, 1)
    assert ordered_sum([x] * 8, 1, signed=True) == signed
    assert ordered_sum([x] * 8, 1, signed=False) == unsigned


def test_left_side_calls_no_right_side_kernel(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the left side called a right-side kernel")

    for name in ("pfaffian", "hafnian", "hyperpfaffian", "hyperhafnian"):
        monkeypatch.setattr(tensors, name, refuse)
        monkeypatch.setattr(integrals, name, refuse)
    for variant, order, k in _small_cases():
        fam = default_family(variant, order, k, seed=3)
        ordered_sum(*_left_side_args(variant, order, k, fam))
    with pytest.raises(AssertionError, match="right-side kernel"):
        verify_debruijn("EVEN", n=4)


def test_ordered_sum_argument_errors():
    with pytest.raises(ValueError, match="width"):
        ordered_sum([(Fraction(2),)] * 3, 2, signed=True)
    with pytest.raises(ValueError, match="each of the 2 letters"):
        ordered_sum([(Fraction(2),), (Fraction(3), Fraction(4))], 1, signed=True)
    assert ordered_sum([], 1, signed=True) == 1


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
