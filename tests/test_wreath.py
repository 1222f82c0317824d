import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinaldim import (
    BudgetExceeded,
    DegreeCapExceeded,
    Permutation,
    Portrait,
    TreeSequence,
    alt_generators,
    embedded_alt_generators,
    lnfact,
    spinal_group_portraits,
    synthesize,
    verify_level_action,
)
from spinaldim.portraits import GROUPS
from spinaldim.schreier import StabilizerChain
from spinaldim.wreath import (
    _GUARD_BITS,
    LevelActionReport,
    LogOrderSums,
    _fixed,
    _on_subtree,
    _peel_words,
    _peeled_witness,
    exact_wreath_order,
    labels_in_wreath_product,
    log_order_sums,
)


def test_lnfact_against_loggamma():
    with mpmath.workprec(200):
        for n in (0, 1, 2, 5, 50, 777, 4000):
            direct = mpmath.loggamma(n + 1)
            assert abs(lnfact(n, 128) - direct) < mpmath.mpf(2) ** -120


def test_lnfact_large_arguments():
    # arguments far beyond any level size still land inside the Stirling envelope
    big = 10 ** 40
    val = lnfact(big, 128)
    with mpmath.workprec(200):
        lo = 1 + big * (mpmath.log(big) - 1)
        hi = 1 + (big + 1) * (mpmath.log(big + 1) - 1)
        assert lo <= val <= hi


def test_wreath_order_examples():
    assert exact_wreath_order((5,)) == 60
    assert exact_wreath_order((5, 5)) == 46656000000
    assert exact_wreath_order((3, 3)) == 81


def test_wreath_order_closed_form_oracle():
    # independent recomputation straight from the level sizes
    seq = TreeSequence((5, 7, 9))
    expected = 1
    for i in range(3):
        expected *= (math.factorial(seq[i]) // 2) ** seq.level_size(i)
    assert exact_wreath_order(seq.valencies) == expected


def test_wreath_order_monotone_in_level():
    seq = TreeSequence((5, 7, 9))
    orders = [exact_wreath_order(seq.valencies[:n]) for n in range(1, 4)]
    assert orders[0] < orders[1] < orders[2]


def test_wreath_order_log_agrees_with_exact():
    for valencies in ((5, 5), (5, 13, 133)):
        exact = exact_wreath_order(valencies)
        scaled = log_order_sums(valencies, 128).order[len(valencies)]
        with mpmath.workprec(200):
            log_value = mpmath.mpf(scaled) / 2 ** (128 + _GUARD_BITS)
            assert abs(mpmath.log(mpmath.mpf(exact)) - log_value) < mpmath.mpf(2) ** -120


def reference_log_order_sums(valencies, precision_bits):
    """The prefix sums by a plain loop: every log scaled by 2^wp and rounded to an integer."""
    wp = precision_bits + _GUARD_BITS

    def scaled(x):
        return round(Fraction(x.man) * Fraction(2) ** (x.exp + wp))

    with mpmath.workprec(wp):
        ln2 = scaled(mpmath.log(2))
        sums = {name: [0] for name in LogOrderSums._fields}
        sums["size_sub"] = [2 ** wp]
        m = m_sub = 1
        for l in valencies:
            lf, lf_sub = scaled(lnfact(l, precision_bits)), scaled(lnfact(l - 2, precision_bits))
            ln_l = mpmath.log(l)
            terms = {
                "fact": m * lf,
                "fact_sub": m_sub * lf_sub,
                "split_sub": m * lf_sub,
                "split_l": m * scaled(ln_l),
                "split_l1": m * scaled(mpmath.log(l - 1)),
                "stirling_sub": m_sub * scaled(l * (ln_l - 1)),
                "order": m * (lf - ln2),
                "order_sub": m_sub * (lf_sub - ln2),
            }
            for name, term in terms.items():
                sums[name].append(sums[name][-1] + term)
            m *= l
            m_sub *= l - 2
            sums["size_sub"].append(m_sub * 2 ** wp)
    return LogOrderSums(**{name: tuple(v) for name, v in sums.items()})


@pytest.mark.parametrize("valencies, bits", [
    ((7,) * 200, 128),
    ((5, 9, 3, 13, 7, 4, 11, 5, 8, 6) * 6, 64),
    (synthesize(Fraction(1, 2), 18).sequence().valencies, 256),
], ids=["constant-7 x200", "mixed x60", "minimal 1/2 x18"])
def test_log_order_sums_are_exact_sums_of_the_rounded_logs(valencies, bits):
    got = log_order_sums(valencies, bits)
    want = reference_log_order_sums(valencies, bits)
    for name in LogOrderSums._fields:
        assert all(type(x) is int for x in getattr(got, name)), name
        assert getattr(got, name) == getattr(want, name), name


@pytest.mark.parametrize("p, q", [(0, 1), (1, 3), (-5, 7), (2, 3 * 10**10), (355 * 10**40, 113)])
def test_fixed_point_log_rounds_once_to_the_scale(p, q):
    wp = 96
    with mpmath.workprec(wp):
        value = mpmath.mpf(p) / q
    mantissa, shift = _fixed(value, wp)
    assert abs(mantissa).bit_length() <= wp and shift >= 0
    scaled = round(Fraction(value.man) * Fraction(2) ** (value.exp + wp))
    assert mantissa << shift == (-scaled if value < 0 else scaled)


def test_log_order_sums_evaluates_each_valency_once(monkeypatch):
    import spinaldim.wreath as wreath

    calls = []
    real_lnfact = wreath.lnfact

    def counting_lnfact(n, precision_bits=128):
        calls.append(n)
        return real_lnfact(n, precision_bits)

    monkeypatch.setattr(wreath, "lnfact", counting_lnfact)
    log_order_sums.cache_clear()
    log_order_sums((7,) * 50, 128)
    assert len(calls) <= 2
    calls.clear()
    mixed = (5, 9, 5, 7, 9, 5) * 10
    log_order_sums(mixed, 128)
    assert len(calls) <= 2 * len(set(mixed))


def test_wreath_order_budget_refusal(monkeypatch):
    import spinaldim.wreath as wreath

    valencies = (5, 13, 133, 17293)
    monkeypatch.setattr(wreath, "_EXACT_DIGIT_BUDGET", 1000)
    with pytest.raises(BudgetExceeded) as err:
        exact_wreath_order(valencies)
    assert err.value.limit == 1000
    assert "(budget 1000); use the log variant" in str(err.value)
    assert log_order_sums(valencies, 128).order[4] > 0


def test_wreath_order_range_checks():
    # the empty prefix is the trivial level-0 quotient; verify only takes levels 1..len(seq)
    assert exact_wreath_order(()) == 1
    with pytest.raises(ValueError, match="level 3 outside 1..2"):
        verify_level_action(TreeSequence((5, 5)), 3)
    with pytest.raises(ValueError, match="level 0 outside 1..2"):
        verify_level_action(TreeSequence((5, 5)), 0)


def test_verify_level_action_examples():
    seq = TreeSequence((5, 5))
    g2 = verify_level_action(seq, 2, "G")
    assert (g2.expected, g2.measured, g2.match) == (60 ** 6, 60 ** 6, True)
    h2 = verify_level_action(seq, 2, "H")
    assert (h2.expected, h2.measured, h2.match) == (81, 81, True)
    g1 = verify_level_action(seq, 1, "G")
    assert (g1.expected, g1.measured, g1.match) == (60, 60, True)
    h1 = verify_level_action(seq, 1, "H")
    assert (h1.expected, h1.measured, h1.match) == (3, 3, True)


def test_verify_level_action_mixed_valencies():
    r = verify_level_action(TreeSequence((6, 5)), 2, "G")
    assert r.match and r.expected == 360 * 60 ** 6
    r = verify_level_action(TreeSequence((5, 6)), 2, "H")
    assert r.match and r.expected == 3 * 12 ** 3


def test_verify_level_action_degree_cap():
    with pytest.raises(DegreeCapExceeded) as err:
        verify_level_action(TreeSequence((5, 5, 5, 5, 5)), 5, "G")
    assert err.value.required == 3125
    with pytest.raises(ValueError):
        verify_level_action(TreeSequence((5, 5)), 2, "X")
    for cap in (0, -1):
        with pytest.raises(ValueError, match=f"degree cap must be at least 1, got {cap}"):
            verify_level_action(TreeSequence((5, 5)), 1, "G", degree_cap=cap)


def test_report_serialization():
    # the fields the verify document is built from; its key order is pinned by
    # the verify digests in test_cli
    r = verify_level_action(TreeSequence((5, 5)), 1, "G", seed=3)
    assert r.sequence == (5, 5) and r.level == 1 and r.group == "G"
    assert r.expected == r.measured == 60
    assert r.match is True
    assert r.seed == 3
    assert r.degree == 5
    assert r.certificate == "order-bound"
    assert r.elapsed_ms > 0


def test_report_defaults():
    r = LevelActionReport((5,), 1, "G", 60, 60, True, 0, 5)
    assert r.elapsed_ms == 0.0 and r.certificate == "schreier"


@pytest.mark.parametrize("which", GROUPS)
def test_labels_in_wreath_product_accepts_the_spinal_generators(which):
    portraits = spinal_group_portraits(TreeSequence((7, 6, 5)), 3, which)
    assert labels_in_wreath_product(portraits, which)


@pytest.mark.parametrize("which", GROUPS)
def test_labels_in_wreath_product_refuses_an_odd_label(which):
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, which)
    odd = Portrait(seq, 2, {(1,): Permutation.from_cycles(7, [(1, 2)])})
    assert not labels_in_wreath_product(portraits + [odd], which)


def test_labels_in_wreath_product_refuses_h_label_outside_the_subtree():
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, "H")
    kappa, _ = embedded_alt_generators(7)
    # even and fixing 6 and 7, but at a vertex whose letter 7 exceeds l - 2 = 5
    stray = Portrait(seq, 2, {(7,): kappa})
    assert not labels_in_wreath_product(portraits + [stray], "H")
    # the same label below an admissible vertex keeps the bound
    inside = Portrait(seq, 2, {(5,): kappa})
    assert labels_in_wreath_product(portraits + [inside], "H")


def test_labels_in_wreath_product_refuses_h_label_moving_a_reserved_point():
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, "H")
    tau, _ = alt_generators(7)  # the 3-cycle (5 6 7) moves 6 and 7
    moving = Portrait(seq, 2, {(1,): tau})
    assert not labels_in_wreath_product(portraits + [moving], "H")
    assert labels_in_wreath_product(portraits + [moving], "G")


def test_labels_in_wreath_product_refuses_an_unknown_group():
    portraits = spinal_group_portraits(TreeSequence((7, 7)), 2, "G")
    with pytest.raises(ValueError, match="group must be 'G' or 'H', got 'K'"):
        labels_in_wreath_product(portraits, "K")


def test_odd_extra_generator_gets_no_order_bound(monkeypatch):
    import spinaldim.wreath as wreath

    seq = TreeSequence((5, 5))
    swap = Portrait(seq, 2, {(): Permutation.from_cycles(5, [(1, 2)])})
    spinal = wreath.spinal_group_portraits
    monkeypatch.setattr(wreath, "spinal_group_portraits",
                        lambda *args: spinal(*args) + [swap])
    # a root transposition turns A_5 wr A_5 into S_5 acting on A_5^5
    r = verify_level_action(seq, 2, "G")
    assert r.certificate == "schreier"
    assert r.measured == 2 * r.expected == 2 * 60 ** 6
    assert not r.match


# the generated H is smaller than the closed form here (A_3 and A_4 are not
# perfect), so the fill stalls below the bound and the Schreier pass decides
H_MISMATCHES = [((5, 5, 5), 27), ((7, 5, 5), 3), ((7, 6, 6), 3)]


@pytest.mark.parametrize("valencies, index", H_MISMATCHES)
def test_h_mismatch_measured_exactly_through_fallback(valencies, index):
    r = verify_level_action(TreeSequence(valencies), 3, "H")
    assert r.expected % index == 0
    assert r.measured == r.expected // index
    assert not r.match
    assert r.certificate == "schreier"


@pytest.mark.parametrize("valencies, index", H_MISMATCHES)
def test_h_mismatch_against_sympy(valencies, index):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    seq = TreeSequence(valencies)
    images = [p.level_permutation(3) for p in spinal_group_portraits(seq, 3, "H")]
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation([x - 1 for x in g.images]) for g in images])
    closed = exact_wreath_order(tuple(l - 2 for l in valencies))
    assert group.order() == closed // index


def level_images(valencies, n, which):
    seq = TreeSequence(valencies)
    return [p.level_permutation(n) for p in spinal_group_portraits(seq, n, which)]


# on its subtree H is G over the valencies l - 2; these ladders keep or lose
# the closed form, and the subtree order is the order on the whole level
@pytest.mark.parametrize("valencies", [(5, 5, 6), (5, 6, 5), (7, 5, 5), (5, 6, 6)])
def test_h_order_on_the_subtree_equals_the_full_tree_order(valencies, monkeypatch):
    import spinaldim.wreath as wreath

    degrees = []

    def chain(images, **kwargs):
        degrees.append(images[0].degree)
        return StabilizerChain(images, **kwargs)

    monkeypatch.setattr(wreath, "StabilizerChain", chain)
    r = verify_level_action(TreeSequence(valencies), 3, "H")
    assert degrees == [TreeSequence(l - 2 for l in valencies).level_size(3)]
    assert r.degree == TreeSequence(valencies).level_size(3)
    assert r.measured == StabilizerChain(level_images(valencies, 3, "H")).order()


@given(st.lists(st.integers(6, 11), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_h_on_its_subtree_is_g_on_the_shifted_sequence(valencies):
    # where l - 2 >= 4 the restricted kappa, rho, xi, theta labels are G's
    # tau, sigma, zeta, psi labels over l - 2, so are the level actions
    n = len(valencies)
    h = _on_subtree(spinal_group_portraits(TreeSequence(valencies), n, "H"), 2)
    shifted = TreeSequence(l - 2 for l in valencies)
    g = spinal_group_portraits(shifted, n, "G")
    assert [p.seq for p in h] == [shifted] * 4
    assert [p.labels for p in h] == [p.labels for p in g]
    assert [p.level_permutation(n) for p in h] == [p.level_permutation(n) for p in g]


def test_order_bound_certifies_every_seed_at_degree_125():
    # verify takes the branch certificate here; the chain it replaced still
    # reaches the order bound from every seed on the same level permutations
    seq = TreeSequence((5, 5, 5))
    images = level_images((5, 5, 5), 3, "G")
    expected = exact_wreath_order((5, 5, 5))
    for seed in range(20):
        r = verify_level_action(seq, 3, "G", seed=seed)
        assert r.match and r.certificate == "branch", seed
        chain = StabilizerChain(images, seed=seed, order_bound=expected)
        assert chain.order() == expected, seed
        assert chain.certificate == "order-bound", seed


def test_degree_343_verify_uses_order_bound():
    r = verify_level_action(TreeSequence((7, 7, 7)), 3, "G")
    assert r.degree == 343
    assert r.match and r.expected == (math.factorial(7) // 2) ** (1 + 7 + 49)
    assert r.certificate == "branch"
    chain = StabilizerChain(level_images((7, 7, 7), 3, "G"), order_bound=r.expected)
    assert chain.order() == r.expected
    assert chain.certificate == "order-bound"


# in the branch domain: l_0 - s >= 4 and l_k - s >= 5 below the root
BRANCH_CASES = [((7, 7), 2, "G"), ((9, 9), 2, "G"), ((11, 11), 2, "G"), ((5, 5, 5), 3, "G"),
                ((7, 7), 2, "H"), ((9, 9), 2, "H"), ((4, 5, 5), 3, "G"), ((6, 7, 7), 3, "H")]


@pytest.mark.parametrize("valencies, n, which", BRANCH_CASES)
def test_branch_order_equals_the_chain_order(valencies, n, which):
    r = verify_level_action(TreeSequence(valencies), n, which)
    assert r.certificate == "branch"
    assert r.degree == TreeSequence(valencies).level_size(n)
    chain = StabilizerChain(level_images(valencies, n, which), order_bound=r.expected)
    assert r.measured == chain.order() == r.expected
    assert r.match


@pytest.mark.parametrize("valencies, n, which", [((4, 5, 5), 3, "G"), ((7, 7), 2, "H")])
def test_branch_order_against_sympy(valencies, n, which):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation([x - 1 for x in g.images])
         for g in level_images(valencies, n, which)])
    assert verify_level_action(TreeSequence(valencies), n, which).measured == group.order()


# an A_3 or A_4 section below the root, or an A_3 at the root, keeps the chain
@pytest.mark.parametrize("valencies, which", [((5, 4, 5), "G"), ((5, 7, 7), "H")])
def test_out_of_domain_keeps_the_order_bound_chain(valencies, which):
    r = verify_level_action(TreeSequence(valencies), 3, which)
    assert r.match and r.certificate == "order-bound"


@pytest.mark.parametrize("witness", ["identity", "first points", "last points"])
def test_bad_witness_falls_back_to_the_chain(monkeypatch, witness):
    import spinaldim.wreath as wreath

    peeled = wreath._peeled_witness

    def fake(images, words):
        c = list(peeled(images, words))
        if witness == "identity":
            return tuple(range(len(c)))
        # also swap two points outside the block under (1, ..., 1, 2)
        i, j = (0, 1) if witness == "first points" else (len(c) - 2, len(c) - 1)
        c[i], c[j] = c[j], c[i]
        return tuple(c)

    monkeypatch.setattr(wreath, "_peeled_witness", fake)
    for valencies, n, which in [((7, 7), 2, "G"), ((5, 5, 5), 3, "G"), ((7, 7), 2, "H")]:
        r = verify_level_action(TreeSequence(valencies), n, which)
        assert r.certificate == "order-bound", valencies
        assert r.match, valencies


# in-domain G sequences: l_0 >= 4, then valencies >= 5
@given(st.integers(4, 9), st.lists(st.integers(5, 9), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_peeled_witness_moves_only_the_block_under_the_spine(root, below):
    valencies = (root, *below)
    seq = TreeSequence(valencies)
    n = len(valencies)
    portraits = spinal_group_portraits(seq, n, "G")
    pairs = [tuple(p.labels[()] for p in portraits[:2])]
    pairs += [tuple(p.labels[(1,) * (k - 1) + (2,)] for p in portraits[2:]) for k in range(1, n)]
    words = [_peel_words(pair) for pair in pairs[:n - 2]]
    images = [tuple(x - 1 for x in p.level_permutation(n).images) for p in portraits]
    c = _peeled_witness(images, words)
    v = (1,) * (n - 2) + (2,)
    start = (seq.vertex_index(v) - 1) * valencies[-1]
    moved = [x for x, y in enumerate(c) if x != y]
    assert moved and start <= moved[0] and moved[-1] < start + valencies[-1]


@pytest.mark.parametrize("valencies", [(5,), (5, 5, 5, 5, 5, 5, 5, 5), (5, 13, 133, 17293),
                                       (3,) * 12, (61, 59)])
def test_exact_order_digit_estimate_matches_log_value(valencies, monkeypatch):
    import spinaldim.wreath as wreath

    monkeypatch.setattr(wreath, "_EXACT_DIGIT_BUDGET", 0)
    scaled = log_order_sums(valencies, 128).order[len(valencies)]
    with mpmath.workprec(160):
        digits = float(mpmath.mpf(scaled) / 2 ** (128 + _GUARD_BITS) / mpmath.log(10))
    with pytest.raises(BudgetExceeded) as err:
        exact_wreath_order(valencies)
    assert err.value.required == pytest.approx(digits, rel=1e-12)
