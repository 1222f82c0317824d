import itertools
import math
import time
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
    _branch_certifies,
    _on_subtree,
    _pair_is_alternating,
    _peeled_witnesses,
    exact_wreath_order,
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
        sums["size"], sums["size_sub"], sums["alpha"] = [1], [1], [Fraction(1)]
        m = m_sub = 1
        for l in valencies:
            lf_sub = scaled(lnfact(l - 2, precision_bits))
            ln_l, ln_l1 = mpmath.log(l), mpmath.log(l - 1)
            # ln l! is the rounded split ln l + ln (l-1) + ln (l-2)!
            lf = scaled(ln_l) + scaled(ln_l1) + lf_sub
            terms = {
                "fact": m * lf,
                "fact_sub": m_sub * lf_sub,
                "split_sub": m * lf_sub,
                "split_l": m * scaled(ln_l),
                "split_l1": m * scaled(ln_l1),
                "stirling_sub": m_sub * scaled(l * (ln_l - 1)),
                "order": m * (lf - ln2),
                "order_sub": m_sub * (lf_sub - ln2),
            }
            for name, term in terms.items():
                sums[name].append(sums[name][-1] + term)
            m *= l
            m_sub *= l - 2
            sums["size"].append(m)
            sums["size_sub"].append(m_sub)
            sums["alpha"].append(Fraction(m_sub, m))
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
        kind = Fraction if name == "alpha" else int
        assert all(type(x) is kind for x in getattr(got, name)), name
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
    assert calls == [5]
    calls.clear()
    mixed = (5, 9, 5, 7, 9, 5) * 10
    log_order_sums(mixed, 128)
    assert calls == [3, 7, 5]


def test_log_order_sums_refuses_a_deep_report_before_any_log(monkeypatch):
    import spinaldim.wreath as wreath

    monkeypatch.setattr(wreath, "lnfact", lambda *args: pytest.fail("a log was evaluated"))
    n = 3801  # the least constant-5 depth above the budget
    with pytest.raises(BudgetExceeded) as err:
        log_order_sums((5,) * n, 128)
    # sum over j = 1..n of log2 m_j, with m_j = 5^j
    assert err.value.required == pytest.approx(math.log2(5) * n * (n + 1) / 2, rel=1e-12)
    assert err.value.required > err.value.limit == wreath._LOG_SUM_BIT_BUDGET == 1 << 24
    assert math.log2(5) * (n - 1) * n / 2 <= err.value.limit


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
    assert r.certificate == "branch"
    assert r.elapsed_ms > 0


def test_report_defaults():
    r = LevelActionReport((5,), 1, "G", 60, 60, True, 0, 5)
    assert r.elapsed_ms == 0.0 and r.certificate == "schreier"


@pytest.mark.parametrize("which", GROUPS)
def test_labels_in_wreath_product_accepts_the_spinal_generators(which):
    portraits = spinal_group_portraits(TreeSequence((7, 6, 5)), 3, which)
    assert _on_subtree(portraits, which) is not None


@pytest.mark.parametrize("which", GROUPS)
def test_labels_in_wreath_product_refuses_an_odd_label(which):
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, which)
    odd = Portrait(seq, 2, {(1,): Permutation.from_cycles(7, [(1, 2)])})
    with pytest.raises(RuntimeError, match=r"label at \(1,\) is odd or leaves the subtree"):
        _on_subtree(portraits + [odd], which)


def test_labels_in_wreath_product_refuses_h_label_outside_the_subtree():
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, "H")
    kappa, _ = embedded_alt_generators(7)
    # even and fixing 6 and 7, but at a vertex whose letter 7 exceeds l - 2 = 5
    stray = Portrait(seq, 2, {(7,): kappa})
    with pytest.raises(RuntimeError, match="contradicts the H generators"):
        _on_subtree(portraits + [stray], "H")
    # the same label below an admissible vertex keeps the bound
    inside = Portrait(seq, 2, {(5,): kappa})
    assert _on_subtree(portraits + [inside], "H") is not None


def test_labels_in_wreath_product_refuses_h_label_moving_a_reserved_point():
    seq = TreeSequence((7, 7))
    portraits = spinal_group_portraits(seq, 2, "H")
    tau, _ = alt_generators(7)  # the 3-cycle (5 6 7) moves 6 and 7
    moving = Portrait(seq, 2, {(1,): tau})
    with pytest.raises(RuntimeError, match="letters <= l - 2"):
        _on_subtree(portraits + [moving], "H")
    assert _on_subtree(portraits + [moving], "G") is not None


def test_labels_in_wreath_product_refuses_an_unknown_group():
    portraits = spinal_group_portraits(TreeSequence((7, 7)), 2, "G")
    with pytest.raises(ValueError, match="group must be 'G' or 'H', got 'K'"):
        _on_subtree(portraits, "K")


def test_odd_extra_generator_gets_no_order_bound(monkeypatch):
    import spinaldim.wreath as wreath

    seq = TreeSequence((5, 5))
    swap = Portrait(seq, 2, {(): Permutation.from_cycles(5, [(1, 2)])})
    spinal = wreath.spinal_group_portraits
    monkeypatch.setattr(wreath, "spinal_group_portraits",
                        lambda *args: spinal(*args) + [swap])
    # a root transposition would turn A_5 wr A_5 into S_5 acting on A_5^5,
    # beyond the closed form; no GROUPS row makes one, so verify refuses it
    with pytest.raises(RuntimeError, match=r"label at \(\) is odd"):
        verify_level_action(seq, 2, "G")


@pytest.mark.parametrize("which", GROUPS)
def test_every_group_row_keeps_the_subtree_invariant(which):
    # constant and mixed valencies from the least each row admits (4 for G,
    # 5 for H) up to 40
    shift = GROUPS[which][2]
    low = 4 + shift // 2
    for l in range(low, 41):
        for valencies in ((l,) * 3, (l, 40 + low - l, l)):
            for depth in (1, 2, 3):
                portraits = spinal_group_portraits(TreeSequence(valencies), depth, which)
                assert [p.seq.valencies for p in _on_subtree(portraits, which)] == [
                    tuple(x - shift for x in valencies[:depth])] * 4


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
    h = _on_subtree(spinal_group_portraits(TreeSequence(valencies), n, "H"), "H")
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


# the empty witness, or one with an extra label on the first or the last
# vertex of level k - 1, whose children are the first or last points of level k
@pytest.mark.parametrize("witness", ["identity", "first points", "last points"])
def test_bad_witness_falls_back_to_the_chain(monkeypatch, witness):
    import spinaldim.wreath as wreath

    peeled = wreath._peeled_witnesses

    def fake(z, p, spine):
        for k, c in enumerate(peeled(z, p, spine), start=2):
            if witness == "identity":
                yield Portrait(c.seq, c.depth)
                continue
            u = (1,) * (k - 1) if witness == "first points" else c.seq.valencies[:k - 1]
            extra = Permutation.from_cycles(c.seq[k - 1], [(1, 2, 3)])
            assert u not in c.labels
            yield Portrait(c.seq, c.depth, {**c.labels, u: extra})

    monkeypatch.setattr(wreath, "_peeled_witnesses", fake)
    for valencies, n, which in [((7, 7), 2, "G"), ((5, 5, 5), 3, "G"), ((7, 7), 2, "H")]:
        r = verify_level_action(TreeSequence(valencies), n, which)
        assert r.certificate == "order-bound", valencies
        assert r.match, valencies


@pytest.mark.parametrize("l", range(4, 13))
def test_pair_is_alternating_accepts_the_alternating_generators(l):
    assert _pair_is_alternating(alt_generators(l))


@pytest.mark.parametrize("pair", [
    embedded_alt_generators(5),  # ((1 2 3), (1 2 3)): A_3 on three of five letters
    embedded_alt_generators(7),  # A_5 on 1..5, fixing 6 and 7
])
def test_pair_is_alternating_refuses_a_smaller_group(pair):
    assert not _pair_is_alternating(pair)


def test_section_pair_refusal_falls_back_to_the_chain(monkeypatch):
    import spinaldim.wreath as wreath

    monkeypatch.setattr(wreath, "_pair_is_alternating", lambda pair: False)
    for valencies, n, which in [((7, 7), 2, "G"), ((5, 5, 5), 3, "G"), ((7, 7), 2, "H"),
                                ((7,), 1, "G")]:
        r = verify_level_action(TreeSequence(valencies), n, which)
        assert r.certificate == "order-bound", valencies
        assert r.match, valencies


def spine(portraits, n):
    # the (vertex, generator pair) of each level k = 1..n, as _branch_certifies reads them
    a, b, z, p = portraits
    return [((), (a, b))] + [((1,) * (k - 2) + (2,), (z, p)) for k in range(2, n + 1)]


# in-domain G sequences: l_0 >= 4, then valencies >= 5
@given(st.integers(4, 9), st.lists(st.integers(5, 9), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_peeled_witness_moves_only_the_block_under_the_spine(root, below):
    valencies = (root, *below)
    seq = TreeSequence(valencies)
    n = len(valencies)
    portraits = spinal_group_portraits(seq, n, "G")
    levels = spine(portraits, n)
    witnesses = list(_peeled_witnesses(*portraits[2:], levels[:n - 2]))
    assert len(witnesses) == n - 1
    for k, ((v, _), c) in enumerate(zip(levels[1:], witnesses), start=2):
        assert [u for u in c.labels if len(u) < k] == [v]
        # the same statement on the dense level-k action
        start = (seq.vertex_index(v) - 1) * valencies[k - 1]
        moved = [x for x, y in enumerate(c.level_permutation(k).images, 1) if x != y]
        assert moved and start < moved[0] and moved[-1] <= start + valencies[k - 1]


# G with l in 4..7 and H with l in 5..8 at n = 2 and 3: 66 of the 160 lie in
# the branch domain, l_0 - s >= 4 and l_k - s >= 5 below the root
@pytest.mark.parametrize("which, low", [("G", 4), ("H", 5)])
def test_branch_certifies_exactly_the_domain_of_the_sweep(which, low):
    shift = GROUPS[which][2]
    certified = 0
    for n in (2, 3):
        for valencies in itertools.product(range(low, low + 4), repeat=n):
            portraits = _on_subtree(spinal_group_portraits(TreeSequence(valencies), n, which),
                                    which)
            domain = valencies[0] - shift >= 4 and all(l - shift >= 5 for l in valencies[1:])
            assert _branch_certifies(portraits, n) == domain, valencies
            certified += domain
    assert certified == {"G": 48, "H": 18}[which]


def test_level_one_is_certified_by_the_root_pair_alone(monkeypatch):
    import spinaldim.wreath as wreath

    built = []

    def counted(*args, **kwargs):
        built.append(args[0])
        return StabilizerChain(*args, **kwargs)

    monkeypatch.setattr(wreath, "StabilizerChain", counted)
    for which, valencies in [("G", range(4, 13)), ("H", range(6, 15))]:
        for l in valencies:
            _pair_is_alternating.cache_clear()
            built.clear()
            r = verify_level_action(TreeSequence((l, 5)), 1, which, seed=7)
            assert (r.certificate, r.measured, r.match) == ("branch", r.expected, True), l
            # one chain, the root pair's, of degree l - s
            degree = l - GROUPS[which][2]
            assert [[g.degree for g in gens] for gens in built] == [[degree, degree]], l
    # H at l_0 = 5 has the root section A_3, below the domain's l_0 - s >= 4
    r = verify_level_action(TreeSequence((5,)), 1, "H")
    assert (r.certificate, r.measured, r.match) == ("order-bound", 3, True)


def test_branch_reaches_past_the_degree_cap():
    seq = TreeSequence((5,) * 6)
    start = time.perf_counter()
    r = verify_level_action(seq, 6, "G", degree_cap=seq.level_size(6))
    assert time.perf_counter() - start < 0.5
    assert r.degree == 15_625 and r.certificate == "branch" and r.match


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
