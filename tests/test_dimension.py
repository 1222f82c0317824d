from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import from_rational, round_nearest

from spinaldim import (
    BudgetExceeded,
    TreeSequence,
    alpha_target,
    chain_rule_table,
    dimension_report,
    partial_dimension,
    rigid_product_dimension,
    rigid_product_partial,
    synthesize,
    wreath,
)
from spinaldim.dimension import _MAX_PRECISION, _quotient
from spinaldim.wreath import _GUARD_BITS, log_order_sums

CONST5 = TreeSequence((5,) * 40)


def mpf_of(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def assert_envelope_holds(row, l: int, bits: int = 128) -> None:
    """The module's four envelope theorems on one row, each to a relative 2^-bits.

    l is the row's top valency l_{n-1}, whose 8/l caps T1.
    """
    with mpmath.workprec(4 * bits):
        slack = mpmath.mpf(2) ** -bits
        for name, small, big in (("lower <= ratio", row.lower, row.ratio),
                                 ("ratio <= upper", row.ratio, row.upper),
                                 ("T2 <= T1", row.t2, row.t1),
                                 ("T1 <= 8/l", row.t1, mpmath.mpf(8) / l)):
            assert small <= big + abs(big) * slack, (row.n, name)


def test_d1_and_d2_against_direct_logs():
    with mpmath.workprec(200):
        d1_oracle = mpmath.log(3) / mpmath.log(60)
        d2_oracle = (4 * mpmath.log(3)) / (6 * mpmath.log(60))
    r1 = partial_dimension(CONST5, 1)
    r2 = partial_dimension(CONST5, 2)
    assert abs(r1.d - d1_oracle) < mpmath.mpf(2) ** -100
    assert abs(r2.d - d2_oracle) < mpmath.mpf(2) ** -100
    assert float(r1.d) == pytest.approx(0.2683243366, abs=1e-9)
    assert float(r2.d) == pytest.approx(0.1788828911, abs=1e-9)


def test_level_zero_is_rejected():
    with pytest.raises(ValueError):
        partial_dimension(CONST5, 0)


def test_precision_floor():
    with pytest.raises(ValueError):
        partial_dimension(CONST5, 1, precision_bits=32)


def test_precision_ceiling_refuses_before_any_work():
    g, h, k = (TreeSequence((l,) * 4) for l in (9, 7, 5))
    over = _MAX_PRECISION + 1
    message = "^precision 4097 above the 4096-bit ceiling$"
    for call in (lambda: partial_dimension(CONST5, 1, over),
                 lambda: dimension_report(CONST5, 3, over),
                 lambda: chain_rule_table(g, h, k, 2, over),
                 lambda: rigid_product_partial(CONST5, 1, 2, 3, over)):
        with pytest.raises(BudgetExceeded, match=message) as err:
            call()
        assert (err.value.required, err.value.limit) == (4097, 4096)
    assert partial_dimension(CONST5, 1, _MAX_PRECISION).n == 1


def test_alpha_target_values():
    seq = TreeSequence((5, 13, 133))
    assert alpha_target(seq, 1) == Fraction(3, 5)
    assert alpha_target(seq, 2) == Fraction(33, 65)
    assert alpha_target(seq, 3) == Fraction(4323, 8645)


def test_envelope_t_checks_constant_five():
    for n in (1, 2, 5, 10):
        assert_envelope_holds(partial_dimension(CONST5, n), 5)


def test_envelope_sandwich_synthesized():
    seq = synthesize(Fraction(1, 2), 12).sequence()
    for n in range(1, 13):
        row = partial_dimension(seq, n)
        tol = mpmath.mpf(2) ** -56
        assert row.lower <= row.ratio + tol
        assert row.ratio <= row.upper + tol
        assert row.t2 <= row.t1 + tol
        assert row.t1 <= mpmath.mpf(8) / seq[n - 1] + tol


def test_row_alpha_is_exact_product():
    seq = synthesize(Fraction(1, 3), 6).sequence()
    for n in range(1, 7):
        assert partial_dimension(seq, n).alpha == alpha_target(seq, n)


def test_constant_sequences_decrease_to_zero():
    for l in (5, 7, 9):
        seq = TreeSequence((l,) * 40)
        report = dimension_report(seq, 40)
        ds = [row.d for row in report.rows]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        assert ds[-1] < 0.02
        assert [row.n for row in report.rows] == list(range(1, 41))


def test_constant_five_d40_oracle():
    # d_n = 2 ln 3 (3^n - 1) / (ln 60 (5^n - 1)) for the constant-5 tree
    with mpmath.workprec(300):
        oracle = (2 * mpmath.log(3) * (3 ** 40 - 1)) / (mpmath.log(60) * (5 ** 40 - 1))
    row = partial_dimension(CONST5, 40)
    assert abs(row.d - oracle) < mpmath.mpf(2) ** -100
    assert oracle < 0.02


def test_dimension_trend_synthesized():
    seq = synthesize(Fraction(1, 2), 12).sequence()
    gaps = {}
    for n in (4, 12):
        row = partial_dimension(seq, n)
        gaps[n] = abs(row.d - mpf_of(row.alpha))
    assert gaps[12] < gaps[4]


def test_report_estimates_converged_case():
    seq = synthesize(Fraction(1, 2), 10).sequence()
    report = dimension_report(seq, 10)
    assert report.limsup_estimate - report.liminf_estimate < 1e-12
    assert abs(report.liminf_estimate - mpmath.mpf(0.5)) < 1e-6
    assert report.liminf_estimate <= report.limsup_estimate


@pytest.mark.parametrize("seq, levels", [
    (synthesize(Fraction(1, 2), 12).sequence(), 12),
    (TreeSequence((5,) * 10), 10),
    (TreeSequence((7,) * 10), 10),
    (TreeSequence((27, 27)), 2),
    # the valencies 5..12 of the 200-level constant-tree scans
    *((TreeSequence((l,) * 200), 200) for l in range(5, 13)),
])
def test_report_flags_no_level_whose_sandwich_holds(seq, levels):
    for row in dimension_report(seq, levels).rows:
        assert_envelope_holds(row, seq[row.n - 1])


def test_report_tail_spread_of_drifting_constant_tree():
    # d_n of a constant tree falls toward 0, so the tail n = 7..12 spans d_12..d_7
    report = dimension_report(TreeSequence((5,) * 12), 12)
    assert report.limsup_estimate == report.rows[6].d
    assert report.liminf_estimate == report.rows[11].d
    assert report.limsup_estimate - report.liminf_estimate > 0.01


def test_chain_rule_exact_telescoping():
    g = TreeSequence((9,) * 10)
    h = TreeSequence((7,) * 10)
    k = TreeSequence((5,) * 10)
    rows = chain_rule_table(g, h, k, 10, precision_bits=192)
    for row in rows:
        assert row.abs_err < mpmath.mpf(2) ** -100
        assert 0 < row.q_kg < 1
        assert 0 < row.q_hg < 1
        assert 0 < row.q_kh < 1


def test_chain_rule_nesting_validation():
    g = TreeSequence((9,) * 4)
    h = TreeSequence((7,) * 4)
    with pytest.raises(ValueError):
        chain_rule_table(g, h, TreeSequence((4,) * 4), 4)
    with pytest.raises(ValueError):
        chain_rule_table(g, TreeSequence((6,) * 4), TreeSequence((5,) * 4), 4)


def test_rigid_product_dimension_values():
    seq = TreeSequence((5, 13, 133))
    assert rigid_product_dimension(seq, 1, 2) == Fraction(2, 5)
    assert rigid_product_dimension(seq, 1, 5) == 1
    assert rigid_product_dimension(seq, 2, 65) == 1
    with pytest.raises(ValueError):
        rigid_product_dimension(seq, 1, 6)
    with pytest.raises(ValueError):
        rigid_product_dimension(seq, 1, 0)


def test_rigid_product_partial_formula():
    seq = TreeSequence((5, 13, 133))
    got = rigid_product_partial(seq, 1, 1, 3)
    with mpmath.workprec(200):
        ln2 = mpmath.log(2)
        t13 = mpmath.log(mpmath.factorial(13)) - ln2
        t133 = mpmath.loggamma(134) - ln2
        t5 = mpmath.log(60)
        oracle = (t13 + 13 * t133) / (t5 + 5 * t13 + 65 * t133)
    assert abs(got - oracle) < mpmath.mpf(2) ** -100


def test_rigid_product_partial_monotone_convergence():
    seq = TreeSequence((5, 13, 133, 17293))
    vals = [rigid_product_partial(seq, 1, 1, m) for m in (2, 3, 4)]
    target = mpmath.mpf(1) / 5
    assert vals[0] < vals[1] < vals[2] < target
    gaps = [target - v for v in vals]
    assert gaps[2] < gaps[1] < gaps[0]


def test_rigid_product_partial_range_checks():
    seq = TreeSequence((5, 13, 133))
    with pytest.raises(ValueError):
        rigid_product_partial(seq, 1, 1, 1)
    with pytest.raises(ValueError):
        rigid_product_partial(seq, 1, 1, 4)


def reference_envelope(seq: TreeSequence, n: int, prec: int = 400) -> dict:
    """The envelope quantities from top-down weights w_j = m_j/m_{n-1}.

    This is the normalized form the prefix-sum ratios replace: dividing
    every sum by the top-index exponent keeps the terms near one.
    """
    ls = seq.valencies[:n]
    top = n - 1
    with mpmath.workprec(prec):
        one = mpmath.mpf(1)
        w_sub = [one] * n
        w_full = [one] * n
        for j in range(top - 1, -1, -1):
            w_sub[j] = w_sub[j + 1] / (ls[j] - 2)
            w_full[j] = w_full[j + 1] / ls[j]
        zero = mpmath.mpf(0)
        log_bhat = log_dhat = u_lin = v_lin = e_sub = stirling_top = zero
        for j, l in enumerate(ls):
            lf_sub = mpmath.loggamma(mpmath.mpf(l) - 1)
            log_bhat += w_sub[j] * lf_sub
            log_dhat += w_full[j] * mpmath.loggamma(mpmath.mpf(l) + 1)
            u_lin += w_full[j] * mpmath.log(l)
            v_lin += w_full[j] * mpmath.log(l - 1)
            e_sub += w_full[j] * lf_sub
            stirling_top += one + w_sub[j] * l * (mpmath.log(l) - 1)
        t1 = u_lin / e_sub
        t2 = v_lin / e_sub
        a = mpf_of(alpha_target(seq, top))
        return {
            "ratio": a * log_bhat / log_dhat,
            "lower": a / (1 + t1 + t2),
            "upper": a * stirling_top / log_dhat,
            "t1": t1,
            "t2": t2,
        }


@pytest.fixture(scope="module")
def envelope_sequences():
    return {
        "constant-5 x40": CONST5,
        "minimal 1/2 x12": synthesize(Fraction(1, 2), 12).sequence(),
        "prime-rich 1/10 x22": synthesize(Fraction(1, 10), 22, "prime-rich").sequence(),
    }


def test_envelope_matches_top_down_reference(envelope_sequences):
    # alternate which precision asks first: sums cached under a key that
    # ignored the precision would miss the 256-bit tolerance
    tolerances = {128: mpmath.mpf(2) ** -100, 256: mpmath.mpf(2) ** -200}
    for name, seq in envelope_sequences.items():
        for n in range(1, len(seq) + 1):
            ref = reference_envelope(seq, n)
            for bits in ((128, 256) if n % 2 else (256, 128)):
                row = partial_dimension(seq, n, bits)
                for key, want in ref.items():
                    err = abs(getattr(row, key) - want)
                    assert err < tolerances[bits], (name, n, bits, key)


def test_report_rows_equal_single_level_rows(envelope_sequences):
    mixed = TreeSequence((5, 9, 6, 13, 7, 7, 11, 5, 8, 6) * 6)
    for seq in (*envelope_sequences.values(), mixed):
        rows = dimension_report(seq, len(seq)).rows
        for n, row in enumerate(rows, start=1):
            assert row == partial_dimension(seq, n)


def test_prefix_reports_read_only_the_reported_levels(monkeypatch):
    seq = TreeSequence((5, 9, 6, 13, 7, 1009, 1013))
    full = dimension_report(seq, len(seq))
    for levels in (1, 2, 5):
        report = dimension_report(seq, levels)
        assert report.rows == full.rows[:levels]
        assert report.sequence == seq.valencies[:levels]
    g, h, k = (TreeSequence(tuple(l + s for l in seq.valencies)) for s in (4, 2, 0))
    assert chain_rule_table(g, h, k, 5) == chain_rule_table(g, h, k, len(seq))[:5]
    assert rigid_product_partial(seq, 1, 2, 5) == rigid_product_partial(
        TreeSequence(seq.valencies[:5]), 1, 2, 5)

    # no log is evaluated for a valency past level 5: the largest left is g's 13 + 4
    log_order_sums.cache_clear()
    calls = []
    real = wreath.lnfact

    def lnfact(n, precision_bits=128):
        calls.append(n)
        return real(n, precision_bits)

    monkeypatch.setattr(wreath, "lnfact", lnfact)
    dimension_report(seq, 5)
    chain_rule_table(g, h, k, 5)
    rigid_product_partial(seq, 1, 2, 5)
    assert max(calls) == 17

    # the log-sum budget counts only the reported levels
    huge = TreeSequence((5, 7, 1 << 17_000_000))
    assert len(dimension_report(huge, 2).rows) == 2
    with pytest.raises(BudgetExceeded, match="^log-order sums over 3 levels"):
        dimension_report(huge, 3)


@pytest.mark.parametrize("valencies, ok_level, bad_level, bad", [
    ((5, 4), 1, 2, 4),
    ((7, 9, 4, 6), 2, 4, 4),
    ((6, 3, 4, 9), 1, 4, 3),
])
def test_subgroup_side_refusal_names_the_first_bad_valency(valencies, ok_level, bad_level, bad):
    seq = TreeSequence(valencies)
    assert partial_dimension(seq, ok_level).n == ok_level
    message = rf"^valency {bad} < 5; the shifted side needs l - 2 >= 3$"
    with pytest.raises(ValueError, match=message):
        partial_dimension(seq, bad_level)


def test_report_refusals_keep_their_messages():
    with pytest.raises(ValueError, match="^precision 32 below the 64-bit floor$"):
        dimension_report(CONST5, 5, precision_bits=32)
    seq = TreeSequence((5, 7, 4, 9, 11))
    assert len(dimension_report(seq, 2).rows) == 2
    with pytest.raises(ValueError, match=r"^valency 4 < 5; the shifted side needs l - 2 >= 3$"):
        dimension_report(seq, 5)


@given(valencies=st.lists(st.integers(5, 60), min_size=1, max_size=40),
       bits=st.sampled_from([64, 128, 256]))
def test_rows_match_a_direct_recomputation_at_twice_the_working_precision(valencies, bits):
    seq = TreeSequence(tuple(valencies))
    rows = dimension_report(seq, len(seq), bits).rows
    with mpmath.workprec(2 * (bits + _GUARD_BITS)):
        ln2 = mpmath.log(2)
        fact = fact_sub = split_sub = split_l = split_l1 = stirling = order = order_sub = 0
        m = m_sub = 1
        for n, (l, row) in enumerate(zip(valencies, rows), start=1):
            lf, lf_sub, ln_l = mpmath.loggamma(l + 1), mpmath.loggamma(l - 1), mpmath.log(l)
            fact += m * lf
            fact_sub += m_sub * lf_sub
            split_sub += m * lf_sub
            split_l += m * ln_l
            split_l1 += m * mpmath.log(l - 1)
            stirling += m_sub * l * (ln_l - 1)
            order += m * (lf - ln2)
            order_sub += m_sub * (lf_sub - ln2)
            want = {
                "d": order_sub / order,
                "ratio": fact_sub / fact,
                "t1": split_l / split_sub,
                "t2": split_l1 / split_sub,
                "upper": (n * m_sub + stirling) / fact,
            }
            want["lower"] = mpmath.mpf(m_sub) / m / (1 + want["t1"] + want["t2"])
            slack = mpmath.mpf(2) ** -bits
            for key, value in want.items():
                assert abs(getattr(row, key) - value) <= abs(value) * slack, (n, key)
            assert_envelope_holds(row, l, bits)
            m *= l
            m_sub *= l - 2


def _ints(low: int):
    # small ints, ints with up to 120k trailing zero bits and ints above 10^5 bits
    small = st.integers(low, 2**70)
    return st.one_of(
        small,
        st.builds(lambda m, s: m << s, st.integers(max(low, 1), 2**70), st.integers(0, 120_000)),
        st.builds(lambda m, s, r: (m << s) + r, st.integers(1, 2**70),
                  st.integers(100_000, 120_000), small),
    )


@given(p=st.one_of(st.just(0), _ints(0)),
       q=st.one_of(st.builds(lambda s: 1 << s, st.integers(0, 120_000)), _ints(1)),
       prec=st.integers(2, _MAX_PRECISION + _GUARD_BITS))
@example(p=0, q=1 << 100_000, prec=96)
@example(p=10**40_000 + 1, q=7**40_000, prec=_MAX_PRECISION + _GUARD_BITS)
def test_quotient_is_the_correctly_rounded_rational(p, q, prec):
    # mpmath's from_rational normalizes both ints first and serves as the reference
    assert _quotient(p, q, prec) == from_rational(p, q, prec, round_nearest)
