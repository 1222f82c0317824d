import decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp,
    from_rational,
    mpf_mul,
    round_ceiling,
    round_floor,
    round_nearest,
    to_str,
)

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
from spinaldim.dimension import _MAX_PRECISION, _decimal_text, _quotient
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
    g = TreeSequence((9,) * 4)
    over = _MAX_PRECISION + 1
    message = "^precision 4097 above the 4096-bit ceiling$"
    for call in (lambda: partial_dimension(CONST5, 1, over),
                 lambda: dimension_report(CONST5, 3, over),
                 lambda: chain_rule_table(g, 2, over),
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


@given(st.lists(st.integers(5, 10**6), min_size=1, max_size=3), st.integers(64, 4096))
@example([5, 5], 64)
@example([6, 5], 128)
@example([399, 5], 256)
def test_first_lower_bound_is_the_first_ratio_bit_for_bit(valencies, precision):
    # F is the exact sum of the split E + S_l + S_l1, so lower_1 = a_0 E/F = E/F = ratio_1
    row = partial_dimension(TreeSequence(valencies), 1, precision)
    assert row.lower._mpf_ == row.ratio._mpf_


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
    for seq in (synthesize(Fraction(1, 3), 6).sequence(), TreeSequence((12,) * 200)):
        want = Fraction(1)
        for n, l in enumerate(seq, start=1):
            want *= Fraction(l - 2, l)
            assert partial_dimension(seq, n).alpha == alpha_target(seq, n) == want


@given(st.lists(st.integers(5, 10**6), min_size=1, max_size=12), st.integers(64, 1024),
       st.data())
def test_alpha_and_lower_read_off_the_level_sizes(valencies, precision, data):
    # alpha_n = m'_n/m_n, and lower's a = m'_{n-1}/m_{n-1} rounds like the reduced alpha_{n-1}
    seq = TreeSequence(valencies)
    n = data.draw(st.integers(1, len(seq)))
    alphas = [Fraction(1)]
    for l in valencies:
        alphas.append(alphas[-1] * Fraction(l - 2, l))
    row = partial_dimension(seq, n, precision)
    assert row.alpha == alpha_target(seq, n) == alphas[n]
    wp = precision + _GUARD_BITS
    sums = log_order_sums(seq.valencies, precision)
    a = _quotient(alphas[n - 1].numerator, alphas[n - 1].denominator, wp)
    lower = mpf_mul(a, _quotient(sums.split_sub[n], sums.fact[n], wp), wp, round_nearest)
    assert row.lower._mpf_ == lower


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
    rows = chain_rule_table(TreeSequence((9,) * 10), 10, precision_bits=192)
    for row in rows:
        assert row.abs_err < mpmath.mpf(2) ** -100
        assert 0 < row.q_kg < 1
        assert 0 < row.q_hg < 1
        assert 0 < row.q_kh < 1


@pytest.mark.parametrize("valencies, ok_level, bad", [
    ((9, 9, 6, 9), 2, 4),  # H's valency 4 at level 3
    ((7, 5, 9), 1, 3),
    ((4, 9), 0, 4),  # G's own valency, refused before H is built
])
def test_chain_rule_refuses_a_g_valency_below_seven(valencies, ok_level, bad):
    # H runs over l - 2 and K over l - 4, so H's side needs l - 2 >= 5
    seq = TreeSequence(valencies)
    if ok_level:
        assert len(chain_rule_table(seq, ok_level)) == ok_level
    message = rf"^valency {bad} < 5; the shifted side needs l - 2 >= 3$"
    with pytest.raises(ValueError, match=message):
        chain_rule_table(seq, len(seq))


@pytest.mark.parametrize("n_max", [0, -1, 5])
def test_chain_rule_refuses_a_level_outside_the_sequence(n_max):
    with pytest.raises(ValueError, match=rf"^n_max {n_max} outside 1\.\.4$"):
        chain_rule_table(TreeSequence((9,) * 4), n_max)


def test_chain_rule_tower_evaluates_each_log_once(monkeypatch):
    # G's pass evaluates ln (l-2)! and H's ln (l-4)!; K's log order is H's order_sub
    calls = []
    real = wreath.lnfact

    def lnfact(n, precision_bits=128):
        calls.append(n)
        return real(n, precision_bits)

    monkeypatch.setattr(wreath, "lnfact", lnfact)
    for valencies, want in (((9,) * 10, [7, 5]), ((9, 13, 9, 17, 13), [7, 11, 15, 5, 9, 13])):
        log_order_sums.cache_clear()
        calls.clear()
        chain_rule_table(TreeSequence(valencies), len(valencies), 192)
        assert calls == want


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
    g = TreeSequence(tuple(l + 4 for l in seq.valencies))
    assert chain_rule_table(g, 5) == chain_rule_table(g, len(seq))[:5]
    assert rigid_product_partial(seq, 1, 2, 5) == rigid_product_partial(
        TreeSequence(seq.valencies[:5]), 1, 2, 5)

    # no log is evaluated for a valency past level 5: the largest left is g's 13 + 4 - 2
    log_order_sums.cache_clear()
    calls = []
    real = wreath.lnfact

    def lnfact(n, precision_bits=128):
        calls.append(n)
        return real(n, precision_bits)

    monkeypatch.setattr(wreath, "lnfact", lnfact)
    dimension_report(seq, 5)
    chain_rule_table(g, 5)
    rigid_product_partial(seq, 1, 2, 5)
    assert max(calls) == 15

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


def _half_up(x: Fraction, digits: int) -> decimal.Decimal:
    """x to ``digits`` significant digits: decimal rounds an exact quotient once."""
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = digits, decimal.ROUND_HALF_UP
        ctx.Emax, ctx.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def _assert_half_up(x: Fraction | mpmath.mpf, digits: int) -> None:
    text = _decimal_text(x, digits, False)
    exact = Fraction(x.man) * Fraction(2) ** x.exp if isinstance(x, mpmath.mpf) else x
    assert decimal.Decimal(text) == _half_up(exact, digits)
    assert len(text.split("e")[0].replace(".", "").lstrip("0")) == digits


def _mantissas(bits: int):
    return st.integers(1 << bits - 1, (1 << bits) - 1)


_RATIONALS = st.tuples(st.builds(Fraction, st.integers(1, 2**400), st.integers(1, 2**400)),
                       st.integers(1, 60))
# a binary value as a row carries it: mantissas of up to the 4096 + 32 bits of
# the ceiling's working precision, at any exponent, printed to up to the
# floor(4096 log10 2) = 1233 digits that precision carries
_BINARIES = st.tuples(
    st.builds(lambda man, exp: mpmath.mp.make_mpf(from_man_exp(man, exp)),
              st.integers(2, 4128).flatmap(_mantissas), st.integers(-20_000, 20_000)),
    st.integers(1, 1233))
# 0.1234567890125 rounded up to 160 bits: mpmath floors it to 59 bits and then
# to 15 digits before it rounds, and prints 0.123456789012
NEAR_TIE = mpmath.mp.make_mpf(
    from_man_exp(1443458394251076601750342911141604080247190834417, -163))


@given(case=st.one_of(_RATIONALS, _BINARIES))
@example(case=(Fraction(1, 3 << 522_000), 12))  # synth's smallest gaps, near 10**-157000
@example(case=(mpmath.mp.make_mpf(from_man_exp((1 << 4128) - 1, -4128)), 1233))  # carries to 1.0
def test_decimal_text_rounds_the_exact_rational_half_up(case):
    _assert_half_up(*case)


def test_decimal_text_prints_a_binary_near_tie_from_its_exact_value():
    assert to_str(NEAR_TIE._mpf_, 12) == "0.123456789012"
    for strip_zeros in (False, True):
        assert _decimal_text(NEAR_TIE, 12, strip_zeros) == "0.123456789013"


@given(lead=st.integers(1, 10**40), exp10=st.integers(-60, 60))
@example(lead=12, exp10=-3)  # 0.0125 at 2 digits
@example(lead=9999, exp10=0)  # 9999.5 at 4 digits carries to 1.000e+4
def test_decimal_text_takes_every_constructed_tie_up(lead, exp10):
    # (lead + 1/2) 10**exp10 lies halfway between two decimals of lead's digits
    _assert_half_up(Fraction(2 * lead + 1, 2) * Fraction(10) ** exp10, len(str(lead)))


@given(lead=st.integers(1, 10**40), exp10=st.integers(-60, 60), bits=st.integers(2, 4128),
       up=st.booleans())
@example(lead=123456789012, exp10=-12, bits=160, up=True)  # NEAR_TIE
def test_decimal_text_rounds_a_binary_value_beside_a_tie(lead, exp10, bits, up):
    # the nearest value of ``bits`` bits above or below (lead + 1/2) 10**exp10;
    # mpmath's to_str floors one above to 59 bits and can print it rounded down
    tie = Fraction(2 * lead + 1, 2) * Fraction(10) ** exp10
    raw = from_rational(tie.numerator, tie.denominator, bits, round_ceiling if up else round_floor)
    _assert_half_up(mpmath.mp.make_mpf(raw), len(str(lead)))


def test_decimal_text_ties_are_not_taken_to_even():
    assert _decimal_text(Fraction(1, 8), 2, False) == "0.13"
    assert _decimal_text(Fraction(9, 20), 1, False) == "0.5"


@given(m=st.integers(1, 2**20 - 1), exp2=st.integers(-150, 150), digits=st.integers(1, 40))
@example(m=2**20 - 1, exp2=-20, digits=5)  # 0.99999904... carries to 1.0000
@example(m=1999, exp2=-1, digits=3)  # 999.5 carries past the fixed range: 1.00e+3
@example(m=1, exp2=-14, digits=3)  # 6.1e-5 just outside min(-(3 // 3), -5) < e
@example(m=1, exp2=-14, digits=18)  # and inside min(-6, -5) < e at 18 digits
@example(m=123, exp2=0, digits=3)  # 123. with its point and no fraction
def test_decimal_text_lays_out_digits_as_mpmath(m, exp2, digits):
    # m 2**exp2 with m < 2**20 takes at most 20 bits, so mpmath's own floor
    # to digits + 3 is exact and its half-up rounding is the same rule
    x = Fraction(m) * Fraction(2) ** exp2
    value = from_man_exp(m, exp2)
    assert _decimal_text(x, digits, False) == mpmath.nstr(
        mpmath.mpf(value), digits, strip_zeros=False)
    assert _decimal_text(x, digits, True) == to_str(value, digits)


def test_decimal_text_of_zero():
    assert _decimal_text(Fraction(0), 5, False) == _decimal_text(Fraction(0), 5, True) == "0.0"
