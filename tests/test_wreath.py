import math

import mpmath
import pytest

from spinaldim import (
    BudgetExceeded,
    DegreeCapExceeded,
    TreeSequence,
    lnfact,
    stirling_envelope,
    verify_level_action,
    wreath_quotient_order,
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
    assert wreath_quotient_order(TreeSequence((5, 5)), 1).exact == 60
    assert wreath_quotient_order(TreeSequence((5, 5)), 2).exact == 46656000000
    assert wreath_quotient_order(TreeSequence((3, 3)), 2).exact == 81


def test_wreath_order_closed_form_oracle():
    # independent recomputation straight from the level sizes
    seq = TreeSequence((5, 7, 9))
    expected = 1
    for i in range(3):
        expected *= (math.factorial(seq[i]) // 2) ** seq.level_size(i)
    assert wreath_quotient_order(seq, 3).exact == expected


def test_wreath_order_monotone_in_level():
    seq = TreeSequence((5, 7, 9))
    orders = [wreath_quotient_order(seq, n).exact for n in range(1, 4)]
    assert orders[0] < orders[1] < orders[2]


def test_wreath_order_log_agrees_with_exact():
    for seq, n in ((TreeSequence((5, 5)), 2), (TreeSequence((5, 13, 133)), 3)):
        q = wreath_quotient_order(seq, n, precision_bits=128)
        with mpmath.workprec(200):
            assert abs(mpmath.log(mpmath.mpf(q.exact)) - q.log_value) < mpmath.mpf(2) ** -120


def test_wreath_order_budget_refusal():
    seq = TreeSequence((5, 13, 133, 17293))
    with pytest.raises(BudgetExceeded):
        wreath_quotient_order(seq, 4, digit_budget=1000)
    q = wreath_quotient_order(seq, 4, variant="log")
    assert q.exact is None
    assert q.log_value > 0


def test_wreath_order_range_checks():
    with pytest.raises(ValueError):
        wreath_quotient_order(TreeSequence((5, 5)), 3)
    with pytest.raises(ValueError):
        wreath_quotient_order(TreeSequence((5, 5)), 1, variant="nope")


def test_stirling_envelope_examples():
    lo, hi = stirling_envelope(5, 128)
    ln120 = lnfact(5, 128)
    assert float(lo) == pytest.approx(4.047, abs=5e-4)
    assert float(hi) == pytest.approx(5.751, abs=5e-4)
    assert lo < ln120 < hi

    lo1, hi1 = stirling_envelope(1, 128)
    assert lo1 == 0 and lnfact(1, 128) == 0 and hi1 > 0

    lo100, hi100 = stirling_envelope(100, 128)
    ln100 = lnfact(100, 128)
    assert float(ln100) == pytest.approx(363.739, abs=5e-3)
    assert lo100 <= ln100 <= hi100


def test_stirling_envelope_strictness_sweep():
    for n in range(1, 10001):
        lo, hi = stirling_envelope(n, 128)
        val = lnfact(n, 128)
        assert lo <= val <= hi


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


def test_report_serialization():
    r = verify_level_action(TreeSequence((5, 5)), 1, "G", seed=3)
    doc = r.to_dict()
    assert doc["expected"] == doc["measured"] == "60"
    assert doc["match"] is True
    assert doc["seed"] == 3
    assert doc["elapsed_ms"] is None
    assert r.elapsed_ms > 0
    assert r.to_dict(include_timing=True)["elapsed_ms"] > 0
