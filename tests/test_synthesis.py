import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinaldim import (
    BudgetExceeded,
    SpectrumResult,
    SynthesisTrace,
    TreeSequence,
    denominator_witness,
    rigid_product_dimension,
    spectrum_sample,
    spectrum_svg,
    synthesize,
    window,
)
from spinaldim.synthesis import SpectrumEntry, distinct_prime_factor_counts

SEQ = TreeSequence((5, 13, 133))


def window_by_scan(alpha: Fraction, p_prev: Fraction, limit: int = 2000):
    """Independent oracle: test every candidate l against the raw inequalities."""
    t = alpha / p_prev
    hits = [
        l
        for l in range(5, limit)
        if t < Fraction(l - 2, l) < Fraction(6 + t, 7)
    ]
    return (hits[0], hits[-1]) if hits else None


def test_window_examples():
    assert window(Fraction(1, 2), Fraction(1)) == (5, 27)
    assert window(Fraction(1, 2), Fraction(3, 5)) == (13, 83)
    assert window(Fraction(1, 2), Fraction(33, 65)) == (133, 923)


def test_window_against_scan_oracle():
    for alpha, prev in [
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1, 2), Fraction(3, 5)),
        (Fraction(1, 3), Fraction(9, 25)),
        (Fraction(9, 10), Fraction(49, 50)),
    ]:
        assert window(alpha, prev) == window_by_scan(alpha, prev)


def test_window_validation():
    with pytest.raises(ValueError):
        window(Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        window(Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        window(Fraction(1, 2), Fraction(1, 3))


@given(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(1, 1)),
)
def test_window_nonempty_and_bracketing(alpha, p_prev):
    if not alpha < p_prev <= 1:
        return
    lo, hi = window(alpha, p_prev)
    assert 5 <= lo <= hi
    t = alpha / p_prev
    for l in (lo, hi):
        assert t < Fraction(l - 2, l) < Fraction(6 + t, 7)
    # one below lo and one above hi must both fail (unless clipped at 5)
    if lo > 5:
        assert not t < Fraction(lo - 3, lo - 1) < Fraction(6 + t, 7)
    assert not t < Fraction(hi - 1, hi + 1) < Fraction(6 + t, 7)


def test_golden_synthesis_alpha_half():
    trace = synthesize(Fraction(1, 2), 3)
    assert [s.l for s in trace.steps] == [5, 13, 133]
    assert [s.p for s in trace.steps] == [
        Fraction(3, 5),
        Fraction(33, 65),
        Fraction(4323, 8645),
    ]
    assert trace.sequence().valencies == (5, 13, 133)


def test_geometric_decay_witness():
    trace = synthesize(Fraction(1, 2), 3)
    assert trace.steps[2].gap == Fraction(1, 17290)
    assert trace.steps[2].gap < Fraction(6, 7) ** 2 * Fraction(1, 10)


def test_sandwich_and_decay_all_steps():
    for alpha in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        trace = synthesize(alpha, 14)
        prev = Fraction(1)
        for step in trace.steps:
            assert alpha < step.p < prev
            assert step.p - alpha <= Fraction(6, 7) * (prev - alpha)
            assert step.window_lo <= step.l <= step.window_hi
            assert step.l >= 5
            prev = step.p


def test_degenerate_targets():
    t1 = synthesize(Fraction(1), 5)
    assert t1.degenerate == "H=G" and t1.steps == []
    t0 = synthesize(Fraction(0), 5)
    assert t0.degenerate == "H=1" and t0.steps == []
    with pytest.raises(ValueError):
        t1.sequence()
    assert SynthesisTrace(Fraction(1, 2), "minimal", []).degenerate is None


def test_synthesize_validation():
    with pytest.raises(ValueError):
        synthesize(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        synthesize(Fraction(3, 2), 3)
    with pytest.raises(ValueError, match="unknown strategy 'fancy'"):
        synthesize(Fraction(1, 2), 3, "fancy")


def test_minimal_entries_blow_up_and_are_refused():
    # entry digit counts roughly double per step, so deep minimal runs are refused
    with pytest.raises(BudgetExceeded):
        synthesize(Fraction(1, 2), 64)
    trace = synthesize(Fraction(1, 2), 16)
    digits = [len(str(s.l)) for s in trace.steps]
    assert digits[-1] > 10000
    assert all(b >= 2 * a - 2 for a, b in zip(digits[8:], digits[9:]))


def count_distinct_primes(n: int) -> int:
    count = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            count += 1
            while n % d == 0:
                n //= d
        d += 1
    return count + (1 if n > 1 else 0)


def test_prime_rich_first_step():
    trace = synthesize(Fraction(1, 2), 1, "prime-rich")
    l = trace.steps[0].l
    lo, hi = window(Fraction(1, 2), Fraction(1))
    assert lo <= l <= hi
    best = max(count_distinct_primes(x - 2) for x in range(lo, hi + 1))
    assert count_distinct_primes(l - 2) == best
    ties = [x for x in range(lo, hi + 1) if count_distinct_primes(x - 2) == best]
    assert l == min(ties)


@pytest.mark.parametrize("lo, hi", [
    (2, 2),
    (2, 3000),
    (4, 4),
    (49, 49),
    # dense in prime powers: 2^10, 3^6 * ..., 5^4 * ..., 7^3 * 3, 11^3, 2^11, 3^7
    (1000, 2200),
    (2**16 - 200, 2**16 + 200),
    (3**9 - 100, 3**9 + 100),
    # 30031 = 59 * 509 has no prime factor below 59
    (30031, 32031),
])
def test_distinct_prime_factor_counts_by_trial_division(lo, hi):
    counts = distinct_prime_factor_counts(lo, hi)
    assert counts.tolist() == [count_distinct_primes(n) for n in range(lo, hi + 1)]


def test_prime_rich_draws_from_same_window_as_minimal():
    # the admissible window is a function of (alpha, running product) alone,
    # regardless of strategy; after step 0 the traces diverge, so the claim
    # is per step, at each trace's own running product
    alpha = Fraction(2, 7)
    minimal = synthesize(alpha, 4)
    rich = synthesize(alpha, 4, "prime-rich")
    assert (minimal.steps[0].window_lo, minimal.steps[0].window_hi) == (
        rich.steps[0].window_lo,
        rich.steps[0].window_hi,
    )
    for trace in (minimal, rich):
        prev = Fraction(1)
        for step in trace.steps:
            assert (step.window_lo, step.window_hi) == window(alpha, prev)
            assert step.window_lo <= step.l <= step.window_hi
            prev = step.p
    for step in minimal.steps:
        assert step.l == step.window_lo


def test_entry_digit_refusal_counts_digits_in_required():
    # required is the digit estimate the message prints and the budget
    # compares, the ceiling of 0.302 x the entry's bits, not the bits
    with pytest.raises(BudgetExceeded) as err:
        synthesize(Fraction(1, 3), 64)
    assert str(err.value) == "entry 19 needs about 187119 digits (budget 100000)"
    assert (err.value.required, err.value.limit) == (187119, 100000)
    assert err.value.required > err.value.limit


def test_prime_rich_scan_cap(monkeypatch):
    import spinaldim.synthesis as synthesis

    # the first window for 1/2 is 5..27, 23 candidates
    monkeypatch.setattr(synthesis, "_SCAN_CAP", 10)
    with pytest.raises(BudgetExceeded) as err:
        synthesize(Fraction(1, 2), 1, "prime-rich")
    assert str(err.value) == "prime-rich scan over 23 candidates exceeds cap 10"
    assert (err.value.required, err.value.limit) == (23, 10)


def test_denominator_witness_examples():
    assert denominator_witness(Fraction(1), SEQ, 3).witness == ()
    res = denominator_witness(Fraction(2, 33), SEQ, 3)
    assert res.status == "yes" and res.witness == (0, 1)
    res = denominator_witness(Fraction(1, 7), SEQ, 3)
    assert res.status == "no_within_horizon" and res.witness is None
    with pytest.raises(ValueError):
        denominator_witness(Fraction(3, 2), SEQ, 3)
    with pytest.raises(ValueError):
        denominator_witness(Fraction(1, 2), SEQ, 4)


def test_witness_revalidates():
    for q in (Fraction(2, 33), Fraction(1, 3), Fraction(5, 11), Fraction(1, 33)):
        res = denominator_witness(q, SEQ, 3)
        if res.found:
            prod = math.prod(SEQ[j] - 2 for j in res.witness)
            assert q * prod == int(q * prod)
            assert len(set(res.witness)) == len(res.witness)


def test_witness_monotone_in_horizon():
    q = Fraction(2, 33)
    for j_small in range(4):
        small = denominator_witness(q, TreeSequence((5, 13, 133, 17293)), j_small)
        if small.found:
            for j_big in range(j_small, 5):
                big = denominator_witness(
                    q, TreeSequence((5, 13, 133, 17293)), j_big
                )
                assert big.found
            break


def test_spectrum_sample_contents():
    res = spectrum_sample(Fraction(1, 2), SEQ, 5, 3)
    l_vals = {e.text for e in res.entries if e.provenance == "L"}
    assert l_vals == {"0", "1/3", "2/3", "1"}
    la_vals = {e.text for e in res.entries if e.provenance == "L_alpha"}
    assert la_vals == {"0*alpha", "1/3*alpha", "2/3*alpha", "1*alpha"}
    la_by_text = {e.text: e for e in res.entries if e.provenance == "L_alpha"}
    assert la_by_text["1/3*alpha"].value == Fraction(1, 6)
    # no denominator-7 entry survives
    assert not any(e.value.denominator == 7 for e in res.entries if e.provenance == "L")


def test_spectrum_entries_sorted_and_in_unit_interval():
    res = spectrum_sample(Fraction(1, 2), SEQ, 5, 3)
    values = [e.value for e in res.entries]
    assert values == sorted(values)
    assert all(0 <= v <= 1 for v in values)


def test_spectrum_witnesses_revalidate():
    res = spectrum_sample(Fraction(1, 2), SEQ, 5, 3)
    for e in res.entries:
        if e.provenance == "L":
            prod = math.prod(SEQ[j] - 2 for j in e.witness)
            assert e.value * prod == int(e.value * prod)
            if e.realization is not None:
                n, k = e.realization
                assert rigid_product_dimension(SEQ, n, k) == e.value


def test_spectrum_max_denominator_one():
    res = spectrum_sample(Fraction(1, 2), SEQ, 1, 3)
    assert {e.text for e in res.entries if e.provenance == "L"} == {"0", "1"}


def test_spectrum_refuses_a_horizon_outside_the_sequence():
    for horizon in (-1, len(SEQ) + 1):
        with pytest.raises(ValueError, match=f"horizon must lie in 0..{len(SEQ)}"):
            spectrum_sample(Fraction(1, 2), SEQ, 5, horizon)


def test_spectrum_refuses_work_above_its_limit(monkeypatch):
    import spinaldim.synthesis as synthesis

    # the work is the denominators examined plus the entries built
    work = 5 + len(spectrum_sample(Fraction(1, 2), SEQ, 5, 3).entries)
    monkeypatch.setattr(synthesis, "_SPECTRUM_WORK_LIMIT", work)
    assert len(spectrum_sample(Fraction(1, 2), SEQ, 5, 3).entries) == work - 5
    monkeypatch.setattr(synthesis, "_SPECTRUM_WORK_LIMIT", work - 1)
    with pytest.raises(BudgetExceeded) as err:
        spectrum_sample(Fraction(1, 2), SEQ, 5, 3)
    assert (err.value.required, err.value.limit) == (work, work - 1)
    # checked as the loop runs, long before a billion denominators are examined
    monkeypatch.setattr(synthesis, "_SPECTRUM_WORK_LIMIT", 1000)
    with pytest.raises(BudgetExceeded, match="spectrum sample needs work above 1000"):
        spectrum_sample(Fraction(1, 2), SEQ, 10 ** 9, 3)


def test_spectrum_charges_realization_words_beyond_the_first(monkeypatch):
    import spinaldim.synthesis as synthesis

    # m_1 = L + 2 fits one 64-bit word, m_2 = (L + 2) L needs two, so each
    # realization at level 2 adds one unit to the work
    big = math.lcm(*range(1, 11)) ** 5
    seq = TreeSequence((big + 2, big))
    entries = spectrum_sample(Fraction(1, 2), seq, 10, 1).entries
    level_two = sum(1 for e in entries if e.realization and e.realization[0] == 2)
    assert level_two > 0
    work = 10 + len(entries) + level_two
    monkeypatch.setattr(synthesis, "_SPECTRUM_WORK_LIMIT", work)
    assert spectrum_sample(Fraction(1, 2), seq, 10, 1).entries == entries
    monkeypatch.setattr(synthesis, "_SPECTRUM_WORK_LIMIT", work - 1)
    with pytest.raises(BudgetExceeded) as err:
        spectrum_sample(Fraction(1, 2), seq, 10, 1)
    assert (err.value.required, err.value.limit) == (work, work - 1)


def test_spectrum_realization_witness():
    res = spectrum_sample(Fraction(2, 5), TreeSequence((5, 13, 133)), 5, 3)
    by_text = {e.text: e for e in res.entries if e.provenance == "L"}
    assert by_text["1"].realization == (1, 5)


def test_spectrum_svg_deterministic_and_self_contained():
    res = spectrum_sample(Fraction(1, 2), SEQ, 5, 3)
    svg1 = spectrum_svg(res)
    svg2 = spectrum_svg(res)
    assert svg1 == svg2
    assert svg1.startswith("<svg xmlns=")
    assert svg1.endswith("</svg>")
    assert svg1.count("<path") == len([e for e in res.entries if e.provenance == "L_alpha"])


def spectrum_by_fraction(alpha, seq, max_den, horizon):
    """Reference: witness and realization recomputed for every a/b, then deduplicated."""
    entries = []
    for b in range(1, max_den + 1):
        for a in range(0, b + 1):
            if math.gcd(a, b) != 1:
                continue
            q = Fraction(a, b)
            res = denominator_witness(q, seq, horizon)
            if not res.found:
                continue
            realization = None
            if q != 0:
                for n in range(1, len(seq) + 1):
                    k = q * seq.level_size(n)
                    if k.denominator == 1:
                        realization = (n, int(k))
                        break
            entries.append(SpectrumEntry(q, str(q), "L", res.witness, realization))
            entries.append(SpectrumEntry(q * alpha, f"{q}*alpha", "L_alpha", res.witness, None))
    entries.sort(key=lambda e: (e.value, e.provenance, e.text))
    deduped = []
    for e in entries:
        if deduped and (deduped[-1].value, deduped[-1].provenance, deduped[-1].text) == (
            e.value, e.provenance, e.text
        ):
            continue
        deduped.append(e)
    return SpectrumResult(alpha, seq.valencies, max_den, horizon, deduped)


@pytest.mark.parametrize("valencies", [(5, 13, 133), (5, 5, 5), (7, 9, 11, 13), (8, 32, 32)])
@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 10)])
def test_spectrum_sample_matches_per_fraction_reference(valencies, alpha):
    seq = TreeSequence(valencies)
    for horizon in range(len(seq) + 1):
        for max_den in (1, 12, 45):
            assert spectrum_sample(alpha, seq, max_den, horizon) == spectrum_by_fraction(
                alpha, seq, max_den, horizon
            )
