"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them
on success; failures show them regardless).  Every expected value is
either asserted exactly or recomputed here by an independent oracle.
"""

import io
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import mpmath

from spinaldim import (
    BudgetExceeded,
    StabilizerChain,
    TreeSequence,
    alt_generators,
    chain_rule_table,
    dimension_report,
    denominator_witness,
    embedded_alt_generators,
    partial_dimension,
    rigid_product_dimension,
    spectrum_sample,
    synthesize,
    verify_level_action,
)
from spinaldim.cli import main as cli_main


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name} failed: {detail}"


def test_a1_generator_orders():
    start = time.perf_counter()
    for k in range(5, 41):
        # even generators bound the order by k!/2; generators that are also
        # fixing k-1 and k bound it by (k-2)!/2, so a chain reaching the
        # bound from group elements proves the order
        tau, sigma = alt_generators(k)
        assert tau.is_even() and sigma.is_even(), f"odd top generator at k={k}"
        top = StabilizerChain([tau, sigma], order_bound=math.factorial(k) // 2).order()
        assert top == math.factorial(k) // 2, f"top order wrong at k={k}"
        kappa, rho = embedded_alt_generators(k)
        assert all(
            g.is_even() and g(k - 1) == k - 1 and g(k) == k for g in (kappa, rho)
        ), f"embedded generator is odd or moves a reserved point at k={k}"
        chain = StabilizerChain([kappa, rho], order_bound=math.factorial(k - 2) // 2)
        assert chain.order() == math.factorial(k - 2) // 2, f"embedded order wrong at k={k}"
        assert all(
            g(k - 1) == k - 1 and g(k) == k for g in chain.strong_generators()
        ), f"strong generator moves a reserved point at k={k}"
    elapsed = time.perf_counter() - start
    report("A1", elapsed < 5.0, f"orders k!/2 and (k-2)!/2 for k=5..40 in {elapsed:.2f}s")


def test_a2_wreath_actions_at_desk_scale():
    start = time.perf_counter()
    seq2 = TreeSequence((5, 5))
    g2 = verify_level_action(seq2, 2, "G")
    assert g2.expected == 60 ** 6 == 46656000000
    assert g2.match
    h2 = verify_level_action(seq2, 2, "H")
    assert h2.expected == 3 ** 4 == 81
    assert h2.match
    seq3 = TreeSequence((5, 5, 5))
    expected3 = (math.factorial(5) // 2) ** (1 + 5 + 25)
    g3 = verify_level_action(seq3, 3, "G")
    assert g3.expected == expected3 == 60 ** 31
    assert g3.match
    elapsed = time.perf_counter() - start
    report(
        "A2",
        elapsed < 60.0,
        f"level actions match 60^6, 3^4 and 60^31 exactly in {elapsed:.2f}s",
    )


def test_a3_synthesis_sandwich_and_decay_64_terms():
    """64 minimal-strategy terms for four targets, exact rationals throughout.

    The minimal choice pins l_i just above 2 P_{i-1}/(P_{i-1} - alpha), so
    the gap shrinks by roughly 1/l_i per step and the entry digit counts
    double: reaching i = 63 would need integers of about 2**58 decimal
    digits for every one of these targets, beyond any memory.  The run is
    attempted as specified and refused by the synthesizer's digit budget.
    """
    start = time.perf_counter()
    targets = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)]
    failures = []
    for alpha in targets:
        try:
            trace = synthesize(alpha, 64)
        except BudgetExceeded as exc:
            failures.append(f"alpha={alpha}: {exc}")
            continue
        prev = Fraction(1)
        for step in trace.steps:
            assert alpha < step.p < prev
            assert step.p - alpha <= Fraction(6, 7) * (prev - alpha)
            prev = step.p
        assert prev - alpha < Fraction(6, 7) ** 63 * (1 - alpha)
        assert prev - alpha < Fraction(1, 10_000)
    elapsed = time.perf_counter() - start
    report(
        "A3",
        not failures and elapsed < 5.0,
        f"64-term minimal synthesis for 4 targets in {elapsed:.2f}s"
        + (f"; refused: {failures}" if failures else ""),
    )


def test_a3_sandwich_and_decay_at_feasible_horizon():
    """The same exact-rational invariants, at the horizon the arithmetic allows."""
    start = time.perf_counter()
    for alpha in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
        trace = synthesize(alpha, 16)
        prev = Fraction(1)
        for step in trace.steps:
            assert alpha < step.p < prev
            assert step.p - alpha <= Fraction(6, 7) * (prev - alpha)
            prev = step.p
        assert prev - alpha < Fraction(6, 7) ** 15 * (1 - alpha)
    elapsed = time.perf_counter() - start
    report("A3-feasible", True, f"sandwich and 6/7 decay, 16 terms, 4 targets, {elapsed:.2f}s")


def _oracle_minimal_synthesis(alpha: Fraction, terms: int):
    """Independent synthesizer: brute-scan each window from l = 5 upward."""
    seq, products = [], []
    p = Fraction(1)
    for _ in range(terms):
        t = alpha / p
        l = 5
        while not t < Fraction(l - 2, l):
            l += 1
        assert Fraction(l - 2, l) < Fraction(6 + t, 7)
        seq.append(l)
        p *= Fraction(l - 2, l)
        products.append(p)
    return seq, products


def test_a4_golden_synthesis():
    trace = synthesize(Fraction(1, 2), 3)
    got = ([s.l for s in trace.steps], [s.p for s in trace.steps])
    oracle = _oracle_minimal_synthesis(Fraction(1, 2), 3)
    assert got == oracle
    assert got[0] == [5, 13, 133]
    assert got[1] == [Fraction(3, 5), Fraction(33, 65), Fraction(4323, 8645)]
    report("A4", True, "alpha=1/2 minimal trace is (5,13,133) with exact products")


def test_a5_envelope_sandwich():
    start = time.perf_counter()
    seq = synthesize(Fraction(1, 2), 12).sequence()
    tol = mpmath.mpf(2) ** -56
    for n in range(1, 13):
        row = partial_dimension(seq, n, 128)
        assert row.lower <= row.ratio + tol, f"lower bound fails at n={n}"
        assert row.ratio <= row.upper + tol, f"upper bound fails at n={n}"
        assert row.t2 <= row.t1 + tol, f"T2 > T1 at n={n}"
        assert row.t1 <= mpmath.mpf(8) / seq[n - 1] + tol, f"T1 > 8/l at n={n}"
    elapsed = time.perf_counter() - start
    report("A5", elapsed < 10.0, f"two-sided envelopes hold for n=1..12 in {elapsed:.2f}s")


def test_a6_dimension_trend():
    start = time.perf_counter()
    seq = synthesize(Fraction(1, 2), 12).sequence()
    gaps = {}
    for n in (4, 12):
        row = partial_dimension(seq, n, 128)
        alpha_n = mpmath.mpf(row.alpha.numerator) / row.alpha.denominator
        gaps[n] = abs(row.d - alpha_n)
    assert gaps[12] < gaps[4]
    const = TreeSequence((5,) * 40)
    rows = dimension_report(const, 40, 128).rows
    ds = [r.d for r in rows]
    assert all(a > b for a, b in zip(ds, ds[1:])), "d_n not strictly decreasing"
    assert ds[39] < 0.02
    elapsed = time.perf_counter() - start
    report(
        "A6",
        elapsed < 10.0,
        f"|d_n - a_n| shrinks 4->12 and constant-5 d_40={float(ds[39]):.2e} < 0.02 "
        f"in {elapsed:.2f}s",
    )


def test_a7_chain_rule():
    g = TreeSequence((9,) * 10)
    h = TreeSequence((7,) * 10)
    k = TreeSequence((5,) * 10)
    rows = chain_rule_table(g, h, k, 10, precision_bits=192)
    worst = max(row.abs_err for row in rows)
    assert worst < mpmath.mpf(2) ** -100
    report("A7", True, f"telescoping identity to 2^-100, worst error {mpmath.nstr(worst, 3)}")


def test_a8_rational_spectrum_witnesses():
    seq = TreeSequence((5, 13, 133))
    assert rigid_product_dimension(seq, 1, 2) == Fraction(2, 5)
    res = denominator_witness(Fraction(2, 33), seq, 3)
    assert res.status == "yes" and res.witness == (0, 1)
    assert denominator_witness(Fraction(1, 7), seq, 3).status == "no_within_horizon"
    sample = spectrum_sample(Fraction(1, 2), seq, 5, 3)
    l_part = {e.text: e for e in sample.entries if e.provenance == "L"}
    assert "1/3" in l_part and "2/3" in l_part
    for entry in sample.entries:
        if entry.provenance != "L":
            continue
        prod = math.prod(seq[j] - 2 for j in entry.witness)
        assert entry.value * prod == int(entry.value * prod), f"witness fails for {entry.text}"
        if entry.realization is not None:
            n, kk = entry.realization
            assert rigid_product_dimension(seq, n, kk) == entry.value
    report("A8", True, "rigid 2/5, witness {0,1}, 1/7 horizon-refused, spectrum re-validated")


def _capture_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_a9_determinism():
    start = time.perf_counter()
    runs = [
        ["verify", "--seq", "5,5", "--level", "2", "--group", "G", "--seed", "11"],
        ["verify", "--seq", "5,5", "--level", "2", "--group", "H", "--seed", "11"],
        ["dim", "--alpha", "0.5", "--terms", "8", "--levels", "8"],
    ]
    for argv in runs:
        first = _capture_cli(argv)
        second = _capture_cli(argv)
        assert first == second, f"outputs differ for {argv}"
        assert first[0] == 0
    elapsed = time.perf_counter() - start
    report("A9", elapsed < 60.0, f"repeated verify/dim runs byte-identical in {elapsed:.2f}s")
