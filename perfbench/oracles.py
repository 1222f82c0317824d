"""Independent checks of one op's stdout.

Nothing here compares against a stored copy of the program's output and
nothing imports spinaldim: orders come from math.factorial, dimensions
from mpmath.loggamma and closed forms, and the synthesis windows from
exact integer cross-multiplication.  Each check raises CheckFailed.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import mpmath

# outputs print 12 significant digits (--digits default): relative error <= 5e-12
REL_TOL = mpmath.mpf("1e-11")


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(text: str, num: int, den: int, what: str) -> None:
    """The printed decimal ``text`` agrees with num/den to the printed digits."""
    with mpmath.workprec(80):
        exact = mpmath.mpf(num) / den
        printed = mpmath.mpf(text)
        if exact == 0:
            _require(printed == 0, f"{what}: printed {text}, exact 0")
        else:
            _require(abs(printed - exact) <= REL_TOL * abs(exact),
                     f"{what}: printed {text}, exact {mpmath.nstr(exact, 15)}")


def _close_mpf(text: str, exact, what: str) -> None:
    printed = mpmath.mpf(text)
    _require(abs(printed - exact) <= REL_TOL * abs(exact),
             f"{what}: printed {text}, recomputed {mpmath.nstr(exact, 15)}")


def _ratio(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def check_version(out: bytes) -> None:
    _require(re.fullmatch(rb"spinaldim \d+\.\d+\.\d+\n", out) is not None,
             f"version line {out[:80]!r}")


# -- verify ------------------------------------------------------------------


def wreath_order(valencies) -> int:
    """prod_i (l_i!/2)^{m_i}, m_i = prod_{k<i} l_k."""
    order, m = 1, 1
    for l in valencies:
        order *= (math.factorial(l) // 2) ** m
        m *= l
    return order


def check_verify(out: bytes, *, seq, level, group, seed, measured=None) -> None:
    doc = json.loads(out)
    prefix = seq[:level]
    closed = wreath_order([l - 2 for l in prefix] if group == "H" else prefix)
    want = closed if measured is None else measured
    _require(doc["sequence"] == list(seq) and doc["level"] == level
             and doc["group"] == group and doc["seed"] == seed, "echoed configuration")
    _require(doc["degree"] == math.prod(prefix), f"degree {doc['degree']}")
    _require(int(doc["expected"]) == closed, "expected differs from the closed form")
    _require(int(doc["measured"]) == want, f"measured {doc['measured']} != {want}")
    _require(doc["match"] is (want == closed), f"match flag {doc['match']}")


# -- synthesis windows -------------------------------------------------------


def _check_step(i, l, alpha, p_prev, p, window=None, minimal=False) -> None:
    """One synthesis step against the exact window algebra.

    p_prev and p are (num, den) pairs, not necessarily reduced.
    """
    a, b = alpha.numerator, alpha.denominator
    pn, pd = p_prev
    num, den = p
    # with t = alpha/P_(i-1) = x/y the window t < (l-2)/l < (6+t)/7 reads
    # 2y < l(y-x) < 14y, one big product per tested valency
    x, y = a * pd, b * pn
    d = y - x
    lo_bound, hi_bound = 2 * y, 14 * y
    ld = l * d
    _require(l >= 5 and lo_bound < ld < hi_bound, f"step {i}: l={l} outside the admissible window")
    if window is not None:
        lo, hi = window
        lod, hid = lo * d, hi * d
        _require(lo <= l <= hi, f"step {i}: l outside the printed window")
        _require(lo >= 5 and lod > lo_bound and (lo == 5 or lod - d <= lo_bound),
                 f"step {i}: window_lo {lo} is not the least admissible valency")
        _require(hid < hi_bound <= hid + d,
                 f"step {i}: window_hi {hi} is not the largest admissible valency")
    if minimal:
        _require(l == 5 or ld - d <= lo_bound,
                 f"step {i}: l={l} is not the minimal admissible valency")
    npd, dpn = num * pd, den * pn
    _require(npd * l == dpn * (l - 2), f"step {i}: P_i != P_(i-1) (l-2)/l")
    _require(a * den < b * num and npd < dpn, f"step {i}: sandwich alpha < P_i < P_(i-1) fails")
    # gap_i <= 6/7 gap_(i-1), gaps P - alpha, denominators cleared
    _require(7 * (num * b - a * den) * pd <= 6 * (pn * b - a * pd) * den,
             f"step {i}: gap decays by more than 6/7")


def check_synth(out: bytes, *, alpha: Fraction, terms: int, fmt: str) -> None:
    text = out.decode()
    if fmt == "json":
        doc = json.loads(text)
        _require(doc["degenerate"] is None, "degenerate trace")
        rows = [(s["i"], s["l"], s["window_lo"], s["window_hi"], *_ratio(s["P"]), s["gap"])
                for s in doc["steps"]]
    else:
        lines = text.splitlines()
        _require(lines[0].startswith("# spinaldim ") and "degenerate" not in lines[0],
                 "csv comment line")
        _require(lines[1] == "i,l_i,window_lo,window_hi,P_num,P_den,gap_decimal", "csv header")
        rows = []
        for line in lines[2:]:
            i, l, lo, hi, pn, pd, gap = line.split(",")
            rows.append((int(i), int(l), int(lo), int(hi), int(pn), int(pd), gap))
    _require(len(rows) == terms, f"{len(rows)} steps, expected {terms}")
    p_prev = (1, 1)
    for k, (i, l, lo, hi, num, den, gap) in enumerate(rows):
        _require(i == k, f"step index {i} at row {k}")
        _check_step(i, l, alpha, p_prev, (num, den), window=(lo, hi), minimal=True)
        b = alpha.denominator
        _close(gap, num * b - alpha.numerator * den, den * b, f"step {i} gap")
        p_prev = (num, den)


# -- dimension rows ----------------------------------------------------------


def check_dim(out: bytes, *, alpha: Fraction, levels: int, strategy: str,
              precision: int) -> None:
    doc = json.loads(out)
    seq = doc["sequence"]
    rows = doc["rows"]
    _require(len(seq) == levels and len(rows) == levels, "row count")
    minimal = strategy == "minimal"
    pn = pd = 1
    with mpmath.workprec(precision + 32):
        ln2 = mpmath.log(2)
        log_h = log_g = mpmath.mpf(0)
        for n, (l, row) in enumerate(zip(seq, rows), start=1):
            _check_step(n - 1, l, alpha, (pn, pd), (pn * (l - 2), pd * l), minimal=minimal)
            log_h += pn * (mpmath.loggamma(l - 1) - ln2)
            log_g += pd * (mpmath.loggamma(l + 1) - ln2)
            pn *= l - 2
            pd *= l
            _require(row["n"] == n, f"row {n} numbering")
            a, b = _ratio(row["alpha_n"])
            _require(a * pd == b * pn, f"row {n}: alpha_n != prod (l-2)/l")
            _close_mpf(row["d_n"], log_h / log_g, f"row {n} d_n")


# -- spectrum ----------------------------------------------------------------


def check_spectrum(out: bytes, *, alpha: Fraction, seq, max_den: int, horizon: int) -> None:
    doc = json.loads(out)
    entries = doc["entries"]
    absorb = math.prod(l - 2 for l in seq[:horizon])
    # greedy gcd stripping over distinct indices succeeds iff b divides the product
    expected = {Fraction(a, b) for b in range(1, max_den + 1) if absorb % b == 0
                for a in range(b + 1) if math.gcd(a, b) == 1}
    level_sizes = [math.prod(seq[:n]) for n in range(1, len(seq) + 1)]
    found = {"L": set(), "L_alpha": set()}
    last = None
    for e in entries:
        text, prov = e["value"], e["provenance"]
        if prov == "L":
            q = Fraction(text)
            _require(text == str(q), f"{text}: not in lowest terms")
            value = q
        else:
            _require(prov == "L_alpha" and text.endswith("*alpha"), f"{text}: provenance {prov}")
            q = Fraction(text[: -len("*alpha")])
            value = q * alpha
            _require(e["realization"] is None, f"{text}: realization on an alpha multiple")
        _require(q.denominator <= max_den, f"{text}: denominator above max-den")
        wit = e["witness"]
        _require(len(set(wit)) == len(wit) and all(0 <= j < horizon for j in wit),
                 f"{text}: witness indices {wit}")
        _require(math.prod(seq[j] - 2 for j in wit) % q.denominator == 0,
                 f"{text}: denominator does not divide the witness product")
        _require(q not in found[prov], f"{text}: duplicate")
        found[prov].add(q)
        _require(last is None or value >= last, f"{text}: entries out of order")
        last = value
        _close(e["decimal"], value.numerator, value.denominator, f"{text} decimal")
        if prov == "L":
            real = e["realization"]
            if real is None:
                _require(q == 0 or all((q * m).denominator != 1 for m in level_sizes),
                         f"{text}: realizable but no realization given")
            else:
                n, k = real["level"], real["k"]
                _require(1 <= n <= len(seq) and Fraction(k, level_sizes[n - 1]) == q,
                         f"{text}: realization {k}/m_{n} differs")
    _require(found["L"] == expected, "L family differs from the admissible rationals")
    _require(found["L_alpha"] == expected, "alpha family differs from the admissible rationals")


# -- constant-tree scans -----------------------------------------------------


def check_dimension_scan(out: bytes, *, valencies, levels: int) -> None:
    """Constant trees: both log-orders are geometric sums with closed forms."""
    lines = out.decode().splitlines()
    pos = 0
    for l in valencies:
        _require(lines[pos].startswith(f"# family=constant-{l} "), f"family line for {l}")
        _require(lines[pos + 1] == "n,alpha_n,d_n,lower_n,upper_n", "header line")
        rows = lines[pos + 2 : pos + 2 + levels]
        _require(len(rows) == levels, f"constant-{l}: {len(rows)} rows")
        with mpmath.workprec(96):
            ln2 = mpmath.log(2)
            per_g = mpmath.loggamma(l + 1) - ln2
            per_h = mpmath.loggamma(l - 1) - ln2
            for n, row in enumerate(rows, start=1):
                cols = row.split(",")
                _require(int(cols[0]) == n, f"constant-{l}: row {n} numbering")
                log_g = per_g * mpmath.mpf(l**n - 1) / (l - 1)
                log_h = per_h * mpmath.mpf((l - 2) ** n - 1) / (l - 3)
                _close(cols[1], (l - 2) ** n, l**n, f"constant-{l} alpha_{n}")
                _close_mpf(cols[2], log_h / log_g, f"constant-{l} d_{n}")
        _require(lines[pos + 2 + levels].startswith("# liminf_estimate="), "summary line")
        _require(lines[pos + 3 + levels] == "", "block separator")
        pos += levels + 4
    _require(pos == len(lines), "unexpected trailing output")
