"""Partial Hausdorff-dimension quotients, envelope bounds and rigid products.

All quantities live on a tree with valency sequence {l_i}.  The ambient
quotients use the l_i themselves, the subgroup quotients use l_i - 2, and
every number below is a ratio of prefix sums over j < n that
``wreath.log_order_sums`` builds in one pass, with m_j = prod_{k<j} l_k and
m'_j = prod_{k<j} (l_k - 2).  The level-n partial dimension is the ratio of
the two log-orders:

    d_n = sum m'_j (ln (l_j-2)! - ln 2) / sum m_j (ln l_j! - ln 2)

The envelope drops the powers of two and sandwiches

    ratio_n = sum m'_j ln (l_j-2)! / F,    F = sum m_j ln l_j!

between  lower_n = a/(1 + T1 + T2)  and

    upper_n = (n m'_{n-1} + sum m'_j l_j (ln l_j - 1)) / F

where a = alpha_{n-1} and alpha_j = m'_j/m_j.  Splitting each l_j! as
l_j (l_j-1) (l_j-2)! gives T1 = sum m_j ln l_j / E and
T2 = sum m_j ln (l_j-1) / E with E = sum m_j ln (l_j-2)!.  The upper bound
trades each ln (l_j-2)! for the Stirling-type bound 1 + l_j (ln l_j - 1),
every unit weighted by the largest m'_{n-1}.

Every l_j is at least 5 (``_require_subgroup_side``), and there the four
envelope inequalities are theorems, so no row re-tests them:

1. lower_n <= ratio_n.  1 + T1 + T2 = F/E, so lower_n = alpha_{n-1} E/F and
   ratio_n - lower_n = sum m_j (alpha_j - alpha_{n-1}) ln (l_j-2)! / F,
   which is >= 0 because alpha_j does not increase with j.
2. ratio_n <= upper_n.  upper_n - ratio_n = (n m'_{n-1} + sum m'_j delta(l_j)) / F
   with delta(l) = l (ln l - 1) - ln (l-2)!.  Each ln i is at most the
   integral of ln over [i, i+1], so ln k! <= (k+1) ln (k+1) - k, and
   l ln l - (l-1) ln (l-1) >= ln (l-1) + 1 by the mean value theorem;
   together delta(l) >= ln (l-1) - 1 > 0 for l >= 4.
3. T2 <= T1, term by term: ln (l_j-1) < ln l_j over the same E > 0.
4. T1 <= 8/l with l = l_{n-1}.  ln x / x falls for x >= e and
   m_{j+1} <= m_{n-1} / 5^(n-2-j), so
   sum_{j<n-1} m_j ln l_j = sum_{j<n-1} m_{j+1} ln l_j / l_j
   <= (ln 5/5) * 1.25 * m_{n-1} < 0.41 m_{n-1}.
   With E >= m_{n-1} ln (l-2)! this gives T1 <= (0.41 + ln l) / ln (l-2)!,
   and l (0.41 + ln l) <= 8 ln (l-2)! for every l >= 5: 10.1 <= 14.3 at
   l = 5, and the right side gains 8 ln (l-1) from l to l+1 while the left
   gains at most 1.41 + ln (l+1).

The sums are exact ints at a fixed binary scale whose only roundings are
the logs themselves, so t1, t2, ratio, upper, d and a are each one
correctly rounded quotient.  F is built as E + sum m_j ln l_j +
sum m_j ln (l_j-1) from the rounded logs, so 1 + T1 + T2 = F/E holds
exactly on the sums and inequality 1 holds there term by term, each
rounded ln (l_j-2)! being >= 0; lower is a times the correctly rounded
E/F, multiplied once at the row's working precision, lower_1 = ratio_1
bit for bit, and a row holds the four inequalities to that precision.
``partial_dimension`` builds one level's row from these formulas, alpha_n
and a from the exact m'_n and m_n of the same pass, and
``dimension_report`` asks it for each level, so a deep report evaluates
each valency's logs once and reads every row off the one cached pass.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetExceeded
from .trees import TreeSequence
from .wreath import _GUARD_BITS, _require_subgroup_side, log_order_sums

if TYPE_CHECKING:
    from fractions import Fraction

    from mpmath import mpf

_MIN_PRECISION = 64
# a bound on the time of one row's logs and quotients: 4096 bits is about 1233 digits
_MAX_PRECISION = 1 << 12
_LOG10_2 = math.log10(2)


def _require_precision(precision_bits: int) -> None:
    if precision_bits < _MIN_PRECISION:
        raise ValueError(f"precision {precision_bits} below the {_MIN_PRECISION}-bit floor")
    BudgetExceeded.refuse_above(
        precision_bits, _MAX_PRECISION,
        f"precision {precision_bits} above the {_MAX_PRECISION}-bit ceiling")


def alpha_target(seq: TreeSequence, n: int) -> Fraction:
    """prod_{j<n} (l_j - 2)/l_j as an exact rational, m'_n/m_n."""
    from fractions import Fraction

    if not 0 <= n <= len(seq):
        raise ValueError(f"level {n} outside 0..{len(seq)}")
    return Fraction(math.prod(l - 2 for l in seq.valencies[:n]), math.prod(seq.valencies[:n]))


class DimensionRow(NamedTuple):
    """Level n's quotient d_n, its alpha_n and the envelope that brackets it."""

    n: int
    d: mpf
    alpha: Fraction
    ratio: mpf
    lower: mpf
    upper: mpf
    t1: mpf
    t2: mpf


class DimensionReport(NamedTuple):
    sequence: tuple[int, ...]
    precision_bits: int
    rows: list[DimensionRow]
    liminf_estimate: mpf
    limsup_estimate: mpf


def _quotient(p: int, q: int, prec: int) -> tuple:
    """p/q for ints p >= 0 and q > 0, correctly rounded to prec bits, as a raw mpf."""
    from mpmath.libmp import mpf_div, round_nearest

    return mpf_div((0, p, 0, p.bit_length()), (0, q, 0, q.bit_length()), prec, round_nearest)


def _decimal_text(x: Fraction | mpf, digits: int, strip_zeros: bool) -> str:
    """``x`` >= 0 to ``digits`` significant digits, rounded half up from its exact value.

    ``x`` is a rational or a binary mpf, whose exact value is man * 2**exp.
    The text is fixed point when the leading digit's exponent e lies
    strictly between min(-(digits // 3), -5) and digits, otherwise
    ``d.ddd`` and ``e+N`` or ``e-N``; trailing zeros are stripped only when
    asked, and one is kept after the point.
    """
    if hasattr(x, "_mpf_"):
        _, man, exp, _ = x._mpf_
        p, q = (man << exp, 1) if exp >= 0 else (man, 1 << -exp)
    else:
        p, q = x.numerator, x.denominator
    if not p:
        return "0.0"
    # 2**(k-1) < p/q < 2**(k+1) with k the difference of the bit lengths, so
    # the leading digit's exponent is this estimate or one more; the margin
    # keeps a float error from rounding the estimate up
    e = math.floor((p.bit_length() - q.bit_length() - 1) * _LOG10_2 - 1e-9)
    s = digits - e
    n = str(p * 10**s // q if s >= 0 else p // (q * 10**-s))
    e += len(n) - digits - 1
    # truncating the floor n to digits + 1 digits is again an exact floor
    rounded = str((int(n[: digits + 1]) + 5) // 10)
    if len(rounded) > digits:  # carried to 10**digits
        rounded, e = rounded[:digits], e + 1
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            mantissa = "0." + "0" * (-e - 1) + rounded
        else:
            mantissa = rounded[: e + 1] + "." + rounded[e + 1 :]
        exponent = ""
    else:
        mantissa, exponent = rounded[0] + "." + rounded[1:], f"e{e:+d}"
    if strip_zeros:
        mantissa = mantissa.rstrip("0")
        if mantissa.endswith("."):
            mantissa += "0"
    return mantissa + exponent


def _ratio(p: int, q: int, prec: int) -> mpf:
    """``_quotient(p, q, prec)`` as an mpf object."""
    import mpmath

    return mpmath.mp.make_mpf(_quotient(p, q, prec))


def partial_dimension(seq: TreeSequence, n: int, precision_bits: int = 128) -> DimensionRow:
    """The level-n quotient d_n together with its envelope.

    t1, t2, ratio, upper and d are each one correctly rounded quotient of
    the exact prefix sums; lower is a times E/F, both correctly rounded,
    multiplied once at wp bits.  It reads the log-order sums and level
    sizes of every level of ``seq``, not only of the n the row needs:
    row 2 of the 19-term minimal 1/3 sequence took 41-74 ms (2-vCPU VM)
    against 0.11-0.14 ms for its 2-level report.  A caller who wants one
    shallow row passes the prefix, as ``dimension_report`` does.
    """
    _require_precision(precision_bits)
    _require_subgroup_side(seq, n)
    if not 1 <= n <= len(seq):
        raise ValueError(f"level {n} outside 1..{len(seq)}; the smallest reported level is 1")

    import mpmath
    from mpmath.libmp import mpf_mul, round_nearest

    wp = precision_bits + _GUARD_BITS
    sums = log_order_sums(seq.valencies, precision_bits)
    e, f = sums.split_sub[n], sums.fact[n]
    a = _quotient(sums.size_sub[n - 1], sums.size[n - 1], wp)
    lower = mpf_mul(a, _quotient(e, f, wp), wp, round_nearest)
    return DimensionRow(
        n=n,
        d=_ratio(sums.order_sub[n], sums.order[n], wp),
        alpha=sums.alpha[n],
        ratio=_ratio(sums.fact_sub[n], f, wp),
        lower=mpmath.mp.make_mpf(lower),
        upper=_ratio((n * sums.size_sub[n - 1] << wp) + sums.stirling_sub[n], f, wp),
        t1=_ratio(sums.split_l[n], e, wp),
        t2=_ratio(sums.split_l1[n], e, wp),
    )


def dimension_report(seq: TreeSequence, levels: int, precision_bits: int = 128) -> DimensionReport:
    """Rows for n = 1..levels plus tail liminf/limsup estimates."""
    if levels < 1:
        raise ValueError("need at least one level")
    if levels > len(seq):
        raise ValueError(f"levels {levels} exceed sequence length {len(seq)}")
    # row n reads only j < n, so the unreported levels need no logs
    prefix = TreeSequence(seq.valencies[:levels])
    rows = [partial_dimension(prefix, n, precision_bits) for n in range(1, levels + 1)]
    tail = [r.d for r in rows[len(rows) // 2 :]]
    return DimensionReport(
        sequence=prefix.valencies,
        precision_bits=precision_bits,
        rows=rows,
        liminf_estimate=min(tail),
        limsup_estimate=max(tail),
    )


class ChainRuleRow(NamedTuple):
    n: int
    q_hg: mpf
    q_kh: mpf
    q_kg: mpf
    product: mpf
    abs_err: mpf


def chain_rule_table(
    seq: TreeSequence, n_max: int, precision_bits: int = 128
) -> list[ChainRuleRow]:
    """Per-level telescoping check (logK/logG) = (logH/logG)(logK/logH).

    G is the construction over ``seq``, H the one over l_i - 2 and K the one
    over l_i - 4.  H's log order is the ``order_sub`` of G's pass and K's is
    the ``order_sub`` of H's, so the tower takes two passes and evaluates
    ln (l_i-2)! and ln (l_i-4)! once each.  Both shifted sides must hold
    valencies >= 5 (``_require_subgroup_side``), so every l_i >= 7.
    """
    import mpmath

    _require_precision(precision_bits)
    if not 1 <= n_max <= len(seq):
        raise ValueError(f"n_max {n_max} outside 1..{len(seq)}")
    _require_subgroup_side(seq, n_max)
    h = TreeSequence(l - 2 for l in seq.valencies[:n_max])
    _require_subgroup_side(h, n_max)
    g_sums = log_order_sums(seq.valencies[:n_max], precision_bits)
    log_g, log_h = g_sums.order, g_sums.order_sub
    log_k = log_order_sums(h.valencies, precision_bits).order_sub
    wp = precision_bits + _GUARD_BITS
    out = []
    with mpmath.workprec(wp):
        for n in range(1, n_max + 1):
            lg, lh, lk = log_g[n], log_h[n], log_k[n]
            q_hg = _ratio(lh, lg, wp)
            q_kh = _ratio(lk, lh, wp)
            q_kg = _ratio(lk, lg, wp)
            prod = q_hg * q_kh
            out.append(ChainRuleRow(n, q_hg, q_kh, q_kg, prod, abs(prod - q_kg)))
    return out


def rigid_product_dimension(seq: TreeSequence, n: int, k: int) -> Fraction:
    """Exact dimension k/m_n of a product of k level-n rigid vertex stabilizers."""
    from fractions import Fraction

    m_n = seq.level_size(n)
    if not 1 <= k <= m_n:
        raise ValueError(f"k={k} outside 1..{m_n}")
    return Fraction(k, m_n)


def rigid_product_partial(
    seq: TreeSequence, n: int, k: int, m: int, precision_bits: int = 128
) -> mpf:
    """Level-m quotient of k level-n rigid vertex stabilizers.

    Converges to k/m_n from below as m grows: the numerator only collects
    the tail of the ambient log-order that lies below the chosen vertices.
    """
    _require_precision(precision_bits)
    if not 0 <= n < m <= len(seq):
        raise ValueError(f"horizon m={m} must satisfy 0 <= {n} < m <= {len(seq)}")
    sums = log_order_sums(seq.valencies[:m], precision_bits)
    m_n, order = sums.size[n], sums.order
    if not 1 <= k <= m_n:
        raise ValueError(f"k={k} outside 1..{m_n}")
    return _ratio(k * (order[m] - order[n]), m_n * order[m], precision_bits + _GUARD_BITS)
