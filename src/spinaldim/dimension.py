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
correctly rounded quotient.  On those sums 1 + T1 + T2 = F'/E with
F' = E + sum m_j ln l_j + sum m_j ln (l_j-1), so lower is a times the
correctly rounded E/F', multiplied once at the row's working precision,
and a row holds the four inequalities to that precision.
``partial_dimension`` builds one level's row from these formulas, and
``dimension_report`` asks it for each level, so a deep report evaluates
each valency's logs once (in ``log_order_sums``) and reads every row off
the cached sums.
"""

from __future__ import annotations

import functools
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


def _require_precision(precision_bits: int) -> None:
    if precision_bits < _MIN_PRECISION:
        raise ValueError(f"precision {precision_bits} below the {_MIN_PRECISION}-bit floor")
    BudgetExceeded.refuse_above(
        precision_bits, _MAX_PRECISION,
        f"precision {precision_bits} above the {_MAX_PRECISION}-bit ceiling")


@functools.lru_cache(maxsize=8)
def _alphas(valencies: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Entry n is prod_{j<n} (l_j - 2)/l_j, for n = 0..len(valencies), in one pass."""
    from fractions import Fraction

    out = [Fraction(1)]
    for l in valencies:
        out.append(out[-1] * Fraction(l - 2, l))
    return tuple(out)


def alpha_target(seq: TreeSequence, n: int) -> Fraction:
    """prod_{j<n} (l_j - 2)/l_j as an exact rational."""
    if not 0 <= n <= len(seq):
        raise ValueError(f"level {n} outside 0..{len(seq)}")
    return _alphas(seq.valencies)[n]


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


def _ratio(p: int, q: int, prec: int) -> mpf:
    """``_quotient(p, q, prec)`` as an mpf object."""
    import mpmath

    return mpmath.mp.make_mpf(_quotient(p, q, prec))


def partial_dimension(seq: TreeSequence, n: int, precision_bits: int = 128) -> DimensionRow:
    """The level-n quotient d_n together with its envelope.

    t1, t2, ratio, upper and d are each one correctly rounded quotient of
    the exact prefix sums; lower is a times E/F', both correctly rounded,
    multiplied once at wp bits.  It reads the log-order sums and alpha
    products of every level of ``seq``, not only of the n the row needs:
    row 2 of the 19-term minimal 1/3 sequence took 76 ms (2-vCPU VM)
    against 0.12 ms for its 2-level report.  A caller who wants one
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
    alphas = _alphas(seq.valencies)
    e = sums.split_sub[n]
    a = _quotient(alphas[n - 1].numerator, alphas[n - 1].denominator, wp)
    lower = mpf_mul(a, _quotient(e, e + sums.split_l[n] + sums.split_l1[n], wp), wp, round_nearest)
    return DimensionRow(
        n=n,
        d=_ratio(sums.order_sub[n], sums.order[n], wp),
        alpha=alphas[n],
        ratio=_ratio(sums.fact_sub[n], sums.fact[n], wp),
        lower=mpmath.mp.make_mpf(lower),
        upper=_ratio(n * sums.size_sub[n - 1] + sums.stirling_sub[n], sums.fact[n], wp),
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
    seq_g: TreeSequence,
    seq_h: TreeSequence,
    seq_k: TreeSequence,
    n_max: int,
    precision_bits: int = 128,
) -> list[ChainRuleRow]:
    """Per-level telescoping check (logK/logG) = (logH/logG)(logK/logH).

    The three sequences must be nested by entrywise subtraction of 2.
    """
    import mpmath

    _require_precision(precision_bits)
    if n_max < 1 or n_max > min(len(seq_g), len(seq_h), len(seq_k)):
        raise ValueError("n_max outside the common sequence range")
    for a, b in zip(seq_g.valencies, seq_h.valencies):
        if b != a - 2:
            raise ValueError("middle sequence is not the ambient one shifted by 2")
    for b, c in zip(seq_h.valencies, seq_k.valencies):
        if c != b - 2:
            raise ValueError("inner sequence is not the middle one shifted by 2")
    _require_subgroup_side(seq_h, n_max)
    log_g, log_h, log_k = (log_order_sums(s.valencies[:n_max], precision_bits).order
                           for s in (seq_g, seq_h, seq_k))
    wp = precision_bits + _GUARD_BITS
    out = []
    with mpmath.workprec(wp):
        for n in range(1, n_max + 1):
            lg, lh, lk = log_g[n], log_h[n], log_k[n]
            q_hg = _ratio(lh, lg, wp)
            q_kh = _ratio(lk, lh, wp)
            q_kg = _ratio(lk, lg, wp)
            prod = q_hg * q_kh
            out.append(
                ChainRuleRow(
                    n=n,
                    q_hg=q_hg,
                    q_kh=q_kh,
                    q_kg=q_kg,
                    product=prod,
                    abs_err=abs(prod - q_kg),
                )
            )
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
    m_n = seq.level_size(n)
    if not 1 <= k <= m_n:
        raise ValueError(f"k={k} outside 1..{m_n}")
    if not n < m <= len(seq):
        raise ValueError(f"horizon m={m} must satisfy {n} < m <= {len(seq)}")
    order = log_order_sums(seq.valencies[:m], precision_bits).order
    return _ratio(k * (order[m] - order[n]), m_n * order[m], precision_bits + _GUARD_BITS)
