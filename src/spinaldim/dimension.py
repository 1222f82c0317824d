"""Partial Hausdorff-dimension quotients, envelope bounds and rigid products.

All quantities live on a tree with valency sequence {l_i}.  The ambient
quotients use the l_i themselves, the subgroup quotients use l_i - 2, and
every number below is a ratio of prefix sums over j < n that
``wreath.log_order_sums`` builds in one pass, with m_j = prod_{k<j} l_k and
m'_j = prod_{k<j} (l_k - 2).  The level-n partial dimension is the ratio of
the two log-orders:

    d_n = sum m'_j (ln (l_j-2)! - ln 2) / sum m_j (ln l_j! - ln 2)

The envelope drops the powers of two and sandwiches

    ratio_n = sum m'_j ln (l_j-2)! / sum m_j ln l_j!

between  lower_n = a/(1 + T1 + T2)  and

    upper_n = (n m'_{n-1} + sum m'_j l_j (ln l_j - 1)) / sum m_j ln l_j!

where a = m'_{n-1}/m_{n-1}.  Splitting each l_j! as l_j (l_j-1) (l_j-2)!
gives T1 = sum m_j ln l_j / E and T2 = sum m_j ln (l_j-1) / E with
E = sum m_j ln (l_j-2)!.  The upper bound trades each ln (l_j-2)! for the
Stirling-type bound 1 + l_j (ln l_j - 1), every unit weighted by the
largest m'_{n-1}.

The sums are exact ints at a fixed binary scale whose only roundings are
the logs themselves, so t1, t2, ratio, upper and d are each one correctly
rounded quotient; lower, t1_cap and the tolerance flags are worked at the
row's working precision.  ``partial_dimension`` builds one level's row from
these formulas, and ``dimension_report`` asks it for each level, so a deep
report evaluates each valency's logs once (in ``log_order_sums``) and reads
every row off the cached sums.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

from .trees import TreeSequence
from .wreath import _GUARD_BITS, _require_subgroup_side, log_order_sums

if TYPE_CHECKING:
    from fractions import Fraction

    from mpmath import mpf

_MIN_PRECISION = 64


def _require_precision(precision_bits: int) -> None:
    if precision_bits < _MIN_PRECISION:
        raise ValueError(f"precision {precision_bits} below the {_MIN_PRECISION}-bit floor")


@functools.lru_cache(maxsize=8)
def _alpha_prefixes(valencies: tuple[int, ...]) -> tuple[Fraction, ...]:
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
    return _alpha_prefixes(seq.valencies)[n]


class EnvelopeRow(NamedTuple):
    """Per-level proof quantities for the two-sided dimension estimate."""

    n: int
    alpha_prefix: Fraction
    ratio: mpf
    lower: mpf
    upper: mpf
    t1: mpf
    t2: mpf
    t1_cap: mpf
    sandwich_ok: bool = True
    t_order_ok: bool = True
    t1_cap_ok: bool = True


class DimensionRow(NamedTuple):
    n: int
    d: mpf
    alpha: Fraction
    envelope: EnvelopeRow


class DimensionReport(NamedTuple):
    sequence: tuple[int, ...]
    precision_bits: int
    rows: list[DimensionRow]
    liminf_estimate: mpf
    limsup_estimate: mpf
    flagged_levels: list[int]  # levels whose envelope row fails the sandwich check


def _quotient(p: int, q: int, prec: int) -> tuple:
    """p/q for ints p >= 0 and q > 0, correctly rounded to prec bits, as a raw mpf."""
    from mpmath.libmp import mpf_div, round_nearest

    return mpf_div((0, p, 0, p.bit_length()), (0, q, 0, q.bit_length()), prec, round_nearest)


def partial_dimension(seq: TreeSequence, n: int, precision_bits: int = 128) -> DimensionRow:
    """The level-n quotient d_n together with its envelope row.

    t1, t2, ratio, upper and d are each one correctly rounded quotient of
    the exact prefix sums.  lower, t1_cap and the flags are worked at wp
    bits on raw mpf values, and only the fields the row keeps become mpf
    objects.
    """
    _require_precision(precision_bits)
    _require_subgroup_side(seq, n)
    if not 1 <= n <= len(seq):
        raise ValueError(f"level {n} outside 1..{len(seq)}; the smallest reported level is 1")

    import mpmath
    from mpmath.libmp import fone, from_rational, mpf_add, mpf_div, mpf_le
    from mpmath.libmp import round_nearest as rnd

    wp = precision_bits + _GUARD_BITS
    sums = log_order_sums(seq.valencies, precision_bits)
    prefixes = _alpha_prefixes(seq.valencies)
    t1 = _quotient(sums.split_l[n], sums.split_sub[n], wp)
    t2 = _quotient(sums.split_l1[n], sums.split_sub[n], wp)
    ratio = _quotient(sums.fact_sub[n], sums.fact[n], wp)
    upper = _quotient(n * sums.size_sub[n - 1] + sums.stirling_sub[n], sums.fact[n], wp)
    alpha_prefix = prefixes[n - 1]
    a = from_rational(alpha_prefix.numerator, alpha_prefix.denominator, wp, rnd)
    lower = mpf_div(a, mpf_add(mpf_add(fone, t1, wp, rnd), t2, wp, rnd), wp, rnd)
    t1_cap = from_rational(8, seq[n - 1], wp, rnd)
    tol = (0, 1, -(precision_bits // 2), 1)  # 2^-(precision_bits // 2)
    make = mpmath.mp.make_mpf
    return DimensionRow(
        n=n,
        d=make(_quotient(sums.order_sub[n], sums.order[n], wp)),
        alpha=prefixes[n],
        envelope=EnvelopeRow(
            n=n,
            alpha_prefix=alpha_prefix,
            ratio=make(ratio),
            lower=make(lower),
            upper=make(upper),
            t1=make(t1),
            t2=make(t2),
            t1_cap=make(t1_cap),
            sandwich_ok=(mpf_le(lower, mpf_add(ratio, tol, wp, rnd))
                         and mpf_le(ratio, mpf_add(upper, tol, wp, rnd))),
            t_order_ok=mpf_le(t2, mpf_add(t1, tol, wp, rnd)),
            t1_cap_ok=mpf_le(t1, mpf_add(t1_cap, tol, wp, rnd)),
        ),
    )


def dimension_report(seq: TreeSequence, levels: int, precision_bits: int = 128) -> DimensionReport:
    """Rows for n = 1..levels plus tail liminf/limsup estimates."""
    if levels < 1:
        raise ValueError("need at least one level")
    if levels > len(seq):
        raise ValueError(f"levels {levels} exceed sequence length {len(seq)}")
    rows = [partial_dimension(seq, n, precision_bits) for n in range(1, levels + 1)]
    tail = [r.d for r in rows[len(rows) // 2 :]]
    return DimensionReport(
        sequence=seq.valencies[:levels],
        precision_bits=precision_bits,
        rows=rows,
        liminf_estimate=min(tail),
        limsup_estimate=max(tail),
        flagged_levels=[r.n for r in rows if not r.envelope.sandwich_ok],
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
    log_g, log_h, log_k = (log_order_sums(s.valencies, precision_bits).order
                           for s in (seq_g, seq_h, seq_k))
    wp = precision_bits + _GUARD_BITS
    make = mpmath.mp.make_mpf
    out = []
    with mpmath.workprec(wp):
        for n in range(1, n_max + 1):
            lg, lh, lk = log_g[n], log_h[n], log_k[n]
            q_hg = make(_quotient(lh, lg, wp))
            q_kh = make(_quotient(lk, lh, wp))
            q_kg = make(_quotient(lk, lg, wp))
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
    import mpmath

    _require_precision(precision_bits)
    m_n = seq.level_size(n)
    if not 1 <= k <= m_n:
        raise ValueError(f"k={k} outside 1..{m_n}")
    if not n < m <= len(seq):
        raise ValueError(f"horizon m={m} must satisfy {n} < m <= {len(seq)}")
    order = log_order_sums(seq.valencies, precision_bits).order
    return mpmath.mp.make_mpf(
        _quotient(k * (order[m] - order[n]), m_n * order[m], precision_bits + _GUARD_BITS))
