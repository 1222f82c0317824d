"""Valency-sequence synthesis for a target limit and spectrum sampling.

Given a target a in (0,1), each step picks l_i with

    t < (l_i - 2)/l_i < (6 + t)/7,   t = a / P_{i-1},

equivalently l_i in the open interval (2/(1-t), 14/(1-t)) clipped to >= 5.
The interval is never empty (its upper endpoint is seven times the lower),
every choice keeps a < P_i < P_{i-1}, and the gap to the target shrinks by
a factor below 6/7 per step.  All of this is exact rational arithmetic.

The spectrum sampler enumerates rationals q = a/b whose reduced
denominator divides a product of distinct terms (l_j - 2); each such q is
a subgroup dimension witnessed by an index set, and each product q*target
is reachable one construction level down.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .errors import BudgetExceeded
from .trees import _MAX_ENTRY_DIGITS, TreeSequence

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

_SCAN_CAP = 2_000_000
# largest work, denominators examined plus entries built plus the 64-bit words
# beyond the first of each realization's m_n, of one spectrum sample
_SPECTRUM_WORK_LIMIT = 100_000


def window(alpha: Fraction, p_prev: Fraction) -> tuple[int, int]:
    """Inclusive integer range of admissible next valencies.

    Solves t < (l-2)/l < (6+t)/7 with t = alpha/p_prev over the integers
    and clips the result to l >= 5.
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    p_prev = Fraction(p_prev)
    if not 0 < alpha < 1:
        raise ValueError("target must lie strictly between 0 and 1")
    if not alpha < p_prev <= 1:
        raise ValueError("running product must lie in (alpha, 1]")
    t = alpha / p_prev
    lo = max(math.floor(2 / (1 - t)) + 1, 5)
    hi = math.ceil(14 / (1 - t)) - 1
    if lo > hi:
        raise RuntimeError(
            f"empty admissible window at t={t}; this contradicts the window algebra"
        )
    return lo, hi


class SynthesisStep(NamedTuple):
    i: int
    l: int
    window_lo: int
    window_hi: int
    p: Fraction
    gap: Fraction


class SynthesisTrace(NamedTuple):
    alpha: Fraction
    strategy: str
    steps: list[SynthesisStep]
    degenerate: str | None = None

    def sequence(self) -> TreeSequence:
        if self.degenerate is not None:
            raise ValueError(f"degenerate trace ({self.degenerate}) has no sequence")
        return TreeSequence(tuple(s.l for s in self.steps))


def distinct_prime_factor_counts(lo: int, hi: int) -> np.ndarray:
    """Number of distinct prime factors for every integer in [lo, hi].

    This is the one function that imports numpy: a flag sieve gives the
    primes up to sqrt(hi), and each one is struck from the window.
    """
    import numpy as np

    if lo < 2 or hi < lo:
        raise ValueError("need 2 <= lo <= hi")
    root = math.isqrt(hi)
    flags = np.ones(root + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    counts = np.zeros(hi - lo + 1, dtype=np.int16)
    residual = np.arange(lo, hi + 1, dtype=np.int64)
    for p in np.flatnonzero(flags).tolist():
        # -lo % q is the offset of the first multiple of q in the window
        counts[-lo % p :: p] += 1
        q = p
        while q <= hi:
            residual[-lo % q :: q] //= p
            q *= p
    # what is left above 1 is the one prime factor beyond sqrt(hi)
    counts[residual > 1] += 1
    return counts


def _pick_prime_rich(lo: int, hi: int) -> int:
    width = hi - lo + 1
    BudgetExceeded.refuse_above(
        width, _SCAN_CAP, f"prime-rich scan over {width} candidates exceeds cap {_SCAN_CAP}")
    # argmax returns the first maximum, so ties go to the smallest l
    return lo + int(distinct_prime_factor_counts(lo - 2, hi - 2).argmax())


# strategy name -> the pick of l from the admissible window lo..hi
STRATEGIES = {"minimal": lambda lo, hi: lo, "prime-rich": _pick_prime_rich}


def synthesize(alpha: Fraction, terms: int, strategy: str = "minimal") -> SynthesisTrace:
    """Choose ``terms`` valencies whose (l-2)/l products approach alpha.

    minimal takes the smallest admissible integer each step; prime-rich
    takes the admissible l whose l - 2 has the most distinct prime
    factors, ties to the smallest.  Entries of the minimal strategy grow
    roughly quadratically per step, so runs are refused once an entry
    would exceed _MAX_ENTRY_DIGITS decimal digits, and prime-rich scans
    wider than _SCAN_CAP candidates are refused.
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    pick = STRATEGIES.get(strategy)
    if pick is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    if terms < 1:
        raise ValueError("need at least one term")
    if not 0 <= alpha <= 1:
        raise ValueError("target must lie in [0, 1]")
    if alpha == 1:
        return SynthesisTrace(alpha, strategy, [], degenerate="H=G")
    if alpha == 0:
        return SynthesisTrace(alpha, strategy, [], degenerate="H=1")
    steps: list[SynthesisStep] = []
    p_prev = Fraction(1)
    for i in range(terms):
        lo, hi = window(alpha, p_prev)
        digits = math.ceil(lo.bit_length() * 0.302)
        BudgetExceeded.refuse_above(
            digits, _MAX_ENTRY_DIGITS,
            f"entry {i} needs about {digits} digits (budget {_MAX_ENTRY_DIGITS})")
        l = pick(lo, hi)
        p = p_prev * Fraction(l - 2, l)
        steps.append(SynthesisStep(i, l, lo, hi, p, p - alpha))
        p_prev = p
    return SynthesisTrace(alpha, strategy, steps)


def _parse_target(text: str) -> Fraction:
    """``Fraction(text)``, refused when the text written out without an exponent
    would take more than _MAX_ENTRY_DIGITS digits.

    Fraction raises 10 to the exponent, so the 11 bytes ``1e-30000000``
    would take most of a minute; they are refused at once.
    """
    from fractions import Fraction

    mantissa, _, exponent = text.strip().lower().partition("e")
    whole, _, places = mantissa.partition(".")
    power = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if not power.isdecimal():
        power = "0"  # no exponent, a zero one, or a text Fraction refuses
    # an |exponent| of more digits than cap exceeds the budget whatever the
    # places, so it is clamped to cap rather than converted
    cap = len(text) + _MAX_ENTRY_DIGITS + 1
    shift = int(power) if len(power) <= len(str(cap)) else cap
    if exponent.startswith("-"):
        shift = -shift
    written = (max(sum(map(str.isdecimal, whole)) + shift, 0)
               + max(sum(map(str.isdecimal, places)) - shift, 0))
    BudgetExceeded.refuse_above(
        written, _MAX_ENTRY_DIGITS,
        f"target needs at least {written} digits written out (budget {_MAX_ENTRY_DIGITS})")
    return Fraction(text)


def _parse_targets(text: str) -> list[tuple[str, Fraction]]:
    """Each entry of a comma-separated target list with its value; an empty text lists none."""
    entries = text.split(",") if text else []
    if "" in entries:
        raise ValueError(f"empty entry {entries.index('') + 1} in target list {text!r}")
    targets = []
    for entry in entries:
        try:
            targets.append((entry, _parse_target(entry)))
        except ZeroDivisionError:
            raise ValueError(f"target {entry!r} has a zero denominator") from None
    return targets


class MembershipResult(NamedTuple):
    status: str  # "yes" | "no_within_horizon"
    witness: tuple[int, ...] | None

    @property
    def found(self) -> bool:
        return self.status == "yes"


def denominator_witness(q: Fraction, seq: TreeSequence, horizon: int) -> MembershipResult:
    """Indices j < horizon whose (l_j - 2) factors absorb q's denominator.

    Strips gcd(b, l_j - 2) from the reduced denominator b once per index;
    distinct indices only.  Monotone in the horizon: a yes stays a yes.
    """
    from fractions import Fraction

    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError("rational must lie in [0, 1]")
    if not 0 <= horizon <= len(seq):
        raise ValueError(f"horizon must lie in 0..{len(seq)}")
    b = q.denominator
    used = []
    for j in range(horizon):
        if b == 1:
            break
        g = math.gcd(b, seq[j] - 2)
        if g > 1:
            used.append(j)
            b //= g
    if b == 1:
        return MembershipResult("yes", tuple(used))
    return MembershipResult("no_within_horizon", None)


class SpectrumEntry(NamedTuple):
    value: Fraction
    text: str
    provenance: str  # "L" | "L_alpha"
    witness: tuple[int, ...]
    realization: tuple[int, int] | None  # (level n, count k) with value = k/m_n


class SpectrumResult(NamedTuple):
    alpha: Fraction
    sequence: tuple[int, ...]
    max_denominator: int
    horizon: int
    entries: list[SpectrumEntry]


def spectrum_sample(
    alpha: Fraction,
    seq: TreeSequence,
    max_denominator: int,
    horizon: int,
) -> SpectrumResult:
    """All admissible q = a/b with b <= max_denominator, plus their alpha-multiples.

    Admissibility and the witness depend on b alone.  Since gcd(a, b) = 1,
    q*m_n is an integer exactly when b divides m_n, so the realization
    level is also found once per b.  The work, denominators examined plus
    entries built, is checked as it grows: above _SPECTRUM_WORK_LIMIT the
    sample is refused with BudgetExceeded.  A realization k = a m_n / b is
    about as long as m_n, so each one also adds the 64-bit words of m_n
    beyond the first.
    """
    from fractions import Fraction

    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise ValueError("target must lie in [0, 1]")
    if max_denominator < 1:
        raise ValueError("max denominator must be at least 1")
    if not 0 <= horizon <= len(seq):
        raise ValueError(f"horizon must lie in 0..{len(seq)}")
    limit = _SPECTRUM_WORK_LIMIT
    refusal = (f"spectrum sample needs work above {limit} (denominators examined plus entries "
               "built plus realization words); lower the max denominator or the horizon")
    sizes = list(itertools.accumulate(seq.valencies, operator.mul))  # m_1, m_2, ...
    entries: list[SpectrumEntry] = []
    words = 0  # realization words charged so far
    for b in range(1, max_denominator + 1):
        BudgetExceeded.refuse_above(b + len(entries) + words, limit, refusal)
        res = denominator_witness(Fraction(1, b), seq, horizon)
        if not res.found:
            continue
        # the first level whose m_n b divides; with none, m_n = 1 charges no words
        level, m_n = next(((n, m) for n, m in enumerate(sizes, start=1) if m % b == 0),
                          (None, 1))
        extra_words = (m_n.bit_length() - 1) // 64
        for a in range(0, b + 1):
            if math.gcd(a, b) != 1:
                continue
            if a:
                words += extra_words
            BudgetExceeded.refuse_above(b + len(entries) + 2 + words, limit, refusal)
            q = Fraction(a, b)
            entries.append(
                SpectrumEntry(
                    value=q,
                    text=str(q),
                    provenance="L",
                    witness=res.witness,
                    realization=(level, a * m_n // b) if a and level else None,
                )
            )
            entries.append(
                SpectrumEntry(
                    value=q * alpha,
                    text=f"{q}*alpha",
                    provenance="L_alpha",
                    witness=res.witness,
                    realization=None,
                )
            )
    # each reduced a/b occurs once, so no two entries share a sort key
    entries.sort(key=lambda e: (e.value, e.provenance, e.text))
    return SpectrumResult(alpha, seq.valencies, max_denominator, horizon, entries)


def spectrum_svg(result: SpectrumResult) -> str:
    """Self-contained number-line plot of a spectrum sample.

    Entries from the rational family are drawn as ticks above the axis,
    alpha-multiples as diamonds below it.
    """
    width, height = 800, 140
    margin = 40
    axis_y = 70
    span = width - 2 * margin

    def x_of(value: Fraction) -> float:
        return margin + float(value) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<line x1="{margin}" y1="{axis_y}" x2="{width - margin}" y2="{axis_y}" '
        'stroke="black" stroke-width="1.5"/>',
    ]
    for value, name in ((0, "0"), (result.alpha, "a"), (1, "1")):
        x = x_of(value)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axis_y - 6}" x2="{x:.2f}" y2="{axis_y + 6}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 34}" font-size="12" text-anchor="middle">'
            f"{name}</text>"
        )
    for e in result.entries:
        x = x_of(e.value)
        if e.provenance == "L":
            parts.append(
                f'<line x1="{x:.2f}" y1="{axis_y - 18}" x2="{x:.2f}" y2="{axis_y - 2}" '
                f'stroke="#1f5fbf" stroke-width="1.5"><title>{e.text}</title></line>'
            )
        else:
            parts.append(
                f'<path d="M {x:.2f} {axis_y + 4} l 4 6 l -4 6 l -4 -6 z" fill="#bf3f1f">'
                f"<title>{e.text}</title></path>"
            )
    parts.append("</svg>")
    return "\n".join(parts)
