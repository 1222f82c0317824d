"""Closed-form quotient orders, log-factorials and level-action verification.

The full group of even-labeled automorphisms of a depth-n truncation has
order  prod_{i<n} (l_i!/2)^{m_i}  with m_i the size of level i.  Each group
of ``portraits.GROUPS`` carries a shift s, 0 for G and 2 for H, and its
closed form is the same product over the shifted sequence (l_i - s).
``exact_wreath_order`` multiplies it out as an exact integer after a float
estimate of its digit count, with no mpmath.  ``log_order_sums`` makes one
pass over a sequence and keeps every weighted log sum the quotient,
dimension and envelope code divides, so each level reads its logs off
prefix sums.  The logs of each distinct valency are evaluated and rounded
once per pass, ln l! through its split ln l + ln (l-1) + ln (l-2)!, so
``lnfact`` runs once per valency, on l - 2; the sums of them are exact
integers at a fixed binary scale.
``verify_level_action`` checks that a group's four generators really
produce a group of that order at desk scale.  Their labels prove the
closed form is an upper bound: the group preserves the subtree of letters
<= l_i - s and acts on it faithfully, so the order is counted there, on
m'_n points, as G's construction over the valencies l_i - s.  In the
branch domain, where the section group A_{l-s} of every level below the
root is simple, it is certified level by level from rigid witnesses, one
running product of portraits checked on their labels (the rigid-stabilizer
argument for branch groups: Bartholdi, Grigorchuk and Sunic, "Branch
groups", 2003).  Everywhere else, and whenever a branch check fails, a
stabilizer chain on the subtree's level is the independent counter,
certified by reaching the bound or else by a Schreier pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from collections import deque
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import BudgetExceeded, DegreeCapExceeded
from .perms import Permutation
from .portraits import GROUPS, Portrait
from .schreier import StabilizerChain
from .trees import TreeSequence

if TYPE_CHECKING:
    from fractions import Fraction

    from mpmath import mpf

_GUARD_BITS = 32
# largest exact wreath order, in decimal digits, that exact_wreath_order multiplies out
_EXACT_DIGIT_BUDGET = 100_000
# default largest level degree that verify_level_action builds a chain for
_DEGREE_CAP = 700
# largest sum of log2 m_j over the levels that log_order_sums keeps prefix sums for
_LOG_SUM_BIT_BUDGET = 1 << 24


def lnfact(n: int, precision_bits: int = 128) -> mpf:
    """ln(n!) as log-gamma of n + 1, worked at precision_bits plus guard bits."""
    import mpmath

    if n < 0:
        raise ValueError("factorial argument must be nonnegative")
    with mpmath.workprec(precision_bits + _GUARD_BITS):
        return mpmath.loggamma(mpmath.mpf(n) + 1)


class LogOrderSums(NamedTuple):
    """Prefix sums over the levels of a valency sequence (l_0, l_1, ...).

    Entry n of each sum runs over j < n, with m_j = prod_{k<j} l_k and
    m'_j = prod_{k<j} (l_k - 2):

        fact          sum m_j ln l_j!, as split_sub + split_l + split_l1
        fact_sub      sum m'_j ln (l_j-2)!
        split_sub     sum m_j ln (l_j-2)!
        split_l       sum m_j ln l_j
        split_l1      sum m_j ln (l_j-1)
        stirling_sub  sum m'_j l_j (ln l_j - 1)
        order         sum m_j (ln l_j! - ln 2), the log of prod (l_j!/2)^{m_j}
        order_sub     sum m'_j (ln (l_j-2)! - ln 2), the same over l_j - 2

    ``size[n]`` and ``size_sub[n]`` are m_n and m'_n, exact ints with no
    scale, and ``alpha[n]`` is m'_n/m_n as a reduced Fraction.  The split
    sums come from l! = l (l-1) (l-2)!.

    Every other entry is an exact int at the scale 2^wp, wp = precision_bits +
    _GUARD_BITS: the sum is the entry times 2^-wp.  Three logs per valency,
    ln (l-2)!, ln l and ln (l-1), plus l (ln l - 1), are each rounded once
    to a multiple of 2^-wp and the sums of those logs are exact, so a ratio
    of two entries is the ratio of the sums, with nothing rounded but the
    logs until the quotient itself.
    """

    fact: tuple[int, ...]
    fact_sub: tuple[int, ...]
    split_sub: tuple[int, ...]
    split_l: tuple[int, ...]
    split_l1: tuple[int, ...]
    stirling_sub: tuple[int, ...]
    order: tuple[int, ...]
    order_sub: tuple[int, ...]
    size: tuple[int, ...]
    size_sub: tuple[int, ...]
    alpha: tuple[Fraction, ...]


def _fixed(x: mpf, wp: int) -> tuple[int, int]:
    """x rounded to the nearest multiple of 2^-wp, as (mantissa, shift).

    x 2^wp is ``mantissa << shift``.  The mantissa keeps the bits of x (at
    most wp of them), so m x at the scale 2^wp is ``(m * mantissa) << shift``
    however large x is, and no term multiplies two huge integers.
    """
    sign, man, exp, _ = x._mpf_
    shift = exp + wp
    if shift < 0:
        man, shift = (man + (1 << (-shift - 1))) >> -shift, 0
    return (-man if sign else man), shift


@functools.lru_cache(maxsize=8)
def log_order_sums(valencies: tuple[int, ...], precision_bits: int) -> LogOrderSums:
    """All prefix sums of ``LogOrderSums`` in one pass, as exact ints at the scale 2^wp.

    ln (l-2)!, ln l, ln (l-1) and l (ln l - 1) are evaluated once per
    distinct valency at wp = precision_bits + _GUARD_BITS bits and rounded
    once to the scale, so a constant tree of any depth makes one ``lnfact``
    call.  The sums then only multiply the exact level sizes by those
    wp-bit mantissas, shift and add, and ``fact`` adds the three split sums.
    An entry at level j holds about log2 m_j bits, so the pass refuses with
    BudgetExceeded, before any log, when the float estimate of
    sum_j log2 m_j exceeds _LOG_SUM_BIT_BUDGET.
    """
    bits = sum(itertools.accumulate(math.log2(l) for l in valencies))
    BudgetExceeded.refuse_above(
        bits, _LOG_SUM_BIT_BUDGET,
        f"log-order sums over {len(valencies)} levels need about {bits:.3g} bits "
        f"(budget {_LOG_SUM_BIT_BUDGET})")
    from fractions import Fraction

    import mpmath

    wp = precision_bits + _GUARD_BITS
    with mpmath.workprec(wp):
        ln2, ln2_shift = _fixed(mpmath.log(2), wp)
        rows = [(0,) * 7]
        size, size_sub, alpha = [1], [1], [Fraction(1)]
        logs = {}  # valency -> (mantissa, shift) of ln (l-2)!, ln l, ln (l-1), l (ln l - 1)
        for l in valencies:
            if l not in logs:
                ln_l = mpmath.log(l)
                logs[l] = tuple(_fixed(x, wp) for x in (
                    lnfact(l - 2, precision_bits), ln_l, mpmath.log(l - 1), l * (ln_l - 1)))
            (lf_sub, lf_sub_s), (ln_l, ln_l_s), (ln_l1, ln_l1_s), (st, st_s) = logs[l]
            m, m_sub = size[-1], size_sub[-1]
            # the last two terms count the vertices above level n, as exact integers
            terms = ((m_sub * lf_sub) << lf_sub_s, (m * lf_sub) << lf_sub_s,
                     (m * ln_l) << ln_l_s, (m * ln_l1) << ln_l1_s, (m_sub * st) << st_s,
                     m, m_sub)
            rows.append(tuple(acc + t for acc, t in zip(rows[-1], terms)))
            size.append(m * l)
            size_sub.append(m_sub * (l - 2))
            # a short l cancels against the last alpha in linear time, where a gcd
            # of the sizes is quadratic; a long one (a synthesized entry) keeps
            # that gcd, whose remainders collapse at once as m'/m sits by its target
            alpha.append(alpha[-1] * Fraction(l - 2, l) if 2 * l.bit_length() < m.bit_length()
                         else Fraction(size_sub[-1], size[-1]))
    fact_sub, split_sub, split_l, split_l1, stirling_sub, internal, internal_sub = zip(*rows)
    fact = tuple(map(sum, zip(split_sub, split_l, split_l1)))
    return LogOrderSums(
        fact=fact,
        fact_sub=fact_sub,
        split_sub=split_sub,
        split_l=split_l,
        split_l1=split_l1,
        stirling_sub=stirling_sub,
        order=tuple(f - ((w * ln2) << ln2_shift) for f, w in zip(fact, internal)),
        order_sub=tuple(f - ((w * ln2) << ln2_shift) for f, w in zip(fact_sub, internal_sub)),
        size=tuple(size),
        size_sub=tuple(size_sub),
        alpha=tuple(alpha),
    )


def exact_wreath_order(valencies: tuple[int, ...]) -> int:
    """prod_j (l_j!/2)^{m_j} over the given levels, as an exact integer.

    Refuses with BudgetExceeded, before multiplying anything out, when the
    product would have more than _EXACT_DIGIT_BUDGET decimal digits.  The
    estimate is the float sum of m_j (ln l_j! - ln 2) / ln 10.
    """
    try:
        digits = 0.0
        m = 1
        for l in valencies:
            digits += m * ((math.lgamma(l + 1) - math.log(2)) / math.log(10))
            m *= l
    except OverflowError:
        digits = math.inf
    BudgetExceeded.refuse_above(
        digits, _EXACT_DIGIT_BUDGET,
        f"exact order needs about {digits:.3g} digits (budget {_EXACT_DIGIT_BUDGET}); "
        "use the log variant")
    exact = 1
    m = 1
    for l in valencies:
        exact *= (math.factorial(l) // 2) ** m
        m *= l
    return exact


def _group(which: str) -> tuple:
    """The ``GROUPS`` row of ``which``: (rooted pair function, spinal kinds, shift)."""
    if which not in GROUPS:
        raise ValueError(f"group must be {' or '.join(map(repr, GROUPS))}, got {which!r}")
    return GROUPS[which]


def spinal_group_portraits(seq: TreeSequence, depth: int, which: str) -> list[Portrait]:
    """The four defining generators of ``which`` as portraits of the given depth.

    The rooted pair of its row at degree l_0, then its two spinal kinds.
    G: tau, sigma, zeta, psi.  H: kappa, rho, xi, theta, the subgroup
    generators acting as the alternating group on l_i - 2 points in every
    section.
    """
    pair, kinds, _ = _group(which)
    return ([Portrait.rooted(g, seq, depth) for g in pair(seq[0])]
            + [Portrait.spinal(kind, seq, depth) for kind in kinds])


def _require_subgroup_side(seq: TreeSequence, n: int) -> None:
    """Refuse a prefix whose shifted valencies l_j - 2, j < n, fall below 3."""
    if min(seq.valencies[:n], default=5) < 5:
        bad = next(l for l in seq.valencies if l < 5)
        raise ValueError(f"valency {bad} < 5; the shifted side needs l - 2 >= 3")


@functools.lru_cache(maxsize=64)
def _pair_is_alternating(pair: tuple[Permutation, Permutation]) -> bool:
    """Whether an even label pair of degree l generates all of A_l, by a chain of degree l."""
    section = math.factorial(pair[0].degree) // 2
    return StabilizerChain(pair, order_bound=section).order() == section


@functools.lru_cache(maxsize=64)
def _peel_words(pair: tuple[Permutation, Permutation]) -> tuple[tuple[int, ...], ...]:
    """Shortest words in a label pair (a, b): one sending letter 2 to 1, one fixing 1 and moving 2.

    A word lists indices into (a, b, a^-1, b^-1), its last letter acting
    first.  The search runs over the images of the letters (1, 2), so it
    visits at most l^2 states.  Both words exist when the pair generates an
    alternating group on at least 4 letters that include 1 and 2.
    """
    gens = [g.images for g in pair] + [g.inverse().images for g in pair]
    words = {(1, 2): ()}
    queue = deque(words)
    to_one = fix_one = None
    while queue and (to_one is None or fix_one is None):
        state = queue.popleft()
        for i, g in enumerate(gens):
            image = (g[state[0] - 1], g[state[1] - 1])
            if image in words:
                continue
            words[image] = word = (i,) + words[state]
            queue.append(image)
            if to_one is None and image[1] == 1:
                to_one = word
            if fix_one is None and image[0] == 1:
                fix_one = word
    return to_one, fix_one


def _peeled_witnesses(z: Portrait, p: Portrait, spine: list) -> Iterator[Portrait]:
    """The witnesses c_2, c_3, ... of ``_branch_certifies``, as one running product.

    c_2 = [z, p] carries one commutator label at each vertex 1^{i-1} 2.
    Peel t turns c_{t+2} into c_{t+3}: it conjugates p by an r_t that fixes
    1^t and acts there by a label fixing letter 1 and moving letter 2, so
    [c, r_t p r_t^-1] drops the label at 1^t 2 and keeps those below
    1^{t+1}.  r_t is a ``_peel_words`` word in q x q^-1 and q y q^-1, for
    the pair (x, y) at v of entry t of ``spine``, and q is built the same
    way one peel earlier so that it maps 1^{t-1} 2 to 1^t.  Each c_k is
    built only when asked for: a pair is peeled after its check (a) passed.
    """
    def value(word, x, y):  # the words are never empty
        letters = (x, y, x.inverse(), y.inverse())
        return functools.reduce(Portrait.__mul__, [letters[i] for i in word])

    def conj(g, h):  # g h g^-1
        return g * h * g.inverse()

    c = conj(z, p) * p.inverse()
    q = Portrait(z.seq, z.depth)
    yield c
    for v, (x, y) in spine:
        to_one, fix_one = _peel_words((x.labels[v], y.labels[v]))
        d = conj(conj(q, value(fix_one, x, y)), p)
        c = conj(c, d) * d.inverse()
        yield c
        q = conj(q, value(to_one, x, y))


def _on_subtree(portraits: list[Portrait], which: str) -> list[Portrait]:
    """The portraits on the subtree of letters <= l_i - s, as portraits over (l_i - s).

    With s the shift of ``which``, the invariant is that every label is even
    and fixes the letters above l - s, and only vertices whose letters are
    all <= l_i - s carry labels; every ``GROUPS`` row keeps it, and a label
    that breaks it raises RuntimeError.  The group then preserves the
    subtree, moves a vertex only through its prefix inside it, and so acts
    on level n as a subgroup of the iterated wreath product of the
    A_{l_i - s}.  Each label keeps its first l - s images, and an element
    trivial on the subtree is trivial: the restriction is faithful, with the
    same level orders.  For G (s = 0) only the evenness says anything.
    """
    shift = _group(which)[2]
    depth = portraits[0].depth
    sub = TreeSequence(l - shift for l in portraits[0].seq.valencies[:depth])
    out = []
    for p in portraits:
        labels = {}
        for v, perm in p.labels.items():
            top = perm.degree - shift  # the letters above top stay fixed
            if (not perm.is_even() or perm.images[top:] != tuple(range(top + 1, perm.degree + 1))
                    or any(x > p.seq[i] - shift for i, x in enumerate(v))):
                raise RuntimeError(f"label at {v} is odd or leaves the subtree of letters "
                                   f"<= l - {shift}; this contradicts the {which} generators")
            labels[v] = Permutation(perm.images[:top])
        out.append(Portrait(sub, depth, labels))
    return out


def _branch_certifies(portraits: list[Portrait], n: int) -> bool:
    """Whether rigid witnesses certify that |X_n| reaches the closed form, level by level.

    The portraits come from ``_on_subtree`` and their labels are even.  The
    domain is l_0 >= 4 and l_k >= 5 for 0 < k < n, at every level n >= 1.
    Level k takes the rooted pair at v = () for k = 1 and the spinal pair at
    v = (1, ..., 1, 2) of level k - 1 otherwise, with l = l_{k-1}:

    (a) the pair's labels at v generate A_l (``_pair_is_alternating``);
    (b) the pair fixes v, so it maps the block of level k under v onto
        itself by exactly those labels;
    (c) for k >= 2, c_k of ``_peeled_witnesses`` has one label above level
        k, at v: it is nontrivial on that block and fixes the rest of level k.

    Level 1 is all of A_l by (a) and (b).  Below it, c_k lies in the kernel
    of X_k -> X_{k-1}, and the kernel's elements supported on the block
    form a subgroup normalized by the stabilizer of v, which acts on the
    block as A_l.  That group is simple, so the subgroup is all of A_l;
    X_{k-1} is the full wreath product and moves v to every vertex, so the
    kernel holds A_l on each of its m_{k-1} blocks, the most the labels
    allow.  So |X_n| = prod (l!/2)^{m_{k-1}}, the closed form.
    """
    valencies = portraits[0].seq.valencies[:n]
    if valencies[0] < 4 or any(l < 5 for l in valencies[1:]):
        return False
    a, b, z, p = portraits
    spine = [((), (a, b))] + [((1,) * (k - 2) + (2,), (z, p)) for k in range(2, n + 1)]
    witnesses = _peeled_witnesses(z, p, spine[:max(n - 2, 0)])
    for k, (v, gens) in enumerate(spine, start=1):
        if (not _pair_is_alternating(tuple(g.labels[v] for g in gens))
                or any(g.apply(v) != v for g in gens)):
            return False
        if k >= 2 and [u for u in next(witnesses).labels if len(u) < k] != [v]:
            return False
    return True


class LevelActionReport(NamedTuple):
    sequence: tuple[int, ...]
    level: int
    group: str
    expected: int
    measured: int
    match: bool
    seed: int
    degree: int
    elapsed_ms: float = 0.0
    certificate: str = "schreier"


def verify_level_action(
    seq: TreeSequence,
    n: int,
    which: str = "G",
    seed: int = 0,
    degree_cap: int = _DEGREE_CAP,
) -> LevelActionReport:
    """Compare the generated level-n action against the closed-form order.

    The labels bound the order by the closed form (``_on_subtree``), so it
    is counted on the m'_n points of their subtree: in the branch domain of
    ``_branch_certifies`` (l_0 - s >= 4 and l_k - s >= 5 for 0 < k < n, at
    every level n >= 1) rigid witnesses certify measured = expected,
    certificate ``"branch"``, and at level 1 that is the root pair's chain
    of degree l_0 - s alone; otherwise, or when a branch check fails, a
    seeded chain on the m'_n points counts it, ``"order-bound"`` when it
    reaches the bound and ``"schreier"`` when an exhaustive pass certifies
    less.  ``seed`` reaches only that chain.  ``degree`` is m_n, and
    ``degree_cap`` applies to it.
    """
    if degree_cap < 1:
        raise ValueError(f"degree cap must be at least 1, got {degree_cap}")
    if n < 1 or n > len(seq):
        raise ValueError(f"level {n} outside 1..{len(seq)}")
    degree = seq.level_size(n)
    DegreeCapExceeded.refuse_above(
        degree, degree_cap, f"level {n} action has degree {degree} > cap {degree_cap}")
    start = time.perf_counter()
    shift = _group(which)[2]
    if shift:
        _require_subgroup_side(seq, n)
    expected = exact_wreath_order(tuple(l - shift for l in seq.valencies[:n]))
    portraits = _on_subtree(spinal_group_portraits(seq, n, which), which)
    if _branch_certifies(portraits, n):
        measured, certificate = expected, "branch"
    else:
        chain = StabilizerChain([p.level_permutation(n) for p in portraits], seed=seed,
                                order_bound=expected)
        measured, certificate = chain.order(), chain.certificate
    elapsed = (time.perf_counter() - start) * 1000.0
    return LevelActionReport(
        sequence=seq.valencies,
        level=n,
        group=which,
        expected=expected,
        measured=measured,
        match=expected == measured,
        seed=seed,
        degree=degree,
        elapsed_ms=elapsed,
        certificate=certificate,
    )
