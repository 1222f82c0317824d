"""Order oracle for permutation groups (Schreier-Sims).

The chain is built by a seeded randomized fill (product replacement) and
then certified in one of two ways, so the final structure is exact
regardless of what the randomized phase did:

- ``"order-bound"``: the fill reached a proven upper bound on the order,
  the caller's or else m!.  Every transversal element is a group element,
  so the product of the orbit lengths is a lower bound on the order; when
  it equals the upper bound the chain is complete (known-order
  Schreier-Sims, Seress, *Permutation Group Algorithms*, ch. 4).
- ``"schreier"``: an exhaustive Schreier-generator verification pass.
  Any witness it finds is fed back in and the pass is rerun until it
  comes back clean.

The verification pass is the expensive part.  It sends the Schreier
generators of each level one at a time through the same ``_sift`` walk
that adding a generator uses, starting at that level.  The chain does not
change during a pass, so the pass's work is known before it sifts
anything: generators x orbit x levels walked x degree, summed over the
levels.  Each chain adds that charge to a running total over its passes
and refuses with :class:`~spinaldim.errors.BudgetExceeded` once the total
would exceed ``_VERIFY_WORK_LIMIT``.  What a chain stores is bounded the
same way: each coset representative it stores charges its ``degree``
entries before it is built, and the chain refuses once the total would
exceed ``_STORED_ENTRY_LIMIT``.

Internally permutations are 0-based tuples, composed and inverted by the
kernel of :mod:`spinaldim.perms`; the public API speaks
:class:`~spinaldim.perms.Permutation`.  Each orbit grows by a FIFO
breadth-first search that gathers the level's generators only once the
new generator has produced a new point.  Each level stores only the
inverses u_b^-1 of its coset representatives, since sifting reads nothing
else; every strong generator keeps its inverse beside it, so each new
u_b^-1 is one composition.  The verification pass derives the forward u_b
of the level it is checking by inverting those rows.
"""

from __future__ import annotations

import math
from collections import deque
from random import Random

from .errors import BudgetExceeded
from .perms import Permutation, _inv, _is_id, _mul

_EXIT_ROUNDS = 16
_MAX_WITNESSES_PER_PASS = 64
# largest work, generators x orbit x levels walked x degree summed over the
# levels and the passes, of one chain's verification
_VERIFY_WORK_LIMIT = 1 << 33
# largest number of entries, degree x coset representatives over the levels,
# that one chain stores
_STORED_ENTRY_LIMIT = 1 << 25


class _Level:
    __slots__ = ("base", "gens", "inv_gens", "inv_transversal")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.inv_gens: list[tuple[int, ...]] = []  # inv_gens[k] inverts gens[k]
        self.inv_transversal: dict[int, tuple[int, ...]] = {}


class StabilizerChain:
    """Base, transversals and strong generators for a permutation group.

    ``order_bound`` is a proven upper bound on the generated group's order,
    m! = |S_m| for degree m unless the caller proves less.  A chain that
    reaches it skips the verification pass; one that exceeds it raises
    ValueError.  ``certificate`` names its proof: ``"order-bound"`` or ``"schreier"``.
    """

    def __init__(self, generators, seed: int = 0, order_bound: int | None = None):
        gens = list(generators)
        if not gens:
            raise ValueError("the generator list is empty")
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"degree mismatch: {g.degree} != {degree}")
        self.degree = degree
        self._identity = tuple(range(degree))
        self._levels: list[_Level] = []
        self._rng = Random(seed)
        self._order_bound = order_bound = order_bound or math.factorial(degree)
        self._verify_work = 0
        self._stored_entries = 0
        self.seed = seed

        raw = [tuple(x - 1 for x in g.images) for g in gens]
        raw = [g for g in raw if not _is_id(g)]
        grown = self.order()
        for g in raw:
            self._add(g)
        self._randomized_fill()
        # refill while the generators and the last fill still grew the order
        while grown < self.order() < order_bound:
            grown = self.order()
            self._randomized_fill()
        self._check_bound(order_bound)
        if self.order() == order_bound:
            self.certificate = "order-bound"
            return
        self.certificate = "schreier"
        while True:
            witnesses = self._verify_pass()
            if not witnesses:
                break
            for w in witnesses:
                self._add(w)
            self._randomized_fill()
        self._check_bound(order_bound)

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        return math.prod(len(lv.inv_transversal) for lv in self._levels)

    def base(self) -> tuple[int, ...]:
        """Base points, 1-based."""
        return tuple(lv.base + 1 for lv in self._levels)

    def strong_generators(self) -> list[Permutation]:
        return [Permutation(tuple(x + 1 for x in g)) for lv in self._levels for g in lv.gens]

    # -- construction ----------------------------------------------------

    def _check_bound(self, order_bound: int) -> None:
        if self.order() > order_bound:
            raise ValueError(
                f"chain order {self.order()} exceeds the claimed bound {order_bound}"
            )

    def _sift(self, g: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Reduce g through the chain from level ``start``; returns (residue, stuck_level).

        g must fix the base points of the levels above ``start``.
        """
        for i, lv in enumerate(self._levels[start:], start):
            b = g[lv.base]
            if b == lv.base:
                continue
            u_inv = lv.inv_transversal.get(b)
            if u_inv is None:
                return g, i
            g = _mul(u_inv, g)
        return g, len(self._levels)

    def _add(self, g: tuple[int, ...]) -> bool:
        residue, level = self._sift(g)
        if _is_id(residue):
            return False
        if level == len(self._levels):
            base = min(i for i, y in enumerate(residue) if y != i)
            lv = _Level(base)
            lv.inv_transversal[base] = self._identity
            self._levels.append(lv)
        residue_inv = _inv(residue)
        self._levels[level].gens.append(residue)
        self._levels[level].inv_gens.append(residue_inv)
        for i in range(level, -1, -1):
            self._extend_orbit(i, residue, residue_inv)
        return True

    def _pairs_at(self, level: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """The strong generators from ``level`` down, each paired with its inverse."""
        return [pair for lv in self._levels[level:] for pair in zip(lv.gens, lv.inv_gens)]

    def _extend_orbit(self, level: int, new_gen: tuple[int, ...],
                      new_inv: tuple[int, ...]) -> None:
        """Grow the level's orbit after new_gen joined its generating set.

        Only inverses are stored: a new point b = g(a) has u_b = g u_a, so
        u_b^-1 = u_a^-1 g^-1 is one composition.  The verification pass
        recovers u_b from u_b^-1 when it needs it.  Each one is charged
        before it is built.
        """
        lv = self._levels[level]
        orbit = lv.inv_transversal
        queue = deque()
        for a in list(orbit):
            b = new_gen[a]
            if b not in orbit:
                self._charge_entry()
                orbit[b] = _mul(orbit[a], new_inv)
                queue.append(b)
        if not queue:
            return
        pairs = self._pairs_at(level)
        while queue:
            a = queue.popleft()
            u_a_inv = orbit[a]
            for g, g_inv in pairs:
                b = g[a]
                if b not in orbit:
                    self._charge_entry()
                    orbit[b] = _mul(u_a_inv, g_inv)
                    queue.append(b)

    def _charge_entry(self) -> None:
        """Add one stored coset representative, ``degree`` entries, to the chain's total."""
        self._stored_entries += self.degree
        BudgetExceeded.refuse_above(
            self._stored_entries, _STORED_ENTRY_LIMIT,
            f"stabilizer chain would store {self._stored_entries} entries (degree x coset "
            f"representatives; limit {_STORED_ENTRY_LIMIT})")

    def _randomized_fill(self) -> None:
        """Add random products until ``_EXIT_ROUNDS`` in a row sift away.

        The fill also stops after its round limit, and once the order meets
        the order bound, since every later add is a full sift that cannot
        succeed.  The order changes only when an add succeeds, so only then
        is it compared with the bound.
        """
        bound = self._order_bound
        gens = [g for g, _ in self._pairs_at(0)]
        if not gens or self.order() == bound:
            return
        slots = gens + [self._identity] * 3
        stall = 0
        rounds = 0
        max_rounds = 200 + 40 * len(gens)
        while stall < _EXIT_ROUNDS and rounds < max_rounds:
            rounds += 1
            i = self._rng.randrange(len(slots))
            j = self._rng.randrange(len(slots))
            if i == j:
                continue
            other = slots[j]
            if self._rng.randrange(2):
                other = _inv(other)
            slots[i] = _mul(slots[i], other)
            if self._add(slots[i]):
                if self.order() == bound:
                    return
                stall = 0
            else:
                stall += 1

    # -- verification ----------------------------------------------------

    def _verify_pass(self) -> list[tuple[int, ...]]:
        """Sift every Schreier generator u_{s(a)}^-1 s u_a at every level.

        At level i, for each orbit point a in dict order and each strong
        generator s from level i down, s u_a is sifted from level i: it
        fixes the bases above, and the walk's first step there leaves the
        Schreier generator.  Returns the distinct nonidentity residues in
        the order found, stopping as soon as there are
        ``_MAX_WITNESSES_PER_PASS``.  An empty list proves the chain exact:
        by Schreier's lemma each stabilizer is then generated by the next
        level's strong generators.  The pass's work is charged before
        anything is sifted.
        """
        levels = len(self._levels)
        self._verify_work += sum(
            len(self._pairs_at(i)) * len(lv.inv_transversal) * (levels - i) * self.degree
            for i, lv in enumerate(self._levels))
        BudgetExceeded.refuse_above(
            self._verify_work, _VERIFY_WORK_LIMIT,
            f"Schreier verification needs work {self._verify_work} (generators x orbit "
            f"x levels walked x degree over its passes; limit {_VERIFY_WORK_LIMIT})")
        identity = self._identity
        sift = self._sift
        witnesses: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for i, lv in enumerate(self._levels):
            gens = [g for g, _ in self._pairs_at(i)]
            for u_inv in lv.inv_transversal.values():
                u = _inv(u_inv)
                for s in gens:
                    residue = sift(_mul(s, u), i)[0]
                    if residue != identity and residue not in seen:
                        seen.add(residue)
                        witnesses.append(residue)
                        if len(witnesses) == _MAX_WITNESSES_PER_PASS:
                            return witnesses
        return witnesses
