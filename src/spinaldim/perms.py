"""Finite permutations and the alternating-group generator pairs.

Points are 1-based.  The composition convention is fixed once for the whole
package: in a product the right factor acts first, so (g * h)(x) = g(h(x))
and conjugation w = s**-2 * t * s**2 means "apply s**2, then t, then s**-2".

The kernel ``_mul``, ``_inv`` and ``_is_id`` works on the 0-based image
tuples that stabilizer chains compute in, composing in one C call
(``operator.itemgetter``).  :class:`Permutation` uses it too: a 1-based
table is the 0-based table, behind a fixed 0, of a permutation of 0..k.
"""

from __future__ import annotations

from operator import itemgetter


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product applying b first: (a*b)(x) = a(b(x))."""
    if len(b) < 2:
        # itemgetter of a single index returns the item, not a 1-tuple
        return tuple(a[x] for x in b)
    return itemgetter(*b)(a)


def _inv(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, y in enumerate(a):
        inv[y] = i
    return tuple(inv)


def _is_id(a: tuple[int, ...]) -> bool:
    return a == tuple(range(len(a)))


class Permutation:
    """A permutation of {1..k} stored as its image table.

    ``images[i]`` is the image of the point i + 1.  Instances are immutable
    values: equal exactly when their classes and image tables are.
    """

    __slots__ = ("images",)
    images: tuple[int, ...]

    def __init__(self, images) -> None:
        imgs = tuple(int(x) for x in images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError("image table is not a bijection on 1..k")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash((self.images,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(images={self.images!r})"

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        if k < 1:
            raise ValueError("degree must be at least 1")
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def from_cycles(cls, k: int, cycles) -> "Permutation":
        """Build a permutation of degree k from disjoint cycles of 1-based points."""
        images = list(range(1, k + 1))
        seen: set[int] = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            for p in cyc:
                if not 1 <= p <= k:
                    raise ValueError(f"point {p} outside 1..{k}")
                if p in seen:
                    raise ValueError(f"cycles overlap at point {p}")
                seen.add(p)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.degree:
            raise ValueError(f"point {x} outside 1..{self.degree}")
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with the right factor acting first."""
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} != {other.degree}")
        return Permutation(_mul((0, *self.images), other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_inv((0, *self.images))[1:])

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return _is_id((0, *self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Canonical cycle decomposition.

        Cycles are sorted by their smallest moved point and rotated to start
        at it; fixed points are omitted.
        """
        seen: set[int] = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.images[start - 1]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.images[nxt - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def parity(self) -> str:
        flips = sum(len(c) - 1 for c in self.cycles())
        return "even" if flips % 2 == 0 else "odd"

    def is_even(self) -> bool:
        return self.parity() == "even"


def alt_generators(k: int) -> tuple[Permutation, Permutation]:
    """A generating pair (tau, sigma) for the alternating group on 1..k.

    tau is always the 3-cycle ((k-2)(k-1)k).  For odd k, sigma is the full
    cycle (1 ... k).  A full cycle of even length is an odd permutation, so
    for even k sigma is replaced by an even permutation chosen so that
    sigma**-2 * tau * sigma**2 is still the 3-cycle ((k-4)(k-3)(k-2)):

        k = 4:        (1 2)(3 4)
        even k >= 6:  (1 k-2)(2 3 ... k-3 k-1 k)
    """
    if k < 4:
        raise ValueError("alternating generator pair needs degree >= 4")
    tau = Permutation.from_cycles(k, [(k - 2, k - 1, k)])
    if k % 2 == 1:
        sigma = Permutation.from_cycles(k, [tuple(range(1, k + 1))])
    elif k == 4:
        sigma = Permutation.from_cycles(k, [(1, 2), (3, 4)])
    else:
        long_cycle = tuple(range(2, k - 2)) + (k - 1, k)
        sigma = Permutation.from_cycles(k, [(1, k - 2), long_cycle])
    return tau, sigma


def embedded_alt_generators(k: int) -> tuple[Permutation, Permutation]:
    """The degree-(k-2) pair of alt_generators, fixing k-1 and k: (kappa, rho).

    So kappa is the 3-cycle ((k-4)(k-3)(k-2)), which equals
    sigma**-2 * tau * sigma**2 for the degree-k pair.  For k = 5, where
    alt_generators has no pair, both are the 3-cycle (1 2 3).
    """
    if k < 5:
        raise ValueError("embedded alternating pair needs degree >= 5")
    if k == 5:
        return (Permutation.from_cycles(k, [(1, 2, 3)]),) * 2
    tau, sigma = alt_generators(k - 2)
    return Permutation(tau.images + (k - 1, k)), Permutation(sigma.images + (k - 1, k))
