"""Finite-depth tree automorphisms as labeled portraits.

A portrait of depth N over a tree sequence assigns to each vertex of level
< N a permutation of its children; only non-identity labels are stored.
The automorphism moves a path top-down: letter x_i is sent through the
label found at the source prefix (x_1, ..., x_{i-1}), so for g applied to
yz the image is g(y) followed by the section of g at y applied to z.
"""

from __future__ import annotations

from .perms import Permutation, alt_generators, embedded_alt_generators
from .trees import TreeSequence, Vertex

# Each group once: its rooted pair of degree l, its two spinal kinds and its
# shift s.  H is G's construction with every A_l replaced by the A_{l-s}
# on the first l - s letters.
GROUPS = {
    "G": (alt_generators, ("zeta", "psi"), 0),
    "H": (embedded_alt_generators, ("xi", "theta"), 2),
}
# spinal kind -> (pair function, index of its label in the pair)
SPINAL_KINDS = {kind: (pair, index) for pair, kinds, _ in GROUPS.values()
                for index, kind in enumerate(kinds)}


class Portrait:
    """Automorphism of the depth-N truncation of a rooted tree."""

    __slots__ = ("seq", "depth", "labels")

    def __init__(self, seq: TreeSequence, depth: int, labels=None):
        if not 0 <= depth <= len(seq):
            raise ValueError(f"depth {depth} outside 0..{len(seq)}")
        self.seq = seq
        self.depth = depth
        clean: dict[Vertex, Permutation] = {}
        for v, perm in (labels or {}).items():
            v = tuple(v)
            if len(v) >= depth:
                raise ValueError(f"label at level {len(v)} but depth is {depth}")
            seq.validate_vertex(v)
            if perm.degree != seq[len(v)]:
                raise ValueError(
                    f"label degree {perm.degree} at level {len(v)} should be {seq[len(v)]}"
                )
            if not perm.is_identity():
                clean[v] = perm
        self.labels = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def rooted(cls, perm: Permutation, seq: TreeSequence, depth: int) -> "Portrait":
        """Portrait whose only label is ``perm`` at the root."""
        if depth < 1:
            raise ValueError("rooted portrait needs depth >= 1")
        return cls(seq, depth, {(): perm})

    @classmethod
    def spinal(cls, kind: str, seq: TreeSequence, depth: int) -> "Portrait":
        """One of the recursive generators zeta, psi, xi, theta.

        The label at the spine vertex (1, ..., 1, 2) of level k acts on its
        l_k children: tau/sigma for zeta/psi, kappa/rho for xi/theta.  All
        other labels are the identity, so the portrait stabilizes level 1
        and its section at the first child is the same generator one level
        down.
        """
        if kind not in SPINAL_KINDS:
            raise ValueError(f"unknown spinal kind {kind!r}")
        if not 1 <= depth <= len(seq):
            raise ValueError(f"spinal depth {depth} outside 1..{len(seq)}")
        pair, index = SPINAL_KINDS[kind]
        labels = {(1,) * (k - 1) + (2,): pair(seq[k])[index] for k in range(1, depth)}
        return cls(seq, depth, labels)

    # -- basic queries -----------------------------------------------------

    def apply(self, v: Vertex) -> Vertex:
        """Image of a vertex, walking the source path from the root."""
        v = tuple(v)
        if len(v) > self.depth:
            raise ValueError(f"vertex level {len(v)} exceeds depth {self.depth}")
        self.seq.validate_vertex(v)
        out = []
        for i, x in enumerate(v):
            label = self.labels.get(v[:i])
            out.append(label(x) if label is not None else x)
        return tuple(out)

    def level_permutation(self, n: int) -> Permutation:
        """The permutation induced on the lexicographically indexed level n.

        Built a level at a time on 0-based indices: child x of the vertex
        with index i has index i*l + x, and goes to child label(x) of the
        image of i, where label sits at the source vertex.
        """
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} exceeds depth {self.depth}")
        labels: list[dict[int, tuple[int, ...]]] = [{} for _ in range(n)]
        for v, perm in self.labels.items():
            if len(v) < n:
                labels[len(v)][self.seq.vertex_index(v) - 1] = perm.images
        images = [0]
        for l, level_labels in zip(self.seq, labels):
            nxt = []
            for i, image in enumerate(images):
                first = image * l
                label = level_labels.get(i)
                if label is None:
                    nxt.extend(range(first, first + l))
                else:
                    nxt.extend(first + y - 1 for y in label)
            images = nxt
        return Permutation(tuple(x + 1 for x in images))

    def __repr__(self) -> str:
        return f"Portrait(depth={self.depth}, labels={len(self.labels)})"

    # -- serialization -----------------------------------------------------

    def dump_lines(self) -> list[str]:
        """One line per non-identity label: "level path: cycles"."""
        out = []
        for v in sorted(self.labels):
            path = ",".join(str(x) for x in v) if v else "-"
            out.append(f"{len(v)} {path}: {self.labels[v].cycle_string()}")
        return out

    def dump_records(self) -> list[dict]:
        return [
            {"level": len(v), "path": list(v), "cycles": self.labels[v].cycle_string()}
            for v in sorted(self.labels)
        ]

