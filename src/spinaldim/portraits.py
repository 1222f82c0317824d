"""Finite-depth tree automorphisms as labeled portraits.

A portrait of depth N over a tree sequence assigns to each vertex of level
< N a permutation of its children; only non-identity labels are stored.
The automorphism moves a path top-down: letter x_i is sent through the
label found at the source prefix (x_1, ..., x_{i-1}), so for g applied to
yz the image is g(y) followed by the section of g at y applied to z.

Composition follows the package convention (right factor acts first):
the label of p * q at vertex u is label_p(q(u)) * label_q(u).
"""

from __future__ import annotations

from .perms import Permutation, alt_generators, embedded_alt_generators
from .trees import TreeSequence, Vertex

SPINAL_KINDS = ("zeta", "psi", "xi", "theta")


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
    def identity(cls, seq: TreeSequence, depth: int) -> "Portrait":
        return cls(seq, depth)

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
        labels = {}
        for k in range(1, depth):
            degree = seq[k]
            if kind in ("xi", "theta") and degree < 5:
                raise ValueError("xi/theta need valencies >= 5 below the root")
            if kind == "zeta":
                perm = alt_generators(degree)[0]
            elif kind == "psi":
                perm = alt_generators(degree)[1]
            elif kind == "xi":
                perm = embedded_alt_generators(degree)[0]
            else:
                perm = embedded_alt_generators(degree)[1]
            labels[(1,) * (k - 1) + (2,)] = perm
        return cls(seq, depth, labels)

    # -- basic queries -----------------------------------------------------

    def label_at(self, v: Vertex) -> Permutation:
        v = tuple(v)
        got = self.labels.get(v)
        if got is not None:
            return got
        return Permutation.identity(self.seq[len(v)])

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

    def section(self, v: Vertex) -> "Portrait":
        """The automorphism induced on the subtree below the source vertex v."""
        v = tuple(v)
        self.seq.validate_vertex(v)
        if len(v) > self.depth:
            raise ValueError("section vertex below portrait depth")
        sub = self.seq.subtree_sequence(len(v))
        labels = {
            u[len(v):]: perm
            for u, perm in self.labels.items()
            if u[: len(v)] == v
        }
        return Portrait(sub, self.depth - len(v), labels)

    def level_permutation(self, n: int) -> Permutation:
        """The permutation induced on the lexicographically indexed level n."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} exceeds depth {self.depth}")
        images = [0] * self.seq.level_size(n)
        for i, v in enumerate(self.seq.vertices(n)):
            images[i] = self.seq.vertex_index(self.apply(v))
        return Permutation(tuple(images))

    def is_identity(self) -> bool:
        return not self.labels

    # -- group structure ---------------------------------------------------

    def _require_compatible(self, other: "Portrait") -> None:
        if self.seq.valencies != other.seq.valencies:
            raise ValueError("portraits live on different trees")
        if self.depth != other.depth:
            raise ValueError(f"depth mismatch: {self.depth} != {other.depth}")

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Composition, right factor acting first."""
        self._require_compatible(other)
        other_inv = other.inverse()
        candidates = set(other.labels)
        candidates.update(other_inv.apply(w) for w in self.labels)
        labels = {}
        for u in candidates:
            perm = self.label_at(other.apply(u)) * other.label_at(u)
            if not perm.is_identity():
                labels[u] = perm
        return Portrait(self.seq, self.depth, labels)

    def inverse(self) -> "Portrait":
        labels = {self.apply(v): perm.inverse() for v, perm in self.labels.items()}
        return Portrait(self.seq, self.depth, labels)

    def __pow__(self, n: int) -> "Portrait":
        if n < 0:
            return self.inverse() ** (-n)
        result = Portrait.identity(self.seq, self.depth)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def truncate(self, d: int) -> "Portrait":
        """Forget all labels at level >= d."""
        if not 0 <= d <= self.depth:
            raise ValueError(f"cannot truncate depth {self.depth} to {d}")
        labels = {v: p for v, p in self.labels.items() if len(v) < d}
        return Portrait(self.seq, d, labels)

    def equal_to_depth(self, other: "Portrait", d: int) -> bool:
        if self.seq.valencies != other.seq.valencies:
            raise ValueError("portraits live on different trees")
        if d > min(self.depth, other.depth):
            raise ValueError("comparison depth exceeds a portrait depth")
        return self.truncate(d).labels == other.truncate(d).labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, Portrait):
            return NotImplemented
        return (
            self.seq.valencies == other.seq.valencies
            and self.depth == other.depth
            and self.labels == other.labels
        )

    __hash__ = None

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


def embed_at(p: Portrait, v: Vertex, host: TreeSequence) -> Portrait:
    """Copy p into the subtree below v; the result acts trivially elsewhere.

    p must live on the subtree sequence of the host at level(v); the result
    has depth level(v) + depth(p).
    """
    v = tuple(v)
    host.validate_vertex(v)
    expected = host.subtree_sequence(len(v)).valencies[: p.depth]
    if p.seq.valencies[: p.depth] != expected:
        raise ValueError("portrait does not match the host subtree sequence")
    labels = {v + u: perm for u, perm in p.labels.items()}
    return Portrait(host, len(v) + p.depth, labels)
