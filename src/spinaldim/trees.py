"""Spherically homogeneous rooted trees given by a valency sequence.

A tree is described by the finite prefix (l_0, ..., l_{N-1}) of its valency
sequence: every vertex at distance n from the root has l_n children.  A
vertex at level n is a path (x_1, ..., x_n) of 1-based letters with
1 <= x_i <= l_{i-1}.  Level n holds m_n = l_0 * ... * l_{n-1} vertices, and
the mixed-radix index below enumerates them in lexicographic order.

Everything here is immutable and 1-based, matching cycle notation for the
permutations that act on the letters.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

Vertex = tuple[int, ...]


class TreeSequence:
    """Finite prefix of a valency sequence, each entry >= 3.

    Instances are immutable values: equal exactly when their classes and
    valencies are.
    """

    __slots__ = ("valencies",)
    valencies: tuple[int, ...]

    def __init__(self, valencies) -> None:
        vals = tuple(int(v) for v in valencies)
        object.__setattr__(self, "valencies", vals)
        for v in vals:
            if v < 3:
                raise ValueError(f"valency {v} < 3 makes the level action trivial")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.valencies == other.valencies

    def __hash__(self) -> int:
        return hash((self.valencies,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(valencies={self.valencies!r})"

    @classmethod
    def from_text(cls, text: str) -> "TreeSequence":
        """Parse a comma-separated list such as "5,13,133"."""
        parts = [p.strip() for p in text.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty valency sequence")
        return cls(tuple(int(p) for p in parts))

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.valencies)

    def __len__(self) -> int:
        return len(self.valencies)

    def __iter__(self) -> Iterator[int]:
        return iter(self.valencies)

    def __getitem__(self, i: int) -> int:
        return self.valencies[i]

    def _check_level(self, n: int) -> None:
        if not 0 <= n <= len(self.valencies):
            raise ValueError(
                f"level {n} out of range for sequence of length {len(self.valencies)}"
            )

    def level_size(self, n: int) -> int:
        """Number of vertices at level n: the product of the first n valencies."""
        self._check_level(n)
        m = 1
        for v in self.valencies[:n]:
            m *= v
        return m

    def validate_vertex(self, v: Vertex) -> None:
        self._check_level(len(v))
        for i, x in enumerate(v):
            if not 1 <= x <= self.valencies[i]:
                raise ValueError(f"letter {x} at position {i} outside 1..{self.valencies[i]}")

    def vertex_index(self, v: Vertex) -> int:
        """Position of v in the lexicographic enumeration of its level, 1-based."""
        self.validate_vertex(v)
        idx = 0
        for i, x in enumerate(v):
            idx = idx * self.valencies[i] + (x - 1)
        return idx + 1

    def vertices(self, n: int) -> Iterator[Vertex]:
        """All level-n vertices in lexicographic order."""
        self._check_level(n)
        ranges = [range(1, v + 1) for v in self.valencies[:n]]
        return iter(product(*ranges))
