"""Immutable simple graphs over bit-row adjacency, and the switching operation.

Vertices are 0..n-1.  Row v is an int whose bit u is set iff uv is an edge.
All operations return fresh graphs; nothing mutates in place, so values are
safe to share and to use as dict keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .errors import SizeMismatch

MAX_VERTICES = 4096

VertexSetLike = Union["VertexSet", Iterable[int], int]


class VertexSet:
    """A subset of the vertices of an n-vertex graph, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, members: Iterable[int] | int = 0):
        if isinstance(members, int):
            mask = members
        else:
            mask = 0
            for v in members:
                mask |= 1 << v
        if mask < 0 or mask >> n:
            raise IndexError(f"vertex set not contained in 0..{n - 1}")
        self.n = n
        self.mask = mask

    def __iter__(self) -> Iterator[int]:
        return iter(bits_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {sorted(self)})"

    def complement(self) -> "VertexSet":
        return VertexSet(self.n, ((1 << self.n) - 1) & ~self.mask)


def bits_of(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(g: "Graph", a: VertexSetLike) -> int:
    """Normalize a vertex-set argument to a bitmask bound to ``g``."""
    if isinstance(a, VertexSet):
        if a.n != g.n:
            raise SizeMismatch(f"vertex set bound to n={a.n}, graph has n={g.n}")
        return a.mask
    if isinstance(a, int):
        mask = a
    else:
        mask = 0
        for v in a:
            if not 0 <= v < g.n:
                raise IndexError(f"vertex {v} out of range 0..{g.n - 1}")
            mask |= 1 << v
    if mask < 0 or mask >> g.n:
        raise IndexError(f"vertex set not contained in 0..{g.n - 1}")
    return mask


class Graph:
    """Simple undirected graph; ``rows[v]`` is the neighborhood bitmask of v."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        self.n = n
        self.rows = rows

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, ())

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) for u in range(self.n) for v in bits_of(self.rows[u]) if u < v
        ]

    def neighbors(self, v: int) -> list[int]:
        return bits_of(self.rows[v])

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertex_set(self, members: Iterable[int] | int = 0) -> VertexSet:
        return VertexSet(self.n, members)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    # -- structural helpers ------------------------------------------------

    def components(self, mask: int | None = None) -> list[int]:
        """Connected components of G[mask] (the whole graph when mask is None)
        as bitmasks in this graph's own labels, ordered by smallest member."""
        rows = self.rows if mask is None else [r & mask for r in self.rows]
        seen = 0
        out = []
        for v in range(self.n) if mask is None else bits_of(mask):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = rows[v] & ~comp
            while frontier:
                comp |= frontier
                nxt = 0
                for u in bits_of(frontier):
                    nxt |= rows[u]
                frontier = nxt & ~comp
            seen |= comp
            out.append(comp)
        return out

    def is_clique_mask(self, mask: int) -> bool:
        for v in bits_of(mask):
            if mask & ~self.rows[v] & ~(1 << v):
                return False
        return True

    def is_independent_mask(self, mask: int) -> bool:
        for v in bits_of(mask):
            if mask & self.rows[v]:
                return False
        return True


# -- the switching operation and friends -----------------------------------


def switch(g: Graph, a: VertexSetLike) -> Graph:
    """Reverse all adjacencies between ``a`` and the rest of the graph."""
    amask = mask_of(g, a)
    if amask == 0 or amask == g.full_mask():
        return Graph(g.n, g.rows)
    co = g.full_mask() & ~amask
    rows = tuple(
        r ^ co if amask >> v & 1 else r ^ amask for v, r in enumerate(g.rows)
    )
    return Graph(g.n, rows)


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    rows = tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows))
    return Graph(g.n, rows)


def induced(g: Graph, u: VertexSetLike) -> Graph:
    """Subgraph induced by ``u``, relabeled to 0..|u|-1 preserving order."""
    umask = mask_of(g, u)
    verts = bits_of(umask)
    index = {v: i for i, v in enumerate(verts)}
    rows = []
    for v in verts:
        row = 0
        for w in bits_of(g.rows[v] & umask):
            row |= 1 << index[w]
        rows.append(row)
    return Graph(len(verts), tuple(rows))


def is_module(g: Graph, m: VertexSetLike) -> bool:
    """True iff all members of ``m`` have the same neighborhood outside ``m``."""
    mmask = mask_of(g, m)
    verts = bits_of(mmask)
    if len(verts) <= 1:
        return True
    outside = ~mmask
    first = g.rows[verts[0]] & outside
    return all(g.rows[v] & outside == first for v in verts[1:])


def disjoint_union(*graphs: Graph) -> Graph:
    n = sum(g.n for g in graphs)
    rows: list[int] = []
    shift = 0
    for g in graphs:
        rows.extend(r << shift for r in g.rows)
        shift += g.n
    return Graph(n, tuple(rows))
