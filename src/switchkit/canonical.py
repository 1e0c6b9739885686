"""Canonical forms for tiny graphs, switching classes, switching equivalence.

The canonical form is the lexicographically smallest upper-triangle bit
encoding over the leaves of an individualization-refinement tree, not over
all n! vertex relabelings (the two minima differ on 190 of the 207 graphs
with 2 to 6 vertices).  The search refines a vertex coloring (degree, then
iterated neighbor-color multisets) and branches only inside the first
non-singleton color cell; since refinement commutes with relabeling, the set
of leaf codes, and so its minimum, is relabeling-invariant.

Twins are pruned: when u and v share a cell and N(u) - v == N(v) - u, the
transposition (u v) is an automorphism fixing every individualized vertex,
so the subtree below v holds the same leaf codes as the one below u, and
only one vertex per twin class of the target cell is branched on.  This
keeps edgeless, complete and complete multipartite graphs at a handful of
leaves instead of n! of them.
Capped at n <= 10: nothing in this artifact needs isomorphism beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SizeMismatch, TooLarge
from .graph import Graph, VertexSet, bits_of, switch

CANONICAL_CAP = 10

CanonicalForm = bytes


def _refine(rows: tuple[int, ...], colors: list[int]) -> list[int]:
    n = len(colors)
    while True:
        keys = []
        for v in range(n):
            nbr = sorted(colors[u] for u in bits_of(rows[v]))
            keys.append((colors[v], tuple(nbr)))
        order = sorted(set(keys))
        rank = {k: i for i, k in enumerate(order)}
        new = [rank[keys[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def _encode(rows: tuple[int, ...], perm: list[int]) -> int:
    # perm[i] = original vertex placed at position i; upper triangle row-major.
    n = len(perm)
    code = 0
    for i in range(n):
        ri = rows[perm[i]]
        for j in range(i + 1, n):
            code = (code << 1) | (ri >> perm[j] & 1)
    return code


def _canonical_code(g: Graph) -> int:
    n = g.n
    if n <= 1:
        return 0
    rows = g.rows
    best: list[int | None] = [None]

    def descend(colors: list[int]) -> None:
        colors = _refine(rows, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            code = _encode(rows, perm)
            if best[0] is None or code < best[0]:
                best[0] = code
            return
        tried: list[int] = []
        for v in target:
            rv = rows[v]
            if any(rows[u] & ~(1 << v) == rv & ~(1 << u) for u in tried):
                continue  # a twin of a tried vertex: same leaf codes
            tried.append(v)
            branched = [c + 1 for c in colors]
            branched[v] = 0
            descend(branched)

    descend([0] * n)
    assert best[0] is not None
    return best[0]


def _form(g: Graph) -> CanonicalForm:
    nbits = g.n * (g.n - 1) // 2
    return bytes([g.n]) + _canonical_code(g).to_bytes((nbits + 7) // 8 or 1, "big")


@lru_cache(maxsize=1 << 18)
def _canonical_cached(n: int, rows: tuple[int, ...]) -> CanonicalForm:
    return _form(Graph(n, rows))


def canonical_form(g: Graph) -> CanonicalForm:
    """Relabeling-invariant byte string; equal iff the graphs are isomorphic."""
    if g.n > CANONICAL_CAP:
        raise TooLarge(f"canonical form capped at n <= {CANONICAL_CAP}, got {g.n}")
    return _canonical_cached(g.n, g.rows)


def canonical_graph(form: CanonicalForm) -> Graph:
    """Rebuild the representative graph encoded by a canonical form."""
    n = form[0]
    code = int.from_bytes(form[1:], "big")
    nbits = n * (n - 1) // 2
    rows = [0] * n
    pos = nbits - 1
    for i in range(n):
        for j in range(i + 1, n):
            if code >> pos & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return Graph(n, tuple(rows))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


@dataclass(frozen=True)
class SwitchingClass:
    """All graphs switching-equivalent to a seed, up to isomorphism."""

    n: int
    members: dict[CanonicalForm, Graph]

    def forms(self) -> set[CanonicalForm]:
        return set(self.members)

    def representatives(self) -> list[Graph]:
        return [self.members[f] for f in sorted(self.members)]

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, g: Graph) -> bool:
        return g.n == self.n and canonical_form(g) in self.members


def switching_class(g: Graph) -> SwitchingClass:
    """Enumerate S(G): one representative per isomorphism class of switches.

    Only subsets avoiding vertex 0 are switched; S(G,A) = S(G,V\\A) makes the
    rest redundant.  The switches are pairwise distinct labelled graphs, so
    their forms bypass the canonical-form cache, which they would only fill.
    """
    if g.n > CANONICAL_CAP:
        raise TooLarge(f"switching class capped at n <= {CANONICAL_CAP}, got {g.n}")
    members: dict[CanonicalForm, Graph] = {}
    top = 1 << max(g.n - 1, 0)
    for half in range(top):
        s = switch(g, half << 1)
        members.setdefault(_form(s), s)
    return SwitchingClass(g.n, members)


def are_switching_equivalent(g: Graph, h: Graph) -> bool:
    """Whether h is isomorphic to some switch of g.

    By vertex isolation (Colbourn & Corneil 1980): switching at N(v)
    isolates v, and each labelled switching class holds exactly one graph
    with v isolated, so g ~ h iff g isolated at vertex 0 is isomorphic to h
    isolated at some vertex w.  That takes n + 1 canonical forms, not the
    2^(n-1) switches of the whole class.
    """
    if g.n != h.n:
        raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
    if g.n > CANONICAL_CAP:
        raise TooLarge(f"switching equivalence capped at n <= {CANONICAL_CAP}")
    if g.n == 0:
        return True
    target = canonical_form(switch(g, g.rows[0]))
    return any(canonical_form(switch(h, row)) == target for row in h.rows)


def switching_witness(g: Graph, h: Graph) -> VertexSet | None:
    """The A avoiding vertex 0 with S(g, A) == h exactly (not up to
    isomorphism), else None.  Vertex 0 sees N_g(0) ^ A in S(g, A), so
    A = N_g(0) ^ N_h(0) is the one candidate."""
    if g.n != h.n:
        raise SizeMismatch(f"orders differ: {g.n} vs {h.n}")
    a = g.rows[0] ^ h.rows[0] if g.n else 0
    return VertexSet(g.n, a) if switch(g, a) == h else None
