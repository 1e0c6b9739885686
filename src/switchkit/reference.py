"""Naive reference recognizers for the base graph classes.

These are the correctness anchors: forbidden-structure definitions executed
literally (hole searches, transitive-orientation forcing, Krausz partition,
minor tests).  They back the --oracle cross-check mode and the test suite;
nothing here is tuned for speed.
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, bits_of, complement
from .minors import has_minor
from .patterns import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    pattern,
)
from .search import find_induced_cycle, find_induced_embedding, is_free


def has_hole(g: Graph, min_len: int = 4, parity: int | None = None) -> bool:
    """Induced cycle of length >= min_len (optionally of fixed parity)."""
    for k in range(min_len, g.n + 1):
        if parity is not None and k % 2 != parity:
            continue
        if find_induced_cycle(g, k) is not None:
            return True
    return False


def _building(k: int) -> Graph:
    """C_k plus one chord between vertices at distance two."""
    base = cycle_graph(k)
    edges = base.edges() + [(0, 2)]
    return Graph.from_edges(k, edges)


def is_chordal(g: Graph) -> bool:
    return not has_hole(g, 4)


def is_weakly_chordal(g: Graph) -> bool:
    return not has_hole(g, 5) and not has_hole(complement(g), 5)


def is_distance_hereditary(g: Graph) -> bool:
    for name in ("domino", "gem", "house"):
        if not is_free(g, pattern(name)):
            return False
    return not has_hole(g, 5)


def is_meyniel(g: Graph) -> bool:
    if has_hole(g, 5, parity=1):
        return False
    for k in range(5, g.n + 1, 2):
        if find_induced_embedding(g, _building(k)) is not None:
            return False
    return True


def bipartition_sides(g: Graph, mask: int | None = None) -> tuple[int, int] | None:
    """The 2-coloring (side 0, side 1) of G[mask] (default all of V), or None
    on an odd cycle.  Side 0 holds the lowest vertex of each component."""
    rows = g.rows
    left = g.full_mask() if mask is None else mask
    sides = [0, 0]
    while left:
        layer = left & -left
        color = 0
        while layer:  # breadth-first, one layer per color flip
            sides[color] |= layer
            left &= ~layer
            reach = 0
            for v in bits_of(layer):
                reach |= rows[v]
            if reach & sides[color]:
                return None
            layer = reach & left
            color ^= 1
    return sides[0], sides[1]


def complete_bipartite_sides(g: Graph, mask: int) -> tuple[int, int] | None:
    """Sides of G[mask] if it is complete bipartite, else None.

    Degenerate sides are allowed: an edgeless G[mask] has every vertex on
    side 0.  Every side-0 vertex must see exactly side 1 within the mask,
    which also rejects a disconnected G[mask] with an edge.
    """
    sides = bipartition_sides(g, mask)
    if sides is None or any(g.rows[v] & mask != sides[1] for v in bits_of(sides[0])):
        return None
    return sides


def is_bipartite(g: Graph) -> bool:
    return bipartition_sides(g) is not None


def is_complete_bipartite(g: Graph) -> bool:
    """Complete bipartite, degenerate sides allowed (edgeless qualifies)."""
    return complete_bipartite_sides(g, g.full_mask()) is not None


def is_triangle_free(g: Graph) -> bool:
    for v in range(g.n):
        for u in bits_of(g.rows[v]):
            if u > v and g.rows[v] & g.rows[u]:
                return False
    return True


def _complete_multipartite_on(g: Graph, mask: int) -> bool:
    """G[mask] has no induced K2+K1: non-adjacency within mask is an
    equivalence relation, whose classes are the parts."""
    todo = mask
    while todo:
        part = mask & ~g.rows[(todo & -todo).bit_length() - 1]
        for u in bits_of(part):
            if mask & ~g.rows[u] != part:
                return False
        todo &= ~part
    return True


def is_complete_multipartite(g: Graph) -> bool:
    """No induced K2+K1: every co-component is an independent set."""
    return _complete_multipartite_on(g, g.full_mask())


def is_paw_free(g: Graph) -> bool:
    """A paw is K1 joined to K2+K1, so g is paw-free iff every neighbourhood
    induces a complete multipartite graph."""
    return all(_complete_multipartite_on(g, row) for row in g.rows)


def is_comparability(g: Graph) -> bool:
    """Transitive orientability via forcing (implication) classes.

    Arcs (a,b) and (a,c) force each other when bc is a non-edge, as do (a,b)
    and (c,b) when ac is a non-edge; the graph is a comparability graph iff
    no forcing class contains an arc together with its reverse.
    """
    arcs = [(u, v) for u in range(g.n) for v in bits_of(g.rows[u])]
    seen: set[tuple[int, int]] = set()
    for root in arcs:
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            a, b = stack.pop()
            for c in bits_of(g.rows[a] & ~g.rows[b] & ~(1 << b)):
                nxt = (a, c)
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
            for c in bits_of(g.rows[b] & ~g.rows[a] & ~(1 << a)):
                nxt = (c, b)
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        for a, b in comp:
            if (b, a) in comp:
                return False
        seen |= comp
    return True


def is_co_comparability(g: Graph) -> bool:
    return is_comparability(complement(g))


def is_permutation(g: Graph) -> bool:
    return is_comparability(g) and is_co_comparability(g)


def is_diamond_free(g: Graph) -> bool:
    return is_free(g, pattern("diamond"))


def is_block_graph(g: Graph) -> bool:
    return is_chordal(g) and is_diamond_free(g)


def is_line_graph(g: Graph) -> bool:
    """Krausz test: edges partition into cliques, each vertex in <= 2 of them."""
    edges = g.edges()
    if not edges:
        return True
    edge_index = {e: i for i, e in enumerate(edges)}
    all_covered = (1 << len(edges)) - 1

    def cliques_through(u: int, v: int, covered: int) -> list[int]:
        """Vertex masks of cliques containing edge uv with all pairs uncovered."""
        base = 1 << u | 1 << v
        cands = bits_of(g.rows[u] & g.rows[v])
        out = []

        def grow(mask: int, rest: list[int]) -> None:
            out.append(mask)
            for i, w in enumerate(rest):
                ok = True
                for x in bits_of(mask):
                    if not g.has_edge(w, x):
                        ok = False
                        break
                    e = (min(w, x), max(w, x))
                    if covered >> edge_index[e] & 1:
                        ok = False
                        break
                if ok:
                    grow(mask | 1 << w, rest[i + 1 :])

        grow(base, cands)
        return out

    def solve(covered: int, load: dict[int, int]) -> bool:
        if covered == all_covered:
            return True
        ei = next(i for i in range(len(edges)) if not covered >> i & 1)
        u, v = edges[ei]
        for clique in cliques_through(u, v, covered):
            members = bits_of(clique)
            if any(load.get(w, 0) >= 2 for w in members):
                continue
            add = 0
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    add |= 1 << edge_index[(min(a, b), max(a, b))]
            for w in members:
                load[w] = load.get(w, 0) + 1
            if solve(covered | add, load):
                return True
            for w in members:
                load[w] -= 1
        return False

    return solve(0, {})


@lru_cache(maxsize=4)
def _outerplanar_minors() -> tuple[Graph, Graph]:
    return complete_graph(4), complete_bipartite_graph(2, 3)


def is_outerplanar(g: Graph) -> bool:
    """Minor-based test ({K4, K_{2,3}}-minor-free); host capped at 8 vertices."""
    k4, k23 = _outerplanar_minors()
    return not has_minor(g, k4) and not has_minor(g, k23)


def is_threshold(g: Graph) -> bool:
    for name in ("2k2", "c4", "p4"):
        if not is_free(g, pattern(name)):
            return False
    return True
