"""Induced-subgraph search: embeddings, F-free tests, induced paths/cycles.

All searches are deterministic backtracking over bitmask candidate sets.
Induced path/cycle search carries a node budget: exceeding it raises
BudgetExceeded rather than returning a wrong "absent".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .canonical import canonical_form, switching_class
from .errors import BudgetExceeded, TooLarge
from .graph import Graph, VertexSet, bits_of, induced

DEFAULT_BUDGET = 10**9


@lru_cache(maxsize=1 << 10)
def _embedding_order(h: Graph) -> tuple[int, ...]:
    """Order pattern vertices so each one touches the already-placed prefix."""
    if h.n == 0:
        return ()
    remaining = set(range(h.n))
    start = max(remaining, key=lambda v: (h.degree(v), -v))
    order = [start]
    remaining.remove(start)
    while remaining:
        placed_adj = {
            v: sum(1 for u in order if h.has_edge(u, v)) for v in remaining
        }
        nxt = max(remaining, key=lambda v: (placed_adj[v], h.degree(v), -v))
        order.append(nxt)
        remaining.remove(nxt)
    return tuple(order)


def find_induced_embedding(g: Graph, h: Graph) -> tuple[int, ...] | None:
    """A map image (image[i] hosts pattern vertex i) or None.

    The embedding is induced: non-edges of the pattern must map to non-edges.
    """
    if h.n > g.n:
        return None
    if h.n == 0:
        return ()
    order = _embedding_order(h)
    full = g.full_mask()
    hdeg = h.degrees()
    image: dict[int, int] = {}

    def extend(pos: int, cands: list[int]) -> bool:
        if pos == h.n:
            return True
        hv = order[pos]
        for gv in bits_of(cands[pos]):
            if g.degree(gv) < hdeg[hv]:
                continue
            image[hv] = gv
            nxt = list(cands)
            ok = True
            used = 1 << gv
            for later in range(pos + 1, h.n):
                hu = order[later]
                if h.has_edge(hu, hv):
                    nxt[later] &= g.rows[gv]
                else:
                    nxt[later] &= ~g.rows[gv] & ~used & full
                nxt[later] &= ~used
                if not nxt[later]:
                    ok = False
                    break
            if ok and extend(pos + 1, nxt):
                return True
            del image[hv]
        return False

    if extend(0, [full] * h.n):
        return tuple(image[i] for i in range(h.n))
    return None


def contains_induced(g: Graph, h: Graph) -> VertexSet | None:
    """Witness vertex set of an induced copy of h in g, or None."""
    emb = find_induced_embedding(g, h)
    if emb is None:
        return None
    return VertexSet(g.n, emb)


def is_free(g: Graph, h: Graph) -> bool:
    return find_induced_embedding(g, h) is None


class PatternFamily:
    """A finite set of forbidden graphs, deduplicated by canonical form."""

    def __init__(self, members: Iterable[Graph]):
        table: dict[bytes, Graph] = {}
        for m in members:
            table.setdefault(canonical_form(m), m)
        self._table = table
        # test small members first: they reject fastest
        self.members = sorted(table.values(), key=lambda m: (m.n, canonical_form(m)))

    def forms(self) -> set[bytes]:
        return set(self._table)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def is_family_free(g: Graph, fam: PatternFamily | Iterable[Graph]) -> bool:
    members = fam.members if isinstance(fam, PatternFamily) else list(fam)
    return all(is_free(g, h) for h in members)


def expand_switch_family(fam: PatternFamily | Iterable[Graph]) -> PatternFamily:
    """Close a forbidden family under switching (members capped at n <= 10)."""
    members = fam.members if isinstance(fam, PatternFamily) else list(fam)
    out: list[Graph] = []
    for h in members:
        if h.n > 10:
            raise TooLarge(f"cannot expand switching class of n={h.n} member")
        out.extend(switching_class(h).representatives())
    return PatternFamily(out)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("induced-pattern search budget exhausted")


def _degree_sorted(g: Graph) -> list[int]:
    return sorted(range(g.n), key=lambda v: (g.degree(v), v))


def find_induced_path(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """Vertex sequence of an induced P_k, or None.  Deterministic order:
    start and extension candidates ascend by (degree, index)."""
    if k < 1 or k > g.n:
        return None
    if k == 1:
        return (0,) if g.n else None
    order = _degree_sorted(g)
    tracker = _Budget(budget)
    full = g.full_mask()
    path: list[int] = []

    def extend(last: int, banned: int, depth: int) -> bool:
        # banned: closed neighborhoods of path[:-1] plus the path itself
        cands = g.rows[last] & ~banned & full
        if depth == k:
            for v in order:
                if cands >> v & 1:
                    tracker.spend()
                    path.append(v)
                    return True
            return False
        if (~(banned | 1 << last) & full).bit_count() < k - depth + 1:
            return False
        for v in order:
            if not cands >> v & 1:
                continue
            tracker.spend()
            path.append(v)
            if extend(v, banned | g.rows[last] | 1 << last, depth + 1):
                return True
            path.pop()
        return False

    for s in order:
        tracker.spend()
        path.append(s)
        if extend(s, 1 << s, 2):
            return tuple(path)
        path.pop()
    return None


def find_induced_cycle(
    g: Graph, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, ...] | None:
    """Vertex sequence of an induced C_k, or None.  The first vertex is the
    (degree, index)-minimal one on the cycle; others are explored in that
    same order."""
    if k < 3 or k > g.n:
        return None
    order = _degree_sorted(g)
    rank = [0] * g.n
    for i, v in enumerate(order):
        rank[v] = i
    tracker = _Budget(budget)
    full = g.full_mask()
    path: list[int] = []

    def extend(first: int, last: int, banned: int, depth: int) -> bool:
        # banned: every placed vertex, plus neighborhoods of interior placed
        # vertices (positions 2..depth-2); the first vertex's neighborhood is
        # excluded separately since the closing vertex must re-enter it
        if depth == k:
            cands = g.rows[last] & g.rows[first] & ~banned & full
        elif depth == 2:
            cands = g.rows[first] & ~banned & full
        else:
            cands = g.rows[last] & ~g.rows[first] & ~banned & full
        for v in order:
            if not cands >> v & 1:
                continue
            if rank[v] <= rank[first]:
                continue
            tracker.spend()
            path.append(v)
            if depth == k:
                return True
            grow = g.rows[last] if depth >= 3 else 0
            if extend(first, v, banned | grow | 1 << v, depth + 1):
                return True
            path.pop()
        return False

    for s in order:
        tracker.spend()
        path.append(s)
        if extend(s, s, 1 << s, 2):
            return tuple(path)
        path.pop()
    return None


def naive_has_induced(g: Graph, h: Graph) -> bool:
    """Reference oracle: scan every |h|-subset of g for an induced copy of h."""
    form = canonical_form(h)
    return any(
        canonical_form(induced(g, combo)) == form for combo in combinations(range(g.n), h.n)
    )


def induces_path_sequence(g: Graph, seq: Sequence[int]) -> bool:
    """Check that seq is exactly an induced path in order."""
    k = len(seq)
    if len(set(seq)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            want = j == i + 1
            if g.has_edge(seq[i], seq[j]) != want:
                return False
    return True


def induces_cycle_sequence(g: Graph, seq: Sequence[int]) -> bool:
    k = len(seq)
    if len(set(seq)) != k or k < 3:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            want = j == i + 1 or (i == 0 and j == k - 1)
            if g.has_edge(seq[i], seq[j]) != want:
                return False
    return True
