"""Split and pseudo-split structure: recognition and partition enumeration.

Split recognition is the degree-sequence splittance test.  Partition
enumeration grows from one base partition: any two split partitions differ
by at most one vertex on each side (clique-side difference sits inside an
independent set and vice versa), so scanning single moves and swaps from the
base finds every partition.

Pseudo-split recognition reads the degrees too (Maffray & Preissmann 1994,
"Linear recognition of pseudo-split graphs").  If a pseudo-split graph is
not split, its five-cycle C has degree d = |K| + 2, the clique K at least
|K| + 4 and the independent side at most |K|: C is the one class of five
equal degrees with exactly d - 2 larger degrees, found without a search.

The partition routines take an optional vertex mask and then work on G[mask]
in g's own vertex labels: the result is that on ``induced(g, mask)``, lifted
back, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import TooLarge
from .graph import Graph, VertexSet, bits_of, complement


@dataclass(frozen=True)
class SplitPartition:
    k: VertexSet  # clique side
    i: VertexSet  # independent side


@dataclass(frozen=True)
class PseudoSplitPartition:
    k: VertexSet
    i: VertexSet
    h: VertexSet  # empty, or a C5 complete to k and nonadjacent to i


def _base_split_partition(g: Graph, mask: int | None = None) -> tuple[int, int] | None:
    """(clique mask, independent mask) of G[mask] via the splittance construction."""
    if mask is None:
        verts, deg, mask = range(g.n), g.degrees(), g.full_mask()
    else:
        verts, deg = bits_of(mask), [(r & mask).bit_count() for r in g.rows]
    # the sort is stable, so equal degrees keep the smaller vertex first
    order = sorted(verts, key=deg.__getitem__, reverse=True)
    degs = [deg[v] for v in order]
    h = 0
    for idx, d in enumerate(degs):
        if d >= idx:
            h = idx + 1
    total_top = sum(degs[:h])
    total_rest = sum(degs[h:])
    if total_top != h * (h - 1) + total_rest:
        return None
    kmask = 0
    for v in order[:h]:
        kmask |= 1 << v
    imask = mask & ~kmask
    if g.is_clique_mask(kmask) and g.is_independent_mask(imask):
        return kmask, imask
    # ties in the degree order can need a swap of two equal-degree vertices
    for v in bits_of(kmask):
        for u in bits_of(imask):
            if deg[v] != deg[u]:
                continue
            k2 = kmask & ~(1 << v) | 1 << u
            i2 = imask & ~(1 << u) | 1 << v
            if g.is_clique_mask(k2) and g.is_independent_mask(i2):
                return k2, i2
    return None


def is_split(g: Graph) -> bool:
    return _base_split_partition(g) is not None


def all_split_partition_masks(
    g: Graph, mask: int | None = None
) -> list[tuple[int, int]]:
    """Every ordered (clique, independent) partition of G[mask] (the whole
    graph when mask is None); [] iff G[mask] is not split."""
    base = _base_split_partition(g, mask)
    if base is None:
        return []
    k0, _ = base
    full = g.full_mask() if mask is None else mask
    candidates = {k0}
    for v in bits_of(k0):
        candidates.add(k0 & ~(1 << v))
        for u in bits_of(full & ~k0):
            candidates.add(k0 & ~(1 << v) | 1 << u)
    for u in bits_of(full & ~k0):
        candidates.add(k0 | 1 << u)
    out = []
    for k in sorted(candidates):
        i = full & ~k
        if g.is_clique_mask(k) and g.is_independent_mask(i):
            out.append((k, i))
    return out


def split_partitions(g: Graph) -> list[SplitPartition]:
    """All split partitions, trimmed to at most n by dropping the degenerate
    empty-sided ones first (complete and edgeless graphs have n+1 raw)."""
    raw = all_split_partition_masks(g)
    if len(raw) > g.n:
        slimmed = [p for p in raw if p[1] != 0]
        if len(slimmed) > g.n:
            slimmed = [p for p in slimmed if p[0] != 0]
        raw = slimmed[: g.n]
    return [
        SplitPartition(VertexSet(g.n, k), VertexSet(g.n, i)) for k, i in raw
    ]


def pseudo_split_partition_masks(g: Graph) -> tuple[int, int, int] | None:
    """(clique, independent, C5-middle) masks, or None if not pseudo-split.

    The middle is unique when nonempty, and so are the masks."""
    base = _base_split_partition(g)
    if base is not None:
        return base[0], base[1], 0
    deg = g.degrees()
    for d in set(deg):
        if deg.count(d) != 5:
            continue
        h = sum(1 << v for v, dv in enumerate(deg) if dv == d)
        k = sum(1 << v for v, dv in enumerate(deg) if dv > d)
        # a vertex of C, of degree |K| + 2, whose neighbours outside C are
        # exactly K has two neighbours in C: C is then a five-cycle
        if k.bit_count() != d - 2 or any(g.rows[v] & ~h != k for v in bits_of(h)):
            continue
        i = g.full_mask() & ~h & ~k
        if g.is_clique_mask(k) and g.is_independent_mask(i):
            return k, i, h
    return None


def is_pseudo_split(g: Graph) -> bool:
    return pseudo_split_partition_masks(g) is not None


def pseudo_split_partition(g: Graph) -> PseudoSplitPartition | None:
    masks = pseudo_split_partition_masks(g)
    if masks is None:
        return None
    k, i, h = masks
    return PseudoSplitPartition(
        VertexSet(g.n, k), VertexSet(g.n, i), VertexSet(g.n, h)
    )


# -- (p,q)-split -------------------------------------------------------------


@dataclass(frozen=True)
class PqSplitPartition:
    s: VertexSet  # K_{p+1}-free side
    t: VertexSet  # independent-set-(q+1)-free side
    p: int
    q: int


PQ_SPLIT_CAP = 22


def _find_clique_in(g: Graph, allowed: int, size: int) -> tuple[int, ...] | None:
    """Lexicographically first clique of the given size inside ``allowed``."""
    verts = bits_of(allowed)
    if size == 0:
        return ()

    def grow(chosen: list[int], common: int, rest: list[int]) -> tuple[int, ...] | None:
        if len(chosen) == size:
            return tuple(chosen)
        for idx, v in enumerate(rest):
            if not common >> v & 1:
                continue
            got = grow(chosen + [v], common & g.rows[v], rest[idx + 1 :])
            if got is not None:
                return got
        return None

    return grow([], allowed, verts)


def pq_split_partition_masks(
    g: Graph, p: int, q: int, mask: int | None = None
) -> list[tuple[int, int]]:
    """All (S,T) partitioning G[mask] (the whole graph when mask is None) with
    G[S] K_{p+1}-free and G[T] without independent (q+1)-sets.

    Branch and reduce: a K_{p+1} inside S-plus-free forces one of its free
    vertices into T (branching on which is first), symmetrically for an
    independent (q+1)-set on the T side; when neither side can ever be
    violated, every completion is valid.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    full = g.full_mask() if mask is None else mask
    if full.bit_count() > PQ_SPLIT_CAP:
        raise TooLarge(f"(p,q)-split enumeration capped at n <= {PQ_SPLIT_CAP}")
    if p == 1 and q == 1:
        return [(i, k) for k, i in all_split_partition_masks(g, mask)]
    out: list[tuple[int, int]] = []
    co = complement(g)  # the independent sets of g are the cliques of co

    def solve(smask: int, tmask: int, free: int) -> None:
        clique = _find_clique_in(g, smask | free, p + 1)
        if clique is not None:
            free_members = [v for v in clique if free >> v & 1]
            if not free_members:
                return
            moved_to_s = 0
            for v in free_members:
                solve(
                    smask | moved_to_s,
                    tmask | 1 << v,
                    free & ~(moved_to_s | 1 << v),
                )
                moved_to_s |= 1 << v
            return
        indep = _find_clique_in(co, tmask | free, q + 1)
        if indep is not None:
            free_members = [v for v in indep if free >> v & 1]
            if not free_members:
                return
            moved_to_t = 0
            for v in free_members:
                solve(
                    smask | 1 << v,
                    tmask | moved_to_t,
                    free & ~(moved_to_t | 1 << v),
                )
                moved_to_t |= 1 << v
            return
        # both sides are violation-free even absorbing all of free: any split
        # of the free vertices works
        free_list = bits_of(free)
        for r in range(len(free_list) + 1):
            for combo in combinations(free_list, r):
                extra = 0
                for v in combo:
                    extra |= 1 << v
                out.append((smask | extra, tmask | (free & ~extra)))

    solve(0, 0, full)
    out.sort()
    return out


def pq_split_partitions(g: Graph, p: int, q: int) -> list[PqSplitPartition]:
    return [
        PqSplitPartition(VertexSet(g.n, s), VertexSet(g.n, t), p, q)
        for s, t in pq_split_partition_masks(g, p, q)
    ]


def is_pq_split(g: Graph, p: int, q: int) -> bool:
    if p == 1 and q == 1:
        return is_split(g)
    return bool(pq_split_partition_masks(g, p, q))
