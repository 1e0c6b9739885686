"""Polynomial algorithms for upper switching classes, plus enumeration.

The upper class of a hereditary class is its smallest switching-closed
superclass: the graphs with some switch in the class.  ``upper_classes()``
is the one table of the upper classes switchkit knows, keyed by CLI name.
Each entry holds the membership predicate (the oracle searches for a switch
satisfying it), the recognition algorithm returning a witness switching set,
and the enumerator of every witness, the last two where switchkit has them.
The CLI class names, --oracle, --enumerate and the oracle command's named
predicates all read this table.

Each routine mirrors its decision procedure step by step, but every candidate
switching set is re-verified against the target class before being returned:
the algorithmic steps are filters, never trusted proofs.  Cited-but-absent
subroutines (upper bipartite / triangle-free / complete-multipartite and the
(p,q)-split enumeration) are exact desk-scale stand-ins behind the same
contracts, capped at 22 vertices.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, NamedTuple

from .canonical import c5_switching_forms, canonical_form
from .errors import TooLarge
from .graph import Graph, VertexSet, bits_of, complement, induced, switch
from .oracle import ORACLE_CAP, Predicate, normalize_mask, oracle_upper
from .patterns import complete_graph, cycle_graph, disjoint_union, edgeless_graph, pattern, star_graph
from .reference import (
    complete_bipartite_sides,
    is_bipartite,
    is_complete_multipartite,
    is_paw_free,
    is_triangle_free,
)
from .search import find_induced_cycle, is_free
from .split import (
    all_split_partition_masks,
    _base_split_partition,
    is_pseudo_split,
    is_split,
    pq_split_partition_masks,
)


def _lift(vertices: list[int], local_mask: int) -> int:
    out = 0
    for i, v in enumerate(vertices):
        if local_mask >> i & 1:
            out |= 1 << v
    return out


def _vs(g: Graph, mask: int) -> VertexSet:
    return VertexSet(g.n, normalize_mask(g, mask))


# -- split ---------------------------------------------------------------


def _split_candidates(g: Graph, collect_all: bool) -> list[int]:
    """Candidate solutions from the pair/partition sweep (non-split inputs)."""
    full = g.full_mask()
    found: list[int] = []
    seen: set[int] = set()
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            common = g.rows[u] & g.rows[v]
            outside = full & ~(g.rows[u] | g.rows[v] | 1 << u | 1 << v)
            gc = induced(g, common)
            parts_c = all_split_partition_masks(gc)
            if not parts_c:
                continue
            go = induced(g, outside)
            parts_o = all_split_partition_masks(go)
            if not parts_o:
                continue
            cverts = bits_of(common)
            overts = bits_of(outside)
            base = 1 << u | 1 << v | (g.rows[u] & ~g.rows[v] & ~(1 << v))
            for k1, _i1 in parts_c:
                for _k2, i2 in parts_o:
                    a = base | _lift(cverts, k1) | _lift(overts, i2)
                    if is_split(switch(g, a)):
                        norm = normalize_mask(g, a)
                        if norm not in seen:
                            seen.add(norm)
                            found.append(norm)
                            if not collect_all:
                                return found
    return found


def upper_split(g: Graph) -> VertexSet | None:
    """A switching set turning g into a split graph, or None."""
    if is_split(g):
        return VertexSet(g.n, 0)
    got = _split_candidates(g, collect_all=False)
    return _vs(g, got[0]) if got else None


def _split_side_options(side_mask: int) -> list[int]:
    """Subsets with at most one or all-but-at-most-one of the side."""
    members = bits_of(side_mask)
    opts = {0, side_mask}
    for v in members:
        opts.add(1 << v)
        opts.add(side_mask & ~(1 << v))
    return sorted(opts)


def enumerate_upper_split(g: Graph) -> list[VertexSet]:
    """Every A (vertex 0 excluded) with S(g,A) split.

    For split inputs, any solution meets |A ∩ K| <= 1 or >= |K|-1 and likewise
    on the independent side, so those O(n^2) candidates are scanned; otherwise
    the decision sweep is run to exhaustion.
    """
    sols: set[int] = set()
    base = _base_split_partition(g)
    if base is not None:
        kmask, imask = base
        for ka in _split_side_options(kmask):
            for ia in _split_side_options(imask):
                a = ka | ia
                if is_split(switch(g, a)):
                    sols.add(normalize_mask(g, a))
    else:
        sols.update(_split_candidates(g, collect_all=True))
    return [VertexSet(g.n, m) for m in sorted(sols)]


# -- pseudo-split --------------------------------------------------------


_orientation_cache: dict[tuple[int, ...], list[int]] = {}


def _c5_orientations(gh: Graph) -> list[int]:
    """Local masks B (|B| >= 3) with S(gh, B) a plain five-cycle.

    These are exactly the admissible "switch-back" sides of a switching
    equivalent of C5; the complement-of-B choice is covered elsewhere.
    """
    key = gh.rows
    got = _orientation_cache.get(key)
    if got is None:
        got = []
        if canonical_form(gh) in c5_switching_forms():
            c5 = canonical_form(cycle_graph(5))
            for b in range(32):
                if bin(b).count("1") >= 3 and canonical_form(switch(gh, b)) == c5:
                    got.append(b)
        _orientation_cache[key] = got
    return got


def _pseudo_split_h_candidates(g: Graph, collect_all: bool) -> list[int]:
    full = g.full_mask()
    found: list[int] = []
    seen: set[int] = set()
    for combo in combinations(range(g.n), 5):
        hmask = 0
        for v in combo:
            hmask |= 1 << v
        gh = induced(g, hmask)
        orientations = _c5_orientations(gh)
        if not orientations:
            continue
        hverts = list(combo)
        for b in orientations:
            h1 = _lift(hverts, b)
            h2 = hmask & ~h1
            group1 = group2 = 0
            ok = True
            for x in bits_of(full & ~hmask):
                nin = g.rows[x] & hmask
                if nin == h1:
                    group1 |= 1 << x
                elif nin == h2:
                    group2 |= 1 << x
                else:
                    ok = False
                    break
            if not ok:
                continue
            g1 = induced(g, group1)
            parts1 = all_split_partition_masks(g1)
            if not parts1:
                continue
            g2 = induced(g, group2)
            parts2 = all_split_partition_masks(g2)
            if not parts2:
                continue
            verts1 = bits_of(group1)
            verts2 = bits_of(group2)
            for k1, _i1 in parts1:
                for _k2, i2 in parts2:
                    a = h1 | _lift(verts1, k1) | _lift(verts2, i2)
                    if is_pseudo_split(switch(g, a)):
                        norm = normalize_mask(g, a)
                        if norm not in seen:
                            seen.add(norm)
                            found.append(norm)
                            if not collect_all:
                                return found
    return found


def upper_pseudo_split(g: Graph) -> VertexSet | None:
    if is_pseudo_split(g):
        return VertexSet(g.n, 0)
    got = upper_split(g)
    if got is not None:
        return got
    cands = _pseudo_split_h_candidates(g, collect_all=False)
    return _vs(g, cands[0]) if cands else None


def enumerate_upper_pseudo_split(g: Graph) -> list[VertexSet]:
    sols = {vs.mask for vs in enumerate_upper_split(g)}
    sols.update(_pseudo_split_h_candidates(g, collect_all=True))
    return [VertexSet(g.n, m) for m in sorted(sols)]


# -- desk-scale stand-ins ------------------------------------------------


def upper_triangle_free(g: Graph) -> VertexSet | None:
    return oracle_upper(g, is_triangle_free)


def upper_complete_multipartite(g: Graph) -> VertexSet | None:
    return oracle_upper(g, is_complete_multipartite)


def upper_bipartite(g: Graph) -> VertexSet | None:
    """A with S(g,A) bipartite, via: such an A exists iff V splits into two
    complete-bipartite-inducing halves; A is one side of each half."""
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper bipartite capped at n <= {ORACLE_CAP}, got {g.n}")
    if is_bipartite(g):
        return VertexSet(g.n, 0)
    full = g.full_mask()
    for half in range(1 << max(g.n - 1, 0)):
        x = half << 1 | 1
        sides_x = complete_bipartite_sides(g, x)
        if sides_x is None:
            continue
        y = full & ~x
        sides_y = complete_bipartite_sides(g, y)
        if sides_y is None:
            continue
        a = sides_x[0] | sides_y[0]
        if is_bipartite(switch(g, a)):
            return _vs(g, a)
    return None


# -- paw-free ------------------------------------------------------------


def _co_components(g: Graph, mask: int) -> list[int]:
    """Connected components of the complement restricted to ``mask``."""
    sub = induced(g, mask)
    verts = bits_of(mask)
    return [_lift(verts, comp) for comp in complement(sub).components()]


def upper_paw_free(g: Graph) -> VertexSet | None:
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper paw-free capped at n <= {ORACLE_CAP}, got {g.n}")
    if is_paw_free(g):
        return VertexSet(g.n, 0)
    got = upper_triangle_free(g)
    if got is not None:
        return got
    got = upper_complete_multipartite(g)
    if got is not None:
        return got
    full = g.full_mask()

    def verified(a: int) -> VertexSet | None:
        if is_paw_free(switch(g, a)):
            return _vs(g, a)
        return None

    # splits into three or more parts
    for u1 in range(g.n):
        for u2 in range(u1 + 1, g.n):
            if g.has_edge(u1, u2):
                continue
            closed = g.rows[u1] | g.rows[u2] | 1 << u1 | 1 << u2
            tri = 1 << u1 | 1 << u2
            for u3 in bits_of(full & ~closed):
                trio = tri | 1 << u3
                a = 0
                for x in range(g.n):
                    if ((g.rows[x] | 1 << x) & trio).bit_count() <= 1:
                        a |= 1 << x
                got = verified(a)
                if got is not None:
                    return got
            delta_closed = (g.rows[u1] | 1 << u1) ^ (g.rows[u2] | 1 << u2)
            outside = full & ~closed
            for u3 in bits_of(g.rows[u1] & g.rows[u2]):
                for cand in (
                    outside | (delta_closed & ~g.rows[u3]),
                    outside | (delta_closed & g.rows[u3]),
                ):
                    got = verified(cand)
                    if got is not None:
                        return got
    # exactly two parts, one holding a triangle
    for u1 in range(g.n):
        for u2 in range(u1 + 1, g.n):
            if not g.has_edge(u1, u2):
                continue
            common = g.rows[u1] & g.rows[u2]
            rest = full & ~(g.rows[u1] | g.rows[u2] | 1 << u1 | 1 << u2)
            cocomp_common = _co_components(g, common)
            cocomp_rest = _co_components(g, rest)
            delta = g.rows[u1] ^ g.rows[u2]
            p, q = len(cocomp_common), len(cocomp_rest)
            for isel in _small_subsets(p, 2):
                x = 0
                for idx in range(p):
                    if idx not in isel:
                        x |= cocomp_common[idx]
                for jsel in _small_subsets(q, 2):
                    y = 0
                    for idx in jsel:
                        y |= cocomp_rest[idx]
                    if x:
                        u3 = (x & -x).bit_length() - 1
                        a = x | y | (delta & g.rows[u3])
                    else:
                        pool = rest & ~y
                        if not pool:
                            continue
                        u3 = (pool & -pool).bit_length() - 1
                        a = x | y | (delta & ~g.rows[u3])
                    got = verified(a)
                    if got is not None:
                        return got
    return None


def _small_subsets(n: int, cap: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for r in range(min(cap, n) + 1):
        out.extend(combinations(range(n), r))
    return out


# -- stars and co-stars ----------------------------------------------------


def star_costar_free(g: Graph, p: int, q: int) -> bool:
    return is_free(g, star_graph(p)) and is_free(
        g, disjoint_union(complete_graph(q), edgeless_graph(1))
    )


def upper_star_costar(g: Graph, p: int, q: int) -> VertexSet | None:
    """A with S(g,A) {K_{1,p}, co-K_{1,q}}-free, for p,q >= 2."""
    if p < 2 or q < 2:
        raise ValueError("p and q must be at least 2")
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper star/co-star capped at n <= {ORACLE_CAP}, got {g.n}")
    if star_costar_free(g, p, q):
        return VertexSet(g.n, 0)
    u = 0
    closed = g.rows[u] | 1 << u
    inside = induced(g, closed)
    outside_mask = g.full_mask() & ~closed
    outside = induced(g, outside_mask)
    parts_in = pq_split_partition_masks(inside, q - 1, p - 1)
    if not parts_in:
        return None
    parts_out = pq_split_partition_masks(outside, q - 1, p - 1)
    if not parts_out:
        return None
    iverts = bits_of(closed)
    overts = bits_of(outside_mask)
    for _s1, t1 in parts_in:
        for s2, _t2 in parts_out:
            a = _lift(iverts, t1) | _lift(overts, s2)
            if star_costar_free(switch(g, a), p, q):
                return _vs(g, a)
    return None


# -- bipartite chain -------------------------------------------------------


def is_bipartite_chain(g: Graph) -> bool:
    """Bipartite with nested neighborhoods: {C3, 2K2, C5}-free."""
    return (
        is_triangle_free(g)
        and is_free(g, pattern("2k2"))
        and find_induced_cycle(g, 5) is None
    )


def upper_bipartite_chain(g: Graph) -> VertexSet | None:
    if is_bipartite_chain(g):
        return VertexSet(g.n, 0)
    for name in ("2k2", "k3+k1", "k4"):
        if not is_free(g, pattern(name)):
            return None
    got = upper_bipartite(g)
    if got is None:
        return None
    result = switch(g, got)
    if not is_bipartite_chain(result):
        raise AssertionError(
            "bipartite witness did not induce a chain graph; theorem violated"
        )
    return got


# -- the table ---------------------------------------------------------------


class UpperClass(NamedTuple):
    predicate: Predicate
    algorithm: Callable[[Graph], VertexSet | None] | None = None
    enumerator: Callable[[Graph], list[VertexSet]] | None = None


def upper_classes(p: int = 2, q: int = 2) -> dict[str, UpperClass]:
    """The upper-class table; (p, q) are the star and co-star sizes.

    Built on each call, so its functions are read from the module globals at
    lookup time and a wrapper installed on a module attribute sees the calls.
    """
    return {
        "split": UpperClass(is_split, upper_split, enumerate_upper_split),
        "pseudo-split": UpperClass(
            is_pseudo_split, upper_pseudo_split, enumerate_upper_pseudo_split
        ),
        "paw-free": UpperClass(is_paw_free, upper_paw_free),
        "star-costar": UpperClass(
            lambda g: star_costar_free(g, p, q), lambda g: upper_star_costar(g, p, q)
        ),
        "bipartite": UpperClass(is_bipartite, upper_bipartite),
        "bipartite-chain": UpperClass(is_bipartite_chain, upper_bipartite_chain),
        "triangle-free": UpperClass(is_triangle_free),
        "complete-multipartite": UpperClass(is_complete_multipartite),
    }
