"""Polynomial algorithms for upper switching classes, plus enumeration.

The upper class of a hereditary class is its smallest switching-closed
superclass: the graphs with some switch in the class.  ``upper_classes()``
is the one table of the upper classes switchkit knows, keyed by CLI name.
Each entry holds the membership predicate (the oracle searches for a switch
satisfying it), the recognition algorithm returning a witness switching set,
and the enumerator of every witness, the last two where switchkit has them.
The CLI class names, --oracle, --enumerate and the oracle command's named
predicates all read this table.

Each algorithm mirrors its decision procedure step by step as a stream of
candidate switching sets: fix a few anchor vertices, sort the others into
groups, pick one partition of each group and switch at the union.  The
streams work in the host graph's own vertex labels, restricting the split
and (p,q)-split partition routines and the component search to vertex masks
instead of relabelled induced subgraphs.  One verifier, ``_first_switch``
(or ``_all_switches`` for the enumerators), switches at each candidate,
tests the target class and normalises the witness: the algorithmic steps
are filters, never trusted proofs.

Cited-but-absent subroutines are exact desk-scale stand-ins behind the same
contracts, capped at 22 vertices: upper triangle-free and upper
complete-multipartite are the brute-force oracle over all 2^(n-1)
switches, upper bipartite scans all 2^(n-1) halvings of the vertex set, and
the (p,q)-split partitions behind upper star/co-star come from a branching
enumeration.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

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


def _first_switch(
    g: Graph, in_class: Predicate, candidates: Iterable[int]
) -> VertexSet | None:
    """The first candidate A with S(g,A) in the class, normalised, or None."""
    for a in candidates:
        if in_class(switch(g, a)):
            return VertexSet(g.n, normalize_mask(g, a))
    return None


def _all_switches(g: Graph, in_class: Predicate, candidates: Iterable[int]) -> set[int]:
    """Every candidate A with S(g,A) in the class, normalised."""
    return {normalize_mask(g, a) for a in candidates if in_class(switch(g, a))}


def _split_unions(g: Graph, base: int, kside: int, iside: int) -> Iterator[int]:
    """base | K1 | I2 over the split partitions (K1, I1) of G[kside] and
    (K2, I2) of G[iside]."""
    parts_k = all_split_partition_masks(g, kside)
    if not parts_k:
        return
    parts_i = all_split_partition_masks(g, iside)
    for k1, _i1 in parts_k:
        for _k2, i2 in parts_i:
            yield base | k1 | i2


# -- split ---------------------------------------------------------------


def _split_candidates(g: Graph) -> Iterator[int]:
    """Candidates from the pair/partition sweep (non-split inputs)."""
    full = g.full_mask()
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            common = g.rows[u] & g.rows[v]
            outside = full & ~(g.rows[u] | g.rows[v] | 1 << u | 1 << v)
            base = 1 << u | 1 << v | (g.rows[u] & ~g.rows[v] & ~(1 << v))
            yield from _split_unions(g, base, common, outside)


def upper_split(g: Graph) -> VertexSet | None:
    """A switching set turning g into a split graph, or None."""
    if is_split(g):
        return VertexSet(g.n, 0)
    return _first_switch(g, is_split, _split_candidates(g))


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
    base = _base_split_partition(g)
    if base is None:
        candidates = _split_candidates(g)
    else:
        iopts = _split_side_options(base[1])
        candidates = (ka | ia for ka in _split_side_options(base[0]) for ia in iopts)
    return [VertexSet(g.n, m) for m in sorted(_all_switches(g, is_split, candidates))]


# -- pseudo-split --------------------------------------------------------


@cache
def _c5_orientations(rows: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The sides B (|B| >= 3, as local vertex indices) with S(H, B) a plain
    five-cycle, for the 5-vertex graph H with these rows.

    These are exactly the admissible "switch-back" sides of a switching
    equivalent of C5; the complement-of-B choice is covered elsewhere.  There
    are 2^10 labelled 5-vertex graphs, so the cache stays small.
    """
    gh = Graph(5, rows)
    if canonical_form(gh) not in c5_switching_forms():
        return ()
    c5 = canonical_form(cycle_graph(5))
    return tuple(
        tuple(bits_of(b))
        for b in range(32)
        if b.bit_count() >= 3 and canonical_form(switch(gh, b)) == c5
    )


def _pseudo_split_candidates(g: Graph) -> Iterator[int]:
    """Candidates from a C5-switching-equivalent H and the two groups of
    vertices seeing exactly one of its sides."""
    full = g.full_mask()
    for combo in combinations(range(g.n), 5):
        hmask = 0
        for v in combo:
            hmask |= 1 << v
        for side in _c5_orientations(induced(g, hmask).rows):
            h1 = 0
            for i in side:
                h1 |= 1 << combo[i]
            h2 = hmask & ~h1
            group1 = group2 = 0
            for x in bits_of(full & ~hmask):
                nin = g.rows[x] & hmask
                if nin == h1:
                    group1 |= 1 << x
                elif nin == h2:
                    group2 |= 1 << x
                else:
                    break
            else:
                yield from _split_unions(g, h1, group1, group2)


def upper_pseudo_split(g: Graph) -> VertexSet | None:
    if is_pseudo_split(g):
        return VertexSet(g.n, 0)
    got = upper_split(g)
    if got is not None:
        return got
    return _first_switch(g, is_pseudo_split, _pseudo_split_candidates(g))


def enumerate_upper_pseudo_split(g: Graph) -> list[VertexSet]:
    sols = {vs.mask for vs in enumerate_upper_split(g)}
    sols |= _all_switches(g, is_pseudo_split, _pseudo_split_candidates(g))
    return [VertexSet(g.n, m) for m in sorted(sols)]


# -- desk-scale stand-ins ------------------------------------------------


def upper_triangle_free(g: Graph) -> VertexSet | None:
    return oracle_upper(g, is_triangle_free)


def upper_complete_multipartite(g: Graph) -> VertexSet | None:
    return oracle_upper(g, is_complete_multipartite)


def _bipartite_candidates(g: Graph) -> Iterator[int]:
    full = g.full_mask()
    for half in range(1 << max(g.n - 1, 0)):
        x = half << 1 | 1
        sides_x = complete_bipartite_sides(g, x)
        if sides_x is None:
            continue
        sides_y = complete_bipartite_sides(g, full & ~x)
        if sides_y is None:
            continue
        yield sides_x[0] | sides_y[0]


def upper_bipartite(g: Graph) -> VertexSet | None:
    """A with S(g,A) bipartite, via: such an A exists iff V splits into two
    complete-bipartite-inducing halves; A is one side of each half."""
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper bipartite capped at n <= {ORACLE_CAP}, got {g.n}")
    if is_bipartite(g):
        return VertexSet(g.n, 0)
    return _first_switch(g, is_bipartite, _bipartite_candidates(g))


# -- paw-free ------------------------------------------------------------


def _paw_free_candidates(g: Graph) -> Iterator[int]:
    full = g.full_mask()
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
                yield a
            delta_closed = (g.rows[u1] | 1 << u1) ^ (g.rows[u2] | 1 << u2)
            outside = full & ~closed
            for u3 in bits_of(g.rows[u1] & g.rows[u2]):
                yield outside | (delta_closed & ~g.rows[u3])
                yield outside | (delta_closed & g.rows[u3])
    # exactly two parts, one holding a triangle
    co = complement(g)
    for u1 in range(g.n):
        for u2 in range(u1 + 1, g.n):
            if not g.has_edge(u1, u2):
                continue
            common = g.rows[u1] & g.rows[u2]
            rest = full & ~(g.rows[u1] | g.rows[u2] | 1 << u1 | 1 << u2)
            cocomp_common = co.components(common)
            cocomp_rest = co.components(rest)
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
                        yield x | y | (delta & g.rows[u3])
                    else:
                        pool = rest & ~y
                        if not pool:
                            continue
                        u3 = (pool & -pool).bit_length() - 1
                        yield x | y | (delta & ~g.rows[u3])


def upper_paw_free(g: Graph) -> VertexSet | None:
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper paw-free capped at n <= {ORACLE_CAP}, got {g.n}")
    if is_paw_free(g):
        return VertexSet(g.n, 0)
    for stand_in in (upper_triangle_free, upper_complete_multipartite):
        got = stand_in(g)
        if got is not None:
            return got
    return _first_switch(g, is_paw_free, _paw_free_candidates(g))


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


def _star_costar_candidates(g: Graph, p: int, q: int) -> Iterator[int]:
    """The T side of a (q-1,p-1)-split partition of G[N[0]] united with the S
    side of one of the rest."""
    closed = g.rows[0] | 1
    parts_in = pq_split_partition_masks(g, q - 1, p - 1, closed)
    if not parts_in:
        return
    parts_out = pq_split_partition_masks(g, q - 1, p - 1, g.full_mask() & ~closed)
    for _s1, t1 in parts_in:
        for s2, _t2 in parts_out:
            yield t1 | s2


def upper_star_costar(g: Graph, p: int, q: int) -> VertexSet | None:
    """A with S(g,A) {K_{1,p}, co-K_{1,q}}-free, for p,q >= 2."""
    if p < 2 or q < 2:
        raise ValueError("p and q must be at least 2")
    if g.n > ORACLE_CAP:
        raise TooLarge(f"upper star/co-star capped at n <= {ORACLE_CAP}, got {g.n}")
    if star_costar_free(g, p, q):
        return VertexSet(g.n, 0)
    return _first_switch(
        g, lambda h: star_costar_free(h, p, q), _star_costar_candidates(g, p, q)
    )


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
