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
(or ``_all_switches`` for the enumerators), normalises each candidate,
skips the ones already tried, switches at the rest and tests the target
class: the algorithmic steps are filters, never trusted proofs.

Upper triangle-free, complete multipartite and bipartite (and through them
paw-free and bipartite chain) start from vertex isolation: switching g at
N(0) gives G0 with vertex 0 isolated, and every switch H of g is S(G0, B)
for exactly one B without vertex 0, B = N_H(0).  Complete multipartite then
has one candidate B.  For triangle-free (Hayward 1996, "Recognizing
P3-structure: a switching approach") and bipartite (Hage, Harju & Welzl
2003, "Euler graphs, triangle-free graphs and bipartite graphs in switching
classes") the candidates are B = {} and, for each guessed w in B, the
solution of one 2-SAT instance: O(n) instances of O(n^2) clauses each.

Upper pseudo-split isolates each of the vertices 0..5 in turn.  If
H = S(g, A) is pseudo-split but not split, with a five-cycle C complete to
the clique K and anticomplete to the independent side, then for x outside C
the switch G_x = S(g, N(x)) = S(H, N_H(x)) keeps C a module inducing a
five-cycle (Ehrenfeucht, Harju & Rozenberg 1999, "The Theory of
2-Structures").  C5 is prime, so C is the smallest module of G_x holding any
two of its vertices.  With K' the vertices complete to C in G_x, H is
S(G_x, K ^ K') up to complement, and S(G_x, K') - C is H - C switched at K,
split with clique K: the candidates are N(x) ^ K' ^ k over its split
partitions (k, .).  On five vertices C can be all of V; every set is tried.

The (p,q)-split partitions behind upper star/co-star still come from a
branching enumeration, an exact desk-scale stand-in capped at 22 vertices.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import TooLarge
from .graph import Graph, VertexSet, bits_of, complement, switch
from .oracle import ORACLE_CAP, Predicate, normalize_mask
from .patterns import complete_graph, disjoint_union, edgeless_graph, pattern, star_graph
from .reference import (
    is_bipartite,
    is_complete_multipartite,
    is_paw_free,
    is_triangle_free,
)
from .search import is_free
from .split import (
    all_split_partition_masks,
    _base_split_partition,
    is_pseudo_split,
    is_split,
    pq_split_partition_masks,
)


def _distinct(g: Graph, candidates: Iterable[int]) -> Iterator[int]:
    """Each candidate once, normalised (A and V - A give the same switch)."""
    seen: set[int] = set()
    for a in candidates:
        a = normalize_mask(g, a)
        if a not in seen:
            seen.add(a)
            yield a


def _first_switch(
    g: Graph, in_class: Predicate, candidates: Iterable[int]
) -> VertexSet | None:
    """The first candidate A with S(g,A) in the class, normalised, or None."""
    for a in _distinct(g, candidates):
        if in_class(switch(g, a)):
            return VertexSet(g.n, a)
    return None


def _all_switches(g: Graph, in_class: Predicate, candidates: Iterable[int]) -> set[int]:
    """Every candidate A with S(g,A) in the class, normalised."""
    return {a for a in _distinct(g, candidates) if in_class(switch(g, a))}


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
            # base | K1 | I2 over split partitions (K1, .) of G[common] and
            # (., I2) of G[outside]
            parts_k = all_split_partition_masks(g, common)
            parts_i = all_split_partition_masks(g, outside) if parts_k else []
            for k1, _i1 in parts_k:
                for _k2, i2 in parts_i:
                    yield base | k1 | i2


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


def _module_closure(rows: tuple[int, ...], m: int) -> int:
    """The smallest module holding m, or 0 once it passes five vertices:
    add every vertex that sees some but not all of m until none is left."""
    while m.bit_count() <= 5:
        some, every = 0, -1
        for v in bits_of(m):
            some |= rows[v]
            every &= rows[v]
        splitters = some & ~every & ~m
        if not splitters:
            return m
        m |= splitters
    return 0


def _pseudo_split_candidates(g: Graph) -> Iterator[int]:
    """For x in 0..5 and each five-cycle module C of G_x = S(g, N(x)), with
    K' the vertices complete to C: N(x) ^ K' ^ k for every split partition
    (k, .) of S(G_x, K') - C.  On at most five vertices, every set."""
    if g.n <= 5:
        yield from range(1 << g.n)
        return
    full = g.full_mask()
    for x in range(6):
        nbrs, gx = _isolated(g, x)
        rows = gx.rows
        pairs = combinations(bits_of(full & ~(1 << x)), 2)
        for c in sorted({_module_closure(rows, 1 << u | 1 << v) for u, v in pairs}):
            if c.bit_count() != 5 or any((rows[w] & c).bit_count() != 2 for w in bits_of(c)):
                continue
            kx = full & ~c
            for w in bits_of(c):
                kx &= rows[w]
            for k, _i in all_split_partition_masks(switch(gx, kx), full & ~c):
                yield nbrs ^ kx ^ k


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


# -- isolation and 2-SAT -----------------------------------------------------


def _isolated(g: Graph, x: int) -> tuple[int, Graph]:
    """N(x) and G_x = S(g, N(x)), the switch in which vertex x is isolated.

    Every switch H of g equals S(G_x, B) for exactly one B without vertex x,
    namely B = N_H(x), and then H = S(g, N(x) ^ B).
    """
    nbrs = g.rows[x] if g.n else 0
    return nbrs, switch(g, nbrs)


Implications = list[tuple[tuple[int, int], tuple[int, int]]]


def _propagate(implied: Implications, t: int, f: int, nt: int, nf: int) -> tuple[int, int] | None:
    """Close the partial assignment (t true, f false) after setting the
    variables in nt true and those in nf false; None on a conflict."""
    while nt or nf:
        t |= nt
        f |= nf
        if t & f:
            return None
        at = af = 0
        for v in bits_of(nt):
            vt, vf = implied[v][1]
            at |= vt
            af |= vf
        for v in bits_of(nf):
            vt, vf = implied[v][0]
            at |= vt
            af |= vf
        nt, nf = at & ~t, af & ~f
    return t, f


def _two_sat(free: int, implied: Implications, t: int = 0, f: int = 0) -> int | None:
    """The variables set true in a solution of a 2-SAT instance, or None.

    The variables are the bits of ``free``; those in t start true and those
    in f false.  ``implied[v][value]`` is the pair (trues, falses) of
    variable masks forced by setting v to value; it must hold each
    2-clause's two implications.  Even, Itai & Shamir's propagation: try one
    value of an open variable, fall back to the other on a conflict, and
    give up when both conflict.
    """
    got = _propagate(implied, 0, 0, t, f)
    for v in bits_of(free):
        if got is None:
            return None
        t, f = got
        if not (t | f) >> v & 1:
            got = _propagate(implied, t, f, 1 << v, 0) or _propagate(implied, t, f, 0, 1 << v)
    return None if got is None else got[0]


# -- triangle-free, complete multipartite, bipartite ---------------------------


def _forced_by_edges_in(rows: tuple[int, ...], y: int, x: int) -> tuple[int, int] | None:
    """For the edges of G0[Y]: the vertices of X seeing both ends (forced into
    B) and those seeing neither (forced out), or None if G0[Y] has a triangle."""
    t = f = 0
    for y1 in bits_of(y):
        for y2 in bits_of(rows[y1] & y & ~((2 << y1) - 1)):
            both = rows[y1] & rows[y2]
            if both & y:
                return None
            t |= both & x
            f |= x & ~(rows[y1] | rows[y2])
    return t, f


def _triangle_free_candidates(g: Graph) -> Iterator[int]:
    """B = {} and, for each guessed w in B, the B that 2-SAT finds.

    With w in B, B is independent in G0, so Y = N_G0(w) lies outside B, and
    the vertices of X = V - 0 - Y outside B must be independent (they are
    neighbours of w in S(G0,B)).  A triangle of S(G0,B) avoiding 0 is then a
    triangle of G0[Y], a vertex outside B seeing both ends of an edge of
    G0[Y], or a vertex of B seeing neither end of an edge of G0 outside B.
    """
    nbrs, g0 = _isolated(g, 0)
    rows = g0.rows
    yield nbrs
    rest = g0.full_mask() & ~1
    for w in bits_of(rest):
        y = rows[w]
        x = rest & ~y & ~(1 << w)
        forced = _forced_by_edges_in(rows, y, x)
        if forced is None:
            continue
        # v of X outside B, with a neighbour y in Y, keeps out of B every
        # vertex of X that sees neither v nor y
        keeps_out = [0] * g.n
        pulls_in = [0] * g.n
        for v in bits_of(x):
            ys = rows[v] & y
            if ys:
                common = rest
                for u in bits_of(ys):
                    common &= rows[u]
                keeps_out[v] = x & ~rows[v] & ~(1 << v) & ~common
                for u in bits_of(keeps_out[v]):
                    pulls_in[u] |= 1 << v
        # an edge inside X has exactly one end in B
        implied = [((0, 0), (0, 0))] * g.n
        for v in bits_of(x):
            edges = rows[v] & x
            implied[v] = ((edges, keeps_out[v]), (pulls_in[v], edges))
        b = _two_sat(x, implied, *forced)
        if b is not None:
            yield nbrs ^ b ^ 1 << w


def upper_triangle_free(g: Graph) -> VertexSet | None:
    """A with S(g,A) triangle-free, or None (Hayward 1996; Hage, Harju &
    Welzl 2003): isolate vertex 0, then one 2-SAT per guessed neighbour of 0."""
    if is_triangle_free(g):
        return VertexSet(g.n, 0)
    return _first_switch(g, is_triangle_free, _triangle_free_candidates(g))


def upper_complete_multipartite(g: Graph) -> VertexSet | None:
    """A with S(g,A) complete multipartite, or None.

    S(G0,B) is complete multipartite with vertex 0 seeing B exactly when the
    rest of V - 0, the part of vertex 0, is isolated in G0 and G0[B] is
    complete multipartite.  So B = the vertices of G0 - 0 with a neighbour
    is the one candidate: it is the smallest B allowed, and an induced
    subgraph of a complete multipartite graph is one.
    """
    if is_complete_multipartite(g):
        return VertexSet(g.n, 0)
    nbrs, g0 = _isolated(g, 0)
    b = 0
    for v in range(1, g.n):
        if g0.rows[v]:
            b |= 1 << v
    return _first_switch(g, is_complete_multipartite, (nbrs ^ b,))


def _bipartite_candidates(g: Graph) -> Iterator[int]:
    """B = {} and, for each guessed w in B, the B that 2-SAT finds.

    Colour vertex 0 with 0; then B, its neighbourhood, has colour 1, and with
    w in B a non-neighbour of w in G0 is in B or has colour 0 outside B, and
    a neighbour of w has either colour outside B.  One variable per vertex,
    true for colour 1, and one 2-clause per pair and colour that would put
    an edge inside a colour class.
    """
    nbrs, g0 = _isolated(g, 0)
    rows = g0.rows
    yield nbrs
    rest = g0.full_mask() & ~1
    for w in bits_of(rest):
        free = rest & ~(1 << w)
        m = free & ~rows[w]  # true means "in B" for these
        implied = [((0, 0), (0, 0))] * g.n
        for u in bits_of(free):
            # both colour 0: adjacent iff adjacent in G0; both colour 1:
            # adjacent iff the G0 edge is flipped by exactly one end in B
            same1 = rows[u] ^ m ^ (free if m >> u & 1 else 0)
            implied[u] = ((rows[u] & free, 0), (0, same1 & free & ~(1 << u)))
        t = _two_sat(free, implied)
        if t is not None:
            yield nbrs ^ (t & m) ^ 1 << w


def upper_bipartite(g: Graph) -> VertexSet | None:
    """A with S(g,A) bipartite, or None (Hage, Harju & Welzl 2003): isolate
    vertex 0, then one 2-SAT per guessed neighbour of 0."""
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
    """A with S(g,A) paw-free, or None: g itself, an upper triangle-free or
    upper complete multipartite witness, then the paw candidates."""
    if is_paw_free(g):
        return VertexSet(g.n, 0)
    for part in (upper_triangle_free, upper_complete_multipartite):
        got = part(g)
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
    """Bipartite with nested neighborhoods: bipartite and 2K2-free.  (The
    shortest odd cycle of a non-bipartite graph is induced: C3, C5, or a
    longer odd hole, which holds a 2K2.)"""
    return is_bipartite(g) and is_free(g, pattern("2k2"))


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
