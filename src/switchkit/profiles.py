"""Paths of substituted cliques ("profiles") and wildcard-family matching.

A concrete profile (a1,...,ap) is the graph obtained from a p-vertex path by
substituting vertex i with a clique of a_i vertices: consecutive cliques are
complete to each other, non-consecutive ones nonadjacent, and zero entries
leave gaps that cut the path into components.  Families may use "+" for an
unspecified positive entry, e.g. (+,+,1,+,+).

Matching is structural, not by enumeration: quotient the graph by closed-
neighborhood equality (true twins), demand the quotient of each component be
a path, and compare the resulting integer sequences entrywise.
"""

from __future__ import annotations

from itertools import permutations
from typing import Sequence, Union

from .graph import Graph, induced

ProfileEntry = Union[int, str]
Profile = tuple[int, ...]
ProfileFamily = tuple[ProfileEntry, ...]

WILD = "+"


def normalize_profile(seq: Sequence[ProfileEntry]) -> tuple[ProfileEntry, ...]:
    """Strip redundant zeros: leading/trailing and runs collapse to one."""
    out: list[ProfileEntry] = []
    for e in seq:
        if e == 0 and (not out or out[-1] == 0):
            continue
        out.append(e)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def profile_graph(seq: Sequence[int]) -> Graph:
    """Build the concrete profile graph (wildcards not allowed)."""
    if any(not isinstance(e, int) or e < 0 for e in seq):
        raise ValueError(f"concrete profile must be nonnegative ints: {seq!r}")
    groups: list[list[int]] = []
    nxt = 0
    for e in seq:
        groups.append(list(range(nxt, nxt + e)))
        nxt += e
    edges = []
    for grp in groups:
        edges.extend((u, v) for i, u in enumerate(grp) for v in grp[i + 1 :])
    for left, right in zip(groups, groups[1:]):
        edges.extend((u, v) for u in left for v in right)
    return Graph.from_edges(nxt, edges)


def _twin_classes(g: Graph) -> list[int]:
    """Masks of closed-neighborhood equivalence classes, by smallest member."""
    buckets: dict[int, int] = {}
    for v in range(g.n):
        closed = g.rows[v] | 1 << v
        buckets[closed] = buckets.get(closed, 0) | 1 << v
    return sorted(buckets.values(), key=lambda m: (m & -m).bit_length())


def clique_path_profile(g: Graph) -> Profile | None:
    """Profile of a connected clique path, or None if g is not one.

    The graph must be connected; the result is oriented to be lexicographically
    no larger than its reversal.
    """
    if g.n == 0:
        return None
    classes = _twin_classes(g)
    k = len(classes)
    if k == 1:
        return (g.n,)  # one closed-twin class is always a clique
    # classes of equal closed neighborhoods are cliques, and adjacency between
    # two classes is all-or-nothing, so a representative per class suffices
    reps = [(m & -m).bit_length() - 1 for m in classes]
    adj = [[g.has_edge(reps[i], reps[j]) for j in range(k)] for i in range(k)]
    deg = [sum(1 for j in range(k) if j != i and adj[i][j]) for i in range(k)]
    ends = [i for i in range(k) if deg[i] == 1]
    if sorted(deg) != [1, 1] + [2] * (k - 2) or len(ends) != 2:
        return None
    # walk the quotient path from one end
    order = [ends[0]]
    seen = {ends[0]}
    while len(order) < k:
        cur = order[-1]
        nxts = [j for j in range(k) if adj[cur][j] and j not in seen]
        if len(nxts) != 1:
            return None
        order.append(nxts[0])
        seen.add(nxts[0])
    if any(adj[order[i]][order[j]] for i in range(k) for j in range(i + 2, k)):
        return None
    prof = tuple(classes[i].bit_count() for i in order)
    return min(prof, prof[::-1])


def _component_profiles(g: Graph, comps: list[int]) -> list[Profile] | None:
    """The clique-path profile of each component mask in ``comps``, or None
    if some component is not a clique path."""
    profs = []
    for comp in comps:
        p = clique_path_profile(induced(g, comp))
        if p is None:
            return None
        profs.append(p)
    return profs


def concrete_profile(g: Graph) -> Profile | None:
    """Canonical concrete profile of g, or None if g is not a profile graph.

    Components are rendered as clique paths joined by single zeros, ordered
    by (size, profile) descending for determinism.
    """
    profs = _component_profiles(g, g.components())
    if profs is None:
        return None
    profs.sort(key=lambda p: (sum(p), p), reverse=True)
    out: list[int] = []
    for p in profs:
        if out:
            out.append(0)
        out.extend(p)
    return tuple(out)


def _entry_ok(entry: ProfileEntry, value: int) -> bool:
    if entry == WILD:
        return value >= 1
    return entry == value


def _component_match(prof: Profile, fam: tuple[ProfileEntry, ...]) -> Profile | None:
    """Orient a component profile against a zero-free family; None if no fit."""
    if len(fam) == 1:
        if len(prof) == 1 and _entry_ok(fam[0], prof[0]):
            return prof
        return None
    if len(prof) == 1:
        # a single clique K_t also realizes any 2-entry family (a,b), a+b=t
        if len(fam) == 2:
            t = prof[0]
            for a in range(1, t):
                if _entry_ok(fam[0], a) and _entry_ok(fam[1], t - a):
                    return (a, t - a)
        return None
    if len(prof) != len(fam):
        return None
    for cand in (prof, prof[::-1]):
        if all(_entry_ok(e, v) for e, v in zip(fam, cand)):
            return cand
    return None


def _family_parts(fam: Sequence[ProfileEntry]) -> list[tuple[ProfileEntry, ...]]:
    """The zero-free runs of the normalised family, one per component."""
    parts: list[tuple[ProfileEntry, ...]] = []
    cur: list[ProfileEntry] = []
    for e in normalize_profile(fam):
        if e == 0:
            parts.append(tuple(cur))
            cur = []
        else:
            cur.append(e)
    parts.append(tuple(cur))
    return parts


def _first_family_match(
    g: Graph, families: Sequence[Sequence[ProfileEntry]]
) -> Profile | None:
    """The instantiation of the first family in ``families`` isomorphic to g,
    or None; g's components and their profiles are computed at most once."""
    comps = g.components()
    comp_profs: list[Profile] | None = None
    for fam in families:
        parts = _family_parts(fam)
        if parts == [()]:
            if g.n == 0:
                return ()
            continue
        if not all(parts) or len(comps) != len(parts):
            continue
        if comp_profs is None:
            comp_profs = _component_profiles(g, comps)
            if comp_profs is None:
                return None
        # small bijection search; component counts here never exceed a handful
        for order in permutations(range(len(comps))):
            oriented: list[Profile] = []
            for part, idx in zip(parts, order):
                fit = _component_match(comp_profs[idx], part)
                if fit is None:
                    break
                oriented.append(fit)
            else:
                out: list[int] = []
                for fit in oriented:
                    if out:
                        out.append(0)
                    out.extend(fit)
                return tuple(out)
    return None


def match_profile_family(
    g: Graph, fam: Sequence[ProfileEntry]
) -> Profile | None:
    """The concrete instantiation of ``fam`` isomorphic to g, or None.

    The returned profile is shaped like the family (component order and
    orientation chosen to satisfy it entrywise).
    """
    return _first_family_match(g, (fam,))


def matches_profile_family(g: Graph, fam: Sequence[ProfileEntry]) -> bool:
    return match_profile_family(g, fam) is not None
