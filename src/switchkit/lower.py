"""Recognizers for the lower switching classes.

Family-backed ids test freeness against the switching expansion of a tiny
forbidden family (cached once per id).  The chordal-family, block and line
recognizers match the closed-form clique-path profiles; outerplanar checks
every switch against the forbidden minors.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .canonical import c5_switching_forms, canonical_form
from .graph import Graph, complement, switch
from .patterns import cycle_graph, pattern
from .profiles import Profile, ProfileEntry, match_profile_family
from .reference import (
    is_block_graph,
    is_chordal,
    is_co_comparability,
    is_comparability,
    is_complete_bipartite,
    is_distance_hereditary,
    is_line_graph,
    is_meyniel,
    is_outerplanar,
    is_permutation,
    is_threshold,
    is_weakly_chordal,
)
from .search import PatternFamily, expand_switch_family, is_family_free


class LowerClassId(Enum):
    WEAKLY_CHORDAL = "weakly-chordal"
    PERMUTATION = "permutation"
    COMPARABILITY = "comparability"
    CO_COMPARABILITY = "co-comparability"
    DISTANCE_HEREDITARY = "distance-hereditary"
    MEYNIEL = "meyniel"
    BIPARTITE_FAMILY = "bipartite"
    CHORDAL_FAMILY = "chordal"
    BLOCK = "block"
    LINE = "line"
    OUTERPLANAR = "outerplanar"
    THRESHOLD = "threshold"


def _co_c6() -> Graph:
    return complement(cycle_graph(6))


_FAMILY_SEEDS: dict[LowerClassId, Callable[[], list[Graph]]] = {
    LowerClassId.WEAKLY_CHORDAL: lambda: [cycle_graph(5), cycle_graph(6), _co_c6()],
    LowerClassId.PERMUTATION: lambda: [cycle_graph(5), cycle_graph(6), _co_c6()],
    LowerClassId.COMPARABILITY: lambda: [cycle_graph(5), _co_c6()],
    LowerClassId.CO_COMPARABILITY: lambda: [cycle_graph(5), cycle_graph(6)],
    LowerClassId.DISTANCE_HEREDITARY: lambda: [
        pattern("domino"),
        pattern("house"),
        cycle_graph(5),
        cycle_graph(6),
    ],
    LowerClassId.MEYNIEL: lambda: [cycle_graph(5), pattern("house")],
}

FAMILY_DEFINED = tuple(_FAMILY_SEEDS)

_family_cache: dict[LowerClassId, PatternFamily] = {}


def lower_family(class_id: LowerClassId) -> PatternFamily:
    """The switching-expanded forbidden family for a family-defined id."""
    fam = _family_cache.get(class_id)
    if fam is None:
        seeds = _FAMILY_SEEDS[class_id]()
        fam = expand_switch_family(seeds)
        _family_cache[class_id] = fam
    return fam


# the eight clique-path families of the lower {C4,C5,C6}-free class
C0_FAMILIES: tuple[tuple[ProfileEntry, ...], ...] = (
    ("+",),
    ("+", "+", 1),
    ("+", 1, "+"),
    ("+", 0, "+"),
    ("+", "+", 1, 0, "+"),
    ("+", 0, "+", 0, 1),
    ("+", "+", 1, "+"),
    ("+", "+", 1, "+", "+"),
)

BLOCK_PROFILES: tuple[tuple[ProfileEntry, ...], ...] = (
    ("+",),
    ("+", 0, "+"),
    (1, 1, 1),
    (1, 0, 1, 0, 1),
)

# The published list lacks (1,2,2), though all 16 of its switches are line
# graphs; with it added the recognizer equals its oracle on every graph of
# order at most 7.
LINE_PROFILES: tuple[tuple[ProfileEntry, ...], ...] = (
    ("+",),
    (1, 1, 1),
    (2, 1, 1),
    (1, 2, 1),
    (1, 2, 2),
    (2, 1, 2),
    ("+", 0, "+"),
    (1, 1, 1, 0, 1),
    (2, 1, 1, 0, 1),
    (1, 0, 1, 0, 1),
    (2, 0, 1, 0, 1),
    (2, 0, 2, 0, 1),
    (1, 1, 1, 1),
    (1, 2, 1, 1),
    (1, 1, 1, 1, 1),
)


def is_c0_member(g: Graph) -> Profile | None:
    """Matched concrete profile among the eight families, else None."""
    if g.n == 0:
        return ()
    for fam in C0_FAMILIES:
        got = match_profile_family(g, fam)
        if got is not None:
            return got
    return None


def is_block_lower(g: Graph) -> bool:
    if g.n == 0:
        return True
    return any(match_profile_family(g, fam) is not None for fam in BLOCK_PROFILES)


def _in_s_c5(g: Graph) -> bool:
    return g.n == 5 and canonical_form(g) in c5_switching_forms()


def is_line_lower(g: Graph) -> bool:
    if g.n == 0:
        return True
    if _in_s_c5(g):
        return True
    return any(match_profile_family(g, fam) is not None for fam in LINE_PROFILES)


def is_lower_outerplanar(g: Graph) -> bool:
    """Every switch must avoid K4 and K_{2,3} minors; impossible past n=5."""
    if g.n > 5:
        return False
    for half in range(1 << max(g.n - 1, 0)):
        if not is_outerplanar(switch(g, half << 1)):
            return False
    return True


def recognize_lower(g: Graph, class_id: LowerClassId) -> bool:
    if class_id in _FAMILY_SEEDS:
        return is_family_free(g, lower_family(class_id))
    if class_id is LowerClassId.BIPARTITE_FAMILY:
        return is_complete_bipartite(g)
    if class_id is LowerClassId.CHORDAL_FAMILY:
        return is_c0_member(g) is not None
    if class_id is LowerClassId.BLOCK:
        return is_block_lower(g)
    if class_id is LowerClassId.LINE:
        return is_line_lower(g)
    if class_id is LowerClassId.OUTERPLANAR:
        return is_lower_outerplanar(g)
    if class_id is LowerClassId.THRESHOLD:
        return g.n <= 3
    raise ValueError(f"unhandled class id {class_id}")


def direct_class_test(class_id: LowerClassId) -> Callable[[Graph], bool]:
    """Reference membership test for the base class 𝒢 itself (oracle mode)."""
    table: dict[LowerClassId, Callable[[Graph], bool]] = {
        LowerClassId.WEAKLY_CHORDAL: is_weakly_chordal,
        LowerClassId.PERMUTATION: is_permutation,
        LowerClassId.COMPARABILITY: is_comparability,
        LowerClassId.CO_COMPARABILITY: is_co_comparability,
        LowerClassId.DISTANCE_HEREDITARY: is_distance_hereditary,
        LowerClassId.MEYNIEL: is_meyniel,
        LowerClassId.BIPARTITE_FAMILY: is_complete_bipartite,
        LowerClassId.CHORDAL_FAMILY: is_chordal,
        LowerClassId.BLOCK: is_block_graph,
        LowerClassId.LINE: is_line_graph,
        LowerClassId.OUTERPLANAR: is_outerplanar,
        LowerClassId.THRESHOLD: is_threshold,
    }
    return table[class_id]
