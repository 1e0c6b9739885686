"""Recognizers for the lower switching classes, and the table of them.

The lower class of a hereditary class 𝒢 is its largest switching-closed
subclass: the graphs whose every switch lies in 𝒢.  ``lower_classes()`` is
the one table of the classes switchkit knows, keyed by ``LowerClassId``.
Each entry holds the base-class predicate 𝒢 (the oracle cross-check runs it
on every switch), the recognizer, and for family-defined classes the seeds of
the forbidden family.  A family-defined class is recognized by freeness from
the switching expansion of its seeds (cached once per id).  The
chordal-family, block and line recognizers match the closed-form clique-path
profiles; outerplanar checks every switch against the forbidden minors.  The
CLI class names, --oracle, ``recognize_lower`` and ``FAMILY_DEFINED`` all
read this table.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .canonical import are_switching_equivalent
from .graph import Graph, complement
from .oracle import Predicate, oracle_lower
from .patterns import cycle_graph, pattern
from .profiles import Profile, ProfileEntry, _first_family_match
from .reference import (
    is_bipartite,
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
    return _first_family_match(g, C0_FAMILIES)


def is_block_lower(g: Graph) -> bool:
    if g.n == 0:
        return True
    return _first_family_match(g, BLOCK_PROFILES) is not None


def _in_s_c5(g: Graph) -> bool:
    return g.n == 5 and are_switching_equivalent(g, cycle_graph(5))


def is_line_lower(g: Graph) -> bool:
    if g.n == 0:
        return True
    if _in_s_c5(g):
        return True
    return _first_family_match(g, LINE_PROFILES) is not None


def is_lower_outerplanar(g: Graph) -> bool:
    """Every switch must avoid K4 and K_{2,3} minors; impossible past n=5."""
    return g.n <= 5 and oracle_lower(g, is_outerplanar)


# -- the table ---------------------------------------------------------------


def _co_c6() -> Graph:
    return complement(cycle_graph(6))


class LowerClass(NamedTuple):
    base: Predicate  # the class 𝒢 whose lower class this is
    recognize: Predicate | None = None  # None: free of the expanded seeds
    seeds: Callable[[], list[Graph]] | None = None  # family-defined classes


def lower_classes() -> dict[LowerClassId, LowerClass]:
    """The lower-class table.

    Built on each call, so its functions are read from the module globals at
    lookup time and a wrapper installed on a module attribute sees the calls.
    """
    L = LowerClassId
    return {
        L.WEAKLY_CHORDAL: LowerClass(
            is_weakly_chordal, seeds=lambda: [cycle_graph(5), cycle_graph(6), _co_c6()]
        ),
        L.PERMUTATION: LowerClass(
            is_permutation, seeds=lambda: [cycle_graph(5), cycle_graph(6), _co_c6()]
        ),
        L.COMPARABILITY: LowerClass(is_comparability, seeds=lambda: [cycle_graph(5), _co_c6()]),
        L.CO_COMPARABILITY: LowerClass(
            is_co_comparability, seeds=lambda: [cycle_graph(5), cycle_graph(6)]
        ),
        L.DISTANCE_HEREDITARY: LowerClass(
            is_distance_hereditary,
            seeds=lambda: [pattern("domino"), pattern("house"), cycle_graph(5), cycle_graph(6)],
        ),
        L.MEYNIEL: LowerClass(is_meyniel, seeds=lambda: [cycle_graph(5), pattern("house")]),
        L.BIPARTITE_FAMILY: LowerClass(is_bipartite, is_complete_bipartite),
        L.CHORDAL_FAMILY: LowerClass(is_chordal, lambda g: is_c0_member(g) is not None),
        L.BLOCK: LowerClass(is_block_graph, is_block_lower),
        L.LINE: LowerClass(is_line_graph, is_line_lower),
        L.OUTERPLANAR: LowerClass(is_outerplanar, is_lower_outerplanar),
        L.THRESHOLD: LowerClass(is_threshold, lambda g: g.n <= 3),
    }


FAMILY_DEFINED = tuple(cid for cid, entry in lower_classes().items() if entry.seeds)

_family_cache: dict[LowerClassId, PatternFamily] = {}


def lower_family(class_id: LowerClassId) -> PatternFamily:
    """The switching-expanded forbidden family for a family-defined id."""
    fam = _family_cache.get(class_id)
    if fam is None:
        seeds = lower_classes()[class_id].seeds
        if seeds is None:
            raise ValueError(f"{class_id.value} is not family-defined")
        fam = expand_switch_family(seeds())
        _family_cache[class_id] = fam
    return fam


def recognize_lower(g: Graph, class_id: LowerClassId) -> bool:
    recognize = lower_classes()[class_id].recognize
    if recognize is None:
        return is_family_free(g, lower_family(class_id))
    return recognize(g)
