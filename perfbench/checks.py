"""Checks that need networkx.  Imported only after the timed phase ends, so
neither the timings nor the peak-memory reading include networkx."""

from __future__ import annotations

import networkx as nx
from networkx.algorithms import threshold
from networkx.algorithms.isomorphism import GraphMatcher

import model


def to_nx(rows: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((u, v) for u, r in enumerate(rows) for v in model.bits(r) if u < v)
    return g


def _pattern(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


PATTERNS = {
    "2K2": _pattern(4, [(0, 1), (2, 3)]),
    "C4": nx.cycle_graph(4),
    "C5": nx.cycle_graph(5),
    "K3": nx.complete_graph(3),
    "paw": _pattern(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
    "K1,2": nx.path_graph(3),
    "K2+K1": _pattern(3, [(0, 1)]),
}

# Each target class of the upper algorithms as its forbidden induced set.
FORBIDDEN = {
    "pseudo-split": ("2K2", "C4"),
    "paw-free": ("paw",),
    "bipartite-chain": ("K3", "2K2", "C5"),
    "star-costar": ("K1,2", "K2+K1"),
}


def has_induced(g: nx.Graph, name: str) -> bool:
    # GraphMatcher's subgraph isomorphism is node-induced
    return GraphMatcher(g, PATTERNS[name]).subgraph_is_isomorphic()


def in_class(target: str, rows: list[int]) -> bool:
    g = to_nx(rows)
    if target == "bipartite":
        return nx.is_bipartite(g)
    if target == "split":
        # {2K2, C4, C5}-free exactly when G and its complement are chordal
        # (Foldes & Hammer 1977); matching C5 on 18 vertices is far slower
        return nx.is_chordal(g) and nx.is_chordal(nx.complement(g))
    return not any(has_induced(g, name) for name in FORBIDDEN[target])


# -- base classes of the lower recognizers that networkx can decide ----------


def _is_outerplanar(g: nx.Graph) -> bool:
    apex = g.copy()
    hub = len(g)
    apex.add_edges_from((hub, v) for v in range(hub))
    return nx.check_planarity(apex)[0]


def _is_line_graph(g: nx.Graph) -> bool:
    for comp in nx.connected_components(g):
        if len(comp) < 2:
            continue  # inverse_line_graph raises on isolated vertices
        try:
            nx.inverse_line_graph(g.subgraph(comp).copy())
        except nx.NetworkXError:
            return False
    return True


BASE_CLASSES = {
    "chordal": nx.is_chordal,
    "bipartite": nx.is_bipartite,
    "threshold": threshold.is_threshold_graph,
    "outerplanar": _is_outerplanar,
    "line": _is_line_graph,
}


def lower_truth(class_id: str, rows: list[int]) -> bool:
    """True iff every switch of the graph lies in the base class."""
    test = BASE_CLASSES[class_id]
    n = len(rows)
    return all(
        test(to_nx(model.switch(rows, half << 1))) for half in range(1 << max(n - 1, 0))
    )


def graph6_rows(text: str) -> list[int]:
    """Decode a graph6 line with networkx's reader."""
    g = nx.from_graph6_bytes(text.strip().encode())
    rows = [0] * g.number_of_nodes()
    for u, v in g.edges():
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows
