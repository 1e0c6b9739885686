"""Validation of the naive reference recognizers against independent methods."""

import itertools

import networkx as nx

from switchkit.graph import Graph, complement
from switchkit.patterns import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    pattern,
)
from switchkit.reference import (
    is_bipartite,
    is_block_graph,
    is_chordal,
    is_comparability,
    is_complete_bipartite,
    is_complete_multipartite,
    is_distance_hereditary,
    is_line_graph,
    is_meyniel,
    is_outerplanar,
    is_paw_free,
    is_threshold,
    is_triangle_free,
    is_weakly_chordal,
)
from switchkit.search import is_free


def brute_force_comparability(g: Graph) -> bool:
    """Try all orientations; transitive means ab,bc arcs force arc ac."""
    edges = g.edges()
    for code in range(1 << len(edges)):
        arcs = set()
        for i, (u, v) in enumerate(edges):
            arcs.add((u, v) if code >> i & 1 else (v, u))
        ok = True
        for (a, b) in arcs:
            for (c, d) in arcs:
                if b == c and a != d and (a, d) not in arcs:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return len(edges) == 0


class TestComparability:
    def test_matches_brute_force_up_to_5(self, atlas_by_order):
        for n in range(1, 6):
            for g in atlas_by_order[n]:
                assert is_comparability(g) == brute_force_comparability(g), g.edges()

    def test_known_values(self):
        assert is_comparability(path_graph(4))
        assert is_comparability(cycle_graph(6))  # bipartite
        assert not is_comparability(cycle_graph(5))
        assert not is_comparability(cycle_graph(7))


class TestLineGraph:
    def test_line_graphs_of_small_roots_accepted(self, atlas_by_order):
        for n in range(2, 7):
            for root in atlas_by_order[n]:
                if root.edge_count() == 0:
                    continue
                G = nx.Graph(root.edges())
                L = nx.line_graph(G)
                relabel = {v: i for i, v in enumerate(L.nodes())}
                lg = Graph.from_edges(
                    L.number_of_nodes(),
                    [(relabel[u], relabel[v]) for u, v in L.edges()],
                )
                assert is_line_graph(lg), root.edges()

    def test_known_non_line_graphs(self):
        assert not is_line_graph(pattern("claw"))
        assert not is_line_graph(pattern("w5"))
        k5e = Graph.from_edges(
            5, [(u, v) for u in range(5) for v in range(u + 1, 5) if (u, v) != (0, 4)]
        )
        assert not is_line_graph(k5e)

    def test_line_graphs_are_claw_free(self, atlas_by_order):
        claw = pattern("claw")
        for g in atlas_by_order[5] + atlas_by_order[6]:
            if is_line_graph(g):
                assert is_free(g, claw)


class TestBipartiteFamilyChecks:
    def test_complete_bipartite_equals_forbidden_def(self, graphs_up_to_7):
        k3 = complete_graph(3)
        k2k1 = pattern("k2+k1")
        for g in graphs_up_to_7:
            if g.n > 6:
                continue
            want = is_free(g, k3) and is_free(g, k2k1)
            assert is_complete_bipartite(g) == want, g.edges()

    def test_bitmask_freeness_equals_pattern_search(self, graphs_up_to_7):
        k2k1 = pattern("k2+k1")
        for g in graphs_up_to_7:
            assert is_complete_multipartite(g) == is_free(g, k2k1), g.edges()
            assert is_paw_free(g) == is_free(g, pattern("paw")), g.edges()
            assert is_triangle_free(g) == is_free(g, complete_graph(3)), g.edges()

    def test_bipartite_basics(self):
        assert is_bipartite(cycle_graph(6))
        assert not is_bipartite(cycle_graph(5))
        assert is_complete_bipartite(complete_bipartite_graph(3, 4))
        assert is_complete_bipartite(Graph.empty(4))
        assert not is_complete_bipartite(path_graph(4))


class TestHoleBasedClasses:
    def test_weakly_chordal(self):
        assert not is_weakly_chordal(cycle_graph(5))
        assert not is_weakly_chordal(complement(cycle_graph(7)))
        assert is_weakly_chordal(cycle_graph(4))
        assert is_weakly_chordal(pattern("domino"))

    def test_chordal(self):
        assert is_chordal(pattern("paw"))
        assert not is_chordal(cycle_graph(4))

    def test_distance_hereditary(self):
        for name in ("domino", "gem", "house"):
            assert not is_distance_hereditary(pattern(name))
        assert is_distance_hereditary(cycle_graph(4))
        assert not is_distance_hereditary(cycle_graph(5))

    def test_meyniel(self):
        assert not is_meyniel(cycle_graph(5))
        assert not is_meyniel(pattern("house"))
        assert is_meyniel(cycle_graph(6))
        assert is_meyniel(complete_graph(4))

    def test_meyniel_by_definition_small(self, atlas_by_order):
        # every odd cycle that is not a triangle has at least two chords
        def direct(g: Graph) -> bool:
            for k in range(5, g.n + 1, 2):
                for combo in itertools.permutations(range(g.n), k):
                    if combo[0] != min(combo) or combo[1] > combo[-1]:
                        continue
                    if not all(
                        g.has_edge(combo[i], combo[(i + 1) % k]) for i in range(k)
                    ):
                        continue
                    chords = sum(
                        1
                        for i in range(k)
                        for j in range(i + 2, k)
                        if (i, j) != (0, k - 1) and g.has_edge(combo[i], combo[j])
                    )
                    if chords < 2:
                        return False
            return True

        for g in atlas_by_order[5] + atlas_by_order[6][:60]:
            assert is_meyniel(g) == direct(g), g.edges()


class TestOtherClasses:
    def test_block_graph(self):
        assert is_block_graph(pattern("paw"))
        assert not is_block_graph(pattern("diamond"))
        assert is_block_graph(path_graph(5))

    def test_outerplanar(self):
        assert is_outerplanar(cycle_graph(5))
        assert not is_outerplanar(complete_graph(4))
        assert not is_outerplanar(complete_bipartite_graph(2, 3))
        assert not is_outerplanar(pattern("w5"))
        assert is_outerplanar(pattern("house"))

    def test_threshold(self):
        assert is_threshold(pattern("paw"))
        assert not is_threshold(path_graph(4))

    def test_misc(self):
        assert is_triangle_free(cycle_graph(5))
        assert not is_triangle_free(pattern("paw"))
        assert is_complete_multipartite(complete_graph(4))
        assert not is_complete_multipartite(pattern("k2+k1"))
        assert is_complete_multipartite(complete_bipartite_graph(2, 2))
