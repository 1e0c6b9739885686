"""Lower switching class recognizers."""

import pytest

from switchkit.graph import Graph, complement
from switchkit.lower import (
    FAMILY_DEFINED,
    LowerClassId,
    is_block_lower,
    is_c0_member,
    is_line_lower,
    is_lower_outerplanar,
    lower_classes,
    lower_family,
    recognize_lower,
)
from switchkit.oracle import oracle_lower
from switchkit.patterns import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    pattern,
)
from switchkit.profiles import profile_graph
from switchkit.reference import is_line_graph
from switchkit.search import is_free


class TestRecognizeLower:
    def test_c5_rejected_everywhere_family_defined(self):
        for cid in FAMILY_DEFINED:
            assert not recognize_lower(cycle_graph(5), cid)

    def test_complete_bipartite_accepted(self):
        assert recognize_lower(
            complete_bipartite_graph(3, 4), LowerClassId.BIPARTITE_FAMILY
        )
        assert not recognize_lower(path_graph(4), LowerClassId.BIPARTITE_FAMILY)

    def test_p4_comparability(self):
        assert recognize_lower(path_graph(4), LowerClassId.COMPARABILITY)

    def test_threshold_is_order_cap(self):
        assert recognize_lower(complete_graph(3), LowerClassId.THRESHOLD)
        assert not recognize_lower(complete_graph(4), LowerClassId.THRESHOLD)

    def test_tiny_graphs_accepted_everywhere(self):
        for cid in LowerClassId:
            assert recognize_lower(Graph.empty(0), cid), cid
            assert recognize_lower(Graph.empty(1), cid), cid

    def test_intersection_law(self, atlas_by_order):
        for n in range(7):
            for g in atlas_by_order[n]:
                perm = recognize_lower(g, LowerClassId.PERMUTATION)
                comp = recognize_lower(g, LowerClassId.COMPARABILITY)
                coco = recognize_lower(g, LowerClassId.CO_COMPARABILITY)
                assert perm == (comp and coco)

    def test_complement_law(self, atlas_by_order):
        for n in range(7):
            for g in atlas_by_order[n]:
                assert recognize_lower(g, LowerClassId.COMPARABILITY) == recognize_lower(
                    complement(g), LowerClassId.CO_COMPARABILITY
                )

    def test_family_cache_is_stable(self):
        f1 = lower_family(LowerClassId.MEYNIEL)
        f2 = lower_family(LowerClassId.MEYNIEL)
        assert f1 is f2


class TestC0:
    def test_examples(self):
        assert is_c0_member(path_graph(4)) == (1, 1, 1, 1)
        assert is_c0_member(complete_graph(5)) == (5,)
        assert is_c0_member(cycle_graph(4)) is None

    def test_members_are_proper_interval(self, graphs_up_to_7):
        # accepted graphs avoid claw/net/sun and holes
        bad = [pattern("claw"), pattern("net"), pattern("sun")]
        from switchkit.search import find_induced_cycle

        for g in graphs_up_to_7:
            prof = is_c0_member(g)
            if prof is None:
                continue
            assert all(is_free(g, b) for b in bad)
            for k in range(4, g.n + 1):
                assert find_induced_cycle(g, k) is None

    def test_profile_instantiates_back(self, graphs_up_to_7):
        from switchkit.canonical import canonical_form

        for g in graphs_up_to_7:
            prof = is_c0_member(g)
            if prof is not None and g.n:
                assert canonical_form(profile_graph(prof)) == canonical_form(g)


class TestBlockLower:
    def test_examples(self):
        k2_k3 = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert is_block_lower(k2_k3)
        assert is_block_lower(path_graph(3))
        assert not is_block_lower(pattern("k2+2k1"))


class TestLineLower:
    def test_examples(self):
        assert is_line_lower(cycle_graph(5))
        assert is_line_lower(profile_graph((1, 2, 1, 1)))
        assert not is_line_lower(pattern("claw"))

    def test_oracle_equivalence_up_to_7(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert is_line_lower(g) == oracle_lower(g, is_line_graph), g.edges()


class TestOuterplanarLower:
    def test_examples(self):
        assert is_lower_outerplanar(cycle_graph(5))
        assert not is_lower_outerplanar(pattern("net"))
        assert not is_lower_outerplanar(Graph.empty(6))

    def test_census_counts(self, atlas_by_order):
        assert sum(1 for g in atlas_by_order[5] if is_lower_outerplanar(g)) == 4
        assert sum(1 for g in atlas_by_order[4] if is_lower_outerplanar(g)) == 8

    def test_order_5_members_are_switches_of_c5(self, atlas_by_order):
        from switchkit.canonical import canonical_form, switching_class

        accepted = {
            canonical_form(g) for g in atlas_by_order[5] if is_lower_outerplanar(g)
        }
        assert accepted == switching_class(cycle_graph(5)).forms()


@pytest.mark.parametrize("cid", list(lower_classes()))
def test_family_oracle_equivalence_n_le_6(atlas_by_order, cid):
    direct = lower_classes()[cid].base
    for n in range(7):
        for g in atlas_by_order[n]:
            assert recognize_lower(g, cid) == oracle_lower(g, direct), (cid, g.edges())
