"""Induced-subgraph search, F-free tests, path/cycle search, budgets."""

import random

import pytest

from switchkit.canonical import canonical_form
from switchkit.errors import BudgetExceeded, TooLarge
from switchkit.graph import Graph, switch
from switchkit.patterns import complete_graph, cycle_graph, path_graph, pattern
from switchkit.search import (
    PatternFamily,
    contains_induced,
    expand_switch_family,
    find_induced_cycle,
    find_induced_path,
    induces_cycle_sequence,
    induces_path_sequence,
    is_family_free,
    naive_has_induced,
)
from tests.conftest import random_graph


class TestContainsInduced:
    def test_c5_has_p4(self):
        w = contains_induced(cycle_graph(5), path_graph(4))
        assert w is not None and len(w) == 4

    def test_p4_has_no_2k2(self):
        assert contains_induced(path_graph(4), pattern("2k2")) is None

    def test_c7_has_p4_plus_k1(self):
        assert contains_induced(cycle_graph(7), pattern("p4+k1")) is not None

    def test_witness_induces_the_pattern(self):
        g = pattern("gem")
        w = contains_induced(g, pattern("diamond"))
        assert w is not None
        from switchkit.graph import induced

        assert canonical_form(induced(g, w)) == canonical_form(pattern("diamond"))

    def test_exhaustive_against_subset_scan(self, atlas_by_order):
        patterns = [path_graph(3), pattern("paw"), cycle_graph(4), pattern("claw")]
        import itertools

        from switchkit.graph import induced

        for g in atlas_by_order[5]:
            for h in patterns:
                want = any(
                    canonical_form(induced(g, list(c))) == canonical_form(h)
                    for c in itertools.combinations(range(5), h.n)
                )
                assert (contains_induced(g, h) is not None) == want


class TestFamilies:
    def test_c5_is_c4_free(self):
        assert is_family_free(cycle_graph(5), [cycle_graph(4)])

    def test_gem_not_sc5_free(self):
        fam = expand_switch_family([cycle_graph(5)])
        assert not is_family_free(pattern("gem"), fam)

    def test_k1_free_of_everything_bigger(self):
        fam = PatternFamily([pattern("paw"), cycle_graph(4)])
        assert is_family_free(complete_graph(1), fam)

    def test_expand_c4(self):
        fam = expand_switch_family([cycle_graph(4)])
        assert fam.forms() == {
            canonical_form(cycle_graph(4)),
            canonical_form(pattern("claw")),
            canonical_form(pattern("4k1")),
        }

    def test_expand_c6_has_six(self):
        assert len(expand_switch_family([cycle_graph(6)])) == 6

    def test_expand_k1_fixed_point(self):
        fam = expand_switch_family([complete_graph(1)])
        assert fam.forms() == {canonical_form(complete_graph(1))}

    def test_expand_too_large(self):
        with pytest.raises(TooLarge):
            expand_switch_family([cycle_graph(11)])

    def test_dedup_by_canonical_form(self):
        fam = PatternFamily([path_graph(4), Graph.from_edges(4, [(3, 1), (1, 0), (0, 2)])])
        assert len(fam) == 1

    def test_switching_invariance_of_expanded_freeness(self, atlas_by_order):
        fam = expand_switch_family([cycle_graph(4)])
        for g in atlas_by_order[5]:
            base = is_family_free(g, fam)
            for amask in range(1 << 4):
                assert is_family_free(switch(g, amask << 1), fam) == base


class TestLongCyclesVsShortClasses:
    @pytest.mark.parametrize("i", [9, 10])
    def test_long_cycles_avoid_switches_of_shorter(self, i):
        fam = expand_switch_family([cycle_graph(i)])
        for j in range(i + 1, 13):
            assert is_family_free(cycle_graph(j), fam)


class TestPathCycleSearch:
    def test_c10_has_cycle10(self):
        seq = find_induced_cycle(cycle_graph(10), 10)
        assert seq is not None and induces_cycle_sequence(cycle_graph(10), seq)

    def test_k5_has_no_p4(self):
        assert find_induced_path(complete_graph(5), 4) is None

    def test_path_witness_is_induced(self):
        g = pattern("domino")
        seq = find_induced_path(g, 4)
        assert seq is not None and induces_path_sequence(g, seq)

    def test_agrees_with_naive(self, atlas_by_order):
        for g in atlas_by_order[6]:
            for k in range(2, 7):
                assert (find_induced_path(g, k) is not None) == naive_has_induced(
                    g, path_graph(k)
                )
            for k in range(3, 7):
                assert (
                    find_induced_cycle(g, k) is not None
                ) == naive_has_induced(g, cycle_graph(k))

    def test_agrees_with_naive_random_n9(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, 9, rng.choice((0.2, 0.4, 0.6)))
            for k in (4, 5, 6):
                assert (find_induced_path(g, k) is not None) == naive_has_induced(g, path_graph(k))
                assert (find_induced_cycle(g, k) is not None) == naive_has_induced(g, cycle_graph(k))

    def test_budget_exceeded(self):
        g = random_graph(random.Random(1), 14, 0.3)
        with pytest.raises(BudgetExceeded):
            find_induced_path(g, 9, budget=5)

    def test_deterministic_witness(self):
        g = random_graph(random.Random(3), 10, 0.4)
        assert find_induced_path(g, 5) == find_induced_path(g, 5)
        assert find_induced_cycle(g, 5) == find_induced_cycle(g, 5)
