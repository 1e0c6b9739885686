"""Canonical forms, switching classes, switching equivalence."""

import hashlib
import itertools
import random

import pytest

from switchkit.canonical import (
    are_switching_equivalent,
    canonical_form,
    canonical_graph,
    switching_class,
    switching_witness,
)
from switchkit.errors import SizeMismatch, TooLarge
from switchkit.graph import Graph, switch
from switchkit.patterns import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    pattern,
)
from switchkit.profiles import profile_graph
from tests.conftest import random_graph

# sha256 over the concatenated forms of every atlas graph of order <= 7 and
# 180 seeded random graphs of order 8-10 (see test_golden_digest), as the
# unpruned search produced them: pruning the search must not change a byte.
GOLDEN_DIGEST = "3d8894d5f7096299376df47e62e723287ce5a36395c150813475603c08c32b22"

PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(i + 5, (i + 2) % 5 + 5) for i in range(5)],
)


def all_labeled(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for code in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [e for i, e in enumerate(pairs) if code >> i & 1]
        )


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        p4 = path_graph(4)
        relabeled = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_form(p4) == canonical_form(relabeled)

    def test_distinguishes_c4_from_2k2(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(pattern("2k2"))

    def test_eleven_order_4_forms(self):
        forms = {canonical_form(g) for g in all_labeled(4)}
        assert len(forms) == 11

    def test_known_small_counts(self, atlas_by_order):
        # canonical forms must separate the atlas exactly
        for n in range(1, 8):
            forms = {canonical_form(g) for g in atlas_by_order[n]}
            assert len(forms) == len(atlas_by_order[n])

    def test_roundtrip_through_canonical_graph(self):
        for g in (path_graph(5), cycle_graph(6), pattern("bull")):
            form = canonical_form(g)
            assert canonical_form(canonical_graph(form)) == form

    def test_too_large(self):
        with pytest.raises(TooLarge):
            canonical_form(Graph.empty(11))

    def test_golden_digest(self, graphs_up_to_7):
        rng = random.Random(2403)
        randoms = [
            random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))
            for n in (8, 9, 10)
            for _ in range(60)
        ]
        digest = hashlib.sha256()
        for g in graphs_up_to_7 + randoms:
            digest.update(canonical_form(g))
        assert digest.hexdigest() == GOLDEN_DIGEST

    @pytest.mark.parametrize(
        "g",
        [
            Graph.empty(10),
            complete_graph(10),
            complete_bipartite_graph(5, 5),
            PETERSEN,
            cycle_graph(10),
        ],
        ids=["edgeless", "k10", "k5,5", "petersen", "c10"],
    )
    def test_symmetric_order_10_relabeled(self, g):
        perm = list(range(g.n))
        random.Random(g.edge_count()).shuffle(perm)
        relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert canonical_form(relabeled) == canonical_form(g)


class TestSwitchingClass:
    def test_c4(self):
        got = switching_class(cycle_graph(4)).forms()
        want = {
            canonical_form(cycle_graph(4)),
            canonical_form(pattern("claw")),
            canonical_form(pattern("4k1")),
        }
        assert got == want

    def test_c5(self):
        got = switching_class(cycle_graph(5)).forms()
        want = {
            canonical_form(pattern(name)) for name in ("c5", "bull", "gem", "p4+k1")
        }
        assert got == want

    def test_c6_members(self):
        got = switching_class(cycle_graph(6)).forms()
        profiles = [(1, 1, 2, 1, 1), (2, 1, 2, 0, 1), (1, 2, 2, 1), (2, 0, 2, 0, 2), (2, 2, 2)]
        want = {canonical_form(cycle_graph(6))}
        want |= {canonical_form(profile_graph(p)) for p in profiles}
        assert got == want

    def test_closed_under_switching(self):
        cls = switching_class(path_graph(5))
        forms = cls.forms()
        for rep in cls.representatives():
            for amask in range(1 << 4):
                assert canonical_form(switch(rep, amask << 1)) in forms

    def test_edgeless_10(self):
        assert len(switching_class(Graph.empty(10))) == 6

    def test_order_4_partition_sizes(self):
        reps = {}
        for g in all_labeled(4):
            reps[canonical_form(g)] = g
        sizes = sorted(
            len(frozenset(switching_class(g).forms()))
            for g in {
                frozenset(switching_class(h).forms()): h for h in reps.values()
            }.values()
        )
        assert sizes == [3, 3, 5]


class TestSwitchingEquivalence:
    def test_2k2_and_k4(self):
        assert are_switching_equivalent(pattern("2k2"), complete_graph(4))

    def test_c4_vs_p4(self):
        assert not are_switching_equivalent(cycle_graph(4), path_graph(4))

    def test_reflexive(self):
        g = pattern("bull")
        assert are_switching_equivalent(g, g)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            are_switching_equivalent(cycle_graph(4), cycle_graph(5))

    def test_atlas_pairs_match_switching_class(self, atlas_by_order):
        # every ordered pair of equal-order graphs with 1-6 vertices
        pairs = 0
        for n in range(1, 7):
            classes = [switching_class(g) for g in atlas_by_order[n]]
            for g in atlas_by_order[n]:
                for h, cls in zip(atlas_by_order[n], classes):
                    assert are_switching_equivalent(g, h) == (g in cls), (g.edges(), h.edges())
                    pairs += 1
        assert pairs == 25634

    def test_relabeled_switches_order_10(self):
        rng = random.Random(1980)
        for _ in range(10):
            g = random_graph(rng, 10, 0.5)
            perm = list(range(10))
            rng.shuffle(perm)
            s = switch(g, [v for v in range(10) if rng.random() < 0.5])
            h = Graph.from_edges(10, [(perm[u], perm[v]) for u, v in s.edges()])
            assert are_switching_equivalent(g, h)
            assert are_switching_equivalent(g, switch(h, [perm[0]])) == (
                switch(h, [perm[0]]) in switching_class(g)
            )

    def test_empty_graphs(self):
        assert are_switching_equivalent(Graph.empty(0), Graph.empty(0))

    def test_witness_is_exact(self):
        g = cycle_graph(4)
        h = switch(g, [1, 2])
        w = switching_witness(g, h)
        assert w is not None and switch(g, w) == h

    def test_witness_avoids_vertex_0_and_none_across_classes(self):
        g = random_graph(random.Random(5), 9, 0.5)
        h = switch(g, [0, 2, 5])
        w = switching_witness(g, h)
        assert w is not None and sorted(w) == [1, 3, 4, 6, 7, 8]
        assert switching_witness(cycle_graph(4), path_graph(4)) is None

    def test_witness_exact_at_order_40(self):
        rng = random.Random(40)
        g = random_graph(rng, 40, 0.5)
        a = [v for v in range(1, 40) if rng.random() < 0.5]
        h = switch(g, a)
        w = switching_witness(g, h)
        assert w is not None and sorted(w) == a
        w = switching_witness(g, switch(g, [0]))
        assert w is not None and sorted(w) == list(range(1, 40))
        # flipping one edge of h leaves the switching class of g
        rows = list(h.rows)
        rows[38] ^= 1 << 39
        rows[39] ^= 1 << 38
        assert switching_witness(g, Graph(40, tuple(rows))) is None
