"""Split/pseudo-split structure and (p,q)-split enumeration."""

import random

import pytest

from switchkit.errors import TooLarge
from switchkit.graph import Graph, bits_of, complement, induced
from switchkit.patterns import complete_graph, cycle_graph, path_graph, pattern
from switchkit.search import is_free
from switchkit.split import (
    _find_clique_in,
    all_split_partition_masks,
    is_pq_split,
    is_pseudo_split,
    is_split,
    pq_split_partition_masks,
    pq_split_partitions,
    pseudo_split_partition,
    split_partitions,
)
from tests.conftest import random_graph


def brute_split_partitions(g: Graph) -> set[tuple[int, int]]:
    out = set()
    for k in range(1 << g.n):
        i = g.full_mask() & ~k
        if g.is_clique_mask(k) and g.is_independent_mask(i):
            out.add((k, i))
    return out


class TestIsSplit:
    def test_forbidden_subgraph_equivalence(self, graphs_up_to_7):
        forb = [pattern("2k2"), cycle_graph(4), cycle_graph(5)]
        for g in graphs_up_to_7:
            want = all(is_free(g, f) for f in forb)
            assert is_split(g) == want, g.edges()

    def test_examples(self):
        assert is_split(pattern("claw"))
        assert not is_split(cycle_graph(4))
        assert is_split(complete_graph(5))
        assert is_split(Graph.empty(4))


class TestSplitPartitions:
    def test_all_partitions_match_brute_force(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            if g.n > 6:
                continue
            assert set(all_split_partition_masks(g)) == brute_split_partitions(g)

    def test_raw_count_at_most_n_plus_1(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert len(all_split_partition_masks(g)) <= g.n + 1

    def test_public_count_at_most_n(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert len(split_partitions(g)) <= g.n

    def test_empty_iff_not_split(self):
        assert split_partitions(cycle_graph(4)) == []
        assert split_partitions(pattern("paw"))

    def test_paw_has_triangle_pendant_partition(self):
        parts = split_partitions(pattern("paw"))
        assert any(sorted(p.k) == [0, 1, 2] and sorted(p.i) == [3] for p in parts)

    def test_sides_are_valid(self, graphs_up_to_7):
        for g in graphs_up_to_7[:400]:
            for p in split_partitions(g):
                assert g.is_clique_mask(p.k.mask)
                assert g.is_independent_mask(p.i.mask)
                assert p.k.mask | p.i.mask == g.full_mask()
                assert p.k.mask & p.i.mask == 0


def _pseudo_split_or_near(rng: random.Random, n: int) -> Graph:
    """A pseudo-split graph on n vertices, with a C5 part half the time,
    relabelled at random; half the time one vertex pair is then flipped."""
    h = 5 if rng.random() < 0.5 else 0
    k = rng.randint(0, n - h)
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k) for v in range(k, n - h) if rng.random() < 0.5]
    if h:
        edges += [(n - 5 + i, n - 5 + (i + 1) % 5) for i in range(5)]
        edges += [(u, v) for u in range(k) for v in range(n - 5, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = list(Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges]).rows)
    if rng.random() < 0.5:
        u, v = rng.sample(range(n), 2)
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
    return Graph(n, tuple(rows))


class TestPseudoSplit:
    def test_forbidden_subgraph_equivalence(self, graphs_up_to_7, reps8):
        """The degree test equals the {2K2, C4}-free definition on every
        graph of order <= 8 and on random and planted graphs of order 9-14."""
        rng = random.Random(1994)
        others = []
        for n in range(9, 15):
            others += [random_graph(rng, n, rng.choice((0.3, 0.5, 0.7))) for _ in range(20)]
            others += [_pseudo_split_or_near(rng, n) for _ in range(40)]
        forb = [pattern("2k2"), cycle_graph(4)]
        for g in graphs_up_to_7 + reps8 + others:
            want = all(is_free(g, f) for f in forb)
            assert is_pseudo_split(g) == want, g.edges()

    def test_c5_partition(self):
        part = pseudo_split_partition(cycle_graph(5))
        assert part is not None
        assert len(part.h) == 5 and len(part.k) == 0 and len(part.i) == 0

    def test_unique_partition_when_middle_nonempty(self):
        # C5 fully joined to K2, plus two isolated-from-C5 vertices
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)]
        edges += [(h, k) for h in range(5) for k in (5, 6)]
        g = Graph.from_edges(9, edges)
        part = pseudo_split_partition(g)
        assert part is not None
        assert sorted(part.h) == [0, 1, 2, 3, 4]
        assert sorted(part.k) == [5, 6]
        assert sorted(part.i) == [7, 8]
        # brute force: no other (K,I,H) split qualifies
        count = 0
        for hmask in range(1 << 9):
            if bin(hmask).count("1") != 5:
                continue
            rest = g.full_mask() & ~hmask
            from switchkit.canonical import canonical_form
            from switchkit.graph import induced

            if canonical_form(induced(g, hmask)) != canonical_form(cycle_graph(5)):
                continue
            ok = True
            k = i = 0
            for v in bits_of(rest):
                nin = g.rows[v] & hmask
                if nin == hmask:
                    k |= 1 << v
                elif nin == 0:
                    i |= 1 << v
                else:
                    ok = False
                    break
            if ok and g.is_clique_mask(k) and g.is_independent_mask(i):
                count += 1
        assert count == 1


class TestPqSplit:
    def test_split_graphs_are_11_split(self, graphs_up_to_7):
        for g in graphs_up_to_7[:300]:
            got = {(s, t) for s, t in pq_split_partition_masks(g, 1, 1)}
            want = {(i, k) for k, i in all_split_partition_masks(g)}
            assert got == want

    def test_k5_partitions_match_exhaustive(self):
        g = complete_graph(5)
        got = set(pq_split_partition_masks(g, 2, 1))
        want = set()
        for s in range(1 << 5):
            t = g.full_mask() & ~s
            # S must be K3-free within a clique: |S| <= 2; T K̄2-free: clique
            if bin(s).count("1") <= 2 and g.is_clique_mask(t):
                want.add((s, t))
        assert got == want and len(got) == 16

    def test_c5_not_split(self):
        assert pq_split_partition_masks(cycle_graph(5), 1, 1) == []
        assert not is_pq_split(cycle_graph(5), 1, 1)

    def test_exhaustive_small_random(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(3, 7), rng.choice((0.3, 0.6)))
            for p, q in ((1, 2), (2, 1), (2, 2)):
                got = set(pq_split_partition_masks(g, p, q))
                want = set()
                for s in range(1 << g.n):
                    t = g.full_mask() & ~s
                    if (
                        _find_clique_in(g, s, p + 1) is None
                        and _find_clique_in(complement(g), t, q + 1) is None
                    ):
                        want.add((s, t))
                assert got == want, (g.edges(), p, q)

    def test_cap(self):
        with pytest.raises(TooLarge):
            pq_split_partition_masks(Graph.empty(23), 1, 2)
        # the cap counts the vertices of the mask, not of the host graph
        big = Graph.empty(30)
        got = pq_split_partition_masks(big, 1, 2, 0b111)
        assert got == pq_split_partition_masks(Graph.empty(3), 1, 2)
        with pytest.raises(TooLarge):
            pq_split_partition_masks(big, 1, 2, (1 << 23) - 1)

    def test_partition_objects(self):
        parts = pq_split_partitions(path_graph(3), 1, 1)
        assert parts and all(p.p == 1 and p.q == 1 for p in parts)


def test_mask_forms_equal_lifted_induced(atlas_by_order):
    """On G[mask] in host labels, both enumerators return the result on
    induced(g, mask) lifted back, in the same order."""
    for n in range(7):
        for g in atlas_by_order[n]:
            for mask in range(1 << n):
                verts = bits_of(mask)
                sub = induced(g, mask)

                def lifted(parts):
                    return [
                        tuple(sum(1 << verts[i] for i in bits_of(x)) for x in part)
                        for part in parts
                    ]

                got = all_split_partition_masks(g, mask)
                assert got == lifted(all_split_partition_masks(sub)), (g.edges(), mask)
                for p, q in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    got = pq_split_partition_masks(g, p, q, mask)
                    want = lifted(pq_split_partition_masks(sub, p, q))
                    assert got == want, (g.edges(), mask, p, q)
