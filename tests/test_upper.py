"""Upper switching class algorithms vs the brute-force oracle."""

import hashlib
import random
import zlib

import pytest

from switchkit.errors import TooLarge
from switchkit.graph import Graph, switch
from switchkit.oracle import oracle_upper, oracle_upper_all
from switchkit.patterns import complete_graph, cycle_graph, path_graph, pattern
from switchkit.reference import (
    is_bipartite,
    is_complete_multipartite,
    is_paw_free,
    is_triangle_free,
)
from switchkit.split import is_pseudo_split, is_split, split_partitions
from switchkit.upper import (
    enumerate_upper_pseudo_split,
    enumerate_upper_split,
    is_bipartite_chain,
    upper_bipartite,
    upper_bipartite_chain,
    upper_classes,
    upper_complete_multipartite,
    upper_paw_free,
    upper_pseudo_split,
    upper_split,
    upper_star_costar,
    upper_triangle_free,
)
from tests.conftest import random_graph

# every class with an algorithm; star-costar at p = q = 2
ALGORITHMS = [(name, c.algorithm, c.predicate) for name, c in upper_classes().items() if c.algorithm]


class TestWitnessExamples:
    def test_split_graph_input_gives_empty(self):
        got = upper_split(pattern("claw"))
        assert got is not None and len(got) == 0

    def test_c4_and_c5(self):
        for g in (cycle_graph(4), cycle_graph(5)):
            w = upper_split(g)
            assert w is not None and is_split(switch(g, w))

    def test_pseudo_split_c5_is_already_member(self):
        got = upper_pseudo_split(cycle_graph(5))
        assert got is not None and len(got) == 0

    def test_pseudo_split_gem(self):
        w = upper_pseudo_split(pattern("gem"))
        assert w is not None and is_pseudo_split(switch(pattern("gem"), w))

    def test_pseudo_split_p6_matches_oracle(self):
        g = path_graph(6)
        assert (upper_pseudo_split(g) is None) == (
            oracle_upper(g, is_pseudo_split) is None
        )

    def test_paw_free_examples(self):
        paw = pattern("paw")
        w = upper_paw_free(paw)
        assert w is not None and is_paw_free(switch(paw, w))
        # K4 is itself paw-free (no induced proper subgraph on 4 vertices)
        got = upper_paw_free(complete_graph(4))
        assert got is not None and len(got) == 0

    def test_triangle_free_k3(self):
        got = upper_triangle_free(complete_graph(3))
        assert got is not None and is_triangle_free(switch(complete_graph(3), got))

    def test_bipartite_c5_yields_p4_plus_k1(self):
        from switchkit.canonical import canonical_form

        w = upper_bipartite(cycle_graph(5))
        assert w is not None
        assert canonical_form(switch(cycle_graph(5), w)) == canonical_form(
            pattern("p4+k1")
        )

    def test_complete_multipartite_k2_k1(self):
        g = pattern("k2+k1")
        w = upper_complete_multipartite(g)
        assert w is not None
        from switchkit.reference import is_complete_multipartite

        assert is_complete_multipartite(switch(g, w))

    def test_star_costar_p3(self):
        w = upper_star_costar(path_graph(3), 2, 2)
        assert w is not None and sorted(w) == [1]
        assert switch(path_graph(3), w).edge_count() == 0

    def test_star_costar_free_input(self):
        got = upper_star_costar(complete_graph(1), 2, 2)
        assert got is not None and len(got) == 0

    def test_star_costar_params_validated(self):
        with pytest.raises(ValueError):
            upper_star_costar(path_graph(3), 1, 2)

    def test_bipartite_chain_c5(self):
        w = upper_bipartite_chain(cycle_graph(5))
        assert w is not None and is_bipartite_chain(switch(cycle_graph(5), w))

    def test_bipartite_chain_k4_rejected(self):
        assert upper_bipartite_chain(complete_graph(4)) is None

    def test_bipartite_chain_k23(self):
        from switchkit.patterns import complete_bipartite_graph

        assert is_bipartite_chain(complete_bipartite_graph(2, 3))

    def test_caps(self):
        with pytest.raises(TooLarge):
            upper_star_costar(Graph.empty(23), 2, 2)

    def test_uncapped_on_planted_order_40(self):
        rng = random.Random(40)
        for target, alg, pred in (
            ("paw-free", upper_paw_free, is_paw_free),
            ("bipartite", upper_bipartite, is_bipartite),
            ("bipartite-chain", upper_bipartite_chain, is_bipartite_chain),
            ("triangle-free", upper_triangle_free, is_triangle_free),
            ("complete-multipartite", upper_complete_multipartite, is_complete_multipartite),
            ("pseudo-split", upper_pseudo_split, is_pseudo_split),
        ):
            for _ in range(3):
                g = _planted(rng, target, 40)
                w = alg(g)
                assert w is not None and pred(switch(g, w)), (target, g.edges())


@pytest.mark.parametrize("name,alg,pred", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
def test_oracle_equivalence_n_le_6(atlas_by_order, name, alg, pred):
    for n in range(7):
        for g in atlas_by_order[n]:
            got = alg(g)
            want = oracle_upper(g, pred)
            assert (got is None) == (want is None), (name, g.edges())
            if got is not None:
                assert pred(switch(g, got)), (name, g.edges())


ISOLATION_ALGORITHMS = [
    (upper_triangle_free, is_triangle_free),
    (upper_complete_multipartite, is_complete_multipartite),
    (upper_bipartite, is_bipartite),
    (upper_paw_free, is_paw_free),
]


@pytest.mark.parametrize(
    "alg,pred", ISOLATION_ALGORITHMS, ids=[a.__name__ for a, _ in ISOLATION_ALGORITHMS]
)
def test_oracle_equivalence_order_8(reps8, alg, pred):
    for g in reps8:
        got = alg(g)
        want = oracle_upper(g, pred)
        assert (got is None) == (want is None), g.edges()
        if got is not None:
            assert pred(switch(g, got)), g.edges()


@pytest.mark.parametrize("name,alg,pred", ALGORITHMS, ids=[a[0] for a in ALGORITHMS])
def test_oracle_equivalence_random_n10(name, alg, pred):
    rng = random.Random(zlib.crc32(name.encode()))
    for _ in range(12):
        g = random_graph(rng, 10, rng.choice((0.2, 0.5, 0.8)))
        got = alg(g)
        want = oracle_upper(g, pred)
        assert (got is None) == (want is None), (name, g.edges())


class TestEnumeration:
    def test_k1(self):
        sols = enumerate_upper_split(complete_graph(1))
        assert [sorted(s) for s in sols] == [[]]

    def test_matches_oracle_n_le_6(self, atlas_by_order):
        for n in range(7):
            for g in atlas_by_order[n]:
                want = {a.mask for a in oracle_upper_all(g, is_split)}
                got = {a.mask for a in enumerate_upper_split(g)}
                assert got == want, g.edges()
                wantp = {a.mask for a in oracle_upper_all(g, is_pseudo_split)}
                gotp = {a.mask for a in enumerate_upper_pseudo_split(g)}
                assert gotp == wantp, g.edges()

    def test_split_solutions_meet_structural_bound(self, atlas_by_order):
        from switchkit.split import _base_split_partition

        for n in range(7):
            for g in atlas_by_order[n]:
                base = _base_split_partition(g)
                if base is None:
                    continue
                kmask, imask = base
                for a in enumerate_upper_split(g):
                    for m, side in ((a.mask, kmask), (a.mask, imask)):
                        inter = bin(m & side).count("1")
                        size = bin(side).count("1")
                        assert inter <= 1 or inter >= size - 1

    def test_partition_count_cap(self, graphs_up_to_7):
        for g in graphs_up_to_7:
            assert len(split_partitions(g)) <= g.n


class TestSoundnessRandom:
    def test_every_witness_verifies(self):
        rng = random.Random(99)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(4, 12), rng.random())
            for name, alg, pred in ALGORITHMS:
                got = alg(g)
                if got is not None:
                    assert pred(switch(g, got)), (name, g.edges())


# -- library witness digest ----------------------------------------------------

DIGEST_TARGETS = (
    "split",
    "pseudo-split",
    "paw-free",
    "bipartite",
    "bipartite-chain",
    "star-costar",
    "star-costar-3-3",
)


def _planted(rng: random.Random, target: str, n: int) -> Graph:
    """A member of ``target`` on n vertices, relabelled and switched at random."""
    edges = []
    if target in ("split", "pseudo-split"):
        h = 5 if target == "pseudo-split" and rng.random() < 0.5 else 0
        k = rng.randint(0, n - h)
        edges += [(u, v) for u in range(k) for v in range(u + 1, k)]
        edges += [
            (u, v) for u in range(k) for v in range(k, n - h) if rng.random() < 0.5
        ]
        if h:  # a C5 complete to the clique side
            edges += [(n - 5 + i, n - 5 + (i + 1) % 5) for i in range(5)]
            edges += [(u, v) for u in range(k) for v in range(n - 5, n)]
    elif target in ("bipartite", "bipartite-chain"):
        m = rng.randint(1, n - 1)
        for u in range(m):
            if target == "bipartite":
                edges += [(u, v) for v in range(m, n) if rng.random() < 0.5]
            else:  # nested neighbourhoods m..t-1
                edges += [(u, v) for v in range(m, rng.randint(m, n))]
    elif target == "paw-free":  # complete tripartite plus a bipartite component
        m = rng.randint(0, n)
        part = [rng.randrange(3) for _ in range(m)]
        edges += [
            (u, v) for u in range(m) for v in range(u + 1, m) if part[u] != part[v]
        ]
        edges += [
            (u, v)
            for u in range(m, n)
            for v in range(m, n)
            if u % 2 < v % 2 and rng.random() < 0.5
        ]
    elif target == "triangle-free":  # random edges, each kept if it closes no triangle
        nbrs = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5 and not nbrs[u] & nbrs[v]:
                    nbrs[u] |= 1 << v
                    nbrs[v] |= 1 << u
                    edges.append((u, v))
    elif target == "complete-multipartite":
        k = rng.randint(1, n)
        part = [rng.randrange(k) for _ in range(n)]
        edges += [
            (u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]
        ]
    elif target == "star-costar":  # p = q = 2: complete or edgeless
        if rng.random() < 0.5:
            edges += [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:  # p = q = 3: a cycle is claw-free and triangle-free
        edges += [(i, (i + 1) % n) for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    return switch(g, [v for v in range(n) if rng.random() < 0.5])


def test_library_witness_digest():
    """Every table algorithm, both enumerators and star/co-star at p = q = 3
    on seeded planted members and random graphs of orders 7-12: the sha256 of
    (name, rows, answer) is pinned, so a refactor keeps every witness.

    Re-pinned when paw-free, bipartite and bipartite chain moved to the
    vertex-isolation 2-SAT streams: only those three names' witnesses
    changed, and every yes/no answer stayed the same."""
    calls = []
    for name, c in upper_classes().items():
        if c.algorithm:
            calls.append((name, c.algorithm))
        if c.enumerator:
            calls.append((name + " enumerate", c.enumerator))
    calls.append(("star-costar-3-3", lambda g: upper_star_costar(g, 3, 3)))
    by_name = dict(calls)
    rng = random.Random(20241)
    digest = hashlib.sha256()
    for n in range(7, 13):
        for target in DIGEST_TARGETS:
            planted = _planted(rng, target, n)
            assert by_name[target](planted) is not None, (target, planted.edges())
            density = rng.choice((0.3, 0.5, 0.7))
            other = random_graph(rng, n, density)
            for g in (planted, other):
                for name, fn in calls:
                    got = fn(g)
                    if isinstance(got, list):
                        answer = [a.mask for a in got]
                    else:
                        answer = None if got is None else got.mask
                    digest.update(repr((name, g.rows, answer)).encode())
    assert digest.hexdigest() == (
        "202ec5edbbd462ee6b26811a138b83fdbb0f51361e02fc116423454855b78041"
    )
