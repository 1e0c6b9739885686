"""Switching, complement, induced subgraphs, modules, and their algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchkit.errors import SizeMismatch
from switchkit.canonical import canonical_form
from switchkit.graph import (
    Graph,
    VertexSet,
    bits_of,
    complement,
    induced,
    is_module,
    switch,
)
from switchkit.patterns import complete_graph, cycle_graph, path_graph, pattern


def masks_graph(n: int, code: int) -> Graph:
    edges = []
    bit = 0
    for u in range(n):
        for v in range(u + 1, n):
            if code >> bit & 1:
                edges.append((u, v))
            bit += 1
    return Graph.from_edges(n, edges)


graph_codes = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
)


class TestSwitch:
    def test_p4_end_vertex_gives_paw(self):
        p4 = path_graph(4)
        assert canonical_form(switch(p4, [0])) == canonical_form(pattern("paw"))

    def test_empty_set_is_identity(self):
        g = cycle_graph(6)
        assert switch(g, []) == g

    def test_c4_single_vertex_gives_claw(self):
        assert canonical_form(switch(cycle_graph(4), [0])) == canonical_form(
            pattern("claw")
        )

    def test_c4_opposite_pair_gives_4k1(self):
        assert switch(cycle_graph(4), [0, 2]) == Graph.empty(4)

    def test_out_of_range_vertex(self):
        with pytest.raises(IndexError):
            switch(cycle_graph(4), [4])

    def test_vertex_set_bound_to_other_graph(self):
        with pytest.raises(SizeMismatch):
            switch(cycle_graph(4), VertexSet(5, [0]))

    @given(graph_codes, st.integers(0, 1 << 9))
    @settings(max_examples=200)
    def test_involution(self, spec, aseed):
        n, code = spec
        g = masks_graph(n, code)
        a = aseed & g.full_mask()
        assert switch(switch(g, a), a) == g

    @given(graph_codes, st.integers(0, 1 << 9))
    @settings(max_examples=200)
    def test_complement_of_a(self, spec, aseed):
        n, code = spec
        g = masks_graph(n, code)
        a = aseed & g.full_mask()
        assert switch(g, a) == switch(g, g.full_mask() & ~a)

    @given(graph_codes, st.integers(0, 1 << 9), st.integers(0, 1 << 9))
    @settings(max_examples=200)
    def test_composition(self, spec, aseed, bseed):
        n, code = spec
        g = masks_graph(n, code)
        a = aseed & g.full_mask()
        b = bseed & g.full_mask()
        assert switch(switch(g, a), b) == switch(g, a ^ b)

    @given(graph_codes, st.integers(0, 1 << 9))
    @settings(max_examples=200)
    def test_commutes_with_complement(self, spec, aseed):
        n, code = spec
        g = masks_graph(n, code)
        a = aseed & g.full_mask()
        assert complement(switch(g, a)) == switch(complement(g), a)


class TestComplement:
    def test_k3(self):
        assert complement(complete_graph(3)) == Graph.empty(3)

    def test_c5_self_complementary(self):
        c5 = cycle_graph(5)
        assert canonical_form(complement(c5)) == canonical_form(c5)

    def test_diamond_is_co_k2_2k1(self):
        assert canonical_form(pattern("diamond")) == canonical_form(
            complement(pattern("k2+2k1"))
        )

    @given(graph_codes)
    def test_double_complement(self, spec):
        n, code = spec
        g = masks_graph(n, code)
        assert complement(complement(g)) == g


class TestInduced:
    def test_c5_four_consecutive_is_p4(self):
        got = induced(cycle_graph(5), [0, 1, 2, 3])
        assert canonical_form(got) == canonical_form(path_graph(4))

    def test_paw_triangle(self):
        got = induced(pattern("paw"), [0, 1, 2])
        assert got == complete_graph(3)

    def test_c6_alternating_is_2k2(self):
        got = induced(cycle_graph(6), [1, 2, 4, 5])
        assert canonical_form(got) == canonical_form(pattern("2k2"))

    @given(graph_codes, st.integers(0, 1 << 9), st.integers(0, 1 << 9))
    @settings(max_examples=150)
    def test_induced_commutes_with_switch(self, spec, aseed, useed):
        # restriction of a switch equals switching the restriction
        n, code = spec
        g = masks_graph(n, code)
        a = aseed & g.full_mask()
        u = useed & g.full_mask()
        verts = [v for v in range(n) if u >> v & 1]
        rel = 0
        for i, v in enumerate(verts):
            if a >> v & 1:
                rel |= 1 << i
        assert induced(switch(g, a), u) == switch(induced(g, u), rel)


class TestIsModule:
    def test_singleton_and_full(self):
        g = cycle_graph(5)
        assert is_module(g, [2])
        assert is_module(g, list(range(5)))

    def test_cherry_ends_not_module(self):
        g = path_graph(3)
        assert not is_module(g, [0, 1])
        assert is_module(g, [0, 2])


class TestDensityIdentity:
    def test_random_balanced_switches(self):
        rng = random.Random(20240817)
        for _ in range(1000):
            n = rng.randrange(2, 65)
            g = Graph.from_edges(
                n,
                [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < rng.choice((0.15, 0.5, 0.85))
                ],
            )
            half = n // 2
            averts = rng.sample(range(n), half)
            amask = 0
            for v in averts:
                amask |= 1 << v
            s = switch(g, amask)
            inside = sum(
                1
                for u, v in g.edges()
                if (amask >> u & 1) == (amask >> v & 1)
            )
            total = g.edge_count() + s.edge_count()
            assert total == 2 * inside + half * (n - half)
            assert total >= half * (n - half)


def test_components_of_mask_equal_lifted_induced(atlas_by_order):
    for n in range(7):
        for g in atlas_by_order[n]:
            for mask in range(1 << n):
                verts = bits_of(mask)
                want = [
                    sum(1 << verts[i] for i in bits_of(comp))
                    for comp in induced(g, mask).components()
                ]
                assert g.components(mask) == want, (g.edges(), mask)
            assert g.components(g.full_mask()) == g.components()
