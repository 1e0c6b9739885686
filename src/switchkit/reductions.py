"""Hardness-construction generators: switching-to-P10-free and to-C7-free.

Both constructions hang clause gadgets off an independent layer of variable
vertices; switching the TRUE variable vertices of a not-all-equal-satisfying
assignment destroys every induced copy of the target pattern, and only such
assignments do.  The variable-layer/gadget adjacencies are hard-coded, then
re-checked at build time against the property that defines them (switching
exactly one of L_i or I_i must leave an induced target on L_i ∪ I_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .errors import ArityMismatch, NotVariableOnly, SizeMismatch
from .graph import Graph, VertexSet, bits_of, switch
from .nae import Assignment, NaeFormula
from .search import (
    DEFAULT_BUDGET,
    find_induced_cycle,
    find_induced_path,
    induces_cycle_sequence,
    induces_path_sequence,
)

P9_LEN = 9
P6_LEN = 6


@dataclass(frozen=True)
class P10ClauseLayout:
    i_set: tuple[int, ...]  # 5 independent vertices
    b_paths: tuple[tuple[int, ...], ...]  # 5 paths of 9, in path order

    @property
    def v_ends(self) -> tuple[int, ...]:
        """Per path, the end vertex kept nonadjacent to the I set."""
        return tuple(p[-1] for p in self.b_paths)

    def all_vertices(self) -> list[int]:
        out = list(self.i_set)
        for p in self.b_paths:
            out.extend(p)
        return out


@dataclass(frozen=True)
class C7ClauseLayout:
    i_set: tuple[int, ...]  # 4 vertices inducing K2+2K1 (edge between 0th/3rd)
    cells: tuple[tuple[tuple[int, ...], ...], ...]  # [level 0..7][cell 0..3] = P6

    def level(self, j: int) -> list[int]:
        out: list[int] = []
        for cell in self.cells[j]:
            out.extend(cell)
        return out

    def all_vertices(self) -> list[int]:
        out = list(self.i_set)
        for j in range(8):
            out.extend(self.level(j))
        return out


@dataclass(frozen=True)
class ReductionInstance:
    target: Literal["p10", "c7"]
    formula: NaeFormula
    graph: Graph
    variable_vertices: tuple[int, ...]
    clause_layout: tuple

    def clause_variable_vertices(self, i: int) -> tuple[int, ...]:
        return tuple(self.variable_vertices[v] for v in self.formula.clauses[i])

    def roles(self) -> dict:
        """JSON-ready vertex-role map."""
        out: dict = {
            "target": self.target,
            "num_vertices": self.graph.n,
            "variable_vertices": list(self.variable_vertices),
            "clauses": [],
        }
        for i, layout in enumerate(self.clause_layout):
            if self.target == "p10":
                out["clauses"].append(
                    {
                        "variables": list(self.formula.clauses[i]),
                        "I": list(layout.i_set),
                        "B": [list(p) for p in layout.b_paths],
                        "v_ends": list(layout.v_ends),
                    }
                )
            else:
                out["clauses"].append(
                    {
                        "variables": list(self.formula.clauses[i]),
                        "I": list(layout.i_set),
                        "B": [
                            [
                                {
                                    "p": cell[0],
                                    "q": cell[-1],
                                    "interior": list(cell[1:-1]),
                                    "vertices": list(cell),
                                }
                                for cell in level
                            ]
                            for level in layout.cells
                        ],
                    }
                )
        return out


def _complete(edges: list[tuple[int, int]], xs, ys) -> None:
    for x in xs:
        for y in ys:
            edges.append((x, y))


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(f"construction self-check failed: {what}")


# -- P10 -------------------------------------------------------------------


def build_p10_instance(f: NaeFormula) -> ReductionInstance:
    """50m + n vertices (each clause adds 5 I vertices and 5 P9s); switching
    TRUE variable vertices of an NAE-satisfying assignment yields a P10-free
    graph, and only such switchings within L do."""
    if f.k != 5:
        raise ArityMismatch(f"P10 construction needs arity 5, got {f.k}")
    n = f.num_vars
    edges: list[tuple[int, int]] = []
    layouts = []
    nxt = n
    for clause in f.clauses:
        i_set = tuple(range(nxt, nxt + 5))
        nxt += 5
        b_paths = []
        for _ in range(5):
            path = tuple(range(nxt, nxt + P9_LEN))
            nxt += P9_LEN
            edges.extend(zip(path, path[1:]))
            b_paths.append(path)
        b_paths = tuple(b_paths)
        # all of each P9 except its far end is complete to the I set
        for path in b_paths:
            _complete(edges, path[:-1], i_set)
        # variable vertices thread the paths: x_j sees B_{j-1} and B_j
        lvars = [clause[j] for j in range(5)]
        _complete(edges, [lvars[0]], b_paths[0])
        for j in range(1, 5):
            _complete(edges, [lvars[j]], b_paths[j - 1] + b_paths[j])
        # I/L adjacency: I_j misses exactly x_j and x_{j+1}
        for j in range(5):
            for loc in range(5):
                if loc != j and loc != j + 1:
                    edges.append((i_set[j], lvars[loc]))
        layouts.append(P10ClauseLayout(i_set, b_paths))
    for a in range(len(layouts)):
        for b in range(a + 1, len(layouts)):
            _complete(edges, layouts[a].all_vertices(), layouts[b].all_vertices())
    g = Graph.from_edges(nxt, edges)
    inst = ReductionInstance("p10", f, g, tuple(range(n)), tuple(layouts))
    _self_check_p10(inst)
    return inst


def _self_check_p10(inst: ReductionInstance) -> None:
    g = inst.graph
    for i, layout in enumerate(inst.clause_layout):
        lverts = inst.clause_variable_vertices(i)
        picks = [p[0] for p in layout.b_paths]
        seq: list[int] = []
        for j in range(5):
            seq.append(lverts[j])
            seq.append(picks[j])
        _check(
            induces_path_sequence(g, seq),
            f"clause {i}: L plus one vertex per P9 is not an induced P10",
        )
        for amask in (lverts, layout.i_set):
            switched = switch(g, amask)
            zig: list[int] = []
            for j in range(5):
                zig.append(lverts[j])
                zig.append(layout.i_set[j])
            _check(
                induces_path_sequence(switched, zig),
                f"clause {i}: switching one of L_i/I_i does not expose a P10",
            )


# -- C7 --------------------------------------------------------------------


def build_c7_instance(f: NaeFormula) -> ReductionInstance:
    """196m + n vertices; same switching equivalence with induced C7s."""
    if f.k != 3:
        raise ArityMismatch(f"C7 construction needs arity 3, got {f.k}")
    n = f.num_vars
    edges: list[tuple[int, int]] = []
    layouts = []
    nxt = n
    for clause in f.clauses:
        i_set = tuple(range(nxt, nxt + 4))
        nxt += 4
        edges.append((i_set[0], i_set[3]))  # the K2 of the K2+2K1
        levels = []
        for _j in range(8):
            level_cells = []
            for _l in range(4):
                cell = tuple(range(nxt, nxt + P6_LEN))
                nxt += P6_LEN
                edges.extend(zip(cell, cell[1:]))
                level_cells.append(cell)
            levels.append(tuple(level_cells))
        cells = tuple(levels)
        # interiors feed the next level of the same cell column
        for j in range(7):
            for loc in range(4):
                _complete(edges, cells[j][loc][1:-1], cells[j + 1][loc])
        # level-8 interiors reach the I set
        for loc in range(4):
            _complete(edges, cells[7][loc][1:-1], i_set)
        # first and fourth level-1 cells close the future cycle
        _complete(edges, cells[0][0], cells[0][3])
        lvars = [clause[j] for j in range(3)]
        for loc in range(3):
            _complete(edges, [lvars[loc]], cells[0][loc] + cells[0][loc + 1])
        # I/L adjacency of the K2+2K1 gadget
        for iv, xs in zip(i_set, ((1, 2), (2,), (0,), (0, 1))):
            for x in xs:
                edges.append((iv, lvars[x]))
        layouts.append(C7ClauseLayout(i_set, cells))
    # cross-clause wiring: level-1 blocks pairwise complete, complete to all
    # I sets (own included); I sets pairwise complete
    all_i: list[int] = []
    for layout in layouts:
        all_i.extend(layout.i_set)
    for a, la in enumerate(layouts):
        _complete(edges, la.level(0), [v for v in all_i if v not in la.i_set])
        _complete(edges, la.level(0), la.i_set)
        for b in range(a + 1, len(layouts)):
            _complete(edges, la.level(0), layouts[b].level(0))
            _complete(edges, la.i_set, layouts[b].i_set)
    g = Graph.from_edges(nxt, set(edges))
    inst = ReductionInstance("c7", f, g, tuple(range(n)), tuple(layouts))
    _self_check_c7(inst)
    return inst


def _self_check_c7(inst: ReductionInstance) -> None:
    g = inst.graph
    for i, layout in enumerate(inst.clause_layout):
        lverts = inst.clause_variable_vertices(i)
        picks = [layout.cells[0][loc][0] for loc in range(4)]
        seq = [picks[0], lverts[0], picks[1], lverts[1], picks[2], lverts[2], picks[3]]
        _check(
            induces_cycle_sequence(g, seq),
            f"clause {i}: L plus one vertex per level-1 cell is not an induced C7",
        )
        for amask in (lverts, layout.i_set):
            switched = switch(g, amask)
            ring = [
                layout.i_set[0],
                lverts[0],
                layout.i_set[1],
                lverts[1],
                layout.i_set[2],
                lverts[2],
                layout.i_set[3],
            ]
            _check(
                induces_cycle_sequence(switched, ring),
                f"clause {i}: switching one of L_i/I_i does not expose a C7",
            )


# -- assignment <-> switching set -------------------------------------------


def assignment_to_switching_set(inst: ReductionInstance, a: Assignment) -> VertexSet:
    if len(a) != inst.formula.num_vars:
        raise SizeMismatch(
            f"assignment length {len(a)} != {inst.formula.num_vars} variables"
        )
    mask = 0
    for var, value in enumerate(a):
        if value:
            mask |= 1 << inst.variable_vertices[var]
    return VertexSet(inst.graph.n, mask)


def switching_set_to_assignment(
    inst: ReductionInstance, s: VertexSet
) -> Assignment:
    lmask = 0
    for v in inst.variable_vertices:
        lmask |= 1 << v
    if s.mask & ~lmask:
        raise NotVariableOnly("switching set leaves the variable layer")
    index = {v: var for var, v in enumerate(inst.variable_vertices)}
    out = [False] * inst.formula.num_vars
    for v in bits_of(s.mask):
        out[index[v]] = True
    return tuple(out)


def verify_instance(
    inst: ReductionInstance, a: Assignment, budget: int = DEFAULT_BUDGET
) -> bool:
    """True iff switching the TRUE variable vertices kills every induced copy
    of the target pattern.  Raises BudgetExceeded if the search cannot finish."""
    switched = switch(inst.graph, assignment_to_switching_set(inst, a))
    if inst.target == "p10":
        return find_induced_path(switched, 10, budget) is None
    return find_induced_cycle(switched, 7, budget) is None
