"""The four workloads.

Each workload makes its inputs from the seed, one round at a time, and every
round runs the same operations in the same number, so that counts of
attempted and failed operations are whole multiples of one round.  The
runner times only `execute`; input generation (`prepare`) and the compact
record kept for the checks (`keep`) happen outside the clock.  `check` runs
after the timed phase and returns (errors, failed).
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import model

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# OEIS A002854 (switching classes, equal in number to Euler graphs and
# two-graphs; Mallows & Sloane 1975) and A000088 (graphs), by order.
SWITCHING_CLASSES = {1: 1, 2: 1, 3: 2, 4: 3, 5: 7, 6: 16, 7: 54, 8: 243}
GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _graph(rows: list[int]):
    from switchkit import Graph

    return Graph(len(rows), tuple(rows))


class Workload:
    name = ""
    in_process = False  # traced runs set this; only cli-stream reads it

    def __init__(self, seed: int, small: bool = False):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.small = small

    def setup(self) -> None:
        """Import switchkit and trigger the lazy set-up this workload uses."""
        import switchkit  # noqa: F401


# -- switch-census -----------------------------------------------------------


def _atlas(order: int) -> list[list[int]]:
    lines = (HERE / "atlas.g6").read_text().split()
    return [rows for rows in map(model.from_graph6, lines) if len(rows) == order]


class SwitchCensus(Workload):
    """switching_class(K1 + G) for every G of order n-1 in the graph atlas."""

    name = "switch-census"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.order = 5 if small else 7
        self.seeds = _atlas(self.order - 1)

    def prepare(self):
        from switchkit.canonical import _canonical_cached

        # Each round starts from a cold canonical cache, as a fresh process
        # would.  Relabelled seeds still repeat labelled graphs across rounds
        # (every relabelling of the edgeless seed is itself), so a warm cache
        # would make a round's cost, and the process's memory, depend on how
        # many rounds ran before it.
        _canonical_cached.cache_clear()
        rng = self.rng
        out = []
        for rows in rng.sample(self.seeds, len(self.seeds)):
            k1_plus = [0] + [row << 1 for row in rows]
            out.append(_graph(model.shuffled(rng, k1_plus)))
        return out

    def execute(self, inputs, rec):
        from switchkit import switching_class

        return [rec.item(switching_class, g) for g in inputs]

    def keep(self, inputs, outputs):
        return [frozenset(cls.forms()) for cls in outputs]

    def check(self, kept):
        errors = []
        n = self.order
        for r, classes in enumerate(kept):
            distinct = set(classes)
            union = frozenset().union(*distinct)
            if len(distinct) != SWITCHING_CLASSES[n]:
                errors.append(f"round {r}: {len(distinct)} classes at order {n}")
            if len(union) != GRAPHS[n]:
                errors.append(f"round {r}: classes cover {len(union)} graphs")
            if sum(map(len, distinct)) != len(union):
                errors.append(f"round {r}: switching classes overlap")
        return errors, 0


# -- upper-mix ---------------------------------------------------------------

# (target class, algorithm, orders).  The exponential stand-ins behind
# paw-free and bipartite stop at order 14: one random no-instance of order 16
# costs about a second there and would set the pace of a whole round.
UPPER_TARGETS = (
    ("split", "upper_split", (10, 12, 14, 16, 18)),
    ("pseudo-split", "upper_pseudo_split", (10, 12, 14, 16, 18)),
    ("paw-free", "upper_paw_free", (10, 12, 14)),
    ("bipartite", "upper_bipartite", (10, 12, 14)),
    ("bipartite-chain", "upper_bipartite_chain", (10, 12, 14, 16, 18)),
    ("star-costar", "upper_star_costar", (10, 12, 14, 16, 18)),
    ("split", "enumerate_upper_split", (10, 12, 14, 16, 18)),
)
SCAN_MAX = 12  # "none" answers and enumerations are re-derived up to here


class UpperMix(Workload):
    """Planted yes-instances and random graphs through every upper algorithm."""

    name = "upper-mix"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.slots = [
            (target, alg, n, planted)
            for target, alg, orders in UPPER_TARGETS
            for n in ((8, 10) if small else orders)
            for planted in (True, False)
        ]

    def setup(self) -> None:
        super().setup()
        from switchkit import Graph

        # a C5 with a pendant vertex: reaches the S(C5) forms of pseudo-split
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        for _target, alg, _orders in UPPER_TARGETS:
            self._algorithm(alg)(g)

    @staticmethod
    def _algorithm(alg: str):
        import switchkit

        fn = getattr(switchkit, alg)
        if alg == "upper_star_costar":
            return lambda g: fn(g, 2, 2)
        return fn

    def prepare(self):
        rng = self.rng
        out = []
        for target, alg, n, planted in self.slots:
            if planted:
                rows = model.planted_member(rng, target, n)
                rows = model.shuffled(rng, model.switch(rows, model.random_subset(rng, n)))
            else:
                rows = model.random_graph(rng, n)
            out.append((self._algorithm(alg), _graph(rows)))
        return out

    def execute(self, inputs, rec):
        return [rec.item(fn, g) for fn, g in inputs]

    def keep(self, inputs, outputs):
        kept = []
        for (target, alg, n, planted), (_fn, g), got in zip(self.slots, inputs, outputs):
            if isinstance(got, list):
                answer = sorted(vs.mask for vs in got)
            else:
                answer = None if got is None else got.mask
            kept.append((target, alg, planted, list(g.rows), answer))
        return kept

    def check(self, kept):
        import checks

        errors = []
        for r, rnd in enumerate(kept):
            for target, alg, planted, rows, answer in rnd:
                where = f"round {r} {alg} n={len(rows)}"
                enum = alg.startswith("enumerate")
                witnesses = answer if enum else ([] if answer is None else [answer])
                if planted and not witnesses:
                    errors.append(f"{where}: planted instance got no witness")
                for a in witnesses:
                    if not checks.in_class(target, model.switch(rows, a)):
                        errors.append(f"{where}: switch at {a:#x} is not {target}")
                # networkx is far too slow for 2^(n-1) switches; the scan uses
                # the bitmask tests, which the self-test holds to networkx
                if len(rows) <= SCAN_MAX and (enum or answer is None):
                    truth = model.all_switching_sets(rows, model.CLASS_TESTS[target])
                    if enum and set(witnesses) != truth:
                        errors.append(f"{where}: {len(witnesses)} solutions, scan finds {len(truth)}")
                    if not enum and truth:
                        errors.append(f"{where}: answered none, scan finds {len(truth)}")
        return errors, 0


# -- nae-hardness ------------------------------------------------------------


class NaeHardness(Workload):
    """verify_instance on P10 instances built from seeded NAE formulas.

    A round builds the P10 instance of one arity-5 clause over five
    variables, in a seeded literal order, and verifies all 32 assignments in
    a seeded order: 30 satisfy it and exhaust the induced-P10 search, the two
    constant ones violate it and stop at the first copy.  Verifying every
    assignment keeps the round's cost from hanging on which ones were drawn.
    The round also builds the C7 instance of a seeded one-clause formula.
    """

    name = "nae-hardness"

    def setup(self) -> None:
        super().setup()
        from switchkit import NaeFormula, build_c7_instance, build_p10_instance

        build_p10_instance(NaeFormula(5, 5, ((0, 1, 2, 3, 4),)))
        build_c7_instance(NaeFormula(3, 3, ((0, 1, 2),)))

    def prepare(self):
        from switchkit import NaeFormula

        rng = self.rng
        p10 = NaeFormula(5, 5, (tuple(rng.sample(range(5), 5)),))
        c7_vars = rng.randint(3, 5)
        c7 = NaeFormula(c7_vars, 3, (tuple(rng.sample(range(c7_vars), 3)),))
        picks = list(itertools.product((False, True), repeat=5))
        rng.shuffle(picks)
        return p10, c7, picks[:4] if self.small else picks

    def execute(self, inputs, rec):
        from switchkit import build_c7_instance, build_p10_instance, verify_instance

        p10, c7, picks = inputs
        inst = build_p10_instance(p10)
        c7_inst = build_c7_instance(c7)
        verdicts = [rec.item(verify_instance, inst, a) for a in picks]
        return inst.graph.n, c7_inst.graph.n, verdicts

    def keep(self, inputs, outputs):
        return inputs, outputs

    def check(self, kept):
        errors = []
        for r, ((p10, c7, picks), (p10_n, c7_n, verdicts)) in enumerate(kept):
            if p10_n != 50 * len(p10.clauses) + p10.num_vars:
                errors.append(f"round {r}: P10 instance has {p10_n} vertices")
            if c7_n != 196 * len(c7.clauses) + c7.num_vars:
                errors.append(f"round {r}: C7 instance has {c7_n} vertices")
            for a, got in zip(picks, verdicts):
                if got != model.nae_holds(p10.clauses, a):
                    errors.append(f"round {r}: verdict {got} for assignment {a}")
        return errors, 0


# -- cli-stream --------------------------------------------------------------

LOWER_CLASSES = (
    "weakly-chordal",
    "permutation",
    "comparability",
    "co-comparability",
    "distance-hereditary",
    "meyniel",
    "bipartite",
    "chordal",
    "block",
    "line",
    "outerplanar",
    "threshold",
)
NX_DECIDED = ("chordal", "bipartite", "threshold", "outerplanar", "line")
ORACLE_CLASSES = ("chordal", "line", "outerplanar")

# The path of cliques of sizes 1,2,2.  All 16 of its switches are line
# graphs, but LINE_PROFILES in switchkit.lower lacks (1,2,2), so
# `lower line` answers no.  Every round carries it; it counts as failed.
KNOWN_FAULT = ("line", "Dz[")

CLI_MAIN = "import sys; from switchkit.cli import main; main()"


def cli_command(args) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *args]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _isomorphic_small(a: list[int], b: list[int]) -> bool:
    if len(a) != len(b) or sorted(map(int.bit_count, a)) != sorted(map(int.bit_count, b)):
        return False
    return any(model.relabel(a, list(p)) == b for p in itertools.permutations(range(len(a))))


class CliStream(Workload):
    """The switchkit command line over one seeded graph6 stream."""

    name = "cli-stream"

    def __init__(self, seed: int, small: bool = False):
        super().__init__(seed, small)
        self.fault_rows = model.from_graph6(KNOWN_FAULT[1])

    def _plan(self):
        """(argv, kind, stream spec) for every invocation of a round."""
        plan = [(("switch", "--set", "{set}"), "switch", "big")]
        plan += [(("lower", c), "lower", c) for c in LOWER_CLASSES]
        plan += [(("lower", c, "--oracle"), "lower", c) for c in ORACLE_CLASSES]
        plan.append((("upper", "split"), "upper", "split"))
        return plan

    def _stream(self, spec: str, rng: random.Random):
        """Graphs (as rows) for one invocation, and a switching set if any."""
        small = self.small
        if spec == "big":
            orders = [40, 60] if small else [rng.randint(200, 300), rng.randint(400, 500)]
            orders += [rng.randint(6, 12) for _ in range(4)]
            graphs = [model.random_graph(rng, n) for n in orders]
            return graphs, model.bits(model.random_subset(rng, 6)) or [0]
        if spec == "split":
            graphs = [
                model.shuffled(rng, model.switch(model.planted_member(rng, "split", n), model.random_subset(rng, n)))
                for n in (8, 10)
            ]
            graphs += [model.random_graph(rng, n) for n in (8, 10)]
            return graphs, None
        if spec in NX_DECIDED:
            top = 6 if spec == "outerplanar" else 8
            graphs = []
            while len(graphs) < 4:
                g = model.random_graph(rng, rng.randint(3, top), rng.choice((0.3, 0.5, 0.7)))
                # the known fault rides once per round, never by chance
                if not _isomorphic_small(g, self.fault_rows):
                    graphs.append(g)
            if spec == KNOWN_FAULT[0]:
                graphs.insert(rng.randrange(len(graphs) + 1), self.fault_rows)
            return graphs, None
        # classes networkx cannot decide: a graph and two of its switches,
        # which must get the same verdict since lower classes are closed
        graphs = []
        for n in (4, 6):
            g = model.random_graph(rng, n, rng.choice((0.3, 0.5, 0.7)))
            graphs.append(g)
            graphs += [model.shuffled(rng, model.switch(g, model.random_subset(rng, n))) for _ in range(2)]
        return graphs, None

    def prepare(self):
        out = []
        for argv, kind, spec in self._plan():
            graphs, aset = self._stream(spec, self.rng)
            args = [a.format(set=",".join(map(str, aset or []))) for a in argv]
            text = "".join(model.to_graph6(g) + "\n" for g in graphs)
            out.append((args, kind, spec, graphs, aset, text))
        return out

    def run_cli(self, args, text):
        if self.in_process:
            import contextlib
            import io

            from switchkit import cli

            out = io.StringIO()
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.run(args)
            finally:
                sys.stdin = stdin
            return rc, out.getvalue()
        proc = subprocess.run(
            cli_command(args), input=text, capture_output=True, text=True, env=cli_env(), timeout=170
        )
        return proc.returncode, proc.stdout

    def execute(self, inputs, rec):
        return [rec.item(self.run_cli, args, text, items=len(graphs)) for args, _k, _s, graphs, _a, text in inputs]

    def keep(self, inputs, outputs):
        return [
            (args, kind, spec, graphs, aset, rc, stdout)
            for (args, kind, spec, graphs, aset, _t), (rc, stdout) in zip(inputs, outputs)
        ]

    def check(self, kept):
        import checks

        errors = []
        failed = 0
        for r, rnd in enumerate(kept):
            for args, kind, spec, graphs, aset, rc, stdout in rnd:
                where = f"round {r} {' '.join(args)}"
                lines = stdout.splitlines()
                if kind == "upper":
                    verdicts = [line != "none" for line in lines]
                else:
                    verdicts = [line.split(" ")[0] == "yes" for line in lines]
                if len(lines) != len(graphs):
                    errors.append(f"{where}: {len(lines)} answers for {len(graphs)} graphs")
                    continue
                if kind == "switch":
                    amask = model.mask_of(aset)
                    for g, line in zip(graphs, lines):
                        if checks.graph6_rows(line) != model.switch(g, amask):
                            errors.append(f"{where}: wrong switch of a {len(g)}-vertex graph")
                    if rc != 0:
                        errors.append(f"{where}: exit code {rc}")
                    continue
                if rc != (0 if all(verdicts) else 1):
                    errors.append(f"{where}: exit code {rc} for verdicts {verdicts}")
                if kind == "upper":
                    for g, line, yes in zip(graphs, lines, verdicts):
                        if yes:
                            a = model.mask_of(int(t) for t in line.split(",")) if line != "{}" else 0
                            if not checks.in_class("split", model.switch(g, a)):
                                errors.append(f"{where}: witness {line} does not give a split graph")
                        elif model.all_switching_sets(g, model.CLASS_TESTS["split"]):
                            errors.append(f"{where}: answered none on a switchable graph")
                    continue
                if spec in NX_DECIDED:
                    for g, yes in zip(graphs, verdicts):
                        truth = checks.lower_truth(spec, g)
                        if yes == truth:
                            continue
                        if (spec, g, "--oracle" in args) == (KNOWN_FAULT[0], self.fault_rows, False):
                            failed += 1
                        else:
                            errors.append(f"{where}: {model.to_graph6(g)} answered {yes}, networkx says {truth}")
                else:
                    for k in range(0, len(verdicts), 3):
                        if len(set(verdicts[k : k + 3])) != 1:
                            errors.append(f"{where}: switches of one graph got different verdicts")
        return errors, failed


WORKLOADS = {w.name: w for w in (SwitchCensus, UpperMix, NaeHardness, CliStream)}
