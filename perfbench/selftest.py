"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one round of each workload at its smallest size with every check on,
shows that each checker rejects a corrupted answer, and cross-checks the
benchmark's own predicates and graph6 codec against networkx.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import model  # noqa: E402
import networkx as nx  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Recorder  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def one_round(name: str):
    wl = workloads.WORKLOADS[name](seed=7, small=True)
    wl.setup()
    rec = Recorder()
    inputs = wl.prepare()
    kept = [wl.keep(inputs, wl.execute(inputs, rec))]
    return wl, kept, rec


def rejects(wl, kept, what: str) -> None:
    errors, _failed = wl.check(kept)
    expect(bool(errors), f"{wl.name}: rejects {what}")


def corrupt(wl, rnd: list, pick, change, what: str) -> None:
    """Change the first entry of a round that `pick` accepts; expect rejection."""
    for i, entry in enumerate(rnd):
        if pick(entry):
            bad = list(rnd)
            bad[i] = change(entry)
            rejects(wl, [bad], what)
            return
    expect(False, f"{wl.name}: no entry to corrupt for {what}")


def census() -> None:
    wl, kept, rec = one_round("switch-census")
    errors, failed = wl.check(kept)
    expect(not errors and failed == 0 and rec.attempted == 11, "switch-census: order-5 round passes")
    bad = copy.deepcopy(kept)
    bad[0] = bad[0][1:] + bad[0][:1]  # same classes, reordered: still fine
    expect(not wl.check(bad)[0], "switch-census: accepts reordered classes")
    bad = [[c for c in kept[0] if c != kept[0][0]]]
    rejects(wl, bad, "a missing class")
    bad = [[kept[0][0] | {b"\x05\x00"} if c == kept[0][0] else c for c in kept[0]]]
    rejects(wl, bad, "a wrong form inside a class")


def upper() -> None:
    wl, kept, rec = one_round("upper-mix")
    errors, _ = wl.check(kept)
    expect(not errors, f"upper-mix: smallest round passes {errors[:3]}")
    rnd = kept[0]
    corrupt(
        wl,
        rnd,
        lambda e: e[2] and not e[1].startswith("enumerate"),
        lambda e: (*e[:4], None),
        "a planted instance answered none",
    )
    corrupt(
        wl,
        rnd,
        lambda e: e[0] == "bipartite" and e[4] is not None,
        lambda e: (*e[:4], _non_member_set(e[3], "bipartite")),
        "a wrong witness",
    )
    corrupt(
        wl,
        rnd,
        lambda e: e[1].startswith("enumerate") and len(e[4]) > 1,
        lambda e: (*e[:4], e[4][1:]),
        "an enumeration missing a solution",
    )
    # a switchable random graph answered none: only the scan can see it
    rows = model.planted_member(random.Random(1), "split", 9)
    rejects(wl, [[("split", "upper_split", False, rows, None)]], "a wrong none")


def _non_member_set(rows, target):
    for a in range(1 << len(rows)):
        if not model.CLASS_TESTS[target](model.switch(rows, a)):
            return a
    raise AssertionError("every switch is a member")


def nae() -> None:
    wl, kept, rec = one_round("nae-hardness")
    errors, _ = wl.check(kept)
    expect(not errors, f"nae-hardness: smallest round passes {errors[:3]}")
    inputs, (p10_n, c7_n, verdicts) = kept[0]
    flipped = [not verdicts[0]] + verdicts[1:]
    rejects(wl, [(inputs, (p10_n, c7_n, flipped))], "a flipped verdict")
    rejects(wl, [(inputs, (p10_n + 1, c7_n, verdicts))], "a wrong P10 order")


def cli() -> None:
    wl, kept, rec = one_round("cli-stream")
    errors, failed = wl.check(kept)
    expect(not errors, f"cli-stream: smallest round passes {errors[:3]}")
    expect(failed == 1, f"cli-stream: the (1,2,2) line item is the one failure ({failed})")
    rnd = kept[0]

    def flip_first(stdout):
        lines = stdout.splitlines()
        lines[0] = "no" if lines[0].startswith("yes") else "yes"
        return "\n".join(lines) + "\n"

    corrupt(
        wl,
        rnd,
        lambda e: e[1] == "lower" and e[2] == "chordal",
        lambda e: (*e[:6], flip_first(e[6])),
        "a flipped networkx-decided lower verdict",
    )
    corrupt(
        wl,
        rnd,
        lambda e: e[1] == "lower" and e[2] == "meyniel",
        lambda e: (*e[:6], flip_first(e[6])),
        "a lower verdict that differs between switches",
    )
    corrupt(wl, rnd, lambda e: e[1] == "lower", lambda e: (*e[:5], 2, e[6]), "a wrong exit code")

    def bad_switch(stdout):
        lines = stdout.splitlines()
        rows = model.from_graph6(lines[-1])
        rows = model.switch(rows, 1)
        lines[-1] = model.to_graph6(rows)
        return "\n".join(lines) + "\n"

    corrupt(
        wl, rnd, lambda e: e[1] == "switch", lambda e: (*e[:6], bad_switch(e[6])), "a wrong switch output"
    )
    corrupt(
        wl,
        rnd,
        lambda e: e[1] == "upper",
        lambda e: (*e[:5], 0, "\n".join(["1,2,3"] * len(e[3])) + "\n"),
        "a wrong split witness",
    )


def model_against_networkx() -> None:
    rng = random.Random(5)
    agree = True
    for _ in range(400):
        rows = model.random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
        for target, test in model.CLASS_TESTS.items():
            agree &= test(rows) == checks.in_class(target, rows)
        a = model.random_subset(rng, len(rows))
        agree &= checks.graph6_rows(model.to_graph6(rows)) == rows
        agree &= model.from_graph6(nx.to_graph6_bytes(checks.to_nx(rows), header=False).decode()) == rows
        agree &= model.switch(model.switch(rows, a), a) == rows
    expect(agree, "model: class tests and graph6 codec agree with networkx")
    for _ in range(20):
        rows = model.random_graph(rng, rng.randint(2, 7))
        for target, test in model.CLASS_TESTS.items():
            slow = {a for a in range(1 << len(rows)) if not a & 1 and test(model.switch(rows, a))}
            agree &= model.all_switching_sets(rows, test) == slow
    expect(agree, "model: the Gray-code scan finds exactly the direct scan's sets")
    big = model.random_graph(rng, 300)
    expect(checks.graph6_rows(model.to_graph6(big)) == big, "model: graph6 of 300 vertices")
    atlas = [
        nx.to_graph6_bytes(g, header=False).decode().strip()
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 6
    ]
    expect(atlas == (workloads.HERE / "atlas.g6").read_text().split(), "atlas.g6 is networkx's atlas")


def line_test_against_reference() -> None:
    from switchkit import Graph
    from switchkit.reference import is_line_graph

    lines = (workloads.HERE / "atlas.g6").read_text().split()
    same = all(
        checks.BASE_CLASSES["line"](checks.to_nx(rows)) == is_line_graph(Graph(len(rows), tuple(rows)))
        for rows in map(model.from_graph6, lines)
    )
    expect(same, "networkx line-graph test agrees with the Krausz reference on 208 atlas graphs")
    fault = model.from_graph6(workloads.KNOWN_FAULT[1])
    expect(checks.lower_truth("line", fault), "every switch of Dz[ is a line graph per networkx")


def metric_names_match_benchmark_json() -> None:
    import json

    spec = json.loads((workloads.HERE.parent / "BENCHMARK.json").read_text())
    names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    expect(names == tracing.metric_names(), "BENCHMARK.json per_layer matches the traced metrics")


def main() -> int:
    model_against_networkx()
    line_test_against_reference()
    metric_names_match_benchmark_json()
    census()
    upper()
    nae()
    cli()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
