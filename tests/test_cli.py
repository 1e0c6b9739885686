"""CLI surface: exit codes, golden outputs, determinism."""

import hashlib
import importlib
import inspect
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from switchkit.cli import run
from switchkit.graphio import emit_graph6
from switchkit.patterns import complete_graph, cycle_graph, pattern


def cli(argv, stdin=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


C4 = emit_graph6(cycle_graph(4))
C5 = emit_graph6(cycle_graph(5))
NAE5 = "nae 5 5 1\n1 2 3 4 5\n"
NAE3 = "nae 3 3 1\n1 2 3\n"


def test_switch_c4_opposite_pair_gives_4k1():
    code, out, _ = cli(["switch", "--set", "0,2"], C4)
    assert code == 0
    assert out.strip() == emit_graph6(pattern("4k1"))


def test_switch_deterministic():
    a = cli(["switch", "--set", "1,3"], C5)
    b = cli(["switch", "--set", "1,3"], C5)
    assert a == b


def test_class_c4():
    code, out, _ = cli(["class"], C4)
    assert code == 0
    lines = out.split()
    assert len(lines) == 3


def test_class_edgeless_10():
    code, out, _ = cli(["class"], "I????????\n")
    assert code == 0 and len(out.splitlines()) == 6


def test_upper_split_yes_and_witness():
    code, out, _ = cli(["upper", "split"], C4)
    assert code == 0
    verts = [int(t) for t in out.strip().split(",")]
    from switchkit.graph import switch
    from switchkit.split import is_split

    assert is_split(switch(cycle_graph(4), verts))


def test_upper_no_exit_code():
    k4 = emit_graph6(complete_graph(4))
    code, out, _ = cli(["upper", "bipartite-chain"], k4)
    assert code == 1 and out.strip() == "none"


def test_upper_enumerate_matches_oracle():
    code, out, _ = cli(["upper", "split", "--enumerate", "--json"], C4)
    assert code == 0
    sols = json.loads(out)["solutions"]
    assert sols == [[1], [2], [3], [1, 3], [1, 2, 3]]


def test_upper_oracle_flag_agrees():
    for g6 in (C4, C5):
        a = cli(["upper", "split"], g6)[0]
        b = cli(["upper", "split", "--oracle"], g6)[0]
        assert a == b


def test_lower_profile_output():
    p4 = emit_graph6(pattern("p4"))
    code, out, _ = cli(["lower", "chordal"], p4)
    assert code == 0
    assert out.strip() == "yes (1,1,1,1)"


def test_lower_no():
    code, out, _ = cli(["lower", "weakly-chordal"], C5)
    assert code == 1 and out.strip() == "no"


def test_lower_oracle_flag():
    code, out, _ = cli(["lower", "chordal", "--oracle"], C4)
    assert code == 1


def test_batch_mode_lines():
    batch = C4 + "\n" + C5 + "\n"
    code, out, _ = cli(["upper", "split", "--json"], batch)
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2 and all(r["switchable"] for r in rows)


def test_oracle_command_free_family():
    code, out, _ = cli(["oracle", "lower", "free:c4,c5,c6"], emit_graph6(pattern("p4")))
    assert code == 0 and out.strip() == "yes"


def test_reduce_and_verify_p10():
    code, out, _ = cli(["reduce", "p10", "--json"], NAE5)
    assert code == 0
    payload = json.loads(out)
    assert payload["roles"]["num_vertices"] == 55
    code, out, _ = cli(["verify", "p10", "--assign", "1,0,0,0,0"], NAE5)
    assert code == 0 and out.strip() == "pattern-free"
    code, out, _ = cli(["verify", "p10", "--assign", "0,0,0,0,0"], NAE5)
    assert code == 1 and out.strip() == "pattern-found"


def test_verify_budget_exit_code():
    code, _, err = cli(["verify", "c7", "--assign", "1,0,0", "--budget", "10"], NAE3)
    assert code == 3 and "budget" in err


def test_too_large_exit_code():
    from switchkit.graph import Graph

    big = emit_graph6(Graph.empty(30))
    code, _, err = cli(["upper", "star-costar"], big)
    assert code == 3


def test_uncapped_upper_answers_past_22():
    from switchkit.graph import Graph

    big = emit_graph6(Graph.empty(30))
    for name in ("paw-free", "bipartite", "bipartite-chain"):
        code, out, _ = cli(["upper", name], big)
        assert code == 0 and out.strip() == "{}", name


def test_usage_error():
    code, _, _ = cli(["upper", "nonesuch"], C4)
    assert code == 2


def test_malformed_graph6():
    code, _, err = cli(["upper", "split"], "this is not graph6")
    assert code == 2


def test_bad_line_keeps_stream_going():
    code, out, err = cli(["lower", "chordal"], "Cl\n!!bad\nCh\n")
    assert code == 2
    assert [line.split()[0] for line in out.splitlines()] == ["no", "yes"]
    assert "line 2" in err


def test_bad_line_json_record():
    code, out, _ = cli(["lower", "chordal", "--json"], "Cl\n!!bad\nCh\n")
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 2
    assert [set(r) for r in rows] == [{"class", "member"}, {"error", "line"}, {"class", "member", "profile"}]
    assert rows[1]["line"] == 2


def test_cap_hit_in_stream_is_worst_code():
    from switchkit.graph import Graph

    stream = "\n".join([C4, emit_graph6(Graph.empty(11)), "!!bad", C5]) + "\n"
    code, out, err = cli(["class"], stream)
    assert code == 3
    assert len(out.split()) == 3 + 4
    assert "line 2" in err and "line 3" in err


def test_patterns_listing_and_lookup():
    code, out, _ = cli(["patterns"])
    assert code == 0 and "paw" in out.split()
    code, out, _ = cli(["patterns", "paw"])
    assert code == 0 and out.strip() == emit_graph6(pattern("paw"))


def test_edge_format_input():
    code, out, _ = cli(["upper", "split", "--format", "edges"], "4 4\n0 1\n1 2\n2 3\n3 0\n")
    assert code == 0


def test_reduce_roles_sidecar(tmp_path):
    path = tmp_path / "roles.json"
    code, out, _ = cli(["reduce", "c7", "--roles", str(path)], NAE3)
    assert code == 0
    roles = json.loads(path.read_text())
    assert roles["num_vertices"] == 199
    assert len(roles["clauses"][0]["B"]) == 8


# Every graph of order 1-6, one per isomorphism class (208 graph6 lines).
ATLAS_G6 = (Path(__file__).resolve().parent.parent / "perfbench" / "atlas.g6").read_text()

LOWER_NAMES = (
    "weakly-chordal", "permutation", "comparability", "co-comparability",
    "distance-hereditary", "meyniel", "bipartite", "chordal", "block", "line",
    "outerplanar", "threshold",
)
UPPER_NAMES = ("split", "pseudo-split", "paw-free", "star-costar", "bipartite", "bipartite-chain")
ORACLE_PREDICATES = (
    "split", "pseudo-split", "paw-free", "triangle-free", "complete-multipartite",
    "bipartite", "bipartite-chain", "star-costar", "free:c4,c5",
)
# sha256 over (argv, exit code, stdout) of every command in golden_commands()
# on the atlas stream.  Re-pinned when upper paw-free, bipartite and
# bipartite-chain moved to the vertex-isolation 2-SAT streams: only those six
# runs (text and --json, without --oracle) changed, in their witnesses alone.
GOLDEN_CLI_DIGEST = "e0a8ceaaecb8c8966fa48c6825f1c435f01caa646e4e6c184c0f1c08fb1c8555"


def golden_commands():
    cmds = [["class"]]
    cmds += [["lower", c, *flag] for c in LOWER_NAMES for flag in ([], ["--oracle"])]
    cmds += [["upper", c, *flag] for c in UPPER_NAMES for flag in ([], ["--oracle"])]
    cmds += [["upper", c, "--enumerate"] for c in ("split", "pseudo-split")]
    cmds += [["oracle", d, p] for d in ("upper", "lower") for p in ORACLE_PREDICATES]
    return [argv + mode for argv in cmds for mode in ([], ["--json"])]


def test_golden_cli_digest_on_atlas():
    digest = hashlib.sha256()
    runs = golden_commands()
    assert len(runs) == 114
    for argv in runs:
        code, out, _ = cli(argv, ATLAS_G6)
        digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == GOLDEN_CLI_DIGEST


def test_benchmark_layers_are_public_functions():
    """Each function a per-layer benchmark metric names still exists."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    named = set()
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_s") and parts[:2] != ["reference", "predicates"]:
            named.add((parts[0], parts[1]))
    assert named
    for module, func in sorted(named):
        mod = importlib.import_module(f"switchkit.{module}")
        fn = getattr(mod, func, None)
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{module}.{func}"
