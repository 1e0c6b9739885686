"""Command-line surface.

Graphs stream in as graph6 (one per line) on stdin or via --file; --format
edges switches to the "n m" / "u v" edge-list format (single graph).  Exit
codes: 0 decided yes (or plain success), 1 decided no, 2 usage error,
3 size cap or search budget hit.  --json emits one JSON object per graph.

Graphs are answered one line at a time.  A line that does not parse, or a
graph that hits a size cap or search budget, is reported on stderr (under
--json as an {"error", "line"} record in its place on stdout), the lines
after it are still answered, and the exit code is the worst one seen.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Callable, Iterable

from .canonical import switching_class
from .errors import BudgetExceeded, SwitchkitError, TooLarge
from .graph import Graph, VertexSet, switch
from .graphio import emit_graph6, parse_edge_list, parse_graph6
from .lower import LowerClassId, is_c0_member, lower_classes, recognize_lower
from .nae import nae_eval, parse_nae
from .oracle import oracle_lower, oracle_upper
from .patterns import pattern, pattern_names
from .reductions import build_c7_instance, build_p10_instance, verify_instance
from .search import DEFAULT_BUDGET, PatternFamily, is_family_free
from .upper import upper_classes

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_CAPPED = 3


def _answer_each(args, answer: Callable[[Graph], int]) -> int:
    """Feed each input graph to ``answer`` as its line arrives; worst exit code."""
    edges = args.format == "edges"
    worst = EXIT_YES
    with open(args.file) if args.file else contextlib.nullcontext(sys.stdin) as fh:
        lines = [(1, fh.read())] if edges else enumerate(fh, 1)
        for lineno, text in lines:
            if not edges and not text.strip():
                continue
            try:
                code = answer(parse_edge_list(text) if edges else parse_graph6(text))
            except (TooLarge, BudgetExceeded) as exc:
                code = _report(args, lineno, exc, EXIT_CAPPED)
            except (SwitchkitError, ValueError, IndexError) as exc:
                code = _report(args, lineno, exc, EXIT_USAGE)
            worst = max(worst, code)
    return worst


def _report(args, lineno: int, exc: Exception, code: int) -> int:
    if args.json:
        print(json.dumps({"error": str(exc), "line": lineno}, sort_keys=True))
    else:
        print(f"error: line {lineno}: {exc}", file=sys.stderr)
    return code


def _parse_set(spec: str, n: int) -> VertexSet:
    if spec.strip() in ("", "-"):
        return VertexSet(n, 0)
    return VertexSet(n, [int(tok) for tok in spec.split(",")])


def _fmt_set(vs: VertexSet | None) -> str:
    if vs is None:
        return "none"
    return ",".join(str(v) for v in sorted(vs)) if len(vs) else "{}"


def _emit(args, obj: dict, text: str) -> None:
    if args.json:
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text)


def _named_predicate(name: str, p: int, q: int) -> Callable[[Graph], bool]:
    upper = upper_classes(p, q)
    if name in upper:
        return upper[name].predicate
    if name.startswith("free:"):
        fam = PatternFamily([pattern(tok) for tok in name[5:].split(",")])
        return lambda g: is_family_free(g, fam)
    raise SwitchkitError(f"unknown predicate {name!r}")


def _cmd_switch(args) -> int:
    def answer(g: Graph) -> int:
        out = emit_graph6(switch(g, _parse_set(args.set, g.n)))
        _emit(args, {"graph6": out}, out)
        return EXIT_YES

    return _answer_each(args, answer)


def _cmd_class(args) -> int:
    def answer(g: Graph) -> int:
        members = switching_class(g)
        lines = [emit_graph6(members.members[f]) for f in sorted(members.members)]
        _emit(args, {"size": len(lines), "members": lines}, "\n".join(lines))
        return EXIT_YES

    return _answer_each(args, answer)


def _verdict(yes: bool) -> int:
    return EXIT_YES if yes else EXIT_NO


def _cmd_lower(args) -> int:
    class_id = LowerClassId(args.class_id)

    def answer(g: Graph) -> int:
        if args.oracle:
            verdict = oracle_lower(g, lower_classes()[class_id].base)
        else:
            verdict = recognize_lower(g, class_id)
        profile = None
        if verdict and class_id is LowerClassId.CHORDAL_FAMILY:
            profile = is_c0_member(g)
        obj = {"class": class_id.value, "member": verdict}
        text = "yes" if verdict else "no"
        if profile is not None:
            obj["profile"] = list(profile)
            text += " " + "(" + ",".join(map(str, profile)) + ")"
        _emit(args, obj, text)
        return _verdict(verdict)

    return _answer_each(args, answer)


def _enumerable() -> list[str]:
    return [name for name, entry in upper_classes().items() if entry.enumerator]


def _cmd_upper(args) -> int:
    entry = upper_classes(args.p, args.q)[args.klass]
    if args.enumerate and entry.enumerator is None:
        raise SwitchkitError(f"--enumerate supports {' and '.join(_enumerable())}")

    def answer(g: Graph) -> int:
        if args.enumerate:
            sols = entry.enumerator(g)
            text = "\n".join(_fmt_set(s) for s in sols) if sols else "none"
            _emit(args, {"solutions": [sorted(s) for s in sols]}, text)
            return _verdict(bool(sols))
        if args.oracle:
            witness = oracle_upper(g, entry.predicate)
        else:
            witness = entry.algorithm(g)
        obj = {"class": args.klass, "switchable": witness is not None}
        if witness is not None:
            obj["witness"] = sorted(witness)
        _emit(args, obj, _fmt_set(witness))
        return _verdict(witness is not None)

    return _answer_each(args, answer)


def _cmd_oracle(args) -> int:
    pred = _named_predicate(args.predicate, args.p, args.q)

    def answer(g: Graph) -> int:
        if args.direction == "upper":
            witness = oracle_upper(g, pred)
            verdict = witness is not None
            obj = {"direction": "upper", "holds": verdict}
            if witness is not None:
                obj["witness"] = sorted(witness)
            _emit(args, obj, _fmt_set(witness))
        else:
            verdict = oracle_lower(g, pred)
            _emit(args, {"direction": "lower", "holds": verdict}, "yes" if verdict else "no")
        return _verdict(verdict)

    return _answer_each(args, answer)


def _read_instance(args):
    """The target's instance of the NAE formula read from --file or stdin."""
    with open(args.file) if args.file else contextlib.nullcontext(sys.stdin) as fh:
        formula = parse_nae(fh.read())
    return (build_p10_instance if args.target == "p10" else build_c7_instance)(formula)


def _cmd_reduce(args) -> int:
    inst = _read_instance(args)
    g6 = emit_graph6(inst.graph)
    roles = inst.roles()
    if args.roles:
        with open(args.roles, "w") as fh:
            json.dump(roles, fh, sort_keys=True, indent=1)
    if args.json:
        print(json.dumps({"graph6": g6, "roles": roles}, sort_keys=True))
    else:
        print(g6)
    return EXIT_YES


def _cmd_verify(args) -> int:
    inst = _read_instance(args)
    assignment = tuple(tok.strip() in ("1", "true", "T") for tok in args.assign.split(","))
    free = verify_instance(inst, assignment, budget=args.budget)
    agrees = free == nae_eval(inst.formula, assignment)
    _emit(
        args,
        {"pattern_free": free, "matches_nae": agrees},
        ("pattern-free" if free else "pattern-found") + ("" if agrees else " [mismatch]"),
    )
    return EXIT_YES if free else EXIT_NO


def _cmd_patterns(args) -> int:
    if args.name:
        g = pattern(args.name)
        out = emit_graph6(g)
        _emit(args, {"name": args.name, "graph6": out}, out)
    else:
        names = pattern_names()
        _emit(args, {"patterns": names}, "\n".join(names))
    return EXIT_YES


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="switchkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, fmt=True):
        p.add_argument("--file", help="read graphs from a file instead of stdin")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if fmt:
            p.add_argument("--format", choices=("g6", "edges"), default="g6")

    p = sub.add_parser("switch", help="apply a switching set")
    p.add_argument("--set", required=True, help="comma-separated vertices (empty = no-op)")
    common(p)
    p.set_defaults(func=_cmd_switch)

    p = sub.add_parser("class", help="enumerate the switching class (n <= 10)")
    common(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("lower", help="lower switching class membership")
    p.add_argument("class_id", choices=[c.value for c in lower_classes()])
    p.add_argument("--oracle", action="store_true", help="brute-force cross-check mode")
    common(p)
    p.set_defaults(func=_cmd_lower)

    p = sub.add_parser("upper", help="upper switching class recognition")
    upper = upper_classes()
    p.add_argument("klass", metavar="class", choices=[n for n, c in upper.items() if c.algorithm])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--enumerate", action="store_true", help=f"list all solutions ({'/'.join(_enumerable())})")
    p.add_argument("--oracle", action="store_true", help="brute-force cross-check mode")
    common(p)
    p.set_defaults(func=_cmd_upper)

    p = sub.add_parser("oracle", help="brute-force oracle with a named predicate")
    p.add_argument("direction", choices=("upper", "lower"))
    p.add_argument("predicate", help="|".join([*upper, "free:<p1,p2,...>"]))
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=2)
    common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("reduce", help="generate a hardness instance from a NAE formula")
    p.add_argument("target", choices=("p10", "c7"))
    p.add_argument("--roles", help="write the vertex-role JSON sidecar here")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="check an assignment against its instance")
    p.add_argument("target", choices=("p10", "c7"))
    p.add_argument("--assign", required=True, help="comma-separated 0/1 per variable")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("patterns", help="list named patterns or emit one")
    p.add_argument("name", nargs="?")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_patterns)

    return ap


def run(argv: Iterable[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (TooLarge, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPPED
    except (SwitchkitError, ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
