"""Seeded switchkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload against the switchkit sources of this checkout (src/) for
S seconds of timed work, checks every answer, and prints one JSON object as
the last line of standard output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it wraps every public switchkit function and reports
the per-layer metrics instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7  # set-up is measured at least this often per run; the median counts


class Recorder:
    """Times each item; an item may stand for several operations."""

    def __init__(self, tracer=None):
        self.latencies: list[float] = []
        self.attempted = 0
        self.tracer = tracer

    def item(self, fn, *args, items: int = 1):
        start = perf_counter()
        out = self.tracer.item(fn, *args) if self.tracer else fn(*args)
        self.latencies.append(perf_counter() - start)
        self.attempted += items
        return out


def setup_sample(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh process until its set-up is done.

    On cli-stream that is one CLI process on empty input, from start to exit;
    elsewhere it is probe.py, up to the line it prints once set up.
    """
    if workload == "cli-stream":
        cmd = workloads.cli_command(["lower", "chordal"])
        env = workloads.cli_env()
    else:
        cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
        env = None
    start = perf_counter()
    with subprocess.Popen(
        cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=env
    ) as proc:
        first = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or (workload != "cli-stream" and first != "ready\n"):
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {first!r}")
    return elapsed


def cache_counts() -> tuple[int, int]:
    from switchkit.canonical import _canonical_cached

    info = _canonical_cached.cache_info()
    return info.hits, info.misses


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "switchkit" / "__init__.py").is_file():
        print(f"error: no switchkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload](args.seed)

    tracer = None
    # set-up is sampled once before the first round and once after each
    # round, so the samples span the run rather than one moment of it
    measure_setup = not args.trace or args.workload == "cli-stream"
    setup_samples = [setup_sample(args.workload, args.seed)] if measure_setup else []
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        wl.in_process = True
    wl.setup()

    rec = Recorder(tracer)
    busy = 0.0
    hits = lookups = 0  # canonical cache, counted per round: a round may clear it
    kept = []
    r = 0
    last = 0.0  # the timed seconds of the latest round
    # Whole rounds only: another round runs while it would end nearer to
    # the target than stopping now, so a run's timed work is the target give
    # or take half a round.
    while busy + last / 2 < args.seconds:
        inputs = wl.prepare()
        hits0, misses0 = cache_counts()
        start = perf_counter()
        outputs = wl.execute(inputs, rec)
        last = perf_counter() - start
        busy += last
        hits1, misses1 = cache_counts()
        hits += hits1 - hits0
        lookups += hits1 - hits0 + misses1 - misses0
        kept.append(wl.keep(inputs, outputs))
        r += 1
        if measure_setup:
            setup_samples.append(setup_sample(args.workload, args.seed))
    while measure_setup and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(args.workload, args.seed))
    setup_s = statistics.median(setup_samples) if measure_setup else 0.0
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-stream" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024

    print(f"timed {r} rounds, {rec.attempted} operations, {busy:.3f} s", file=sys.stderr)
    errors, failed = wl.check(kept)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    if args.trace:
        metrics = tracer.metrics(hits / lookups if lookups else 0.0, setup_s)
        tracer.write(ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_items_per_s": {"value": rec.attempted / busy, "unit": "items/s"},
            "latency_p50_ms": {"value": statistics.median(rec.latencies) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": rec.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
