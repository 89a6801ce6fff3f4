"""One workload process, started by run.py with BLAS pinned to one thread.

It imports magiclab (timed), builds the workload's inputs from the seed and
warms every lazy path; that is its set-up, counted from the moment run.py
started the process.  Then it does one of three things:

* ``--setup-only``: report the set-up time and exit;
* timed mode: run whole rounds, one item at a time (a closed loop with a
  single caller), until ``--seconds`` have passed, timing each item;
* ``--trace 1``: run round 0 alternately untraced and with the layer
  wrappers installed, and report per-layer self time and counts.

The last line of standard output is one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
TRACE_PAIRS = 3


def monotonic() -> float:
    """System-wide clock, comparable between run.py and this process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_item(item, failures: list):
    """(seconds, outputs) of one item, or None if it raised."""
    kind, run, _ = item
    t0 = time.perf_counter()
    try:
        out = run()
    except Exception:  # a failed operation is counted, and the run goes on
        failures.append(f"{kind}: {traceback.format_exc()}")
        return None
    return time.perf_counter() - t0, out


def check_item(item, out, problems: list, r: int) -> None:
    from checks import CheckFailed  # not at the top: import_s must include mpmath

    kind, _, check = item
    try:
        check(out)
    except CheckFailed as exc:
        problems.append(f"{kind} in round {r}: {exc}")


def timed(workload, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed; item times grouped by kind."""
    item_s, failures, problems = {}, [], []
    attempted, r = 0, 0
    start = monotonic()
    while r < workload.min_rounds or monotonic() - start < seconds:
        items = workload.round(r)
        attempted += len(items)
        for item in items:
            done = run_item(item, failures)
            if done is not None:
                item_s.setdefault(item[0], []).append(done[0])
                check_item(item, done[1], problems, r)
        r += 1
    return {"rounds": r, "attempted": attempted, "failed": len(failures),
            "failures": failures, "problems": problems, "item_s": item_s}


def run_pass(items, failures: list, problems: list) -> float:
    """Round 0 once; returns the wall time of its items, checks excluded."""
    wall = 0.0
    for item in items:
        done = run_item(item, failures)
        if done is not None:
            wall += done[0]
            check_item(item, done[1], problems, 0)
    return wall


def traced(workload, name: str, seed: int) -> dict:
    """Round 0, alternately plain and traced; layer figures come from the first traced pass.

    Host noise on one pass is larger than the tracing overhead, so the
    overhead is the difference of the medians of TRACE_PAIRS passes each.
    """
    from tracer import Tracer, install

    items = workload.round(0)
    failures, problems = [], []
    plain, traced_walls, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_pass(items, failures, problems))
        tracers.append(Tracer())
        restore = install(tracers[-1])
        try:
            traced_walls.append(run_pass(items, failures, problems))
        finally:
            restore()

    tracer, wall = tracers[0], traced_walls[0]
    self_sum = sum(tracer.self_s.values())
    if self_sum > wall:
        problems.append(f"layer self time {self_sum:.6f} s exceeds traced wall {wall:.6f} s")
    counts = [sorted(t.calls.items()) for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between traced passes of the same round")
    metrics = tracer.layer_metrics()
    metrics.update(trace_wall_s=wall,
                   trace_overhead_s=statistics.median(traced_walls) - statistics.median(plain))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{name}-{seed}.jsonl"))
    return {"attempted": 2 * TRACE_PAIRS * len(items), "failed": len(failures),
            "failures": failures, "problems": problems, "layers": metrics}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    args = parser.parse_args()

    t0 = time.perf_counter()
    import magiclab
    import_s = time.perf_counter() - t0
    source = os.path.join(ROOT, "src", "magiclab")
    if os.path.dirname(os.path.realpath(magiclab.__file__)) != os.path.realpath(source):
        print(f"magiclab imported from {magiclab.__file__}, not from {source}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    result = {"setup_s": monotonic() - args.started, "import_s": import_s}
    if args.trace:
        result.update(traced(workload, args.workload, args.seed))
    elif not args.setup_only:
        result.update(timed(workload, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
