"""magiclab benchmark: one command, three workloads, end-to-end or traced.

    python3 bench/run.py --workload suite-seeds --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The work runs in a child process (worker.py) with BLAS pinned to one
thread.  Set-up is measured three times per run, in two set-up-only
processes and in the measuring one, and ``setup_s`` is their median.
Exit code 0 when the run completed (``correct`` says whether every output
passed its checks), 2 when it could not run at all.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run."""


def tail_percentile(samples):
    """(p, value) for the highest of p99.9, p99, p90 with ten samples beyond it, else None.

    Nearest-rank: the value at rank ceil(p/100 * N) leaves N - rank samples above it.
    """
    n = len(samples)
    ordered = sorted(samples)
    for permille in (999, 990, 900):
        rank = -(-permille * n // 1000)
        if rank >= 1 and n - rank >= 10:
            return permille / 10, ordered[rank - 1]
    return None


def end_to_end(setups, item_s) -> dict:
    """The end-to-end metrics from set-up times and item times grouped by kind.

    item_s.p50 is the median over the round's kinds of each kind's median
    time: the median item of a typical round.  A round holds every kind
    once, and the kinds' costs are far apart (suite-seeds has no middle
    item at all), so the plain median of all items would jump between kinds
    with host noise.
    """
    times = [t for ts in item_s.values() for t in ts]
    if not times:
        raise BenchError("no item completed")
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(times) / sum(times),
        "item_s.p50": statistics.median(statistics.median(ts) for ts in item_s.values()),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start_worker(args, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--started", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def build() -> None:
    """Byte-compile the program and the benchmark, so set-up never pays for it."""
    source = os.path.join(ROOT, "src", "magiclab")
    if not os.path.isfile(os.path.join(source, "__init__.py")):
        raise BenchError(f"no magiclab source at {source}")
    for path in (source, BENCH_DIR):
        if not compileall.compile_dir(path, quiet=1):
            raise BenchError(f"could not compile {path}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build()
        if args.trace:
            main_run = start_worker(args, setup_only=False)
            values = {**main_run["layers"], "import_s": main_run["import_s"]}
            wanted = spec["per_layer"]
        else:
            setups = [start_worker(args, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
            main_run = start_worker(args, setup_only=False)
            setups.append(main_run["setup_s"])
            values = end_to_end(setups, main_run["item_s"])
            values["peak_rss_mb"] = main_run["peak_rss_mb"]
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    for message in main_run["failures"] + main_run["problems"]:
        print(message, file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        item_s = [t for ts in main_run["item_s"].values() for t in ts]
        tail = tail_percentile(item_s)
        print(f"{args.workload} items = {len(item_s)} in {main_run['rounds']} rounds")
        if tail is not None:
            print(f"{args.workload} item_s.p{tail[0]:g} = {tail[1]:.6g} s")
    result = {
        "correct": not main_run["problems"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({**result, "item_s": main_run.get("item_s")}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
