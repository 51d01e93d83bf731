#!/usr/bin/env python3
"""The stabkit benchmark: seeded closed-loop workloads, one client, in-process.

    python3 bench/run.py --workload bound-sums --seed 1 --seconds 55 --trace 0

Run from anywhere; the package is imported from the `src/` directory next to
this one, never from an installed copy.  Each run

1. sets up SETUP_REPS times (import stabkit afresh, build the catalog, make the
   request list from the seed), and as often again after the timed loop, and
   reports the median as `setup_s`;
2. with `--trace 0`, sends requests one after another (closed loop, one
   client, no threads) for `--seconds` and at least MIN_REQUESTS requests,
   checks every output, and prints the end-to-end metrics;
   with `--trace 1`, runs a fixed prefix of the request list three times:
   untraced, with spans, and with ring counters (see layertrace.py); prints
   every per-layer metric and the tracing overhead (span pass minus untraced
   pass), and writes the spans to bench/out/;
3. replays the README commands with `--json` and compares their output with
   the digests recorded in readme_digests.json (the output must stay
   byte-identical);
4. prints, as its last line, one JSON object with `correct`, `attempted`,
   `failed` and the metrics named in BENCHMARK.json.

`failed_ratio` (failed / attempted) is printed as a text line; it is 0 on a
healthy build, so the JSON line carries it as `failed` and `attempted`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAYERS = ("rings", "linalg", "modules", "knots", "metabelian", "bounds", "catalog",
          "oracles", "propsuite", "verify", "cli")
SETUP_REPS = 5
REQUEST_LIST = 600       # requests generated per set-up; the loop wraps around
MIN_REQUESTS = 100       # so that ten samples lie beyond p90
TRACE_REQUESTS = {"bound-sums": 51, "kernels-witness": 90, "selfcheck": 16}

# The README's CLI examples, with --json: their output must stay byte-identical.
README_COMMANDS = (
    ["--json", "alexander", "9_46"],
    ["--json", "alexander", "sum^3(9_46)"],
    ["--json", "kernels", "9_46"],
    ["--json", "kernels", "sum(9_46,9_46)", "--discs", "left+right"],
    ["--json", "bound", "d2", "--knot", "sum^2(9_46)", "--discs", "left^2,right^2"],
    ["--json", "bound", "metabelian", "--scenario", "thmC(g=2)"],
    ["--json", "bound", "d1", "--two-knot", "double(9_46.right)^3", "--vs", "unknot"],
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def set_up(workload: str, seed: int):
    """Import stabkit afresh, build the catalog and the request list."""
    for name in [n for n in sys.modules if n == "stabkit" or n.startswith("stabkit.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"stabkit.{layer}") for layer in LAYERS}
    catalog = mods["catalog"].builtin_catalog()
    return mods, catalog, workloads.generate(workload, seed, REQUEST_LIST)


def run_requests(requests, api, count=None, deadline=None, tracer=None):
    """Closed loop over `requests`: a fixed `count`, or until `deadline` and MIN_REQUESTS.

    Returns (wall seconds, per-request seconds, failures).
    """
    latencies, failures = [], []
    start = time.perf_counter()
    i = 0
    while (i < count) if count is not None else (
        i < MIN_REQUESTS or time.perf_counter() < deadline
    ):
        req = requests[i % len(requests)]
        if tracer is not None:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            elapsed, result = workloads.execute(req, api)
            problem = workloads.check(req, result)
        except Exception:  # a request that raises is a failed request
            elapsed = time.perf_counter() - t0
            problem = traceback.format_exc(limit=3)
        latencies.append(elapsed)
        if problem:
            failures.append(f"request {i} ({req.kind}): {problem}")
        i += 1
    return time.perf_counter() - start, latencies, failures


def readme_digests(cli) -> list:
    out = []
    for argv in README_COMMANDS:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = f"exit {code}\n{buf.getvalue()}"
        out.append({"argv": argv, "sha256": hashlib.sha256(text.encode()).hexdigest()})
    return out


def digest_problems(cli) -> list:
    want = json.loads((BENCH / "readme_digests.json").read_text(encoding="utf-8"))
    got = readme_digests(cli)
    return [
        f"output of stabkit {' '.join(g['argv'])} differs from the recorded digest"
        for g, w in zip(got, want) if g != w
    ] + ([] if len(got) == len(want) else ["README command list changed"])


def listed_metrics(kind: str) -> list:
    """Names of the `kind` metrics in BENCHMARK.json; the JSON line reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def timed_set_ups(args, times: list):
    """SETUP_REPS fresh set-ups, each timed into `times`; returns the last one."""
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        result = set_up(args.workload, args.seed)
        times.append(time.perf_counter() - t0)
        gc.collect()  # frees the previous import, so it does not count in peak_rss_mb
    return result


def timed_run(args, api, setup_times: list):
    wall, lat, failures = run_requests(
        api.requests, api, deadline=time.perf_counter() + args.seconds
    )
    attempted = len(lat)
    values = {
        "requests_per_s": (attempted - len(failures)) / wall,
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
        "failed_ratio": len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # half the set-ups run after the loop, so that setup_s samples the
    # machine's speed at both ends of the run
    timed_set_ups(args, setup_times)
    values["setup_s"] = statistics.median(setup_times)
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{attempted} requests in {wall:.3f} s; {len(setup_times)} set-ups")
    for name, unit in END_TO_END_UNITS.items():
        note = f" ({len(failures)} failed of {attempted} attempted)" if name == "failed_ratio" else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    metrics = {n: {"value": values[n], "unit": END_TO_END_UNITS[n]}
               for n in listed_metrics("end_to_end")}
    return attempted, failures, metrics


def traced_run(args, api):
    """Untraced, span and ring-count passes over the same fixed request prefix."""
    prefix = api.requests[: TRACE_REQUESTS[args.workload]]
    tracer = layertrace.Tracer(api.mods)
    walls, failures = [], []
    for install in (None, tracer.install_spans, tracer.install_counters):
        if install is not None:
            install()
        try:
            wall, _, failed = run_requests(prefix, api, count=len(prefix), tracer=tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        failures += failed
    untraced_s, traced_s, counted_s = walls
    values = tracer.metrics()
    values.update({
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": (traced_s - untraced_s) / untraced_s,
        "trace.count_pass_s": counted_s,
        "trace.spans": len(tracer.spans),
    })
    units = {n: u for n, (u, _, _) in layertrace.PER_LAYER.items()}
    units.update({"trace.overhead_ratio": "ratio", "trace.spans": "count"})
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    print(f"workload {args.workload} seed {args.seed}: first {len(prefix)} requests, "
          f"untraced, with spans, with counters; spans in {spans_path.relative_to(ROOT)}")
    for name, value in values.items():
        unit = units.get(name, "s")
        moves = layertrace.PER_LAYER.get(name)
        note = f"  (should move {moves[1]} on {moves[2]})" if moves else ""
        print(f"{name} {value:.6g} {unit}{note}")
    metrics = {n: {"value": values[n], "unit": units.get(n, "s")}
               for n in listed_metrics("per_layer")}
    return 3 * len(prefix), failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stabkit" / "__init__.py").is_file():
        print(f"error: no stabkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times: list = []
    mods, catalog, requests = timed_set_ups(args, setup_times)
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported stabkit from {mods['cli'].__file__}", file=sys.stderr)
        return 2
    api = SimpleNamespace(mods=mods, entries=catalog, requests=requests, **mods)

    if args.trace:
        attempted, failures, metrics = traced_run(args, api)
    else:
        attempted, failures, metrics = timed_run(args, api, setup_times)
    problems = failures + digest_problems(api.cli)
    for line in problems[:5]:
        print(f"problem: {line}", file=sys.stderr)
    print(f"readme digests: {'ok' if not problems[len(failures):] else 'MISMATCH'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
