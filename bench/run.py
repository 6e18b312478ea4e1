"""The bhf benchmark: seeded workloads against the public bhf API.

    python3 bench/run.py --workload genus1 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all            # the three workloads in turn

Run from the root of a checkout.  Each pass solves the seed's whole
instance set in a fresh process (cold caches, as for a command-line user);
passes repeat until ``--seconds`` would be exceeded.  Each instance's time
is its mean over the passes, and the request-time metrics are taken over
those; set-up time and memory are medians over the passes.  With
``--trace 0`` the output is the end-to-end metrics; with ``--trace 1``
untraced and traced passes alternate and the output is the per-layer
metrics, the overhead of tracing among them.
Every answer is checked by an oracle.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; a
traced run also writes its span table to bench/traces/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PASS_TIMEOUT_S = 170

END_TO_END = (
    ("solve_s", "s"),
    ("inst_p50_ms", "ms"),
    ("inst_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    start_ns = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
         "1" if traced else "0", str(start_ns)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Passes (pairs of passes when tracing) until the next would overrun."""
    start = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        t0 = time.monotonic()
        # alternate which of a pair runs first, so slow drift hits both alike
        order = [False] if not trace else ([False, True] if len(passes) % 4 == 0 else [True, False])
        for traced in order:
            remaining = PASS_TIMEOUT_S - (time.monotonic() - start)
            passes.append(run_worker(workload, seed, traced, max(remaining, 1.0)))
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest > seconds:
            return passes


def tail_rank(n: int) -> int:
    """0-based rank of the highest nearest-rank percentile with at least ten
    instances beyond it (or the maximum, for fewer than eleven)."""
    return n - 11 if n > 10 else n - 1


def tail_percentile(n: int) -> int:
    return 100 * (tail_rank(n) + 1) // n


def instance_times(passes: list[dict]) -> list[float]:
    """Each instance's mean request time over the passes.  The speed of a
    shared machine swings by tens of percent over tens of seconds; the mean
    over a whole run averages those swings, where the median of a few
    passes would land on one of them."""
    return [statistics.fmean(t) for t in zip(*(p["latencies"] for p in passes))]


def end_to_end(untraced: list[dict]) -> dict:
    times = instance_times(untraced)
    return {
        "solve_s": sum(times),
        "inst_p50_ms": 1000 * statistics.median(times),
        "inst_tail_ms": 1000 * sorted(times)[tail_rank(len(times))],
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name, _, _ in spans.metric_specs() if name != spans.OVERHEAD}
    out[spans.OVERHEAD] = sum(instance_times(traced)) / sum(instance_times(untraced)) - 1
    return out


def check_passes(workload: str, seed: int, passes: list[dict]) -> list[str]:
    """Problems that make the run incorrect apart from failed instances."""
    want = workloads.digest(workloads.make_instances(workload, seed))
    problems = []
    if any(p["digest"] != want for p in passes):
        problems.append("a pass ran another instance set than the seed gives")
    if any(p["answers"] != passes[0]["answers"] for p in passes):
        problems.append("passes disagree on some answer (traced vs untraced or run to run)")
    return problems


def report(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    passes = run_passes(workload, seed, seconds, trace)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["instances"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    problems = check_passes(workload, seed, passes)
    first = passes[0]
    n, n_passes = first["instances"], len(untraced)
    print(f"workload {workload}  seed {seed}  instances {n}  digest {first['digest']}  "
          f"untraced passes {n_passes}  traced passes {len(traced)}")
    e2e = end_to_end(untraced)
    per_instance = f"{n} instances, each the mean of {n_passes} passes"
    print(f"  solve_s       {e2e['solve_s']:10.4f} s    sum over {per_instance}")
    print(f"  inst_p50_ms   {e2e['inst_p50_ms']:10.3f} ms   p50 of {per_instance}")
    print(f"  inst_tail_ms  {e2e['inst_tail_ms']:10.3f} ms   p{tail_percentile(n)} of {per_instance}")
    print(f"  setup_s       {e2e['setup_s']:10.4f} s    median of {n_passes} passes")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:10.2f} MB   median of {n_passes} passes")
    print(f"  fail_ratio    {len(failures) / attempted:10.4f}      "
          f"{len(failures)} of {attempted} instances")
    for f in failures[:10]:
        print(f"    failed {f['id']}: {f['reason']}")
    for problem in problems:
        print(f"  incorrect: {problem}")
    if trace:
        layers = per_layer(traced, untraced)
        missing = sorted({m for p in traced for m in p["missing"]})
        unread = sorted({m for p in traced for m in p["counter_errors"]})
        print(f"  trace.overhead_ratio {layers[spans.OVERHEAD]:.4f}  "
              f"({len(traced)} traced vs {n_passes} untraced passes)")
        if missing:
            print(f"  trace: entry points missing from bhf: {', '.join(missing)}")
        if unread:
            print(f"  trace: counters unreadable on: {', '.join(unread)}")
        _write_spans(workload, seed, traced[0], layers, missing)
        units = {name: unit for name, unit, _ in spans.metric_specs()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    return {"correct": not failures and not problems, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def _write_spans(workload, seed, record, layers, missing):
    out = BENCH / "traces"
    out.mkdir(exist_ok=True)
    doc = {"workload": workload, "seed": seed, "digest": record["digest"],
           "missing": missing, "metrics": layers, "spans": record["spans"]}
    path = out / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"  spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "bhf" / "__init__.py").is_file():
        print(f"bench: no bhf sources under {ROOT / 'src'}; run from a bhf checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = report(name, args.seed, args.seconds, bool(args.trace))
    except (PassFailed, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
