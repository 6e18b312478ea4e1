"""One pass of a bench workload, in a process of its own so caches start cold.

The pass imports bhf, makes the seeded instances, builds the catalog objects
they share, then solves the instances one after another (a closed loop with
one client).  Each answer is checked by its oracle outside the timed region;
an instance that raises or fails its oracle counts as failed and the pass
goes on.  Run as a script it prints the pass record as one JSON line:

    python3 bench/worker.py <workload> <seed> <trace 0|1> <start monotonic ns>

The start time is taken by the parent just before it starts this process,
so ``setup_s`` covers interpreter start-up and ``import bhf`` too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def run_pass(bhf, workload: str, seed: int, trace: bool, start_ns: int,
             instances: list[dict] | None = None, entry_points=spans.ENTRY_POINTS) -> dict:
    if instances is None:
        instances = workloads.make_instances(workload, seed)
    recorder = installation = None
    if trace:
        recorder = spans.Recorder()
        installation = spans.Installation(recorder, entry_points)
        recorder.instance = "setup"
    try:
        state = workloads.prepare(workload, bhf)
        if recorder:
            recorder.instance = None
        setup_s = (time.monotonic_ns() - start_ns) / 1e9
        latencies, answers, failures = [], [], []
        for inst in instances:
            if recorder:
                recorder.instance = inst["id"]
            t0 = time.perf_counter()
            try:
                answer = workloads.solve(inst, state, bhf)
                reason = None
            except Exception as e:  # a failed request is a result, not a crash
                answer, reason = None, f"raised {type(e).__name__}: {e}"
            latencies.append(time.perf_counter() - t0)
            if recorder:
                recorder.instance = None
            if reason is None:
                try:
                    reason = workloads.check(inst, answer, state, bhf)
                except Exception as e:
                    reason = f"oracle raised {type(e).__name__}: {e}"
            answers.append(answer)
            if reason is not None:
                failures.append({"id": inst["id"], "reason": reason})
    finally:
        if installation:
            installation.uninstall()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": bool(trace),
        "digest": workloads.digest(instances),
        "instances": len(instances),
        "setup_s": setup_s,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "answers": answers,
        "failures": failures,
    }
    if recorder:
        record["layers"] = recorder.metrics(entry_points)
        record["missing"] = installation.missing
        record["counter_errors"] = sorted(recorder.counter_errors)
        record["spans"] = recorder.edge_table()
    return record


def main(argv: list[str]) -> int:
    workload, seed, trace, start_ns = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    sys.path.insert(0, str(SRC))
    import bhf

    if Path(bhf.__file__).resolve().parent != SRC / "bhf":
        print(f"bench worker: imported bhf from {bhf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps(run_pass(bhf, workload, seed, trace, start_ns)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
