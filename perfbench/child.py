"""One cold benchmark process: set up, run one pass, report as JSON.

Started by run.py for every pass, so each pass pays the interpreter start,
`import twistlab` and every lazily built table, as a user running one
query per process does.  The last line of stdout is a JSON object with
the set-up time, the pass's wall and CPU time, peak RSS and one record
per item.

    python3 perfbench/child.py --workload twists --seed 1 --mode pass \
        --spawned-at <CLOCK_MONOTONIC ns>

--mode setup stops once the inputs are ready; --mode trace wraps the
library's public functions first (see tracer.py) and writes the spans to
perfbench/out/spans-<workload>.json.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "out"


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _run_item(item, clock):
    t0 = clock()
    try:
        output = item.run()
        status, error = "ok", None
    except Exception as exc:  # every failure is a measured outcome
        output = None
        status = "limit" if type(exc).__name__ == "LimitExceededError" else "error"
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=-3)}"
    seconds = clock() - t0
    return dict(item.describe(), seconds=seconds, status=status, error=error, output=output)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--spawned-at", type=int, required=True)
    args = ap.parse_args(argv)

    items = workloads.build(args.workload, args.seed)
    setup_s = (_now_ns() - args.spawned_at) / 1e9
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
            root = tracer.open_span(tracer_mod.ROOT)
        clock = time.perf_counter
        cpu0 = time.process_time()
        t0 = clock()
        records = [_run_item(item, clock) for item in items]
        wall_s = clock() - t0
        cpu_s = time.process_time() - cpu0
        if tracer is not None:
            tracer.close_span(root)
            tracer.uninstall()
            result["trace"] = tracer.metrics()
            result["trace_problems"] = tracer.problems()
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}.json")
        result.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            items=records,
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
