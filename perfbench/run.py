"""twistlab benchmark: four workloads, end-to-end metrics, outside-in layer trace.

    python3 perfbench/run.py --workload twists --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from anywhere inside a checkout of the repository; the library is
imported from its `src/` directory.  Each pass runs in a fresh child
process (child.py) so that it starts cold, as a user's query does; passes
repeat until --seconds would be exceeded, with at least one.  Pass time is
the child's CPU time (user + system) over its items: the workloads are
single-threaded and do no I/O, so this is their wall time less any wait
for a processor.  Set-up time is also sampled from set-up-only children.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics plus trace.overhead_ratio.  Every output is checked outside the
timed region (see workloads.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full report goes
to perfbench/out/report-<workload>.json and spans to
perfbench/out/spans-<workload>.json.

--record writes the outputs of the default seed to perfbench/expected/,
which later runs of that seed compare against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected"
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0
TAIL_PCT = 90
# the tracer's root span opens just before the child's pass clock starts
# and closes just after it stops, so the two differ by microseconds
TRACE_SLACK = 1e-3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child_env():
    env = dict(os.environ)
    # cli.main --limit writes this variable; a leftover value would change results
    env.pop("TWISTLAB_LIMIT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class BenchError(Exception):
    """The run cannot produce a result: a child crashed or timed out, or a
    metric named in BENCHMARK.json is not produced."""


def _spawn(workload, seed, mode, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    timeout = deadline - _monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} child")
    t0 = _monotonic()
    cmd += ["--spawned-at", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} exceeded {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = _monotonic() - t0
    return result


def _setup_samples(workload, seed, deadline):
    return [_spawn(workload, seed, "setup", deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES)]


def collect(workload, seed, seconds, trace, deadline):
    """Untraced passes and, with trace, traced passes alternating with them."""
    passes, traced = [], []
    start = _monotonic()
    while True:
        cycle = 0.0
        for mode in ("pass", "trace") if trace else ("pass",):
            result = _spawn(workload, seed, mode, deadline)
            cycle += result["elapsed_s"]
            (traced if mode == "trace" else passes).append(result)
        now = _monotonic()
        if now - start + cycle > seconds or now + cycle > deadline:
            return passes, traced


# ---------------------------------------------------------------------------
# outcomes and metrics

def _stored_form(workload, output):
    if workload == "repro":
        report = json.loads(output["report"])
        return [[it["name"], it["expected"], it["computed"]] for it in report["items"]]
    return output


def _load_expected(workload, seed):
    path = EXPECTED / f"{workload}.json"
    if seed != workloads.DEFAULT_SEED or not path.exists():
        return None
    data = json.loads(path.read_text())
    return data["outputs"] if data["seed"] == seed else None


def outcomes(workload, records, expected):
    """(units, failures) for one pass: units attempted and a list of failures.

    A failure is a dict naming the item, curve and field, with kind
    "error" or "limit" (an exception), "wrong" (a check failed) or
    "changed" (differs from the stored output of the default seed).  The
    repro command stands for its 63 items, each a unit of its own.
    """
    units = 0
    failures = []
    for rec in records:
        where = {"id": rec["id"], "field": f"{rec['p']}^{rec['n']}", "curve": rec["curve"]}
        if workload == "repro":
            results = workloads.repro_outcomes(rec)
            units += len(results)
            kind = "wrong" if rec["status"] == "ok" else rec["status"]
            failures += [dict(where, id=name, kind=kind,
                              message=rec["error"] or "repro item failed")
                         for name, ok in results if not ok]
        else:
            units += 1
            if rec["status"] != "ok":
                failures.append(dict(where, kind=rec["status"], message=rec["error"]))
        if rec["status"] != "ok":
            continue
        problems = workloads.check(workload, rec, GOLDEN)
        if problems:
            failures.append(dict(where, kind="wrong", message="; ".join(problems)))
        if expected is not None and rec["id"] in expected:
            got = {"curve": rec["curve"], "output": _stored_form(workload, rec["output"])}
            if json.dumps(got, sort_keys=True) != json.dumps(expected[rec["id"]], sort_keys=True):
                failures.append(dict(where, kind="changed",
                                     message="output differs from the stored default-seed output"))
    return units, failures


def _failed_units(units, failures):
    # an item that both fails a check and changed counts once
    return min(units, len({f["id"] for f in failures}))


def tally(workload, results, expected):
    """Units attempted, units failed and the failures, over some passes."""
    units = failed = 0
    failures = []
    for res in results:
        u, f = outcomes(workload, res["items"], expected)
        units += u
        failed += _failed_units(u, f)
        failures += f
    return units, failed, failures


def end_to_end(setups, passes, units, failed):
    latencies = [rec["seconds"] for res in passes for rec in res["items"]]
    pass_s = sum(res["cpu_s"] for res in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": (units - failed) / pass_s,
        "ok_ratio": (units - failed) / units,
        "peak_rss_mb": statistics.median([res["peak_rss_mb"] for res in passes]),
    }
    tail = stats.percentile(latencies, TAIL_PCT)
    extra = {"item_samples": len(latencies), "passes": len(passes), "pass_cpu_s": pass_s,
             "pass_wall_s": sum(res["wall_s"] for res in passes),
             "item_p50_ms": statistics.median(latencies) * 1000,
             f"item_p{TAIL_PCT}_ms": None if tail is None else tail * 1000}
    return metrics, extra


def per_layer(passes, traced):
    """Median per-layer metrics over the traced passes, and any accounting problems.

    The layer self times plus the harness's must add up to the pass's wall
    time as the child measured it apart from the tracer, within
    TRACE_SLACK; every span must have closed and descend from the root.
    """
    layers = {}
    for key in traced[0]["trace"]:
        layers[key] = statistics.median([res["trace"][key] for res in traced])
    layers["trace.overhead_ratio"] = (statistics.median([res["cpu_s"] for res in traced])
                                      / statistics.median([res["cpu_s"] for res in passes]))
    problems = []
    for res in traced:
        t = res["trace"]
        problems += res["trace_problems"]
        own = t["harness.self_s"] + sum(t[f"{layer}.self_s"] for layer in tracer.LAYERS)
        if abs(own - res["wall_s"]) > TRACE_SLACK * res["wall_s"] + 1e-3:
            problems.append(f"layer self times sum to {own:.6f} s, traced pass took "
                            f"{res['wall_s']:.6f} s")
    return layers, problems


# ---------------------------------------------------------------------------
# entry point

def _select(spec, values, kind):
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise BenchError(f"{kind} metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _print_table(title, spec, values):
    print(title)
    for m in spec:
        print(f"  {m['name']:48s} {values[m['name']]:>14.6g} {m['unit']:8s} "
              f"{m.get('better', '')}")


def run_workload(workload, seed, seconds, trace, bench, env, deadline):
    expected = _load_expected(workload, seed)
    # set-up samples before and after the passes cover two moments of the run
    setups = [] if trace else _setup_samples(workload, seed, deadline)
    passes, traced = collect(workload, seed, seconds, trace, deadline)
    units, failed, failures = tally(workload, passes + traced, expected)
    correct = not any(f["kind"] in ("wrong", "changed") for f in failures)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, **env}
    if trace:
        layers, problems = per_layer(passes, traced)
        correct = correct and not problems
        report.update(per_layer=layers, trace_problems=problems)
        selected = _select(bench["per_layer"], layers, "per_layer")
        _print_table(f"{workload}: per-layer metrics ({len(traced)} traced passes)",
                     bench["per_layer"], layers)
        for p in problems:
            print(f"  TRACE MISMATCH {p}")
    else:
        setups += [res["setup_s"] for res in passes] + _setup_samples(workload, seed, deadline)
        metrics, extra = end_to_end(setups, passes, units, failed)
        report.update(setup_samples=setups, end_to_end=metrics, **extra)
        selected = _select(bench["end_to_end"], metrics, "end_to_end")
        _print_table(f"{workload}: end-to-end metrics ({len(passes)} passes, "
                     f"{extra['item_samples']} timed items)", bench["end_to_end"], metrics)
        n = extra["item_samples"]
        tail = extra[f"item_p{TAIL_PCT}_ms"]
        print(f"  item latency over {n} items (not gated): p50 {extra['item_p50_ms']:.6g} ms, "
              + (f"p{TAIL_PCT} {tail:.6g} ms" if tail is not None else
                 f"p{TAIL_PCT} not reported (needs {stats.TAIL_FLOOR * 10} items)"))
    seen = {}
    for f in failures:
        key = (f["id"], f["kind"], f["message"])
        seen.setdefault(key, [f, 0])[1] += 1
    print(f"  attempted {units}, failed {failed} (fail_ratio {failed / units:.4f})")
    for (item_id, kind, message), (f, count) in seen.items():
        print(f"  FAIL x{count} {kind} {item_id} over GF({f['field']}) "
              f"curve [{f['curve']}]: {message.splitlines()[0]}")
    report.update(attempted=units, failed=failed, correct=correct,
                  failures=[dict(f, count=c) for f, c in seen.values()])
    (OUT / f"report-{workload}.json").write_text(json.dumps(report, indent=2) + "\n")
    return correct, units, failed, selected


def record(workload):
    """Store the outputs of the default seed's successful, checked items."""
    seed = workloads.DEFAULT_SEED
    deadline = _monotonic() + 600
    res = _spawn(workload, seed, "pass", deadline)
    _, failures = outcomes(workload, res["items"], None)
    bad = {f["id"] for f in failures}
    outputs = {rec["id"]: {"curve": rec["curve"],
                           "output": _stored_form(workload, rec["output"])}
               for rec in res["items"] if rec["status"] == "ok" and rec["id"] not in bad}
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / f"{workload}.json").write_text(
        json.dumps({"seed": seed, "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: stored {len(outputs)} outputs, {len(bad)} failed items not stored")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "twistlab" / "__init__.py").is_file():
        return _fail(f"twistlab sources not found under {SRC}")
    if not GOLDEN.is_dir():
        return _fail(f"golden files not found under {GOLDEN}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record:
        for name in names:
            record(name)
        return 0

    env = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
           "git": _git_sha()}
    print(f"perfbench seed={args.seed} seconds={seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    OUT.mkdir(exist_ok=True)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, units, nfail, selected = run_workload(
                name, args.seed, seconds, args.trace, bench, env, _monotonic() + RUN_LIMIT_S)
            correct = correct and ok
            attempted += units
            failed += nfail
            if len(names) == 1:
                metrics = selected
            else:
                metrics.update({f"{name}.{k}": v for k, v in selected.items()})
    except BenchError as exc:
        return _fail(str(exc))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
