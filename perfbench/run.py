"""The finslergbc benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each scenario call runs in a fresh
worker process (``perfbench/worker.py``) and only one worker runs at a
time.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of traced calls.  The last
line of standard output is the JSON result; the lines before it are the
environment record and a readable table.  The full record of the run
goes to ``.bench_out/``.

``wall_s`` and ``setup_s`` are scaled to reference host speed by the
worker's host speed probe (``hostspeed.py``); the table also prints the
raw clock times and the measured host speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

# One worker at a time on a small machine: keep BLAS and OpenMP to one
# thread so the process stays single-threaded and calls do not contend.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 60.0
# Import-only workers before each scenario call.  Import time swings with
# the load on a shared host, so setup_s is sampled all through the run.
SETUP_PROBES = 2

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", **THREAD_ENV)


def call_worker(workload: str, seed: int, mode: str, spans: str | None = None) -> dict:
    """Run one worker to completion.  A crash, a timeout or output that is
    not a result counts as a failed call."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"worker timed out after {WORKER_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "errors": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"ok": False, "errors": [f"unreadable worker output: {lines[-1][:200]}"]}


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """The highest percentile with at least ten samples beyond it, and its
    value; (None, None) with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def result_line(calls: list[tuple[str, dict]], metrics: dict) -> dict:
    """The benchmark's result: every scenario call is an attempted
    operation, and a call that raised, failed a check or crashed failed."""
    failed = sum(1 for _, r in calls if not r.get("ok"))
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed,
            "metrics": metrics}


def environment(load_before: float, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "blas": f"{versions.get('blas')} {versions.get('blas_version')}",
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "worker_cpu": versions.get("cpu"),
        "probe_reference_s": hostspeed.REFERENCE_S,
        "probe_period_s": hostspeed.PERIOD_S,
        "cpu_model": cpu,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop: call after call until the next call would pass the
    deadline.  Trace runs make one counting call, then alternate traced
    and plain calls, so the tracing overhead is measured in the same run."""
    spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    calls: list[tuple[str, dict]] = []
    probes: list[dict] = []
    plan = ["count"] if trace else []
    start = time.perf_counter()
    longest = 0.0
    while True:
        mode = plan.pop(0) if plan else ("trace" if trace and len(calls) % 2 == 1 else "plain")
        t0 = time.perf_counter()
        probes += [call_worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
        calls.append((mode, call_worker(workload, seed, mode, spans if mode == "trace" else None)))
        longest = max(longest, time.perf_counter() - t0)
        modes = {m for m, _ in calls}
        done = {"plain", "trace"} <= modes if trace else "plain" in modes
        if done and time.perf_counter() - start + longest > seconds:
            break
    return {"calls": calls, "probes": probes, "measured_s": time.perf_counter() - start}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="finslergbc benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finslergbc", "cli.py")):
        sys.stderr.write(f"no finslergbc sources under {SRC}: run from a full checkout\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    load_before = os.getloadavg()[0]

    # The first import compiles bytecode; users pay that once, so it is not timed.
    warm = call_worker(args.workload, args.seed, "env")
    if "setup_s" not in warm:
        sys.stderr.write(f"worker cannot start: {warm.get('errors')}\n")
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    calls, probes = run["calls"], run["probes"]
    env = environment(load_before, warm)

    failed = [r for _, r in calls if not r.get("ok")]
    plain = [r for m, r in calls if m == "plain" and "wall_s" in r]
    if not plain:
        sys.stderr.write(f"no plain call finished: {failed[:1]}\n")
        return 1
    walls = [r["wall_s"] for r in plain]
    setups = [r["setup_s"] for r in probes + [r for _, r in calls] if "setup_s" in r]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "measured_s": run["measured_s"],
              "end_to_end": e2e, "calls": [dict(r, mode=m) for m, r in calls],
              "setup_probes": probes}

    print("environment: " + json.dumps(env))
    print(f"workload {args.workload}  seed {args.seed}  {len(calls)} scenario calls "
          f"in {run['measured_s']:.1f} s  (closed loop, one client)")
    for name, val in e2e.items():
        print(f"  {name:<14s} median {val:12.6g} {UNITS[name]}")
    scaled = [r for r in probes + [r for _, r in calls] if "setup_raw_s" in r]
    print(f"  wall_raw_s     median {statistics.median(r['wall_raw_s'] for r in plain):12.6g} s"
          f"  at host speed {statistics.median(r['wall_speed'] for r in plain):.3f}")
    print(f"  setup_raw_s    median {statistics.median(r['setup_raw_s'] for r in scaled):12.6g} s"
          f"  at host speed {statistics.median(r['setup_speed'] for r in scaled):.3f}")
    pct, val = tail(walls)
    print("  wall_s tail    " + (f"p{pct:.0f} {val:.6g} s" if pct is not None
                                 else "none: fewer than 11 calls") + f"  (n={len(walls)})")
    print(f"  ops_failed     {len(failed)}/{len(calls)} = {len(failed) / len(calls):.3g} share")
    for r in failed:
        print("  FAILED: " + "; ".join(r.get("errors", []))[:2000])
    missing = sorted({t for _, r in calls for t in r.get("missing_targets", [])})
    if missing:
        print("  not traced, the program has no " + ", ".join(missing))

    if args.trace:
        units = _per_layer_units()
        traced = [r for m, r in calls if m == "trace" and "wall_s" in r]
        counted = [r["layers"] for m, r in calls if m == "count" and "layers" in r]
        if not traced or not counted:
            sys.stderr.write("no traced or no counting call finished\n")
            return 1
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        metrics["ad.dual_new"] = counted[0]["ad.dual_new"]
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - e2e["wall_s"])
        if set(units) != set(metrics):
            sys.stderr.write("per-layer metrics differ from BENCHMARK.json: "
                             f"{sorted(set(units) ^ set(metrics))}\n")
            return 1
        for name in sorted(metrics):
            print(f"  {name:<44s} {metrics[name]:14.6g} {units[name]}")
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        record["per_layer"] = metrics
    else:
        out = {name: {"value": val, "unit": UNITS[name]} for name, val in e2e.items()}

    with open(os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result_line(calls, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
