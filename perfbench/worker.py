"""One scenario call in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--spans PATH]

MODE is ``plain`` (timed, untraced), ``trace`` (layer spans), ``count``
(Dual constructions only), ``setup`` (import only) or ``env`` (import and
report library versions).  ``finslergbc`` must be importable from the
``src`` directory of this checkout, which the caller puts on PYTHONPATH.
The last line of standard output is one JSON object with the result.

The worker pins itself to one CPU and runs a host speed probe
(``hostspeed.py``) beside the work.  ``setup_s`` and ``wall_s`` are the
measured import and call times scaled to reference host speed;
``setup_raw_s`` and ``wall_raw_s`` are the times as the clock read them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import tracing
import workloads

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SCENARIO_MODES = ("plain", "trace", "count")
MODES = SCENARIO_MODES + ("setup", "env")


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _library_versions() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dicts mode
        pass
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown")}


def scale_layer_times(layers: dict, speed: float) -> dict:
    """Layer times and rates at reference host speed, scaled by the call's
    mean host speed like ``wall_s``; counts and ratios stay as they are."""
    def scaled(name, value):
        if name.endswith("_per_s"):
            return value / speed
        return value * speed if name.endswith("_s") else value
    return {name: scaled(name, value) for name, value in layers.items()}


def run_call(workload: workloads.Workload, seed: int, mode: str, cli,
             reference: dict, spans_path: str | None = None,
             probe: hostspeed.HostProbe | None = None) -> dict:
    """Run the workload's scenario once under mode; every exception and
    every gate error ends up in ``errors``.  With a probe, ``wall_s`` is
    scaled to reference host speed; without one it is the raw time."""
    out: dict = {"ok": False, "errors": []}
    tracer = tracing.Tracer()
    try:
        if mode == "trace":
            tracer.install(tracing.SPANS, tracer.span)
            tracer.install(tracing.COUNTERS, tracer.counter)
        elif mode == "count":
            tracer.install(tracing.DUAL_COUNTER, tracer.counter)
        runner = getattr(cli, workload.runner)
        if mode == "trace":
            runner = tracer.span("cli", runner)
        cfg = workloads.make_config(cli, workload, seed)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            report = runner(cfg)
        finally:
            t1 = time.perf_counter()
            out["cpu_s"] = time.process_time() - cpu0
            out["wall_raw_s"] = t1 - t0
            out["wall_speed"] = probe.speed(t0, t1) if probe else 1.0
            out["wall_s"] = out["wall_raw_s"] * out["wall_speed"]
            tracer.restore()
        out["errors"] = workloads.check(workload, seed, workloads.summarize(report), reference)
        out["ok"] = not out["errors"]
    except Exception:  # the call's boundary: any failure is a failed operation
        out["errors"].append(traceback.format_exc(limit=4))
    out["missing_targets"] = tracer.missing
    if mode == "trace":
        layers = tracing.layer_metrics(tracing.span_stats(tracer.spans), tracer.counts)
        layers["cli.cpu_s"] = out.get("cpu_s", 0.0)
        out["layers"] = scale_layer_times(layers, out.get("wall_speed", 1.0))
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump({"fields": ["name", "parent", "start", "end", "points"],
                           "spans": tracer.spans}, fh)
    elif mode == "count":
        out["layers"] = {"ad.dual_new": tracer.counts["ad.dual_new"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    cpu = hostspeed.pin_to_one_cpu()
    probe = hostspeed.HostProbe().start()
    t0 = time.perf_counter()
    from finslergbc import cli
    t1 = time.perf_counter()
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"finslergbc imported from {cli.__file__}, not from {SRC}\n")
        probe.stop()
        return 2

    result: dict = {"setup_raw_s": t1 - t0, "setup_speed": probe.speed(t0, t1), "cpu": cpu}
    result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    try:
        if args.mode in SCENARIO_MODES:
            result.update(run_call(workloads.WORKLOADS[args.workload], args.seed, args.mode,
                                   cli, workloads.load_reference(), args.spans, probe))
    finally:
        probe.stop()
    if args.mode == "env":
        result.update(_library_versions())
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
