"""Benchmark workloads and the correctness gate on their reports.

Each workload is one call of a public scenario runner of
``finslergbc.cli`` with a fixed config; the benchmark seed becomes the
config seed.  The gate works on plain report summaries, so it can be
tested without running a scenario.

To store new reference values (only when a change is meant to move them),
run ``PYTHONPATH=src python3 perfbench/workloads.py``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 1234

# Largest drift from a stored reference value that still counts as the
# same result: the bound the project sets for any speed-up.
DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    runner: str  # name of the scenario runner in finslergbc.cli
    config: dict = field(default_factory=dict)
    # False when the scenario draws nothing from the seed, so its stored
    # reference applies at every seed, not only at REFERENCE_SEED.
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        # The headline demonstration: x-dependent fiber volume and D != nabla.
        # Most of its time is fiber volume V and d log V; the rest is the
        # tensor chain under the 13-point curvature stencil.
        Workload(
            "gbc-randers-perturbed", "run_gbc",
            {"scenario": "gbc", "manifold": "sphere", "metric": "randers",
             "metric_eps": 0.1, "connection": "perturbed",
             "perturbation_amplitude": 0.2, "vector_field": "rotational",
             "order_base": 48, "order_fiber": 64,
             "epsilon_schedule": (0.2, 0.1, 0.05)},
            seeded=False,
        ),
        # FD exterior derivatives at random bundle points: every displaced
        # batch starts with a cold tensor cache, so metric_jets dominates and
        # the fiber kernel is mostly out of the way.  The only workload that
        # spends real time in the algebra layer (U_t, Berezin, eq32).
        Workload(
            "identities-randers", "run_identity_suite",
            {"scenario": "identities", "manifold": "sphere", "metric": "randers",
             "metric_eps": 0.1, "connection": "cartan", "identity_samples": 200},
        ),
        # The same metric/ad kernels called one scalar ray at a time, with no
        # batching, quadrature, fiber volume or connection.
        Workload("minkowski-props", "run_minkowski_props",
                 {"scenario": "minkowski-props"}),
    )
}


def summarize(report) -> dict:
    """Plain-data view of a ``finslergbc.cli.Report``."""
    return {
        "passed": bool(report.passed),
        "rows": {r.name: {"value": r.value, "target": r.target, "passed": bool(r.passed)}
                 for r in report.rows},
        "convergence": [[float(e), float(v)] for e, v in report.convergence],
    }


def reference_entry(summary: dict) -> dict:
    """What the gate stores for one workload.  A row whose target is 0 is a
    residual bound: only growth counts as drift.  Every other row, and every
    per-epsilon value, must stay within DRIFT_TOL either way."""
    return {
        "rows": {name: {"value": row["value"],
                        "compare": "upper" if row["target"] == 0.0 else "abs"}
                 for name, row in summary["rows"].items()},
        "convergence": summary["convergence"],
    }


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _drifted(got: float, want: float, compare: str) -> bool:
    delta = got - want
    # written so that a NaN counts as drift
    ok = delta <= DRIFT_TOL if compare == "upper" else abs(delta) <= DRIFT_TOL
    return not ok


def check(workload: Workload, seed: int, summary: dict, reference: dict) -> list[str]:
    """Every reason the call's result is wrong; empty when it is right."""
    errors = [f"report check failed: {name} = {row['value']!r}"
              for name, row in summary["rows"].items() if not row["passed"]]
    if workload.seeded and seed != reference["seed"]:
        return errors
    ref = reference["workloads"][workload.name]
    for name, spec in ref["rows"].items():
        row = summary["rows"].get(name)
        if row is None:
            errors.append(f"row {name} missing")
        elif _drifted(row["value"], spec["value"], spec["compare"]):
            errors.append(f"row {name} = {row['value']!r}, reference {spec['value']!r}")
    got, want = summary["convergence"], ref["convergence"]
    if [e for e, _ in got] != [e for e, _ in want]:
        errors.append(f"epsilon schedule {[e for e, _ in got]} != {[e for e, _ in want]}")
    else:
        for (eps, val), (_, ref_val) in zip(got, want):
            if _drifted(val, ref_val, "abs"):
                errors.append(f"integral at eps={eps} = {val!r}, reference {ref_val!r}")
    return errors


def record_reference(path: str = REFERENCE_PATH) -> dict:
    """Run every workload at REFERENCE_SEED in this process and store the
    gate's reference values."""
    from finslergbc import cli

    out = {"seed": REFERENCE_SEED, "drift_tol": DRIFT_TOL, "workloads": {}}
    for w in WORKLOADS.values():
        report = getattr(cli, w.runner)(make_config(cli, w, REFERENCE_SEED))
        summary = summarize(report)
        values = [r["value"] for r in summary["rows"].values()]
        if not summary["passed"] or not all(map(math.isfinite, values)):
            raise SystemExit(f"{w.name}: report fails at the reference seed")
        out["workloads"][w.name] = reference_entry(summary)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return out


def make_config(cli, workload: Workload, seed: int):
    return cli.ExperimentConfig(seed=seed, **workload.config)


if __name__ == "__main__":
    ref = record_reference()
    for name, entry in ref["workloads"].items():
        print(name, len(entry["rows"]), "rows", len(entry["convergence"]), "eps values")
