"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import math
import sys
import time

import pytest

import hostspeed
import run
import tracing
import worker
import workloads


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, worker.SRC)
    try:
        from finslergbc import cli
    finally:
        sys.path.remove(worker.SRC)
    return cli


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


# --- tracing ---------------------------------------------------------------------


def test_self_time_on_nested_call_tree():
    # root(0-10) -> mid(1-5) -> leaf(2-4); root -> leaf(6-7); root -> boom(8-9) raises
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tr.span("leaf", lambda: 1, points=lambda r: 5 * r)

    def fail():
        raise ValueError("boom")

    boom = tr.span("boom", fail)
    mid = tr.span("mid", lambda: leaf())

    def body():
        mid()
        leaf()
        with pytest.raises(ValueError):
            boom()

    tr.span("root", body)()
    st = tracing.span_stats(tr.spans)
    assert st["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0, "points": 0}
    assert st["mid"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0, "points": 0}
    assert st["leaf"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0, "points": 10}
    assert st["boom"]["self_s"] == 1.0
    assert sum(s["self_s"] for s in st.values()) == st["root"]["total_s"]
    assert [s[1] for s in tr.spans] == [-1, 0, 1, 0, 0]


def _bindings(modules):
    out = {}
    for mod in modules:
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for member, raw in vars(val).items():
                    out[(mod.__name__, f"{attr}.{member}")] = raw
    return out


def test_wrappers_reach_every_binding_and_restore_it(cli):
    from finslergbc import connection, metric

    modules = [m for name, m in sys.modules.items()
               if name == "finslergbc" or name.startswith("finslergbc.")]
    before = _bindings(modules)
    original_jets = metric.metric_jets
    tr = tracing.Tracer()
    for table in (tracing.SPANS, tracing.COUNTERS, tracing.DUAL_COUNTER):
        tr.install(table, tr.counter if table is not tracing.SPANS else tr.span)
    try:
        assert tr.missing == []
        assert metric.metric_jets is not original_jets
        assert connection.metric_jets is metric.metric_jets
        changed = {k for k, v in _bindings(modules).items() if before[k] is not v}
        assert ("finslergbc.connection", "metric_jets") in changed
        assert ("finslergbc.quadrature", "ChartPoints.of") in changed
        assert ("finslergbc.ad", "Dual.__init__") in changed
    finally:
        tr.restore()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


# --- host speed probe ------------------------------------------------------------


def test_host_speed_is_mean_reference_speed_over_the_interval():
    ref = hostspeed.REFERENCE_S
    probe = hostspeed.HostProbe()
    # one sample every 10 ms: full speed, then half speed, then a sample the OS delayed
    probe.samples = [(0.00, ref), (0.01, ref), (0.02, 2 * ref), (0.03, 2 * ref), (0.04, 100 * ref)]
    assert probe.speed(0.0, 0.015) == pytest.approx(1.0)
    assert probe.speed(0.0, 0.04) == pytest.approx(0.75)
    assert probe.speed(0.0, 1.0) == pytest.approx((1 + 1 + 0.5 + 0.5 + 0.01) / 5)
    # no sample inside: the nearest one stands in; no sample at all: reference speed
    assert probe.speed(0.0305, 0.0306) == pytest.approx(0.5)
    assert hostspeed.HostProbe().speed(0.0, 1.0) == 1.0


def test_layer_times_and_rates_scale_with_host_speed_counts_do_not():
    layers = {"metric.fundamental.calls": 10, "metric.fundamental.self_s": 2.0,
              "metric.metric_jets.points_per_s": 100.0, "connection.tensor_cache_hit_ratio": 0.5}
    assert worker.scale_layer_times(layers, 0.5) == {
        "metric.fundamental.calls": 10, "metric.fundamental.self_s": 1.0,
        "metric.metric_jets.points_per_s": 200.0, "connection.tensor_cache_hit_ratio": 0.5}


def test_host_probe_samples_while_running_and_stops():
    probe = hostspeed.HostProbe(period_s=0.001).start()
    t0 = time.perf_counter()
    while len(probe.samples) < 5 and time.perf_counter() - t0 < 10.0:
        time.sleep(0.01)
    probe.stop()
    assert not probe._thread.is_alive()
    assert len(probe.samples) >= 5
    assert probe.speed(t0, time.perf_counter()) > 0.0


# --- correctness gate --------------------------------------------------------------


def _summary_from(entry: dict) -> dict:
    return {
        "passed": True,
        "rows": {name: {"value": spec["value"],
                        "target": 0.0 if spec["compare"] == "upper" else None,
                        "passed": True}
                 for name, spec in entry["rows"].items()},
        "convergence": copy.deepcopy(entry["convergence"]),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_fails_when_any_reference_moves_by_1e9(name, reference):
    w = workloads.WORKLOADS[name]
    seed = reference["seed"]
    summary = _summary_from(reference["workloads"][name])
    assert workloads.check(w, seed, summary, reference) == []

    for row, spec in reference["workloads"][name]["rows"].items():
        moved = copy.deepcopy(reference)
        # a residual bound only fails when the result looks worse
        delta = -1e-9 if spec["compare"] == "upper" else 1e-9
        moved["workloads"][name]["rows"][row]["value"] += delta
        assert workloads.check(w, seed, summary, moved), row
        if spec["compare"] == "upper":
            moved["workloads"][name]["rows"][row]["value"] -= 2 * delta
            assert workloads.check(w, seed, summary, moved) == [], row
    for k in range(len(summary["convergence"])):
        moved = copy.deepcopy(reference)
        moved["workloads"][name]["convergence"][k][1] += 1e-9
        assert workloads.check(w, seed, summary, moved), k

    nan = copy.deepcopy(summary)
    first = next(iter(nan["rows"]))
    nan["rows"][first]["value"] = math.nan
    assert workloads.check(w, seed, nan, reference)


def test_gate_off_reference_seed_checks_only_the_report(reference):
    w = workloads.WORKLOADS["identities-randers"]
    summary = _summary_from(reference["workloads"][w.name])
    moved = copy.deepcopy(reference)
    for spec in moved["workloads"][w.name]["rows"].values():
        spec["value"] = -1.0
    assert workloads.check(w, reference["seed"] + 1, summary, moved) == []
    summary["rows"]["eq34_gbc_exactness"]["passed"] = False
    assert workloads.check(w, reference["seed"] + 1, summary, moved)
    # gbc draws nothing from the seed, so its reference holds at every seed
    g = workloads.WORKLOADS["gbc-randers-perturbed"]
    moved["workloads"][g.name]["convergence"][0][1] += 1e-9
    gsum = _summary_from(reference["workloads"][g.name])
    assert workloads.check(g, reference["seed"] + 1, gsum, moved)


def test_real_report_matches_reference_and_fails_perturbed(cli, reference):
    w = workloads.WORKLOADS["minkowski-props"]
    res = worker.run_call(w, reference["seed"], "plain", cli, reference)
    assert res["ok"], res["errors"]
    moved = copy.deepcopy(reference)
    moved["workloads"][w.name]["rows"]["sum_norm_min_eigenvalue"]["value"] += 1e-9
    res = worker.run_call(w, reference["seed"], "plain", cli, moved)
    assert not res["ok"]
    assert "sum_norm_min_eigenvalue" in res["errors"][0]


# --- failure accounting ----------------------------------------------------------


def test_raising_scenario_counts_as_failed_operation(cli, reference, monkeypatch):
    def broken(cfg):
        raise RuntimeError("scenario exploded")

    monkeypatch.setattr(cli, "run_minkowski_props", broken)
    res = worker.run_call(workloads.WORKLOADS["minkowski-props"], 5, "plain", cli, reference)
    assert not res["ok"]
    assert "scenario exploded" in res["errors"][0]
    good = {"ok": True, "errors": []}
    line = run.result_line([("plain", good), ("plain", res)], {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)


def test_crashed_worker_counts_as_failed_call():
    res = run.call_worker("minkowski-props", 1, "no-such-mode")
    assert not res["ok"]
    assert "exit 2" in res["errors"][0]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))) == (None, None)
    pct, val = run.tail([float(v) for v in range(20)])
    assert (pct, val) == (50.0, 9.0)
    assert sum(v > val for v in range(20)) == 10
