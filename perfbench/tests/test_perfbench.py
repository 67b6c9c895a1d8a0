"""Tests of the benchmark itself: span arithmetic, output checks, seeded inputs,
speed normalisation and the probe process.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    names = ["a.f", "b.g", "c.h"]
    spans = [
        (0, 0.0, 10.0, -1),  # a.f, children b.g and c.h
        (1, 1.0, 4.0, 0),  # b.g, child a.f
        (0, 2.0, 3.0, 1),  # a.f again, inside the first a.f
        (2, 5.0, 7.0, 0),
        (1, 12.0, 13.0, -1),  # a second root
    ]
    s = summarize(names, spans)
    assert s["layer_self"] == {"a": 10 - 3 - 2 + 1, "b": 3 - 1 + 1, "c": 2}
    assert s["layer_calls"] == {"a": 2, "b": 2, "c": 1}
    assert s["covered"] == 11
    assert sum(s["layer_self"].values()) == s["covered"]
    # the nested a.f lies inside the outer one and is not counted twice
    assert s["fn_time"] == {"a.f": 10, "b.g": 4, "c.h": 2}
    assert s["fn_calls"] == {"a.f": 2, "b.g": 2, "c.h": 1}


def test_tracer_records_parents_and_counters():
    tracer = Tracer("t")

    def leaf(x):
        return [x] * x

    wrapped_leaf = tracer.wrap(leaf, "b.leaf", counter=("b.items", lambda a, k, r: len(r)))
    outer = tracer.wrap(lambda: [wrapped_leaf(2), wrapped_leaf(3)], "a.outer")
    outer()
    assert [(tracer.names[nid], parent) for nid, _, _, parent in tracer.spans] == [
        ("a.outer", -1),
        ("b.leaf", 0),
        ("b.leaf", 0),
    ]
    assert tracer.counters == {"b.items": 5}
    s = summarize(tracer.names, tracer.spans)
    assert s["layer_self"]["a"] + s["layer_self"]["b"] == pytest.approx(s["covered"])


def fail_frac(checks):
    return sum(not ok for _, ok, _ in checks) / len(checks)


def _window_output(ref):
    return {
        "exit_code": 0,
        "stdout": f"exact window mass sum R(n), n in [{ref['lo']}, {ref['hi']}]: {ref['mass']}\n",
        "S": list(zip(ref["n"], ref["S"])),
        "J": list(zip(ref["n"], ref["J"])),
    }


def test_wrong_reference_fails_a_check():
    refs = workloads.load_references()
    inputs = workloads.make_inputs("window", 0)
    out = _window_output(refs["window"])
    assert fail_frac(workloads.check_window(inputs, out, refs["window"])) == 0

    # a Monte Carlo-sized error in one J(n) fails both that J and the predicted mass
    wrong = dict(refs["window"], J=[refs["window"]["J"][0] * (1 + 1e-9)] + refs["window"]["J"][1:])
    assert fail_frac(workloads.check_window(inputs, out, wrong)) > 0

    census_in = workloads.make_inputs("census", 0)
    census_out = {"E_count": refs["census"]["E_count"], "witnesses": [(36, (3, 3, 3, 3))]}
    assert fail_frac(workloads.check_census(census_in, census_out, refs["census"])) == 0
    wrong = dict(refs["census"], E_count=refs["census"]["E_count"] + 1)
    assert fail_frac(workloads.check_census(census_in, census_out, wrong)) > 0


def test_raising_call_and_bad_witness_fail():
    refs = workloads.load_references()
    inputs = workloads.make_inputs("census", 0)
    out = {"E_count": refs["census"]["E_count"], "witnesses": [(36, RuntimeError("boom")), (37, (3, 3, 3, 3)), (40, None)]}
    checks = workloads.check_census(inputs, out, refs["census"])
    assert [ok for _, ok, _ in checks] == [True, False, False, False]


def test_seed_moves_census_and_volume_inputs_only():
    for name in ("census", "volume"):
        assert workloads.make_inputs(name, 1) == workloads.make_inputs(name, 1)
        assert workloads.make_inputs(name, 1) != workloads.make_inputs(name, 2)
    for name in ("window", "arith"):
        assert workloads.make_inputs(name, 1) == workloads.make_inputs(name, 2)
    N = workloads.VOLUME_P**6
    for beta, k in zip(workloads.make_inputs("volume", 7)["betas"], workloads.VOLUME_K):
        assert abs(beta * N / 2 - k) <= workloads.BETA_JITTER


def test_times_are_scaled_by_probe_speed():
    reps = [run.Rep(traced=False, wall=w, cpu=w + 0.5, rss_mb=10.0, setup=w / 10, checks=[]) for w in (2.0, 4.0, 6.0)]
    at_reference = run.end_to_end_metrics(reps, run.PROBE_REF_S, 8, 2)
    assert at_reference == pytest.approx({"wall_s": 4.0, "setup_s": 0.4, "cpu_s": 4.5, "peak_rss_mb": 10.0, "pass_frac": 0.75})
    # a machine half as fast takes twice as long for the probe's slice and the workload alike
    half_speed = run.end_to_end_metrics(reps, 2 * run.PROBE_REF_S, 8, 2)
    assert half_speed == pytest.approx({"wall_s": 2.0, "setup_s": 0.2, "cpu_s": 2.25, "peak_rss_mb": 10.0, "pass_frac": 0.75})


def test_probe_process_samples_until_stopped():
    with run.Prober(dict(os.environ)) as probe:
        probe.start()
        slice_s = probe.stop()
    assert 0 < slice_s < 10
    assert probe.proc.returncode == 0


def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
