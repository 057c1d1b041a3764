"""The benchmark in bench/ times cigarflow functions it wraps by name from
outside the package, and checks each workload's output with its own gates;
a rename, a removal or a failed gate must fail here, not in a later
benchmark run."""

import importlib
import inspect
import math
import runpy
import time
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_wrapped_name_is_a_cigarflow_function():
    wrapped = runpy.run_path(str(TRACER))["WRAPPED"]  # compiles in memory, writes no bytecode
    missing = [
        f"{module}.{name}"
        for module, names in wrapped.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"cigarflow.{module}"), name, None))
    ]
    assert wrapped and not missing


def test_benchmark_round_trip_check_accepts_a_reloaded_snapshot(tmp_path):
    # record_dense's check compares every field a snapshot stores, through
    # names such as FlowState.potential; a name it reads that goes away must
    # fail here, not only inside a benchmark run
    workloads = runpy.run_path(str(TRACER.parent / "workloads.py"))
    from cigarflow import flow, scenarios, snapshots

    config = scenarios.parse_config({
        "name": "round_trip",
        "grid": {"kind": "radial", "n": 17, "s_max": 8.0},
        "initial": {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5},
        "stepping": {"safety": 0.9, "t_end": 0.1, "record_interval": 0.05},
    })
    state = flow.run(scenarios.build_scenario(config), config.t_end,
                     record_interval=config.record_interval).final_state
    path = tmp_path / "snapshot.txt"
    snapshots.save_snapshot(state, path)
    assert workloads["states_identical"](state, snapshots.load_snapshot(path)) is True


@pytest.mark.parametrize("name", ["relax_long", "refine", "record_dense"])
def test_benchmark_workload_passes_its_own_checks(tmp_path, name):
    # one iteration of each benchmark workload, checked by the benchmark's
    # own gates: a change that would end a benchmark run as incorrect or
    # failed fails here first
    workloads = runpy.run_path(str(TRACER.parent / "workloads.py"))
    workload = workloads["WORKLOADS"][name]()
    workload.setup(0, tmp_path / name)
    output = workload.iterate()
    assert workload.check(output) == []
    assert math.isfinite(workload.max_err(output))


def test_traced_workload_layer_readings_are_finite(tmp_path):
    # one traced iteration of relax_long reduced by the tracer's summary:
    # every per-layer reading is finite, the accepted steps are the shipped
    # run's 252, and no flow.step call runs under flow.monitor (a record
    # takes no step)
    tracer = runpy.run_path(str(TRACER))
    workload = runpy.run_path(str(TRACER.parent / "workloads.py"))["WORKLOADS"]["relax_long"]()
    workload.setup(0, tmp_path / "relax_long")
    spans = tracer["Tracer"]()
    spans.install()
    try:
        start = time.perf_counter()
        output = workload.iterate()
        wall = time.perf_counter() - start
    finally:
        spans.uninstall()
    assert workload.check(output) == []
    summary = spans.summary(1, workload.sim_time, wall)
    assert summary.keys() >= {"flow.steps_per_sim_time", "flow.probe_step_share",
                              "flow.fixed_fields.calls_per_step"}
    assert all(math.isfinite(value) for value in summary.values())
    assert summary["flow.steps_per_sim_time"] == 252 / 5
    assert summary["flow.probe_step_share"] == 0


def test_traced_record_dense_layer_readings_are_finite(tmp_path):
    # one traced iteration of record_dense, whose records `flow.run` takes
    # in blocks of up to BLOCK_STEPS states: the tracer, which wraps the
    # per-state record functions by name, still reads every per-layer
    # figure as a finite number, and the workload's own checks pass
    tracer = runpy.run_path(str(TRACER))
    workload = runpy.run_path(str(TRACER.parent / "workloads.py"))["WORKLOADS"]["record_dense"]()
    workload.setup(0, tmp_path / "record_dense")
    spans = tracer["Tracer"]()
    spans.install()
    try:
        start = time.perf_counter()
        output = workload.iterate()
        wall = time.perf_counter() - start
    finally:
        spans.uninstall()
    assert workload.check(output) == []
    summary = spans.summary(1, workload.sim_time, wall)
    assert summary.keys() >= {f"{name}.calls" for name in tracer["NAMES"]}
    assert all(math.isfinite(value) for value in summary.values())
    assert summary["flow.step.calls"] == 300  # 200 steps to t = 1 and 100 resumed
