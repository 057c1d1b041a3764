import argparse
import builtins
import copy
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cigarflow import cli, flow, scenarios, snapshots
from cigarflow.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRecord,
    cigar_number,
    emit_diagnostics,
    read_diagnostics,
)
from cigarflow.geometry import ConformalState, RadialGrid
from cigarflow.scenarios import (
    ConfigError,
    ScenarioConfig,
    build_scenario,
    load_config,
    parse_config,
    run_scenario,
    verify_scenario,
)
from cigarflow.snapshots import SnapshotError, load_snapshot, save_snapshot


def base_config(**overrides):
    data = {
        "name": "t",
        "grid": {"kind": "radial", "n": 65, "s_max": 8.0},
        "initial": {"type": "exact_cigar"},
        "stepping": {"safety": 0.9, "t_end": 0.2, "record_interval": 0.1},
    }
    data.update(overrides)
    return data


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_unknown_keys_are_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(base_config(extra_key=1))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(base_config(grid={"kind": "radial", "n": 65, "s_max": 8.0, "hmax": 1}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(base_config(stepping={"safety": 0.9, "t_end": 0.2,
                                           "record_interval": 0.1, "dt": 1e-3}))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(base_config(initial={"type": "exact_cigar", "scale": 2.0}))
    # every run starts in the co-moving frame; no key selects the fixed one
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(base_config(stepping={"safety": 0.9, "t_end": 0.2,
                                           "record_interval": 0.1, "frame": "fixed"}))


def test_grid_must_be_power_of_two_plus_one():
    with pytest.raises(ConfigError, match="power of two"):
        parse_config(base_config(grid={"kind": "radial", "n": 100, "s_max": 8.0}))
    with pytest.raises(ConfigError, match="at most 4097, got 8193"):
        parse_config(base_config(grid={"kind": "radial", "n": 8193, "s_max": 8.0}))
    for n in (17, 65, 129, 257, 4097):
        parse_config(base_config(grid={"kind": "radial", "n": n, "s_max": 8.0}))


def test_missing_and_invalid_sections():
    data = base_config()
    del data["stepping"]
    with pytest.raises(ConfigError, match="missing required key"):
        parse_config(data)
    with pytest.raises(ConfigError, match="initial.type"):
        parse_config(base_config(initial={"type": "rosenau"}))
    with pytest.raises(ConfigError, match="width"):
        parse_config(base_config(initial={"type": "perturbed_cigar", "amplitude": 0.1,
                                          "center": 2.0, "width": 0.0}))
    with pytest.raises(ConfigError, match="grid.kind must be 'radial'"):
        parse_config(base_config(grid={"kind": "cartesian", "n": 17, "extent": 4.0}))


# every key of every section, so that mutations reach each validation branch
FULL_CONFIG = {
    "name": "p",
    "grid": {"kind": "radial", "n": 65, "s_max": 8.0},
    "initial": {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0,
                "width": 0.5, "random_bumps": 2},
    "stepping": {"safety": 0.9, "t_end": 1.0, "record_interval": 0.1, "s_report": 4.0},
    "output": {"directory": "out", "snapshot_interval": 0.5},
    "seed": 3,
}
PATHS = [(key,) for key in FULL_CONFIG] + [
    (key, sub) for key, section in FULL_CONFIG.items() if isinstance(section, dict)
    for sub in section
] + [("grid", "extent"), ("initial", "scale"), ("initial", "log_u0"), ("extra",)]
DELETE = object()
JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["radial", "cartesian", "flat", "custom_table", "scaled_cigar",
                       "exact_cigar", "65", "1e400", "nan"])
)
JSON_VALUES = (JSON_LEAVES | st.lists(JSON_LEAVES, max_size=4)
               | st.dictionaries(st.text(max_size=4), JSON_LEAVES, max_size=3))


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.just(DELETE) | JSON_VALUES),
                min_size=1, max_size=3))
def test_parse_config_raises_only_config_error(mutations):
    data = copy.deepcopy(FULL_CONFIG)
    for path, value in mutations:
        parent = data.get(path[0]) if len(path) == 2 else data
        if not isinstance(parent, dict):
            continue
        if value is DELETE:
            parent.pop(path[-1], None)
        else:
            parent[path[-1]] = value
    try:
        config = parse_config(data)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)
    for value in (config.safety, config.t_end, config.record_interval, config.s_report):
        assert np.isfinite(value) and value > 0


@pytest.mark.parametrize("change", [
    {"stepping": {"safety": 0.9, "t_end": 0.2, "record_interval": 0}},
    {"stepping": {"safety": 0.9, "t_end": 0.2, "record_interval": -0.1}},
    {"stepping": {"safety": 0, "t_end": 0.2, "record_interval": 0.1}},
    {"stepping": {"safety": 0.9, "t_end": 0, "record_interval": 0.1}},
    {"stepping": {"safety": 0.9, "t_end": float("inf"), "record_interval": 0.1}},
    {"stepping": {"safety": 0.9, "t_end": 0.2, "record_interval": 1e-9}},
    {"stepping": {"safety": 0.9, "t_end": 0.2, "record_interval": 0.1, "frame": "fixed"}},
    {"grid": {"kind": "radial", "n": "abc", "s_max": 8.0}},
    {"grid": {"kind": "radial", "n": 9, "s_max": 8.0}},
    {"grid": {"kind": "radial", "n": 65, "s_max": -1}},
    {"grid": {"kind": "cartesian", "n": 65, "extent": 8.0}},
    {"grid": [1]},
    {"initial": {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0}},
    {"initial": {"type": "custom_table", "log_u0": ["a"] * 65}},
    {"output": {"snapshot_interval": 0}},
    {"output": {"snapshot_interval": -1.0}},
    {"output": {"directory": 5}},
    {"seed": -1},
    # the stencil's sinh s cosh s * h^2 overflows float64 from s_max ~ 354 at n = 65
    {"grid": {"kind": "radial", "n": 65, "s_max": 355.4}},
    {"grid": {"kind": "radial", "n": 65, "s_max": 400}},
    {"grid": {"kind": "radial", "n": 65, "s_max": 800}},
    # spacing h above sqrt 5 turns the tip row's coefficient of f_1 negative
    {"grid": {"kind": "radial", "n": 65, "s_max": 170}},
    {"grid": {"kind": "radial", "n": 17, "s_max": 50}},
    # numbers of the wrong JSON type, which int() and float() would accept
    {"grid": {"kind": "radial", "n": 65.7, "s_max": 8.0}},
    {"grid": {"kind": "radial", "n": "65", "s_max": 8.0}},
    {"seed": 1.5},
    {"seed": True},
    {"initial": {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5,
                 "random_bumps": 2.9}},
    {"stepping": {"safety": "0.9", "t_end": 0.2, "record_interval": 0.1}},
    {"stepping": {"safety": 0.9, "t_end": True, "record_interval": 0.1}},
    {"initial": {"type": "custom_table", "log_u0": [0.0] * 64 + [True]}},
    # a name that is no JSON string, or that would put the default output
    # directory runs/<name> at runs/ itself or outside it
    {"name": None},
    {"name": 5},
    {"name": True},
    {"name": ""},
    {"name": "."},
    {"name": ".."},
    {"name": "../x"},
    {"name": "a/b"},
    {"name": "a\\b"},
    # a grid above MAX_NODES, refused before its spline's n x n inverse is formed
    {"grid": {"kind": "radial", "n": 8193, "s_max": 8.0}},
    # a time that rounds to 0 at the run's resolution of 12 decimals
    {"stepping": {"safety": 0.9, "t_end": 1e-13, "record_interval": 1e-13}},
    {"stepping": {"safety": 0.9, "t_end": 1e-9, "record_interval": 1e-13}},
    {"stepping": {"safety": 0.9, "t_end": 1e-9, "record_interval": 1e-9},
     "output": {"snapshot_interval": 4e-13}},
    # s_max below MIN_S_MAX, where the stencil denominators b h^2 underflow
    {"grid": {"kind": "radial", "n": 129, "s_max": 1e-300}},
    {"grid": {"kind": "radial", "n": 17, "s_max": 9e-91}},
    # snapshot times that share a file name (the time to 6 decimals): the 11
    # times 0, 1e-7, .., 1e-6 would write two files
    {"stepping": {"safety": 0.9, "t_end": 1e-6, "record_interval": 1e-6},
     "output": {"snapshot_interval": 1e-7}},
])
def test_cli_config_errors_exit_2(tmp_path, change, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**change)))  # inf is written as Infinity
    assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("initial", [
    {"type": "perturbed_cigar", "amplitude": 800, "center": 2.0, "width": 0.5},
    {"type": "perturbed_cigar", "amplitude": -800, "center": 2.0, "width": 0.5},
    {"type": "perturbed_cigar", "amplitude": 1e6, "center": 2.0, "width": 0.5},
    {"type": "custom_table", "log_u0": [0.0] * 32 + [1e6] + [0.0] * 32},
    # inside the e^{+-u~0} guard, but Lap_g R0 (which the first record's
    # curvature residual applies) overflows; -348.853 is the bisected edge
    {"type": "perturbed_cigar", "amplitude": -700, "center": 2.0, "width": 0.5},
    {"type": "perturbed_cigar", "amplitude": -348.86, "center": 2.0, "width": 0.5},
    # log u0 overflows float64: a centre-0 bump peaks at 2A
    {"type": "perturbed_cigar", "amplitude": 1e308, "center": 0.0, "width": 0.5},
    # the bump's curvature A / width^2 overflows, or width^2 underflows to 0
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 1e-300},
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.1, "width": 1e-160},
])
def test_cli_overflowing_initial_data_exits_2(tmp_path, initial, capsys):
    # e^{+-u~0}, R0 or Lap_g R0 overflows float64: refused without a warning
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(initial=initial)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("initial", [
    # a vast width is a flat bump, log u0 = 2A; a vast centre a vanished one
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 1e300},
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": 1e300, "width": 0.5},
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": -1e300, "width": 0.5},
])
def test_cli_extreme_bump_numbers_run_cleanly(tmp_path, initial):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(initial=initial)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 0
    hypothesis = json.loads((tmp_path / "out" / "summary.json").read_text())["hypothesis"]
    flat = initial["width"] > 1.0
    assert hypothesis["sup_log_u0"] == (0.6 if flat else 0.0)


def test_cli_initial_data_inside_the_curvature_guard_runs(tmp_path):
    # just inside the bisected edge of the Lap_g R0 refusal the run completes
    # without an overflow warning
    initial = {"type": "perturbed_cigar", "amplitude": -348.84, "center": 2.0, "width": 0.5}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(initial=initial)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path), "--quiet", "--out", str(tmp_path / "out")]) == 0


def _run_cli(args, timeout=60, cwd=None, **env):
    """`python -m cigarflow <args>` in a subprocess, in `cwd`, with this
    tree's src/ first and the variables `env` set."""
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "cigarflow", *args], capture_output=True,
                          text=True, env=env, timeout=timeout, cwd=cwd)


REFUSED_SCENARIOS = {
    # initial data whose e^{+-u~0} overflows, refused by build_scenario
    "overflowing_data": {"initial": {"type": "perturbed_cigar", "amplitude": 800,
                                     "center": 2.0, "width": 0.5}},
    # exact-cigar data at s_max 1e-6: the stage cap holds dt at 2.65e-15 on
    # h = 7.8e-9, so the run to t = 0.05 would take 1.9e13 steps and never
    # end.  It is refused before any step.
    "step_budget": {"grid": {"kind": "radial", "n": 129, "s_max": 1e-6},
                    "stepping": {"safety": 0.9, "t_end": 0.05, "record_interval": 0.05}},
}


@pytest.mark.parametrize("command", ["run", "verify", "converge"])
def test_cli_refuses_a_run_past_the_step_budget(tmp_path, command):
    # each command refuses the run past the step budget as a config error;
    # `run` makes neither its output directory nor the parents it would need
    path = write_config(tmp_path, base_config(**REFUSED_SCENARIOS["step_budget"]))
    args = [command, str(path)]
    if command == "run":
        args += ["--quiet", "--out", str(tmp_path / "runs" / "out")]
    proc = _run_cli(args)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and "steps, more than 1e+07" in proc.stderr
    assert not (tmp_path / "runs").exists()


def test_build_scenario_refuses_a_run_past_the_step_budget():
    # the step budget is build_scenario's last check, so every caller of it
    # is refused before a first step
    config = parse_config(base_config(**REFUSED_SCENARIOS["step_budget"]))
    with pytest.raises(ConfigError, match="steps, more than 1e\\+07"):
        build_scenario(config)


@pytest.mark.parametrize("refusal", sorted(REFUSED_SCENARIOS))
def test_cli_refused_scenario_leaves_an_existing_directory_untouched(tmp_path, refusal):
    # refused after the config parsed, before the first output is written
    path = write_config(tmp_path, base_config(
        **REFUSED_SCENARIOS[refusal], output={"snapshot_interval": 0.05}))
    out = tmp_path / "out"
    out.mkdir()
    files = {"snapshot_t0.000000.txt": b"old snapshot\n", "notes.txt": b"kept\n"}
    for name, data in files.items():
        (out / name).write_bytes(data)
    proc = _run_cli(["run", str(path), "--quiet", "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert {p.name: p.read_bytes() for p in out.iterdir()} == files


def test_step_budget_bounds_the_steps_from_below(tmp_path):
    # fewest_steps is a lower bound on the steps a run takes.  The guard
    # datum's first dt is 3.6e-156 (t_end over it is 5.5e154), but its
    # curvature spike diffuses at once and the run takes 2416 steps: the
    # bound lets it run.
    guard = {"type": "perturbed_cigar", "amplitude": -348.84, "center": 2.0, "width": 0.5}
    for initial in ({"type": "exact_cigar"}, guard):
        config = parse_config(base_config(initial=initial))
        state = build_scenario(config)
        result = scenarios.run_scenario(config)
        assert not result.aborted
        assert flow.fewest_steps(state, config.t_end, config.safety) <= result.telemetry.steps
    assert config.t_end / flow.adaptive_dt(state, config.safety) > 1e154


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def test_build_exact_cigar():
    state = build_scenario(parse_config(base_config()))
    np.testing.assert_array_equal(state.init.log_u0, np.zeros(65))
    f0 = np.log1p(np.sinh(state.grid.s) ** 2)
    assert np.max(np.abs(state.init.potential0 - f0)) <= 1e-10
    # w = log u0 + f(0) - f0 = u~0(0) vanishes on the exact cigar
    assert np.max(np.abs(state.init.w0)) <= 1e-10
    assert flow.monitor(state).res_poisson <= 1e-10


def test_build_scaled_cigar_constant_w():
    cfg = parse_config(base_config(initial={"type": "scaled_cigar", "scale": 2.0}))
    state = build_scenario(cfg)
    np.testing.assert_allclose(state.init.w0, np.log(2.0), atol=1e-10)
    assert state.init.sup_log_u0 == pytest.approx(np.log(2.0), rel=1e-12)


def test_build_perturbed_cigar_hypothesis_values():
    cfg = parse_config(base_config(
        initial={"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5},
    ))
    state = build_scenario(cfg)
    assert state.init.sup_log_u0 == pytest.approx(0.3, rel=1e-6)
    assert np.isfinite(state.init.sup_grad_log_u0)
    assert np.isfinite(state.init.sup_potential_gap)
    assert flow.monitor(state).res_poisson <= 1e-10


def test_perturbed_tip_curvature_converges_at_order_2():
    # the mirrored bump is even in s, so the tip is smooth and the discrete
    # tip curvature converges; a one-sided bump at c = 0.5 had a cone point
    # there and R0 doubled with each halving of h
    initial = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 0.5, "width": 0.25}
    r0 = [float(build_scenario(parse_config(base_config(
        grid={"kind": "radial", "n": n, "s_max": 8.0}, initial=initial))).curvature[0])
        for n in (65, 129, 257, 513, 1025)]
    diffs = np.abs(np.diff(r0))
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all((1.8 <= orders) & (orders <= 2.2)), (r0, orders)


def test_build_custom_table_and_rejection():
    values = list(0.1 * np.exp(-np.linspace(0, 8, 65)))
    cfg = parse_config(base_config(initial={"type": "custom_table", "log_u0": values}))
    state = build_scenario(cfg)
    assert np.isfinite(state.init.sup_log_u0)
    bad = values.copy()
    bad[-1] = float("inf")
    with pytest.raises(ConfigError, match="non-finite"):
        build_scenario(parse_config(base_config(
            initial={"type": "custom_table", "log_u0": bad})))
    with pytest.raises(ConfigError, match="values"):
        build_scenario(parse_config(base_config(
            initial={"type": "custom_table", "log_u0": values[:-3]})))


def test_random_bumps_seed_determinism():
    def build(seed):
        return build_scenario(parse_config(base_config(
            initial={"type": "perturbed_cigar", "amplitude": 0.2, "center": 2.0,
                     "width": 0.5, "random_bumps": 3},
            seed=seed,
        )))
    a = build(7)
    b = build(7)
    c = build(8)
    np.testing.assert_array_equal(a.init.log_u0, b.init.log_u0)
    assert np.max(np.abs(a.init.log_u0 - c.init.log_u0)) > 1e-6


# ---------------------------------------------------------------------------
# diagnostics CSV
# ---------------------------------------------------------------------------

def test_csv_columns_and_round_trip(tmp_path):
    cfg = parse_config(base_config())
    result = run_scenario(cfg)
    buf = io.StringIO()
    emit_diagnostics(result.records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)
    path = tmp_path / "diag.csv"
    path.write_text(text)
    back = read_diagnostics(path)
    assert len(back) == len(result.records)
    for a, b in zip(result.records, back):
        for name in CSV_COLUMNS:
            assert getattr(a, name) == getattr(b, name)


def test_csv_byte_identical_across_runs():
    cfg = parse_config(base_config())
    outputs = []
    for _ in range(2):
        result = run_scenario(cfg)
        buf = io.StringIO()
        emit_diagnostics(result.records, buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


def test_emit_writes_each_value_as_its_repr():
    # every kind of float a record meets, numpy scalars included: each cell
    # is repr(float(x)), the text csv.writer wrote for the same strings
    values = [0.0, -0.0, 5e-324, -1.7976931348623157e308, float("inf"), float("-inf"),
              float("nan"), np.float64(0.1), np.float64(-2.5e-310), 1e22, 1 / 3, 12.0]
    records = [DiagnosticsRecord(*values), DiagnosticsRecord(*values[::-1])]
    buf = io.StringIO()
    emit_diagnostics(records, buf)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow([repr(float(getattr(rec, name))) for name in CSV_COLUMNS])
    assert buf.getvalue() == expected.getvalue()
    assert "-0.0,5e-324," in buf.getvalue() and ",nan," in buf.getvalue()


def test_emit_empty_raises():
    with pytest.raises(ValueError):
        emit_diagnostics([], io.StringIO())


# ---------------------------------------------------------------------------
# snapshots and resume
# ---------------------------------------------------------------------------

def test_snapshot_round_trip_is_text_identical(tmp_path):
    state = build_scenario(parse_config(base_config()))
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    save_snapshot(state, p1)
    loaded = load_snapshot(p1)
    save_snapshot(loaded, p2)
    assert p1.read_text() == p2.read_text()
    np.testing.assert_array_equal(loaded.conformal.log_factor, state.conformal.log_factor)
    np.testing.assert_array_equal(loaded.potential, state.potential)
    assert loaded.t == state.t
    assert loaded.frame == state.frame


# finite float64 values including -0.0 and subnormals; kept below 1e300 so
# the derived potentials u_tilde0[0] - u_tilde0 and w0 - u~ + 2 log L cannot
# overflow
SNAPSHOT_FLOATS = (st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300])
                   | st.floats(min_value=-1e300, max_value=1e300))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_snapshot_round_trip_is_bit_exact(data):
    n = data.draw(st.sampled_from([17, 33, 65]))
    grid = RadialGrid(n, data.draw(st.floats(min_value=0.5, max_value=50.0)))

    def array():
        return data.draw(arrays(np.float64, n, elements=SNAPSHOT_FLOATS))

    def scalar():
        return data.draw(SNAPSHOT_FLOATS)

    u_slope = scalar()
    state = flow.FlowState(
        conformal=ConformalState(grid, array(), u_slope),
        t=scalar(),
        log_scale=scalar(),
        frame=data.draw(st.sampled_from([flow.COMOVING, flow.FIXED])),
        init=flow.InitialData(log_u0=array(), log_u0_slope=scalar(), grid=grid),
        acc=flow.Accumulators(v_integral=scalar(), phi=array()),
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        save_snapshot(state, first)
        loaded = load_snapshot(first)
        save_snapshot(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    assert (loaded.grid.n, loaded.frame) == (n, state.frame)
    _assert_same_bits(loaded, state)


def _assert_same_bits(loaded, state):
    """Every stored and derived value of a loaded snapshot equals the saved
    state's bit for bit."""
    pairs = [
        (loaded.grid.s_max, state.grid.s_max),
        (loaded.conformal.log_factor, state.conformal.log_factor),
        (loaded.conformal.edge_slope, state.conformal.edge_slope),
        (loaded.potential, state.potential),
        (loaded.potential_slope, state.potential_slope),
        (loaded.t, state.t),
        (loaded.log_scale, state.log_scale),
    ]
    for part in ("init", "acc"):
        for f in fields(getattr(state, part)):
            pairs.append((getattr(getattr(loaded, part), f.name),
                          getattr(getattr(state, part), f.name)))
    for got, want in pairs:
        np.testing.assert_array_equal(_bits(got), _bits(want))


# every kind of float64 the formatter meets: signed zeros, subnormals, the
# largest finite values, infinities and NaN
FORMAT_FLOATS = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  1.7976931348623157e308, -1.7976931348623157e308,
                                  np.inf, -np.inf, np.nan])
                 | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


@settings(max_examples=200, deadline=None, database=None)
@given(arrays(np.float64, st.integers(0, 70), elements=FORMAT_FLOATS))
def test_snapshot_array_text_is_format_17g_per_value(values):
    expected = "\n".join([f"array x {values.size}"]
                         + [format(float(x), ".17g") for x in values])
    assert snapshots._array_text("x", values) == expected


def test_snapshot_init_text_is_never_stale(tmp_path):
    # two runs on one grid size with different initial data, their snapshots
    # written alternately: each file reads back to its own InitialData
    exact = build_scenario(parse_config(base_config()))
    bump = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5}
    bumped = build_scenario(parse_config(base_config(initial=bump)))
    states = [exact, bumped, flow.step(exact, 1e-3), flow.step(bumped, 1e-3)]
    assert exact.init is states[2].init and bumped.init is states[3].init
    for i, state in enumerate(states * 2):
        path = tmp_path / f"s{i}.txt"
        save_snapshot(state, path)
        loaded = load_snapshot(path)
        for f in fields(flow.InitialData):
            np.testing.assert_array_equal(_bits(getattr(loaded.init, f.name)),
                                          _bits(getattr(state.init, f.name)))


def test_snapshot_checksum_rejects_corruption(tmp_path):
    state = build_scenario(parse_config(base_config()))
    path = tmp_path / "snap.txt"
    save_snapshot(state, path)
    lines = path.read_text().splitlines()
    # corrupt one array value
    for i, line in enumerate(lines):
        if line.startswith("array u_tilde"):
            lines[i + 3] = "0.123456"
            break
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


BUMP = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5}


def _bumped_state(n):
    """A perturbed cigar on n nodes after one step: full-length values."""
    grid = {"kind": "radial", "n": n, "s_max": 8.0}
    return flow.step(build_scenario(parse_config(base_config(grid=grid, initial=BUMP))), 1e-3)


@pytest.mark.parametrize("old", ["n129", "junk"])
def test_snapshot_saved_over_a_longer_file_is_a_fresh_save(tmp_path, old):
    # save_snapshot writes over the old bytes and then cuts the file to its
    # own length: what it leaves is exactly a fresh save's bytes
    state = _bumped_state(65)
    fresh, over = tmp_path / "fresh.txt", tmp_path / "over.txt"
    save_snapshot(state, fresh)
    if old == "n129":
        save_snapshot(_bumped_state(129), over)
    else:
        over.write_bytes(np.random.default_rng(0).integers(0, 256, 100_000, np.uint8).tobytes())
    assert over.stat().st_size > fresh.stat().st_size
    save_snapshot(state, over)
    assert over.read_bytes() == fresh.read_bytes()
    _assert_same_bits(load_snapshot(over), state)


def test_snapshot_torn_over_a_longer_file_is_refused(tmp_path):
    # a write torn before the final truncate leaves new bytes followed by the
    # old file's tail, whose own checksum line then ends the file: refused
    old = tmp_path / "old.txt"
    save_snapshot(_bumped_state(129), old)
    save_snapshot(build_scenario(parse_config(base_config())), tmp_path / "new.txt")
    old_bytes, new_bytes = old.read_bytes(), (tmp_path / "new.txt").read_bytes()
    path = tmp_path / "torn.txt"
    for cut in (len(new_bytes), len(new_bytes) // 2, 40):
        path.write_bytes(new_bytes[:cut] + old_bytes[cut:])
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(path)


def test_save_snapshot_never_opens_its_target_with_truncation(tmp_path, monkeypatch):
    # a truncating open makes ext4 flush the file on close, several times
    # the cost of the write itself.  Every open of the target must reach
    # os.open, which must not get O_TRUNC: an open or io.open by path with
    # a "w" mode and no opener truncates inside the C library.
    target = tmp_path / "snap.txt"
    calls = []
    real_os_open, real_open, real_io_open = os.open, builtins.open, io.open

    def os_open(path, flags, *args, **kwargs):
        calls.append(("os.open", path, flags))
        return real_os_open(path, flags, *args, **kwargs)

    def spy(name, real):
        def open_(file, mode="r", *args, **kwargs):
            calls.append((name, file, "w" in mode and kwargs.get("opener") is None))
            return real(file, mode, *args, **kwargs)
        return open_

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", spy("open", real_open))
    monkeypatch.setattr(io, "open", spy("io.open", real_io_open))
    state = build_scenario(parse_config(base_config()))
    save_snapshot(state, target)  # a new file
    save_snapshot(state, target)  # and over an existing one
    monkeypatch.undo()

    on_target = [call for call in calls
                 if not isinstance(call[1], int) and Path(call[1]) == target]
    os_flags = [flags for name, _, flags in on_target if name == "os.open"]
    assert len(os_flags) == 2, calls
    assert not any(flags & os.O_TRUNC for flags in os_flags)
    assert not any(truncates for name, _, truncates in on_target if name != "os.open")
    assert load_snapshot(target).t == state.t


@pytest.mark.parametrize("where", ["missing_parent", "a_directory"])
def test_save_snapshot_to_an_unwritable_path_raises_os_error(tmp_path, where):
    # the error `cigarflow run` turns into exit 3, with no descriptor left open
    path = tmp_path / "missing" / "snap.txt" if where == "missing_parent" else tmp_path
    state = build_scenario(parse_config(base_config()))
    fds = Path("/proc/self/fd")
    before = len(list(fds.iterdir())) if fds.is_dir() else None
    for _ in range(3):
        with pytest.raises(OSError):
            save_snapshot(state, path)
    if before is not None:
        assert len(list(fds.iterdir())) == before
    assert not (tmp_path / "missing").exists()


def _sealed(lines):
    """File text of `lines` (tag to the last array value) under a fresh checksum."""
    body = "\n".join(lines) + "\n"
    return body + f"checksum {zlib.crc32(body.encode()):08x}\n"


def _swap_two_values(lines):
    first = next(i for i, line in enumerate(lines) if line.startswith("array u_tilde")) + 2
    second = next(i for i in range(first + 1, len(lines)) if lines[i] != lines[first])
    lines[first], lines[second] = lines[second], lines[first]


def _bump_last_digit(lines):
    k = next(i for i, line in enumerate(lines) if line.startswith("array u_tilde")) + 5
    mantissa, _, exponent = lines[k].partition("e")
    mantissa = mantissa[:-1] + str((int(mantissa[-1]) + 1) % 10)
    lines[k] = mantissa + ("e" + exponent if exponent else "")


SNAPSHOT_EDITS = {
    "grid s_max": lambda lines: lines.__setitem__(1, "grid 65 9.0"),
    "frame word": lambda lines: lines.__setitem__(2, "frame fixed"),
    "last digit of one value": _bump_last_digit,
    "two value lines swapped": _swap_two_values,
    "line after the checksum": lambda lines: lines.append("trailing garbage 1.0"),
}


@pytest.mark.parametrize("edit", sorted(SNAPSHOT_EDITS))
def test_snapshot_digest_refuses_edits(tmp_path, edit):
    path = tmp_path / "snap.txt"
    save_snapshot(build_scenario(parse_config(base_config())), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "grid 65 8" and lines[2] == "frame comoving"
    edited = list(lines)
    SNAPSHOT_EDITS[edit](edited)
    assert edited != lines
    path.write_text("\n".join(edited) + "\n")
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


def test_snapshot_refuses_committed_v1_file():
    v1 = Path(__file__).resolve().parent / "data" / "snapshot_v1_n17.txt"
    with pytest.raises(SnapshotError, match="version 1 not supported"):
        load_snapshot(v1)


def test_snapshot_refuses_committed_v2_file():
    # format 2 stored the Ricci potential and its slope, which format 3
    # derives from u~
    v2 = Path(__file__).resolve().parent / "data" / "snapshot_v2_n17.txt"
    with pytest.raises(SnapshotError, match="snapshot version 2 not supported"):
        load_snapshot(v2)


def test_snapshot_refuses_committed_v3_file():
    # format 3 stored acc_u_fixed, which format 4 derives from u~
    v3 = Path(__file__).resolve().parent / "data" / "snapshot_v3_n17.txt"
    with pytest.raises(SnapshotError, match="snapshot version 3 not supported"):
        load_snapshot(v3)


def test_snapshot_refuses_committed_v4_file():
    # format 4 stored u~0 next to log u0 and three hypothesis values, which
    # format 5 derives from log u0 and its slope
    v4 = Path(__file__).resolve().parent / "data" / "snapshot_v4_n17.txt"
    with pytest.raises(SnapshotError, match="snapshot version 4 not supported"):
        load_snapshot(v4)


def test_readme_names_the_snapshot_format():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert re.findall(r"Snapshots \(format (\w+)\)", readme) == [snapshots.FORMAT_VERSION]


def test_snapshot_docstring_lists_the_format():
    # the module docstring's format block is the written statement of the
    # layout: its version, scalars and arrays are the code's, in file order
    doc = snapshots.__doc__
    assert re.findall(r"^    cigarflow-snapshot (\w+)$", doc, re.M) == [snapshots.FORMAT_VERSION]
    assert tuple(re.findall(r"^    scalar (\w+) ", doc, re.M)) == snapshots._SCALARS
    assert tuple(re.findall(r"^    array (\w+) ", doc, re.M)) == snapshots._ARRAYS


def test_snapshot_refuses_a_grid_above_max_nodes(tmp_path):
    # enough lines to pass the truncation check, so RadialGrid itself refuses
    # the grid line, before any spline of that size is formed
    path = tmp_path / "snap.txt"
    save_snapshot(build_scenario(parse_config(base_config())), path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = "grid 8193 8"
    path.write_text(_sealed(lines + ["0"] * 8193))
    with pytest.raises(SnapshotError, match="16 to 4097 nodes, got 8193"):
        load_snapshot(path)


def test_snapshot_refuses_a_grid_below_min_s_max(tmp_path):
    # a valid checksum over a grid line whose spacing would underflow the
    # stencil denominators: refused without a divide-by-zero warning
    path = tmp_path / "snap.txt"
    save_snapshot(build_scenario(parse_config(base_config(
        grid={"kind": "radial", "n": 17, "s_max": 8.0}))), path)
    lines = path.read_text().splitlines()[:-1]
    lines[1] = "grid 17 1e-300"
    path.write_text(_sealed(lines))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SnapshotError, match="s_max must be in"):
            load_snapshot(path)


def test_snapshot_refuses_sealed_extra_line(tmp_path):
    # an extra line under a valid checksum is refused by the parser itself
    path = tmp_path / "snap.txt"
    save_snapshot(build_scenario(parse_config(base_config())), path)
    lines = path.read_text().splitlines()[:-1]
    path.write_text(_sealed(lines + ["0.5"]))
    with pytest.raises(SnapshotError, match="unexpected line"):
        load_snapshot(path)
    path.write_text(_sealed(lines))
    load_snapshot(path)


def test_snapshot_version_check(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("cigarflow-snapshot 99\n")
    with pytest.raises(SnapshotError, match="version"):
        load_snapshot(path)
    path.write_text("something else\n")
    with pytest.raises(SnapshotError):
        load_snapshot(path)


@pytest.mark.parametrize("line, text", [
    (1, ""),
    (1, "grid"),
    (1, "grid radial"),
    (1, "grid radial 65 abc"),
    (1, "grid radial 100000 8.0"),
    (1, "grid cartesian 65 8.0"),
    (1, "grid 65 abc"),
    (1, "grid 100000 8.0"),
    (1, "grid 65 -8.0"),
    (2, ""),
    (2, "frame"),
    (2, "frame sideways"),
    (3, "scalar t"),
    (10, "array u_tilde 64"),
    (11, "not-a-number"),
    (-1, ""),
    (-1, "checksum"),
    (40, None),   # None cuts the file at that line
    (-1, None),
])
def test_snapshot_malformed_lines_raise_snapshot_error(tmp_path, line, text):
    path = tmp_path / "snap.txt"
    save_snapshot(build_scenario(parse_config(base_config())), path)
    body = path.read_text().splitlines()[:-1]
    if line == -1:  # the checksum line itself, edited as it stands
        path.write_text("\n".join(body + ([] if text is None else [text])) + "\n")
    else:  # a body line under a fresh checksum: the parser must refuse it
        if text is None:
            del body[line:]
        else:
            body[line] = text
        path.write_text(_sealed(body))
    with pytest.raises(SnapshotError):
        load_snapshot(path)


def test_resume_matches_unbroken_run(tmp_path):
    cfg = parse_config(base_config(stepping={"safety": 0.9, "t_end": 1.0,
                                             "record_interval": 0.1}))
    snap_path = tmp_path / "half.txt"

    def hook(state):
        save_snapshot(state, snap_path)

    unbroken = run_scenario(cfg, snapshot_times=(0.5,), snapshot_hook=hook)
    resumed_state = load_snapshot(snap_path)
    resumed = flow.run(resumed_state, 1.0, safety=0.9, record_interval=0.1)

    # bit for bit: every CSV column, v_discrepancy and sup_log_u of each
    # record, and the Kahler and profile-distance traces from t = 0.5 on
    def bits(rec):
        return [np.float64(getattr(rec, name)).tobytes()
                for name in CSV_COLUMNS + ["v_discrepancy", "sup_log_u"]]

    tail = [rec for rec in unbroken.records if rec.t >= 0.5 - 1e-12]
    assert len(tail) == len(resumed.records) == 6
    for a, b in zip(tail, resumed.records):
        assert bits(a) == bits(b), a.t
    for trace in ("kahler_trace", "dist_trace"):
        assert getattr(unbroken, trace)[-len(tail):] == getattr(resumed, trace), trace


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(
        output={"directory": str(tmp_path / "out"), "snapshot_interval": 0.1},
    ))
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "diagnostics.csv").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "snapshot_final.txt").exists()
    assert (out_dir / "snapshot_t0.000000.txt").exists()
    assert cli.main(["report", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "max w drift" in text
    summary = json.loads((out_dir / "summary.json").read_text())
    # res_poisson0 is the t = 0 record's residual, bit for bit
    first = read_diagnostics(out_dir / "diagnostics.csv")[0]
    assert first.t == 0.0
    assert summary["hypothesis"]["res_poisson0"] == first.res_poisson
    telemetry = summary["telemetry"]
    assert set(telemetry) == {"steps", "clipped_steps", "stages"}
    assert (f"steps: {telemetry['steps']} accepted, {telemetry['clipped_steps']} clipped"
            in text)


def test_cli_run_never_opens_its_outputs_with_truncation(tmp_path, monkeypatch):
    # diagnostics.csv and summary.json are written over their old bytes, as
    # snapshots are: every open of either reaches os.open without O_TRUNC,
    # into a new directory and again over the files the first run left
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config())
    targets = {out / "diagnostics.csv", out / "summary.json"}
    calls = []
    real_os_open, real_open, real_io_open = os.open, builtins.open, io.open

    def os_open(path, flags, *args, **kwargs):
        calls.append(("os.open", path, flags))
        return real_os_open(path, flags, *args, **kwargs)

    def spy(name, real):
        def open_(file, mode="r", *args, **kwargs):
            calls.append((name, file, "w" in mode and kwargs.get("opener") is None))
            return real(file, mode, *args, **kwargs)
        return open_

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", spy("open", real_open))
    monkeypatch.setattr(io, "open", spy("io.open", real_io_open))
    for _ in range(2):
        assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(out)]) == 0
    monkeypatch.undo()

    on_targets = [call for call in calls
                  if not isinstance(call[1], int) and Path(call[1]) in targets]
    os_flags = [flags for name, _, flags in on_targets if name == "os.open"]
    assert len(os_flags) == 4, calls
    assert not any(flags & os.O_TRUNC for flags in os_flags)
    assert not any(truncates for name, _, truncates in on_targets if name != "os.open")
    assert read_diagnostics(out / "diagnostics.csv")[-1].t == 0.2
    assert json.loads((out / "summary.json").read_text())["t_final"] == 0.2


def test_cli_run_over_longer_outputs_writes_a_fresh_run(tmp_path):
    # a re-run into a directory whose diagnostics.csv and summary.json are
    # longer than the new ones (another config's, here) leaves exactly the
    # bytes of a run into a new directory: each file is cut to its length
    cfg_path = write_config(tmp_path, base_config())
    fresh, over = tmp_path / "fresh", tmp_path / "over"
    longer = write_config(tmp_path, base_config(stepping={
        "safety": 0.9, "t_end": 0.5, "record_interval": 0.01}), "longer.json")
    assert cli.main(["run", str(longer), "--quiet", "--out", str(over)]) == 0
    assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(fresh)]) == 0
    names = ("diagnostics.csv", "summary.json")
    old_sizes = [(over / name).stat().st_size for name in names]
    assert all(old > (fresh / name).stat().st_size for old, name in zip(old_sizes, names))
    assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(over)]) == 0
    for name in names:
        assert (over / name).read_bytes() == (fresh / name).read_bytes(), name


@pytest.mark.parametrize("missing", [*cli._SUMMARY_KEYS, "summary.json"])
def test_cli_report_refuses_a_summary_without_a_key_run_writes(tmp_path, capsys, missing):
    # report reads what run writes and nothing else: a summary without one
    # of its keys (as ones written before runs counted their steps or traced
    # Q, log L, v and log u were), or no summary at all, is malformed
    cfg_path = write_config(tmp_path, base_config(output={"directory": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
    summary_path = tmp_path / "out" / "summary.json"
    summary = json.loads(summary_path.read_text())
    assert tuple(summary) == cli._SUMMARY_KEYS
    if missing == "summary.json":
        summary_path.unlink()
    else:
        del summary[missing]
        summary_path.write_text(json.dumps(summary))
    capsys.readouterr()
    assert cli.main(["report", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed run directory")
    if missing == "summary.json":
        assert "No such file or directory" in err and err.endswith("summary.json'\n")
    else:
        assert err.endswith(f": summary.json lacks {missing}\n")


def test_cli_summary_traces_q_log_scale_and_the_fixed_edge(tmp_path, capsys):
    # one entry per record: Q - 4 from the record's sup_R and cinf_est, the
    # run's log L, the outermost fixed node's co-moving position
    # arcsinh(sinh s_max / L), and the records' v_discrepancy and sup log u;
    # the report prints their ends, the largest v_discrepancy and the
    # largest rise of sup log u
    cfg_path = write_config(tmp_path, base_config(output={"directory": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
    out_dir = tmp_path / "out"
    records = read_diagnostics(out_dir / "diagnostics.csv")
    summary = json.loads((out_dir / "summary.json").read_text())
    q, scale, edge = (summary[key] for key in ("q_minus_4_trace", "log_scale_trace",
                                               "fixed_edge_trace"))
    assert [t for t, _ in q] == [t for t, _ in scale] == [t for t, _ in edge] == [
        rec.t for rec in records]
    assert [v for _, v in q] == [cigar_number(rec.sup_R, rec.cinf_est) - 4.0 for rec in records]
    assert scale[0] == [0.0, 0.0] and scale[-1][1] > 0.0
    assert [a for _, a in edge] == [float(np.arcsinh(np.sinh(8.0) * np.exp(-log_scale)))
                                    for _, log_scale in scale]
    # the same run in process carries both values on its records; on the
    # exact cigar log u = 0, so sup log u stays at the scheme's error
    in_process = run_scenario(parse_config(base_config())).records
    v_disc, log_u = summary["v_discrepancy_trace"], summary["sup_log_u_trace"]
    assert v_disc == [[rec.t, rec.v_discrepancy] for rec in in_process]
    assert log_u == [[rec.t, rec.sup_log_u] for rec in in_process]
    assert v_disc[0] == [0.0, 0.0] and abs(log_u[0][1]) <= 1e-14
    assert max(abs(v) for _, v in log_u) <= 1e-3
    capsys.readouterr()
    assert cli.main(["report", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert f"Q - 4, Q = sup R (C_inf / 2 pi)^2 (0 on every cigar): {q[0][1]:.6e} at t=0" in text
    assert f"log L: 0 at t=0 -> {scale[-1][1]:.6g} at t={scale[-1][0]:g}" in text
    assert "never below 2h" in text
    assert f"max v discrepancy (evolved v(origin) against -int R(origin)): " \
           f"{max(v for _, v in v_disc):.6e}" in text
    rise = max(b - a for (_, a), (_, b) in zip(log_u, log_u[1:]))
    assert f"co-moving sup log u: {log_u[0][1]:.6e} at t=0 -> {log_u[-1][1]:.6e} at " \
           f"t={log_u[-1][0]:g}; largest rise between records {rise:.3e}" in text


def test_cli_report_shows_when_the_fixed_nodes_reach_the_tip(capsys):
    # on the shipped run the outermost fixed node comes within 2h = 0.125 of
    # the co-moving tip at t = 5 (a = 0.101)
    assert cli.main(["report", str(Path(__file__).resolve().parent.parent / "runs"
                                   / "perturbed_relax_129")]) == 0
    text = capsys.readouterr().out
    assert "at co-moving a = 0.10135 at t=5; below 2h from t=5 on" in text


def test_cli_run_instability_exit_code(tmp_path, overdrive):
    cfg_path = write_config(tmp_path, base_config(
        stepping={"safety": 0.9, "t_end": 0.5, "record_interval": 0.1},
        output={"directory": str(tmp_path / "boom")},
    ))
    with overdrive():
        assert cli.main(["run", str(cfg_path), "--quiet"]) == 3
    # the partial diagnostics still carry the last good records and parse back
    records = read_diagnostics(tmp_path / "boom" / "diagnostics.csv")
    assert records and records[0].finite
    summary = json.loads((tmp_path / "boom" / "summary.json").read_text())
    assert summary["aborted"] and "unstable" in summary["abort_message"]


def test_cli_run_custom_table(tmp_path):
    values = list(0.05 * np.exp(-np.linspace(0.0, 8.0, 65)))
    cfg_path = write_config(tmp_path, base_config(
        initial={"type": "custom_table", "log_u0": values},
        output={"directory": str(tmp_path / "table")},
    ))
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
    summary = json.loads((tmp_path / "table" / "summary.json").read_text())
    assert summary["hypothesis"]["sup_log_u0"] == pytest.approx(0.05, rel=1e-9)


def test_cli_verify_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["verify", str(cfg_path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_converge(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(
        grid={"kind": "radial", "n": 65, "s_max": 8.0},
        stepping={"safety": 0.9, "t_end": 0.25, "record_interval": 0.25},
    ))
    assert cli.main(["converge", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "least-squares order" in out
    slope = float(out.rsplit("least-squares order:", 1)[1].strip())
    assert 1.8 <= slope <= 2.2


def test_cli_converge_exits_3_on_an_aborted_level(tmp_path, capsys, overdrive):
    # overdriven steps are unstable: the first level aborts (at t = 0.5), and
    # no error or order is printed from a run that never reached t_end
    cfg_path = write_config(tmp_path, base_config(
        stepping={"safety": 0.9, "t_end": 1.0, "record_interval": 0.5}))
    with overdrive():
        assert cli.main(["converge", str(cfg_path)]) == 3
    captured = capsys.readouterr()
    assert "aborted at level n=33" in captured.err
    assert "order" not in captured.out and "max|u~" not in captured.out


def test_verify_fails_conservation_when_the_companion_run_aborts(monkeypatch, overdrive):
    # the scenario itself runs; its companion cigar-data run is overdriven
    real = scenarios.manufactured_solution_error

    def overdriven(*args, **kwargs):
        with overdrive():
            return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "manufactured_solution_error", overdriven)
    report = verify_scenario(parse_config(base_config(
        initial={"type": "scaled_cigar", "scale": 2.0})))
    assert not report.result.aborted and not report.ok
    name, passed, detail = report.checks[1]
    assert name == "conservation of w" and not passed
    assert detail.startswith("companion cigar-data run aborted: sup u~ rose")


@pytest.mark.parametrize("n, s_max, message", [
    # n = 65 has h = 1.5625, but the study's n = 33 level has h = 3.125 > sqrt 5
    (65, 100.0, "sqrt(5)"),
    # n = 17 is a valid grid, but the study's n = 9 level has fewer than 16
    # nodes: refused, not replaced by a second run at n = 17
    (17, 8.0, "at least 16"),
], ids=["spacing", "nodes"])
def test_cli_converge_refuses_a_coarse_level_above_the_spacing_limit(tmp_path, capsys, n,
                                                                     s_max, message):
    cfg_path = write_config(tmp_path, base_config(grid={"kind": "radial", "n": n,
                                                        "s_max": s_max}))
    assert cli.main(["converge", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "max|u~ - exact|" not in captured.out  # refused before any level runs


def test_cli_converge_refuses_a_fine_level_above_max_nodes(tmp_path, capsys, monkeypatch):
    # n = 4097 is a valid grid, but the study's n = 8193 level is not: refused
    # before the n = 2049 and 4097 levels run (a run would fail this test)
    def never(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(cli, "manufactured_solution_error", never)
    cfg_path = write_config(tmp_path, base_config(grid={"kind": "radial", "n": 4097,
                                                        "s_max": 8.0}))
    assert cli.main(["converge", str(cfg_path)]) == 2
    assert "at most 4097, got 8193" in capsys.readouterr().err


def test_cli_converge_requires_exact_family(tmp_path):
    cfg_path = write_config(tmp_path, base_config(
        initial={"type": "scaled_cigar", "scale": 2.0}))
    assert cli.main(["converge", str(cfg_path)]) == 2


def test_cli_usage_errors(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.json"), "--quiet"]) == 2
    assert cli.main(["run", str(tmp_path), "--quiet"]) == 2  # a directory
    bad = write_config(tmp_path, {"name": "x"})
    assert cli.main(["run", str(bad), "--quiet"]) == 2
    assert cli.main(["report", str(tmp_path / "nowhere")]) == 2
    good = write_config(tmp_path, base_config(), name="good.json")
    assert cli.main(["verify", str(good), "--quiet"]) == 2
    assert cli.main(["converge", str(good), "--quiet"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["oracle"]) == 2


def test_cli_docstring_lists_the_command_line():
    # the usage block of the module docstring is the written statement of
    # the command line: each subcommand there names exactly the options, and
    # as many arguments, as build_parser() accepts
    usage = {}
    for line in cli.__doc__.splitlines():
        words = line.split()
        if words[:1] == ["cigarflow"]:
            usage[words[1]] = (len(re.findall(r"<[^>]+>", line)),
                               set(re.findall(r"--[\w-]+", line)))
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    accepted = {name: (sum(not action.option_strings for action in parser._actions),
                       {option for action in parser._actions for option in action.option_strings
                        if option.startswith("--") and option != "--help"})
                for name, parser in commands.choices.items()}
    assert usage == accepted


# a summary_text that is a JSON object replaces those keys of the run's own
# summary, so that each reaches its own check; any other text is the file
@pytest.mark.parametrize("csv_text, summary_text", [
    (",".join(CSV_COLUMNS) + "\n", None),                       # header only
    ("", None),                                                  # empty file
    ("t,dt\n0.0,0.1\n", None),                                 # wrong header
    (None, "{not json"),
    (None, "[1, 2]"),                                            # not an object
    (None, '{"dist_trace": [[0.0, "far"]]}'),
    (None, '{"kahler_trace": 3}'),
    (None, '{"telemetry": [252]}'),
    (None, '{"q_minus_4_trace": [[0.0, "far"]]}'),
    (None, '{"log_scale_trace": 3}'),
    # one pair for the run's three records
    (None, '{"fixed_edge_trace": [[0.0, 1.0]]}'),
    (None, '{"fixed_edge_trace": [[0.0, 1.0]], "config": {"grid": {"n": 1, "s_max": 8}}}'),
    (None, '{"dist_trace": []}'),
    # only a profile distance may be null
    (None, '{"kahler_trace": [[0.0, null], [0.1, 0.0], [0.2, 0.0]]}'),
    (None, '{"telemetry": {"steps": 252.0, "clipped_steps": 20, "stages": 1761, '
           '"probe_stages": 84}}'),
    # the count that runs wrote while each record took curvature-probe steps
    (None, '{"telemetry": {"steps": 3, "clipped_steps": 1, "stages": 12, "probe_stages": 4}}'),
    (None, '{"telemetry": {"steps": 3, "clipped_steps": 1}}'),
    # no grid to take the spacing h from
    (None, '{"config": {}}'),
    (None, '{"config": {"grid": {"n": 1, "s_max": 8}}}'),
])
def test_cli_report_on_a_malformed_run_dir_exits_2(tmp_path, capsys, csv_text,
                                                   summary_text):
    cfg_path = write_config(tmp_path, base_config(output={"directory": str(tmp_path / "out")}))
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 0
    out_dir = tmp_path / "out"
    if csv_text is not None:
        (out_dir / "diagnostics.csv").write_text(csv_text)
    patch = None
    if summary_text is not None:
        try:
            patch = json.loads(summary_text)
        except ValueError:
            pass
        if isinstance(patch, dict):
            summary = json.loads((out_dir / "summary.json").read_text())
            summary_text = json.dumps({**summary, **patch})
        (out_dir / "summary.json").write_text(summary_text)
    capsys.readouterr()
    assert cli.main(["report", str(out_dir)]) == 2
    prefix, _, message = capsys.readouterr().err.partition(f"{out_dir}: ")
    assert prefix == "error: malformed run directory "
    if isinstance(patch, dict):
        assert any(key in message for key in patch), message


@pytest.mark.parametrize("row", ["0.0,0.1", "0.0," * 12 + "0.0", "x" + ",0.0" * 11])
def test_read_diagnostics_refuses_malformed_rows(tmp_path, row):
    path = tmp_path / "diagnostics.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
    with pytest.raises(ValueError):
        read_diagnostics(path)


def test_cli_run_output_failures_exit_3(tmp_path, capsys):
    existing = tmp_path / "a_file"
    existing.write_text("")
    cfg_path = write_config(tmp_path, base_config(
        output={"directory": str(tmp_path / "out"), "snapshot_interval": 0.1}))
    assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(existing)]) == 3
    assert "error: failed to write outputs" in capsys.readouterr().err
    # a snapshot path that is a directory fails mid-run, after t = 0
    (tmp_path / "out" / "snapshot_t0.100000.txt").mkdir(parents=True)
    assert cli.main(["run", str(cfg_path), "--quiet"]) == 3
    assert "error: failed to write outputs" in capsys.readouterr().err
    assert (tmp_path / "out" / "snapshot_t0.000000.txt").exists()


def test_cli_run_unwritable_out_exits_3_before_any_step(tmp_path, monkeypatch, capsys):
    # with no snapshot_interval the first file is diagnostics.csv, written
    # after the last step: the output directory is made before the first
    existing = tmp_path / "a_file"
    existing.write_text("")
    steps = []
    real_step = flow.step
    monkeypatch.setattr(flow, "step", lambda *a, **k: steps.append(1) or real_step(*a, **k))
    cfg_path = write_config(tmp_path, base_config())
    assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(existing)]) == 3
    assert "error: failed to write outputs" in capsys.readouterr().err
    assert steps == []
    assert cli.main(["run", str(cfg_path), "--quiet", "--out", str(tmp_path / "out")]) == 0
    assert steps


def test_cli_a_scenario_build_a_step_and_a_map_leave_scipy_unimported(config_dir):
    # importing scipy costs more than numpy and the program together, and
    # src/ needs none of it: the spline's solve is its own
    code = (
        "import sys\n"
        "import cigarflow.cli\n"
        "from cigarflow import flow, scenarios\n"
        "config = scenarios.load_config(sys.argv[1])\n"
        "state = scenarios.build_scenario(config)\n"
        "state = flow.step(state, flow.adaptive_dt(state))\n"
        "assert state.frame == flow.COMOVING and state.log_scale != 0.0\n"
        "flow.map_to_fixed(state)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(config_dir / "perturbed_relax_129.json")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point():
    proc = _run_cli(["report", "runs/perturbed_relax_129"],
                    cwd=Path(__file__).resolve().parent.parent)
    assert proc.returncode == 0, proc.stderr
    assert "run: perturbed_relax_129" in proc.stdout


def test_shipped_configs_verify(shipped_reports):
    for name, report in shipped_reports.items():
        assert report.ok, f"{name}: " + "; ".join(
            f"{n}: {d}" for n, passed, d in report.checks if not passed
        )


def test_shipped_perturbed_run_matches_committed_reference(shipped_reports, config_dir,
                                                          tmp_path):
    # the run under `verify` takes the same steps as `cigarflow run`: the
    # latter's snapshot times 0, 2.5 and 5 are all record times already
    result = shipped_reports["perturbed_relax_129"].result
    reference = config_dir.parent / "runs" / "perturbed_relax_129"
    buf = io.StringIO()
    emit_diagnostics(result.records, buf)
    assert buf.getvalue().encode() == (reference / "diagnostics.csv").read_bytes()
    save_snapshot(result.final_state, tmp_path / "final.txt")
    assert (tmp_path / "final.txt").read_bytes() == (reference / "snapshot_final.txt").read_bytes()


def test_cli_run_reproduces_every_committed_file(config_dir, tmp_path):
    # all six files of the committed run, byte for byte: the CSV, the
    # snapshots at t = 0, 2.5 and 5 with their fixed-node accumulators, the
    # final snapshot and summary.json with its traces
    _assert_run_reproduces_the_committed_files(config_dir, tmp_path / "out")


def test_cli_run_over_longer_files_reproduces_every_committed_file(config_dir, tmp_path):
    # a run into a directory that holds longer files under the output names,
    # as a re-run does: every snapshot is written over its old bytes and cut
    # to length, so all six files come out as the committed ones
    out = tmp_path / "out"
    out.mkdir()
    rng = np.random.default_rng(1)
    for path in (config_dir.parent / "runs" / "perturbed_relax_129").iterdir():
        size = path.stat().st_size + 10_000
        (out / path.name).write_bytes(rng.integers(0, 256, size, np.uint8).tobytes())
    _assert_run_reproduces_the_committed_files(config_dir, out)


def _assert_run_reproduces_the_committed_files(config_dir, out):
    reference = config_dir.parent / "runs" / "perturbed_relax_129"
    assert cli.main(["run", str(config_dir / "perturbed_relax_129.json"), "--quiet",
                     "--out", str(out)]) == 0
    names = sorted(path.name for path in reference.iterdir())
    assert len(names) == 6 and sorted(path.name for path in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


def test_cli_run_bytes_do_not_depend_on_the_blas_thread_count(config_dir, tmp_path):
    # the slope solve and every RKC2 stage are BLAS products: the shipped
    # run writes the same six files with BLAS on one thread and on two
    outs = []
    for threads in ("1", "2"):
        outs.append(tmp_path / f"threads_{threads}")
        proc = _run_cli(
            ["run", str(config_dir / "perturbed_relax_129.json"), "--quiet", "--out", str(outs[-1])],
            timeout=120, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(path.name for path in outs[0].iterdir())
    assert len(names) == 6 and sorted(path.name for path in outs[1].iterdir()) == names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_shipped_configs_initial_potential_residual(config_dir):
    # the discrete Poisson solve round-trips through the operator on every
    # shipped scenario
    for fname in ("soliton_radial_129.json", "scaled_cigar_129.json",
                  "perturbed_relax_129.json", "flat_radial_65.json"):
        state = build_scenario(load_config(config_dir / fname))
        assert flow.monitor(state).res_poisson <= 1e-10, fname
