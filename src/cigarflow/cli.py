"""Command-line driver.

    cigarflow run <config.json> [--out DIR] [--quiet]
    cigarflow verify <config.json>
    cigarflow converge <config.json>
    cigarflow report <run-dir>

`report` reads what `run` writes and nothing else: a run directory whose
`diagnostics.csv` has no records, or whose `summary.json` is missing, lacks
a key `run` writes or holds a value of another shape, is malformed.

Exit codes: 0 success, 1 invariant violation, 2 usage/config error (or a
malformed run directory given to `report`), 3 numerical abort (or output
I/O failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from cigarflow.diagnostics import cigar_number, emit_diagnostics, read_diagnostics
from cigarflow.flow import RunTelemetry
from cigarflow.scenarios import (
    ConfigError,
    build_scenario,
    check_grid,
    load_config,
    manufactured_solution_error,
    run_scenario,
    verify_scenario,
)
from cigarflow.snapshots import open_in_place, save_snapshot

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _progress_printer(quiet):
    if quiet:
        return None

    def show(rec):
        print(
            f"  t={rec.t:<8g} dt={rec.dt:.3e} sup_R={rec.sup_R:.4f} "
            f"w_drift={rec.w_drift:.2e} sup_h={rec.sup_h:.4e} width={rec.width_bound:.5f}",
            file=sys.stderr,
        )

    return show


def _snapshot_times(config):
    if config.snapshot_interval is None:
        return []
    k = 1
    times = [0.0]
    while k * config.snapshot_interval <= config.t_end + 1e-12:
        times.append(round(k * config.snapshot_interval, 12))
        k += 1
    return times


def _snapshot_name(t):
    return f"snapshot_t{t:.6f}.txt"


def cmd_run(args):
    config = load_config(args.config)
    out_dir = Path(args.out or config.output_directory or f"runs/{config.name}")
    times = _snapshot_times(config)
    if len({_snapshot_name(t) for t in times}) < len(times):
        raise ConfigError(
            f"snapshot_interval {config.snapshot_interval}: two snapshot times "
            "share one file name (the time to 6 decimals)"
        )

    def snapshot_hook(state):
        save_snapshot(state, out_dir / _snapshot_name(state.t))

    if not args.quiet:
        print(f"running scenario {config.name!r} to t={config.t_end}", file=sys.stderr)
    # a refused scenario (exit 2) makes no directory, and a directory that
    # cannot be made (exit 3) fails before the first step
    state = build_scenario(config)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result = run_scenario(
            config,
            snapshot_times=times,
            snapshot_hook=snapshot_hook if times else None,
            progress=_progress_printer(args.quiet),
            state=state,
        )
        # both files are written over their old bytes, as snapshots are
        with open(out_dir / "diagnostics.csv", "w", opener=open_in_place) as fh:
            emit_diagnostics(result.records, fh)
            fh.truncate()
        save_snapshot(result.final_state, out_dir / "snapshot_final.txt")
        # the outermost fixed node's co-moving position a(r_max) =
        # arcsinh(sinh s_max / L): once it is within 2h of the tip, the
        # fixed-frame columns sample one spline piece there
        r_max = result.final_state.grid.r[-1]
        summary = {
            "name": config.name,
            "t_final": result.final_state.t,
            "aborted": result.aborted,
            "abort_message": result.abort_message,
            "profile_distance_final": result.dist_trace[-1][1],
            "dist_trace": result.dist_trace,
            "kahler_trace": result.kahler_trace,
            "q_minus_4_trace": [(rec.t, cigar_number(rec.sup_R, rec.cinf_est) - 4.0)
                                for rec in result.records],
            "log_scale_trace": result.scale_trace,
            "fixed_edge_trace": [(t, float(np.arcsinh(r_max * np.exp(-log_scale))))
                                 for t, log_scale in result.scale_trace],
            "v_discrepancy_trace": [(rec.t, rec.v_discrepancy) for rec in result.records],
            "sup_log_u_trace": [(rec.t, rec.sup_log_u) for rec in result.records],
            "telemetry": asdict(result.telemetry),
            "hypothesis": {
                "sup_log_u0": result.final_state.init.sup_log_u0,
                "sup_grad_log_u0": result.final_state.init.sup_grad_log_u0,
                "sup_potential_gap": result.final_state.init.sup_potential_gap,
                "res_poisson0": result.records[0].res_poisson,
            },
            "config": config.raw,
        }
        with open(out_dir / "summary.json", "w", opener=open_in_place) as fh:
            json.dump(summary, fh, indent=2)
            fh.truncate()
    except OSError as err:
        print(f"error: failed to write outputs: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    if result.aborted:
        print(f"aborted: {result.abort_message}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not args.quiet:
        print(f"wrote {out_dir}/diagnostics.csv ({len(result.records)} records)", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    config = load_config(args.config)
    report = verify_scenario(config)
    for line in report.lines():
        print(line)
    if report.result.aborted:
        return EXIT_NUMERICAL
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_converge(args):
    config = load_config(args.config)
    if config.initial["type"] != "exact_cigar":
        print(
            "error: converge needs an exact_cigar config (the exact family "
            "is the reference solution)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    n = int(config.grid["n"])
    s_max = float(config.grid["s_max"])
    # a level the config rules refuse (too few or too many nodes, or a
    # spacing above sqrt 5) is a config error before any level runs
    levels = [(n - 1) // 2 + 1, n, 2 * (n - 1) + 1]
    for nn in levels:
        check_grid(nn, s_max)
    errors = []
    print(f"refinement study on [0, {s_max}] to t={config.t_end} (safety {config.safety}):")
    for nn in levels:
        err, result = manufactured_solution_error(nn, s_max, config.safety, config.t_end)
        if result.aborted:
            print(f"aborted at level n={nn}: {result.abort_message}", file=sys.stderr)
            return EXIT_NUMERICAL
        errors.append(err)
        print(f"  n={nn:5d}  h={s_max/(nn-1):.5f}  max|u~ - exact| = {err:.6e}")
    orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
    for (na, nb), order in zip(zip(levels, levels[1:]), orders):
        print(f"  observed order ({na} -> {nb}): {order:.3f}")
    slope = float(np.polyfit(np.log([s_max / (nn - 1) for nn in levels]), np.log(errors), 1)[0])
    print(f"  least-squares order: {slope:.3f}")
    return EXIT_OK


_TELEMETRY_KEYS = tuple(f.name for f in fields(RunTelemetry))
_TRACE_KEYS = ("dist_trace", "kahler_trace", "q_minus_4_trace", "log_scale_trace",
               "fixed_edge_trace", "v_discrepancy_trace", "sup_log_u_trace")
# every key of the summary `cmd_run` writes, in its order
_SUMMARY_KEYS = ("name", "t_final", "aborted", "abort_message", "profile_distance_final",
                 *_TRACE_KEYS, "telemetry", "hypothesis", "config")


def _read_run_dir(run_dir):
    """Records, summary, its (t, value) traces and the grid spacing h of a
    run directory as `cmd_run` writes it; OSError or ValueError if it is not
    one.  Each trace holds one pair per record; only a profile distance may
    be null (its window out of reach), and its trace leaves those out."""
    records = read_diagnostics(run_dir / "diagnostics.csv")
    if not records:
        raise ValueError("diagnostics.csv has no records")
    summary = json.loads((run_dir / "summary.json").read_text())
    if not isinstance(summary, dict):
        raise ValueError("summary.json is not a JSON object")
    missing = [key for key in _SUMMARY_KEYS if key not in summary]
    if missing:
        raise ValueError(f"summary.json lacks {', '.join(missing)}")
    traces = {}
    for key in _TRACE_KEYS:
        try:
            pairs = [(float(t), v if v is None and key == "dist_trace" else float(v))
                     for t, v in summary[key]]
        except (TypeError, ValueError) as err:
            raise ValueError(f"summary.json {key} is not a list of [t, value] pairs") from err
        if len(pairs) != len(records):
            raise ValueError(f"summary.json {key} has {len(pairs)} pairs for "
                             f"{len(records)} records")
        traces[key] = [(t, v) for t, v in pairs if v is not None]
    telemetry = summary["telemetry"]
    if not (isinstance(telemetry, dict) and set(telemetry) == set(_TELEMETRY_KEYS)
            and all(type(count) is int for count in telemetry.values())):
        raise ValueError(f"summary.json telemetry is not an object of the counts {_TELEMETRY_KEYS}")
    try:
        grid = summary["config"]["grid"]
        spacing = float(grid["s_max"]) / (int(grid["n"]) - 1)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise ValueError("summary.json config has no grid") from err
    return records, summary, traces, spacing


def cmd_report(args):
    run_dir = Path(args.run_dir)
    csv_path = run_dir / "diagnostics.csv"
    if not csv_path.exists():
        print(f"error: {csv_path} not found", file=sys.stderr)
        return EXIT_USAGE
    try:
        records, summary, traces, spacing = _read_run_dir(run_dir)
    except (OSError, ValueError) as err:
        print(f"error: malformed run directory {run_dir}: {err}", file=sys.stderr)
        return EXIT_USAGE

    print(f"run: {summary['name']}")
    print(f"  records: {len(records)}, t in [{records[0].t:g}, {records[-1].t:g}]")
    if summary["aborted"]:
        print(f"  ABORTED: {summary['abort_message']}")
    dist = traces["dist_trace"]
    if dist:
        print(f"  profile distance to cigar: {dist[0][1]:.6e} at t={dist[0][0]:g} "
              f"-> {dist[-1][1]:.6e} at t={dist[-1][0]:g}")
    kah = traces["kahler_trace"]
    print(f"  Kahler reconstruction residual at t={kah[-1][0]:g}: {kah[-1][1]:.6e}")
    q = traces["q_minus_4_trace"]
    print(f"  Q - 4, Q = sup R (C_inf / 2 pi)^2 (0 on every cigar): {q[0][1]:.6e} at "
          f"t={q[0][0]:g} -> {q[-1][1]:.6e} at t={q[-1][0]:g}")
    scale = traces["log_scale_trace"]
    print(f"  log L: {scale[0][1]:.6g} at t={scale[0][0]:g} -> {scale[-1][1]:.6g} at "
          f"t={scale[-1][0]:g}")
    edge = traces["fixed_edge_trace"]
    tip_only = next((t for t, a in edge if a < 2.0 * spacing), None)
    where = (f"below 2h from t={tip_only:g} on (the fixed-frame columns then see only "
             f"the tip)" if tip_only is not None else "never below 2h")
    print(f"  outermost fixed node at co-moving a = {edge[-1][1]:.6g} at t={edge[-1][0]:g}; "
          f"{where}")
    v_disc = traces["v_discrepancy_trace"]
    print(f"  max v discrepancy (evolved v(origin) against -int R(origin)): "
          f"{max(v for _, v in v_disc):.6e}")
    log_u = traces["sup_log_u_trace"]
    rise = max((b - a for (_, a), (_, b) in zip(log_u, log_u[1:])), default=0.0)
    print(f"  co-moving sup log u: {log_u[0][1]:.6e} at t={log_u[0][0]:g} -> "
          f"{log_u[-1][1]:.6e} at t={log_u[-1][0]:g}; largest rise between records "
          f"{rise:.3e}")
    tel = summary["telemetry"]
    print(f"  steps: {tel['steps']} accepted, {tel['clipped_steps']} clipped to an event "
          f"time; RKC2 stages: {tel['stages']}")
    drift = max(rec.w_drift for rec in records)
    print(f"  max w drift: {drift:.6e}")
    print(f"  width bound: {records[0].width_bound:.6f} -> {records[-1].width_bound:.6f}")
    print(f"  sup h: {records[0].sup_h:.6e} -> {records[-1].sup_h:.6e}")
    print(f"  sup |R|: {max(max(abs(r.sup_R), abs(r.inf_R)) for r in records):.6f}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cigarflow",
        description="2-D Ricci flow in conformal gauge: runs, invariant checks, "
                    "refinement studies, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate a scenario, emit diagnostics CSV and snapshots")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--quiet", action="store_true", help="suppress progress on stderr")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="run the invariant suite; nonzero exit on violation")
    p.add_argument("config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="grid/step refinement study against the exact family")
    p.add_argument("config")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("report", help="summarize a finished run directory")
    p.add_argument("run_dir")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:  # an unreadable input; output failures exit 3 in cmd_run
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError) as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
