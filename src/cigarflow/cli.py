"""Command-line driver.

    cigarflow run <config.json> [--out DIR] [--quiet]
    cigarflow verify <config.json> [--quiet]
    cigarflow converge <config.json> [--quiet]
    cigarflow report <run-dir>

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
    check_grid,
    load_config,
    manufactured_solution_error,
    run_scenario,
    verify_scenario,
)
from cigarflow.snapshots import save_snapshot

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


def cmd_run(args):
    config = load_config(args.config)
    out_dir = Path(args.out or config.output_directory or f"runs/{config.name}")
    times = _snapshot_times(config)

    def snapshot_hook(state):
        save_snapshot(state, out_dir / f"snapshot_t{state.t:.6f}.txt")

    if not args.quiet:
        print(f"running scenario {config.name!r} to t={config.t_end}", file=sys.stderr)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        result = run_scenario(
            config,
            snapshot_times=times,
            snapshot_hook=snapshot_hook if times else None,
            progress=_progress_printer(args.quiet),
        )
        with open(out_dir / "diagnostics.csv", "w") as fh:
            emit_diagnostics(result.records, fh)
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
            "profile_distance_final": result.profile_distance_final,
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
                "res_poisson0": result.final_state.init.res_poisson0,
            },
            "config": config.raw,
        }
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
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
        err, result = manufactured_solution_error(nn, s_max, config.safety, config.t_end,
                                                  frame=config.frame)
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


def _read_run_dir(run_dir):
    """Records, summary, its (t, value) traces and the grid spacing h (None
    without a fixed_edge_trace); ValueError if malformed.  A summary without
    "telemetry" or without the last five traces (written before runs
    counted their steps or traced Q, log L, v and log u) is well formed."""
    records = read_diagnostics(run_dir / "diagnostics.csv")
    if not records:
        raise ValueError("diagnostics.csv has no records")
    summary = {}
    summary_path = run_dir / "summary.json"
    if summary_path.exists():
        summary = json.loads(summary_path.read_text())
        if not isinstance(summary, dict):
            raise ValueError("summary.json is not a JSON object")
    traces = {}
    for key in _TRACE_KEYS:
        try:
            traces[key] = [(float(t), float(v)) for t, v in summary.get(key) or []
                           if v is not None]
        except (TypeError, ValueError) as err:
            raise ValueError(f"summary.json {key} is not a list of [t, value] pairs") from err
    telemetry = summary.get("telemetry")
    if telemetry is not None and not (isinstance(telemetry, dict) and all(
            type(telemetry.get(key)) is int for key in _TELEMETRY_KEYS)):
        raise ValueError(f"summary.json telemetry is not an object of the counts {_TELEMETRY_KEYS}")
    spacing = None
    if traces["fixed_edge_trace"]:
        try:
            grid = summary["config"]["grid"]
            spacing = float(grid["s_max"]) / (int(grid["n"]) - 1)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
            raise ValueError("summary.json has a fixed_edge_trace but no config grid") from err
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

    print(f"run: {summary.get('name', run_dir.name)}")
    print(f"  records: {len(records)}, t in [{records[0].t:g}, {records[-1].t:g}]")
    if summary.get("aborted"):
        print(f"  ABORTED: {summary.get('abort_message')}")
    dist = traces["dist_trace"]
    if dist:
        print(f"  profile distance to cigar: {dist[0][1]:.6e} at t={dist[0][0]:g} "
              f"-> {dist[-1][1]:.6e} at t={dist[-1][0]:g}")
    kah = traces["kahler_trace"]
    if kah:
        print(f"  Kahler reconstruction residual at t={kah[-1][0]:g}: {kah[-1][1]:.6e}")
    q = traces["q_minus_4_trace"]
    if q:
        print(f"  Q - 4, Q = sup R (C_inf / 2 pi)^2 (0 on every cigar): {q[0][1]:.6e} at "
              f"t={q[0][0]:g} -> {q[-1][1]:.6e} at t={q[-1][0]:g}")
    scale = traces["log_scale_trace"]
    if scale:
        print(f"  log L: {scale[0][1]:.6g} at t={scale[0][0]:g} -> {scale[-1][1]:.6g} at "
              f"t={scale[-1][0]:g}")
    edge = traces["fixed_edge_trace"]
    if edge:
        tip_only = next((t for t, a in edge if a < 2.0 * spacing), None)
        where = (f"below 2h from t={tip_only:g} on (the fixed-frame columns then see only "
                 f"the tip)" if tip_only is not None else "never below 2h")
        print(f"  outermost fixed node at co-moving a = {edge[-1][1]:.6g} at t={edge[-1][0]:g}; "
              f"{where}")
    v_disc = traces["v_discrepancy_trace"]
    if v_disc:
        print(f"  max v discrepancy (evolved v(origin) against -int R(origin)): "
              f"{max(v for _, v in v_disc):.6e}")
    log_u = traces["sup_log_u_trace"]
    if log_u:
        rise = max((b - a for (_, a), (_, b) in zip(log_u, log_u[1:])), default=0.0)
        print(f"  co-moving sup log u: {log_u[0][1]:.6e} at t={log_u[0][0]:g} -> "
              f"{log_u[-1][1]:.6e} at t={log_u[-1][0]:g}; largest rise between records "
              f"{rise:.3e}")
    tel = summary.get("telemetry")
    if tel is not None:
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
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("converge", help="grid/step refinement study against the exact family")
    p.add_argument("config")
    p.add_argument("--quiet", action="store_true")
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
