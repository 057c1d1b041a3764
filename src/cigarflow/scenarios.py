"""Declarative scenario configs and initial-data construction.

A scenario is a JSON file with explicit keys (unknown keys are errors, not
warnings: silent typos are how irreproducible experiments happen):

    {
      "name": "perturbed_relax",
      "grid": {"kind": "radial", "n": 129, "s_max": 8.0},
      "initial": {"type": "perturbed_cigar", "amplitude": 0.3,
                  "center": 2.0, "width": 0.5},
      "stepping": {"safety": 0.9, "t_end": 5.0, "record_interval": 0.25},
      "output": {"directory": "runs/perturbed", "snapshot_interval": 2.5},
      "seed": 0
    }

Initial-data families give log u0, the log factor against the cigar metric
g_c = e^{-f0} g_E, and its slope at s_max; `InitialData` derives u~0 =
log u0 - f0 and everything else from them:

    exact_cigar       u0 = 1
    scaled_cigar      u0 = scale (constant)
    perturbed_cigar   log u0 = A (exp(-(s - s0)^2 / (2 sigma^2))
                              + exp(-(s + s0)^2 / (2 sigma^2))), a bump
                      mirrored to be even in s (so a centre-0 bump peaks at
                      2A); optional "random_bumps": k adds k seeded mirrored
                      bumps, which is what the config-level seed feeds
    flat              the flat plane, u0 = 1/w0
    custom_table      explicit log u0 node values, one per grid node

Bumps are smooth and specified in arc length, so sup |log u0| and the
gradient bound that the stability theory assumes are finite by construction;
`InitialData` evaluates both, plus sup |f0 - f(0)|, and `build_scenario`
refuses data whose numbers overflow float64.  `run_scenario` refuses a run
that would take more than MAX_STEPS steps.

The only grid is radial, uniform in s = arcsinh r on [0, s_max]: every
family above depends on s alone.  `parse_config` refuses every malformed
value with a ConfigError before anything is built, including a spacing
h = s_max/(n-1) above sqrt 5, where the tip stencil loses its maximum
principle, more than MAX_NODES nodes, an s_max outside [MIN_S_MAX,
MAX_S_MAX], a time that rounds to 0 at the run's 12 decimals, and a value
of the wrong JSON type:
`grid.n`, `seed` and `random_bumps` are integers, every other number is a
JSON number, and neither may be a string or a boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from cigarflow import cigar
from cigarflow.flow import (
    COMOVING,
    FIXED,
    Accumulators,
    FlowState,
    InitialData,
    fewest_steps,
    fixed_fields,
    run,
)
from cigarflow.geometry import (
    MAX_NODES,
    MAX_S_MAX,
    MAX_SPACING,
    MIN_NODES,
    MIN_S_MAX,
    ConformalState,
    RadialGrid,
    _edge_slope_estimate,
    metric_laplacian,
)

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "load_config",
    "parse_config",
    "check_grid",
    "build_scenario",
    "run_scenario",
    "manufactured_solution_error",
    "verify_scenario",
    "VerifyReport",
]


class ConfigError(ValueError):
    """Malformed or rejected scenario configuration."""


_GRID_KEYS = {"kind", "n", "s_max"}
_INITIAL_KEYS = {
    "exact_cigar": set(),
    "scaled_cigar": {"scale"},
    "perturbed_cigar": {"amplitude", "center", "width", "random_bumps"},
    "flat": set(),
    "custom_table": {"log_u0"},
}
_STEPPING_KEYS = {"safety", "t_end", "record_interval", "frame", "s_report"}
_OUTPUT_KEYS = {"directory", "snapshot_interval"}
_TOP_KEYS = {"name", "grid", "initial", "stepping", "output", "seed"}

# e^{u~0} and e^{-u~0} overflow float64 from here on
MAX_LOG_FACTOR = float(np.log(np.finfo(float).max))

# a run stops at every record and snapshot time; more stops than this is a
# typo, not an experiment, and would only fill memory
MAX_EVENTS = 100_000

# Most steps a run may need: a run whose step count `fewest_steps` bounds
# above this is refused before any step.  10^7 steps at the ~60 us a step
# takes at n = 129 is about 10 minutes.  Over the tests and demos the
# largest bound is 421 (n = 257 to t = 20, a run of about 2000 steps); the
# runs it stops, on grids of s_max 1e-6, would need 10^12 steps and more.
MAX_STEPS = 10**7


@dataclass
class ScenarioConfig:
    name: str
    grid: dict
    initial: dict
    safety: float
    t_end: float
    record_interval: float
    frame: str = COMOVING
    s_report: float = 4.0
    output_directory: str | None = None
    snapshot_interval: float | None = None
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)


def _require_keys(section, allowed, where):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def check_grid(n, s_max):
    """Refuse, with a ConfigError, n nodes on [0, s_max] that a run does not take."""
    if not (MIN_NODES <= n <= MAX_NODES and (n - 1) & (n - 2) == 0):
        raise ConfigError(f"grid.n must be a power of two plus one for refinement "
                          f"studies, at least {MIN_NODES} and at most {MAX_NODES}, got {n}")
    if s_max / (n - 1) > MAX_SPACING:
        raise ConfigError(f"grid spacing s_max/(n-1) = {s_max / (n - 1):.6g} exceeds "
                          f"sqrt(5) = {MAX_SPACING:.6g}, where the tip stencil fails")


def _json_number(value, key, integer=False):
    """`value` if it is a JSON number, or a JSON integer where `integer`:
    never a string or a boolean, and never a fraction read as an integer."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    return value


def _positive(section, key):
    value = float(_json_number(section[key], key))
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"{key} must be positive and finite, got {value!r}")
    return value


def parse_config(data):
    """Validate a config dict and return a ScenarioConfig.

    Every malformed or rejected value raises ConfigError, never another
    exception.
    """
    try:
        return _parse_config(data)
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(f"config is missing required key {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"malformed config value: {err}") from err


def _parse_config(data):
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, _TOP_KEYS, "config")
    for key in ("grid", "initial", "stepping", "output"):
        if not isinstance(data.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object")

    grid = data["grid"]
    if grid.get("kind") != "radial":
        raise ConfigError(f"grid.kind must be 'radial', got {grid.get('kind')!r}")
    _require_keys(grid, _GRID_KEYS, "grid")
    n = _json_number(grid["n"], "grid.n", integer=True)
    s_max = _positive(grid, "s_max")
    if not MIN_S_MAX <= s_max <= MAX_S_MAX:
        raise ConfigError(f"grid.s_max must be in [{MIN_S_MAX:g}, {MAX_S_MAX:g}], got {s_max!r}")
    check_grid(n, s_max)

    initial = data["initial"]
    itype = initial.get("type")
    if itype not in _INITIAL_KEYS:
        raise ConfigError(f"unknown initial.type {itype!r}")
    _require_keys(set(initial) - {"type"}, _INITIAL_KEYS[itype], f"initial ({itype})")
    if itype == "scaled_cigar":
        _positive(initial, "scale")
    if itype == "perturbed_cigar":
        _positive(initial, "width")
        if not np.isfinite(float(_json_number(initial["amplitude"], "amplitude"))
                           + float(_json_number(initial["center"], "center"))):
            raise ConfigError("perturbed_cigar.amplitude and center must be finite")
        if _json_number(initial.get("random_bumps", 0), "random_bumps", integer=True) < 0:
            raise ConfigError("perturbed_cigar.random_bumps must be non-negative")
    if itype == "custom_table":
        table = initial["log_u0"]
        if not isinstance(table, list):
            raise ConfigError(f"custom_table.log_u0 must be a list of numbers, got {table!r}")
        for value in table:
            _json_number(value, "each custom_table.log_u0 entry")
        values = np.asarray(table, dtype=float)
        if values.shape != (n,):
            raise ConfigError(f"custom_table.log_u0 has {values.size} values, grid has {n} nodes")
        if not np.all(np.isfinite(values)):
            raise ConfigError("custom_table.log_u0 contains non-finite values (unbounded tail?)")

    stepping = data["stepping"]
    _require_keys(stepping, _STEPPING_KEYS, "stepping")
    frame = stepping.get("frame", COMOVING)
    if frame not in (COMOVING, FIXED):
        raise ConfigError(f"stepping.frame must be 'comoving' or 'fixed', got {frame!r}")
    t_end = _positive(stepping, "t_end")
    intervals = {"record_interval": _positive(stepping, "record_interval")}

    output = data.get("output", {})
    _require_keys(output, _OUTPUT_KEYS, "output")
    if not isinstance(output.get("directory", ""), str):
        raise ConfigError("output.directory must be a string")
    if "snapshot_interval" in output:
        intervals["snapshot_interval"] = _positive(output, "snapshot_interval")
    for key, value in {"t_end": t_end, **intervals}.items():
        if round(value, 12) == 0:  # a run rounds its event times to 12 decimals
            raise ConfigError(f"{key} {value:g} rounds to 0 at the run's time resolution 1e-12")
    for key, interval in intervals.items():
        if t_end / interval > MAX_EVENTS:
            raise ConfigError(f"{key} {interval:g} gives more than {MAX_EVENTS} stops")
    seed = _json_number(data.get("seed", 0), "seed", integer=True)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")

    name = data["name"]
    if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"name must be a non-empty string without '/' or '\\' and not "
                          f"'.' or '..' (it names the default output directory), got {name!r}")

    return ScenarioConfig(
        name=name,
        grid=dict(grid),
        initial=dict(initial),
        safety=_positive(stepping, "safety"),
        t_end=t_end,
        record_interval=intervals["record_interval"],
        frame=frame,
        s_report=_positive(stepping, "s_report") if "s_report" in stepping else 4.0,
        output_directory=output.get("directory"),
        snapshot_interval=intervals.get("snapshot_interval"),
        seed=seed,
        raw=data,
    )


def load_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # bad JSON or bytes that are not UTF-8
            raise ConfigError(f"invalid JSON in {path}: {err}") from err
    return parse_config(data)


def _gaussian_bump(s, amplitude, center, width):
    """Values and d/ds of a Gaussian at `center` plus its mirror at -center,
    which keeps log u0 even in s (a one-sided bump leaves a cone point).  A
    vast width gives a flat bump, a vast centre none; other numbers beyond
    float64 give inf or NaN under the caller's errstate, which it refuses."""
    width_sq = np.float64(width) ** 2
    near, far = (np.exp(-((s - c) ** 2) / (2.0 * width_sq)) for c in (center, -center))
    return (amplitude * (near + far),
            -amplitude / width_sq * ((s - center) * near + (s + center) * far))


def _initial_log_u0(config, grid):
    """log u0 on the grid plus its analytic d/ds slope at the outer edge."""
    itype = config.initial["type"]
    s = grid.s

    if itype == "exact_cigar":
        return np.zeros_like(s), 0.0
    if itype == "flat":
        # log u0 = f0 node for node, so u~0 = log u0 - f0 is exactly zero
        return cigar.cigar_potential_arclength(s), 2.0 * np.tanh(grid.s_max)
    if itype == "scaled_cigar":
        lam = float(config.initial["scale"])
        return np.full_like(s, np.log(lam)), 0.0
    if itype == "perturbed_cigar":
        amp = float(config.initial["amplitude"])
        center = float(config.initial["center"])
        width = float(config.initial["width"])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values, slopes = _gaussian_bump(s, amp, center, width)
            k = int(config.initial.get("random_bumps", 0))
            rng = np.random.default_rng(config.seed) if k else None  # numpy.random loads lazily
            for _ in range(k):
                a = amp * rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
                c = rng.uniform(0.5, 0.8 * float(np.max(s)))
                w = width * rng.uniform(0.5, 1.5)
                bump, bump_slopes = _gaussian_bump(s, a, c, w)
                values, slopes = values + bump, slopes + bump_slopes
        if not (np.isfinite(values).all() and np.isfinite(slopes[-1])):
            raise ConfigError("perturbed_cigar log u0 or its edge slope overflows float64")
        return values, float(slopes[-1])  # s[-1] is s_max exactly
    if itype == "custom_table":
        values = np.asarray(config.initial["log_u0"], dtype=float)
        slope = float(
            (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * grid.h)
        )
        return values, slope
    raise ConfigError(f"unknown initial type {itype!r}")


def build_scenario(config):
    """The t = 0 FlowState, from u~0 as `InitialData` derives it.

    Raises ConfigError when the derived data fails the boundedness
    hypotheses (a log factor u~0 whose exponential overflows, a non-finite
    curvature, Lap_g of the curvature or potential gap).
    """
    grid = RadialGrid(int(config.grid["n"]), float(config.grid["s_max"]))
    init = InitialData(*_initial_log_u0(config, grid), grid)
    sup_u = float(np.max(np.abs(init.u_tilde0)))
    if not sup_u < MAX_LOG_FACTOR:  # also refuses NaN
        raise ConfigError(f"sup |u~0| = {sup_u:.6g} overflows e^(+-u~0) (limit {MAX_LOG_FACTOR:.6g})")

    conformal = ConformalState(grid, init.u_tilde0.copy(), init.edge_slope)
    with np.errstate(over="ignore", invalid="ignore"):
        curvature0 = conformal.curvature
        if not np.all(np.isfinite(curvature0)):
            raise ConfigError("initial curvature is not finite; data violates the hypotheses")
        # the first record's curvature-evolution residual applies Lap_g to R
        lap_r0 = metric_laplacian(curvature0, conformal,
                                  _edge_slope_estimate(grid, curvature0))
    if not np.all(np.isfinite(lap_r0)):
        raise ConfigError("Lap_g R at t = 0 is not finite; data violates the hypotheses")
    if not np.isfinite(init.sup_potential_gap):
        raise ConfigError("sup |f0 - f(0)| is not finite; data violates the hypotheses")
    return FlowState(
        conformal=conformal,
        t=0.0,
        log_scale=0.0,
        frame=config.frame,
        init=init,
        acc=Accumulators(v_integral=0.0, phi=np.zeros(grid.n)),
    )


def run_scenario(config, snapshot_times=(), snapshot_hook=None, progress=None):
    """build_scenario + run with the config's stepping parameters.  A run
    that takes more than MAX_STEPS steps to t_end (`fewest_steps`) raises
    ConfigError before any step."""
    state = build_scenario(config)
    steps = fewest_steps(state, config.t_end, config.safety)
    if not steps <= MAX_STEPS:
        raise ConfigError(f"the run to t_end = {config.t_end:g} takes at least {steps:.3g} "
                          f"steps, more than {MAX_STEPS:.0e}")
    return run(
        state,
        config.t_end,
        safety=config.safety,
        record_interval=config.record_interval,
        s_report=config.s_report,
        snapshot_times=snapshot_times,
        snapshot_hook=snapshot_hook,
        progress=progress,
    )


def manufactured_solution_error(n, s_max, safety, t_end, frame=COMOVING):
    """Max fixed-frame error of the cigar-data run against the exact family.

    This is the calibration yardstick: conservation and identity tolerances
    for other scenarios at the same resolution are multiples of it.  Returns
    (error, RunResult); the error of an aborted run is NaN, since its final
    state never reached t_end.
    """
    cfg = parse_config({
        "name": "manufactured",
        "grid": {"kind": "radial", "n": int(n), "s_max": float(s_max)},
        "initial": {"type": "exact_cigar"},
        "stepping": {"safety": float(safety), "t_end": float(t_end),
                     "record_interval": float(t_end), "frame": frame},
    })
    result = run_scenario(cfg)
    if result.aborted:
        return float("nan"), result
    state = result.final_state
    exact = cigar.soliton_log_factor(state.grid.r, state.t)
    return float(np.max(np.abs(fixed_fields(state)["u_tilde"] - exact))), result


# ---------------------------------------------------------------------------
# invariant verification
# ---------------------------------------------------------------------------

# res_poisson growth allowance: 10 x initial residual + K h^2 (K calibrated
# once on soliton runs, frozen with a wide margin)
POISSON_DRIFT_K = 1.0

# sup h may rise by at most this much per unit time between records
H_MONOTONE_TOL = 1e-8

SUP_GROWTH_TOL = 1e-8


@dataclass
class VerifyReport:
    name: str
    checks: list            # (check name, passed, detail)
    result: object          # RunResult
    ok: bool

    def lines(self):
        out = [f"scenario {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for name, passed, detail in self.checks:
            out.append(f"  [{'ok' if passed else 'FAIL'}] {name}: {detail}")
        return out


def verify_scenario(config):
    """Run the scenario and check every trajectory invariant.

    The conservation tolerance is 5x the manufactured-solution error of a
    companion cigar-data run at the same resolution and horizon (for the
    flat plane, an exact fixed point, it is rounding-level).
    """
    result = run_scenario(config)
    checks = []

    records = result.records
    finite = all(rec.finite for rec in records)
    checks.append(("records finite, no abort",
                   finite and not result.aborted,
                   result.abort_message or f"{len(records)} records"))

    h = result.final_state.grid.h
    drift = max(rec.w_drift for rec in records)
    if config.initial["type"] == "flat":
        tol_w = 1e-12  # the flat plane is an exact fixed point
        checks.append(("conservation of w", drift <= tol_w,
                       f"max drift {drift:.3e} vs tol {tol_w:.3e}"))
    else:
        err_ms, companion = manufactured_solution_error(
            config.grid["n"], config.grid["s_max"], config.safety, config.t_end,
            frame=config.frame,
        )
        if companion.aborted:
            checks.append(("conservation of w", False,
                           f"companion cigar-data run aborted: {companion.abort_message}"))
        else:
            tol_w = 5.0 * err_ms
            checks.append(("conservation of w", drift <= tol_w,
                           f"max drift {drift:.3e} vs tol {tol_w:.3e} "
                           f"(5 x manufactured error {err_ms:.3e})"))

    sup0 = records[0].sup_u_tilde
    worst = max(rec.sup_u_tilde - sup0 for rec in records)
    checks.append(("maximum principle sup u~",
                   worst <= SUP_GROWTH_TOL,
                   f"max rise {worst:.3e} vs tol {SUP_GROWTH_TOL:.1e}"))

    rises = [
        b.sup_h - a.sup_h - H_MONOTONE_TOL * (b.t - a.t) - 1e-12
        for a, b in zip(records, records[1:])
    ]
    worst_h = max(rises) if rises else 0.0
    checks.append(("sup h non-increasing",
                   worst_h <= 0.0,
                   f"worst inter-record rise {worst_h:.3e}"))

    res0 = result.final_state.init.res_poisson0
    tol_p = 10.0 * res0 + POISSON_DRIFT_K * h**2
    worst_p = max(rec.res_poisson for rec in records)
    checks.append(("potential identity Lap_g f = R",
                   worst_p <= tol_p,
                   f"max residual {worst_p:.3e} vs tol {tol_p:.3e}"))

    sup_r0 = abs(records[0].sup_R)
    d0_proxy = max(rec.sup_grad_sq for rec in records)
    bound = sup_r0 + d0_proxy + 1e-6
    worst_r = max(max(abs(rec.sup_R), abs(rec.inf_R)) for rec in records)
    checks.append(("curvature stays within the observed bound",
                   worst_r <= bound,
                   f"sup |R| {worst_r:.4f} vs bound {bound:.4f}"))

    ok = all(passed for _, passed, _ in checks)
    return VerifyReport(config.name, checks, result, ok)
