"""Time integration of the conformal Ricci flow with a co-evolved potential.

The evolving metric is written g(t) = e^{u~} g_E, so the flow is the
logarithmic fast diffusion equation

    d u~/dt = e^{-u~} Lap_E u~  = -R,

and the Ricci potential f rides along by the heat equation of the evolving
metric, df/dt = Lap_g f.  Both are advanced together by classic RK4 under a
CFL-limited adaptive step.

Co-moving gauge.  In fixed coordinates the tip of a cigar-like solution
sinks like u~(0,t) = -4t, so the explicit stability limit collapses like
e^{-4t} and long horizons are unreachable.  Runs therefore integrate
in coordinates that are continuously rescaled by L(t) (the normalization
map used for profile comparisons, applied at every instant rather than at
the end): with a = x/L and u^(a,t) = u~(La,t) + 2 log L, conformal
invariance of the 2-D Laplacian gives

    d u^/dt = e^{-u^} Lap_E u^ + gamma (a . grad u^ + 2),    gamma = dlogL/dt,
    d f^/dt = e^{-u^} Lap_E f^ + gamma (a . grad f^),

and choosing gamma = R(origin)/2 pins u^(0,t) exactly (the discrete rhs at
the tip vanishes identically), so the profile stays O(1) and the CFL bound
stays O(h^2) forever.  For the exact soliton this gauge is static.  Fixed-
coordinate fields at the original grid nodes come through one function,
`map_to_fixed`, by cubic interpolation (the map pulls points inward, never
outside the grid, while the scale grows); a step maps only f, for the phi
accumulator.  gamma = 0 recovers plain fixed-frame stepping.

Monitored structure, all recorded per step interval:

    w = log u + f - f0 = u~ + f   conserved pointwise along the exact flow;
    v = f(0) - f                  satisfies v(origin,t) = -int_0^t R(origin);
    h = v + log u0                heat subsolution, sup h non-increasing;
    sup u~                        non-increasing (maximum principle);
    Lap_g f - R                   identity propagation residual;
    R_t - Lap_g R - R^2           curvature evolution residual;
    width / circumference         level-length estimators.

The Kahler cross-check accumulates phi(t) - phi(0) = -int_0^t f dtau at the
fixed nodes and reconstructs the metric density as rho(t) = rho(0) +
Lap_E (phi - phi(0)); the unit normalization constant of that flat Laplacian
is pinned once by exactness on the soliton family and frozen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline

from cigarflow import cigar
from cigarflow.diagnostics import DiagnosticsRecord
from cigarflow.geometry import (
    EUCLIDEAN,
    ConformalState,
    RadialGrid,
    background_laplacian,
    metric_laplacian,
    width_report,
)

__all__ = [
    "InitialData",
    "Accumulators",
    "FlowState",
    "FlowInstabilityError",
    "RunResult",
    "adaptive_dt",
    "step",
    "monitor",
    "curvature_evolution_residual",
    "normalize",
    "normalization_scale",
    "profile_distance",
    "kahler_residual",
    "kahler_cross_check",
    "run",
    "exact_soliton_state",
]

COMOVING = "comoving"
FIXED = "fixed"

# abort threshold on the maximum-principle bound sup u~(t) <= sup u~(0)
SUP_GROWTH_ABORT = 1e-6


class FlowInstabilityError(RuntimeError):
    """Raised when a step produces NaNs or violates the sup u~ bound."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t={t:.6g})")
        self.t = t


@dataclass
class InitialData:
    """Frozen t=0 fields at the fixed grid nodes, in the fixed frame."""

    u_tilde0: np.ndarray      # Euclidean log factor
    log_u0: np.ndarray        # cigar-gauge log u(0)
    potential0: np.ndarray    # Ricci potential f(0), gauge f(0)(origin) = 0
    w0: np.ndarray            # u_tilde0 + potential0
    sup_u_tilde0: float
    res_poisson0: float
    sup_potential_gap: float  # sup |f0_cigar - f(0)|, boundedness hypothesis value
    sup_log_u0: float
    sup_grad_log_u0: float


@dataclass
class Accumulators:
    """Trapezoidal accumulators advanced once per accepted step."""

    v_integral: float         # int_0^t R(origin) dtau
    curvature_origin: float   # R(origin) at the current time
    phi: np.ndarray           # phi(t) - phi(0) = -int_0^t f dtau, fixed nodes
    f_fixed: np.ndarray       # f at the fixed nodes at the current time


@dataclass
class FlowState:
    """One instant of the flow.  Treated as an immutable value; `step`
    returns a new state."""

    conformal: ConformalState  # log factor in the (possibly co-moving) frame
    potential: np.ndarray      # Ricci potential in the same frame
    potential_slope: float     # Neumann slope of f at the outer edge
    t: float
    log_scale: float           # log L of the co-moving rescaling (0 = fixed)
    frame: str
    init: InitialData
    acc: Accumulators

    @property
    def grid(self):
        return self.conformal.grid

    @property
    def curvature(self):
        return self.conformal.curvature


# ---------------------------------------------------------------------------
# frame mapping
# ---------------------------------------------------------------------------

def _spline(grid, values, slope=None):
    """Cubic spline of a radial profile in s.

    With an edge slope it is clamped to (0, slope): zero by symmetry at the
    tip, the physical Neumann slope at s_max.  Without one it is not-a-knot.
    """
    bc = "not-a-knot" if slope is None else ((1, 0.0), (1, slope))
    return CubicSpline(grid.s, values, bc_type=bc)


def map_to_fixed(state, values, slope=None):
    """Evaluate a co-moving scalar field at the fixed grid nodes.

    The fixed node r sits at co-moving arc length arcsinh(r / L).  With
    L >= 1 these always land inside the grid; transient L < 1 can push the
    outermost node marginally outside, where the clamped spline extrapolates
    with the physical edge slope.
    """
    if state.log_scale == 0.0:
        return np.asarray(values, dtype=float)
    grid = state.grid
    return _spline(grid, values, slope)(np.arcsinh(grid.r * np.exp(-state.log_scale)))


def fixed_fields(state):
    """Reconstruct u~, f, w, v, h at the fixed grid nodes."""
    conf = state.conformal
    u_tilde = map_to_fixed(state, conf.log_factor, conf.edge_slope) - 2.0 * state.log_scale
    f = map_to_fixed(state, state.potential, state.potential_slope)
    w = u_tilde + f
    v = state.init.potential0 - f
    h = v + state.init.log_u0
    return {"u_tilde": u_tilde, "f": f, "w": w, "v": v, "h": h}


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _radial_derivative(grid, f, edge_slope):
    """Centered d/ds with the symmetry ghost at the tip (odd reflection)."""
    out = np.empty_like(f)
    out[0] = 0.0
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * grid.h)
    out[-1] = edge_slope
    return out


def _stage_rhs(state, u_hat, f_hat):
    """Time derivatives of (u_hat, f_hat, log L) at one RK4 stage."""
    grid = state.grid
    slope_u = state.conformal.edge_slope
    lap_u = background_laplacian(u_hat, grid, EUCLIDEAN, slope_u)
    curv = -np.exp(-u_hat) * lap_u
    gamma = 0.5 * curv[0] if state.frame == COMOVING else 0.0
    lap_f = background_laplacian(f_hat, grid, EUCLIDEAN, state.potential_slope)
    du = np.exp(-u_hat) * lap_u
    df = np.exp(-u_hat) * lap_f
    if gamma != 0.0:
        adv = gamma * grid.tanh_s
        du = du + adv * _radial_derivative(grid, u_hat, slope_u) + 2.0 * gamma
        df = df + adv * _radial_derivative(grid, f_hat, state.potential_slope)
    return du, df, gamma


def adaptive_dt(state, safety=0.9):
    """Largest stable explicit step, scaled by `safety`.

    The bound is 1 / max_i |diag_i| of the discrete diffusion operator
    e^{-u} Lap (the tip row's diagonal is 4 / h^2); the co-moving frame adds
    the advective limit h / |gamma| of its transport term.  RK4's stability
    interval leaves a factor ~1.4 of headroom at safety = 1, so safety in
    (0, 1] is safe and safety >= ~3 blows up by construction (larger values
    are accepted: deliberate overdriving is how the abort path is exercised).
    """
    if not (0.0 < safety):
        raise ValueError("safety must be positive")
    grid = state.grid
    diffusivity = np.exp(-state.conformal.log_factor)
    if not np.all(np.isfinite(diffusivity)):
        raise ValueError(
            "diffusivity e^{-u} overflowed; rescale the initial data or use "
            "the co-moving frame"
        )
    h = grid.h
    a = grid.a_half
    b = grid.b_euclidean
    diag = np.empty(grid.n)
    diag[0] = 4.0 / h**2
    diag[1:-1] = (a[1:-1] + a[0:-2]) / (b[1:-1] * h**2)
    diag[-1] = (a[-1] + a[-2]) / (b[-1] * h**2)
    dt_diff = 1.0 / float(np.max(diffusivity * diag))
    if state.frame == COMOVING:
        gamma = 0.5 * float(state.curvature[0])
        dt_adv = h / max(abs(gamma), 1e-30)
        return safety * min(dt_diff, dt_adv)
    return safety * dt_diff


def step(state, dt):
    """Advance (u, f, log L) jointly by one RK4 step of size dt.

    Raises FlowInstabilityError on post-step NaNs or if sup u~ exceeds its
    initial value beyond the abort tolerance (the maximum principle forbids
    any increase).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    u0 = state.conformal.log_factor
    f0 = state.potential

    ku1, kf1, kg1 = _stage_rhs(state, u0, f0)
    ku2, kf2, kg2 = _stage_rhs(state, u0 + 0.5 * dt * ku1, f0 + 0.5 * dt * kf1)
    ku3, kf3, kg3 = _stage_rhs(state, u0 + 0.5 * dt * ku2, f0 + 0.5 * dt * kf2)
    ku4, kf4, kg4 = _stage_rhs(state, u0 + dt * ku3, f0 + dt * kf3)

    u1 = u0 + dt / 6.0 * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4)
    f1 = f0 + dt / 6.0 * (kf1 + 2.0 * kf2 + 2.0 * kf3 + kf4)
    log_scale1 = state.log_scale + dt / 6.0 * (kg1 + 2.0 * kg2 + 2.0 * kg3 + kg4)
    t1 = state.t + dt

    if not (np.all(np.isfinite(u1)) and np.all(np.isfinite(f1)) and np.isfinite(log_scale1)):
        raise FlowInstabilityError("non-finite fields after step", t1)

    conformal1 = ConformalState(
        state.grid, EUCLIDEAN, u1, state.conformal.edge_slope
    )
    sup_u_tilde = float(np.max(u1)) - 2.0 * log_scale1
    if sup_u_tilde > state.init.sup_u_tilde0 + SUP_GROWTH_ABORT:
        raise FlowInstabilityError(
            f"sup u~ rose to {sup_u_tilde:.6g} above its initial value "
            f"{state.init.sup_u_tilde0:.6g}: unstable step", t1
        )

    new_state = replace(
        state, conformal=conformal1, potential=f1, t=t1, log_scale=log_scale1
    )

    # trapezoidal accumulators across the accepted step
    r0_new = float(new_state.curvature[0])
    f_fixed_new = map_to_fixed(new_state, f1, state.potential_slope)
    acc = state.acc
    acc1 = Accumulators(
        v_integral=acc.v_integral + 0.5 * dt * (acc.curvature_origin + r0_new),
        curvature_origin=r0_new,
        phi=acc.phi - 0.5 * dt * (acc.f_fixed + f_fixed_new),
        f_fixed=f_fixed_new,
    )
    return replace(new_state, acc=acc1)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def _gradient_sq_metric(state):
    """|grad u~|^2 in the evolving metric: e^{-u} |d u|_{g_E}^2 (frame-invariant)."""
    grid = state.grid
    u = state.conformal.log_factor
    du = _radial_derivative(grid, u, state.conformal.edge_slope)
    dr = du / grid.cosh_s
    return np.exp(-u) * dr * dr


def monitor(state, dt_hint=None):
    """Compute a DiagnosticsRecord for the state.

    `dt_hint` is echoed into the record's dt column (the step size the run
    is using); the curvature-evolution residual is probed by taking two
    extra steps from a throwaway copy.
    """
    u_hat = state.conformal.log_factor
    if not np.all(np.isfinite(u_hat)):
        nan = float("nan")
        return DiagnosticsRecord(state.t, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan)

    fields = fixed_fields(state)
    curv = state.curvature
    rep = width_report(state.conformal)
    res_poisson = float(
        np.max(np.abs(metric_laplacian(state.potential, state.conformal, state.potential_slope) - curv))
    )
    dtp = dt_hint if dt_hint else adaptive_dt(state)
    try:
        s1 = step(state, dtp)
        s2 = step(s1, dtp)
        res_curv = float(np.max(np.abs(curvature_evolution_residual(state, s1, s2))))
    except FlowInstabilityError:
        res_curv = float("nan")
    v_disc = abs(float(fields["v"][0]) + state.acc.v_integral)
    return DiagnosticsRecord(
        t=state.t,
        dt=float(dt_hint) if dt_hint else float("nan"),
        sup_R=float(np.max(curv)),
        inf_R=float(np.min(curv)),
        sup_u_tilde=float(np.max(u_hat)) - 2.0 * state.log_scale,
        sup_grad_sq=float(np.max(_gradient_sq_metric(state))),
        w_drift=float(np.max(np.abs(fields["w"] - state.init.w0))),
        sup_h=float(np.max(fields["h"])),
        width_bound=rep.width_bound,
        cinf_est=rep.cinf_estimate,
        res_poisson=res_poisson,
        res_curv_evo=res_curv,
        v_discrepancy=v_disc,
    )


def curvature_evolution_residual(s_minus, s_zero, s_plus):
    """Residual of R_t = Lap_g R + R^2 from a uniformly spaced state triple.

    All three curvature fields are brought to the fixed grid nodes before
    the centered time difference, so the triple may come from co-moving
    stepping or be built analytically.  The max norm of the returned field
    is O(dt^2 + h^2).  The fields stop two nodes short of the outer edge:
    the edge closure's truncation constants differ from the interior family,
    which a pointwise second-application check would amplify to O(1) there
    (the corrected tip row, by contrast, matches the interior family and is
    included).
    """
    grids = {id(s.grid) for s in (s_minus, s_zero, s_plus)}
    if len(grids) != 1:
        raise ValueError("state triple must share one grid")
    dt1 = s_zero.t - s_minus.t
    dt2 = s_plus.t - s_zero.t
    if dt1 <= 0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ValueError("state triple must be uniformly spaced in time")
    r_minus = map_to_fixed(s_minus, s_minus.curvature)
    r_plus = map_to_fixed(s_plus, s_plus.curvature)
    r_zero = map_to_fixed(s_zero, s_zero.curvature)
    lap_r = metric_laplacian(
        s_zero.curvature, s_zero.conformal, _edge_slope_estimate(s_zero.grid, s_zero.curvature)
    )
    lap_fixed = map_to_fixed(s_zero, lap_r)
    resid = (r_plus - r_minus) / (dt1 + dt2) - lap_fixed - r_zero**2
    return resid[:-2]


def _edge_slope_estimate(grid, values):
    """Third-order one-sided derivative of a radial field at the outer edge."""
    return float(
        (11.0 * values[-1] - 18.0 * values[-2] + 9.0 * values[-3] - 2.0 * values[-4])
        / (6.0 * grid.h)
    )


# ---------------------------------------------------------------------------
# normalization and profile comparison
# ---------------------------------------------------------------------------

def normalization_scale(state):
    """Coordinate scale e^{-u~(origin,t)/2} of the normalizing pullback."""
    u_origin = float(state.conformal.log_factor[0]) - 2.0 * state.log_scale
    return float(np.exp(-0.5 * u_origin))


def normalize(state, s_window=None):
    """Pull the metric back by the normalizing dilation.

    Returns (normalized ConformalState, scale): coordinates are rescaled by
    e^{-u~(origin)/2} and the log factor shifted so it vanishes at the
    origin.  The profile is resampled onto the grid nodes within
    `s_window` (default: the whole grid); a rescale that needs data from
    outside the grid raises a ValueError asking for a smaller reporting
    window.  In the co-moving frame the running scale L cancels, so only
    the residual rescale by e^{-u^(origin)/2} remains and the full grid is
    normally available.
    """
    grid = state.grid
    c0 = float(state.conformal.log_factor[0])
    factor = float(np.exp(-0.5 * c0))
    if s_window is None:
        window_grid = grid
    else:
        if s_window > grid.s_max + 1e-12:
            raise ValueError("reporting window exceeds the grid")
        k = int(np.floor(s_window / grid.h + 1e-9)) + 1
        window_grid = RadialGrid(max(k, 16), (max(k, 16) - 1) * grid.h)
    pos = np.arcsinh(factor * window_grid.r)
    if pos[-1] > grid.s_max * (1.0 + 1e-9) + 0.5 * grid.h:
        raise ValueError(
            f"normalization (scale {factor:.4g}) needs data outside the grid; "
            "shrink the reporting window"
        )
    sp = _spline(grid, state.conformal.log_factor, state.conformal.edge_slope)
    u_norm = sp(np.minimum(pos, grid.s_max)) - c0
    beyond = pos > grid.s_max
    if np.any(beyond):  # linear continuation with the physical edge slope
        u_norm[beyond] += state.conformal.edge_slope * (pos[beyond] - grid.s_max)
    out = ConformalState(window_grid, EUCLIDEAN, u_norm, state.conformal.edge_slope)
    return out, normalization_scale(state)


def profile_distance(state, s_window=4.0):
    """Sup distance of the normalized profile to the static cigar on |s| <= s_window."""
    normalized, _ = normalize(state, s_window=s_window)
    target = -cigar.cigar_potential_arclength(normalized.grid.s)
    return float(np.max(np.abs(normalized.log_factor - target)))


# ---------------------------------------------------------------------------
# Kahler-potential cross-check
# ---------------------------------------------------------------------------

# Normalization constant of the flat Laplacian in the density reconstruction
# rho(t) = rho(0) + KAHLER_CONSTANT * Lap_E (phi(t) - phi(0)).  Pinned by
# requiring exactness on the soliton family (d rho/dt = -Lap_E f holds with
# coefficient one when f is normalized by Lap_g f = R) and frozen.
KAHLER_CONSTANT = 1.0


def kahler_residual(state):
    """Max mismatch between the evolved density and the potential reconstruction.

    Exactly zero at t = 0 by construction.  The outermost node is excluded:
    the accumulated potential has no ghost information of its own beyond the
    frozen slope estimate -t * slope_f used here.
    """
    grid = state.grid
    fields = fixed_fields(state)
    rho_t = np.exp(fields["u_tilde"])
    rho_0 = np.exp(state.init.u_tilde0)
    phi_slope = -state.t * state.potential_slope
    lap_phi = background_laplacian(state.acc.phi, grid, EUCLIDEAN, phi_slope)
    resid = rho_t - rho_0 - KAHLER_CONSTANT * lap_phi
    return float(np.max(np.abs(resid[:-1])))


def kahler_cross_check(states):
    """Recompute the reconstruction residual from an explicit trajectory.

    `states` must be time-ordered and start at t = 0; the accumulated
    potential is rebuilt by the same trapezoidal rule the runner applies
    per step, so a trajectory of every accepted step reproduces
    kahler_residual of its last state.
    """
    states = list(states)
    if not states:
        raise ValueError("empty trajectory")
    if states[0].t != 0.0:
        raise ValueError("trajectory must start at t = 0")
    grid = states[0].grid
    phi = np.zeros(grid.n)
    f_prev = map_to_fixed(states[0], states[0].potential, states[0].potential_slope)
    t_prev = 0.0
    for st in states[1:]:
        f_now = map_to_fixed(st, st.potential, st.potential_slope)
        phi = phi - 0.5 * (st.t - t_prev) * (f_prev + f_now)
        f_prev, t_prev = f_now, st.t
    last = replace(states[-1], acc=replace(states[-1].acc, phi=phi))
    return kahler_residual(last)


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """Trajectory-level output of `run`."""

    records: list
    final_state: FlowState
    aborted: bool
    abort_message: str | None
    dist_trace: list          # [(t, profile distance)]
    kahler_trace: list        # [(t, reconstruction residual)]
    profile_distance_final: float | None


def run(state, t_end, safety=0.9, record_interval=0.05, s_report=4.0,
        snapshot_times=(), snapshot_hook=None, progress=None):
    """Integrate from the given state to t_end with adaptive stepping.

    Emits a DiagnosticsRecord at t = 0, then at every multiple of
    `record_interval` (the step is clipped to land on record, snapshot, and
    final times exactly).  On instability the run stops and carries the last
    good records with `aborted` set.  `snapshot_hook(state)` is called at
    each requested snapshot time; `progress(record)` after each record.
    """
    if t_end <= state.t:
        raise ValueError("t_end must exceed the state's time")

    t_end = round(float(t_end), 12)
    snapshot_set = {round(float(ts), 12) for ts in snapshot_times}
    events = {round(k * record_interval, 12) for k in
              range(1, int(np.ceil((t_end + 1e-12) / record_interval)) + 1)}
    events |= snapshot_set
    events.add(t_end)
    events = sorted(e for e in events if state.t < e <= t_end)

    def snap_dist(st):
        try:
            return profile_distance(st, min(s_report, st.grid.s_max))
        except ValueError:
            return None

    dt0 = adaptive_dt(state, safety)
    records = [monitor(state, dt_hint=dt0)]
    dist_trace = [(state.t, snap_dist(state))]
    kahler_trace = [(state.t, kahler_residual(state))]
    if progress:
        progress(records[-1])
    if snapshot_hook and round(state.t, 12) in snapshot_set:
        snapshot_hook(state)

    aborted = False
    abort_message = None
    for target in events:
        while state.t < target - 1e-13:
            dt = min(adaptive_dt(state, safety), target - state.t)
            try:
                state = step(state, dt)
            except FlowInstabilityError as err:
                aborted, abort_message = True, str(err)
                break
            if abs(state.t - target) < 1e-12:
                state = replace(state, t=target)
        if aborted:
            break
        rec = monitor(state, dt_hint=adaptive_dt(state, safety))
        records.append(rec)
        dist_trace.append((state.t, snap_dist(state)))
        kahler_trace.append((state.t, kahler_residual(state)))
        if progress:
            progress(rec)
        if snapshot_hook and target in snapshot_set:
            snapshot_hook(state)
        if not rec.finite:
            aborted, abort_message = True, f"non-finite diagnostics at t={state.t:.6g}"
            break

    return RunResult(
        records=records,
        final_state=state,
        aborted=aborted,
        abort_message=abort_message,
        dist_trace=dist_trace,
        kahler_trace=kahler_trace,
        profile_distance_final=dist_trace[-1][1],
    )


# ---------------------------------------------------------------------------
# exact states for verification
# ---------------------------------------------------------------------------

def exact_soliton_state(grid, t=0.0):
    """FlowState built from the closed-form evolving family at time t.

    The log factor is u~ = -log(e^{4t} + r^2) and the potential is its
    negative.  Built in the fixed frame (log_scale 0); accumulators carry
    the analytic int R(origin) = 4t, while the phi accumulator is only
    meaningful for states produced by stepping from t = 0.
    """
    u_t = cigar.soliton_log_factor(grid.r, t)
    u_slope = _soliton_edge_slope(grid, t)
    conf = ConformalState(grid, EUCLIDEAN, u_t, u_slope)
    f = cigar.soliton_potential(grid.r, t)
    u0 = cigar.soliton_log_factor(grid.r, 0.0)
    f0 = cigar.soliton_potential(grid.r, 0.0)
    init = InitialData(
        u_tilde0=u0,
        log_u0=np.zeros(grid.n),
        potential0=f0,
        w0=u0 + f0,
        sup_u_tilde0=float(np.max(u0)),
        res_poisson0=0.0,
        sup_potential_gap=0.0,
        sup_log_u0=0.0,
        sup_grad_log_u0=0.0,
    )
    acc = Accumulators(
        v_integral=4.0 * t,
        curvature_origin=float(conf.curvature[0]),
        phi=np.zeros(grid.n),
        f_fixed=f.copy(),
    )
    return FlowState(
        conformal=conf,
        potential=f,
        potential_slope=-u_slope,
        t=t,
        log_scale=0.0,
        frame=FIXED,
        init=init,
        acc=acc,
    )


def _soliton_edge_slope(grid, t):
    """d/ds of -log(e^{4t} + sinh^2 s) at s_max."""
    s = grid.s_max
    return float(-2.0 * np.sinh(s) * np.cosh(s) / (np.exp(4.0 * t) + np.sinh(s) ** 2))
