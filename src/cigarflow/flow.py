"""Time integration of the conformal Ricci flow and its Ricci potential.

The evolving metric is written g(t) = e^{u~} g_E, so the flow is the
logarithmic fast diffusion equation

    d u~/dt = e^{-u~} Lap_E u~  = -R.

The Ricci potential needs no equation of its own: R = -e^{-u~} Lap_E u~
says Lap_g (-u~) = R, so f + u~ is a radial harmonic function regular at the
tip, a constant, and f = w0 - u~ with w0 = u~0(0) (`solve_initial_potential`;
it also solves f's heat equation df/dt = Lap_g f, since d(-u~)/dt = R =
Lap_g (-u~)).  Only u~ is stepped, by the damped second-order
Runge-Kutta-Chebyshev method (RKC2; Verwer, Hundsdorfer and Sommeijer 1990,
Sommeijer, Shampine and Verwer 1997).  Its real stability interval grows as
~0.65 s^2 with the stage count s, so the step size follows the curvature (u~
moves by about CURVATURE_STEP * h = 1.4 h per step) and the stage count
follows the stiffness of the diffusion, rather than dt following h^2.  The stiffness rho
is Gershgorin's bound of a diagonally scaled copy of e^{-u~} Lap_E
(`RadialGrid.gershgorin_rows`): a bound for every diffusivity, the tip and
the ghost edge row included, and within 7% of the true radius on the cigar.
A stage evaluates the rates of u~ and log L together (`_stage_rhs`).  Each
state's fields are computed once on the step path: its Laplacian rows
(`ConformalState.laplacian`) give both its curvature and its stage rate
(`FlowState.rate`), which is stage 0 of every step taken from it, so the
accepted step, the record's curvature and the curvature probe share one
evaluation; the RKC2 recursion runs in three preallocated work vectors.

Co-moving gauge.  In fixed coordinates the tip of a cigar-like solution
sinks like u~(0,t) = -4t, so the explicit stability limit collapses like
e^{-4t} and long horizons are unreachable.  Runs therefore integrate
in coordinates that are continuously rescaled by L(t) (the normalization
map used for profile comparisons, applied at every instant rather than at
the end): with a = x/L and u^(a,t) = u~(La,t) + 2 log L, conformal
invariance of the 2-D Laplacian gives

    d u^/dt = e^{-u^} Lap_E u^ + gamma (a . grad u^ + 2),    gamma = dlogL/dt,

and the potential there is f^ = w0 - u^ + 2 log L (`FlowState.potential`).
Choosing gamma = R(origin)/2 pins u^(0,t) exactly (the discrete rhs at
the tip vanishes identically), so the profile stays O(1) and so do the
curvature and the stiffness that set dt and the stage count.  For the exact
soliton this gauge is static.  Fixed-coordinate fields at the original grid
nodes come by cubic interpolation (the map pulls points inward, never
outside the grid, while the scale grows).  Only the accumulators need them:
u~ at the fixed nodes after every accepted step, for the phi accumulator,
and `fixed_fields` reuses that mapped u~.  A step maps nothing.  The state
it returns holds the step it came from, and the first read of its
accumulators maps every pending step at once (`_catch_up`): one block fit
of the states the chain passed through (`_map_block`, at most BLOCK_STEPS)
and `map_to_fixed` of the state read, with the same bits as a map per step.
The clamped spline's slope system is inverted once per grid size
(`RadialGrid.spline`), so a fit is one matrix-vector product per row and
each evaluation of it a piecewise-cubic one.  Each state fits u~ at most
once (`ConformalState.fit`): the map of a record's state and its normalized
profile (`profile_distance`) evaluate the same fit.  The curvature evolution
residual needs no map (it is taken on the co-moving nodes), and its probe's
steps are never mapped, since nothing reads their accumulators.  gamma = 0
recovers plain fixed-frame stepping.

Monitored structure, all recorded per step interval:

    w = log u + f - f0 = u~ + f   conserved pointwise along the exact flow;
    v = f(0) - f                  satisfies v(origin,t) = -int_0^t R(origin);
    h = v + log u0                heat subsolution, sup h non-increasing;
    sup u~                        non-increasing (maximum principle);
    Lap_g f - R                   identity propagation residual;
    R_t - Lap_g R - R^2           curvature evolution residual;
    width / circumference         level-length estimators.

With f = w0 - u~ the first and the fifth hold by construction: w's drift
and Lap_g f - R measure the rounding of the closed form.  The tests keep an
independent check: a coupled stepper that advances f by its own heat
equation stays on w0 - u~ to rounding.

The Kahler cross-check accumulates phi(t) - phi(0) = -int_0^t (w0 - u~) dtau
at the fixed nodes and reconstructs the metric density as rho(t) = rho(0) +
Lap_E (phi - phi(0)); the unit normalization constant of that flat Laplacian
is pinned once by exactness on the soliton family and frozen.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from cigarflow import cigar
from cigarflow.diagnostics import DiagnosticsRecord
from cigarflow.geometry import (
    ConformalState,
    RadialGrid,
    _edge_slope_estimate,
    _laplacian_rows,
    _metric_gradient_sq,
    _radial_derivative,
    background_laplacian,
    metric_laplacian,
    solve_initial_potential,
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
    "run",
    "exact_soliton_state",
]

COMOVING = "comoving"
FIXED = "fixed"

# abort threshold on the maximum-principle bound sup u~(t) <= sup u~(0)
SUP_GROWTH_ABORT = 1e-6

# damping of the RKC2 stability polynomial, w0 = 1 + RKC_DAMPING / s^2: it
# keeps |P| below 1 away from z = 0, so the stiffest modes are damped
RKC_DAMPING = 2.0 / 13.0
# Most stages `adaptive_dt` lets a step need: dt <= beta(MAX_STAGES) / rho,
# beta(20) = 260.7.  It caps dt where the curvature bound does not (R = 0 on
# the flat plane).  `step` itself takes whatever stage count dt asks for, up
# to STAGE_LIMIT: a dt that needs more (safety far above 1) is refused as an
# unstable step rather than run with a stage table that grows without bound.
MAX_STAGES = 20
STAGE_LIMIT = 10 * MAX_STAGES
# C of `adaptive_dt`'s accuracy bound C h / sup|R|, chosen there from the
# balance of time and spatial error (README, "Step size")
CURVATURE_STEP = 1.4


class FlowInstabilityError(RuntimeError):
    """Raised when a step needs more than STAGE_LIMIT stages, produces NaNs
    or violates the sup u~ bound."""

    def __init__(self, message, t):
        super().__init__(f"{message} (t={t:.6g})")
        self.t = t


@dataclass
class InitialData:
    """Frozen t=0 fields at the fixed grid nodes, in the fixed frame.

    The fields with init=False are derived from the others on construction.
    `grid` and `edge_slope` (u~0's Neumann slope) are used there and not
    stored: the potential f(0) = w0 - u~0 and the constant w0 = u~0(0) come
    from `solve_initial_potential`, and `sup_u_tilde0` is the maximum of
    u~0's clamped spline (`GridSpline.maximum`), which the maximum principle
    keeps every later profile under, wherever its nodes sit.
    """

    u_tilde0: np.ndarray      # Euclidean log factor
    log_u0: np.ndarray        # cigar-gauge log u(0)
    potential0: np.ndarray = field(init=False)  # Ricci potential f(0), f(0)(origin) = 0
    w0: float = field(init=False)               # u~ + f, the same at every node and time
    sup_u_tilde0: float = field(init=False)
    res_poisson0: float
    sup_potential_gap: float  # sup |f0_cigar - f(0)|, boundedness hypothesis value
    sup_log_u0: float = field(init=False)
    sup_grad_log_u0: float
    grid: InitVar[RadialGrid]
    edge_slope: InitVar[float]

    def __post_init__(self, grid, edge_slope):
        self.potential0, _ = solve_initial_potential(ConformalState(grid, self.u_tilde0, edge_slope))
        self.w0 = float(self.u_tilde0[0])
        self.sup_u_tilde0 = grid.spline.maximum(self.u_tilde0, edge_slope)
        self.sup_log_u0 = float(np.max(np.abs(self.log_u0)))


@dataclass
class Accumulators:
    """Trapezoidal accumulators across the accepted steps.  A state that
    `step` returns derives them from its step history when they are first
    read (`FlowState.acc`)."""

    v_integral: float         # int_0^t R(origin) dtau
    phi: np.ndarray           # phi(t) - phi(0) = -int_0^t f dtau, fixed nodes
    u_fixed: np.ndarray       # u~ at the fixed nodes at the current time


# Most steps whose accumulators wait to be read: `step` brings a longer chain
# up to date first, so what a chain keeps alive stays small.
BLOCK_STEPS = 32


class _Step(NamedTuple):
    """A state's pending accumulators: the step of size dt that reached it
    from a state whose u^, log L and R(origin) are kept here, and whose own
    accumulators are `before`, known or pending in turn.  `depth` counts the
    pending steps back to known accumulators.  A chain of steps shares one
    grid and one edge slope, since `step` keeps both."""

    before: Accumulators | _Step
    u_hat: np.ndarray
    log_scale: float
    r_origin: float
    dt: float
    depth: int


class _Accumulated:
    """`FlowState.acc`: the Accumulators a state was built with, or, for a
    state that `step` returned, a `_Step` that is brought up to date on the
    first read (`_catch_up`)."""

    def __get__(self, state, owner=None):
        if state is None:
            raise AttributeError("acc")  # so the dataclass field has no default
        acc = vars(state)["acc"]
        if type(acc) is _Step:
            _catch_up(state)
            acc = vars(state)["acc"]
        return acc

    def __set__(self, state, value):
        vars(state)["acc"] = value


@dataclass
class FlowState:
    """One instant of the flow.  Treated as an immutable value; `step`
    returns a new state, whose accumulators are derived on first read."""

    conformal: ConformalState  # log factor in the (possibly co-moving) frame
    t: float
    log_scale: float           # log L of the co-moving rescaling (0 = fixed)
    frame: str
    init: InitialData
    acc: Accumulators = _Accumulated()

    @property
    def grid(self):
        return self.conformal.grid

    @property
    def curvature(self):
        return self.conformal.curvature

    @property
    def potential(self):
        """The Ricci potential in the stepped frame, w0 - u^ + 2 log L: the
        fixed-frame f = w0 - u~ at the node's radius."""
        return self.init.w0 - self.conformal.log_factor + 2.0 * self.log_scale

    @property
    def potential_slope(self):
        """The potential's Neumann slope at the outer edge, minus u^'s."""
        return -self.conformal.edge_slope

    @cached_property
    def rate(self):
        """The stage rate of (u^, log L) at this state, bit for bit
        `_stage_rhs(state, (u^, log L))` (computed once): e^{-u^} times the
        conformal state's cached Laplacian rows, plus the co-moving terms.
        It is stage 0 of every RKC2 step from the state, so the accepted step
        and the monitor's curvature probe share it."""
        conf = self.conformal
        out = np.empty(self.grid.n + 1)
        np.multiply(conf.laplacian, conf.diffusivity, out=out[:-1])
        return _with_transport(self, out, conf.differences)


# ---------------------------------------------------------------------------
# frame mapping
# ---------------------------------------------------------------------------

def map_to_fixed(state):
    """u~ at the fixed grid nodes: the stepped log factor u^ there, less
    2 log L.

    The fixed node r sits at co-moving arc length arcsinh(r / L), where u^
    is read from its clamped spline (`ConformalState.fit`).  With L >= 1
    these always land inside the grid; transient L < 1 can push the
    outermost node marginally outside, where the spline extrapolates its
    last piece.  In the fixed frame (log L = 0) the nodes are the grid's
    own and no spline is fitted.
    """
    conf = state.conformal
    if state.log_scale == 0.0:
        values = conf.log_factor
    else:
        values = conf.fit(np.arcsinh(state.grid.r * np.exp(-state.log_scale)))
    return values - 2.0 * state.log_scale


def _map_block(grid, u_hat, log_scale, edge_slope):
    """`map_to_fixed` of a (K, n) block of u^ with K values of log L, one
    row each, bit for bit: the rows off the fixed frame share one block fit
    (`GridSpline.fit`)."""
    values = np.array(u_hat)
    log_scale = np.array(log_scale)
    moved = log_scale != 0.0
    if moved.any():
        fit = grid.spline.fit(values if moved.all() else values[moved], edge_slope)
        values[moved] = fit(np.arcsinh(grid.r * np.exp(-log_scale[moved])[:, None]))
    values -= 2.0 * log_scale[:, None]
    return values


def _catch_up(state):
    """Derive the accumulators of a state that `step` returned, from its
    pending steps back to the nearest known accumulators.

    u~ at the fixed nodes comes from one block map of the states the chain
    passed through (`_map_block`) and from `map_to_fixed` of `state`
    itself, whose fit a record's `profile_distance` reuses.  The v and phi
    trapezoids then run in step order, with the operations each step took
    when it advanced them itself, so every bit is the same.
    """
    links = []
    acc = vars(state)["acc"]
    while type(acc) is _Step:
        links.append(acc)
        acc = acc.before
    links.reverse()  # the first link leaves the state whose `acc` is known
    passed = links[1:]  # the states between the known one and `state`
    u_fixed = []
    if passed:
        u_fixed = list(_map_block(state.grid, [x.u_hat for x in passed],
                                  [x.log_scale for x in passed], state.conformal.edge_slope))
    u_fixed.append(map_to_fixed(state))
    r_arrival = [x.r_origin for x in passed] + [float(state.curvature[0])]
    w0 = state.init.w0
    for link, u, r_origin in zip(links, u_fixed, r_arrival):
        acc = Accumulators(
            v_integral=acc.v_integral + 0.5 * link.dt * (link.r_origin + r_origin),
            phi=acc.phi - 0.5 * link.dt * ((w0 - acc.u_fixed) + (w0 - u)),
            u_fixed=u,
        )
    state.acc = acc


def fixed_fields(state):
    """Reconstruct u~, f, w, v, h at the fixed grid nodes.

    u~ is the accumulators' copy, mapped once per accepted step when they
    are first read, and f = w0 - u~.
    """
    u_tilde = state.acc.u_fixed
    f = state.init.w0 - u_tilde
    w = u_tilde + f
    v = state.init.potential0 - f
    h = v + state.init.log_u0
    return {"u_tilde": u_tilde, "f": f, "w": w, "v": v, "h": h}


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _stage_rhs(state, y):
    """The rate of y = (u_hat, log L) at one RKC2 stage, one vector of length
    n + 1.

    The Laplacian's rows are `background_laplacian`'s (`_laplacian_rows`),
    so the fixed-frame rate of u is -R bit for bit.  e^{-u_hat} multiplies
    each row after the subtraction; folded into the coefficients it would
    amplify its own rounding through the cancellation in the tail.  The
    co-moving terms are `_with_transport`'s.  Stage 0, the rate at the state
    itself, is `FlowState.rate`, which gives the same bits from the state's
    cached rows.
    """
    out = np.empty_like(y)
    u_hat, rate = y[:-1], out[:-1]
    d = _laplacian_rows(u_hat, state.grid, state.conformal.edge_slope, rate)
    rate *= np.exp(-u_hat)
    return _with_transport(state, out, d)


def _with_transport(state, out, d):
    """Complete a stage rate in place and return it: out[:-1] holds the
    diffusion rate e^{-u_hat} Lap_E u_hat, taken on the differences
    d = diff(u_hat), and out[-1] receives gamma = d log L/dt.

    In the co-moving frame gamma = R(origin) / 2, and the rate of u_hat gains
    the advection gamma tanh(s) d/ds, the centred
    gamma tanh(s)/(2h) (d_i + d_{i-1}) with the edge slope at the outer node,
    and 2 gamma; the tip rate of u_hat is then exactly 0.  In the fixed frame
    gamma = 0 and the rate stays as it is.
    """
    grid, rate = state.grid, out[:-1]
    gamma = -0.5 * float(rate[0]) if state.frame == COMOVING else 0.0  # R(origin) / 2
    if gamma != 0.0:
        rate[1:-1] += (gamma * grid.advection) * (d[1:] + d[:-1])
        rate[-1] += gamma * grid.tanh_edge * state.conformal.edge_slope
        rate += 2.0 * gamma
    out[-1] = gamma
    return out


@lru_cache(maxsize=256)
def _rkc_coefficients(s):
    """Coefficients of the s-stage damped RKC2 step (s >= 2).

    Returns (beta, mu_tilde_1, rows), rows[j - 2] = (mu_j, nu_j, mu_tilde_j,
    gamma_tilde_j) for j = 2 .. s, in the notation of Sommeijer, Shampine and
    Verwer (1997).  The stability polynomial is P(z) = a_s + b_s T_s(w0 + w1 z)
    with w0 = 1 + RKC_DAMPING / s^2, so beta = (1 + w0) / w1 ~ 0.65 s^2 is its
    real stability interval: |P| <= 1 on [-beta, 0].
    """
    w0 = 1.0 + RKC_DAMPING / s**2
    cheb, d1, d2 = [1.0, w0], [0.0, 1.0], [0.0, 0.0]  # T_j, T_j', T_j'' at w0
    for j in range(2, s + 1):
        cheb.append(2.0 * w0 * cheb[j - 1] - cheb[j - 2])
        d1.append(2.0 * cheb[j - 1] + 2.0 * w0 * d1[j - 1] - d1[j - 2])
        d2.append(4.0 * d1[j - 1] + 2.0 * w0 * d2[j - 1] - d2[j - 2])
    w1 = d1[s] / d2[s]
    b = [d2[j] / d1[j] ** 2 if j >= 2 else 0.0 for j in range(s + 1)]
    b[0] = b[1] = b[2]
    a = [1.0 - b[j] * cheb[j] for j in range(s + 1)]
    rows = []
    for j in range(2, s + 1):
        mu_tilde = 2.0 * b[j] * w1 / b[j - 1]
        rows.append((2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2], mu_tilde,
                     -a[j - 1] * mu_tilde))
    return (1.0 + w0) / w1, b[1] * w1, tuple(rows)


def _stage_count(stiffness):
    """Fewest stages s >= 2 whose stability interval covers dt * rho."""
    s = max(2, int(np.sqrt(stiffness / 0.7)))  # beta(s) < 0.7 s^2: never past the answer
    while _rkc_coefficients(s)[0] < stiffness:
        s += 1
    return s


def _stages(state, dt):
    """The stage count `step` takes for a step of size dt from the state
    (a dt within STAGE_LIMIT stages)."""
    return _stage_count(dt * state.conformal.stiffness)


def _rkc_step(rhs, y0, rate0, dt, s):
    """One s-stage RKC2 step of y' = rhs(y), in increments d_j = Y_j - y0.

    `rate0` is rhs(y0), stage 0, which the caller already holds
    (`FlowState.rate`); rhs is called s - 1 times and must return a new
    array.  Each stage is
    d_j = ((mu d_{j-1} + nu d_{j-2}) + (mu~ dt) rhs(y0 + d_{j-1})) + gamma~ f0,
    f0 = dt rate0, in that order of operations, in three work vectors: the
    stage point, which is free once rhs has returned, takes the sum, and
    d_{j-2}'s vector takes each product.  d_0 = 0 is a vector of +0.0, so
    the first stage adds nu * 0.0 with its sign, as the scalar did.  The
    increment form keeps every component whose rate vanishes (the co-moving
    tip) at exactly its old value.
    """
    _, mu_tilde_1, rows = _rkc_coefficients(s)
    f0 = dt * rate0
    d_old = mu_tilde_1 * f0
    d_older = np.zeros_like(y0)
    work = np.empty_like(y0)
    for mu, nu, mu_tilde, gamma_tilde in rows:
        r = rhs(np.add(y0, d_old, out=work))
        d_older *= nu
        np.multiply(d_old, mu, out=work)
        work += d_older
        work += np.multiply(r, mu_tilde * dt, out=d_older)
        work += np.multiply(f0, gamma_tilde, out=d_older)
        d_older, d_old, work = d_old, work, d_older
    return y0 + d_old


def adaptive_dt(state, safety=0.9):
    """The step size: safety * min(C h / sup|R|, beta(MAX_STAGES) / rho),
    C = CURVATURE_STEP.

    The first term bounds accuracy: u~ moves by about C h per step (d u~/dt =
    -R), and in the co-moving frame it implies the advective limit
    C h / |gamma| of the transport term, since |gamma| = |R(origin)| / 2.
    C = 1.4 is the largest of {1, 1.25, 1.4, 1.5, 1.75} that keeps the
    shipped run's time error at t = 5 at most 1/100 of its spatial error at
    n = 129 and 257 (measured 106 and 111; 203 and 214 at C = 1); with
    dt ~ h both errors are O(h^2), so one constant serves every grid.  The
    second caps the stage count at MAX_STAGES, and keeps dt finite on the
    flat plane, where R = 0.  rho = max(e^{-u} rows) bounds the spectrum of
    the diffusion operator, rows the grid's `gershgorin_rows`
    (`ConformalState.stiffness`, taken once per state).  Stability
    does not depend on `safety`: `step` takes as many stages as dt * rho
    needs.  The same rule holds in both frames.
    """
    if not (0.0 < safety):
        raise ValueError("safety must be positive")
    rho = state.conformal.stiffness
    sup_r = float(np.max(np.abs(state.curvature)))
    dt_curv = CURVATURE_STEP * state.grid.h / sup_r if sup_r > 0.0 else np.inf
    return safety * min(dt_curv, _rkc_coefficients(MAX_STAGES)[0] / rho)


def step(state, dt):
    """Advance (u^, log L) by one damped RKC2 step of size dt.

    The stepped vector is (u^, log L), n + 1 values; the potential is read
    from it, never stepped.  The stage count is the fewest s >= 2 whose
    stability interval beta(s) ~ 0.65 s^2 covers dt * rho (see
    `adaptive_dt`), rho = max(e^{-u} rows) from the grid's
    `gershgorin_rows`, so any dt is stable up to STAGE_LIMIT stages.  Stage
    0 is the state's cached `FlowState.rate`, shared with any other step
    from the same state; each later stage is one call of `_stage_rhs`, and
    gamma is recomputed at every stage, which keeps the co-moving tip pinned
    exactly.  Raises FlowInstabilityError for a dt beyond STAGE_LIMIT stages,
    on post-step NaNs, or if sup u~ exceeds its initial value beyond the
    abort tolerance (the maximum principle forbids any increase).

    The new state holds the step it came from (`_Step`) in place of its
    accumulators: u~ is mapped to the fixed nodes and the trapezoids are
    taken only when its `acc` is first read, for every pending step at once.
    A chain of more than BLOCK_STEPS pending steps is brought up to date
    first.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive and finite")
    t1 = state.t + dt
    stiffness = dt * state.conformal.stiffness
    if not stiffness <= _rkc_coefficients(STAGE_LIMIT)[0]:
        raise FlowInstabilityError(
            f"dt * rho = {stiffness:.6g} needs more than {STAGE_LIMIT} stages: unstable step", t1
        )
    conf = state.conformal
    y0 = np.empty(state.grid.n + 1)
    y0[:-1], y0[-1] = conf.log_factor, state.log_scale
    y1 = _rkc_step(lambda y: _stage_rhs(state, y), y0, state.rate, dt, _stage_count(stiffness))
    u1, log_scale1 = y1[:-1], float(y1[-1])

    if not (np.all(np.isfinite(u1)) and math.isfinite(log_scale1)):
        raise FlowInstabilityError("non-finite fields after step", t1)

    # the node maximum against the initial profile's (its spline's): the
    # co-moving nodes are not material points, so a node may come to sit
    # nearer the crest than any node did at t = 0
    sup_u_tilde = float(np.max(u1)) - 2.0 * log_scale1
    if sup_u_tilde > state.init.sup_u_tilde0 + SUP_GROWTH_ABORT:
        raise FlowInstabilityError(
            f"sup u~ rose to {sup_u_tilde:.6g} above the initial profile's maximum "
            f"{state.init.sup_u_tilde0:.6g}: unstable step", t1
        )
    before = vars(state)["acc"]
    depth = before.depth + 1 if type(before) is _Step else 1
    if depth > BLOCK_STEPS:
        before, depth = state.acc, 1
    link = _Step(before, conf.log_factor, state.log_scale, float(state.curvature[0]), dt, depth)
    return FlowState(ConformalState(state.grid, u1, conf.edge_slope), t1, log_scale1,
                     state.frame, state.init, link)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def monitor(state, dt_hint=None):
    """Compute a DiagnosticsRecord for the state.

    `dt_hint` is echoed into the record's dt column (the step size the run
    is using).  The fixed-frame columns come from `fixed_fields`, which reads
    the mapped u~ of the accumulators (the first read brings them up to
    date).  The curvature-evolution residual is probed by taking two extra
    `step`s from the state, whose accumulators nobody reads; the first
    starts from the state's cached stage rate, as the next accepted step
    does.  The probe's steps have the diffusive size
    0.9 / max(e^{-u} diag), whatever the run's dt, so res_curv_evo keeps
    measuring the same O(dt^2 + h^2) residual on the state's own nodes.
    The record carries the probe's stage count (0 when the probe fails) and
    the largest log u on the stepped nodes.
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
    dtp = 0.9 / state.conformal.diffusion_rate(state.grid.lap_diag)
    try:
        s1 = step(state, dtp)
        s2 = step(s1, dtp)
        res_curv = float(np.max(np.abs(curvature_evolution_residual(state, s1, s2))))
        probe_stages = _stages(state, dtp) + _stages(s1, dtp)
    except FlowInstabilityError:
        res_curv, probe_stages = float("nan"), 0
    v_disc = abs(float(fields["v"][0]) + state.acc.v_integral)
    # log u = u~ + log(1 + r^2) at the node's fixed-frame radius r = L sinh a,
    # written so that nothing overflows as L grows
    log_u = u_hat + np.log(np.exp(-2.0 * state.log_scale) + state.grid.r**2)
    return DiagnosticsRecord(
        t=state.t,
        dt=float(dt_hint) if dt_hint else float("nan"),
        sup_R=float(np.max(curv)),
        inf_R=float(np.min(curv)),
        sup_u_tilde=float(np.max(u_hat)) - 2.0 * state.log_scale,
        sup_grad_sq=float(np.max(_metric_gradient_sq(state.grid, u_hat, u_hat,
                                                     state.conformal.edge_slope))),
        w_drift=float(np.max(np.abs(fields["w"] - state.init.w0))),
        sup_h=float(np.max(fields["h"])),
        width_bound=rep.width_bound,
        cinf_est=rep.cinf_estimate,
        res_poisson=res_poisson,
        res_curv_evo=res_curv,
        v_discrepancy=v_disc,
        sup_log_u=float(np.max(log_u)),
        probe_stages=probe_stages,
    )


def curvature_evolution_residual(s_minus, s_zero, s_plus):
    """Residual of R_t = Lap_g R + R^2 from a uniformly spaced state triple.

    It is taken on the nodes the triple was stepped on, with no frame map:
    R is a scalar, so a co-moving node a = x / L sees dR/dt = R_t +
    gamma tanh(s) dR/ds, gamma = dlogL/dt (the centered difference of log L,
    exactly 0 in the fixed frame).  The triple may come from either frame's
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
    grid = s_zero.grid
    r_zero = s_zero.curvature
    slope = _edge_slope_estimate(grid, r_zero)
    gamma = (s_plus.log_scale - s_minus.log_scale) / (dt1 + dt2)
    drift = gamma * grid.tanh_s * _radial_derivative(grid, r_zero, slope)
    lap_r = metric_laplacian(r_zero, s_zero.conformal, slope)
    resid = (s_plus.curvature - s_minus.curvature) / (dt1 + dt2) - drift - lap_r - r_zero**2
    return resid[:-2]


# ---------------------------------------------------------------------------
# normalization and profile comparison
# ---------------------------------------------------------------------------

def normalization_scale(state):
    """Coordinate scale e^{-u~(origin,t)/2} of the normalizing pullback."""
    u_origin = float(state.conformal.log_factor[0]) - 2.0 * state.log_scale
    return float(np.exp(-0.5 * u_origin))


@lru_cache(maxsize=64)
def _profile_window(k, h):
    """The reporting window's grid RadialGrid(k, (k - 1) h) and the static
    cigar's log factor -2 log cosh s on it, built once per (k, h); every
    caller shares them, so the profile is read-only."""
    window_grid = RadialGrid(k, (k - 1) * h)
    target = -cigar.cigar_potential_arclength(window_grid.s)
    target.setflags(write=False)
    return window_grid, target


def _window(grid, s_window):
    """The window grid of the nodes within `s_window` (None: the whole
    grid) and the static cigar's log factor on it."""
    if s_window is None:
        return grid, -cigar.cigar_potential_arclength(grid.s)
    if s_window > grid.s_max + 1e-12:
        raise ValueError("reporting window exceeds the grid")
    k = int(np.floor(s_window / grid.h + 1e-9)) + 1
    return _profile_window(max(k, 16), float(grid.h))


def normalize(state, s_window=None):
    """Pull the metric back by the normalizing dilation.

    Returns (normalized ConformalState, scale): coordinates are rescaled by
    e^{-u~(origin)/2} and the log factor shifted so it vanishes at the
    origin.  The profile is resampled onto the grid nodes within
    `s_window` (default: the whole grid); a rescale that needs data from
    outside the grid raises a ValueError asking for a smaller reporting
    window.  In the co-moving frame the running scale L cancels, so only
    the residual rescale by e^{-u^(origin)/2} remains and the full grid is
    normally available.  The profile is read from the state's u~ spline
    (`ConformalState.fit`), which the map of a record's state has fitted
    already; the window grid is built once per window size and spacing.
    """
    grid = state.grid
    conf = state.conformal
    c0 = float(conf.log_factor[0])
    factor = float(np.exp(-0.5 * c0))
    window_grid, _ = _window(grid, s_window)
    pos = np.arcsinh(factor * window_grid.r)
    if pos[-1] > grid.s_max * (1.0 + 1e-9) + 0.5 * grid.h:
        raise ValueError(
            f"normalization (scale {factor:.4g}) needs data outside the grid; "
            "shrink the reporting window"
        )
    u_norm = conf.fit(np.minimum(pos, grid.s_max)) - c0
    beyond = pos > grid.s_max
    if np.any(beyond):  # linear continuation with the physical edge slope
        u_norm[beyond] += conf.edge_slope * (pos[beyond] - grid.s_max)
    out = ConformalState(window_grid, u_norm, conf.edge_slope)
    return out, normalization_scale(state)


def profile_distance(state, s_window=4.0):
    """Sup distance of the normalized profile to the static cigar on |s| <= s_window.

    The profile is `normalize`'s; the cigar's profile on the window is built
    with the window grid, once per window size and spacing.
    """
    normalized, _ = normalize(state, s_window)
    _, target = _window(state.grid, s_window)
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

    The evolved density is e^{u~} at the fixed nodes, from the accumulators'
    mapped u~ (`Accumulators.u_fixed`).  Exactly zero at t = 0 by construction.
    The outermost node is excluded: the accumulated potential has no ghost
    information of its own beyond the slope t * edge_slope used here, the
    integral of f's slope -edge_slope.
    """
    grid = state.grid
    rho_t = np.exp(state.acc.u_fixed)
    rho_0 = np.exp(state.init.u_tilde0)
    phi_slope = state.t * state.conformal.edge_slope
    lap_phi = background_laplacian(state.acc.phi, grid, phi_slope)
    resid = rho_t - rho_0 - KAHLER_CONSTANT * lap_phi
    return float(np.max(np.abs(resid[:-1])))


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

@dataclass
class RunTelemetry:
    """Deterministic counts of a run's stepping (`summary.json`'s
    "telemetry" and `cigarflow report`; not in the diagnostics CSV)."""

    steps: int = 0            # accepted steps
    clipped_steps: int = 0    # accepted steps whose dt was cut to a record, snapshot or final time
    stages: int = 0           # RKC2 stages of the accepted steps
    probe_stages: int = 0     # RKC2 stages of the records' curvature probes


@dataclass
class RunResult:
    """Trajectory-level output of `run`."""

    records: list
    final_state: FlowState
    aborted: bool
    abort_message: str | None
    dist_trace: list          # [(t, profile distance)]
    kahler_trace: list        # [(t, reconstruction residual)]
    scale_trace: list         # [(t, log L)]
    profile_distance_final: float | None
    telemetry: RunTelemetry


def run(state, t_end, safety=0.9, record_interval=0.05, s_report=4.0,
        snapshot_times=(), snapshot_hook=None, progress=None):
    """Integrate from the given state to t_end with adaptive stepping.

    Emits a DiagnosticsRecord at t = 0, then at every multiple of
    `record_interval` (the step is clipped to land on record, snapshot, and
    final times exactly).  On instability the run stops and carries the last
    good records with `aborted` set.  `snapshot_hook(state)` is called at
    each requested snapshot time; `progress(record)` after each record.
    The result's `telemetry` counts the accepted steps, those clipped to an
    event time, and the RKC2 stages of the steps and of the records' probes.
    Each record also appends (t, log L) to the result's `scale_trace`.
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

    records, dist_trace, kahler_trace, scale_trace = [], [], [], []
    telemetry = RunTelemetry()

    def record(state):
        """Append the state's record and traces, report them and take a
        snapshot where one is due; returns the record."""
        rec = monitor(state, dt_hint=dt_free)
        records.append(rec)
        telemetry.probe_stages += rec.probe_stages
        try:
            dist = profile_distance(state, min(s_report, state.grid.s_max))
        except ValueError:
            dist = None
        dist_trace.append((state.t, dist))
        kahler_trace.append((state.t, kahler_residual(state)))
        scale_trace.append((state.t, state.log_scale))
        if progress:
            progress(rec)
        if snapshot_hook and round(state.t, 12) in snapshot_set:
            snapshot_hook(state)
        return rec

    # the free step size of the current state, taken once per state: each
    # record echoes it and the next step is clipped from it
    dt_free = adaptive_dt(state, safety)
    record(state)

    aborted = False
    abort_message = None
    for target in events:
        while state.t < target - 1e-13:
            dt = min(dt_free, target - state.t)
            try:
                new_state = step(state, dt)
            except FlowInstabilityError as err:
                aborted, abort_message = True, str(err)
                break
            telemetry.steps += 1
            telemetry.clipped_steps += int(dt < dt_free)
            telemetry.stages += _stages(state, dt)
            state = new_state
            if abs(state.t - target) < 1e-12:
                # land on the event exactly; the state is new and held
                # nowhere else, and this keeps its accumulators pending
                state.t = target
            dt_free = adaptive_dt(state, safety)
        if aborted:
            break
        if not record(state).finite:
            aborted, abort_message = True, f"non-finite diagnostics at t={state.t:.6g}"
            break

    return RunResult(
        records=records,
        final_state=state,
        aborted=aborted,
        abort_message=abort_message,
        dist_trace=dist_trace,
        kahler_trace=kahler_trace,
        scale_trace=scale_trace,
        profile_distance_final=dist_trace[-1][1],
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# exact states for verification
# ---------------------------------------------------------------------------

def exact_soliton_state(grid, t=0.0):
    """FlowState built from the closed-form evolving family at time t.

    The log factor is u~ = -log(e^{4t} + r^2), so the potential is its
    negative (w0 = 0).  Built in the fixed frame (log_scale 0); accumulators
    carry the analytic int R(origin) = 4t, while the phi accumulator is only
    meaningful for states produced by stepping from t = 0.
    """
    u_t = cigar.soliton_log_factor(grid.r, t)
    u_slope = _soliton_edge_slope(grid, t)
    conf = ConformalState(grid, u_t, u_slope)
    u0 = cigar.soliton_log_factor(grid.r, 0.0)
    init = InitialData(
        u_tilde0=u0,
        log_u0=np.zeros(grid.n),
        res_poisson0=0.0,
        sup_potential_gap=0.0,
        sup_grad_log_u0=0.0,
        grid=grid,
        edge_slope=_soliton_edge_slope(grid, 0.0),
    )
    acc = Accumulators(
        v_integral=4.0 * t,
        phi=np.zeros(grid.n),
        u_fixed=u_t.copy(),
    )
    return FlowState(
        conformal=conf,
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
