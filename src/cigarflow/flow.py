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
accepted step, the record's curvature and its curvature-evolution residual
share one evaluation.  A record takes no step: the residual's dR/dt is the
semi-discrete flow's exact rate at the state (`monitor`).  Each later stage
forms its increment by one BLAS product of four weights with a
preallocated stack of four rows (`_rkc_step`).

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
outside the grid, while the scale grows).  A state maps its u~ at most
once (`FlowState.u_fixed`), for `fixed_fields`, `kahler_residual` and the
phi accumulator.  A step maps nothing.  The state it returns holds the
state it came from, and the first read of its accumulators maps the states
the chain passed through in one block fit (`_catch_up`, `_map_block`, at
most BLOCK_STEPS), with the same bits as a map per state, and brings every
one of them up to date.  `run` takes its records in blocks as well
(`record_block`): up to BLOCK_STEPS record states wait, and their records
come from one pass over (K, n) blocks, with the same bits as one state at a
time.  The clamped spline's slope system is inverted once per grid size
(`RadialGrid.spline`), so a fit is one matrix-vector product per row and
each evaluation of it a piecewise-cubic one.  Each state fits u~ at most
once: a record state in its record block, whose one evaluation gives both
its map and its normalized profile (`profile_distance`), and any other in
its chain's block.  The curvature evolution residual needs no map: it is
taken on the co-moving nodes.  gamma = 0 recovers plain fixed-frame
stepping.

Monitored structure, all recorded per step interval:

    w = log u + f - f0 = u~ + f   conserved pointwise along the exact flow;
    v = f(0) - f                  satisfies v(origin,t) = -int_0^t R(origin);
    h = v + log u0                heat subsolution, sup h non-increasing;
    sup u~                        non-increasing (maximum principle);
    Lap_g f - R                   identity propagation residual;
    R_t - Lap_g R - R^2           curvature evolution residual, O(h^2);
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
from functools import cached_property, lru_cache, partial
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
    _width_estimates,
    metric_laplacian,
    solve_initial_potential,
)

__all__ = [
    "InitialData",
    "Accumulators",
    "FlowState",
    "FlowInstabilityError",
    "RunResult",
    "adaptive_dt",
    "fewest_steps",
    "step",
    "monitor",
    "record_block",
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
    """The t = 0 data at the fixed grid nodes, in the fixed frame: log u0,
    the log factor against the cigar metric g_c = e^{-f0} g_E, and its d/ds
    slope at s_max.

    The other fields (init=False) are derived from these on construction,
    for a new run, an exact state and a loaded snapshot alike: u~0 =
    log u0 - f0 and its Neumann slope `edge_slope`, log u0's less 2 tanh
    s_max; f(0) = w0 - u~0 with w0 = u~0(0) (`solve_initial_potential`);
    `sup_u_tilde0`, the maximum of u~0's clamped spline
    (`GridSpline.maximum`), which the maximum principle keeps every later
    profile under, wherever its nodes sit; and three of the hypothesis
    values that `summary.json` reports, non-finite without a warning where
    e^{+-u~0} overflows.  The fourth, res_poisson0, is the t = 0 record's
    res_poisson, so set-up takes u~0's Laplacian once.  `grid` is used
    there and not stored.
    """

    log_u0: np.ndarray        # cigar-gauge log u(0)
    log_u0_slope: float       # d/ds log u(0) at s_max
    u_tilde0: np.ndarray = field(init=False)    # Euclidean log factor
    edge_slope: float = field(init=False)       # u~0's Neumann slope
    potential0: np.ndarray = field(init=False)  # Ricci potential f(0), f(0)(origin) = 0
    w0: float = field(init=False)               # u~ + f, the same at every node and time
    sup_u_tilde0: float = field(init=False)
    sup_log_u0: float = field(init=False)
    sup_potential_gap: float = field(init=False)  # sup |f0 - f(0)|
    sup_grad_log_u0: float = field(init=False)   # sup |d log u0| in g(0)
    grid: InitVar[RadialGrid]

    def __post_init__(self, grid):
        f0_cigar = cigar.cigar_potential_arclength(grid.s)
        self.u_tilde0 = self.log_u0 - f0_cigar
        self.edge_slope = self.log_u0_slope - 2.0 * np.tanh(grid.s_max)
        conformal = ConformalState(grid, self.u_tilde0, self.edge_slope)
        self.potential0, _ = solve_initial_potential(conformal)
        self.w0 = float(self.u_tilde0[0])
        self.sup_u_tilde0 = grid.spline.maximum(self.u_tilde0, self.edge_slope)
        self.sup_log_u0 = float(np.max(np.abs(self.log_u0)))
        with np.errstate(over="ignore", invalid="ignore"):
            self.sup_potential_gap = float(np.max(np.abs(f0_cigar - self.potential0)))
            # |d log u0|^2 in the initial metric g(0) = e^{u~0} g_E
            self.sup_grad_log_u0 = float(np.sqrt(np.max(_metric_gradient_sq(
                grid, self.log_u0, self.u_tilde0, self.log_u0_slope))))


@dataclass
class Accumulators:
    """The two time integrals, trapezoidal across the accepted steps.  A
    state that `step` returns derives them from the states before it when
    they are first read (`FlowState.acc`)."""

    v_integral: float         # int_0^t R(origin) dtau
    phi: np.ndarray           # phi(t) - phi(0) = -int_0^t f dtau, fixed nodes


# Most steps whose accumulators wait to be read: `step` brings a longer chain
# up to date first, so what a chain keeps alive stays small.  Also the most
# records `run` lets wait, to take them as one block (`record_block`).
BLOCK_STEPS = 32


class _Step(NamedTuple):
    """A state's pending accumulators: the step of size dt that reached it
    from the state `before`, whose own accumulators are known or pending in
    turn.  `depth` counts the pending steps back to known accumulators.  A
    chain of steps shares one grid and one edge slope, since `step` keeps
    both."""

    before: FlowState
    dt: float
    depth: int


class _Accumulated:
    """`FlowState.acc`: the Accumulators a state was built with, or, for a
    state that `step` returned, a `_Step` that is brought up to date on the
    first read (`_catch_up`)."""

    def __get__(self, state, owner=None):
        if state is None:
            raise AttributeError("acc")  # so the dataclass field has no default
        if type(vars(state)["acc"]) is _Step:
            _catch_up(state)
        return vars(state)["acc"]

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
        `_stage_rhs(state, (u^, log L), out)` (computed once): e^{-u^} times the
        conformal state's cached Laplacian rows, plus the co-moving terms.
        It is stage 0 of every RKC2 step from the state, and the record's
        curvature-evolution residual reads its dR/dt from it (`monitor`), so
        a record state's accepted step and its record share it."""
        conf = self.conformal
        out = np.empty(self.grid.n + 1)
        np.multiply(conf.laplacian, conf.diffusivity, out=out[:-1])
        return _with_transport(self, out, conf.differences)

    @cached_property
    def u_fixed(self):
        """u~ at the fixed grid nodes (`map_to_fixed`, computed once), or the
        state's row of a block map (`record_block`, `_catch_up`), the same
        bits."""
        return map_to_fixed(self)


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


def _map_block(states):
    """`map_to_fixed` of states that share one grid and one edge slope, one
    row each, bit for bit: the rows off the fixed frame share one block fit
    (`GridSpline.fit`)."""
    conf = states[0].conformal
    values = np.array([x.conformal.log_factor for x in states])
    log_scale = np.array([x.log_scale for x in states])
    moved = log_scale != 0.0
    if moved.any():
        fit = conf.grid.spline.fit(values if moved.all() else values[moved], conf.edge_slope)
        values[moved] = fit(np.arcsinh(conf.grid.r * np.exp(-log_scale[moved])[:, None]))
    values -= 2.0 * log_scale[:, None]
    return values


def _depth(state):
    """The pending steps from the state back to known accumulators."""
    pending = vars(state)["acc"]
    return pending.depth if type(pending) is _Step else 0


def _catch_up(state):
    """Derive the accumulators of a state that `step` returned, and of every
    state its pending steps passed through, back to one whose accumulators
    are known.

    u~ at the fixed nodes is each state's `u_fixed` where it is taken
    already: the known end's, and a record state's, which `record_block`
    maps before it reads the accumulators.  The other states are mapped as
    one block fit (`_map_block`), and each keeps its row as its `u_fixed`.
    The trapezoids keep the operations and the order each step took when it
    advanced them itself, so every bit is the same: v's running sums in step
    order, from each state's R(origin), and phi's as one block, its terms
    stacked under phi and subtracted row after row (`np.subtract.accumulate`),
    each row the phi of one state.
    """
    states = [state]
    while type(vars(states[-1])["acc"]) is _Step:
        states.append(vars(states[-1])["acc"].before)
    states.reverse()  # the first state's accumulators are known
    acc, dts = states[0].acc, [vars(x)["acc"].dt for x in states[1:]]
    rows = [vars(x).get("u_fixed") for x in states]
    rows[0] = states[0].u_fixed
    todo = [k for k, row in enumerate(rows) if row is None]
    if todo:
        for k, row in zip(todo, _map_block([states[k] for k in todo])):
            rows[k] = vars(states[k])["u_fixed"] = row
    f = state.init.w0 - np.array(rows)
    terms = np.empty_like(f)  # phi, then each step's 0.5 dt (f before + f after)
    terms[0] = acc.phi
    np.add(f[:-1], f[1:], out=terms[1:])
    terms[1:] *= np.array([[0.5 * dt] for dt in dts])
    phi = np.subtract.accumulate(terms)
    r_origin = [float(x.curvature[0]) for x in states]
    v_integral = acc.v_integral
    for x, dt, r_before, r_after, row in zip(states[1:], dts, r_origin, r_origin[1:], phi[1:]):
        v_integral += 0.5 * dt * (r_before + r_after)
        x.acc = Accumulators(v_integral, row)


def fixed_fields(state):
    """Reconstruct u~, f, w, v, h at the fixed grid nodes.

    u~ is the state's own, mapped once (`FlowState.u_fixed`), and
    f = w0 - u~.
    """
    return _fixed_fields(state.init, state.u_fixed)


def _fixed_fields(init, u_tilde):
    """`fixed_fields` from u~ at the fixed nodes: one state's, or a block of
    rows."""
    f = init.w0 - u_tilde
    w = u_tilde + f
    v = init.potential0 - f
    h = v + init.log_u0
    return {"u_tilde": u_tilde, "f": f, "w": w, "v": v, "h": h}


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _stage_rhs(state, y, out):
    """The rate of y = (u_hat, log L) at one RKC2 stage, written into `out`,
    a vector of length n + 1, and returned.

    The Laplacian's rows are `background_laplacian`'s (`_laplacian_rows`),
    so the fixed-frame rate of u is -R bit for bit.  e^{-u_hat} multiplies
    each row after the subtraction; folded into the coefficients it would
    amplify its own rounding through the cancellation in the tail.  The
    co-moving terms are `_with_transport`'s.  Stage 0, the rate at the state
    itself, is `FlowState.rate`, which gives the same bits from the state's
    cached rows.
    """
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
    s = max(2, int(math.sqrt(stiffness / 0.7)))  # beta(s) < 0.7 s^2: never past the answer
    while _rkc_coefficients(s)[0] < stiffness:
        s += 1
    return s


@lru_cache(maxsize=256)
def _stage_weights(s):
    """The weights of stages 2 .. s of the s-stage RKC2 step against the
    rows of `_rkc_step`'s stack (f0, the stage rate and two increment
    slots), one row per stage: (gamma_tilde_j, mu_tilde_j, nu_j, mu_j), with
    nu_j and mu_j swapped on every other stage, as the slots take d_{j-1}
    and d_{j-2} in turn.  The rate's weight is still to be scaled by dt."""
    weights = np.array(_rkc_coefficients(s)[2])[:, ::-1]
    weights[1::2, [2, 3]] = weights[1::2, [3, 2]]
    weights.setflags(write=False)
    return weights


def _rkc_step(rhs, y0, rate0, dt, s):
    """One s-stage RKC2 step of y' = rhs(y), in increments d_j = Y_j - y0.

    `rate0` is the rate at y0, stage 0, which the caller already holds
    (`FlowState.rate`); rhs(y, out) writes the rate at y into out and is
    called s - 1 times.  Each stage is
    d_j = mu d_{j-1} + nu d_{j-2} + (mu~ dt) rhs(y0 + d_{j-1}) + gamma~ f0,
    f0 = dt rate0, formed by one product of the stage's four weights
    (`_stage_weights`) with a stack of four rows: f0, the stage rate, which
    rhs writes in place, and two increment slots, which take d_j in turn.
    d_0 = 0 is a row of +0.0.  The product sums in BLAS's order, not left to
    right, so the step agrees with the sequential expression to rounding,
    not bit for bit.  A component whose rate is 0 at every stage (the
    co-moving tip) has every increment 0 and keeps its old value exactly.
    """
    _, mu_tilde_1, _ = _rkc_coefficients(s)
    stack = np.zeros((4, y0.size))
    f0, rate, d_older, d_old = stack
    np.multiply(rate0, dt, out=f0)
    np.multiply(f0, mu_tilde_1, out=d_old)
    point = np.empty_like(y0)
    for weights in _stage_weights(s) * (1.0, dt, 1.0, 1.0):
        rhs(np.add(y0, d_old, out=point), rate)
        np.dot(weights, stack, out=d_older)
        d_old, d_older = d_older, d_old
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
    sup_r = float(np.abs(state.curvature).max())
    dt_curv = CURVATURE_STEP * state.grid.h / sup_r if sup_r > 0.0 else np.inf
    return safety * min(dt_curv, _rkc_coefficients(MAX_STAGES)[0] / rho)


def fewest_steps(state, t_end, safety=0.9):
    """A lower bound on the steps `run` takes from the state to t_end.

    Every dt that `adaptive_dt` gives is at most safety * beta(MAX_STAGES) /
    rho, and rho is at least the tip row's e^{-u_0} rows_0 (`gershgorin_rows`).
    No later state lowers e^{-u_0}: the co-moving frame pins u^ at the tip,
    and in the fixed frame `step` keeps u~ under sup u~0 (to the abort
    tolerance).  So, unlike t_end over the first dt, the bound holds for
    data whose first steps are tiny and then grow.
    """
    dt_max = safety * _rkc_coefficients(MAX_STAGES)[0] / state.grid.gershgorin_rows[0]
    return (t_end - state.t) / dt_max * math.exp(-state.init.sup_u_tilde0)


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

    The new state holds the step it came from (`_Step`: the state it left
    and dt) in place of its accumulators: u~ is mapped to the fixed nodes
    and the trapezoids are taken only when its `acc` is first read, for
    every pending step at once.  A chain of more than BLOCK_STEPS pending
    steps is brought up to date first.
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
    y1 = _rkc_step(partial(_stage_rhs, state), y0, state.rate, dt, _stage_count(stiffness))
    if not np.isfinite(y1).all():
        raise FlowInstabilityError("non-finite fields after step", t1)
    u1, log_scale1 = y1[:-1], float(y1[-1])

    # the node maximum against the initial profile's (its spline's): the
    # co-moving nodes are not material points, so a node may come to sit
    # nearer the crest than any node did at t = 0
    sup_u_tilde = float(u1.max()) - 2.0 * log_scale1
    if sup_u_tilde > state.init.sup_u_tilde0 + SUP_GROWTH_ABORT:
        raise FlowInstabilityError(
            f"sup u~ rose to {sup_u_tilde:.6g} above the initial profile's maximum "
            f"{state.init.sup_u_tilde0:.6g}: unstable step", t1
        )
    depth = _depth(state) + 1
    if depth > BLOCK_STEPS:
        _catch_up(state)
        depth = 1
    return FlowState(ConformalState(state.grid, u1, conf.edge_slope), t1, log_scale1,
                     state.frame, state.init, _Step(state, dt, depth))


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def monitor(state, dt_hint=None):
    """Compute a DiagnosticsRecord for the state: `record_block` of the
    state alone (a state whose log factor is not finite records NaN).

    `dt_hint` is echoed into the record's dt column (the step size the run
    is using).  The fixed-frame columns come from the state's mapped u~
    (`fixed_fields`), and v_discrepancy from the accumulators.  The
    curvature-evolution residual is the state's own and takes no step: dR/dt
    at its nodes is the semi-discrete flow's exact rate,
    -R u^_t - e^{-u^} Lap_E u^_t, from the state's cached stage rate
    (`FlowState.rate`, (u^_t, gamma), which the next accepted step reads as
    its stage 0).  The Laplacian of u^_t takes the ghost slope 0, since the
    edge slope does not move.  So res_curv_evo is the O(h^2) spatial
    residual of R_t = Lap_g R + R^2 on the co-moving nodes, with no time
    error; in the fixed frame, away from the edge rows, the discrete flow
    satisfies the discrete identity, and the column reads rounding.  It is
    NaN, without a warning, where R^2 overflows.  The record also carries
    the largest log u on the stepped nodes.  `run` takes its records in
    blocks of up to BLOCK_STEPS states, with the same bits.
    """
    if not np.isfinite(state.conformal.log_factor).all():
        nan = float("nan")
        return DiagnosticsRecord(state.t, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan, nan)
    return record_block([state], [dt_hint])[0][0]


def record_block(states, dt_hints, s_window=None):
    """Take the records of K states of one run together: (records, profile
    distances, Kahler residuals), three lists in the order of the states.

    Entry k is what state k gets alone (`monitor` with dt_hints[k],
    `profile_distance` on |s| <= s_window, None where the normalization needs
    data outside the grid, and `kahler_residual`), bit for bit: every
    operation is elementwise over the rows or reduces within a row, and the
    spline's slope solve is one product per row.  The states share one grid,
    one InitialData and one edge slope, as a run's do (`step` keeps them),
    and their log factors are finite.

    One pass over (K, n) blocks: one spline fit of the K log factors, which
    gives both the frame map (each state keeps its row as `u_fixed`) and the
    normalized profiles; the accumulators, read newest first, so that one
    catch-up (`_catch_up`) maps only the states between records; one
    Laplacian call for the four fields a record differentiates, the potential
    (edge slope -u^'s), u^'s rate (0), R (its one-sided estimate) and phi
    (t times u^'s slope); and e^{u~0} once.
    """
    first = states[0]
    grid, init, slope = first.grid, first.init, first.conformal.edge_slope
    window_grid, target = _window(grid, s_window)
    count, n = len(states), grid.n
    t = [x.t for x in states]
    log_scale = np.array([x.log_scale for x in states])
    u_hat = np.array([x.conformal.log_factor for x in states])
    # one fit, evaluated once at the fixed nodes arcsinh(r / L) of each row
    # (`map_to_fixed`; a row in the fixed frame is its own) and at the
    # window's nodes under its normalizing dilation (`normalize`)
    pos, reach = _normalizing_points(grid, u_hat, window_grid)
    nodes = np.arcsinh(grid.r * np.exp(-log_scale)[:, None])
    values = grid.spline.fit(u_hat, slope)(
        np.concatenate((nodes, np.minimum(pos, grid.s_max)), axis=1))
    u_fixed = (np.where((log_scale != 0.0)[:, None], values[:, :n], u_hat)
               - 2.0 * log_scale[:, None])
    for state, row in zip(states, u_fixed):
        vars(state).setdefault("u_fixed", row)
    acc = [x.acc for x in reversed(states)][::-1]

    # the potential (FlowState.potential), u^'s rate, R and phi, with their
    # edge slopes -u^'s, 0, R's one-sided estimate and t u^'s
    fields = np.empty((4, count, n))
    potential, u_rate, curv, phi = fields
    np.subtract(init.w0, u_hat, out=potential)
    potential += (2.0 * log_scale)[:, None]
    rate = np.array([x.rate for x in states])
    u_rate[:], curv[:], phi[:] = rate[:, :-1], [x.curvature for x in states], [a.phi for a in acc]
    slopes = np.empty((4, count))
    slopes[0], slopes[1], slopes[2] = -slope, 0.0, _edge_slope_estimate(grid, curv)
    np.multiply(t, slope, out=slopes[3])
    laps = np.empty_like(fields)
    _laplacian_rows(fields.reshape(4 * count, n), grid, slopes.ravel(),
                    laps.reshape(4 * count, n))
    lap_potential, lap_rate, lap_r, lap_phi = laps

    diffusivity = np.array([x.conformal.diffusivity for x in states])
    res_poisson = np.abs(diffusivity * lap_potential - curv).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        r_rate = -curv * u_rate - diffusivity * lap_rate
        res_curv = np.abs(_curvature_residual(
            grid, curv, r_rate, rate[:, -1:], diffusivity * lap_r, slopes[2])).max(axis=1)
    fixed = _fixed_fields(init, u_fixed)
    _, width_bound, cinf = _width_estimates(grid, u_hat)
    # log u = u~ + log(1 + r^2) at the node's fixed-frame radius r = L sinh a,
    # written so that nothing overflows as L grows
    log_u = u_hat + np.log(np.exp(-2.0 * log_scale)[:, None] + grid.r**2)
    columns = (
        curv.max(axis=1), curv.min(axis=1), u_hat.max(axis=1) - 2.0 * log_scale,
        _metric_gradient_sq(grid, u_hat, u_hat, slope).max(axis=1),
        np.abs(fixed["w"] - init.w0).max(axis=1), fixed["h"].max(axis=1), width_bound, cinf,
        res_poisson, res_curv, np.abs(fixed["v"][:, 0] + [a.v_integral for a in acc]),
        log_u.max(axis=1),
    )
    records = [DiagnosticsRecord(t_k, float(dt) if dt else float("nan"), *row)
               for t_k, dt, row in zip(t, dt_hints, zip(*(c.tolist() for c in columns)))]

    profiles = _normalized(grid, u_hat, pos, values[:, n:], slope)
    distances = np.abs(profiles - target).max(axis=1).tolist()
    # the density e^{u~} against its reconstruction from phi; coefficient
    # one: d rho/dt = -Lap_E f once f is normalized by Lap_g f = R
    resid = np.exp(u_fixed) - np.exp(init.u_tilde0) - lap_phi
    return (records, [d if ok else None for d, ok in zip(distances, reach.tolist())],
            np.abs(resid[:, :-1]).max(axis=1).tolist())


def _curvature_residual(grid, r, r_rate, gamma, lap_g_r, slope):
    """R_t - Lap_g R - R^2 at the nodes of a state, or of each row of a
    block, from dR/dt at those nodes (`r_rate`), gamma = dlogL/dt (a float,
    or a column) and Lap_g R, taken with R's one-sided edge slope `slope`
    (`_edge_slope_estimate`).

    It is taken on the nodes the state is stepped on, with no frame map: R
    is a scalar, so a co-moving node a = x / L sees dR/dt = R_t +
    gamma tanh(s) dR/ds (gamma is 0 in the fixed frame).  dR/ds takes the
    same edge slope as Lap_g R.  The field stops two nodes short of the
    outer edge: the edge closure's truncation constants differ from the
    interior family, which a pointwise second-application check would
    amplify to O(1) there (the corrected tip row, by contrast, matches the
    interior family and is included).
    """
    drift = gamma * grid.tanh_s * _radial_derivative(grid, r, slope)
    return (r_rate - drift - lap_g_r - r**2)[..., :-2]


def curvature_evolution_residual(s_minus, s_zero, s_plus):
    """Residual of R_t = Lap_g R + R^2 at s_zero from a uniformly spaced
    state triple: dR/dt and gamma are the centred differences of the
    triple's R and log L (`_curvature_residual`).

    The triple may come from either frame's stepping or be built
    analytically.  The max norm of the returned field is O(dt^2 + h^2); as
    dt -> 0 it tends to the state's own residual, which `monitor` records.
    """
    grids = {id(s.grid) for s in (s_minus, s_zero, s_plus)}
    if len(grids) != 1:
        raise ValueError("state triple must share one grid")
    dt1 = s_zero.t - s_minus.t
    dt2 = s_plus.t - s_zero.t
    if dt1 <= 0 or abs(dt1 - dt2) > 1e-9 * max(dt1, dt2):
        raise ValueError("state triple must be uniformly spaced in time")
    gamma = (s_plus.log_scale - s_minus.log_scale) / (dt1 + dt2)
    r_rate = (s_plus.curvature - s_minus.curvature) / (dt1 + dt2)
    r = s_zero.curvature
    slope = _edge_slope_estimate(s_zero.grid, r)
    return _curvature_residual(s_zero.grid, r, r_rate, gamma,
                               metric_laplacian(r, s_zero.conformal, slope), slope)


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
    (`ConformalState.fit`); the window grid is built once per window size
    and spacing.
    """
    grid, conf = state.grid, state.conformal
    window_grid, _ = _window(grid, s_window)
    u_hat = conf.log_factor[None]
    pos, reach = _normalizing_points(grid, u_hat, window_grid)
    if not reach[0]:
        raise _outside_the_grid(state)
    profile = _normalized(grid, u_hat, pos, conf.fit(np.minimum(pos, grid.s_max)), conf.edge_slope)
    return ConformalState(window_grid, profile[0], conf.edge_slope), normalization_scale(state)


def _normalizing_points(grid, u_hat, window_grid):
    """Where the window's nodes land on the grid under the normalizing
    dilation, arcsinh(e^{-u^(0)/2} r), for each of K rows of u^, and a mask
    of the rows that stay on the grid."""
    pos = np.arcsinh(np.exp(-0.5 * u_hat[:, 0])[:, None] * window_grid.r)
    return pos, ~(pos[:, -1] > grid.s_max * (1.0 + 1e-9) + 0.5 * grid.h)


def _normalized(grid, u_hat, pos, values, edge_slope):
    """The normalized profiles of K rows of u^ from their splines' values
    at min(pos, s_max): less u^(0), and continued linearly past s_max with
    the physical edge slope."""
    profiles = values - u_hat[:, :1]
    beyond = pos > grid.s_max
    profiles[beyond] += edge_slope * (pos[beyond] - grid.s_max)
    return profiles


def _outside_the_grid(state):
    factor = float(np.exp(-0.5 * float(state.conformal.log_factor[0])))
    return ValueError(f"normalization (scale {factor:.4g}) needs data outside the grid; "
                      "shrink the reporting window")


def profile_distance(state, s_window=4.0):
    """Sup distance of the normalized profile to the static cigar on |s| <= s_window.

    The profile is `normalize`'s, taken by `record_block` for the state
    alone; the cigar's profile on the window is built with the window grid,
    once per window size and spacing.
    """
    (distance,) = record_block([state], [None], s_window)[1]
    if distance is None:
        raise _outside_the_grid(state)
    return distance


# ---------------------------------------------------------------------------
# Kahler-potential cross-check
# ---------------------------------------------------------------------------

def kahler_residual(state):
    """Max mismatch between the evolved density and the potential
    reconstruction, taken by `record_block` for the state alone.

    The evolved density is e^{u~} at the fixed nodes, from the state's
    mapped u~ (`FlowState.u_fixed`).  Exactly zero at t = 0 by construction.
    The outermost node is excluded: the accumulated potential has no ghost
    information of its own beyond the slope t * edge_slope used here, the
    integral of f's slope -edge_slope.
    """
    return record_block([state], [None])[2][0]


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
    telemetry: RunTelemetry


class _Pending(NamedTuple):
    """A record state that waits to be taken: its free step size, the run's
    telemetry counts at that point, and whether a non-finite record ends
    the run there (every record but the first)."""

    state: FlowState
    dt_free: float
    counts: tuple
    checked: bool


def run(state, t_end, safety=0.9, record_interval=0.05, s_report=4.0,
        snapshot_times=(), snapshot_hook=None, progress=None):
    """Integrate from the given state to t_end with adaptive stepping.

    Emits a DiagnosticsRecord at t = 0, then at every multiple of
    `record_interval` (the step is clipped to land on record, snapshot, and
    final times exactly).  On instability, or at a non-finite record after
    t = 0, the run stops and carries the last good records with `aborted`
    set.  `snapshot_hook(state)` is called at each requested snapshot time;
    `progress(record)` after each record.  The result's `telemetry` counts
    the accepted steps, those clipped to an event time, and their RKC2
    stages; a record takes no step.  Each record also appends (t, log L) to
    the result's `scale_trace`.

    Records are taken in blocks (`record_block`).  A record state waits,
    with its free step size and the telemetry counts at that point, until
    BLOCK_STEPS of them wait, the next step would catch up a chain of
    pending steps that holds one of them (`step` does so at BLOCK_STEPS, so
    no record whose accumulators are pending waits longer than that), the
    run ends, or a step raises.  The waiting records are then taken in one
    pass, which maps each state once, and delivered
    in time order: each is appended to the traces, then `progress` and
    `snapshot_hook` are called, so both are called in bursts.  Every output
    is the same, bit for bit, as taking each record at its state: a
    non-finite record ends the run there, with the records, traces,
    telemetry and final state of that point, and no later state is
    reported or snapshotted; an instability, or a ValueError from a later
    state's stiffness, gives way to that abort.
    """
    t_end = round(float(t_end), 12)  # the run's time resolution
    if t_end <= state.t:
        raise ValueError("t_end must exceed the state's time")
    snapshot_set = {round(float(ts), 12) for ts in snapshot_times}
    events = {round(k * record_interval, 12) for k in
              range(1, int(np.ceil((t_end + 1e-12) / record_interval)) + 1)}
    events |= snapshot_set
    events.add(t_end)
    events = sorted(e for e in events if state.t < e <= t_end)

    records, dist_trace, kahler_trace, scale_trace = [], [], [], []
    telemetry = RunTelemetry()
    s_window = min(s_report, state.grid.s_max)
    pending = []

    def flush():
        """Take the pending records in one block and deliver them in time
        order; return the entry of the first checked record that is not
        finite, where the run ends, or None."""
        block = pending[:]
        pending.clear()
        taken = record_block([x.state for x in block], [x.dt_free for x in block], s_window)
        for entry, rec, dist, kahler in zip(block, *taken):
            at = entry.state
            records.append(rec)
            dist_trace.append((at.t, dist))
            kahler_trace.append((at.t, kahler))
            scale_trace.append((at.t, at.log_scale))
            if progress:
                progress(rec)
            if snapshot_hook and round(at.t, 12) in snapshot_set:
                snapshot_hook(at)
            if entry.checked and not rec.finite:
                return entry
        return None

    # the free step size of the current state, taken once per state: each
    # record echoes it and the next step is clipped from it
    dt_free = adaptive_dt(state, safety)
    pending.append(_Pending(state, dt_free, (0, 0, 0), False))
    ended = error = None
    try:
        for target in events:
            while state.t < target - 1e-13:
                if len(pending) == BLOCK_STEPS or (
                        _depth(state) == BLOCK_STEPS and pending and _depth(pending[-1].state)):
                    ended = flush()
                    if ended:
                        break
                dt = min(dt_free, target - state.t)
                new_state = step(state, dt)
                telemetry.steps += 1
                telemetry.clipped_steps += int(dt < dt_free)
                telemetry.stages += _stage_count(dt * state.conformal.stiffness)
                state = new_state
                if abs(state.t - target) < 1e-12:
                    # land on the event exactly; the state is new and held
                    # nowhere else, and this keeps its accumulators pending
                    state.t = target
                dt_free = adaptive_dt(state, safety)
            if ended:
                break
            counts = (telemetry.steps, telemetry.clipped_steps, telemetry.stages)
            pending.append(_Pending(state, dt_free, counts, True))
    except FlowInstabilityError as err:
        error = err
    except ValueError:
        if not (pending and (ended := flush())):
            raise
    if pending:
        ended = flush()

    if ended:
        state, telemetry = ended.state, RunTelemetry(*ended.counts)
        abort_message = f"non-finite diagnostics at t={state.t:.6g}"
    else:
        abort_message = None if error is None else str(error)
    return RunResult(
        records=records,
        final_state=state,
        aborted=abort_message is not None,
        abort_message=abort_message,
        dist_trace=dist_trace,
        kahler_trace=kahler_trace,
        scale_trace=scale_trace,
        telemetry=telemetry,
    )


# ---------------------------------------------------------------------------
# exact states for verification
# ---------------------------------------------------------------------------

def exact_soliton_state(grid, t=0.0):
    """FlowState built from the closed-form evolving family at time t.

    The log factor is u~ = -log(e^{4t} + r^2), so the potential is its
    negative (w0 = 0).  The initial data is the cigar's, log u0 = 0 with
    slope 0, built as `build_scenario` builds it.  Built in the fixed frame
    (log_scale 0); accumulators carry the analytic int R(origin) = 4t, while
    the phi accumulator is only meaningful for states produced by stepping
    from t = 0.
    """
    s = grid.s_max  # u~'s slope is d/ds of -log(e^{4t} + sinh^2 s) there
    u_slope = float(-2.0 * np.sinh(s) * np.cosh(s) / (np.exp(4.0 * t) + np.sinh(s) ** 2))
    return FlowState(
        conformal=ConformalState(grid, cigar.soliton_log_factor(grid.r, t), u_slope),
        t=t,
        log_scale=0.0,
        frame=FIXED,
        init=InitialData(np.zeros(grid.n), 0.0, grid),
        acc=Accumulators(v_integral=4.0 * t, phi=np.zeros(grid.n)),
    )
