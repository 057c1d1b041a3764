"""Discrete differential geometry on radial grids.

A conformal state is a metric g = e^{u~} g_E on the plane, carried as its
log conformal factor u~ against the Euclidean metric g_E.

Radial grids are uniform in the cigar arc length s = arcsinh(r): the cigar
end is an asymptotic cylinder in s, so uniform s-spacing resolves the
geometry evenly where an r-grid would waste nodes.  The Euclidean Laplacian
uses the conservative second-order form

    (1/b(s)) d/ds ( a(s) dF/ds ),   a = tanh s,   b = sinh s cosh s,

with the tip limit 2 F''(0) (from a(s) ~ b(s) ~ s near the axis),
discretized so that its truncation error matches the interior family's
s -> 0 limit, h^2 (F''''/4 - F''/3) -- see background_laplacian.  The outer
edge uses a cubic-Hermite ghost carrying a prescribed Neumann slope (for
cigar-tailed data the exact slope of the log factor is -2 tanh s_max).

Scalar curvature follows the conformal formula R(g) = -e^{-u~} Lap_E u~.

The Ricci potential f (Lap_g f = R, f = 0 at the tip) needs no solve at
all: R = -e^{-u~} Lap_E u~ says Lap_g (-u~) = R, so f = u~(0) - u~, with the
edge slope -u~'s (`solve_initial_potential`).  The radial first-derivative
stencils (centred d/ds, the one-sided edge slope, the metric gradient norm)
live here beside the ghost formula too.

Each grid also carries its cubic spline, `RadialGrid.spline`: the slope
system of a spline through fixed knots has a fixed tridiagonal matrix, so its
inverse is formed once per grid size and every fit to new values is one
matrix-vector product; the fit then evaluates at any points.
`GridSpline.maximum` gives the spline's exact maximum, from the critical
points of each piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "RadialGrid",
    "GridSpline",
    "ConformalState",
    "background_laplacian",
    "scalar_curvature",
    "metric_laplacian",
    "solve_initial_potential",
    "level_length",
    "width_report",
    "WidthReport",
]

MIN_NODES = 16
# Largest accepted grid: its spline's n x n slope inverse takes 134 MB.
MAX_NODES = 4097
# Largest accepted s_max: the stencil denominators sinh s cosh s * h^2 stay
# finite on every grid (h <= s_max / 15) only up to s_max ~ 352.
MAX_S_MAX = 350.0
# Smallest accepted s_max: the smallest stencil denominator, b_1 h^2 ~ h^3,
# is a normal float64 at MAX_NODES (h = s_max / 4096) down to s_max ~ 1.2e-99,
# so every coefficient a grid forms is finite and exact to rounding; below
# ~1e-105 it underflows to 0 and the coefficients divide by zero.
MIN_S_MAX = 1e-90
# Largest spacing a run accepts: the tip row's coefficient of f_1,
# 10/(3 h^2) - 2/3, turns negative for h > sqrt 5, and the explicit tip update
# then loses its maximum principle.  RadialGrid itself allows any spacing.
MAX_SPACING = float(np.sqrt(5.0))


@dataclass
class RadialGrid:
    """Uniform grid in cigar arc length s on [0, s_max]; node 0 is the tip.

    It carries what the radial operators reuse on every call: the
    Laplacian's interior coefficients `lap_up` and `lap_down`, the centred
    advection's `advection`, the edge row's coefficients as Python floats,
    the stiffness weights `gershgorin_rows`, and the cubic `spline` of its
    size.
    """

    n: int
    s_max: float

    def __post_init__(self):
        if not MIN_NODES <= self.n <= MAX_NODES:
            raise ValueError(f"radial grid needs {MIN_NODES} to {MAX_NODES} nodes, got {self.n}")
        if not MIN_S_MAX <= self.s_max <= MAX_S_MAX:  # also refuses NaN
            raise ValueError(f"s_max must be in [{MIN_S_MAX:g}, {MAX_S_MAX:g}], got {self.s_max!r}")
        self.s = np.linspace(0.0, self.s_max, self.n)
        self.h = self.s[1] - self.s[0]
        self.r = np.sinh(self.s)
        self.tanh_s = np.tanh(self.s)
        self.cosh_s = np.cosh(self.s)
        # half-node conductivities a_{i+1/2} = tanh(s_i + h/2)
        self.a_half = np.tanh(self.s + 0.5 * self.h)
        self.b_euclidean = self.r * self.cosh_s
        # the Laplacian's denominators: h^2 in the tip row, b_i h^2 elsewhere
        self.h2 = float(self.h**2)
        self.bh2 = self.b_euclidean * self.h**2
        # Interior row i of the Laplacian is up_i d_i - down_i d_{i-1}, d =
        # diff(f): the fluxes a_{i+1/2} d_i on either side of node i, over
        # b_i h^2.  The centred advection tanh(s_i) (f_{i+1} - f_{i-1}) / (2h)
        # is adv_i (d_i + d_{i-1}).
        self.lap_up = self.a_half[1:-1] / self.bh2[1:-1]
        self.lap_down = self.a_half[:-2] / self.bh2[1:-1]
        self.advection = self.tanh_s[1:-1] / (2.0 * self.h)
        # the edge row's a_{n-1/2}, a_{n-3/2}, b h^2 and h, and tanh s_max
        self.edge_coefficients = (float(self.a_half[-1]), float(self.a_half[-2]),
                                  float(self.bh2[-1]), float(self.h))
        self.tanh_edge = float(self.tanh_s[-1])

    @cached_property
    def gershgorin_rows(self):
        """Row sums of D|L|D^{-1}, L the Laplacian's matrix: rows_i =
        sum_j |L_ij| d_i / d_j.

        D is diagonal with d = 1 except d_0 = 1/sqrt 7 and d_{n-1} =
        (sqrt 73 - 1)/18: as h -> 0 these balance the tip row against row 1
        and the edge row against row n-2.  For any diffusivity e^{-u}, the
        matrix e^{-u} L is similar to D e^{-u} L D^{-1}, so max(e^{-u} rows)
        is Gershgorin's bound on its spectral radius, the stiffness rho of
        the RKC2 step.  On the flat plane it is 0.60 of 8 / h^2, the tip
        row's unscaled bound; on the cigar the edge row binds, and the true
        radius is 0.94 of it.
        """
        a, bh2, h2 = self.a_half, self.bh2, self.h2
        d_tip = 1.0 / np.sqrt(7.0)
        d_edge = (np.sqrt(73.0) - 1.0) / 18.0
        rows = np.empty(self.n)
        # interior: the off-diagonal entries sum to the diagonal
        rows[1:-1] = 2.0 * (a[1:-1] + a[:-2]) / bh2[1:-1]
        # tip row (-(10/3 + 1/6)/h^2 + 2/3, 10/(3h^2) - 2/3, 1/(6h^2)) and
        # row 1's entry in column 0
        rows[0] = (abs(2.0 / 3.0 - (10.0 / 3.0 + 1.0 / 6.0) / h2)
                   + d_tip * (abs(10.0 / (3.0 * h2) - 2.0 / 3.0) + 1.0 / (6.0 * h2)))
        rows[1] += (1.0 / d_tip - 1.0) * a[0] / bh2[1]
        # edge row ((-2.5 a_{n-1/2} - a_{n-3/2}), (3 a_{n-1/2} + a_{n-3/2}),
        # -0.5 a_{n-1/2}) / (b h^2) and row n-2's entry in column n-1
        rows[-1] = (2.5 * a[-1] + a[-2] + d_edge * (3.5 * a[-1] + a[-2])) / bh2[-1]
        rows[-2] += (1.0 / d_edge - 1.0) * a[-2] / bh2[-2]
        return rows

    @property
    def spline(self):
        """The cubic spline on the grid's nodes, shared by every grid of the
        same (n, s_max) (`_grid_spline`)."""
        return _grid_spline(self.n, float(self.s_max))


@lru_cache(maxsize=16)
def _grid_spline(n, s_max):
    """The spline of RadialGrid(n, s_max), built once per grid size: its
    inverse takes n^2 floats and 2 ms to form at n = 257, and a refinement
    study or a loaded snapshot builds new grids of the same sizes."""
    return GridSpline(np.linspace(0.0, s_max, n))


class GridSpline:
    """Cubic spline interpolation through values at fixed knots.

    `spline.fit(values, slope)` is the spline clamped to first derivatives
    (0, slope) at the ends: zero by symmetry at the tip, the physical
    Neumann slope at s_max.  It fits a (K, n) block of values, K splines at
    once, and returns an evaluator of a (K, p) block of points; the frame
    map (`flow._frame_map`) is its one caller.  The slope system is scipy's
    cubic spline's, and `__init__` inverts it once, so a solve is one
    product with the inverse; it agrees with scipy to a few ulps of the
    data's scale.  The Hermite coefficients and the evaluation follow
    scipy's piecewise polynomial, and points beyond the knots extrapolate
    with the end pieces.  Non-finite values raise scipy's ValueError.
    """

    def __init__(self, knots):
        x = np.asarray(knots, dtype=float)
        dx = np.diff(x)
        self.knots, self.dx = x, dx
        self._inner_knots = x[1:-1].copy()
        # the slope system: interior row i is
        # dx_i m_{i-1} + 2 (dx_{i-1} + dx_i) m_i + dx_{i-1} m_{i+1}, and the
        # clamped end rows are m_0 = 0 and m_{n-1} = slope; never singular,
        # since the knots increase
        matrix = (np.diag(np.concatenate(([1.0], 2 * (dx[:-1] + dx[1:]), [1.0])))
                  + np.diag(np.append(0.0, dx[:-1]), 1) + np.diag(np.append(dx[1:], 0.0), -1))
        self._inverse = np.linalg.inv(matrix)
        self._inverse.setflags(write=False)

    def _solve(self, b):
        """The knot slopes m for the right-hand side b: one product with
        the slope system's inverse."""
        return self._inverse @ b

    def _slopes(self, values, slope):
        """The values as an array, the secants and the spline's knot slopes,
        for a (K, n) block of rows.  A block takes one product per row: a
        single matrix-matrix product moves the last bits."""
        y = np.asarray(values, dtype=float)
        if not np.isfinite(y).all():
            raise ValueError("`y` must contain only finite values.")
        dx = self.dx
        secant = (y[:, 1:] - y[:, :-1]) / dx
        rhs = np.empty(y.shape)
        rhs[:, 1:-1] = 3 * (dx[1:] * secant[:, :-1] + dx[:-1] * secant[:, 1:])
        rhs[:, 0], rhs[:, -1] = 0.0, slope
        m = np.empty(y.shape)
        for k, row in enumerate(rhs):
            m[k] = self._solve(row)
        return y, secant, m

    def maximum(self, values, slope):
        """The spline's largest value between the first and the last knot:
        the largest of its knot values and its values at the critical points
        inside each piece, which are the roots of a quadratic."""
        y, secant, m = (a[0] for a in self._slopes([values], slope))
        m0 = m[:-1]
        # a piece is y_i + dx tau (m0 + tau (c + tau t)) for tau in [0, 1],
        # t = m0 + m1 - 2 secant and c = secant - m0 - t; its derivative in
        # x is 3 t tau^2 + 2 c tau + m0, here scaled to coefficients of at
        # most 1 so that no square overflows
        t = m0 + m[1:] - 2.0 * secant
        c = secant - m0 - t
        scale = np.maximum(np.maximum(np.abs(t), np.abs(c)), np.abs(m0))
        scale[scale == 0.0] = 1.0
        qa, qb, qc = 3.0 * t / scale, 2.0 * c / scale, m0 / scale
        # both roots without cancellation; where there is no real root the
        # points found still lie on the piece, so they only add samples
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        best = float(np.max(y))
        for num, den in ((q, qa), (qc, q)):
            tau = np.divide(num, den, out=np.zeros_like(q), where=den != 0.0)
            tau = np.clip(tau, 0.0, 1.0)
            piece = y[:-1] + self.dx * tau * (m0 + tau * (c + tau * t))
            best = max(best, float(np.max(piece)))
        return best

    def fit(self, values, slope):
        """The splines through a (K, n) block of values, each clamped to
        (0, slope), with one end slope or K of them, as a function of a
        (K, p) block of points x, row k on spline k: one slope solve per row,
        however often it is evaluated.  Each row gets the bits it would get
        alone."""
        y, secant, m = self._slopes(values, slope)
        dx = self.dx
        # Hermite pieces y + m z + c1 z^2 + c0 z^3 on each interval; c1 and
        # c0 have a last column that no point reads, so that all four share
        # y's layout and one flat index reads a block's rows
        t = (m[:, :-1] + m[:, 1:] - 2 * secant) / dx
        c0, c1 = np.empty(y.shape), np.empty(y.shape)
        np.divide(t, dx, out=c0[:, :-1])
        np.subtract((secant - m[:, :-1]) / dx, t, out=c1[:, :-1])
        pieces = [a.ravel() for a in (y, m, c1, c0)]
        inner_knots, knots = self._inner_knots, self.knots

        def evaluate(x):
            # the piece containing x: half-open intervals, the last one
            # closed, and the end pieces extrapolate
            x = np.asarray(x, dtype=float)
            i = np.searchsorted(inner_knots, x, "right")
            z = x - knots[i]
            i += np.arange(len(y))[:, None] * y.shape[1]  # row k's points read row k's pieces
            y_i, m_i, c1_i, c0_i = (a[i] for a in pieces)
            zz = z * z
            return 0.0 + y_i + m_i * z + c1_i * zz + c0_i * (zz * z)

        return evaluate


@dataclass
class ConformalState:
    """A conformal metric on a grid: g = e^{log_factor} g_E.

    The log factor is u~; `edge_slope` is its Neumann slope, carried by the
    outer ghost node.  Each derived field is computed once, on first use:
    e^{-u~} (`diffusivity`), the Laplacian rows (`laplacian`, with the
    `differences` they were taken from), R (`curvature`) and the stiffness
    rho (`stiffness`).  A state is treated as an immutable value, so the
    caches never go stale.
    """

    grid: RadialGrid
    log_factor: np.ndarray
    edge_slope: float = 0.0

    def __post_init__(self):
        self.log_factor = np.asarray(self.log_factor, dtype=float)
        expected = (self.grid.n,)
        if self.log_factor.shape != expected:
            raise ValueError(
                f"log_factor shape {self.log_factor.shape} does not match grid {expected}"
            )

    @cached_property
    def diffusivity(self):
        """e^{-u~}, the factor of Lap_g = e^{-u~} Lap_E (computed once)."""
        return np.exp(-self.log_factor)

    @cached_property
    def _rows(self):
        """Lap_E u~ with the edge slope and the differences diff(u~) its rows
        were taken from (`_laplacian_rows`; computed once)."""
        rows = np.empty(self.grid.n)
        return rows, _laplacian_rows(self.log_factor, self.grid, self.edge_slope, rows)

    @property
    def laplacian(self):
        """Lap_E u~, the rows that the curvature and the stepped rate at this
        state (`flow.FlowState.rate`) share."""
        return self._rows[0]

    @property
    def differences(self):
        """diff(u~), which the co-moving advection of the stepped rate reads."""
        return self._rows[1]

    @cached_property
    def curvature(self):
        """Scalar curvature field R (computed once)."""
        return scalar_curvature(self)

    @cached_property
    def stiffness(self):
        """rho = max(e^{-u~} rows), rows the grid's `gershgorin_rows`: a bound
        on the spectral radius of e^{-u~} Lap_E for every diffusivity, which
        sets an RKC2 step's stage count and caps its dt (computed once); a
        ValueError where e^{-u~} overflowed."""
        if not np.isfinite(self.diffusivity).all():
            raise ValueError(
                "diffusivity e^{-u} overflowed; rescale the initial data or use "
                "the co-moving frame"
            )
        return float((self.diffusivity * self.grid.gershgorin_rows).max())


def _check_field(f, grid):
    """The field as a float array of the grid's shape.  Its values are not
    scanned: a non-finite value propagates to the rows that read it."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size != grid.n:
        raise ValueError("field does not match grid")
    return f


# the tip nodes 0, 1, 2 and the edge nodes n-3, n-2, n-1, which the tip and
# edge rows read
_END_NODES = np.array([0, 1, 2, -3, -2, -1])


# [1:], [:-1] and [1:-1] along the last axis, built once: numpy reads a
# prebuilt index faster than a slice written out
_HI, _LO, _INNER = (..., slice(1, None)), (..., slice(None, -1)), (..., slice(1, -1))


def _laplacian_pass(f, out, d, views, scratch, grid, edge_slope):
    """Write Lap_E f into `out` and the differences d = diff(f) into `d`, and
    return `d`: one pass of the stencil, on the arrays' `views` f[1:],
    f[:-1], d[1:], d[:-1] and out[1:-1] along the last axis, with `scratch`
    of the interior rows' shape (None for a new array).

    `f` is one field or a (K, n) block of fields, one per row, each with its
    own edge slope (a scalar, or K of them).  Interior row i is
    lap_up_i d_i - lap_down_i d_{i-1}.  A pass is four ufuncs writing into
    the given arrays, one `take` of the tip and edge nodes and the two end
    rows, and slices nothing, so a caller that holds its views and buffers
    takes pass after pass for the cost of the arithmetic: an RKC2 step's
    one stage binding (`flow._bind_stage`).  A field's end rows are taken in
    Python floats, which are cheaper than numpy scalars and round the same;
    a block's are taken as columns, which round the same too, so each row of
    a block gets the bits it would get alone.
    """
    # Tip row: 2 F''(0) with the truncation coefficient h^2 (F''''/4 - F''/3),
    # matching the s->0 limit of the interior conservative stencil.  A plain
    # 4(f1-f0)/h^2 tip carries F''''/6 instead; the O(1) coefficient jump is
    # invisible in the operator itself but pollutes compositions such as
    # Lap_g(R^h) at the axis with an O(1) error.  The edge row uses the
    # cubic-Hermite ghost for the same reason: the ghost is the value at
    # s_max + h of the cubic through the last three nodes with the prescribed
    # derivative at the edge node (O(h^4) for the true slope), and the row is
    # the ghost flux a_{n-1/2} (ghost - f_{n-1}) less the flux
    # a_{n-3/2} (f_{n-1} - f_{n-2}), over b h^2.  The jump ghost - f_{n-1} is
    # taken in difference form, so that a constant field gives exactly 0.
    f_hi, f_lo, d_hi, d_lo, inner = views
    np.subtract(f_hi, f_lo, d)
    np.multiply(grid.lap_up, d_hi, inner)
    scratch = np.multiply(grid.lap_down, d_lo, scratch)
    np.subtract(inner, scratch, inner)
    if f.ndim == 1:
        f0, f1, f2, e3, e2, e1 = f.take(_END_NODES).tolist()
    else:
        f0, f1, f2, e3, e2, e1 = f.take(_END_NODES, axis=1).T
        out = out.T  # out[0] and out[-1] are then the tip and edge columns
    out[0] = ((10.0 / 3.0) * (f1 - f0) + (f2 - f0) / 6.0) / grid.h2 - (2.0 / 3.0) * (f1 - f0)
    a_out, a_in, bh2, h = grid.edge_coefficients
    jump = 3.0 * (e2 - e1) + 0.5 * (e1 - e3) + 3.0 * h * edge_slope
    out[-1] = (a_out * jump - a_in * (e1 - e2)) / bh2
    return d


def _laplacian_rows(f, grid, edge_slope, out):
    """Write Lap_E f into `out` and return the differences d = diff(f), for
    one field or a (K, n) block: one `_laplacian_pass` on new buffers.
    `background_laplacian`, `ConformalState.laplacian` and
    `flow.record_block` take their rows here, and each RKC2 stage takes its
    pass on the buffers its step's one binding owns (`flow._bind_stage`),
    so all give the same bits."""
    f_hi = f[_HI]
    d = np.empty_like(f_hi)
    views = f_hi, f[_LO], d[_HI], d[_LO], out[_INNER]
    return _laplacian_pass(f, out, d, views, None, grid, edge_slope)


def _radial_derivative(grid, f, edge_slope):
    """Centered d/ds with the symmetry ghost at the tip (odd reflection), of
    one field or of each row of a block, with one edge slope or one per row."""
    out = np.empty_like(f)
    out[..., 0] = 0.0
    out[..., 1:-1] = (f[..., 2:] - f[..., :-2]) / (2.0 * grid.h)
    out[..., -1] = edge_slope
    return out


def _edge_slope_estimate(grid, values):
    """Third-order one-sided derivative of a radial field at the outer edge:
    a float, or an array of one per row of a block."""
    slope = ((11.0 * values[..., -1] - 18.0 * values[..., -2] + 9.0 * values[..., -3]
              - 2.0 * values[..., -4]) / (6.0 * grid.h))
    return float(slope) if np.ndim(values) == 1 else slope


def _metric_gradient_sq(grid, f, log_factor, edge_slope):
    """|grad f|^2 in the metric e^{log_factor} g_E: e^{-log_factor} |d f|_{g_E}^2."""
    dr = _radial_derivative(grid, f, edge_slope) / grid.cosh_s
    return np.exp(-log_factor) * dr * dr


def background_laplacian(f, grid, edge_slope=0.0):
    """Euclidean Laplacian Lap_E f.

    `f` is a rotationally symmetric profile in s; the outer ghost node
    carries `edge_slope` as the Neumann slope of f.  With the default slope 0
    the operator annihilates constants exactly at every node.  Its rows are
    `_laplacian_rows`, the stencil each RKC2 stage takes too.
    """
    f = _check_field(f, grid)
    out = np.empty_like(f)
    _laplacian_rows(f, grid, edge_slope, out)
    return out


def scalar_curvature(state):
    """R = -e^{-u~} Lap_E u~, from the state's cached Laplacian rows."""
    # 0.0 - lap, not -lap: the flat plane's curvature stays +0.0, never -0.0
    return state.diffusivity * (0.0 - state.laplacian)


def metric_laplacian(f, state, edge_slope=0.0):
    """Laplacian of `f` in the metric: Lap_g = e^{-u~} Lap_E."""
    lap = background_laplacian(f, state.grid, edge_slope)
    return state.diffusivity * lap


# ---------------------------------------------------------------------------
# the Ricci potential: Lap_g f = R with f(origin) = 0
# ---------------------------------------------------------------------------

def solve_initial_potential(state):
    """The Ricci potential of the state's metric, in closed form.

    Returns (f, edge_slope), f in the gauge f_0 = 0.  Since R = -e^{-u~}
    Lap_E u~, the potential is f = u~_0 - u~, whose Neumann slope is minus
    u~'s: `metric_laplacian` applied to it gives R up to rounding, at every
    node and for every state.  With w0 = u~_0 this is the identity
    f = w0 - u~, which `flow.FlowState.potential` reads at every later time.
    """
    u_tilde = state.log_factor
    return u_tilde[0] - u_tilde, -state.edge_slope


# ---------------------------------------------------------------------------
# width and circumference-at-infinity estimators
# ---------------------------------------------------------------------------

@dataclass
class WidthReport:
    """Estimates from the level lengths of the radial proper function.

    `width_bound` is an upper bound for the metric width (the true width is
    an infimum over all proper functions; only the radial one is sampled).
    `bounded` is False when the lengths are still climbing by more than 1%
    over the outermost 10% of levels, as on the flat plane.
    """

    width_bound: float
    cinf_estimate: float
    bounded: bool


def level_length(state, c):
    """Length of the circle {r = c} in the metric g.

    Evaluates 2 pi c e^{u~(c)/2} with u~ interpolated linearly in s between
    nodes.
    """
    if not np.isfinite(c) or c < 0:
        raise ValueError("level radius must be finite and non-negative")
    grid = state.grid
    if c > grid.r[-1] * (1.0 + 1e-12):
        raise ValueError(f"level r={c} outside grid (r_max={grid.r[-1]:.6g})")
    u_t = state.log_factor
    sc = np.arcsinh(c)
    val = np.interp(sc, grid.s, u_t)
    return 2.0 * np.pi * c * np.exp(0.5 * val)


def _width_estimates(grid, log_factor):
    """The level lengths 2 pi r e^{u~/2} at every grid radius past the tip,
    of one profile or of each row of a block, with their largest value (the
    width bound) and their mean over the outermost 5% (the C_inf estimate)."""
    lengths = 2.0 * np.pi * grid.r[1:] * np.exp(0.5 * log_factor[..., 1:])
    k_tail = max(1, int(np.ceil(0.05 * (grid.n - 1))))
    # the sum over k_tail, as np.mean takes it
    return lengths, lengths.max(axis=-1), lengths[..., -k_tail:].sum(axis=-1) / k_tail


def width_report(state):
    """Sample level lengths at every grid radius and report the estimates."""
    lengths, width_bound, cinf = _width_estimates(state.grid, state.log_factor)
    k_rise = max(2, int(np.ceil(0.10 * lengths.size)))
    base = lengths[-k_rise]
    rise = (lengths[-1] - base) / max(abs(base), 1e-300)
    bounded = bool(rise <= 0.01)
    return WidthReport(float(width_bound), float(cinf), bounded)
