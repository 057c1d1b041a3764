"""Discrete differential geometry on radial grids.

Conformal states carry a log conformal factor against one of two backgrounds:

    euclidean   g = e^{u~} g_E          (u~ is the Euclidean log factor)
    cigar       g = u g_c,  field = log u

Radial grids are uniform in the cigar arc length s = arcsinh(r): the cigar
end is an asymptotic cylinder in s, so uniform s-spacing resolves the
geometry evenly where an r-grid would waste nodes.  Radial Laplacians use
the conservative second-order form

    (1/b(s)) d/ds ( a(s) dF/ds ),   a = tanh s,
    b = sinh s cosh s  (euclidean)  or  b = tanh s  (cigar),

with the tip limit 2 F''(0) (from a(s) ~ b(s) ~ s near the axis),
discretized so that its truncation error matches the interior family's
s -> 0 limit, h^2 (F''''/4 - F''/3) -- see _radial_laplacian.  The outer
edge uses a cubic-Hermite ghost carrying a prescribed Neumann slope (for
cigar-tailed data the exact slope of the log factor is -2 tanh s_max).

Scalar curvature follows the conformal formula
    R(g) = u^{-1} (-Lap_{g0} log u + R_0),
with R_0 = 0 for g_E and R_0 = 4 cosh^{-2} s for g_c (supplied analytically).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from cigarflow import cigar

__all__ = [
    "RadialGrid",
    "ConformalState",
    "background_laplacian",
    "scalar_curvature",
    "metric_laplacian",
    "solve_initial_potential",
    "level_length",
    "width_report",
    "WidthReport",
]

EUCLIDEAN = "euclidean"
CIGAR = "cigar"

MIN_NODES = 16


@dataclass
class RadialGrid:
    """Uniform grid in cigar arc length s on [0, s_max]; node 0 is the tip."""

    n: int
    s_max: float

    def __post_init__(self):
        if self.n < MIN_NODES:
            raise ValueError(f"radial grid needs at least {MIN_NODES} nodes, got {self.n}")
        if not (np.isfinite(self.s_max) and self.s_max > 0):
            raise ValueError("s_max must be positive and finite")
        self.s = np.linspace(0.0, self.s_max, self.n)
        self.h = self.s[1] - self.s[0]
        self.r = np.sinh(self.s)
        self.tanh_s = np.tanh(self.s)
        self.cosh_s = np.cosh(self.s)
        # half-node conductivities a_{i+1/2} = tanh(s_i + h/2)
        self.a_half = np.tanh(self.s + 0.5 * self.h)
        self.b_euclidean = self.r * self.cosh_s
        self.b_cigar = self.tanh_s



@dataclass
class ConformalState:
    """A conformal metric on a grid: g = e^{log_factor} * background.

    For the euclidean background the log factor is u~ with g = e^{u~} g_E;
    for the cigar background it is log u with g = u g_c.  `edge_slope` is the
    Neumann slope of the log factor carried by the outer ghost node.
    """

    grid: RadialGrid
    background: str
    log_factor: np.ndarray
    edge_slope: float = 0.0
    _curvature: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.background not in (EUCLIDEAN, CIGAR):
            raise ValueError(f"unknown background {self.background!r}")
        self.log_factor = np.asarray(self.log_factor, dtype=float)
        expected = (self.grid.n,)
        if self.log_factor.shape != expected:
            raise ValueError(
                f"log_factor shape {self.log_factor.shape} does not match grid {expected}"
            )

    @property
    def curvature(self):
        """Scalar curvature field R (computed once, then cached)."""
        if self._curvature is None:
            self._curvature = scalar_curvature(self)
        return self._curvature

    @property
    def gauss_curvature(self):
        """Gauss curvature K = R/2."""
        return 0.5 * self.curvature

    @property
    def euclidean_log_factor(self):
        """u~ such that g = e^{u~} g_E, regardless of background."""
        if self.background == EUCLIDEAN:
            return self.log_factor
        return self.log_factor + self._log_w0()

    def _log_w0(self):
        return -cigar.cigar_potential_arclength(self.grid.s)

    def to_euclidean(self):
        """Rewrite against g_E: u~ = log u + log w0 (slope shifts by -2 tanh s_max)."""
        if self.background == EUCLIDEAN:
            return self
        slope = self.edge_slope - 2.0 * np.tanh(self.grid.s_max)
        return ConformalState(self.grid, EUCLIDEAN, self.log_factor + self._log_w0(), slope)

    def to_cigar(self):
        """Rewrite against g_c: log u = u~ - log w0."""
        if self.background == CIGAR:
            return self
        slope = self.edge_slope + 2.0 * np.tanh(self.grid.s_max)
        return ConformalState(self.grid, CIGAR, self.log_factor - self._log_w0(), slope)


def _check_field(f, grid):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size != grid.n:
        raise ValueError("field does not match grid")
    if not np.all(np.isfinite(f)):
        raise ValueError("field contains non-finite values")
    return f


def _edge_ghost_jump(f, h, edge_slope):
    """ghost - f[-1], where the ghost is the value at s_max + h of the cubic
    through the last three nodes with the prescribed derivative at the edge
    node (O(h^4) for the true slope).  Difference form so that constant
    fields produce an exactly zero jump."""
    return 3.0 * (f[-2] - f[-1]) + 0.5 * (f[-1] - f[-3]) + 3.0 * h * edge_slope


def _radial_laplacian(f, grid, b, edge_slope):
    # Tip row: 2 F''(0) with the truncation coefficient h^2 (F''''/4 - F''/3),
    # matching the s->0 limit of the interior conservative stencil.  A plain
    # 4(f1-f0)/h^2 tip carries F''''/6 instead; the O(1) coefficient jump is
    # invisible in the operator itself but pollutes compositions such as
    # Lap_g(R^h) at the axis with an O(1) error.  The edge row uses the
    # cubic-Hermite ghost for the same reason.
    h = grid.h
    a = grid.a_half
    out = np.empty_like(f)
    out[0] = ((10.0 / 3.0) * (f[1] - f[0]) + (f[2] - f[0]) / 6.0) / h**2 - (2.0 / 3.0) * (
        f[1] - f[0]
    )
    out[1:-1] = (a[1:-1] * (f[2:] - f[1:-1]) - a[0:-2] * (f[1:-1] - f[:-2])) / (b[1:-1] * h**2)
    jump = _edge_ghost_jump(f, h, edge_slope)
    out[-1] = (a[-1] * jump - a[-2] * (f[-1] - f[-2])) / (b[-1] * h**2)
    return out


def background_laplacian(f, grid, background=EUCLIDEAN, edge_slope=0.0):
    """Laplacian of `f` with respect to the background metric.

    `f` is a rotationally symmetric profile in s; the outer ghost node
    carries `edge_slope` as the Neumann slope of f.  With the default slope 0
    the operator annihilates constants exactly at every node.
    """
    f = _check_field(f, grid)
    if background not in (EUCLIDEAN, CIGAR):
        raise ValueError(f"unknown background {background!r}")
    b = grid.b_euclidean if background == EUCLIDEAN else grid.b_cigar
    return _radial_laplacian(f, grid, b, edge_slope)


def background_curvature(grid, background):
    """Scalar curvature R_0 of the background metric, evaluated analytically."""
    if background == EUCLIDEAN:
        return np.zeros(grid.n)
    return cigar.cigar_curvature_arclength(grid.s)


def scalar_curvature(state):
    """R = u^{-1} (-Lap_{g0} log u + R_0) for the state's background."""
    lap = background_laplacian(state.log_factor, state.grid, state.background, state.edge_slope)
    r0 = background_curvature(state.grid, state.background)
    return np.exp(-state.log_factor) * (r0 - lap)


def metric_laplacian(f, state, edge_slope=0.0):
    """Laplacian of `f` in the evolving metric: Lap_g = u^{-1} Lap_{g0}."""
    lap = background_laplacian(f, state.grid, state.background, edge_slope)
    return np.exp(-state.log_factor) * lap


# ---------------------------------------------------------------------------
# initial Ricci potential: solve Lap_g f = R with f(origin) = 0
# ---------------------------------------------------------------------------

def solve_initial_potential(state):
    """Solve Lap_g f = R for the Ricci potential of the state's metric.

    Returns (f, edge_slope).  The discrete radial Laplacian is inverted
    exactly (to rounding): the same stencil rows that `metric_laplacian`
    applies -- the tip row plus the conservative interior rows -- are solved
    for f_1..f_{N-1} with the gauge f_0 = 0, so the discrete residual is at
    rounding level at every node.  The outer row then determines the Neumann
    slope the potential carries from that point on: the ghost value is read
    off the last stencil row rather than prescribed.
    """
    rhs = _check_field(state.curvature, state.grid)
    grid = state.grid
    n, h = grid.n, grid.h
    a = grid.a_half
    u = np.exp(state.log_factor)
    b = grid.b_euclidean if state.background == EUCLIDEAN else grid.b_cigar
    target = rhs * u  # rows of Lap_{g0} f = u R

    # unknowns f_1..f_{n-1}; equations at nodes 0..n-2
    m = n - 1
    A = sparse.lil_matrix((m, m))
    rv = target[:-1].copy()
    # tip row (f_0 = 0 dropped from the unknowns; coefficients match the
    # difference form of the tip stencil)
    A[0, 0] = (10.0 / 3.0) / h**2 - 2.0 / 3.0
    A[0, 1] = 1.0 / (6.0 * h**2)
    # interior rows i = 1..n-2: columns i-1, i, i+1 -> unknown indices i-2, i-1, i
    for i in range(1, n - 1):
        c = 1.0 / (b[i] * h**2)
        if i >= 2:
            A[i, i - 2] = a[i - 1] * c
        A[i, i - 1] = -(a[i] + a[i - 1]) * c
        A[i, i] = a[i] * c
    lu = splu(A.tocsc())
    sol = lu.solve(rv)
    sol += lu.solve(rv - A @ sol)   # one refinement pass
    f = np.concatenate([[0.0], sol])

    # outer row: a_{-1} jump - a_{-2}(f_{-1} - f_{-2}) = target_{-1} b_{-1} h^2,
    # then invert the ghost-jump formula for the slope the potential carries
    jump = (target[-1] * b[-1] * h**2 + a[-2] * (f[-1] - f[-2])) / a[-1]
    slope = (jump - 3.0 * (f[-2] - f[-1]) - 0.5 * (f[-1] - f[-3])) / (3.0 * h)
    return f, slope


# ---------------------------------------------------------------------------
# width and circumference-at-infinity estimators
# ---------------------------------------------------------------------------

@dataclass
class WidthReport:
    """Level lengths of the radial proper function and the derived estimates.

    `width_bound` is an upper bound for the metric width (the true width is
    an infimum over all proper functions; only the radial one is sampled).
    `bounded` is False when the lengths are still climbing by more than 1%
    over the outermost 10% of levels, as on the flat plane.
    """

    levels: np.ndarray
    lengths: np.ndarray
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
    u_t = state.euclidean_log_factor
    sc = np.arcsinh(c)
    val = np.interp(sc, grid.s, u_t)
    return 2.0 * np.pi * c * np.exp(0.5 * val)


def width_report(state):
    """Sample level lengths at every grid radius and report the estimates."""
    levels = state.grid.r[1:]
    u_t = state.euclidean_log_factor[1:]
    lengths = 2.0 * np.pi * levels * np.exp(0.5 * u_t)
    width_bound = float(np.max(lengths))
    k_tail = max(1, int(np.ceil(0.05 * lengths.size)))
    cinf = float(np.mean(lengths[-k_tail:]))
    k_rise = max(2, int(np.ceil(0.10 * lengths.size)))
    base = lengths[-k_rise]
    rise = (lengths[-1] - base) / max(abs(base), 1e-300)
    bounded = bool(rise <= 0.01)
    return WidthReport(levels, lengths, width_bound, cinf, bounded)
