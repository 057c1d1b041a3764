import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from cigarflow import cigar, geometry
from cigarflow.geometry import (
    MAX_NODES,
    MIN_NODES,
    MIN_S_MAX,
    ConformalState,
    RadialGrid,
    background_laplacian,
    level_length,
    metric_laplacian,
    scalar_curvature,
    solve_initial_potential,
    width_report,
)


def cigar_state(n=129, s_max=8.0):
    grid = RadialGrid(n, s_max)
    u_t = -cigar.cigar_potential_arclength(grid.s)
    return ConformalState(grid, u_t, -2.0 * np.tanh(s_max))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(8, 8.0)
    with pytest.raises(ValueError):
        RadialGrid(65, -1.0)
    with pytest.raises(ValueError):
        RadialGrid(65, float("inf"))
    with pytest.raises(ValueError):
        RadialGrid(65, float("nan"))
    # 8193 nodes: refused before a spline of that size (n^2 floats) is formed
    splines = geometry._grid_spline.cache_info()
    with pytest.raises(ValueError, match=f"{MIN_NODES} to {MAX_NODES} nodes, got 8193"):
        RadialGrid(8193, 8.0)
    assert geometry._grid_spline.cache_info() == splines
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before sinh s cosh s overflows
        for s_max in (355.4, 400.0, 800.0):
            with pytest.raises(ValueError):
                RadialGrid(65, s_max)
    g = RadialGrid(65, 8.0)
    assert g.s[0] == 0.0 and g.s[-1] == 8.0
    assert g.h * (g.n - 1) == pytest.approx(8.0, rel=1e-15)


def test_smallest_grid_forms_finite_coefficients():
    # at MIN_S_MAX every coefficient is finite and formed without a warning,
    # and its smallest denominator b_1 h^2 is a normal float64, up to MAX_NODES
    tiny = np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (MIN_NODES + 1, MAX_NODES):
            g = RadialGrid(n, MIN_S_MAX)
            coefficients = [g.h2, g.bh2, g.lap_up, g.lap_down, g.advection,
                            g.edge_coefficients, g.gershgorin_rows]
            assert all(np.isfinite(c).all() for c in coefficients)
            assert g.bh2[1] >= tiny
        assert np.isfinite(RadialGrid(MIN_NODES + 1, MIN_S_MAX).spline._inverse).all()
        for s_max in (MIN_S_MAX / 2, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="s_max must be in"):
                RadialGrid(MIN_NODES + 1, s_max)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

GRID_N = st.integers(min_value=MIN_NODES, max_value=257)
GRID_S_MAX = st.floats(min_value=0.5, max_value=8.0)


@settings(max_examples=50, deadline=None, database=None)
@given(GRID_N, GRID_S_MAX, st.floats(allow_nan=False, allow_infinity=False))
def test_laplacian_annihilates_constants(n, s_max, constant):
    g = RadialGrid(n, s_max)
    out = background_laplacian(np.full(g.n, constant), g)
    np.testing.assert_array_equal(out, np.zeros(g.n))


def test_laplacian_rejects_bad_fields():
    g = RadialGrid(65, 8.0)
    with pytest.raises(ValueError):
        background_laplacian(np.zeros(10), g)
    # values are not scanned: a NaN reaches only the rows that read it
    bad = np.zeros(g.n)
    bad[3] = np.nan
    assert np.flatnonzero(np.isnan(background_laplacian(bad, g))).tolist() == [2, 3, 4]


def test_cigar_laplacian_of_potential_gives_curvature():
    # Lap_{g_c} f0 = R_c, with g_c = e^{-f0} g_E
    errs = {}
    for n in (65, 129):
        state = cigar_state(n)
        g = state.grid
        f0 = cigar.cigar_potential_arclength(g.s)
        lap = metric_laplacian(f0, state, edge_slope=2.0 * np.tanh(g.s_max))
        errs[n] = np.max(np.abs(lap - cigar.cigar_curvature_arclength(g.s)))
    assert errs[129] <= 0.05
    assert 1.8 <= np.log2(errs[65] / errs[129]) <= 2.2


# entries of any size from 1e-3 to 1e6 (or zero); smaller ones would let the
# products underflow, where rounding is no longer relative
ENTRIES = st.just(0.0) | st.floats(1e-3, 1e6) | st.floats(-1e6, -1e-3)


@settings(max_examples=50, deadline=None, database=None)
@given(st.data(), GRID_N, GRID_S_MAX)
def test_radial_laplacian_symmetry_quadratic_form(data, n, s_max):
    # <phi, L psi>_b = <psi, L phi>_b for interior-supported fields, to
    # rounding: the tolerance scales with the size of the summands
    g = RadialGrid(n, s_max)
    b = g.b_euclidean
    values = arrays(np.float64, n, elements=ENTRIES)
    phi = data.draw(values)
    psi = data.draw(values)
    for f in (phi, psi):
        f[:3] = 0.0
        f[-3:] = 0.0
    lhs = b[1:-1] * phi[1:-1] * background_laplacian(psi, g)[1:-1]
    rhs = b[1:-1] * psi[1:-1] * background_laplacian(phi, g)[1:-1]
    tol = 8.0 * np.finfo(float).eps * (np.sum(np.abs(lhs)) + np.sum(np.abs(rhs)))
    assert abs(np.sum(lhs) - np.sum(rhs)) <= tol


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def test_curvature_constant_rescale():
    state = cigar_state(65)
    lam = 2.0
    scaled = ConformalState(state.grid, state.log_factor + np.log(lam), state.edge_slope)
    np.testing.assert_allclose(scaled.curvature, state.curvature / lam, rtol=1e-13)


def _even_bumps(s, amplitude):
    """A (e^{-(s-2)^2} + e^{-(s+2)^2}) and its first two s-derivatives: even
    in s, so the metric is smooth at the tip (a one-sided bump is a cone)."""
    left, right = np.exp(-((s - 2.0) ** 2)), np.exp(-((s + 2.0) ** 2))
    d1 = -2.0 * (s - 2.0) * left - 2.0 * (s + 2.0) * right
    d2 = (4.0 * (s - 2.0) ** 2 - 2.0) * left + (4.0 * (s + 2.0) ** 2 - 2.0) * right
    return amplitude * (left + right), amplitude * d1, amplitude * d2


def test_curvature_matches_closed_form():
    # u~ = -f0 + bumps against R = -e^{-u~} Lap_E u~ in closed form, with
    # Lap_E F = F'' / cosh^2 s + F' / (sinh s cosh^3 s) and 2 F''(0) at the tip
    errs = {}
    for n in (65, 129, 257):
        g = RadialGrid(n, 8.0)
        s = g.s
        bump, d1, d2 = _even_bumps(s, 0.2)
        u_t = bump - cigar.cigar_potential_arclength(s)
        du = d1 - 2.0 * g.tanh_s
        d2u = d2 - 2.0 / g.cosh_s**2
        lap = np.empty(n)
        lap[0] = 2.0 * d2u[0]
        lap[1:] = d2u[1:] / g.cosh_s[1:] ** 2 + du[1:] / (g.r[1:] * g.cosh_s[1:] ** 3)
        state = ConformalState(g, u_t, du[-1])
        errs[n] = np.max(np.abs(state.curvature + np.exp(-u_t) * lap))
        assert errs[n] <= 2.5 * g.h**2
    assert 1.8 <= np.log2(errs[65] / errs[129]) <= 2.2
    assert 1.8 <= np.log2(errs[129] / errs[257]) <= 2.2


def test_curvature_of_exact_family_on_euclidean_background():
    # refinement study at t = 0.25: R(origin) -> 4, observed order ~2
    errs = {}
    for n in (65, 129, 257):
        g = RadialGrid(n, 8.0)
        t = 0.25
        u_t = cigar.soliton_log_factor(g.r, t)
        slope = float(-2 * np.sinh(8.0) * np.cosh(8.0) / (np.exp(4 * t) + np.sinh(8.0) ** 2))
        state = ConformalState(g, u_t, slope)
        exact = cigar.soliton_scalar_curvature(g.r, t)
        errs[n] = np.max(np.abs(state.curvature - exact))
        assert state.curvature[0] == pytest.approx(4.0, abs=20.0 * g.h**2)
    order1 = np.log2(errs[65] / errs[129])
    order2 = np.log2(errs[129] / errs[257])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


# ---------------------------------------------------------------------------
# metric Laplacian
# ---------------------------------------------------------------------------

def test_metric_laplacian_reduces_to_background():
    g = RadialGrid(65, 8.0)
    flat = ConformalState(g, np.zeros(g.n), 0.0)
    f0 = cigar.cigar_potential_arclength(g.s)
    slope = 2.0 * np.tanh(g.s_max)
    np.testing.assert_array_equal(
        metric_laplacian(f0, flat, slope), background_laplacian(f0, g, slope)
    )


def test_metric_laplacian_of_potential_over_cigar():
    one = cigar_state(129)
    g = one.grid
    f0 = cigar.cigar_potential_arclength(g.s)
    slope = 2.0 * np.tanh(g.s_max)
    r_c = cigar.cigar_curvature_arclength(g.s)
    assert np.max(np.abs(metric_laplacian(f0, one, slope) - r_c)) <= 0.02
    two = ConformalState(g, one.log_factor + np.log(2.0), one.edge_slope)
    assert np.max(np.abs(metric_laplacian(f0, two, slope) - r_c / 2.0)) <= 0.01


# ---------------------------------------------------------------------------
# initial potential
# ---------------------------------------------------------------------------

def test_potential_solve_recovers_cigar_potential():
    state = cigar_state(129)
    f, slope = solve_initial_potential(state)
    f0 = cigar.cigar_potential_arclength(state.grid.s)
    assert f[0] == 0.0
    # the discrete curvature of the exact factor inverts back to f0 exactly
    np.testing.assert_allclose(f, f0, atol=1e-12)
    res = metric_laplacian(f, state, slope) - state.curvature
    assert np.max(np.abs(res)) <= 1e-10


def test_potential_solve_scaled_metric_same_potential():
    state = cigar_state(129)
    scaled = ConformalState(
        state.grid, state.log_factor + np.log(2.0), state.edge_slope
    )
    f1, _ = solve_initial_potential(state)
    f2, _ = solve_initial_potential(scaled)
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_potential_solve_perturbed_residual():
    g = RadialGrid(129, 8.0)
    bump = 0.3 * np.exp(-((g.s - 2.0) ** 2) / (2 * 0.25))
    u_t = bump - cigar.cigar_potential_arclength(g.s)
    state = ConformalState(g, u_t, -2.0 * np.tanh(g.s_max))
    f, slope = solve_initial_potential(state)
    res = metric_laplacian(f, state, slope) - state.curvature
    assert np.max(np.abs(res)) <= 1e-10
    gap = np.abs(cigar.cigar_potential_arclength(g.s) - f)
    assert np.all(np.isfinite(gap))


def _loop_potential_solve(state):
    """Reference: the stencil rows assembled one by one into a sparse matrix
    and inverted by LU with one refinement pass."""
    g = state.grid
    n, h, a, b = g.n, g.h, g.a_half, g.b_euclidean
    target = state.curvature * np.exp(state.log_factor)
    A = sparse.lil_matrix((n - 1, n - 1))
    A[0, 0] = (10.0 / 3.0) / h**2 - 2.0 / 3.0
    A[0, 1] = 1.0 / (6.0 * h**2)
    for i in range(1, n - 1):
        c = 1.0 / (b[i] * h**2)
        if i >= 2:
            A[i, i - 2] = a[i - 1] * c
        A[i, i - 1] = -(a[i] + a[i - 1]) * c
        A[i, i] = a[i] * c
    lu = splu(A.tocsc())
    sol = lu.solve(target[:-1])
    sol += lu.solve(target[:-1] - A @ sol)
    f = np.concatenate([[0.0], sol])
    jump = (target[-1] * b[-1] * h**2 + a[-2] * (f[-1] - f[-2])) / a[-1]
    return f, (jump - 3.0 * (f[-2] - f[-1]) - 0.5 * (f[-1] - f[-3])) / (3.0 * h)


POTENTIAL_CASES = [(17, 8.0), (65, 8.0), (129, 8.0), (257, 8.0), (129, 100.0), (257, 350.0)]


@pytest.mark.parametrize("n, s_max", POTENTIAL_CASES,
                         ids=[str(n) if s_max == 8.0 else f"{n}-{s_max:g}"
                              for n, s_max in POTENTIAL_CASES])
def test_potential_solve_matches_loop_assembly(n, s_max):
    # the flux-sum solve and the LU of the assembled rows solve one system:
    # they agree to rounding, and the flux sum leaves no larger residual
    g = RadialGrid(n, s_max)
    bump = 0.3 * np.exp(-((g.s - 2.0) ** 2) / (2 * 0.25)) + 0.1 * np.sin(3.0 * g.s)
    state = ConformalState(g, bump - cigar.cigar_potential_arclength(g.s), -2.0 * np.tanh(s_max))
    f, slope = solve_initial_potential(state)
    f_ref, slope_ref = _loop_potential_solve(state)
    assert np.max(np.abs(f - f_ref)) <= 1e-11 * np.max(np.abs(f_ref))
    assert abs(slope - slope_ref) <= 1e-10
    res = np.max(np.abs(metric_laplacian(f, state, slope) - state.curvature))
    res_ref = np.max(np.abs(metric_laplacian(f_ref, state, slope_ref) - state.curvature))
    assert res <= res_ref + 1e-13


# ---------------------------------------------------------------------------
# the spline's slope solve against LAPACK
# ---------------------------------------------------------------------------

def _lapack_slopes(knots, rhs):
    """The clamped spline's slope system solved by LAPACK's gttrf and gttrs."""
    dx = np.diff(knots)
    diag = np.empty(knots.size)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    upper = np.empty(dx.size)
    upper[1:] = dx[:-1]
    lower = np.empty(dx.size)
    lower[:-1] = dx[1:]
    diag[0], upper[0], diag[-1], lower[-1] = 1.0, 0.0, 1.0, 0.0
    dl, d, du, du2, ipiv, info = lapack.dgttrf(lower, diag, upper)
    assert info == 0
    m, info = lapack.dgttrs(dl, d, du, du2, ipiv, rhs[:, None].copy())
    assert info == 0
    return m[:, 0]


# spacings h = 0.25, 0.125, 1, 1.01, 1.875, 2.2 and 0.68; LAPACK's
# elimination interchanges the first two rows exactly when h > 1
SOLVE_CASES = [(17, 4.0), (65, 8.0), (17, 16.0), (41, 40.4), (33, 60.0), (16, 33.0), (513, 350.0)]


@pytest.mark.parametrize("n, s_max", SOLVE_CASES, ids=[f"{n}-{s:g}" for n, s in SOLVE_CASES])
def test_spline_solve_is_lapack_gttrs_bit_for_bit(n, s_max):
    # the product with the inverse agrees with LAPACK's gttrf and gttrs to
    # 16 ulps of the largest slope
    grid = RadialGrid(n, s_max)
    rng = np.random.default_rng(n)
    scaled = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 6, size=n)
    sparse_rhs = np.where(rng.random(n) < 0.3, 0.0, scaled)
    signed_zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    mixed = np.where(rng.random(n) < 0.2, -1.0, signed_zeros)
    clamped = scaled.copy()
    clamped[0] = 0.0  # the tip row of every spline the program builds
    for rhs in (scaled, sparse_rhs, np.zeros(n), signed_zeros, mixed, clamped):
        expected = _lapack_slopes(grid.s, rhs)
        bound = 16 * np.finfo(float).eps * np.max(np.abs(expected))
        assert np.max(np.abs(grid.spline._solve(rhs) - expected)) <= bound


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_spline_maximum_is_the_exact_maximum(data):
    # the largest knot value or critical-point value, against scipy's spline
    # with the same end slopes and the roots of its derivative
    n = data.draw(st.integers(MIN_NODES, 65))
    grid = RadialGrid(n, data.draw(st.floats(0.5, 40.0)))
    smooth = np.sin(data.draw(st.floats(0.1, 3.0)) * grid.s)
    values = smooth + data.draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    slope = data.draw(st.floats(-10.0, 10.0))
    spline = CubicSpline(grid.s, values, bc_type=((1, 0.0), (1, slope)))
    critical = spline.derivative().roots(extrapolate=False)
    expected = max(np.max(values), np.max(spline(critical), initial=-np.inf))
    assert grid.spline.maximum(values, slope) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_spline_maximum_of_huge_values_stays_quiet():
    # the critical points come from scaled coefficients, so no square
    # overflows (warnings are errors here)
    grid = RadialGrid(17, 0.5)
    values = np.where(np.arange(17) % 2 == 0, 1e300, -1e300)
    assert grid.spline.maximum(values, 0.0) >= 1e300


# ---------------------------------------------------------------------------
# level lengths and width
# ---------------------------------------------------------------------------

def test_level_length_values():
    state = cigar_state(257)
    # between nodes the log factor is interpolated linearly: O(h^2) there
    assert level_length(state, 1.0) == pytest.approx(2 * np.pi / np.sqrt(2.0), rel=1e-4)
    assert level_length(state, 100.0) == pytest.approx(
        2 * np.pi * 100.0 / np.sqrt(10001.0), rel=1e-6
    )
    # at a grid node the formula is exact arithmetic
    k = 40
    r_k = state.grid.r[k]
    assert level_length(state, r_k) == pytest.approx(
        2 * np.pi * r_k / np.sqrt(1 + r_k**2), rel=1e-13
    )
    flat = ConformalState(state.grid, np.zeros(257), 0.0)
    assert level_length(flat, 2.0) == pytest.approx(4 * np.pi, rel=1e-12)
    with pytest.raises(ValueError):
        level_length(state, 2 * state.grid.r[-1])


def test_width_report_cigar():
    rep = width_report(cigar_state(129))
    assert abs(rep.width_bound - 2 * np.pi) <= 0.002 * 2 * np.pi
    assert rep.bounded
    assert abs(rep.cinf_estimate - 2 * np.pi) <= 0.002 * 2 * np.pi


def test_width_report_flat_unbounded():
    g = RadialGrid(129, 8.0)
    flat = ConformalState(g, np.zeros(129), 0.0)
    rep = width_report(flat)
    assert not rep.bounded
    assert rep.width_bound == pytest.approx(2 * np.pi * g.r[-1], rel=1e-12)


def test_width_scaling_identity():
    state = cigar_state(129)
    lam = 2.0
    scaled = ConformalState(
        state.grid, state.log_factor + np.log(lam), state.edge_slope
    )
    rep1 = width_report(state)
    rep2 = width_report(scaled)
    assert rep2.width_bound == pytest.approx(np.sqrt(lam) * rep1.width_bound, rel=1e-10)
    assert rep2.bounded
