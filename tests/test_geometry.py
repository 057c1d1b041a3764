import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cigarflow import cigar
from cigarflow.geometry import (
    MIN_NODES,
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
    return ConformalState(grid, "euclidean", u_t, -2.0 * np.tanh(s_max))


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
    g = RadialGrid(65, 8.0)
    assert g.s[0] == 0.0 and g.s[-1] == 8.0
    assert g.h * (g.n - 1) == pytest.approx(8.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

GRID_N = st.integers(min_value=MIN_NODES, max_value=257)
GRID_S_MAX = st.floats(min_value=0.5, max_value=8.0)


@settings(max_examples=50, deadline=None, database=None)
@given(GRID_N, GRID_S_MAX, st.floats(allow_nan=False, allow_infinity=False))
def test_laplacian_annihilates_constants(n, s_max, constant):
    g = RadialGrid(n, s_max)
    for background in ("euclidean", "cigar"):
        out = background_laplacian(np.full(g.n, constant), g, background)
        np.testing.assert_array_equal(out, np.zeros(g.n))


def test_laplacian_rejects_bad_fields():
    g = RadialGrid(65, 8.0)
    with pytest.raises(ValueError):
        background_laplacian(np.zeros(10), g)
    bad = np.zeros(g.n)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        background_laplacian(bad, g)


def test_cigar_laplacian_of_potential_gives_curvature():
    errs = {}
    for n in (65, 129):
        g = RadialGrid(n, 8.0)
        f0 = cigar.cigar_potential_arclength(g.s)
        lap = background_laplacian(f0, g, "cigar", edge_slope=2.0 * np.tanh(g.s_max))
        errs[n] = np.max(np.abs(lap - cigar.cigar_curvature_arclength(g.s)))
    assert errs[129] <= 0.05
    assert 1.8 <= np.log2(errs[65] / errs[129]) <= 2.2


@settings(max_examples=50, deadline=None, database=None)
@given(st.data(), GRID_N, GRID_S_MAX)
def test_radial_laplacian_symmetry_quadratic_form(data, n, s_max):
    # <phi, L psi>_b = <psi, L phi>_b for interior-supported fields.  The
    # fields are unit-scale: below |lhs| = 1 the tolerance is the absolute
    # 1e-10, while the rounding error grows with the fields' size (entries of
    # size 100 exceed it at n = 25, s_max = 1, with lhs - rhs ~ 1e-10).
    g = RadialGrid(n, s_max)
    values = arrays(np.float64, n, elements=st.floats(min_value=-1.0, max_value=1.0))
    for background, b in (("euclidean", g.b_euclidean), ("cigar", g.b_cigar)):
        phi = data.draw(values)
        psi = data.draw(values)
        for f in (phi, psi):
            f[:3] = 0.0
            f[-3:] = 0.0
        lhs = np.sum(b[1:-1] * phi[1:-1] * background_laplacian(psi, g, background)[1:-1])
        rhs = np.sum(b[1:-1] * psi[1:-1] * background_laplacian(phi, g, background)[1:-1])
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


# ---------------------------------------------------------------------------
# scalar curvature
# ---------------------------------------------------------------------------

def test_curvature_identity_factor_over_cigar():
    g = RadialGrid(65, 8.0)
    state = ConformalState(g, "cigar", np.zeros(g.n), 0.0)
    np.testing.assert_allclose(state.curvature, cigar.cigar_curvature_arclength(g.s), atol=1e-14)


def test_curvature_constant_rescale():
    g = RadialGrid(65, 8.0)
    lam = 2.0
    state = ConformalState(g, "cigar", np.full(g.n, np.log(lam)), 0.0)
    np.testing.assert_allclose(
        state.curvature, cigar.cigar_curvature_arclength(g.s) / lam, rtol=1e-13
    )


def test_curvature_of_exact_family_on_euclidean_background():
    # refinement study at t = 0.25: R(origin) -> 4, observed order ~2
    errs = {}
    for n in (65, 129, 257):
        g = RadialGrid(n, 8.0)
        t = 0.25
        u_t = cigar.soliton_log_factor(g.r, t)
        slope = float(-2 * np.sinh(8.0) * np.cosh(8.0) / (np.exp(4 * t) + np.sinh(8.0) ** 2))
        state = ConformalState(g, "euclidean", u_t, slope)
        exact = cigar.soliton_scalar_curvature(g.r, t)
        errs[n] = np.max(np.abs(state.curvature - exact))
        assert state.curvature[0] == pytest.approx(4.0, abs=20.0 * g.h**2)
    order1 = np.log2(errs[65] / errs[129])
    order2 = np.log2(errs[129] / errs[257])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_gauss_curvature_is_half_scalar():
    state = cigar_state(65)
    np.testing.assert_array_equal(state.gauss_curvature, 0.5 * state.curvature)


def test_background_conversion_round_trip():
    state = cigar_state(65)
    converted = state.to_cigar()
    np.testing.assert_allclose(converted.log_factor, np.zeros(65), atol=1e-12)
    back = converted.to_euclidean()
    np.testing.assert_allclose(back.log_factor, state.log_factor, atol=1e-13)
    assert back.edge_slope == pytest.approx(state.edge_slope, abs=1e-13)
    # both gauges agree on the curvature up to O(h^2) discretization
    np.testing.assert_allclose(converted.curvature, state.curvature, atol=0.05)


# ---------------------------------------------------------------------------
# metric Laplacian
# ---------------------------------------------------------------------------

def test_metric_laplacian_reduces_to_background():
    g = RadialGrid(65, 8.0)
    state = ConformalState(g, "cigar", np.zeros(g.n), 0.0)
    f0 = cigar.cigar_potential_arclength(g.s)
    slope = 2.0 * np.tanh(g.s_max)
    np.testing.assert_array_equal(
        metric_laplacian(f0, state, slope), background_laplacian(f0, g, "cigar", slope)
    )


def test_metric_laplacian_of_potential_over_cigar():
    g = RadialGrid(129, 8.0)
    f0 = cigar.cigar_potential_arclength(g.s)
    slope = 2.0 * np.tanh(g.s_max)
    r_c = cigar.cigar_curvature_arclength(g.s)
    one = ConformalState(g, "cigar", np.zeros(g.n), 0.0)
    assert np.max(np.abs(metric_laplacian(f0, one, slope) - r_c)) <= 0.02
    two = ConformalState(g, "cigar", np.full(g.n, np.log(2.0)), 0.0)
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
        state.grid, "euclidean", state.log_factor + np.log(2.0), state.edge_slope
    )
    f1, _ = solve_initial_potential(state)
    f2, _ = solve_initial_potential(scaled)
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_potential_solve_perturbed_residual():
    g = RadialGrid(129, 8.0)
    bump = 0.3 * np.exp(-((g.s - 2.0) ** 2) / (2 * 0.25))
    u_t = bump - cigar.cigar_potential_arclength(g.s)
    state = ConformalState(g, "euclidean", u_t, -2.0 * np.tanh(g.s_max))
    f, slope = solve_initial_potential(state)
    res = metric_laplacian(f, state, slope) - state.curvature
    assert np.max(np.abs(res)) <= 1e-10
    gap = np.abs(cigar.cigar_potential_arclength(g.s) - f)
    assert np.all(np.isfinite(gap))


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
    flat = ConformalState(state.grid, "euclidean", np.zeros(257), 0.0)
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
    flat = ConformalState(g, "euclidean", np.zeros(129), 0.0)
    rep = width_report(flat)
    assert not rep.bounded
    assert rep.width_bound == pytest.approx(2 * np.pi * g.r[-1], rel=1e-12)


def test_width_scaling_identity():
    state = cigar_state(129)
    lam = 2.0
    scaled = ConformalState(
        state.grid, "euclidean", state.log_factor + np.log(lam), state.edge_slope
    )
    rep1 = width_report(state)
    rep2 = width_report(scaled)
    assert rep2.width_bound == pytest.approx(np.sqrt(lam) * rep1.width_bound, rel=1e-10)
    assert rep2.bounded
