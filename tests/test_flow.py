import numpy as np
import pytest

from cigarflow import cigar, flow
from cigarflow.geometry import ConformalState, RadialGrid, background_laplacian
from cigarflow.scenarios import build_scenario, parse_config


def radial_config(n=129, s_max=8.0, initial=None, t_end=0.5, safety=0.9,
                  record=0.1, frame=None, extra=None):
    data = {
        "name": "test",
        "grid": {"kind": "radial", "n": n, "s_max": s_max},
        "initial": initial or {"type": "exact_cigar"},
        "stepping": {"safety": safety, "t_end": t_end, "record_interval": record},
    }
    if frame:
        data["stepping"]["frame"] = frame
    if extra:
        data.update(extra)
    return parse_config(data)


def cigar_flow_state(n=129, s_max=8.0, frame=None):
    return build_scenario(radial_config(n=n, s_max=s_max, frame=frame))


def flat_radial_state(n=65, s_max=8.0, safety=0.9):
    return build_scenario(radial_config(n=n, s_max=s_max, initial={"type": "flat"},
                                        t_end=0.1, safety=safety, record=0.05))


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_flat_is_stationary():
    state = flat_radial_state()
    np.testing.assert_allclose(-state.curvature, 0.0, atol=1e-12)


def test_rhs_is_minus_curvature_exactly():
    state = cigar_flow_state(65, frame="fixed")
    conf = state.conformal
    # the fixed-frame stage rate of u~ is -R exactly
    du, _, gamma = flow._stage_rhs(state, conf.log_factor, state.potential)
    assert gamma == 0.0
    np.testing.assert_array_equal(du, -state.curvature)
    # and -R equals the rearranged diffusion form e^{-u~} Lap_E u~ to rounding
    rearranged = np.exp(-conf.log_factor) * background_laplacian(
        conf.log_factor, state.grid, "euclidean", conf.edge_slope
    )
    np.testing.assert_allclose(-state.curvature, rearranged, rtol=0, atol=1e-12)


def test_rhs_cigar_origin_rate():
    state = cigar_flow_state(129)
    rhs = -state.curvature
    assert rhs[0] == pytest.approx(-4.0, abs=5 * state.grid.h**2)
    np.testing.assert_allclose(
        rhs, -cigar.cigar_curvature_arclength(state.grid.s), atol=5 * state.grid.h**2
    )


def test_rhs_soliton_origin_rate_constant_in_time():
    g = RadialGrid(257, 8.0)
    for t in (0.1, 0.5, 1.0):
        st = flow.exact_soliton_state(g, t)
        assert -st.curvature[0] == pytest.approx(-4.0, abs=20 * g.h**2)


# ---------------------------------------------------------------------------
# adaptive step size
# ---------------------------------------------------------------------------

def test_adaptive_dt_flat_tip_formula():
    # the tip row's diagonal 4 / h^2 is the largest, and the flat plane has no
    # advective limit: h = 0.1 gives dt = safety h^2 / 4 = 0.5 * 0.01 / 4
    state = flat_radial_state(n=65, s_max=6.4, safety=0.5)
    assert state.grid.h == pytest.approx(0.1)
    assert flow.adaptive_dt(state, 0.5) == pytest.approx(1.25e-3, rel=1e-12)


def test_adaptive_dt_scales_with_diffusivity():
    base = flat_radial_state()
    shifted = flow.FlowState(
        conformal=ConformalState(base.grid, "euclidean",
                                 base.conformal.log_factor - np.log(4.0)),
        potential=base.potential,
        potential_slope=base.potential_slope,
        t=0.0,
        log_scale=0.0,
        frame="fixed",
        init=base.init,
        acc=base.acc,
    )
    assert flow.adaptive_dt(shifted, 0.5) == pytest.approx(
        flow.adaptive_dt(base, 0.5) / 4.0, rel=1e-12
    )


def test_stability_sweep():
    # safety 0.9 integrates quietly to t = 1; safety 4.0 violates the CFL bound
    state = cigar_flow_state(65)
    result = flow.run(state, 1.0, safety=0.9, record_interval=0.5)
    assert not result.aborted
    assert all(rec.finite for rec in result.records)
    result = flow.run(cigar_flow_state(65), 1.0, safety=4.0, record_interval=0.5)
    assert result.aborted


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_origin_rate_matches_exact_family():
    # one step from cigar data: u~(origin) -> -4 dt, up to the dt * (5/3) h^2
    # spatial error in the discrete origin curvature
    dt = 1e-4
    for n in (129, 257):
        state = cigar_flow_state(n, 8.0)
        stepped = flow.step(state, dt)
        u_origin = flow.fixed_fields(stepped)["u_tilde"][0]
        assert u_origin == pytest.approx(-4.0 * dt, abs=2.0 * dt * state.grid.h**2)


def test_step_potential_origin_rate():
    state = cigar_flow_state(129)
    dt = 1e-3
    stepped = flow.step(state, dt)
    df = stepped.potential[0] - state.potential[0]
    assert df == pytest.approx(4.0 * dt, abs=10 * dt * (dt + state.grid.h**2))


def test_step_preserves_conserved_field():
    state = cigar_flow_state(129, frame="comoving")
    dt = flow.adaptive_dt(state, 0.9)
    stepped = flow.step(state, dt)
    fields = flow.fixed_fields(stepped)
    drift = np.max(np.abs(fields["w"] - state.init.w0))
    assert drift <= 50 * dt * state.grid.h**2


def test_step_rejects_bad_dt():
    state = cigar_flow_state(65)
    with pytest.raises(ValueError):
        flow.step(state, 0.0)
    with pytest.raises(ValueError):
        flow.step(state, np.nan)


def test_unstable_step_aborts():
    state = cigar_flow_state(65)
    dt = flow.adaptive_dt(state, 1.0)
    with pytest.raises(flow.FlowInstabilityError):
        for _ in range(200):
            state = flow.step(state, 8.0 * dt)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def test_monitor_initial_cigar_values():
    state = cigar_flow_state(129)
    rec = flow.monitor(state, dt_hint=1e-3)
    assert rec.sup_R == pytest.approx(4.0, abs=5 * state.grid.h**2)
    assert rec.sup_u_tilde == pytest.approx(0.0, abs=1e-14)
    assert rec.w_drift <= 1e-13
    assert rec.sup_h == pytest.approx(0.0, abs=1e-14)
    assert rec.sup_grad_sq == pytest.approx(4.0, abs=0.01)  # sup 4 tanh^2 s
    assert rec.res_poisson <= 1e-10
    assert rec.width_bound == pytest.approx(2 * np.pi, rel=0.002)
    assert rec.v_discrepancy == 0.0
    assert rec.finite


def test_monitor_nan_state_records_nan():
    state = cigar_flow_state(65)
    bad = ConformalState(state.grid, "euclidean",
                         np.where(state.grid.s > 4, np.nan, state.conformal.log_factor),
                         state.conformal.edge_slope)
    from dataclasses import replace
    rec = flow.monitor(replace(state, conformal=bad))
    assert not rec.finite


def test_v_consistency_accumulates_at_scheme_order():
    discrepancies = {}
    for n in (65, 129):
        result = flow.run(cigar_flow_state(n), 0.5, safety=0.9, record_interval=0.5)
        discrepancies[n] = result.records[-1].v_discrepancy
    assert discrepancies[129] <= 2e-6
    # dt scales with h^2, and the drift is dt^2-dominated: ~16x per halving
    assert discrepancies[65] / discrepancies[129] >= 6.0


# ---------------------------------------------------------------------------
# curvature evolution residual
# ---------------------------------------------------------------------------

def test_curvature_evolution_exact_triples_quarter():
    values = {}
    for n, dt in ((129, 1e-3), (257, 5e-4)):
        g = RadialGrid(n, 2.0)  # h = 1/64 at n = 129
        tc = 0.1
        triple = [flow.exact_soliton_state(g, tc + k * dt) for k in (-1, 0, 1)]
        values[n] = float(np.max(np.abs(flow.curvature_evolution_residual(*triple))))
    assert values[129] <= 1e-2
    assert 3.0 <= values[129] / values[257] <= 5.5


def test_curvature_evolution_flat_is_zero():
    state = flat_radial_state()
    from dataclasses import replace
    triple = [replace(state, t=k * 1e-3) for k in (0, 1, 2)]
    np.testing.assert_allclose(flow.curvature_evolution_residual(*triple), 0.0, atol=1e-12)


def test_curvature_evolution_origin_balance():
    # R is constant in time at the origin, so Lap_g R + R^2 vanishes there
    g = RadialGrid(257, 2.0)
    dt = 5e-4
    triple = [flow.exact_soliton_state(g, 0.1 + k * dt) for k in (-1, 0, 1)]
    resid = flow.curvature_evolution_residual(*triple)
    assert abs(resid[0]) <= 20 * g.h**2


def test_curvature_evolution_rejects_bad_triples():
    g = RadialGrid(65, 2.0)
    s0 = flow.exact_soliton_state(g, 0.1)
    s1 = flow.exact_soliton_state(g, 0.101)
    s2 = flow.exact_soliton_state(g, 0.103)
    with pytest.raises(ValueError):
        flow.curvature_evolution_residual(s0, s1, s2)
    other = flow.exact_soliton_state(RadialGrid(129, 2.0), 0.102)
    with pytest.raises(ValueError):
        flow.curvature_evolution_residual(s0, s1, other)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_identity_when_origin_factor_vanishes():
    state = cigar_flow_state(129)
    normalized, scale = flow.normalize(state)
    assert scale == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(normalized.log_factor, state.conformal.log_factor, atol=1e-12)


def test_normalize_evolved_soliton_recovers_cigar():
    for frame, window in (("comoving", None), ("fixed", 4.0)):
        state = cigar_flow_state(129, frame=frame)
        result = flow.run(state, 0.5, safety=0.9, record_interval=0.5)
        final = result.final_state
        normalized, scale = flow.normalize(final, s_window=window)
        assert scale == pytest.approx(np.exp(2 * final.t), rel=5e-3)
        target = -cigar.cigar_potential_arclength(normalized.grid.s)
        assert np.max(np.abs(normalized.log_factor - target)) <= 30 * state.grid.h**2


def test_normalize_gradient_invariance():
    # |grad f|_g at x equals |grad f.Phi|_{Phi*g} at Phi^{-1} x
    state = cigar_flow_state(129, frame="comoving")
    result = flow.run(state, 0.3, safety=0.9, record_interval=0.3)
    final = result.final_state
    grid = final.grid
    from scipy.interpolate import CubicSpline

    fields = flow.fixed_fields(final)
    f_spline = CubicSpline(grid.s, fields["f"], bc_type=((1, 0.0), (1, final.potential_slope)))
    u_spline = CubicSpline(grid.s, fields["u_tilde"],
                           bc_type=((1, 0.0), (1, final.conformal.edge_slope)))
    scale = flow.normalization_scale(final)

    window = grid.s[grid.s <= 3.0]
    # normalized side: f transported to y = x / scale, metric factor shifted
    x_pos = np.arcsinh(scale * np.sinh(window))
    f_norm = f_spline(x_pos)
    u_norm = u_spline(x_pos) + 2 * np.log(scale)
    df_norm = np.gradient(f_norm, window, edge_order=2)
    grad_norm = np.exp(-0.5 * u_norm) * np.abs(df_norm) / np.cosh(window)

    df_orig = f_spline(x_pos, 1)
    grad_orig = np.exp(-0.5 * u_spline(x_pos)) * np.abs(df_orig) / np.cosh(x_pos)
    assert np.max(np.abs(grad_norm - grad_orig)) <= 50 * grid.h**2


def test_normalize_shifted_flat_plane():
    state = flat_radial_state()
    normalized, scale = flow.normalize(state)
    assert scale == 1.0
    np.testing.assert_allclose(normalized.log_factor, 0.0, atol=1e-12)
    # a uniformly shifted plane normalizes back to the flat plane
    from dataclasses import replace
    shifted_conf = ConformalState(state.grid, "euclidean",
                                  state.conformal.log_factor + 0.8)
    shifted = replace(state, conformal=shifted_conf)
    normalized, scale = flow.normalize(shifted)
    assert scale == pytest.approx(np.exp(-0.4), rel=1e-12)
    np.testing.assert_allclose(normalized.log_factor, 0.0, atol=1e-9)


def test_normalize_window_shrink_error():
    state = cigar_flow_state(129, frame="fixed")
    result = flow.run(state, 0.5, safety=0.9, record_interval=0.5)
    with pytest.raises(ValueError):
        flow.normalize(result.final_state)  # full grid unreachable after rescale
    normalized, _ = flow.normalize(result.final_state, s_window=4.0)
    assert normalized.grid.s_max <= 4.0 + 1e-12


# ---------------------------------------------------------------------------
# the Kahler potential cross-check
# ---------------------------------------------------------------------------

def test_kahler_residual_zero_at_start():
    state = cigar_flow_state(129)
    assert flow.kahler_residual(state) == 0.0


def test_kahler_residual_refines():
    values = {}
    for n in (65, 129):
        result = flow.run(cigar_flow_state(n), 0.5, safety=0.9, record_interval=0.5)
        values[n] = flow.kahler_residual(result.final_state)
    assert 3.0 <= values[65] / values[129] <= 5.5


def test_kahler_perturbed_stays_within_tenfold_of_soliton():
    soliton = flow.run(cigar_flow_state(129), 0.5, safety=0.9, record_interval=0.5)
    perturbed_state = build_scenario(radial_config(
        initial={"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5},
    ))
    perturbed = flow.run(perturbed_state, 0.5, safety=0.9, record_interval=0.5)
    assert flow.kahler_residual(perturbed.final_state) <= 10 * flow.kahler_residual(
        soliton.final_state
    )


def test_kahler_cross_check_matches_online_accumulator():
    state = cigar_flow_state(65)
    states = [state]
    for _ in range(20):
        states.append(flow.step(states[-1], 1e-3))
    online = flow.kahler_residual(states[-1])
    recomputed = flow.kahler_cross_check(states)
    assert recomputed == pytest.approx(online, rel=1e-10, abs=1e-15)
    with pytest.raises(ValueError):
        flow.kahler_cross_check([])
    with pytest.raises(ValueError):
        flow.kahler_cross_check(states[5:])


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_soliton_distance_tracks_solver_error(soliton_errors):
    err, result = soliton_errors[129]
    # run to t = 1 from the same data: normalized distance stays ~ solver error
    state = cigar_flow_state(129)
    result1 = flow.run(state, 1.0, safety=0.9, record_interval=0.5)
    dist = result1.profile_distance_final
    assert dist <= 5 * err
    drift = max(rec.w_drift for rec in result1.records)
    assert drift <= 5 * err


def test_run_flat_radial_fixed_point():
    state = flat_radial_state()
    result = flow.run(state, 0.1, safety=0.9, record_interval=0.05)
    assert not result.aborted
    for rec in result.records:
        assert abs(rec.sup_R) <= 1e-12
        assert abs(rec.inf_R) <= 1e-12
        assert rec.w_drift <= 1e-13
    final = result.final_state
    np.testing.assert_array_equal(final.conformal.log_factor, state.conformal.log_factor)


def test_run_records_on_schedule():
    state = cigar_flow_state(65)
    result = flow.run(state, 0.5, safety=0.9, record_interval=0.1)
    times = [rec.t for rec in result.records]
    np.testing.assert_allclose(times, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], atol=1e-12)


def test_order_of_accuracy(soliton_errors):
    errs = {n: soliton_errors[n][0] for n in (65, 129, 257)}
    order1 = np.log2(errs[65] / errs[129])
    order2 = np.log2(errs[129] / errs[257])
    assert 1.8 <= order1 <= 2.2
    assert 1.8 <= order2 <= 2.2


def test_exact_soliton_state_self_consistency():
    g = RadialGrid(129, 8.0)
    st = flow.exact_soliton_state(g, 0.3)
    exact = cigar.soliton_scalar_curvature(g.r, 0.3)
    assert np.max(np.abs(st.curvature - exact)) <= 10 * g.h**2
    np.testing.assert_allclose(st.potential, -st.conformal.log_factor, atol=1e-14)
