"""Mutual validation across independent code paths.

The co-moving and fixed-frame integrators discretize different PDE forms
(one carries an advection term and a scale ODE, one does not) and must
agree on the reconstructed fixed-frame fields to discretization order.
"""

import numpy as np
import pytest

from cigarflow import flow
from cigarflow.geometry import _edge_slope_estimate
from cigarflow.scenarios import build_scenario, parse_config


def config_for(initial, frame, n=129, t_end=0.5):
    return parse_config({
        "name": "xval",
        "grid": {"kind": "radial", "n": n, "s_max": 8.0},
        "initial": initial,
        "stepping": {"safety": 0.9, "t_end": t_end, "record_interval": t_end,
                     "frame": frame},
    })


@pytest.mark.parametrize("initial", [
    {"type": "exact_cigar"},
    {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5},
])
def test_comoving_and_fixed_frames_agree(initial):
    fields = {}
    for frame in ("comoving", "fixed"):
        state = build_scenario(config_for(initial, frame))
        result = flow.run(state, 0.5, safety=0.9, record_interval=0.5)
        assert not result.aborted
        fields[frame] = flow.fixed_fields(result.final_state)
    h2 = (8.0 / 128) ** 2
    for name in ("u_tilde", "f", "w", "h"):
        gap = np.max(np.abs(fields["comoving"][name] - fields["fixed"][name]))
        assert gap <= 20 * h2, (name, gap)


def test_frames_agree_on_monitors():
    recs = {}
    for frame in ("comoving", "fixed"):
        state = build_scenario(config_for({"type": "exact_cigar"}, frame))
        result = flow.run(state, 0.5, safety=0.9, record_interval=0.5)
        recs[frame] = result.records[-1]
    h2 = (8.0 / 128) ** 2
    for name in ("sup_R", "sup_u_tilde", "sup_grad_sq", "sup_h", "width_bound"):
        a = getattr(recs["comoving"], name)
        b = getattr(recs["fixed"], name)
        assert abs(a - b) <= 20 * h2 * max(1.0, abs(a)), (name, a, b)


def test_potential_evolution_tracks_direct_solve(coupled_oracle):
    # f stepped by its own heat equation (the coupled oracle) stays within
    # O(h^2) of the potential of the evolved metric (same gauge: both vanish
    # at the origin)
    from cigarflow.geometry import solve_initial_potential

    config = config_for(
        {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5},
        "comoving",
    )
    final, y = coupled_oracle(config, 0.5)[-1]
    f_hat = y[final.grid.n:-1]
    fresh, _ = solve_initial_potential(final.conformal)
    evolved = f_hat - f_hat[0]
    h2 = (8.0 / 128) ** 2
    assert np.max(np.abs(fresh - evolved)) <= 50 * h2


def test_v_equals_minus_curvature_time_integral_pointwise():
    # v(x, t) = -int R(x, tau) dtau holds off the origin too: the gap at a
    # mid-grid point is O(h^2) and shrinks at second order
    def fixed_curvature(st):
        r = st.curvature
        nodes = np.arcsinh(st.grid.r * np.exp(-st.log_scale))
        return st.grid.spline.fit(r, _edge_slope_estimate(st.grid, r))(nodes)

    def gap(n):
        state = build_scenario(config_for({"type": "exact_cigar"}, "comoving", n=n))
        node = (n - 1) // 4
        acc = 0.0
        t_prev = 0.0
        r_prev = fixed_curvature(state)[node]
        current = state
        while current.t < 0.25 - 1e-12:
            dt = min(flow.adaptive_dt(current, 0.9), 0.25 - current.t)
            current = flow.step(current, dt)
            r_now = fixed_curvature(current)[node]
            acc += 0.5 * (current.t - t_prev) * (r_prev + r_now)
            r_prev, t_prev = r_now, current.t
        v_field = flow.fixed_fields(current)["v"]
        return abs(v_field[node] + acc)

    gaps = {n: gap(n) for n in (65, 129)}
    assert gaps[129] <= 0.1 * (8.0 / 128) ** 2
    assert gaps[65] / gaps[129] >= 2.5
