import sys
from contextlib import contextmanager
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cigarflow import flow, scenarios  # noqa: E402
from cigarflow.geometry import _radial_derivative, background_laplacian  # noqa: E402

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SHIPPED = [
    "soliton_radial_129.json",
    "scaled_cigar_129.json",
    "perturbed_relax_129.json",
    "flat_radial_65.json",
]


@pytest.fixture(scope="session")
def soliton_errors():
    """Manufactured-solution errors and runs at N in {65, 129, 257}, T=0.5."""
    out = {}
    for n in (65, 129, 257):
        err, result = scenarios.manufactured_solution_error(n, 8.0, 0.9, 0.5)
        out[n] = (err, result)
    return out


@pytest.fixture(scope="session")
def shipped_reports():
    """verify_scenario on every shipped config (runs each scenario once)."""
    reports = {}
    for fname in SHIPPED:
        config = scenarios.load_config(CONFIG_DIR / fname)
        reports[config.name] = scenarios.verify_scenario(config)
    return reports


@pytest.fixture(scope="session")
def config_dir():
    return CONFIG_DIR


@pytest.fixture(scope="session")
def fixed_frame():
    """fixed_frame(config): `build_scenario(config)` stepped in the fixed
    frame, the gated reference of the co-moving runs, which no config key
    selects.  The t = 0 state is the same in both frames (log L = 0)."""
    return lambda config: replace(scenarios.build_scenario(config), frame=flow.FIXED)


def _laplacian_diagonal(grid):
    """The size of the Laplacian's diagonal: 4 / h^2 at the tip and
    (a_{i+1/2} + a_{i-1/2}) / (b_i h^2) elsewhere."""
    a = grid.a_half
    diag = np.empty(grid.n)
    diag[0] = 4.0 / grid.h2
    diag[1:-1] = (a[1:-1] + a[:-2]) / grid.bh2[1:-1]
    diag[-1] = (a[-1] + a[-2]) / grid.bh2[-1]
    return diag


@pytest.fixture
def overdrive(monkeypatch):
    """A context in which every step is unstable: each takes two stages at
    dt = 4 / max(e^{-u} diag), diag the size of the Laplacian's diagonal.
    rho is at least that rate for h < 0.9, so rho dt >= 4 lies past the
    two-stage stability interval beta(2) = 1.96 (about 5.4 on cigar data,
    where the true radius is 0.94 rho).  With the stage count following dt
    no `safety` value is unstable, and the curvature bound of `adaptive_dt`
    would shrink dt until two stages were stable again, so both are held.

    The step is not a fixed multiple of 1 / rho: the tests need the sup u~
    abort to trip before e^{-u} overflows, and at rho dt = 4 to 8 and at 24
    and 32 some of them overflow first."""
    @contextmanager
    def overdriven():
        with monkeypatch.context() as patch:
            patch.setattr(flow, "_stage_count", lambda stiffness: 2)
            patch.setattr(flow, "adaptive_dt", lambda state, safety=0.9: 4.0 / float(
                (state.conformal.diffusivity * _laplacian_diagonal(state.grid)).max()))
            yield

    return overdriven


def _coupled_step(state, y, dt):
    """One RKC2 step of the coupled system y = (u^, f^, log L) from `state`,
    with the program's stage count for dt.

    u^ and log L take the program's stage rate (`flow._bind_stage`), bound
    afresh at every stage.  f^ takes its own heat equation, d f^/dt =
    e^{-u^} Lap_E f^ + gamma tanh(s) d f^/ds, from the separate operators,
    with the program's edge slope of f.  Nothing here uses f = w0 - u~.
    `flow._rkc_step` binds `rhs` once to its stage point and rate row, and
    leaves y1 in the stage point.
    """
    grid, n = state.grid, state.grid.n
    slope_f = state.potential_slope

    def rhs(y, out):
        u_hat, f_hat = y[:n], y[n:-1]
        rate = flow._bind_stage(state, np.append(u_hat, y[-1]), np.empty(n + 1))()
        gamma = rate[-1]
        df = np.exp(-u_hat) * background_laplacian(f_hat, grid, slope_f)
        if gamma != 0.0:
            df = df + gamma * grid.tanh_s * _radial_derivative(grid, f_hat, slope_f)
        out[:n], out[n:-1], out[-1] = rate[:-1], df, gamma
        return out

    y1, _ = flow._rkc_step(partial(partial, rhs), y, rhs(y, np.empty_like(y)), dt,
                           flow._stage_count(dt * state.conformal.stiffness))
    return y1


@pytest.fixture(scope="session")
def coupled_oracle():
    """run(config, t_end): `flow.step` from the config's initial state to
    t_end at the program's dt, beside the coupled stepper started from the
    same u^, f^ and log L; the list of (state, coupled y) after each step."""
    def run(config, t_end):
        state = scenarios.build_scenario(config)
        y = np.concatenate((state.conformal.log_factor, state.potential, [state.log_scale]))
        trail = []
        while state.t < t_end - 1e-13:
            dt = min(flow.adaptive_dt(state, config.safety), t_end - state.t)
            y = _coupled_step(state, y, dt)
            state = flow.step(state, dt)
            trail.append((state, y))
        return trail

    return run


@pytest.fixture
def eager_oracle(monkeypatch):
    """trail(final): the accepted steps that led to the state `final`, each
    with its accumulators taken eagerly, as `flow.step` once advanced them
    after every step: the v and phi trapezoids, with `map_to_fixed` of the
    states before and after.  A list of (state, Accumulators) from the first
    stepped state to `final`.

    Every `flow.step` call made under the fixture is recorded; the trail
    follows each state back to the state it was stepped from, up to one that
    no recorded step made.
    """
    made = {}  # id of a stepped state: (that state, the state before, dt)
    step = flow.step

    def spy(state, dt):
        new = step(state, dt)
        made[id(new)] = (new, state, dt)
        return new

    monkeypatch.setattr(flow, "step", spy)

    def trail(final):
        links = []
        state = final
        while id(state) in made:
            _, before, dt = made[id(state)]
            links.append((before, dt, state))
            state = before
        acc, w0 = state.acc, state.init.w0
        out = []
        for before, dt, state in reversed(links):
            acc = flow.Accumulators(
                v_integral=acc.v_integral + 0.5 * dt * (float(before.curvature[0])
                                                        + float(state.curvature[0])),
                phi=acc.phi - 0.5 * dt * ((w0 - flow.map_to_fixed(before))
                                          + (w0 - flow.map_to_fixed(state))),
            )
            out.append((state, acc))
        return out

    return trail
