import json
import pickle
import tracemalloc
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline

from cigarflow import cigar, flow, geometry
from cigarflow.diagnostics import DiagnosticsRecord, cigar_number
from cigarflow.geometry import (
    MAX_S_MAX,
    MAX_SPACING,
    ConformalState,
    GridSpline,
    RadialGrid,
    background_laplacian,
)
from cigarflow.scenarios import (
    H_MONOTONE_TOL,
    build_scenario,
    load_config,
    manufactured_solution_error,
    parse_config,
)
from cigarflow.snapshots import load_snapshot, save_snapshot


def radial_config(n=129, s_max=8.0, initial=None, t_end=0.5, safety=0.9,
                  record=0.1, extra=None):
    data = {
        "name": "test",
        "grid": {"kind": "radial", "n": n, "s_max": s_max},
        "initial": initial or {"type": "exact_cigar"},
        "stepping": {"safety": safety, "t_end": t_end, "record_interval": record},
    }
    if extra:
        data.update(extra)
    return parse_config(data)


def cigar_flow_state(n=129, s_max=8.0):
    return build_scenario(radial_config(n=n, s_max=s_max))


def flat_radial_state(n=65, s_max=8.0, safety=0.9):
    return build_scenario(radial_config(n=n, s_max=s_max, initial={"type": "flat"},
                                        t_end=0.1, safety=safety, record=0.05))


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

def test_rhs_flat_is_stationary():
    state = flat_radial_state()
    np.testing.assert_allclose(-state.curvature, 0.0, atol=1e-12)


def test_rhs_is_minus_curvature_exactly(fixed_frame):
    state = fixed_frame(radial_config(n=65))
    conf = state.conformal
    # the fixed-frame stage rate of u~ is -R exactly
    y = np.append(conf.log_factor, 0.0)
    rate = flow._bind_stage(state, y, np.empty_like(y))()
    assert rate.shape == (state.grid.n + 1,)
    du, gamma = rate[:-1], rate[-1]
    assert gamma == 0.0
    np.testing.assert_array_equal(du, -state.curvature)
    # and -R equals the rearranged diffusion form e^{-u~} Lap_E u~ to rounding
    rearranged = np.exp(-conf.log_factor) * background_laplacian(
        conf.log_factor, state.grid, conf.edge_slope
    )
    np.testing.assert_allclose(-state.curvature, rearranged, rtol=0, atol=1e-12)


def test_fused_stage_rate_matches_the_separate_operators(fixed_frame):
    # the stage rate of (u, log L): in the fixed frame e^{-u} Lap_E u bit for
    # bit, and in the co-moving frame e^{-u} Lap_E u plus the centred
    # advection gamma tanh(s) d/ds and 2 gamma to rounding, with the tip rate
    # exactly 0
    bump = {"type": "perturbed_cigar", "amplitude": 0.5, "center": 2.0, "width": 0.5}
    config = radial_config(n=65, initial=bump)
    for state in (fixed_frame(config), build_scenario(config)):
        grid, conf, n = state.grid, state.conformal, state.grid.n
        u = conf.log_factor + 0.01 * np.sin(grid.s)
        rate = flow._bind_stage(state, np.append(u, 0.0), np.empty(n + 1))()
        assert rate.shape == (n + 1,)
        du = np.exp(-u) * background_laplacian(u, grid, conf.edge_slope)
        if state.frame == flow.FIXED:
            assert rate[-1] == 0.0
            np.testing.assert_array_equal(rate[:n], du)
            continue
        gamma = -0.5 * du[0]
        assert rate[-1] == gamma and rate[0] == 0.0
        adv = gamma * grid.tanh_s
        du = du + adv * flow._radial_derivative(grid, u, conf.edge_slope) + 2.0 * gamma
        np.testing.assert_allclose(rate[:n], du, rtol=1e-12, atol=1e-12 * np.max(np.abs(du)))


@pytest.mark.parametrize("frame", ["fixed", "comoving"])
def test_state_rate_is_a_fresh_stage_rate_bit_for_bit(frame, fixed_frame):
    # the cached stage 0 equals a stage bound afresh at the state itself, on
    # a state stepped away from its data (gamma != 0 in the co-moving frame)
    # and on one rebuilt by `replace`, which caches nothing
    bump = {"type": "perturbed_cigar", "amplitude": 0.5, "center": 2.0, "width": 0.5}
    config = radial_config(n=65, initial=bump)
    state = fixed_frame(config) if frame == "fixed" else build_scenario(config)
    for _ in range(3):
        state = flow.step(state, flow.adaptive_dt(state))
    assert (state.log_scale != 0.0) == (frame == "comoving")
    for candidate in (state, replace(state, t=0.25)):
        y0 = np.append(candidate.conformal.log_factor, candidate.log_scale)
        fresh = flow._bind_stage(candidate, y0, np.empty_like(y0))()
        assert candidate.rate.tobytes() == fresh.tobytes()


def stepped_states(n):
    """A bumped cigar at n nodes on s_max = 1, one step in, in the fixed and
    the co-moving frame (gamma = 0 and gamma != 0)."""
    bump = {"type": "perturbed_cigar", "amplitude": 0.5, "center": 0.25, "width": 0.0625}
    state = build_scenario(radial_config(n=n, s_max=1.0, initial=bump))
    for start in (replace(state, frame=flow.FIXED), state):
        yield flow.step(start, flow.adaptive_dt(start))


@pytest.mark.parametrize("n", [17, 65, 257])
def test_step_is_the_per_call_stage_bit_for_bit(n, monkeypatch):
    # `step` binds its stage once (`_bind_stage`) and reuses the binding's
    # buffers across the stages.  A binding taken afresh at every stage gives
    # the same bits at every stage count, so no buffer is left stale between
    # stages.  The step's product is read where `_rkc_step` returns it: at
    # n = 17 the 20-stage fixed-frame step is refused afterwards (sup u~
    # rises), which takes nothing from the comparison.
    products = []
    rkc_step = flow._rkc_step

    def spy(*args):
        y1, stage = rkc_step(*args)
        products.append(y1.copy())
        return y1, stage

    monkeypatch.setattr(flow, "_rkc_step", spy)
    for state in stepped_states(n):
        assert (state.log_scale != 0.0) == (state.frame == flow.COMOVING)
        rho = state.conformal.stiffness
        y0 = np.append(state.conformal.log_factor, state.log_scale)
        for s in (2, 7, 20):
            dt = 0.99 * flow._rkc_coefficients(s)[0] / rho
            assert flow._stage_count(dt * rho) == s
            try:
                stepped = flow.step(state, dt)
            except flow.FlowInstabilityError:
                assert (n, state.frame, s) == (17, flow.FIXED, 20)
                stepped = None
            want, _ = rkc_step(lambda p, o: lambda: flow._bind_stage(state, p, o)(),
                               y0, state.rate, dt, s)
            assert products[-1].tobytes() == want.tobytes(), (state.frame, s)
            if stepped is not None:
                assert stepped.conformal.log_factor.tobytes() == want[:-1].tobytes()
                assert stepped.log_scale == want[-1]


def result_fields(state):
    """The arrays a stepped state's step hands it: u^ (a view of the step's
    stage point), the stage rate, e^{-u^} and R."""
    conf = state.conformal
    return conf.log_factor, state.rate, conf.diffusivity, conf.curvature


def test_a_step_shares_no_buffer_with_its_result(monkeypatch):
    # a step binds its stage once, and one more call of it at y1 gives the
    # state it returns its fields: u^ in the stage point and e^{-u^} in the
    # binding's row reach the result by design, and the rate is copied out
    # of the step's stack.  No two results share memory, no later stage
    # writes into a returned field, and a step from another state on a grid
    # of the same size binds arrays that share no memory with the first's
    *_, state = stepped_states(65)
    dt = flow.adaptive_dt(state)
    bound = []
    bind = flow._bind_stage

    def spy(state, y, out):
        stage = bind(state, y, out)
        values = [cell.cell_contents for cell in stage.__closure__]
        values = [x for v in values for x in (v if isinstance(v, tuple) else (v,))]
        bound.append([y, out] + [x for x in values if isinstance(x, np.ndarray)])
        return stage

    monkeypatch.setattr(flow, "_bind_stage", spy)
    first = flow.step(state, dt)
    assert len(bound) == 1 and flow._stage_count(dt * state.conformal.stiffness) > 2
    handed = [a.tobytes() for a in result_fields(first)]
    log_factor, rate, diffusivity, curvature = result_fields(first)
    assert np.shares_memory(log_factor, bound[0][0])
    assert any(diffusivity is a for a in bound[0])
    assert not any(np.shares_memory(a, b) for a in (rate, curvature) for b in bound[0])
    second = flow.step(state, 0.5 * dt)
    third = flow.step(first, flow.adaptive_dt(first))
    alone = flow.step(replace(state), dt)
    arrays = [a for x in (first, second, third, alone) for a in result_fields(x)]
    assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays) for b in arrays[k + 1:])
    assert [a.tobytes() for a in result_fields(first)] == handed
    assert [a.tobytes() for a in result_fields(alone)] == handed
    other = build_scenario(radial_config(n=65, s_max=7.5))
    flow.step(other, flow.adaptive_dt(other))
    assert len(bound) == 5
    assert not any(np.shares_memory(a, b) for a in bound[0] for b in bound[-1])


def fresh_fields(state):
    """The state's rate, e^{-u^}, R and stiffness, as bytes, and as a state
    rebuilt with fresh caches computes them from its own Laplacian rows."""
    def fields(x):
        return [a.tobytes() for a in result_fields(x)[1:]] + [x.conformal.stiffness]

    return fields(state), fields(replace(state, conformal=replace(state.conformal)))


@pytest.mark.parametrize("n", [17, 65, 257])
def test_a_stepped_state_has_the_fields_of_a_fresh_one_bit_for_bit(n):
    # the rate, e^{-u^} and R that a step hands the state it returns, and
    # the stiffness read from that e^{-u^}, are a fresh state's bit for bit,
    # in both frames and at every stage count; the step takes none of the
    # state's own Laplacian rows.  The flat plane's R stays +0.0, never -0.0
    flat = build_scenario(radial_config(n=n, s_max=1.0, initial={"type": "flat"}))
    for state in (*stepped_states(n), replace(flat, frame=flow.FIXED), flat):
        rho = state.conformal.stiffness
        for s in (2, 7, 20):
            try:
                stepped = flow.step(state, 0.99 * flow._rkc_coefficients(s)[0] / rho)
            except flow.FlowInstabilityError:
                assert (n, state.frame, s) == (17, flow.FIXED, 20)
                continue
            assert {"rate"} <= set(vars(stepped))
            assert {"diffusivity", "curvature"} <= set(vars(stepped.conformal))
            got, want = fresh_fields(stepped)
            assert got == want, (state.frame, s)
            assert "_rows" not in vars(stepped.conformal)
            if state.conformal is flat.conformal:
                assert not np.signbit(stepped.curvature).any() and not stepped.curvature.any()


def test_the_stage_curvature_is_scalar_curvature_bit_for_bit(fixed_frame):
    # the R row a stage writes is `scalar_curvature`'s formula, signed zeros
    # included: where e^{-u} Lap_E u underflows, or e^{-u} is 0, R keeps the
    # sign of -Lap_E u, which 0.0 - (e^{-u} Lap_E u) would turn to +0.0
    state = fixed_frame(radial_config(n=65))
    grid = state.grid
    for base in (740.0, 800.0):
        u = base + 1e-3 * np.cos(grid.s)
        fresh = replace(state, conformal=ConformalState(grid, u, 0.0))
        stage = flow._bind_stage(fresh, np.append(u, 0.0), np.empty(grid.n + 1))
        curvature = np.empty(grid.n)
        stage(curvature)
        want = geometry.scalar_curvature(fresh.conformal)
        assert np.signbit(want).any() and not want.any(), base
        assert curvature.tobytes() == want.tobytes(), base
        assert stage.diffusivity.tobytes() == fresh.conformal.diffusivity.tobytes()


def test_a_chain_of_steps_takes_no_laplacian_rows_of_its_own(config_dir, monkeypatch):
    # every stepped state of a run gets its fields from its step: no state
    # after the first takes its own Laplacian rows (`ConformalState.laplacian`)
    config = load_config(config_dir / "perturbed_relax_129.json")
    state = build_scenario(config)
    calls = []
    rows = geometry._laplacian_rows

    def spy(f, *args):
        calls.append(f)
        return rows(f, *args)

    monkeypatch.setattr(geometry, "_laplacian_rows", spy)
    result = flow.run(state, 1.0, safety=config.safety, record_interval=config.record_interval)
    assert not result.aborted and result.telemetry.steps > 40
    assert calls == []


def _rkc_step_reference(rhs, y0, dt, s):
    """The RKC2 recursion as one expression per stage, stage 0 included,
    summed left to right: the reference for `flow._rkc_step`'s product."""
    _, mu_tilde_1, rows = flow._rkc_coefficients(s)
    f0 = dt * rhs(y0)
    d_older, d_old = 0.0, mu_tilde_1 * f0
    for mu, nu, mu_tilde, gamma_tilde in rows:
        d_older, d_old = d_old, (mu * d_old + nu * d_older
                                 + mu_tilde * dt * rhs(y0 + d_old) + gamma_tilde * f0)
    return y0 + d_old, d_old


def test_rkc_step_product_is_the_expression_to_rounding():
    # random data with signed zeros in y0 and in the rate's coefficients,
    # through a nonlinear rate, at every stage count a run can take: the
    # stage product sums in BLAS's order, so it agrees with the sequential
    # expression to rounding.  The bound is 4 s^2 ulps of the increment's
    # largest value, besides the last addition's ulp of y1: a stage's
    # rounding reaches the last stage through the Chebyshev recursion, and
    # 1000 draws of these data gave at most 2.1 s^2.  A component whose rate
    # is 0 keeps its value (bit for bit where it is not 0), as the co-moving
    # tip does.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(20)
    for s in range(2, flow.MAX_STAGES + 1):
        y0 = rng.standard_normal(40)
        y0[rng.integers(0, 40, 8)] = 0.0
        y0[rng.integers(0, 40, 8)] = -0.0
        coef = -rng.uniform(0.0, 3.0, 40)
        coef[rng.integers(0, 40, 6)] = 0.0
        coef[rng.integers(0, 40, 6)] = -0.0

        def rhs(y, coef=coef):
            return coef * y + 0.1 * coef * np.sin(y)

        dt = flow._rkc_coefficients(s)[0] / 3.3  # dt |coef| inside [0, beta(s)]
        got, _ = flow._rkc_step(lambda y, out: lambda: np.copyto(out, rhs(y)),
                                y0, rhs(y0), dt, s)
        want, d = _rkc_step_reference(rhs, y0, dt, s)
        bound = eps * (np.abs(want) + 4 * s**2 * np.max(np.abs(d)))
        assert np.all(np.abs(got - want) <= bound), s
        still = coef == 0.0
        assert still.any() and np.array_equal(got[still], y0[still]), s


def oracle_config(config_dir, seed=None):
    """The shipped perturbed_relax_129 data, with two seeded random bumps
    when `seed` is given."""
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
    if seed is not None:
        data["initial"]["random_bumps"] = 2
        data["seed"] = seed
    return parse_config(data)


@pytest.mark.parametrize("seed", [None, 9], ids=["shipped", "random_bumps_2_seed_9"])
def test_coupled_oracle_keeps_the_potential_at_w0_minus_u(coupled_oracle, config_dir, seed):
    # f stepped by its own heat equation beside u and log L stays on the
    # closed form w0 - u^ + 2 log L that the program reads, and stepping f
    # leaves u and log L as they are, bit for bit, at every step to t = 5
    config = oracle_config(config_dir, seed)
    trail = coupled_oracle(config, config.t_end)
    n = config.grid["n"]
    for state, y in trail:
        assert y[:n].tobytes() == state.conformal.log_factor.tobytes(), state.t
        assert y[-1:].tobytes() == np.float64(state.log_scale).tobytes(), state.t
    gap = max(float(np.max(np.abs(y[n:-1] - state.potential))) for state, y in trail)
    assert trail[-1][0].t == config.t_end and trail[-1][0].log_scale > 1.0
    assert gap <= 1e-12


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
    # the flat plane has R = 0 and so no curvature bound: dt is the stage cap
    # beta(MAX_STAGES) / rho.  rho is the tip row's Gershgorin sum after the
    # scaling d_0 = 1/sqrt 7: its diagonal 3.5/h^2 - 2/3 plus its
    # off-diagonal entries, which sum to the same, times 1/sqrt 7
    state = flat_radial_state(n=65, s_max=6.4, safety=0.5)
    h = state.grid.h
    assert h == pytest.approx(0.1)
    beta = flow._rkc_coefficients(flow.MAX_STAGES)[0]
    assert beta == pytest.approx(260.70, abs=0.005)
    rho = (3.5 / h**2 - 2.0 / 3.0) * (1.0 + 1.0 / np.sqrt(7.0))
    assert flow.adaptive_dt(state, 0.5) == pytest.approx(0.5 * beta / rho, rel=1e-12)


def _laplacian_matrix(grid):
    """The Laplacian's matrix, built column by column from the operator."""
    return np.column_stack([background_laplacian(e, grid) for e in np.eye(grid.n)])


def _diffusivity_profiles(grid, rng):
    """e^{-u} on the flat plane, the cigar, a cigar with a raised tip (which
    makes the ghost edge row bind) and at random."""
    cigar_like = np.cosh(grid.s) ** 2
    return {"flat": np.ones(grid.n), "cigar": cigar_like,
            "raised tip": cigar_like * np.exp(-2.0 * np.exp(-2.0 * grid.s**2)),
            "random": np.exp(rng.normal(size=grid.n))}


def test_stiffness_bound_covers_the_spectrum():
    # gershgorin_rows are the row sums of D|L|D^{-1}, so rho = max(e^{-u}
    # rows) bounds the spectral radius of e^{-u} L for every diffusivity; on
    # cigar-like data it is tight
    rng = np.random.default_rng(14)
    grids = [(n, s_max) for n in (16, 65, 257) for s_max in (2.0, 8.0, 30.0)] + [(513, 8.0)]
    for n, s_max in grids:
        grid = RadialGrid(n, s_max)
        lap = _laplacian_matrix(grid)
        d = np.ones(n)
        d[0], d[-1] = 1.0 / np.sqrt(7.0), (np.sqrt(73.0) - 1.0) / 18.0
        np.testing.assert_allclose(grid.gershgorin_rows,
                                   np.sum(np.abs(lap) * d[:, None] / d[None, :], axis=1), rtol=1e-12)
        for name, diffusivity in _diffusivity_profiles(grid, rng).items():
            radius = np.max(np.abs(np.linalg.eigvals(diffusivity[:, None] * lap)))
            rho = np.max(diffusivity * grid.gershgorin_rows)
            assert radius <= rho, (n, s_max, name)
            if name == "cigar":
                assert rho <= 1.1 * radius, (n, s_max)


def test_stiffness_refuses_a_non_finite_diffusivity():
    # rho = max(e^{-u~} rows) is the one scan: the rows are positive and
    # finite, so an inf in e^{-u~} gives an inf rho and a NaN a NaN, and
    # both are refused
    grid = RadialGrid(65, 8.0)
    for bad in (-1000.0, np.nan):
        u = np.zeros(grid.n)
        u[40] = bad
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflowed"):
            ConformalState(grid, u).stiffness


def test_raised_tip_takes_enough_stages():
    # a raised tip lowers the diffusivity there, so the ghost edge row binds;
    # a bound that counted half of that row's Gershgorin sum took too few
    # stages, and this run blew up to sup R = 17.3 without aborting
    bump = {"type": "perturbed_cigar", "amplitude": 0.5, "center": 0.0, "width": 0.5}
    config = radial_config(n=129, initial=bump, t_end=1.0, record=0.25)
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted
    assert max(rec.sup_R for rec in result.records) <= 4.7
    assert max(rec.res_poisson for rec in result.records) <= 1e-8


def test_shipped_run_stage_count(config_dir, monkeypatch):
    # the stages of every RKC2 step of the shipped run: the 252 accepted
    # steps' (1761), as the run's telemetry counts them; a record takes no
    # step (the curvature probe's two 2-stage steps per record added 84).
    # The count is exact; the accuracy bound h / sup|R| took 2093, and a
    # looser stiffness bound took more still (2549).
    config = load_config(config_dir / "perturbed_relax_129.json")
    stages = []
    rkc_step = flow._rkc_step

    def spy(rhs, y0, rate0, dt, s):
        stages.append(s)
        return rkc_step(rhs, y0, rate0, dt, s)

    monkeypatch.setattr(flow, "_rkc_step", spy)
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted
    assert sum(stages) == result.telemetry.stages == 1761


def test_shipped_run_laplacian_count(config_dir, monkeypatch):
    """The Laplacian row passes of the shipped run, set-up included: each
    state's rows are taken once and serve its curvature and its stage rate
    (`FlowState.rate`), which is stage 0 of the accepted step and gives a
    record's dR/dt.  The t = 0 state takes its own rows
    (`ConformalState.laplacian`); a stepped state's pass is its step's one
    more call of the bound stage, at the new point, which hands it its rate,
    e^{-u^} and R (`flow.step`).  That call is not an RKC2 stage, so the
    stage count stays at 1761.  A record takes four more
    passes, of the potential, u^'s rate, R and phi, and no step (the
    curvature probe's steps and triple residual took five, 1912 in all).
    Records are taken in blocks (`record_block`), so a call on a (K, n)
    block counts K passes.  Set-up takes u~0's rows once, for the t = 0
    state's curvature: res_poisson0 is the t = 0 record's res_poisson, so
    `InitialData` takes neither u~0's rows nor f(0)'s (1849 when it did),
    and once more for `build_scenario`'s Lap_g R(0).  The count is exact;
    taking stage 0 afresh in every RKC2 step made 2205.  Every pass is one
    `_laplacian_pass`: through `_laplacian_rows`, or from a call of the
    stage on the views its step bound once (`flow._bind_stage`)."""
    config = load_config(config_dir / "perturbed_relax_129.json")
    passes = []
    for module in (geometry, flow):
        rows = module._laplacian_pass

        def spy(f, *args, rows=rows):
            passes.append(len(f) if np.ndim(f) == 2 else 1)
            return rows(f, *args)

        monkeypatch.setattr(module, "_laplacian_pass", spy)
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted and result.telemetry.steps == 252
    assert sum(passes) == 1847


def spline_solves(monkeypatch):
    """A list that gets the row count of every spline slope solve's block of
    right-hand sides from now on: its sum is the rows solved."""
    solves = []
    solve = GridSpline._solve

    def spy(self, b):
        solves.append(len(b))
        return solve(self, b)

    monkeypatch.setattr(GridSpline, "_solve", spy)
    return solves


def test_shipped_run_solve_count(config_dir, monkeypatch):
    """The spline slope solves of the shipped run, rows counted, set-up
    included: one for u~0's maximum, one for the t = 0 record's normalized
    profile (the initial state has log L = 0, so it is never mapped) and one
    per accepted step (252) for the frame map of the accumulators.  Records
    wait for a full block, so the run takes its 21 records in one block at
    its end.  17 of the 20 later record states are fitted twice: once as
    rows of the chain catch-ups that `step` makes while they wait, and once
    more in the record block for their normalized profiles, which their
    maps' rows do not give (271).  The other 3 are rows of the record
    block's fit alone, which gives both their maps and their profiles.
    Flushing the waiting records before each such catch-up avoided the
    second solve (254), at the price of 8 record blocks of 2-3.  The count
    is exact; fitting u~ anew at each record took 274 (under the accuracy
    bound h / sup|R|, 348 steps made 350 solves)."""
    config = load_config(config_dir / "perturbed_relax_129.json")
    solves = spline_solves(monkeypatch)
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted
    assert len(result.records) == 21
    assert sum(solves) == 271


@pytest.mark.parametrize("case", ["fixed_frame", "refine_257"])
def test_rows_at_log_scale_zero_are_fitted_only_for_a_profile(config_dir, fixed_frame,
                                                              monkeypatch, case):
    """A row with log L = 0 is its own map: it is fitted only for a normalized
    profile, never for the frame map alone.  Set-up included, one solve for
    u~0's maximum.  The shipped data in the fixed frame to t = 1, a record
    every 0.25, takes one more per record (5) and none for the 56 states
    between them; fitting every row made 62.  The exact cigar at n = 257 to
    t = 0.5, the refinement study's finest level, takes 51 steps, so a
    step catches up its chain from the t = 0 state before that state's
    record maps it: one solve per record (2) and one per other moved state
    (50); fitting every row made 54."""
    solves = spline_solves(monkeypatch)
    if case == "fixed_frame":
        data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
        data["stepping"].update(t_end=1.0, record_interval=0.25)
        config = parse_config(data)
        result = flow.run(fixed_frame(config), config.t_end, safety=config.safety,
                          record_interval=config.record_interval)
        expected = 6
    else:
        _, result = manufactured_solution_error(257, 8.0, 0.9, 0.5)
        expected = 53
    assert not result.aborted
    assert sum(solves) == expected


def test_adaptive_dt_curvature_bound(fixed_frame):
    # on cigar data the accuracy bound C h / sup|R| is the smaller term, in
    # both frames; sup|R| = 4 at the tip
    assert flow.CURVATURE_STEP == 1.4
    for state in (cigar_flow_state(129), fixed_frame(radial_config(n=129))):
        sup_r = np.max(np.abs(state.curvature))
        assert sup_r == pytest.approx(4.0, abs=5 * state.grid.h**2)
        assert flow.adaptive_dt(state, 0.9) == 0.9 * (flow.CURVATURE_STEP * state.grid.h / sup_r)


def test_time_error_stays_a_hundredth_of_the_spatial_error(config_dir):
    """The rule behind CURVATURE_STEP, on the shipped run: at t = 5 its time
    error stays at most 1/100 of its spatial error, both taken on u~ at the
    fixed nodes at n = 129.  The time error is a Richardson estimate, the
    gap between the run at the shipped safety 0.9 and its extrapolation
    u(0.45) + (u(0.45) - u(0.9)) / 3; the spatial error is the gap between
    the extrapolated runs at n = 129 and 257 on the shared nodes.  Measured
    108 (a dt-converged reference gives 106); C = 1.5 gives 94, C = 1 gives
    206."""
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())

    def u_fixed(n, safety):
        data["grid"]["n"], data["stepping"]["safety"] = n, safety
        config = parse_config(data)
        result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                          record_interval=config.record_interval)
        assert not result.aborted and result.final_state.t == 5.0
        return result.final_state.u_fixed

    runs = {(n, safety): u_fixed(n, safety) for n in (129, 257) for safety in (0.9, 0.45)}

    def extrapolated(n):
        return runs[n, 0.45] + (runs[n, 0.45] - runs[n, 0.9]) / 3.0

    time_error = np.max(np.abs(runs[129, 0.9] - extrapolated(129)))
    spatial_error = np.max(np.abs(extrapolated(129) - extrapolated(257)[::2]))
    assert spatial_error / time_error >= 100.0


def test_cigar_number_converges_to_four_at_second_order(config_dir):
    """Q(20) - 4 of the shipped data at n = 129 and 257, Q = sup R
    (C_inf / 2 pi)^2 from the t = 20 record: the co-moving profile relaxes
    to a cigar, so Q - 4 is the spatial error alone and falls 4x per
    halving of h.  Measured -3.906e-3 and -9.792e-4, order 1.996."""
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
    data["stepping"].update(t_end=20.0, record_interval=5.0)
    gaps = []
    for n in (129, 257):
        data["grid"]["n"] = n
        config = parse_config(data)
        result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                          record_interval=config.record_interval)
        final = result.records[-1]
        assert not result.aborted and final.t == 20.0
        gaps.append(cigar_number(final.sup_R, final.cinf_est) - 4.0)
    assert 1.8 <= np.log2(gaps[0] / gaps[1]) <= 2.2, gaps


def test_shipped_run_telemetry(shipped_reports):
    # every record time ends one clipped step; the stage counts are pinned
    # exactly by test_shipped_run_stage_count
    telemetry = shipped_reports["perturbed_relax_129"].result.telemetry
    assert (telemetry.steps, telemetry.clipped_steps) == (252, 20)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the outer edge reflects the "
                   "perturbation, and sup log u rises at the edge node from t = 3.25 on")
def test_comoving_sup_log_u_is_non_increasing(shipped_reports):
    # the maximum principle on every co-moving node, with verify's sup h
    # tolerance: unlike the fixed-node sup h, it keeps seeing the whole
    # profile once the fixed nodes crowd into the tip
    records = shipped_reports["perturbed_relax_129"].result.records
    rises = [b.sup_log_u - a.sup_log_u - H_MONOTONE_TOL * (b.t - a.t) - 1e-12
             for a, b in zip(records, records[1:])]
    assert max(rises) <= 0.0


def test_record_dense_steps_are_all_clipped():
    # records every 0.005 come before the free step at n = 65, so each step
    # is cut to the next record and the accuracy bound never sets dt
    bumps = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5,
             "random_bumps": 2}
    config = radial_config(n=65, initial=bumps, t_end=0.25, record=0.005, extra={"seed": 0})
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted
    telemetry = result.telemetry
    assert telemetry.steps == telemetry.clipped_steps == 50
    assert min(rec.dt for rec in result.records) > 0.005


def test_adaptive_dt_scales_with_diffusivity():
    base = flat_radial_state()
    shifted = flow.FlowState(
        conformal=ConformalState(base.grid, base.conformal.log_factor - np.log(4.0)),
        t=0.0,
        log_scale=0.0,
        frame="fixed",
        init=base.init,
        acc=base.acc,
    )
    assert flow.adaptive_dt(shifted, 0.5) == pytest.approx(
        flow.adaptive_dt(base, 0.5) / 4.0, rel=1e-12
    )


def test_stability_sweep(overdrive):
    # safety 0.9 integrates quietly to t = 1; overdriven steps abort
    state = cigar_flow_state(65)
    result = flow.run(state, 1.0, safety=0.9, record_interval=0.5)
    assert not result.aborted
    assert all(rec.finite for rec in result.records)
    with overdrive():
        result = flow.run(cigar_flow_state(65), 1.0, safety=0.9, record_interval=0.5)
    assert result.aborted


def test_comoving_run_of_a_moderate_bump_does_not_abort(fixed_frame):
    # the bump's crest lies between nodes; see below for the same data at a
    # smaller dt
    bump = {"type": "perturbed_cigar", "amplitude": 5.0, "center": 2.0, "width": 0.5}
    config = radial_config(n=65, initial=bump, t_end=0.05, record=0.05)
    for state in (fixed_frame(config), build_scenario(config)):
        result = flow.run(state, config.t_end, safety=0.9,
                          record_interval=config.record_interval)
        assert not result.aborted, f"{state.frame}: {result.abort_message}"


def test_comoving_run_of_a_moderate_bump_at_half_safety_does_not_abort(fixed_frame):
    # no node sits on the crest, so the node maximum starts 0.007 below the
    # profile's; as gamma carries the crest inward a node's sample rises
    # although the profile's maximum falls.  The sup u~ abort therefore
    # compares the nodes with the maximum of u~0's spline.
    bump = {"type": "perturbed_cigar", "amplitude": 5.0, "center": 2.0, "width": 0.5}
    config = radial_config(n=65, initial=bump, t_end=0.05, record=0.05)
    for state in (fixed_frame(config), build_scenario(config)):
        result = flow.run(state, config.t_end, safety=0.5,
                          record_interval=config.record_interval)
        assert not result.aborted, f"{state.frame}: {result.abort_message}"


def test_comoving_run_of_a_moderate_bump_records_only_finite_values(fixed_frame):
    # every record is finite in both frames; when res_curv_evo came from a
    # curvature probe that stepped the t = 0 state's co-moving nodes, a
    # node-maximum abort threshold made it NaN (0.0438 in the fixed frame)
    bump = {"type": "perturbed_cigar", "amplitude": 5.0, "center": 2.0, "width": 0.5}
    config = radial_config(n=65, initial=bump, t_end=0.05, record=0.05)
    for state in (fixed_frame(config), build_scenario(config)):
        result = flow.run(state, config.t_end, safety=0.9,
                          record_interval=config.record_interval)
        assert all(rec.finite for rec in result.records), state.frame


def test_rkc_stability_polynomial():
    # one step of y' = z y multiplies y by P(z): |P| <= 1 on [-beta(s), 0],
    # damped to |P| <= 0.97 once z <= -beta / 20, and P(z) = 1 + z + z^2 / 2
    # + O(z^3) (second order).  The stage count is the fewest stages whose
    # interval covers dt * rho.
    for s in range(2, flow.MAX_STAGES + 1):
        beta = flow._rkc_coefficients(s)[0]
        z = np.linspace(-beta, 0.0, 4001)
        p, _ = flow._rkc_step(partial(partial, np.multiply, z), np.ones(z.size), z, 1.0, s)
        assert np.max(np.abs(p)) <= 1.0 + 1e-12, s
        assert np.max(np.abs(p[z <= -beta / 20])) <= 0.97, s
        z = np.array([-1e-2, -5e-3, -2.5e-3])
        p, _ = flow._rkc_step(partial(partial, np.multiply, z), np.ones(z.size), z, 1.0, s)
        assert np.all(np.abs(p - (1.0 + z + 0.5 * z * z)) <= 0.2 * np.abs(z) ** 3), s
        assert flow._stage_count(beta) == s
        assert flow._stage_count(beta * (1.0 + 1e-12)) == s + 1


def test_time_step_halving_converges_at_second_order(config_dir):
    # at fixed h the final fixed-frame u~ of the shipped perturbed run moves
    # 4x less each time dt halves: RKC2's time error is O(dt^2)
    config = load_config(config_dir / "perturbed_relax_129.json")
    finals = []
    for safety in (0.9, 0.45, 0.225):
        result = flow.run(build_scenario(config), config.t_end, safety=safety,
                          record_interval=config.t_end)
        assert not result.aborted
        finals.append(flow.fixed_fields(result.final_state)["u_tilde"])
    coarse = np.max(np.abs(finals[0] - finals[1]))
    fine = np.max(np.abs(finals[1] - finals[2]))
    assert 1.8 <= np.log2(coarse / fine) <= 2.2


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
    state = cigar_flow_state(129)
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


def test_a_step_beyond_the_stage_limit_is_refused():
    # a dt that needs more than STAGE_LIMIT stages aborts at once instead of
    # building a stage table that grows with dt
    state = cigar_flow_state(65)
    with pytest.raises(flow.FlowInstabilityError, match="200 stages: unstable step"):
        flow.step(state, 1e12)
    result = flow.run(state, 1e6, safety=1e9, record_interval=1e6)
    assert result.aborted and "needs more than 200 stages" in result.abort_message


def test_unstable_step_aborts(overdrive):
    state = cigar_flow_state(65)
    dt = flow.adaptive_dt(state, 1.0)
    with overdrive(), pytest.raises(flow.FlowInstabilityError):
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
    bad = ConformalState(state.grid,
                         np.where(state.grid.s > 4, np.nan, state.conformal.log_factor),
                         state.conformal.edge_slope)
    rec = flow.monitor(replace(state, conformal=bad))
    assert not rec.finite


def test_v_consistency_accumulates_at_scheme_order():
    discrepancies = {}
    for n in (65, 129):
        result = flow.run(cigar_flow_state(n), 0.5, safety=0.9, record_interval=0.5)
        discrepancies[n] = result.records[-1].v_discrepancy
    assert discrepancies[129] <= 2e-6
    # dt = 0.9 CURVATURE_STEP h / sup|R| scales with h; under dt = 0.9 h /
    # sup|R| the drift fell 14x from n = 65 to 129 and 16x from 129 to 257
    assert discrepancies[65] / discrepancies[129] >= 6.0


# ---------------------------------------------------------------------------
# curvature evolution residual
# ---------------------------------------------------------------------------

def test_curvature_evolution_exact_triples_quarter():
    # the evolving soliton in the fixed frame, and the same solution in the
    # co-moving frame with L = e^{2t}, where it is static and all of R_t is
    # the drift of the co-moving nodes (zero at the tip, so only off it)
    def comoving_soliton_state(g, t):
        return replace(flow.exact_soliton_state(g, 0.0), t=t, log_scale=2.0 * t,
                       frame=flow.COMOVING)

    for build in (flow.exact_soliton_state, comoving_soliton_state):
        values = {}
        for n, dt in ((129, 1e-3), (257, 5e-4)):
            g = RadialGrid(n, 2.0)  # h = 1/64 at n = 129
            tc = 0.1
            triple = [build(g, tc + k * dt) for k in (-1, 0, 1)]
            values[n] = float(np.max(np.abs(flow.curvature_evolution_residual(*triple))))
        assert values[129] <= 1e-2, build.__name__
        assert 3.0 <= values[129] / values[257] <= 5.5, build.__name__


def test_curvature_evolution_flat_is_zero():
    state = flat_radial_state()
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


def _shipped_run(config_dir, **changes):
    """flow.run of the shipped perturbed config with `changes` to its
    stepping section (and `n` to its grid)."""
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
    data["grid"]["n"] = changes.pop("n", data["grid"]["n"])
    data["stepping"].update(changes)
    config = parse_config(data)
    return flow.run(build_scenario(config), config.t_end, safety=config.safety,
                    record_interval=config.record_interval)


@pytest.mark.parametrize("t_end", [0.25, 2.25])
def test_record_residual_is_the_triple_residual_as_dt_vanishes(config_dir, t_end):
    # a record's res_curv_evo takes dR/dt and gamma from the state's own
    # rate: the limit of the residual of the triple stepped about the state
    # at dt -> 0, whose time error is O(dt^2) (co-moving shipped data)
    s0 = _shipped_run(config_dir, t_end=t_end).final_state
    s1 = flow.step(s0, 1e-5)
    s2 = flow.step(s1, 1e-5)
    triple = float(np.abs(flow.curvature_evolution_residual(s0, s1, s2)).max())
    assert flow.monitor(s1).res_curv_evo == pytest.approx(triple, rel=1e-6)


def test_record_residual_is_second_order_on_the_shipped_data(config_dir, shipped_reports):
    # with no time error left the co-moving residual is spatial alone, and
    # falls 4x per halving of h (measured 3.98 to 4.00)
    coarse = {rec.t: rec.res_curv_evo
              for rec in shipped_reports["perturbed_relax_129"].result.records}
    fine = {rec.t: rec.res_curv_evo
            for rec in _shipped_run(config_dir, n=257, t_end=4.75).records}
    for t in (0.25, 2.25, 4.75):
        assert 3.8 <= coarse[t] / fine[t] <= 4.2, t


def test_record_residual_reads_rounding_in_the_fixed_frame(fixed_frame):
    # away from the edge rows the fixed-frame semi-discrete flow satisfies
    # the discrete R_t = Lap_g R + R^2 identically: the record reads
    # rounding, where the curvature probe read its own time error (2.7e-4 at t = 0)
    result = flow.run(fixed_frame(radial_config(n=129)), 0.5, record_interval=0.1)
    assert not result.aborted and len(result.records) == 6
    assert max(rec.res_curv_evo for rec in result.records) <= 1e-12
    exact = flow.exact_soliton_state(RadialGrid(129, 8.0), 0.3)
    assert flow.monitor(exact).res_curv_evo <= 1e-12


def test_shipped_run_takes_no_step_at_a_record(config_dir, monkeypatch):
    # every flow.step call is an accepted step: a record reads its residual
    # from the state alone
    calls = []
    step = flow.step

    def spy(state, dt):
        calls.append(dt)
        return step(state, dt)

    monkeypatch.setattr(flow, "step", spy)
    result = _shipped_run(config_dir)
    assert len(calls) == result.telemetry.steps == 252


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_identity_when_origin_factor_vanishes():
    state = cigar_flow_state(129)
    normalized, scale = flow.normalize(state)
    assert scale == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(normalized.log_factor, state.conformal.log_factor, atol=1e-12)


def test_normalize_evolved_soliton_recovers_cigar(fixed_frame):
    for state, window in ((cigar_flow_state(129), None), (fixed_frame(radial_config(n=129)), 4.0)):
        result = flow.run(state, 0.5, safety=0.9, record_interval=0.5)
        final = result.final_state
        normalized, scale = flow.normalize(final, s_window=window)
        assert scale == pytest.approx(np.exp(2 * final.t), rel=5e-3)
        target = -cigar.cigar_potential_arclength(normalized.grid.s)
        assert np.max(np.abs(normalized.log_factor - target)) <= 30 * state.grid.h**2


def test_normalize_gradient_invariance():
    # |grad f|_g at x equals |grad f.Phi|_{Phi*g} at Phi^{-1} x
    state = cigar_flow_state(129)
    result = flow.run(state, 0.3, safety=0.9, record_interval=0.3)
    final = result.final_state
    grid = final.grid
    fields = flow.fixed_fields(final)
    f_spline = CubicSpline(grid.s, fields["f"], bc_type=((1, 0.0), (1, final.potential_slope)))
    u_spline = CubicSpline(grid.s, fields["u_tilde"],
                           bc_type=((1, 0.0), (1, final.conformal.edge_slope)))
    scale = flow.normalize(final)[1]

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
    shifted_conf = ConformalState(state.grid, state.conformal.log_factor + 0.8)
    shifted = replace(state, conformal=shifted_conf)
    normalized, scale = flow.normalize(shifted)
    assert scale == pytest.approx(np.exp(-0.4), rel=1e-12)
    np.testing.assert_allclose(normalized.log_factor, 0.0, atol=1e-9)


@pytest.mark.parametrize("n", [65, 129])
def test_profile_distance_on_the_cached_window_is_a_fresh_grid_bit_for_bit(n, monkeypatch):
    # the window grid and its cigar profile are cached per (k, h); the
    # distance must be the one on a freshly built RadialGrid(k, (k - 1) h),
    # at t = 0 and on evolved data
    bump = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5}
    config = radial_config(n=n, initial=bump, t_end=0.3, record=0.3)
    start = build_scenario(config)
    final = flow.run(start, config.t_end, record_interval=config.record_interval).final_state
    fresh_window = flow._profile_window.__wrapped__
    for state in (start, final):
        for s_window in (None, 2.0, 4.0, 7.9):
            cached = [flow.profile_distance(state, s_window) for _ in range(2)]
            with monkeypatch.context() as patch:
                patch.setattr(flow, "_profile_window", fresh_window)
                fresh = flow.profile_distance(state, s_window)
            assert cached == [fresh] * 2, s_window
            if s_window is not None:
                k = int(np.floor(s_window / state.grid.h + 1e-9)) + 1
                window = flow.normalize(state, s_window)[0].grid
                assert window.s.tobytes() == RadialGrid(k, (k - 1) * state.grid.h).s.tobytes()


def test_normalize_window_shrink_error(fixed_frame):
    state = fixed_frame(radial_config(n=129))
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


def fixed_potential(state):
    """The state's potential at the fixed nodes arcsinh(r / L), from its own
    clamped spline."""
    nodes = np.arcsinh(state.grid.r * np.exp(-state.log_scale))
    return state.grid.spline.fit([state.potential], state.potential_slope)([nodes])[0]


def kahler_cross_check(states):
    """Reference for the runner's phi accumulator: kahler_residual of the
    last state, with phi rebuilt from an explicit trajectory that starts at
    t = 0 by the same trapezoidal rule `step` applies."""
    phi = np.zeros(states[0].grid.n)
    f_prev = fixed_potential(states[0])
    for prev, st in zip(states, states[1:]):
        f_now = fixed_potential(st)
        phi = phi - 0.5 * (st.t - prev.t) * (f_prev + f_now)
        f_prev = f_now
    last = replace(states[-1], acc=replace(states[-1].acc, phi=phi))
    return flow.kahler_residual(last)


def test_kahler_cross_check_matches_online_accumulator():
    state = cigar_flow_state(65)
    states = [state]
    for _ in range(20):
        states.append(flow.step(states[-1], 1e-3))
    online = flow.kahler_residual(states[-1])
    recomputed = kahler_cross_check(states)
    assert recomputed == pytest.approx(online, rel=1e-10, abs=1e-15)


def test_u_fixed_is_the_mapped_log_factor(tmp_path):
    # fixed_fields and kahler_residual read u~ from FlowState.u_fixed: the
    # t = 0 state's is u~0, a stepped state's is the mapped u^ less 2 log L,
    # and a loaded snapshot derives the saved state's, all bit for bit
    state = build_scenario(radial_config(
        n=65, initial={"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0,
                       "width": 0.5}))
    assert state.u_fixed.tobytes() == state.init.u_tilde0.tobytes()
    for _ in range(20):
        state = flow.step(state, flow.adaptive_dt(state))
    assert state.log_scale != 0.0  # the map is not the identity
    assert state.u_fixed.tobytes() == flow.map_to_fixed(state).tobytes()
    save_snapshot(state, tmp_path / "snap.txt")
    assert load_snapshot(tmp_path / "snap.txt").u_fixed.tobytes() == state.u_fixed.tobytes()


def _bits(acc):
    return [np.asarray(getattr(acc, name), dtype=float).tobytes()
            for name in ("v_integral", "phi")]


def assert_blocks_match_eager_steps(final, trail):
    """`final`'s accumulators, read first, then those of every state on the
    way to it, equal the eager reference bit for bit; returns the number of
    steps."""
    got = _bits(final.acc)
    steps = trail(final)
    assert steps and steps[-1][0] is final
    assert got == _bits(steps[-1][1])
    for state, eager in steps:
        assert _bits(state.acc) == _bits(eager), state.t
    return len(steps)


@pytest.mark.parametrize("name, stepping, frame", [
    # one record at t = 5: the steps reach it in several blocks
    ("perturbed_relax_129.json", {"record_interval": 5.0}, flow.COMOVING),
    # R = 0, so log L stays exactly 0.0 and no state is mapped
    ("flat_radial_65.json", {"t_end": 40.0, "record_interval": 40.0}, flow.COMOVING),
    ("perturbed_relax_129.json", {"t_end": 1.0, "record_interval": 1.0}, flow.FIXED),
], ids=["perturbed_relax_129.json-stepping0", "flat_radial_65.json-stepping1",
        "perturbed_relax_129.json-stepping2"])
def test_run_accumulators_match_eager_steps(config_dir, eager_oracle, fixed_frame, name,
                                            stepping, frame):
    data = json.loads((config_dir / name).read_text())
    data["stepping"].update(stepping)
    config = parse_config(data)
    state = fixed_frame(config) if frame == flow.FIXED else build_scenario(config)
    result = flow.run(state, config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted and len(result.records) == 2
    steps = assert_blocks_match_eager_steps(result.final_state, eager_oracle)
    assert steps == result.telemetry.steps > flow.BLOCK_STEPS
    if name.startswith("flat"):
        assert result.final_state.log_scale == 0.0


def test_accumulators_read_after_every_step_match_eager_steps(eager_oracle):
    state = build_scenario(radial_config(
        n=65, initial={"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0,
                       "width": 0.5}))
    for _ in range(20):
        state = flow.step(state, flow.adaptive_dt(state))
        state.acc  # noqa: B018 -- a block of one step
    assert assert_blocks_match_eager_steps(state, eager_oracle) == 20


def test_aborted_run_carries_accumulators_through_its_last_good_step(overdrive, eager_oracle):
    with overdrive():
        result = flow.run(cigar_flow_state(65), 1.0, safety=0.9, record_interval=0.5)
    assert result.aborted
    assert assert_blocks_match_eager_steps(result.final_state, eager_oracle) >= 2


def test_pending_steps_never_exceed_a_block():
    # what unread accumulators keep alive stays bounded: a longer chain is
    # brought up to date by the step that would extend it
    state = cigar_flow_state(65)
    depths = []
    for _ in range(3 * flow.BLOCK_STEPS):
        state = flow.step(state, flow.adaptive_dt(state))
        depths.append(vars(state)["acc"].depth)
    assert max(depths) == flow.BLOCK_STEPS
    assert depths.count(1) == 3


def test_pending_chains_keep_little_memory_alive(config_dir):
    # each pending link keeps the state it left alive, up to BLOCK_STEPS of
    # them, and so does each waiting record state.  The shipped data at
    # n = 257 to t = 20 peaks under tracemalloc at 1.56 MB with a record
    # every 5 (1.79 MB while each held state kept its own Laplacian rows; an
    # unbounded chain took 18.6 MB), and at 2.42 MB with a record every 0.25:
    # 81 records in blocks of 32, each waiting past the catch-ups of its
    # chain.  Rows of the catch-up's (K, n) blocks as a waiting record's map
    # and phi took 5.64 MB there
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
    data["grid"]["n"] = 257
    for interval, steps, records in ((5.0, 2012, 5), (0.25, 2059, 81)):
        data["stepping"].update(t_end=20.0, record_interval=interval)
        config = parse_config(data)
        state = build_scenario(config)  # forms the grid's spline
        tracemalloc.start()
        try:
            result = flow.run(state, config.t_end, safety=config.safety,
                              record_interval=config.record_interval)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.aborted and result.telemetry.steps == steps
        assert len(result.records) == records
        assert peak <= 3e6, interval


# ---------------------------------------------------------------------------
# records taken in blocks
# ---------------------------------------------------------------------------

def test_a_run_past_log_scale_372_records_a_finite_sup_log_u():
    # past log L ~ 372 L^-2 underflows: the tip's log u is u^(0) - 2 log L,
    # with no divide-by-zero warning (the suite makes warnings errors), and
    # each record's sup log u is the node maximum of log u = u~ +
    # log(1 + L^2 sinh^2 a), taken here with logaddexp
    config = radial_config(n=33, initial={"type": "scaled_cigar", "scale": 1e-3},
                           t_end=0.2, record=0.05)
    states = []
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval,
                      snapshot_times=[0.05 * k for k in range(5)], snapshot_hook=states.append)
    assert not result.aborted and len(result.records) == len(states) == 5
    assert states[-1].log_scale > 372.0
    for record, state in zip(result.records, states):
        log_l = state.log_scale
        with np.errstate(divide="ignore"):
            log_r = np.log(state.grid.r)
        log_u = (state.conformal.log_factor - 2.0 * log_l
                 + np.logaddexp(0.0, 2.0 * (log_l + log_r)))
        assert np.isfinite(record.sup_log_u), state.t
        assert record.sup_log_u == pytest.approx(log_u.max(), rel=1e-12, abs=1e-12), state.t


def record_dense_config(seed, t_end=1.0):
    """The benchmark's record_dense data: a record every 0.005, which every
    step ends at, so `run` takes them in blocks of BLOCK_STEPS."""
    bumps = {"type": "perturbed_cigar", "amplitude": 0.3, "center": 2.0, "width": 0.5,
             "random_bumps": 2}
    return radial_config(n=65, initial=bumps, t_end=t_end, record=0.005, extra={"seed": seed})


def run_seen(state, config, s_report=4.0):
    """flow.run to the config's t_end, with a snapshot at every record time:
    the result and the (kind, t) of every progress and snapshot call, and
    the states the snapshots were given, which are the record states."""
    calls, states = [], []

    def snapshot(state):
        calls.append(("snapshot", state.t))
        states.append(state)

    count = int(round(config.t_end / config.record_interval))
    result = flow.run(state, config.t_end, safety=config.safety,
                      record_interval=config.record_interval, s_report=s_report,
                      snapshot_times=[k * config.record_interval for k in range(count + 1)],
                      snapshot_hook=snapshot,
                      progress=lambda rec: calls.append(("progress", rec.t)))
    return result, calls, states


def records_state_by_state(state, dt_hint, s_window):
    """The reference for a record taken in a block: (record, profile
    distance, Kahler residual) of the state alone, from the per-state
    operators, one field at a time, as each was taken before records came
    in blocks.  u~ at the fixed nodes and the normalized profile on the
    window |s| <= s_window are read from the state's own clamped spline,
    as `fixed_potential` reads the potential, not from the frame map that
    `record_block` shares with `map_to_fixed` and `normalize`."""
    grid, conf, init = state.grid, state.conformal, state.init
    u_hat, curv = conf.log_factor, state.curvature
    fit = grid.spline.fit([u_hat], conf.edge_slope)
    u_fixed = u_hat
    if state.log_scale != 0.0:
        u_fixed = fit([np.arcsinh(grid.r * np.exp(-state.log_scale))])[0]
    u_fixed = u_fixed - 2.0 * state.log_scale
    fields = flow._fixed_fields(init, u_fixed)
    report = geometry.width_report(conf)
    rate = state.rate
    with np.errstate(over="ignore", invalid="ignore"):
        r_rate = -curv * rate[:-1] - conf.diffusivity * background_laplacian(rate[:-1], grid)
        slope = geometry._edge_slope_estimate(grid, curv)
        drift = float(rate[-1]) * grid.tanh_s * geometry._radial_derivative(grid, curv, slope)
        lap_r = geometry.metric_laplacian(curv, conf, slope)
        res_curv = np.abs((r_rate - drift - lap_r - curv**2)[:-2]).max()
    lap_f = geometry.metric_laplacian(state.potential, conf, state.potential_slope)
    log_u = u_hat + np.log(np.exp(-2.0 * state.log_scale) + grid.r**2)
    values = [
        curv.max(), curv.min(), u_hat.max() - 2.0 * state.log_scale,
        geometry._metric_gradient_sq(grid, u_hat, u_hat, conf.edge_slope).max(),
        np.abs(fields["w"] - init.w0).max(), fields["h"].max(), report.width_bound,
        report.cinf_estimate, np.abs(lap_f - curv).max(), res_curv,
        abs(fields["v"][0] + state.acc.v_integral), log_u.max(),
    ]
    record = DiagnosticsRecord(state.t, float(dt_hint), *map(float, values))
    # the window's nodes pulled back by the normalizing dilation e^{-u^(0)/2},
    # the profile continued past s_max with the edge slope
    k = max(int(np.floor(s_window / grid.h + 1e-9)) + 1, 16)
    window = RadialGrid(k, (k - 1) * grid.h)
    pos = np.arcsinh(np.exp(-0.5 * u_hat[:1]) * window.r)
    distance = None
    if pos[-1] <= grid.s_max * (1.0 + 1e-9) + 0.5 * grid.h:
        profile = fit([np.minimum(pos, grid.s_max)])[0] - u_hat[0]
        beyond = pos > grid.s_max
        profile[beyond] += conf.edge_slope * (pos[beyond] - grid.s_max)
        target = -cigar.cigar_potential_arclength(window.s)
        distance = float(np.abs(profile - target).max())
    lap_phi = background_laplacian(state.acc.phi, grid, state.t * conf.edge_slope)
    kahler = np.abs((np.exp(u_fixed) - np.exp(init.u_tilde0) - lap_phi)[:-1]).max()
    return record, distance, float(kahler)


def block_sizes(monkeypatch):
    """The size of every block `run` takes its records in, from now on."""
    sizes = []
    block = flow.record_block

    def spy(states, *args):
        sizes.append(len(states))
        return block(states, *args)

    monkeypatch.setattr(flow, "record_block", spy)
    return sizes


@pytest.mark.parametrize("case", ["record_dense_0", "record_dense_1", "record_dense_2",
                                  "record_dense_3", "perturbed_relax_129", "fixed_frame",
                                  "fixed_frame_wide_window"])
def test_block_records_are_each_state_alone(config_dir, fixed_frame, monkeypatch, case):
    """Every record, profile distance and Kahler residual of a run, taken in
    blocks (`record_block`), is what `monitor`, `profile_distance` and
    `kahler_residual` give for its state alone, and what the per-state
    reference `records_state_by_state` gives, pickled bit for bit.  The
    fixed frame's rows need no map, and its window of 7.9 leaves the grid
    at most records, so one block holds distances and Nones."""
    s_report = 4.0
    if case.startswith("record_dense"):
        config = record_dense_config(int(case[-1]))
        state = build_scenario(config)
    else:
        data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
        if case.startswith("fixed_frame"):
            data["stepping"].update(t_end=1.0, record_interval=0.05)
        config = parse_config(data)
        state = build_scenario(config) if case == "perturbed_relax_129" else fixed_frame(config)
        s_report = 7.9 if case == "fixed_frame_wide_window" else s_report
    sizes = block_sizes(monkeypatch)
    result, _, states = run_seen(state, config, s_report)
    monkeypatch.undo()
    assert not result.aborted and [x.t for x in states] == [rec.t for rec in result.records]
    assert max(sizes) == flow.BLOCK_STEPS if case.startswith("record_dense") else max(sizes) > 1

    window = min(s_report, state.grid.s_max)
    alone_records = [flow.monitor(x, rec.dt) for x, rec in zip(states, result.records)]
    alone_distances = []
    for x in states:
        try:
            alone_distances.append((x.t, flow.profile_distance(x, window)))
        except ValueError:
            alone_distances.append((x.t, None))
    alone_kahler = [(x.t, flow.kahler_residual(x)) for x in states]
    assert pickle.dumps(result.records) == pickle.dumps(alone_records)
    assert pickle.dumps(result.dist_trace) == pickle.dumps(alone_distances)
    assert pickle.dumps(result.kahler_trace) == pickle.dumps(alone_kahler)
    by_state = [records_state_by_state(x, rec.dt, window)
                for x, rec in zip(states, result.records)]
    assert pickle.dumps(result.records) == pickle.dumps([r for r, _, _ in by_state])
    assert pickle.dumps(result.dist_trace) == pickle.dumps(
        [(x.t, d) for x, (_, d, _) in zip(states, by_state)])
    assert pickle.dumps(result.kahler_trace) == pickle.dumps(
        [(x.t, k) for x, (_, _, k) in zip(states, by_state)])
    nones = sum(dist is None for _, dist in result.dist_trace)
    assert (0 < nones < len(states)) == (case == "fixed_frame_wide_window")


def test_record_dense_takes_one_catch_up_per_block(monkeypatch):
    # the record states of a block are one chain: reading the newest one's
    # accumulators brings every state of the chain up to date at once
    catch_ups = []
    catch_up = flow._catch_up

    def spy(state):
        catch_ups.append(state.t)
        catch_up(state)

    monkeypatch.setattr(flow, "_catch_up", spy)
    sizes = block_sizes(monkeypatch)
    result = flow.run(build_scenario(record_dense_config(0)), 0.5, record_interval=0.005)
    assert not result.aborted and len(result.records) == 101
    assert sizes == [32, 32, 32, 5]
    assert catch_ups == [0.155, 0.315, 0.475, 0.5]


def test_the_shipped_run_takes_its_records_in_one_block(config_dir, monkeypatch):
    # its records fall about 12 steps apart and wait past the catch-ups
    # that `step` makes of their chains, so its 21 records fill no block of
    # BLOCK_STEPS and are taken at the run's end; flushing them before each
    # such catch-up took them in 8 blocks of 2-3
    config = load_config(config_dir / "perturbed_relax_129.json")
    sizes = block_sizes(monkeypatch)
    result = flow.run(build_scenario(config), config.t_end, safety=config.safety,
                      record_interval=config.record_interval)
    assert not result.aborted and len(result.records) == 21
    assert sizes == [21]


def spaced_config(config_dir, t_end):
    """The shipped data with a record every 0.25 to t_end.  Its records fall
    about 12 steps apart, so each waits past the catch-ups that `step` makes
    of its chain every BLOCK_STEPS steps (at t = 0.735 and 1.395 on the way
    to t = 2), and `run` takes up to 32 of them in one block."""
    data = json.loads((config_dir / "perturbed_relax_129.json").read_text())
    data["stepping"].update(t_end=t_end, record_interval=0.25)
    return parse_config(data)


def poison_record_at(monkeypatch, t_bad):
    """Make the record of the state at t_bad non-finite (a NaN
    res_curv_evo), by wrapping the block function `run` takes records with."""
    block = flow.record_block

    def poisoned(states, *args):
        records, distances, kahler = block(states, *args)
        return ([replace(rec, res_curv_evo=float("nan")) if rec.t == t_bad else rec
                 for rec in records], distances, kahler)

    monkeypatch.setattr(flow, "record_block", poisoned)


def assert_same_run(got, expected):
    """Two (result, calls) pairs of run_seen agree in every output, pickled:
    records, traces, telemetry, abort, the final state and its
    accumulators, and the progress and snapshot calls."""
    (a, a_calls), (b, b_calls) = got, expected

    def outputs(result):
        final = result.final_state
        return pickle.dumps((
            result.records, result.dist_trace, result.kahler_trace, result.scale_trace,
            result.telemetry, result.aborted, result.abort_message, final.t, final.log_scale,
            final.conformal.log_factor.tobytes(), final.acc.v_integral, final.acc.phi.tobytes()))

    assert outputs(a) == outputs(b)
    assert a_calls == b_calls


@pytest.mark.parametrize("t_bad", [0.005, 0.1, 0.155, 0.16, 0.25])
def test_a_non_finite_record_ends_the_run_where_it_is_taken(monkeypatch, t_bad):
    # the first record of a block, one inside it and its last, and the
    # run's last record: the run ends at the record, as a run to t_bad
    # does, and no later state is reported or snapshotted
    poison_record_at(monkeypatch, t_bad)
    result, calls, _ = run_seen(build_scenario(record_dense_config(0, 0.25)),
                                record_dense_config(0, 0.25))
    assert result.aborted and result.abort_message == f"non-finite diagnostics at t={t_bad:g}"
    assert result.final_state.t == t_bad and calls[-2:] == [("progress", t_bad),
                                                            ("snapshot", t_bad)]
    expected = run_seen(build_scenario(record_dense_config(0, t_bad)),
                        record_dense_config(0, t_bad))
    assert_same_run((result, calls), expected[:2])


@pytest.mark.parametrize("t_bad", [0.25, 1.0, 2.0])
def test_a_non_finite_spaced_record_ends_the_run_where_it_is_taken(config_dir, monkeypatch,
                                                                   t_bad):
    # a record that waits past two catch-ups of its chain, one that waits
    # past one and the run's last: the run ends at the record, as a run to
    # t_bad does, and no later state is reported or snapshotted
    poison_record_at(monkeypatch, t_bad)
    config = spaced_config(config_dir, 2.0)
    result, calls, _ = run_seen(build_scenario(config), config)
    assert result.aborted and result.abort_message == f"non-finite diagnostics at t={t_bad:g}"
    assert result.final_state.t == t_bad and calls[-2:] == [("progress", t_bad),
                                                            ("snapshot", t_bad)]
    expected = run_seen(build_scenario(spaced_config(config_dir, t_bad)),
                        spaced_config(config_dir, t_bad))
    assert_same_run((result, calls), expected[:2])


T_ERROR = 0.12


def abort_inputs(config_dir):
    """(config(t_end), the poisoned record's time, the time past which the
    run fails, t_end) of the two inputs the abort tests run: `record_dense`,
    where every step ends at a record, and spaced records, whose record at
    0.25 waits past two catch-ups of its chain before the run fails past
    1.5."""
    return [(partial(record_dense_config, 0), 0.1, T_ERROR, 0.25),
            (partial(spaced_config, config_dir), 0.25, 1.5, 2.0)]


def fail_past(monkeypatch, error, t_error=T_ERROR):
    """Make the run fail past t_error: the step from the state there raises
    (an unstable step), or the state it reaches has no stiffness (the
    ValueError of ConformalState.stiffness)."""
    step, adaptive_dt = flow.step, flow.adaptive_dt

    def failing_step(state, dt):
        if state.t >= t_error:
            raise flow.FlowInstabilityError("non-finite fields after step", state.t + dt)
        return step(state, dt)

    def failing_dt(state, safety=0.9):
        if state.t > t_error:
            raise ValueError("diffusivity e^{-u} overflowed")
        return adaptive_dt(state, safety)

    if error == "instability":
        monkeypatch.setattr(flow, "step", failing_step)
    else:
        monkeypatch.setattr(flow, "adaptive_dt", failing_dt)


@pytest.mark.parametrize("error", ["instability", "stiffness"])
def test_an_error_past_a_non_finite_record_gives_way_to_its_abort(config_dir, monkeypatch,
                                                                  error):
    # the poisoned record still waits in its block when the run fails past
    # t_error: the run ends at that record, as a run to it does
    for config, t_bad, t_error, t_end in abort_inputs(config_dir):
        with monkeypatch.context() as poisoned:
            poison_record_at(poisoned, t_bad)
            with monkeypatch.context() as failing:
                fail_past(failing, error, t_error)
                got = run_seen(build_scenario(config(t_end)), config(t_end))
            expected = run_seen(build_scenario(config(t_bad)), config(t_bad))
        assert_same_run(got[:2], expected[:2])


def test_an_instability_delivers_the_records_before_it(config_dir, monkeypatch):
    # every record up to t_error is taken, reported and snapshotted before
    # the run ends with the instability's abort, raised by the step from
    # the record state at t_error
    for config, _, t_error, t_end in abort_inputs(config_dir):
        with monkeypatch.context() as failing:
            fail_past(failing, "instability", t_error)
            result, calls, _ = run_seen(build_scenario(config(t_end)), config(t_end))
        expected, expected_calls, _ = run_seen(build_scenario(config(t_error)), config(t_error))
        # the step is the record's free step size, clipped to the next record
        dt = min(expected.records[-1].dt, config(t_end).record_interval)
        expected.aborted = True
        expected.abort_message = f"non-finite fields after step (t={t_error + dt:.6g})"
        assert_same_run((result, calls), (expected, expected_calls))


def test_a_value_error_is_raised_after_the_records_before_it(monkeypatch):
    # the ValueError still leaves the run, as before, once every record up
    # to T_ERROR is reported
    fail_past(monkeypatch, "stiffness")
    config, reported = record_dense_config(0, 0.25), []
    with pytest.raises(ValueError, match="overflowed"):
        flow.run(build_scenario(config), config.t_end, record_interval=config.record_interval,
                 progress=lambda rec: reported.append(rec.t))
    assert reported == [round(k * 0.005, 12) for k in range(25)]


# ---------------------------------------------------------------------------
# the frame map against scipy's cubic spline
# ---------------------------------------------------------------------------

def scipy_spline(grid, values, slope):
    return CubicSpline(grid.s, values, bc_type=((1, 0.0), (1, slope)))


MAGNITUDES = st.floats(1e-3, 1e6) | st.floats(-1e6, -1e-3)


@st.composite
def spline_data(draw):
    n = draw(st.integers(16, 513))
    s_max = draw(st.floats(0.1, min(MAX_S_MAX, MAX_SPACING * (n - 1))))
    grid = RadialGrid(n, s_max)
    values = draw(arrays(np.float64, n, elements=MAGNITUDES))
    slope = draw(MAGNITUDES)
    return grid, values, slope


def assert_frame_map_is_scipy_cubic_spline(grid, values, slope, log_scale, factor):
    # map_to_fixed reads the grid, the conformal state and log L of its
    # state; L < 1 pushes the outer nodes beyond s_max, where the end piece
    # extrapolates
    state = SimpleNamespace(grid=grid, conformal=ConformalState(grid, values, slope),
                            log_scale=log_scale)
    nodes = np.arcsinh(grid.r * np.exp(-log_scale))
    mapped = flow.map_to_fixed(state)
    spline = grid.spline.fit([values], slope)

    def fit(x):
        return spline([x])[0]

    assert mapped.tobytes() == (fit(nodes) - 2.0 * log_scale).tobytes()
    # the fit agrees with scipy's to 16 ulps of the data's scale on the grid,
    # at the mapped nodes and at normalize's positions, clipped to the last
    # knot (a closed interval), from the same fit, as a record evaluates one
    # fit at both.  Past s_max the end piece extrapolates: at z = x - s_{n-2}
    # the Hermite basis of its knot values and slopes, and with it their
    # rounding, grows as (z/h)^3, so the bound does too (draws of the
    # strategy's kind read at most 6.5 (z/h)^3 ulps there)
    reference = scipy_spline(grid, values, slope)
    scale = max(np.max(np.abs(values)), abs(slope) * grid.s_max)
    pos = np.minimum(np.arcsinh(factor * grid.r), grid.s_max)
    for x in (nodes, pos):
        growth = np.maximum(1.0, (x - grid.s[-2]) / grid.h) ** 3
        assert np.all(np.abs(fit(x) - reference(x)) <= 16 * np.finfo(float).eps * scale * growth)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(spline_data(), st.floats(-0.05, 5.0), st.floats(0.01, 3.0))
# L < 1 puts the outermost nodes 3.28 h past s_max, where the fit reads 64
# ulps off scipy's (1 ulp inside the grid)
@example(data=(RadialGrid(138, 1.0), np.where(np.arange(138) == 135, 1.0, -1.0), 1.0),
         log_scale=-0.03125, factor=0.01)
def test_frame_map_is_scipy_cubic_spline(data, log_scale, factor):
    grid, values, slope = data
    assume(log_scale != 0.0)  # log L = 0 maps by the identity
    assert_frame_map_is_scipy_cubic_spline(grid, values, slope, log_scale, factor)


@pytest.mark.parametrize("n, s_max", [(1025, 8.0), (2049, 350.0)])
def test_frame_map_is_scipy_cubic_spline_on_large_grids(n, s_max):
    # beyond the sizes the strategy draws, with the same magnitudes
    grid = RadialGrid(n, s_max)
    rng = np.random.default_rng(n)
    values = rng.choice([-1.0, 1.0], size=n + 1) * 10.0 ** rng.uniform(-3, 6, size=n + 1)
    for log_scale, factor in ((-0.05, 0.7), (2.0, 2.5)):
        assert_frame_map_is_scipy_cubic_spline(grid, values[:-1], values[-1], log_scale, factor)


def test_grids_of_one_size_share_one_spline(tmp_path):
    # the slope system's inverse is built once per (n, s_max), also for the
    # grid a loaded snapshot builds
    state = build_scenario(radial_config(n=65))
    save_snapshot(state, tmp_path / "snap.txt")
    loaded = load_snapshot(tmp_path / "snap.txt")
    assert loaded.grid is not state.grid
    assert loaded.grid.spline is state.grid.spline is RadialGrid(65, 8.0).spline
    assert RadialGrid(65, 7.5).spline is not state.grid.spline


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slope", [-1.5])
def test_frame_map_refuses_non_finite_values(bad, slope):
    grid = RadialGrid(65, 8.0)
    values = -cigar.cigar_potential_arclength(grid.s)
    values[40] = bad
    state = SimpleNamespace(grid=grid, conformal=ConformalState(grid, values, slope),
                            log_scale=0.3)
    for call in (lambda: scipy_spline(grid, values, slope),
                 lambda: flow.map_to_fixed(state)):
        with pytest.raises(ValueError, match="`y` must contain only finite values"):
            call()


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_soliton_distance_tracks_solver_error(soliton_errors):
    err, result = soliton_errors[129]
    # run to t = 1 from the same data: normalized distance stays ~ solver error
    state = cigar_flow_state(129)
    result1 = flow.run(state, 1.0, safety=0.9, record_interval=0.5)
    dist = result1.dist_trace[-1][1]
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


def test_initial_data_is_derived_alike_everywhere(tmp_path):
    # an exact state, the exact cigar scenario and a loaded snapshot of it
    # derive the same InitialData from log u0 = 0 and its slope 0, bit for bit
    config = parse_config({
        "name": "cigar", "grid": {"kind": "radial", "n": 65, "s_max": 8.0},
        "initial": {"type": "exact_cigar"},
        "stepping": {"safety": 0.9, "t_end": 0.1, "record_interval": 0.1}})
    built = build_scenario(config)
    save_snapshot(flow.step(built, 1e-3), tmp_path / "snap.txt")
    exact = flow.exact_soliton_state(built.grid, 0.3)
    for other in (exact, load_snapshot(tmp_path / "snap.txt")):
        for name, value in vars(built.init).items():
            got = np.asarray(getattr(other.init, name), dtype=float)
            assert got.tobytes() == np.asarray(value, dtype=float).tobytes(), name
    # u~0 = -f0 is the family's t = 0 log factor to rounding
    np.testing.assert_allclose(exact.init.u_tilde0, cigar.soliton_log_factor(exact.grid.r, 0.0),
                               rtol=1e-15, atol=0.0)


def test_exact_soliton_state_self_consistency():
    g = RadialGrid(129, 8.0)
    st = flow.exact_soliton_state(g, 0.3)
    exact = cigar.soliton_scalar_curvature(g.r, 0.3)
    assert np.max(np.abs(st.curvature - exact)) <= 10 * g.h**2
    np.testing.assert_allclose(st.potential, -st.conformal.log_factor, atol=1e-14)
