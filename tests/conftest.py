import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cigarflow import flow, scenarios  # noqa: E402

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


@pytest.fixture
def overdrive(monkeypatch):
    """A context in which every step is unstable: each takes two stages at
    dt = 4 / max(e^{-u} diag), the curvature probe's rate.  rho is at least
    that rate for h < 0.9, so rho dt >= 4 lies past the two-stage stability
    interval beta(2) = 1.96 (about 5.4 on cigar data, where the true radius
    is 0.94 rho).  With the stage count following dt no `safety` value is
    unstable, and the curvature bound of `adaptive_dt` would shrink dt until
    two stages were stable again, so both are held."""
    @contextmanager
    def overdriven():
        with monkeypatch.context() as patch:
            patch.setattr(flow, "_stage_count", lambda stiffness: 2)
            patch.setattr(flow, "adaptive_dt", lambda state, safety=0.9:
                          4.0 / state.conformal.diffusion_rate(state.grid.lap_diag))
            yield

    return overdriven
