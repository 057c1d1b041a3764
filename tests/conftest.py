import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cigarflow import scenarios  # noqa: E402

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
