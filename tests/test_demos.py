import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    # every demo runs to the end with warnings as errors and writes nothing
    # to stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)],
                          capture_output=True, text=True, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
