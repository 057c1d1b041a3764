"""Time one cold set-up of a workload in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <seed>

Set-up is importing cigarflow (with numpy and scipy), parsing the
workload's configs and `scenarios.build_scenario` on each, which includes
the initial potential solve.  Prints {"setup_s": seconds} as JSON.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from cigarflow import scenarios  # noqa: E402


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    for data in workloads.WORKLOADS[name].make_configs(seed):
        scenarios.build_scenario(scenarios.parse_config(data))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))


if __name__ == "__main__":
    main()
