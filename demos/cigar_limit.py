#!/usr/bin/env python3
"""The cigar-limit number at a long horizon.

Q = sup R (C_inf / 2 pi)^2 is scale-free and equals 4 on every member of the
cigar family.  The shipped perturbed cigar flows to t = 20 at n = 129 and
257; by then its co-moving profile has relaxed onto a cigar, so Q(20) - 4
is the spatial error alone and should fall 4x per halving of h: observed
order ~2, and Q -> 4 as h -> 0, the eternal limit being the cigar.
"""

import json
import time
from pathlib import Path

import numpy as np

from cigarflow.diagnostics import cigar_number
from cigarflow.scenarios import parse_config, run_scenario

T_END = 20.0

data = json.loads((Path(__file__).resolve().parent.parent / "configs"
                   / "perturbed_relax_129.json").read_text())
data["stepping"].update(t_end=T_END, record_interval=5.0)

print(f"shipped perturbed cigar to t = {T_END:g}, Q = sup R (C_inf / 2 pi)^2\n")
print(f"{'n':>5} {'h':>9} {'Q - 4':>12} {'order':>7} {'seconds':>8}")
gaps = []
for n in (129, 257):
    data["grid"]["n"] = n
    config = parse_config(data)
    start = time.perf_counter()
    result = run_scenario(config)
    elapsed = time.perf_counter() - start
    final = result.records[-1]
    gaps.append(cigar_number(final.sup_R, final.cinf_est) - 4.0)
    order = f"{np.log2(gaps[-2] / gaps[-1]):7.3f}" if len(gaps) > 1 else "    ---"
    print(f"{n:5d} {config.grid['s_max'] / (n - 1):9.5f} {gaps[-1]:12.4e} {order} "
          f"{elapsed:8.2f}")

richardson = (4.0 * gaps[1] - gaps[0]) / 3.0
print(f"\nRichardson extrapolation to h -> 0: Q({T_END:g}) - 4 = {richardson:.1e}")
