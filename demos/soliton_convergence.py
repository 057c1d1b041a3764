#!/usr/bin/env python3
"""Manufactured-solution refinement study.

Cigar initial data evolves as the exact family u~ = -log(e^{4t} + r^2), so
every run has a closed-form reference.  Halving the grid spacing (the step
follows as h) should quarter the max error: observed order ~2.
"""

import time

import numpy as np

from cigarflow.scenarios import manufactured_solution_error

S_MAX = 8.0
T_END = 0.5
SAFETY = 0.9

print(f"exact-family runs to t = {T_END} on [0, {S_MAX}] (safety {SAFETY})\n")
print(f"{'n':>6} {'h':>10} {'max error':>12} {'order':>7} {'seconds':>8}")

errors, hs = [], []
for n in (65, 129, 257, 513):
    t0 = time.perf_counter()
    err, result = manufactured_solution_error(n, S_MAX, SAFETY, T_END)
    elapsed = time.perf_counter() - t0
    hs.append(S_MAX / (n - 1))
    errors.append(err)
    order = f"{np.log2(errors[-2] / errors[-1]):7.3f}" if len(errors) > 1 else "    ---"
    print(f"{n:6d} {hs[-1]:10.5f} {err:12.4e} {order} {elapsed:8.2f}")

slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
print(f"\nleast-squares slope: {slope:.3f} (second order in space and, with")
print("dt proportional to h, in time: RKC2 is a second-order method)")
