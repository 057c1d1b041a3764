"""Text snapshots of a FlowState with exact (bit-level) resume.

Format, one item per line, all floats as 17-significant-digit decimals
(which round-trip float64 exactly, so a resumed run reproduces the unbroken
run's diagnostics bit for bit):

    cigarflow-snapshot 1
    grid radial 129 8.0
    frame comoving
    scalar t 0.5
    scalar log_scale ...
    ... more scalars ...
    array u_tilde <n>          # log conformal factor in the stepped frame
    <n value lines>
    array potential <n>        # Ricci potential in the stepped frame
    ... more arrays (initial-data snapshot and accumulators) ...
    checksum <fsum of every value above>

The checksum is math.fsum of every scalar and array value in the file,
rounded once to a float64, so it refuses an edit only when the edit moves
that sum by more than about half its last place.  In an n = 65 snapshot
whose values sum to about 442, changing one of the first 14 significant
digits of a u_tilde value was always refused, while most changes to digits
15-17 passed.  Values swapped with each other also pass, and the numbers on
the grid line are not covered.  The parser refuses a wrong tag or version,
an unknown grid kind or frame, a wrong name or count, a non-number and a
missing line; `load_snapshot` raises SnapshotError for every malformed file.
"""

from __future__ import annotations

import math

import numpy as np

from cigarflow.flow import COMOVING, FIXED, Accumulators, FlowState, InitialData
from cigarflow.geometry import EUCLIDEAN, ConformalState, RadialGrid

__all__ = ["save_snapshot", "load_snapshot", "SnapshotError"]

FORMAT_TAG = "cigarflow-snapshot"
FORMAT_VERSION = "1"

_SCALARS = [
    "t",
    "log_scale",
    "potential_slope",
    "u_slope",
    "v_integral",
    "curvature_origin",
    "sup_u_tilde0",
    "res_poisson0",
    "sup_potential_gap",
    "sup_log_u0",
    "sup_grad_log_u0",
]
_ARRAYS = [
    "u_tilde",
    "potential",
    "init_u_tilde0",
    "init_log_u0",
    "init_potential0",
    "init_w0",
    "acc_phi",
    "acc_f_fixed",
]


class SnapshotError(ValueError):
    """Unreadable, version-mismatched, or corrupted snapshot."""


def _fmt(x):
    return format(float(x), ".17g")


def _state_items(state):
    scalars = {
        "t": state.t,
        "log_scale": state.log_scale,
        "potential_slope": state.potential_slope,
        "u_slope": state.conformal.edge_slope,
        "v_integral": state.acc.v_integral,
        "curvature_origin": state.acc.curvature_origin,
        "sup_u_tilde0": state.init.sup_u_tilde0,
        "res_poisson0": state.init.res_poisson0,
        "sup_potential_gap": state.init.sup_potential_gap,
        "sup_log_u0": state.init.sup_log_u0,
        "sup_grad_log_u0": state.init.sup_grad_log_u0,
    }
    arrays = {
        "u_tilde": state.conformal.log_factor,
        "potential": state.potential,
        "init_u_tilde0": state.init.u_tilde0,
        "init_log_u0": state.init.log_u0,
        "init_potential0": state.init.potential0,
        "init_w0": state.init.w0,
        "acc_phi": state.acc.phi,
        "acc_f_fixed": state.acc.f_fixed,
    }
    return scalars, arrays


def save_snapshot(state, path):
    """Write the full resume state as decimal text with a trailing checksum."""
    scalars, arrays = _state_items(state)
    grid = state.grid
    values = []
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"grid radial {grid.n} {_fmt(grid.s_max)}")
    lines.append(f"frame {state.frame}")
    for name in _SCALARS:
        x = scalars[name]
        values.append(float(x))
        lines.append(f"scalar {name} {_fmt(x)}")
    for name in _ARRAYS:
        arr = np.asarray(arrays[name], dtype=float).ravel()
        lines.append(f"array {name} {arr.size}")
        for x in arr:
            values.append(float(x))
            lines.append(_fmt(x))
    lines.append(f"checksum {_fmt(math.fsum(values))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_snapshot(path):
    """Read a snapshot back into a FlowState; refuses corrupted files."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        return _parse(lines)
    except SnapshotError:
        raise
    except ValueError as err:  # a non-number, an undecodable byte, a bad grid
        raise SnapshotError(f"malformed snapshot: {err}") from err


def _parse(lines):
    idx = 0

    def take(keyword, count):
        """The fields after `keyword` on the next line, which has `count`."""
        nonlocal idx
        if idx >= len(lines):
            raise SnapshotError("truncated snapshot")
        parts = lines[idx].split()
        idx += 1
        if len(parts) != count or parts[0] != keyword:
            raise SnapshotError(f"expected a {keyword!r} line with {count} fields, got {parts}")
        return parts[1:]

    if not lines:
        raise SnapshotError("empty snapshot file")
    tag = lines[0].split()
    if len(tag) != 2 or tag[0] != FORMAT_TAG:
        raise SnapshotError("not a cigarflow snapshot")
    if tag[1] != FORMAT_VERSION:
        raise SnapshotError(f"snapshot version {tag[1]} not supported (expected {FORMAT_VERSION})")
    idx = 1

    kind, n, s_max = take("grid", 4)
    if kind != "radial":
        raise SnapshotError(f"unknown grid kind {kind!r}")
    if int(n) > len(lines):
        raise SnapshotError("truncated snapshot")
    grid = RadialGrid(int(n), float(s_max))

    (frame,) = take("frame", 2)
    if frame not in (COMOVING, FIXED):
        raise SnapshotError(f"unknown frame {frame!r}")

    values = []
    scalars = {}
    for name in _SCALARS:
        label, text = take("scalar", 3)
        if label != name:
            raise SnapshotError(f"expected scalar {name}")
        scalars[name] = float(text)
        values.append(scalars[name])

    arrays = {}
    for name in _ARRAYS:
        label, size = take("array", 3)
        if label != name:
            raise SnapshotError(f"expected array {name}")
        if int(size) != grid.n:
            raise SnapshotError(f"array {name} has size {size}, grid expects {grid.n}")
        if idx + grid.n > len(lines):
            raise SnapshotError("truncated snapshot")
        data = np.array([float(line) for line in lines[idx:idx + grid.n]])
        idx += grid.n
        values.extend(data)
        arrays[name] = data

    (checksum,) = take("checksum", 2)
    if _fmt(math.fsum(values)) != checksum:
        raise SnapshotError("checksum mismatch: snapshot is corrupted")

    conformal = ConformalState(grid, EUCLIDEAN, arrays["u_tilde"], scalars["u_slope"])
    init = InitialData(
        u_tilde0=arrays["init_u_tilde0"],
        log_u0=arrays["init_log_u0"],
        potential0=arrays["init_potential0"],
        w0=arrays["init_w0"],
        sup_u_tilde0=scalars["sup_u_tilde0"],
        res_poisson0=scalars["res_poisson0"],
        sup_potential_gap=scalars["sup_potential_gap"],
        sup_log_u0=scalars["sup_log_u0"],
        sup_grad_log_u0=scalars["sup_grad_log_u0"],
    )
    acc = Accumulators(
        v_integral=scalars["v_integral"],
        curvature_origin=scalars["curvature_origin"],
        phi=arrays["acc_phi"],
        f_fixed=arrays["acc_f_fixed"],
    )
    return FlowState(
        conformal=conformal,
        potential=arrays["potential"],
        potential_slope=scalars["potential_slope"],
        t=scalars["t"],
        log_scale=scalars["log_scale"],
        frame=frame,
        init=init,
        acc=acc,
    )
