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

Only the stepped fields are named here; the rest of the layout comes from
the fields of InitialData and Accumulators (arrays as init_<name> and
acc_<name>).  Adding, removing or reordering a field of either class
therefore changes the file and needs FORMAT_VERSION bumped; the
golden-trajectory test, which compares a fresh snapshot with the committed
reference byte for byte, catches a change that misses this.

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
from dataclasses import fields

import numpy as np

from cigarflow.flow import COMOVING, FIXED, Accumulators, FlowState, InitialData
from cigarflow.geometry import ConformalState, RadialGrid

__all__ = ["save_snapshot", "load_snapshot", "SnapshotError"]

FORMAT_TAG = "cigarflow-snapshot"
FORMAT_VERSION = "1"

_PARTS = {"acc": Accumulators, "init": InitialData}


def _part_layout(part, arrays, prefix=""):
    """(label, part, field) of the array or the scalar fields of one state part."""
    return [(prefix + f.name, part, f.name) for f in fields(_PARTS[part])
            if (f.type in (np.ndarray, "np.ndarray")) == arrays]


# (label, part, field) in file order; part None is a stepped field.  Format 1
# puts the accumulators' scalars before the initial data's, but the initial
# data's arrays before the accumulators'.
_SCALARS = ([(name, None, name) for name in ("t", "log_scale", "potential_slope", "u_slope")]
            + _part_layout("acc", False) + _part_layout("init", False))
_ARRAYS = ([(name, None, name) for name in ("u_tilde", "potential")]
           + _part_layout("init", True, "init_") + _part_layout("acc", True, "acc_"))


class SnapshotError(ValueError):
    """Unreadable, version-mismatched, or corrupted snapshot."""


def _fmt(x):
    return format(float(x), ".17g")


def save_snapshot(state, path):
    """Write the full resume state as decimal text with a trailing checksum."""
    parts = {
        None: {  # the stepped fields
            "t": state.t,
            "log_scale": state.log_scale,
            "potential_slope": state.potential_slope,
            "u_slope": state.conformal.edge_slope,
            "u_tilde": state.conformal.log_factor,
            "potential": state.potential,
        },
        **{part: vars(getattr(state, part)) for part in _PARTS},
    }
    grid = state.grid
    values = []
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}"]
    lines.append(f"grid radial {grid.n} {_fmt(grid.s_max)}")
    lines.append(f"frame {state.frame}")
    for label, part, name in _SCALARS:
        x = parts[part][name]
        values.append(float(x))
        lines.append(f"scalar {label} {_fmt(x)}")
    for label, part, name in _ARRAYS:
        arr = np.asarray(parts[part][name], dtype=float).ravel()
        lines.append(f"array {label} {arr.size}")
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
    parts = {part: {} for part in (None, *_PARTS)}  # None: the stepped fields
    for label, part, name in _SCALARS:
        got, text = take("scalar", 3)
        if got != label:
            raise SnapshotError(f"expected scalar {label}")
        parts[part][name] = float(text)
        values.append(parts[part][name])

    for label, part, name in _ARRAYS:
        got, size = take("array", 3)
        if got != label:
            raise SnapshotError(f"expected array {label}")
        if int(size) != grid.n:
            raise SnapshotError(f"array {label} has size {size}, grid expects {grid.n}")
        if idx + grid.n > len(lines):
            raise SnapshotError("truncated snapshot")
        data = np.array([float(line) for line in lines[idx:idx + grid.n]])
        idx += grid.n
        values.extend(data)
        parts[part][name] = data

    (checksum,) = take("checksum", 2)
    if _fmt(math.fsum(values)) != checksum:
        raise SnapshotError("checksum mismatch: snapshot is corrupted")

    stepped = parts[None]
    return FlowState(
        conformal=ConformalState(grid, stepped["u_tilde"], stepped["u_slope"]),
        potential=stepped["potential"],
        potential_slope=stepped["potential_slope"],
        t=stepped["t"],
        log_scale=stepped["log_scale"],
        frame=frame,
        init=InitialData(**parts["init"]),
        acc=Accumulators(**parts["acc"]),
    )
