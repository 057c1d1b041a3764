"""Text snapshots of a FlowState with exact (bit-level) resume.

Format, one item per line, all floats as 17-significant-digit decimals
(which round-trip float64 exactly, so a resumed run reproduces the unbroken
run's diagnostics bit for bit):

    cigarflow-snapshot 3
    grid 129 8
    frame comoving
    scalar t 0.5
    scalar log_scale ...
    scalar u_slope ...         # u~'s Neumann slope at the outer edge
    ... more scalars (accumulators and initial data) ...
    array u_tilde <n>          # log conformal factor in the stepped frame
    <n value lines>
    ... more arrays (initial data and accumulators) ...
    checksum <crc32>

The Ricci potential is not stored: it is w0 - u~ (`FlowState.potential`).

Each array's values are written by one `%` operation over the array as
Python floats, one "%.17g" per line: the same text as format(x, ".17g")
for each value, since both go through CPython's PyOS_double_to_string
(-0, inf, nan and subnormals included).  The init_* arrays are the same in
every snapshot of a run: every state of a run shares one InitialData, which
`dataclasses.replace` does not copy and nothing mutates after construction.
Their text is therefore formatted once per InitialData object, in a
one-entry cache that holds the object and compares it by identity (`is`),
so a cached id cannot be reused by another object; a new run or a loaded
snapshot brings a new object and is formatted afresh.

Only the stepped fields are named here; the rest of the layout comes from
the fields of InitialData and Accumulators (arrays as init_<name> and
acc_<name>) that are not derived on construction (init=False).  Changing
those fields changes the file and needs FORMAT_VERSION bumped; the
golden-trajectory test, which compares a fresh snapshot with the committed
reference byte for byte, catches a change that misses this.

The checksum, the last line, is zlib.crc32 of every byte before it: tag,
grid line, frame word, scalars and arrays; a line after it is refused.
CRC-32 detects every change within 32 consecutive bits, so every
substitution of up to four adjacent characters, and passes any other change
with a chance of about 2^-32.  On an n = 65 format 2 snapshot of perturbed
data at t = 0.5, all 71964 single-digit changes (each digit of the grid line
and of every value replaced by each other digit), the changed frame word and
all 103281 swaps of two distinct array value lines were refused.  The
version is read before the checksum, so a file of another version is
refused as such; the parser refuses an unknown frame, a wrong name or count,
a non-number and a missing or extra line.  `load_snapshot` raises only
SnapshotError.
"""

from __future__ import annotations

import zlib
from dataclasses import fields

import numpy as np

from cigarflow.flow import COMOVING, FIXED, Accumulators, FlowState, InitialData
from cigarflow.geometry import ConformalState, RadialGrid

__all__ = ["save_snapshot", "load_snapshot", "SnapshotError"]

FORMAT_TAG = "cigarflow-snapshot"
FORMAT_VERSION = "3"

_PARTS = {"acc": Accumulators, "init": InitialData}


def _part_layout(part, arrays, prefix=""):
    """(label, part, field) of the stored array or scalar fields of one state
    part; fields with init=False are derived, not stored."""
    return [(prefix + f.name, part, f.name) for f in fields(_PARTS[part])
            if f.init and (f.type in (np.ndarray, "np.ndarray")) == arrays]


# (label, part, field) in file order; part None is a stepped field.  The file
# puts the accumulators' scalars before the initial data's, but the initial
# data's arrays before the accumulators'.
_SCALARS = ([(name, None, name) for name in ("t", "log_scale", "u_slope")]
            + _part_layout("acc", False) + _part_layout("init", False))
_STEPPED_ARRAYS = [("u_tilde", None, "u_tilde")]
_INIT_ARRAYS = _part_layout("init", True, "init_")
_ACC_ARRAYS = _part_layout("acc", True, "acc_")
_ARRAYS = _STEPPED_ARRAYS + _INIT_ARRAYS + _ACC_ARRAYS

# The InitialData whose arrays the last snapshot wrote, and their text.  It
# holds the object itself, so an id cannot be reused while it is cached.
_init_text = (None, "")


class SnapshotError(ValueError):
    """Unreadable, version-mismatched, or corrupted snapshot."""


def _fmt(x):
    return format(float(x), ".17g")


def _array_text(label, values):
    """An `array` line and its value lines, without the final newline: one
    `%` over the values as Python floats, the same text as `_fmt` on each."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return f"array {label} {len(values)}" + ("\n%.17g" * len(values)) % tuple(values)


def _init_arrays_text(init):
    """The text of the init_* arrays, formatted once per InitialData."""
    global _init_text
    if _init_text[0] is not init:
        _init_text = (init, "\n".join(_array_text(label, getattr(init, name))
                                      for label, _, name in _INIT_ARRAYS))
    return _init_text[1]


def _crc32(data):
    return format(zlib.crc32(data), "08x")


def save_snapshot(state, path):
    """Write the full resume state as decimal text with a trailing checksum."""
    parts = {
        None: {  # the stepped fields
            "t": state.t,
            "log_scale": state.log_scale,
            "u_slope": state.conformal.edge_slope,
            "u_tilde": state.conformal.log_factor,
        },
        **{part: vars(getattr(state, part)) for part in _PARTS},
    }
    grid = state.grid
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}", f"grid {grid.n} {_fmt(grid.s_max)}",
             f"frame {state.frame}"]
    lines += [f"scalar {label} {_fmt(parts[part][name])}" for label, part, name in _SCALARS]
    lines += [_array_text(label, parts[part][name]) for label, part, name in _STEPPED_ARRAYS]
    lines.append(_init_arrays_text(state.init))
    lines += [_array_text(label, parts[part][name]) for label, part, name in _ACC_ARRAYS]
    body = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(body + f"checksum {_crc32(body)}\n".encode())


def load_snapshot(path):
    """Read a snapshot back into a FlowState; refuses corrupted files."""
    try:
        with open(path, "rb") as fh:
            return _parse(fh.read())
    except SnapshotError:
        raise
    except ValueError as err:  # a non-number, an undecodable byte, a bad grid
        raise SnapshotError(f"malformed snapshot: {err}") from err


def _parse(data):
    tag = data.split(b"\n", 1)[0].split()
    if len(tag) != 2 or tag[0] != FORMAT_TAG.encode():
        raise SnapshotError("not a cigarflow snapshot")
    if tag[1] != FORMAT_VERSION.encode():
        version = tag[1].decode(errors="replace")
        raise SnapshotError(f"snapshot version {version} not supported (expected {FORMAT_VERSION})")
    cut = data.rfind(b"\nchecksum ") + 1
    if not cut:
        raise SnapshotError("truncated snapshot: no checksum line")
    if data[cut:] != f"checksum {_crc32(data[:cut])}\n".encode():
        raise SnapshotError("checksum mismatch, or lines after the checksum: snapshot is corrupted")

    lines = data[:cut].decode().splitlines()
    idx = 1

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

    n, s_max = take("grid", 3)
    if int(n) > len(lines):
        raise SnapshotError("truncated snapshot")
    grid = RadialGrid(int(n), float(s_max))

    (frame,) = take("frame", 2)
    if frame not in (COMOVING, FIXED):
        raise SnapshotError(f"unknown frame {frame!r}")

    parts = {part: {} for part in (None, *_PARTS)}  # None: the stepped fields
    for label, part, name in _SCALARS:
        got, text = take("scalar", 3)
        if got != label:
            raise SnapshotError(f"expected scalar {label}")
        parts[part][name] = float(text)

    for label, part, name in _ARRAYS:
        got, size = take("array", 3)
        if got != label:
            raise SnapshotError(f"expected array {label}")
        if int(size) != grid.n:
            raise SnapshotError(f"array {label} has size {size}, grid expects {grid.n}")
        if idx + grid.n > len(lines):
            raise SnapshotError("truncated snapshot")
        parts[part][name] = np.array([float(line) for line in lines[idx:idx + grid.n]])
        idx += grid.n
    if idx != len(lines):
        raise SnapshotError(f"unexpected line {idx} before the checksum")

    stepped = parts[None]
    return FlowState(
        conformal=ConformalState(grid, stepped["u_tilde"], stepped["u_slope"]),
        t=stepped["t"],
        log_scale=stepped["log_scale"],
        frame=frame,
        init=InitialData(**parts["init"], grid=grid, edge_slope=stepped["u_slope"]),
        acc=Accumulators(**parts["acc"]),
    )
