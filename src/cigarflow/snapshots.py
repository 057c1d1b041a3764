"""Text snapshots of a FlowState with exact (bit-level) resume.

Format, one item per line, all floats as 17-significant-digit decimals
(which round-trip float64 exactly, so a resumed run reproduces the unbroken
run's diagnostics bit for bit):

    cigarflow-snapshot 5
    grid 129 8
    frame comoving
    scalar t 0.5
    scalar log_scale ...
    scalar u_slope ...         # u~'s Neumann slope at the outer edge
    scalar v_integral ...      # int_0^t R(origin)
    scalar log_u0_slope ...    # log u0's slope at the outer edge
    array u_tilde <n>          # log conformal factor in the stepped frame
    <n value lines>
    array init_log_u0 <n>      # the initial data, log u0
    array acc_phi <n>          # phi(t) - phi(0) at the fixed nodes
    checksum <crc32>

Neither the Ricci potential w0 - u~ (`FlowState.potential`) nor anything
else that `InitialData` derives from log u0 and its slope is stored.

Each array's values are written by one `%` operation over the array as
Python floats, one "%.17g" per line: the same text as format(x, ".17g")
for each value, since both go through CPython's PyOS_double_to_string
(-0, inf, nan and subnormals included).  The init_log_u0 array is the same
in every snapshot of a run: every state of a run shares one InitialData,
which `step` passes on without a copy and nothing mutates after
construction.  Its text is therefore formatted once per InitialData, in a
one-entry cache that holds the object and compares it by identity (`is`),
so a cached id cannot be reused by another object; a new run or a loaded
snapshot brings a new object and is formatted afresh.

The layout is `_SCALARS` and `_ARRAYS`, in file order, which the block
above lists (a test checks that it does).  To change it, edit those two,
`save_snapshot` and `_parse`, and bump FORMAT_VERSION; the
golden-trajectory test, which compares a fresh snapshot with the committed
reference byte for byte, catches a change that misses the bump.

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

`save_snapshot` writes the finished bytes over the file's old ones, opened
without O_TRUNC, and then truncates the file to the new length.  This pays
only where a path is written again: a second run of a config into the
same directory (by default `runs/<name>`), or an iterated benchmark.
There, on ext4 with its default mount options (auto_da_alloc), the close
after a truncating open starts writeback of the file, several times the
cost of the write itself (README gives the figures).  A new path costs the
same either way.

Nothing is synced, and a file rewritten in place is more exposed to a
crash than one rewritten after a truncating open, whose close starts the
writeback that soon puts it on disk: bytes written in place wait for
ordinary writeback (about 30 s by default).  A crash in that time can leave
a mix of old and new blocks, which the CRC-32 refuses, so the snapshot of
that time is lost.  A write that fails before the truncate (a full disk)
leaves the new bytes followed by the old file's tail, which the CRC-32
refuses too.  A re-run of the same config by the same program writes the
same bytes, so no mix of the two differs from either.
"""

from __future__ import annotations

import os
import zlib

import numpy as np

from cigarflow.flow import COMOVING, FIXED, Accumulators, FlowState, InitialData
from cigarflow.geometry import ConformalState, RadialGrid

__all__ = ["save_snapshot", "load_snapshot", "SnapshotError"]

FORMAT_TAG = "cigarflow-snapshot"
FORMAT_VERSION = "5"

# The file's scalar and array labels, in file order.
_SCALARS = ("t", "log_scale", "u_slope", "v_integral", "log_u0_slope")
_ARRAYS = ("u_tilde", "init_log_u0", "acc_phi")

# The InitialData whose log u0 the last snapshot wrote, and its text.  It
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


def _init_array_text(init):
    """The text of the init_log_u0 array, formatted once per InitialData."""
    global _init_text
    if _init_text[0] is not init:
        _init_text = (init, _array_text(_ARRAYS[1], init.log_u0))
    return _init_text[1]


def _crc32(data):
    return format(zlib.crc32(data), "08x")


def save_snapshot(state, path):
    """Write the full resume state as decimal text with a trailing checksum."""
    grid, acc = state.grid, state.acc
    scalars = (state.t, state.log_scale, state.conformal.edge_slope,
               acc.v_integral, state.init.log_u0_slope)
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}", f"grid {grid.n} {_fmt(grid.s_max)}",
             f"frame {state.frame}"]
    lines += [f"scalar {label} {_fmt(x)}" for label, x in zip(_SCALARS, scalars)]
    lines += [_array_text(_ARRAYS[0], state.conformal.log_factor),
              _init_array_text(state.init),
              _array_text(_ARRAYS[2], acc.phi)]
    body = ("\n".join(lines) + "\n").encode()
    with open(path, "wb", opener=_open_in_place) as fh:
        fh.write(body + f"checksum {_crc32(body)}\n".encode())
        fh.truncate()


def _open_in_place(path, flags):
    """The opener of save_snapshot's file: open's flags without O_TRUNC, so
    the new bytes go over the old ones and truncate() then cuts the file to
    their length (see the module docstring)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


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

    scalars = []
    for label in _SCALARS:
        got, text = take("scalar", 3)
        if got != label:
            raise SnapshotError(f"expected scalar {label}")
        scalars.append(float(text))

    arrays = []
    for label in _ARRAYS:
        got, size = take("array", 3)
        if got != label:
            raise SnapshotError(f"expected array {label}")
        if int(size) != grid.n:
            raise SnapshotError(f"array {label} has size {size}, grid expects {grid.n}")
        if idx + grid.n > len(lines):
            raise SnapshotError("truncated snapshot")
        arrays.append(np.array([float(line) for line in lines[idx:idx + grid.n]]))
        idx += grid.n
    if idx != len(lines):
        raise SnapshotError(f"unexpected line {idx} before the checksum")

    t, log_scale, u_slope, v_integral, log_u0_slope = scalars
    u_tilde, log_u0, phi = arrays
    return FlowState(
        conformal=ConformalState(grid, u_tilde, u_slope),
        t=t,
        log_scale=log_scale,
        frame=frame,
        init=InitialData(log_u0, log_u0_slope, grid),
        acc=Accumulators(v_integral, phi),
    )
