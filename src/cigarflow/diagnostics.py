"""Per-step scalar monitors and their CSV serialization.

The CSV layout is part of the external interface: one header row, the
columns below in exactly this order, values as full-precision decimal text
(shortest round-trip representation), rows in time order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import attrgetter

__all__ = ["DiagnosticsRecord", "CSV_COLUMNS", "cigar_number", "emit_diagnostics",
           "read_diagnostics"]

CSV_COLUMNS = [
    "t",
    "dt",
    "sup_R",
    "inf_R",
    "sup_u_tilde",
    "sup_grad_sq",
    "w_drift",
    "sup_h",
    "width_bound",
    "cinf_est",
    "res_poisson",
    "res_curv_evo",
]

_COLUMN_VALUES = attrgetter(*CSV_COLUMNS)
# one CSV row: "%r" of a Python float is its repr, the shortest round-trip
# text, which never needs CSV quoting (nan, inf and -0.0 included)
_ROW = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"


@dataclass
class DiagnosticsRecord:
    """Scalar monitors of one flow state.

    The first twelve fields are the CSV columns.  `res_curv_evo` is the max
    of R_t - Lap_g R - R^2 on the stepped nodes, with dR/dt the
    semi-discrete flow's own at the state (`flow.monitor`): O(h^2) in the
    co-moving frame, rounding in the fixed frame.  `v_discrepancy` (the gap
    between the evolved v = f(0) - f at the origin and the independently
    accumulated -integral of R(origin)) and `sup_log_u` (the largest log u
    on the stepped nodes, which in the co-moving frame cover the whole grown
    domain) travel with the record but are not serialized.
    """

    t: float
    dt: float
    sup_R: float
    inf_R: float
    sup_u_tilde: float
    sup_grad_sq: float
    w_drift: float
    sup_h: float
    width_bound: float
    cinf_est: float
    res_poisson: float
    res_curv_evo: float
    v_discrepancy: float = float("nan")
    sup_log_u: float = float("nan")

    @property
    def finite(self):
        return all(math.isfinite(getattr(self, name)) for name in CSV_COLUMNS)


def cigar_number(sup_R, cinf_est):
    """Q = sup R (C_inf / 2 pi)^2 from a record's `sup_R` and `cinf_est`.

    Q is scale-free and equals 4 on every member of the cigar family (the
    cigar scaled by lambda has sup R = 4 / lambda at the tip and C_inf =
    2 pi sqrt(lambda)), so Q - 4 measures how far a profile is from a cigar.
    Both inputs are co-moving quantities, which keep seeing the whole
    profile at long horizons.
    """
    return sup_R * (cinf_est / (2.0 * math.pi)) ** 2


def emit_diagnostics(records, stream):
    """Write records as CSV to a text stream; raises on empty input."""
    records = list(records)
    if not records:
        raise ValueError("no diagnostics records to emit")
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        stream.write(_ROW % tuple(map(float, _COLUMN_VALUES(rec))))


def read_diagnostics(path):
    """Read a diagnostics CSV back into records; ValueError if malformed."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_COLUMNS:
                raise ValueError(f"unexpected diagnostics header: {header}")
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"line {reader.line_num}: expected "
                                     f"{len(CSV_COLUMNS)} values, got {len(row)}")
                out.append(DiagnosticsRecord(*map(float, row)))
        except csv.Error as err:
            raise ValueError(f"line {reader.line_num}: {err}") from err
    return out
