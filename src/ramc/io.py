"""CSV output: one writer and one cell encoder for every CSV the package writes.

:func:`write_csv` encodes each cell one way: None and NaN are blank, a
bool is 0/1, a float is its ``repr`` (so it reads back bit for bit) and
anything else its ``str``.  :func:`read_cell` is its inverse for one
typed field.  Channel, observation and estimate tensors are written
with ``np.save`` as complex128 ``.npy`` files.
"""

from __future__ import annotations

import csv
import math
from types import SimpleNamespace

import numpy as np


def _cell(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, every cell through the encoder."""
    with open(path, "w", newline="") as fh:
        # A "\r\n" terminator makes the writer quote every cell holding a
        # "\r" or "\n", at either of which a reader ends the record; each
        # row it hands over is written with a plain "\n" ending.
        writer = csv.writer(
            SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")),
            lineterminator="\r\n",
        )
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


_DECODERS = {"str": str, "int": int, "float": float, "bool": lambda cell: cell == "1"}


def read_cell(cell: str, annotation: str):
    """Decode a cell of :func:`write_csv` as a field of type ``annotation``.

    ``annotation`` is ``str``, ``int``, ``float`` or ``bool``, optionally
    ``| None``.  A blank cell is None where the type allows it and NaN
    for a float.
    """
    kind, _, optional = annotation.partition(" | ")
    if not cell and optional:
        return None
    if not cell and kind == "float":
        return math.nan
    return _DECODERS[kind](cell)


def export_singular_values(path, matrices) -> None:
    """Per-step singular values, one CSV row per time step."""
    arr = [np.asarray(m) for m in matrices]
    n_vals = min(arr[0].shape) if arr else 0
    write_csv(
        path,
        ["t"] + [f"sigma_{k + 1}" for k in range(n_vals)],
        ([t, *np.linalg.svd(m, compute_uv=False)] for t, m in enumerate(arr)),
    )


def export_mask(path, mask) -> None:
    """Observed (row, col) pairs, row-major, of a 2-D ``bool`` sampling mask."""
    write_csv(path, ["row", "col"], np.argwhere(mask))


def write_solver_trace(path, traces) -> None:
    """Completion iterations per time step.

    ``traces`` yields (t, rows) pairs, where rows are the step's
    (iteration, objective, feasibility, active rank) tuples; each row is
    written behind its step index ``t``.
    """
    write_csv(
        path,
        ["t", "iteration", "objective", "feasibility", "active_rank"],
        ((t, *row) for t, rows in traces for row in rows),
    )


def export_support(path, entries) -> None:
    """Recovered path parameters per time step.

    ``entries`` yields (t, estimate) pairs; each support atom becomes a
    row of time index, angles in degrees and the complex gain.  An atom
    without an AoD (SOMP's) has a gain row; its AoD and complex parts are
    left empty and ``gain_abs`` is the row's l2 norm.
    """
    rows = []
    for t, estimate in entries:
        for aoa, aod, gain in estimate.parameter_set:
            if aod is None:
                rows.append([t, np.degrees(aoa), None, None, None, np.linalg.norm(gain)])
                continue
            rows.append([t, np.degrees(aoa), np.degrees(aod), gain.real, gain.imag, abs(gain)])
    write_csv(path, ["t", "aoa_deg", "aod_deg", "gain_re", "gain_im", "gain_abs"], rows)
