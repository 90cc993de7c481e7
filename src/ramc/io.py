"""File formats: binary channel tensors and the CSV side products.

The tensor container is deliberately simple: an 8-byte magic, three
little-endian uint64 dimensions (steps, rows, cols) and the payload as
row-major float64 little-endian (real, imag) pairs per entry.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .errors import ShapeError

TENSOR_MAGIC = b"CPLXTEN1"
_HEADER = struct.Struct("<8sQQQ")


def save_tensor(path, tensor) -> None:
    """Write a (steps, rows, cols) complex tensor to the binary container."""
    arr = np.asarray(tensor, dtype=np.complex128)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise ShapeError(f"expected a (steps, rows, cols) tensor, got shape {arr.shape}")
    steps, rows, cols = arr.shape
    interleaved = np.empty((steps, rows, cols, 2), dtype="<f8")
    interleaved[..., 0] = arr.real
    interleaved[..., 1] = arr.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(TENSOR_MAGIC, steps, rows, cols))
        fh.write(interleaved.tobytes())


def load_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`save_tensor`."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ShapeError(f"{path}: truncated tensor header")
    magic, steps, rows, cols = _HEADER.unpack_from(raw)
    if magic != TENSOR_MAGIC:
        raise ShapeError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + steps * rows * cols * 16
    if len(raw) != expected:
        raise ShapeError(
            f"{path}: payload holds {len(raw) - _HEADER.size} bytes, "
            f"expected {expected - _HEADER.size}"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    pairs = flat.reshape(steps, rows, cols, 2)
    return (pairs[..., 0] + 1j * pairs[..., 1]).astype(np.complex128)


def _open_csv(path):
    return open(path, "w", newline="")


def _fmt(x) -> str:
    return repr(float(x))


def export_singular_values(path, matrices) -> None:
    """Per-step singular values, one CSV row per time step."""
    arr = [np.asarray(m) for m in matrices]
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        n_vals = min(arr[0].shape) if arr else 0
        writer.writerow(["t"] + [f"sigma_{k + 1}" for k in range(n_vals)])
        for t, m in enumerate(arr):
            s = np.linalg.svd(m, compute_uv=False)
            writer.writerow([t] + [_fmt(v) for v in s])


def export_mask(path, mask) -> None:
    """Observed (row, col) index pairs of a sampling mask."""
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["row", "col"])
        for i, j in mask.indices():
            writer.writerow([int(i), int(j)])


def write_solver_trace(path, traces) -> None:
    """Completion iterations per time step.

    ``traces`` holds one sequence of (iteration, objective, feasibility,
    active rank) rows per time step; each row is written behind its step
    index ``t``.
    """
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "iteration", "objective", "feasibility", "active_rank"])
        for t, rows in enumerate(traces):
            for iteration, objective, feasibility, active in rows:
                writer.writerow(
                    [t, iteration, _fmt(objective), _fmt(feasibility), active]
                )


def export_support(path, entries) -> None:
    """Recovered path parameters per time step.

    ``entries`` yields (t, estimate) pairs; each support atom becomes a
    row of time index, angles in degrees and the complex gain.
    """
    with _open_csv(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "aoa_deg", "aod_deg", "gain_re", "gain_im", "gain_abs"])
        for t, estimate in entries:
            for aoa, aod, gain in estimate.parameter_set:
                writer.writerow(
                    [
                        t,
                        _fmt(np.degrees(aoa)),
                        _fmt(np.degrees(aod)),
                        _fmt(gain.real),
                        _fmt(gain.imag),
                        _fmt(abs(gain)),
                    ]
                )
