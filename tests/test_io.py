"""Round-trip tests for the binary tensor container and CSV exports."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ramc.errors import ShapeError
from ramc.harness import MetricRecord, read_records, write_records
from ramc.io import (
    TENSOR_MAGIC,
    export_mask,
    export_singular_values,
    export_support,
    load_tensor,
    save_tensor,
    write_solver_trace,
)
from ramc.numerics import SamplingMask
from ramc.recovery import SparseGainEstimate


class TestTensorContainer:
    def test_round_trip_3d(self, tmp_path):
        rng = np.random.default_rng(300)
        t = rng.standard_normal((5, 8, 8)) + 1j * rng.standard_normal((5, 8, 8))
        path = tmp_path / "track.bin"
        save_tensor(path, t)
        assert np.array_equal(load_tensor(path), t)

    def test_2d_promoted_to_single_step(self, tmp_path):
        m = np.eye(4, dtype=complex)
        path = tmp_path / "single.bin"
        save_tensor(path, m)
        out = load_tensor(path)
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out[0], m)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensor(path, np.ones((2, 2), dtype=complex))
        assert path.read_bytes()[:8] == TENSOR_MAGIC

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 24)
        with pytest.raises(ShapeError, match="magic"):
            load_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        save_tensor(path, np.ones((2, 3), dtype=complex))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ShapeError):
            load_tensor(path)

    def test_4d_rejected(self, tmp_path):
        with pytest.raises(ShapeError):
            save_tensor(tmp_path / "x.bin", np.ones((2, 2, 2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(
        tensor=hnp.arrays(
            np.complex128,
            hnp.array_shapes(min_dims=3, max_dims=3, min_side=0, max_side=4),
            elements=st.complex_numbers(allow_nan=True, allow_infinity=True)
            | st.sampled_from([
                complex(-0.0, -0.0), complex(0.0, -0.0), complex(2.0, math.inf),
                complex(-math.inf, 0.0), complex(0.0, math.nan), complex(math.nan, -0.0),
            ]),
        )
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, tensor):
        # Signed zeros, infinities and NaNs must come back bit for bit;
        # re + 1j*im arithmetic turns -0.0j into +0.0j and inf*j into nan.
        path = tmp_path_factory.mktemp("tensor") / "t.bin"
        save_tensor(path, tensor)
        out = load_tensor(path)
        assert out.dtype == np.complex128 and out.shape == tensor.shape
        assert np.array_equal(out.view(np.uint64), tensor.view(np.uint64))


def _records():
    return [
        MetricRecord(
            variant="rank_aware",
            snr_db=10.0,
            trial=0,
            t=0,
            nmse=0.01,
            nmse_db=-20.0,
            recovered=True,
            ber=None,
            rank_true=2,
            rank_est=2,
            runtime_ms=12.5,
            error="",
        ),
        MetricRecord(
            variant="coarse_only",
            snr_db=10.0,
            trial=1,
            t=0,
            nmse=0.5,
            nmse_db=-3.01,
            recovered=False,
            ber=0.25,
            rank_true=2,
            rank_est=1,
            runtime_ms=3.25,
            error="",
        ),
    ]


class TestRecordsCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, _records())
        loaded = read_records(path)
        assert len(loaded) == 2
        assert loaded[0].variant == "rank_aware"
        assert loaded[0].nmse == 0.01
        assert loaded[0].recovered is True
        assert loaded[0].ber is None
        assert loaded[1].ber == 0.25
        assert loaded[1].recovered is False

    def test_solver_columns_round_trip(self, tmp_path):
        # Phase-I iterations, convergence and final residual, blank
        # converged and final residual without Phase I.
        path = tmp_path / "records.csv"
        base = _records()[0]
        records = [
            dataclasses.replace(base, iterations=iters, converged=conv, final_residual=res)
            for iters, conv, res in (
                (0, None, None),
                (37, True, 0.0),
                (500, False, 0.1 + 0.2),
            )
        ]
        write_records(path, records)
        assert read_records(path) == [dataclasses.replace(r, runtime_ms=0.0) for r in records]

    def test_runtime_blanked_by_default(self, tmp_path):
        # Wall-clock noise must not leak into the canonical artifact.
        path = tmp_path / "records.csv"
        write_records(path, _records())
        assert read_records(path)[0].runtime_ms == 0.0
        write_records(path, _records(), include_runtime=True)
        assert read_records(path)[0].runtime_ms == 12.5

    def test_byte_identical_rewrites(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(a, _records())
        write_records(b, _records())
        assert a.read_bytes() == b.read_bytes()

    def test_header_matches_field_order(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, _records())
        header = path.read_text().splitlines()[0]
        assert header == (
            "variant,snr_db,trial,t,nmse,nmse_db,recovered,ber,"
            "rank_true,rank_est,runtime_ms,error,iterations,converged,final_residual"
        )


def test_export_mask(tmp_path):
    observed = np.zeros((3, 3), dtype=bool)
    observed[[0, 2], [1, 0]] = True
    mask = SamplingMask(observed)
    path = tmp_path / "mask.csv"
    export_mask(path, mask)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col"
    assert lines[1:] == ["0,1", "2,0"]


def test_export_singular_values(tmp_path):
    path = tmp_path / "sv.csv"
    export_singular_values(path, [np.diag([3.0, 1.0]), np.diag([2.0, 0.5])])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,sigma_1,sigma_2"
    assert lines[1].startswith("0,3.0")
    assert lines[2].startswith("1,2.0")


def test_write_solver_trace(tmp_path):
    path = tmp_path / "trace.csv"
    write_solver_trace(
        path, [(0, [(1, 10.0, 1.0, 3), (2, 5.0, 0.1, 2)]), (2, [(1, 4.0, 0.5, 2)])]
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,iteration,objective,feasibility,active_rank"
    assert len(lines) == 4
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "0", "2"]


def test_export_support(tmp_path):
    est = SparseGainEstimate(
        gains=np.array([[1.0 + 1.0j]]),
        support=((0, 0),),
        selection_order=(0,),
        residual_norm=0.0,
        parameter_set=((0.5, -0.25, 1.0 + 1.0j),),
    )
    path = tmp_path / "support.csv"
    export_support(path, [(0, est)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,aoa_deg,aod_deg,gain_re,gain_im,gain_abs"
    assert len(lines) == 2
    assert lines[1].startswith("0,")
