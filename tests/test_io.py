"""Round-trip tests for the CSV writer, its cell encoder and the exports."""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ramc.harness import MetricRecord, read_records, write_records
from ramc.io import (
    export_mask,
    export_singular_values,
    export_support,
    write_csv,
    write_solver_trace,
)
from ramc.recovery import SparseGainEstimate

# Error strings a CSV cell must quote: separators, quotes, line breaks.
_AWKWARD = ["a,b", 'say "hi"', "line\nbreak", "cr\rhere", "crlf\r\nend", ",\"\n\r", ""]
_TEXT = st.characters(blacklist_categories=("Cs",))


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
        assert _records()[0].runtime_ms == 12.5
        assert read_records(path)[0].runtime_ms == 0.0

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

    @settings(max_examples=150, deadline=None)
    @given(
        records=st.lists(
            st.builds(
                MetricRecord,
                variant=st.text(_TEXT),
                snr_db=st.floats(),
                trial=st.integers(),
                t=st.integers(),
                nmse=st.floats(),
                nmse_db=st.floats(),
                recovered=st.booleans(),
                ber=st.none() | st.floats(allow_nan=False),
                rank_true=st.integers(),
                rank_est=st.integers(),
                runtime_ms=st.floats(),
                error=st.text(_TEXT) | st.sampled_from(_AWKWARD),
                iterations=st.integers(),
                converged=st.none() | st.booleans(),
                final_residual=st.none() | st.floats(allow_nan=False),
            ),
            max_size=4,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, records):
        # Every field comes back as written, runtime_ms as 0.0.  The
        # records are compared by repr, in which NaN equals NaN and
        # -0.0 differs from 0.0.
        path = tmp_path_factory.mktemp("records") / "records.csv"
        write_records(path, records)
        expected = [dataclasses.replace(r, runtime_ms=0.0) for r in records]
        assert repr(read_records(path)) == repr(expected)


class TestWriteCsv:
    def test_cell_encoder(self, tmp_path):
        path = tmp_path / "cells.csv"
        write_csv(path, ["a", "b"], [[None, math.nan], [True, False], [0.1, 3], ["x,y", -0.0]])
        assert path.read_text() == 'a,b\n,\n1,0\n0.1,3\n"x,y",-0.0\n'


def test_export_mask(tmp_path):
    observed = np.zeros((3, 3), dtype=bool)
    observed[[0, 2], [1, 0]] = True
    path = tmp_path / "mask.csv"
    export_mask(path, observed)
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
        support=(0,),
        parameter_set=((0.5, -0.25, 1.0 + 1.0j),),
    )
    path = tmp_path / "support.csv"
    export_support(path, [(0, est)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,aoa_deg,aod_deg,gain_re,gain_im,gain_abs"
    assert len(lines) == 2
    assert lines[1].startswith("0,")
