"""Self-tests of the benchmark helpers: statistics, spans, naming, config.

They run in milliseconds and never start a sweep.
"""

import json
import os
import statistics
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from spans import Span, Target, Tracer, descendants, self_times  # noqa: E402
from summary import (  # noqa: E402
    parse_seeds,
    percentile,
    spread,
    tail,
    validate_metric_name,
    validate_unit,
    variant_suffix,
)
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """Clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class TestPercentile:
    def test_nearest_rank(self):
        assert percentile([4, 1, 3, 2], 50) == 2
        assert percentile([4, 1, 3, 2], 75) == 3
        assert percentile([4, 1, 3, 2], 100) == 4
        assert percentile([7], 99.9) == 7

    @pytest.mark.parametrize("q", [0, -1, 100.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile([1, 2], q)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize(
        "n, q",
        [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
         (1000, 99.0), (1920, 99.0), (10000, 99.9)],
    )
    def test_tail_needs_ten_samples_beyond(self, n, q):
        values = list(range(1, n + 1))
        out = tail(values)
        assert out["n"] == n
        assert out["tail_q"] == q
        assert out["p50"] == statistics.median(values)
        if q is None:
            assert out["tail"] is None
        else:
            assert out["tail"] == percentile(values, q)
            assert sum(v > out["tail"] for v in values) >= 10

    def test_spread_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out = spread(values)
        assert out["median"] == 10.5
        assert out["iqr_over_median"] == pytest.approx((q3 - q1) / 10.5)
        assert spread([3.0])["iqr_over_median"] == 0.0


def test_parse_seeds():
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert parse_seeds("0") == [0]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            Span(0, None, "root", 0.0, 10.0),
            Span(1, 0, "a", 1.0, 4.0),
            Span(2, 1, "a.inner", 2.0, 3.0),
            Span(3, 0, "b", 5.0, 9.0),
        ]
        selfs = self_times(spans)
        assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
        assert sum(selfs.values()) == spans[0].duration

    def test_descendants(self):
        spans = [
            Span(0, None, "s1", 0, 1), Span(1, 0, "c", 0, 1), Span(2, 1, "g", 0, 1),
            Span(3, None, "s2", 2, 3), Span(4, 3, "c", 2, 3),
        ]
        assert [sp.id for sp in descendants(spans, 0)] == [0, 1, 2]
        assert [sp.id for sp in descendants(spans, 3)] == [3, 4]


class TestTracer:
    def make_module(self):
        mod = SimpleNamespace()
        mod.inner = lambda x: x * 2
        mod.outer = lambda x: mod.inner(x) + 1
        return mod

    def test_patched_nests_and_restores(self):
        mod = self.make_module()
        original_outer, original_inner = mod.outer, mod.inner
        tracer = Tracer(clock=FakeClock())
        seen = []
        targets = [
            Target(mod, "outer", "layer.outer"),
            Target(mod, "inner", "layer.inner",
                   on_result=lambda sp, result: sp.info.update(result=result)),
        ]
        with tracer.patched(targets):
            with tracer.span("root"):
                seen.append(mod.outer(3))
        assert seen == [7]
        assert mod.outer is original_outer and mod.inner is original_inner
        root, outer, inner = tracer.spans
        assert (root.parent, outer.parent, inner.parent) == (None, root.id, outer.id)
        assert inner.info == {"result": 6}
        selfs = self_times(tracer.spans)
        assert sum(selfs.values()) == root.duration

    def test_restores_after_error(self):
        mod = self.make_module()
        original = mod.inner
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.patched([Target(mod, "inner", "layer.inner")]):
                raise RuntimeError("boom")
        assert mod.inner is original

    def test_record_keys(self):
        mod = SimpleNamespace(job=lambda *args: None, step=lambda: None)
        tracer = Tracer(clock=FakeClock())

        def job(cfg, variant, snr_idx, trial):
            mod.step()
            mod.step()

        mod.job = job
        targets = [
            Target(mod, "job", "harness.trial", job_key=lambda args: f"{args[1]}/{args[3]}"),
            Target(mod, "step", "frontend.pilot", starts_step=True),
        ]
        with tracer.patched(targets):
            mod.job(None, "rank_aware", 0, 4)
        assert [sp.key for sp in tracer.spans] == ["rank_aware/4", "rank_aware/4/t0", "rank_aware/4/t1"]


class TestNaming:
    @pytest.mark.parametrize("name", ["sweep_s", "record_ms.fixed_rank_2", "completion.solve.share",
                                      "9lives", "a-b.c_d"])
    def test_valid_names(self, name):
        assert validate_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "_x", ".x", "fixed_rank:2", "a b", "x" * 65, "nmse(db)"])
    def test_invalid_names(self, name):
        with pytest.raises(ValueError):
            validate_metric_name(name)

    @pytest.mark.parametrize("unit", ["ms", "s", "1/s", "count", "%", "fraction"])
    def test_valid_units(self, unit):
        assert validate_unit(unit) == unit

    @pytest.mark.parametrize("unit", ["", "milli seconds", "x" * 17])
    def test_invalid_units(self, unit):
        with pytest.raises(ValueError):
            validate_unit(unit)

    @pytest.mark.parametrize(
        "variant, suffix",
        [("rank_aware", "rank_aware"), ("fixed_rank:2", "fixed_rank_2"),
         ("fixed_rank(3)", "fixed_rank_3"), ("somp_baseline", "somp_baseline")],
    )
    def test_variant_suffix(self, variant, suffix):
        assert variant_suffix(variant) == suffix

    def test_workload_variants_map_to_distinct_names(self):
        for spec in WORKLOADS.values():
            names = [f"record_ms.{variant_suffix(v)}" for v in spec["variants"]]
            assert len(set(names)) == len(names)
            for name in names:
                validate_metric_name(name)


class TestContract:
    def load(self):
        with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
            return json.load(fh)

    def test_workloads_match_the_benchmark_file(self):
        assert [w["name"] for w in self.load()["workloads"]] == list(WORKLOADS)

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.load()["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    def test_partition_names_are_layer_metrics(self):
        # Every partition entry except the remainder has a declared share.
        per_layer = run.declared_units("per_layer")
        for name in run.PARTITION:
            if name != "harness.other_s":
                assert name.replace(".busy_s", ".share") in per_layer

    def test_every_workload_has_seed_references(self):
        with open(run.BASELINE_FILE) as fh:
            table = json.load(fh)["nmse_db_reference"]
        for name, spec in WORKLOADS.items():
            expected = {f"nmse_db.{variant_suffix(v)}" for v in spec["variants"]}
            assert table[name]
            for ref in table[name].values():
                assert set(ref) == expected


class TestAccuracyGuard:
    def test_nmse_by_variant_averages_snr_medians(self):
        report = SimpleNamespace(variants=["rank_aware", "fixed_rank:2"],
                                 median_nmse_db=[[-10.0, -20.0, float("nan")],
                                                 [float("nan")] * 3])
        assert run.nmse_by_variant(report, ["fixed_rank:2", "rank_aware"]) == {
            "nmse_db.fixed_rank_2": None, "nmse_db.rank_aware": -15.0}

    def test_worse_by_more_than_the_tolerance_fails(self):
        ref = {"nmse_db.rank_aware": -15.0, "nmse_db.coarse_only": 5.0}
        tol = run.NMSE_TOL_DB
        assert run.accuracy_problems(
            {"nmse_db.rank_aware": -15.0 + tol, "nmse_db.coarse_only": -3.0}, ref) == []
        problems = run.accuracy_problems(
            {"nmse_db.rank_aware": -15.0 + 1.01 * tol, "nmse_db.coarse_only": 5.0}, ref)
        assert len(problems) == 1 and "rank_aware" in problems[0]

    def test_missing_variant_fails(self):
        ref = {"nmse_db.rank_aware": -15.0}
        assert run.accuracy_problems({"nmse_db.rank_aware": None}, ref)
        assert run.accuracy_problems({}, ref)


def test_timed_sweep_reports_wall_thread_and_process_times():
    harness = SimpleNamespace(run_sweep=lambda cfg, variants, threads: ["record"])
    wall, cpu, proc, records = run.timed_sweep(harness, None, [])
    assert records == ["record"]
    assert wall >= 0.0 and 0.0 <= cpu <= proc + 1e-3
