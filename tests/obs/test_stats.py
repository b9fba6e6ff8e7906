"""Tests for trace-dump validation, summaries, and diffs."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.stats import (
    diff_dumps,
    load_dump,
    span_totals,
    summarize_dump,
    validate_trace,
)
from repro.obs.trace import Tracer


def make_dump(counters=None, histograms=None, spans=()):
    owner = Tracer()
    owner.enable()
    for name, duration_s in spans:
        owner.add_complete(name, "test", owner._origin, duration_s)
    return owner.to_payload(
        metrics={
            "counters": dict(counters or {}),
            "gauges": {},
            "histograms": dict(histograms or {}),
        }
    )


class TestValidate:
    def test_real_dump_validates_clean(self):
        dump = make_dump(counters={"a": 1}, spans=[("work", 0.01)])
        assert validate_trace(dump) == []

    def test_registry_snapshot_validates_clean(self):
        reg = MetricsRegistry()
        reg.inc("cache.hits")
        reg.observe("lat", 0.5)
        owner = Tracer()
        owner.enable()
        with owner.span("work"):
            pass
        assert validate_trace(owner.to_payload(metrics=reg.snapshot())) == []

    def test_non_object_dump(self):
        assert validate_trace([1, 2]) == ["dump is not a JSON object"]

    def test_missing_trace_events(self):
        errors = validate_trace({"otherData": {"metrics": {"counters": {}}}})
        assert "missing traceEvents list" in errors

    def test_event_missing_keys_and_bad_phase(self):
        dump = make_dump()
        dump["traceEvents"].append({"ph": "Q", "ts": 0, "pid": 1, "tid": 1})
        errors = validate_trace(dump)
        assert any("lacks 'name'" in err for err in errors)
        assert any("unknown phase 'Q'" in err for err in errors)

    def test_complete_event_needs_nonnegative_dur(self):
        dump = make_dump(spans=[("work", 0.01)])
        dump["traceEvents"][0]["dur"] = -5
        assert any("bad dur" in err for err in validate_trace(dump))

    def test_missing_metrics_counters(self):
        dump = make_dump()
        dump["otherData"] = {"tool": "repro.obs"}
        assert "otherData.metrics.counters is missing" in validate_trace(dump)


class TestSpanTotals:
    def test_aggregates_by_name(self):
        dump = make_dump(spans=[("a", 0.001), ("a", 0.003), ("b", 0.002)])
        totals = span_totals(dump)
        assert totals["a"]["count"] == 2
        assert totals["a"]["total_ms"] == pytest.approx(4.0, abs=0.01)
        assert totals["a"]["max_ms"] == pytest.approx(3.0, abs=0.01)
        assert totals["b"]["count"] == 1


class TestSummarize:
    def test_lists_spans_counters_histograms(self):
        dump = make_dump(
            counters={"cache.hits": 3, "phase.pgd_s": 0.5},
            histograms={
                "lat": {"count": 2, "total": 1.0, "mean": 0.5, "min": 0.1,
                        "max": 0.9},
            },
            spans=[("sched.round", 0.01)],
        )
        text = summarize_dump(dump)
        assert "sched.round" in text
        assert "cache.hits" in text
        assert "0.5000" in text  # float counters keep their decimals
        assert "lat" in text and "n=2" in text

    def test_empty_dump(self):
        assert "empty dump" in summarize_dump(make_dump())

    def test_top_limits_span_rows(self):
        dump = make_dump(spans=[(f"s{i}", 0.01 * (i + 1)) for i in range(5)])
        text = summarize_dump(dump, top=2)
        assert "s4" in text and "s3" in text and "s0" not in text


class TestDiff:
    def test_reports_counter_and_span_deltas(self):
        base = make_dump(counters={"cache.hits": 1}, spans=[("work", 0.001)])
        cand = make_dump(counters={"cache.hits": 4}, spans=[("work", 0.005)])
        text = diff_dumps(base, cand)
        assert "cache.hits" in text and "1 -> 4" in text
        assert "work" in text and "+4.00" in text

    def test_identical_counters(self):
        base = make_dump(counters={"a": 1})
        assert "counters: identical" in diff_dumps(base, make_dump({"a": 1}))


def test_load_dump_round_trip(tmp_path):
    dump = make_dump(counters={"a": 1})
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(dump))
    assert load_dump(str(path)) == dump


class TestPrefixSection:
    def test_prefix_counters_get_their_own_block(self):
        dump = make_dump(counters={
            "sched.prefix.hits": 3,
            "sched.prefix.misses": 1,
            "sched.prefix.layers_skipped": 48,
            "sched.prefix.suffix_layers_run": 9,
            "cache.hits": 2,
        })
        text = summarize_dump(dump)
        assert "prefix (incremental re-verification):" in text
        assert "hits 3" in text and "layers_skipped 48" in text
        # Family members stay out of the generic counter list.
        generic = text.split("counters:")[1]
        assert "sched.prefix." not in generic

    def test_no_prefix_counters_no_section(self):
        dump = make_dump(counters={"cache.hits": 2})
        assert "prefix (incremental" not in summarize_dump(dump)


class TestScreenSection:
    def test_screen_counters_get_their_own_line(self):
        dump = make_dump(counters={
            "kernel.screen_rows": 40,
            "kernel.screen_verified": 30,
            "kernel.analyze_rows": 40,
        })
        text = summarize_dump(dump)
        assert "analyze screen" in text
        assert "kernel.screen_rows 40" in text
        assert "kernel.screen_verified 30 (75.0% final)" in text
        generic = text.split("counters:")[1]
        assert "kernel.screen_" not in generic
        assert "kernel.analyze_rows" in generic

    def test_no_screened_rows_no_section(self):
        dump = make_dump(counters={"kernel.screen_rows": 0})
        text = summarize_dump(dump)
        assert "analyze screen" not in text
        assert "kernel.screen_rows" in text
