"""Self-tests of the benchmark: its percentile rule, its metric names,
its known-answer check and its seeded inputs."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import measure, probes, spec
from perfbench.checks import Checker, float64_margin
from perfbench.workloads import (
    CONFIG,
    WORKLOADS,
    RoundResult,
    Verdict,
    build_suite,
    retrained_copy,
)
from repro.core.property import linf_property
from repro.core.results import Falsified, Timeout, VerificationStats, Verified
from repro.nn.builders import mlp
from repro.nn.serialize import network_digest
from repro.obs.stats import validate_trace
from repro.sched.cache import property_digest

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


# -- the percentile rule -----------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, expected):
    assert measure.tail_percentile(n) == expected


def test_tail_rule_holds_for_every_sample_count():
    for n in range(20, 3000):
        p = measure.tail_percentile(n)
        assert n - measure.rank(n, p) >= 10
        higher = [q for q in measure.TAIL_LADDER if q > p]
        assert all(n - measure.rank(n, q) < 10 for q in higher)


def test_too_few_samples_have_no_tail():
    with pytest.raises(ValueError):
        measure.tail_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 50.0) == 50
    assert measure.percentile(values, 90.0) == 90
    assert measure.percentile(reversed(values), 99.0) == 99


def test_slower_half_keeps_rounds_at_or_above_the_median_wall():
    rounds = [RoundResult(wall, []) for wall in (3.0, 1.0, 4.0, 2.0)]
    assert [r.wall_s for r in measure.slower_half(rounds)] == [3.0, 4.0]
    assert [r.wall_s for r in measure.slower_half(rounds[:3])] == [3.0, 4.0]
    assert measure.slower_half([2.0, 1.0, 5.0, 3.0, 4.0], seconds=float) == [
        5.0, 3.0, 4.0
    ]


# -- metric names ------------------------------------------------------------


def _fake_rounds():
    stats = VerificationStats()
    stats.pgd_calls = 3
    verdicts = [
        Verdict(f"n-b{i}", None, "n", None, Verified(stats), 0.01 * (i + 1))
        for i in range(100)
    ]
    report = SimpleNamespace(
        sweeps=2, final_batch_target=16, swept_items=20, prefix_layers_skipped=0
    )
    return [RoundResult(1.0, verdicts, [report])]


def _fake_recorder():
    recorder = probes.Recorder()
    with recorder.span("sched.run"):
        with recorder.span("attack.pgd", rows=4, falsified=1):
            with recorder.span("nn.forward", rows=4):
                pass
        with recorder.span("abstract.analyze", rows=4, domain="powerset",
                           verified=2):
            pass
    return recorder


def test_printed_metric_names_and_units_match_benchmark_json():
    run = measure.Run("retrain-reverify", 0, 1.0, False)
    run.setup_s = 1.0
    run.rounds = _fake_rounds()
    e2e, _ = run.end_to_end()
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: unit for k, (_, unit) in e2e.items()} == expected

    layers = measure.layer_metrics(
        _fake_recorder(), _fake_rounds(), _fake_rounds(), {}, None, 1.0, 0.5
    )
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in layers.items()} == expected


def test_workload_names_match_benchmark_json():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(WORKLOADS) == set(spec.WORKERS)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    recorder = probes.Recorder()
    recorder.spans = [
        probes.Span("p", 0.0, 10.0, 1, 1, None),
        probes.Span("a", 1.0, 4.0, 1, 2, 1),
        probes.Span("b", 3.0, 6.0, 2, 3, 1),  # overlaps a on another thread
        probes.Span("c", 9.0, 12.0, 2, 4, 1),  # outlives the parent
    ]
    self_times = recorder.self_times()
    assert self_times[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_times[2] == pytest.approx(3.0)


def test_trace_payload_is_what_repro_stats_reads():
    payload = probes.chrome_trace(_fake_recorder(), {"sched.rounds": 2})
    assert validate_trace(payload) == []
    names = {event["name"] for event in payload["traceEvents"]}
    assert names == {"sched.run", "attack.pgd", "nn.forward", "abstract.analyze"}


def test_instrument_restores_every_probed_call_site():
    probed = probes._probes(probes.Recorder(), CONFIG.delta)
    before = [getattr(owner, attr) for owner, attr, _ in probed]
    with probes.instrument(probes.Recorder(), CONFIG.delta):
        assert all(
            getattr(owner, attr) is not original
            for (owner, attr, _), original in zip(probed, before)
        )
    assert [getattr(owner, attr) for owner, attr, _ in probed] == before


# -- the known-answer check --------------------------------------------------


@pytest.fixture
def planted(tmp_path):
    """A tiny network, a property with a true counterexample, and a
    known-answer file holding that counterexample."""
    network = mlp(4, [8], 3, rng=0)
    center = np.full(4, 0.5)
    prop = linf_property(network, center, 0.5, name="tiny-b0")
    gen = np.random.default_rng(0)
    samples = gen.uniform(prop.region.low, prop.region.high, size=(2000, 4))
    margins = [float64_margin(network, x, prop.label) for x in samples]
    witness = samples[int(np.argmin(margins))]
    assert min(margins) < 0.0
    path = tmp_path / "known.json"
    path.write_text(json.dumps({
        "networks": {"tiny": network_digest(network)},
        "answers": {"tiny-b0": {
            "property": property_digest(prop),
            "verdict": "falsified",
            "witness": [float(v) for v in witness],
        }},
    }))
    checker = Checker.for_suite({"tiny": network}, CONFIG.delta, path)
    return network, prop, witness, checker


def _verdict(network, prop, outcome):
    return Verdict("tiny-b0", network, "tiny", prop, outcome, 0.0)


def test_planted_wrong_verdict_is_caught(planted):
    network, prop, _, checker = planted
    problem = checker.check(_verdict(network, prop, Verified(VerificationStats())))
    assert problem is not None and "Reluplex" in problem


def test_planted_bad_witnesses_are_caught(planted):
    network, prop, witness, checker = planted
    stats = VerificationStats()
    outside = prop.region.high + 0.1
    center = prop.region.center
    assert float64_margin(network, center, prop.label) > CONFIG.delta
    for bad in (outside, center):
        outcome = Falsified(bad, -1.0, stats)
        assert checker.check(_verdict(network, prop, outcome)) is not None


def test_true_witness_and_depth_budget_pass(planted):
    network, prop, witness, checker = planted
    stats = VerificationStats()
    good = Falsified(witness, float64_margin(network, witness, prop.label), stats)
    assert checker.check(_verdict(network, prop, good)) is None
    depth = Timeout("split depth", stats)
    assert checker.check(_verdict(network, prop, depth)) is None
    clock = Timeout("wall clock", stats)
    assert checker.check(_verdict(network, prop, clock)) is not None


def test_reluplex_witness_is_checked_on_a_retrained_network(planted, tmp_path):
    network, prop, witness, checker = planted
    retrained = retrained_copy(network, tmp_path / "tiny.npz", 0)
    assert retrained is not network
    assert float64_margin(retrained, witness, prop.label) < 0.0
    verdict = Verdict("tiny-b0", retrained, "tiny", prop, Verified(VerificationStats()), 0.0)
    problem = checker.check(verdict)
    assert problem is not None and "Reluplex" in problem


def test_stale_network_fails_every_verdict(planted, tmp_path):
    network, prop, _, _ = planted
    other = mlp(4, [8], 3, rng=1)
    path = tmp_path / "stale.json"
    payload = json.loads((tmp_path / "known.json").read_text())
    payload["networks"]["tiny"] = network_digest(other)
    path.write_text(json.dumps(payload))
    checker = Checker.for_suite({"tiny": network}, CONFIG.delta, path)
    assert checker.stale == ["tiny"]
    depth = Timeout("split depth", VerificationStats())
    problem = checker.check(_verdict(network, prop, depth))
    assert problem is not None and "cannot be checked" in problem


def test_property_without_known_answer_fails(planted):
    network, prop, _, checker = planted
    depth = Timeout("split depth", VerificationStats())
    verdict = Verdict("tiny-b1", network, "tiny", prop, depth, 0.0)
    assert checker.check(verdict) is not None


# -- seeded inputs -----------------------------------------------------------


def test_seed_changes_inputs_but_not_the_workload_shape(tmp_path):
    suite = build_suite()
    for name, cls in WORKLOADS.items():
        a = cls(suite, 1, tmp_path / f"{name}-1").inputs()
        again = cls(suite, 1, tmp_path / f"{name}-1b").inputs()
        b = cls(suite, 2, tmp_path / f"{name}-2").inputs()
        assert a == again
        assert a.keys() == b.keys()
        for key in a:
            assert sorted(a[key]) == sorted(b[key])
        if name == "learned-manifest":
            assert a == b  # fixed on purpose, see workloads.py
        else:
            assert a != b
