"""Tests for Algorithm 1: soundness, δ-completeness, budgets, stats."""

import numpy as np
import pytest

from repro.abstract.analyzer import analyze
from repro.abstract.domains import INTERVAL, ZONOTOPE
from repro.core.config import VerifierConfig
from repro.core.policy import BisectionPolicy
from repro.core.property import RobustnessProperty, linf_property
from repro.core.results import Falsified, Timeout, Verified
from repro.core.verifier import Verifier, verify
from repro.nn.builders import (
    example_2_2_network,
    example_2_3_network,
    mlp,
    xor_network,
)
from repro.utils.boxes import Box


def quick_config(**kwargs):
    defaults = {"timeout": 20.0}
    defaults.update(kwargs)
    return VerifierConfig(**defaults)


class TestPaperExamples:
    def test_example_3_1_xor_verifies(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert isinstance(outcome, Verified)

    def test_example_3_1_with_weak_domain(self):
        # Force plain zonotopes (as in the paper's Example 3.1 trace).
        # The split+join transformer cannot prove the root region, which
        # is why Figure 5 splits; Analyze screens with the minimal-area
        # ReLU first (DESIGN.md §15) and proves it without a split.
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        assert not analyze(net, prop.region, 1, ZONOTOPE, cascade=False).verified
        policy = BisectionPolicy(domain=ZONOTOPE)
        outcome = verify(net, prop, policy=policy, config=quick_config(), rng=0)
        assert isinstance(outcome, Verified)
        assert outcome.stats.splits == 0

    def test_example_2_2_robust_region(self):
        net = example_2_2_network()
        prop = RobustnessProperty(Box(np.array([-1.0]), np.array([1.0])), 1)
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert isinstance(outcome, Verified)

    def test_example_2_2_extended_region_falsified(self):
        net = example_2_2_network()
        prop = RobustnessProperty(Box(np.array([-1.0]), np.array([2.0])), 1)
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert isinstance(outcome, Falsified)
        assert prop.region.contains(outcome.counterexample)
        assert outcome.is_true_counterexample
        assert net.classify(outcome.counterexample) != 1

    def test_example_2_3_verifies(self):
        net = example_2_3_network()
        prop = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 1)
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert isinstance(outcome, Verified)


class TestSoundness:
    def test_verified_implies_no_counterexample(self):
        rng = np.random.default_rng(0)
        verified_count = 0
        for seed in range(12):
            net = mlp(3, [10], 3, rng=seed)
            center = rng.uniform(-0.5, 0.5, 3)
            prop = linf_property(net, center, 0.15, clip_low=None, clip_high=None)
            outcome = verify(net, prop, config=quick_config(timeout=5), rng=0)
            if isinstance(outcome, Verified):
                verified_count += 1
                preds = net.classify_batch(prop.region.sample(rng, 500))
                assert np.all(preds == prop.label)
        assert verified_count > 0  # the fuzz actually exercised the claim

    def test_falsified_witness_is_valid(self):
        rng = np.random.default_rng(1)
        falsified_count = 0
        for seed in range(15):
            net = mlp(3, [10], 3, rng=100 + seed)
            center = rng.uniform(-0.5, 0.5, 3)
            prop = linf_property(net, center, 0.8, clip_low=None, clip_high=None)
            config = quick_config(timeout=5)
            outcome = verify(net, prop, config=config, rng=0)
            if isinstance(outcome, Falsified):
                falsified_count += 1
                assert prop.region.contains(outcome.counterexample)
                # δ-completeness (Theorem 5.4): margin at witness <= δ.
                margin = prop.margin_at(net, outcome.counterexample)
                assert margin <= config.delta + 1e-12
        assert falsified_count > 0

    def test_delta_controls_near_counterexamples(self):
        # With a huge δ, even a robust region yields a δ-counterexample.
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.45, 0.45]), np.array([0.55, 0.55])), 1
        )
        strict = verify(net, prop, config=quick_config(delta=1e-9), rng=0)
        assert isinstance(strict, Verified)
        loose = verify(net, prop, config=quick_config(delta=10.0), rng=0)
        assert isinstance(loose, Falsified)
        assert not loose.is_true_counterexample
        assert loose.margin <= 10.0


class TestBudgets:
    def test_timeout_returns_timeout(self):
        # A large, hard instance with a tiny wall clock.
        net = mlp(8, [24, 24, 24], 5, rng=3)
        prop = linf_property(net, np.full(8, 0.5), 0.5)
        outcome = verify(net, prop, config=VerifierConfig(timeout=0.05), rng=0)
        assert isinstance(outcome, (Timeout, Falsified))
        if isinstance(outcome, Timeout):
            assert outcome.reason in ("wall clock", "split depth")

    def test_depth_cap_triggers(self):
        net = mlp(4, [16, 16], 3, rng=4)
        prop = linf_property(net, np.full(4, 0.5), 0.6)
        config = VerifierConfig(timeout=20, max_depth=1)
        outcome = verify(net, prop, config=config, rng=0)
        assert outcome.kind in ("timeout", "falsified", "verified")
        if isinstance(outcome, Timeout):
            assert outcome.stats.max_depth_reached <= 1

    def test_stats_are_recorded(self):
        net = xor_network()
        prop = RobustnessProperty(
            Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
        )
        policy = BisectionPolicy(domain=INTERVAL)
        outcome = verify(net, prop, policy=policy, config=quick_config(), rng=0)
        stats = outcome.stats
        assert stats.pgd_calls >= 1
        assert stats.analyze_calls >= 1
        assert stats.time_seconds > 0
        assert sum(stats.domains_used.values()) == stats.analyze_calls


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        net = mlp(4, [12], 3, rng=5)
        prop = linf_property(net, np.full(4, 0.5), 0.3)
        a = verify(net, prop, config=quick_config(timeout=5), rng=42)
        b = verify(net, prop, config=quick_config(timeout=5), rng=42)
        assert a.kind == b.kind
        if isinstance(a, Falsified):
            np.testing.assert_array_equal(a.counterexample, b.counterexample)


class TestVerifierClass:
    def test_reusable_across_properties(self):
        net = xor_network()
        verifier = Verifier(net, config=quick_config(), rng=0)
        robust = RobustnessProperty(
            Box(np.array([0.4, 0.4]), np.array([0.6, 0.6])), 1
        )
        assert verifier.verify(robust).kind == "verified"
        broken = RobustnessProperty(Box(np.zeros(2), np.ones(2)), 0)
        assert verifier.verify(broken).kind == "falsified"

    def test_degenerate_region_resolves(self):
        net = xor_network()
        point = np.array([0.0, 1.0])
        prop = RobustnessProperty(Box(point, point), 1)
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert outcome.kind == "verified"

    def test_degenerate_region_falsified(self):
        net = xor_network()
        point = np.array([0.0, 1.0])
        prop = RobustnessProperty(Box(point, point), 0)
        outcome = verify(net, prop, config=quick_config(), rng=0)
        assert outcome.kind == "falsified"
