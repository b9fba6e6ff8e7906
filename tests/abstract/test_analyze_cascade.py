"""The Analyze cascade (DESIGN.md §15): a one-pass DeepZ screen ahead of
the zonotope family's exact split+join and powerset transformers.

The screen is only worth having if it is sound on its own — its VERIFIED
is final — so these tests check it three ways: concrete executions stay
inside the DeepZ bounds at every layer (float64 and float32), the
cascade never loses a row the exact transformer proves, and a complete
procedure (``repro.baselines.reluplex``) never finds a counterexample
inside a region the screen proves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract.analyzer import (
    analyze,
    analyze_batch_checkpointed,
    analyze_batch_multi,
    propagate,
    screen,
)
from repro.abstract.domains import (
    DEEPPOLY,
    INTERVAL,
    ZONOTOPE,
    DomainSpec,
    bounded_zonotopes,
)
from repro.abstract.powerset import PowersetElement
from repro.abstract.zonotope import Zonotope
from repro.abstract.zonotope_batch import DeepZBatch, zonotope_margins_call
from repro.backend import active, use_backend
from repro.baselines.reluplex import Reluplex, ReluplexConfig
from repro.core.property import RobustnessProperty
from repro.data.acas import acas_network
from repro.exec import ProcessExecutor, SerialExecutor
from repro.nn.builders import mlp, xor_network
from repro.nn.network import AffineOp, ReluOp
from repro.obs.metrics import registry
from repro.utils.boxes import Box

FAMILY = (ZONOTOPE, bounded_zonotopes(2), bounded_zonotopes(4))


def _regions(seed, count, n, rmax=0.4):
    rng = np.random.default_rng(seed)
    return [
        Box.from_center_radius(
            rng.uniform(-0.6, 0.6, n), float(rng.uniform(0.01, rmax))
        )
        for _ in range(count)
    ]


class TestDeepZRelu:
    def test_dead_active_and_crossing_columns(self):
        # Column 0 crosses [-1, 3], column 1 is active [1, 3], column 2
        # is dead [-3, -1].
        batch = DeepZBatch(
            np.array([[1.0, 2.0, -2.0]]),
            np.array([[[2.0, 1.0, 1.0]]]),
            np.zeros((1, 3)),
        )
        out = batch.relu()
        lam, mu = 3.0 / 4.0, 3.0 / 8.0  # u/(u-l), -λl/2
        np.testing.assert_array_equal(out.centers, [[lam * 1.0 + mu, 2.0, 0.0]])
        np.testing.assert_array_equal(out.gens, [[[lam * 2.0, 1.0, 0.0]]])
        np.testing.assert_array_equal(out.errs, [[mu, 0.0, 0.0]])
        low, high = out.bounds()
        # The band [λx, λx + 2μ] over [l, u] = [-1, 3] spans [-0.75, 3].
        assert low[0, 0] == -0.75 and high[0, 0] == 3.0

    def test_other_transformers_are_the_zonotope_kernels(self):
        net = mlp(4, [6], 3, rng=1)
        regions = _regions(2, 3, 4)
        affine = net.ops_for(np.float64)[0]
        deepz = DeepZBatch.from_boxes(regions).affine(affine.weight, affine.bias)
        assert type(deepz) is DeepZBatch
        assert type(deepz.rows([0, 2])) is DeepZBatch
        assert type(deepz.row(1)) is Zonotope

    @pytest.mark.parametrize("backend", ["numpy64", "numpy32"])
    @pytest.mark.parametrize("seed", range(6))
    def test_concrete_runs_stay_inside_every_layer(self, backend, seed):
        net = mlp(5, [12, 10, 8], 4, rng=seed)
        regions = _regions(seed + 40, 4, 5, rmax=0.6)
        rng = np.random.default_rng(seed)
        # (B, S, n) concrete float64 runs, S sampled points per region.
        values = np.stack([region.sample(rng, 64) for region in regions])
        with use_backend(backend):
            element = DeepZBatch.from_boxes(regions)
            ops = net.ops_for(active().dtype)
        for op, op64 in zip(ops, net.ops_for(np.float64)):
            with use_backend(backend):
                element = propagate([op], element)
            if isinstance(op64, AffineOp):
                values = values @ op64.weight.T + op64.bias
            elif isinstance(op64, ReluOp):
                values = np.maximum(values, 0.0)
            low, high = element.bounds()
            assert np.all(values >= low.astype(np.float64)[:, None, :] - 1e-9)
            assert np.all(values <= high.astype(np.float64)[:, None, :] + 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_float32_relu_bounds_contain_float64(self, seed):
        """On the same (float32-representable) input, the float32 DeepZ
        ReLU's bounds contain the float64 one's: the outward widening
        covers the slopes' and offsets' round-off."""
        rng = np.random.default_rng(seed)
        shape = (32, 24, 16)
        scale = 10.0 ** rng.integers(-3, 3, shape[::2])[:, None, :]
        gens32 = (rng.standard_normal(shape) * scale).astype(np.float32)
        centers32 = (
            np.abs(gens32).sum(axis=1) * rng.uniform(-1.0, 1.0, shape[::2])
        ).astype(np.float32)
        errs32 = rng.uniform(0.0, 0.1, shape[::2]).astype(np.float32)
        want = DeepZBatch(
            centers32.astype(np.float64), gens32.astype(np.float64),
            errs32.astype(np.float64),
        ).relu().bounds()
        with use_backend("numpy32"):
            got = DeepZBatch(centers32, gens32, errs32).relu().bounds()
        assert got[0].dtype == np.float32
        assert np.all(got[0].astype(np.float64) <= want[0])
        assert np.all(got[1].astype(np.float64) >= want[1])

    def test_float32_margins_never_beat_float64(self):
        for seed in range(8):
            net = mlp(4, [10, 10], 3, rng=seed)
            regions = _regions(seed + 70, 6, 4, rmax=0.8)
            labels = [i % 3 for i in range(6)]
            ops64 = net.ops_for(np.float64)
            want, _ = screen(ops64, regions, labels, ZONOTOPE)
            with use_backend("numpy32"):
                ops32 = net.ops_for(np.float32)
                got, _ = screen(ops32, regions, labels, ZONOTOPE)
            assert np.all(got <= want + 1e-12)


class TestCascade:
    @pytest.mark.parametrize("domain", FAMILY, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_never_loses_an_exact_proof(self, domain, seed):
        net = mlp(4, [10, 8], 3, rng=seed)
        regions = _regions(seed, 10, 4)
        labels = [net.classify(r.center) for r in regions]
        cascade = analyze_batch_multi(net, regions, labels, domain)
        for region, label, got in zip(regions, labels, cascade):
            exact = analyze(net, region, label, domain, cascade=False)
            if exact.verified:
                assert got.verified
            if not got.verified:
                # Rows the screen leaves behind carry the exact result.
                assert got.margin_lower_bound == exact.margin_lower_bound

    @pytest.mark.parametrize("domain", FAMILY, ids=str)
    def test_every_entry_point_agrees(self, domain):
        """Sequential, batched, process-kernel and checkpointed Analyze
        screen identically, row for row and bit for bit."""
        net = mlp(4, [10, 8], 3, rng=5)
        regions = _regions(11, 12, 4)
        labels = [i % 3 for i in range(12)]
        batched = analyze_batch_multi(net, regions, labels, domain)
        margins = zonotope_margins_call(net, regions, labels, domain.disjuncts)
        for i, (region, label) in enumerate(zip(regions, labels)):
            solo = analyze(net, region, label, domain)
            assert solo.verified == batched[i].verified
            assert solo.margin_lower_bound == batched[i].margin_lower_bound
            assert type(solo.output) is type(batched[i].output)
            assert margins[i] == batched[i].margin_lower_bound
        assert any(r.verified for r in batched)
        assert not all(r.verified for r in batched)
        if domain.disjuncts == 1:  # checkpoints are single-disjunct only
            checkpointed, _ = analyze_batch_checkpointed(
                net, regions, labels, domain, capture_boundaries=(1, 2)
            )
            assert [r.margin_lower_bound for r in checkpointed] == list(margins)

    def test_screened_outputs_keep_the_domain_type(self):
        net = xor_network()
        region = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        plain = analyze(net, region, 1, ZONOTOPE)
        power = analyze(net, region, 1, bounded_zonotopes(3))
        assert plain.verified and power.verified
        assert type(plain.output) is Zonotope
        assert type(power.output) is PowersetElement
        assert power.output.num_disjuncts == 1

    @pytest.mark.parametrize(
        "domain", [INTERVAL, DEEPPOLY, DomainSpec("interval", 2)], ids=str
    )
    def test_other_domains_are_not_screened(self, domain):
        net = mlp(4, [8], 3, rng=2)
        regions = _regions(3, 4, 4)
        assert screen(net.ops_for(np.float64), regions, [0] * 4, domain) is None
        rows = registry().counter_value("kernel.screen_rows")
        analyze_batch_multi(net, regions, [0] * 4, domain)
        assert registry().counter_value("kernel.screen_rows") == rows

    def test_counted_once_per_call_on_serial_and_process_paths(self):
        net = mlp(4, [10, 8], 3, rng=5)
        regions = _regions(11, 12, 4)
        labels = [i % 3 for i in range(12)]
        domain = bounded_zonotopes(2)

        def delta(executor):
            before = registry().counters_snapshot()
            future = executor.submit(
                analyze_batch_multi, net, regions, labels, domain
            )
            results = future.result()
            after = registry().counters_snapshot()
            return [r.verified for r in results], {
                key: after.get(key, 0) - before.get(key, 0)
                for key in ("kernel.screen_rows", "kernel.screen_verified")
            }

        serial = delta(SerialExecutor())
        with ProcessExecutor(1) as executor:
            process = delta(executor)
        assert serial == process
        verdicts, counts = serial
        assert counts["kernel.screen_rows"] == len(regions)
        assert counts["kernel.screen_verified"] == sum(verdicts) > 0


@pytest.fixture(scope="module")
def acas():
    return acas_network(hidden=(8, 8), epochs=4, rng=3)


def _differential_case(kind: str, seed: int, acas_net):
    rng = np.random.default_rng(seed)
    if kind == "xor":
        net = xor_network()
        center = rng.uniform(0.0, 1.0, 2)
    elif kind == "acas":
        net = acas_net
        center = rng.uniform(0.05, 0.95, net.input_size)
    else:
        depth = int(rng.integers(1, 3))  # 2-3 affine layers
        net = mlp(3, [int(w) for w in rng.integers(3, 7, size=depth)], 3, rng=seed)
        center = rng.uniform(-0.5, 0.5, 3)
    radius = float(rng.uniform(0.01, 0.3))
    region = Box.from_center_radius(center, radius)
    return net, RobustnessProperty(region, net.classify(center))


class TestAgainstCompleteSearch:
    """No screen VERIFIED where Reluplex finds a counterexample."""

    @given(
        kind=st.sampled_from(["xor", "acas", "mlp"]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_screen_never_verifies_a_falsifiable_region(self, kind, seed, acas):
        net, prop = _differential_case(kind, seed, acas)
        margins, _ = screen(
            net.ops_for(np.float64), [prop.region], [prop.label], ZONOTOPE
        )
        if margins[0] <= 0.0:
            return
        outcome = Reluplex(ReluplexConfig(timeout=20.0)).verify(net, prop)
        assert outcome.kind != "falsified", (
            f"screen margin {margins[0]!r} on a region Reluplex falsifies "
            f"at {outcome.counterexample!r}"
        )

    def test_cases_include_screen_proofs(self, acas):
        """Guard against a vacuous differential: the case generator
        yields screen-proved regions for every network kind."""
        for kind in ("xor", "acas", "mlp"):
            proved = 0
            for seed in range(30):
                net, prop = _differential_case(kind, seed, acas)
                margins, _ = screen(
                    net.ops_for(np.float64), [prop.region], [prop.label],
                    ZONOTOPE,
                )
                proved += int(margins[0] > 0.0)
            assert proved > 0, kind
