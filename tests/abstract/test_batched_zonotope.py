"""Batched zonotope/powerset kernels must match the sequential elements
**bitwise**, row by row.

Unlike the interval/DeepPoly batches (whose GEMM operand shapes include
the batch height, leaving a few ulps of BLAS drift), the zonotope-family
kernels are batch-height-stable by construction — every product and
reduction runs the same float sequence per row at every batch size (see
``repro.abstract.zonotope_batch``).  These tests therefore assert *exact*
equality: margins, bounds, and every representation array, across
disjunct budgets, crossing patterns, overflow joins, and batch heights.
"""

import threading

import numpy as np
import pytest

from repro.abstract import fused, zonotope_batch
from repro.abstract.analyzer import analyze, analyze_batch, analyze_batch_multi
from repro.abstract.batched import BatchedElement
from repro.abstract.domains import ZONOTOPE, DomainSpec, bounded_zonotopes
from repro.abstract.powerset import PowersetElement
from repro.abstract.zonotope import Zonotope
from repro.abstract.zonotope_batch import (
    PowersetBatch,
    ZonotopeBatch,
    _stacked_join,
    _stacked_relu_split,
)
from repro.bench.fusedref import prefused_stacked_relu, promotion_stack
from repro.nn.builders import lenet_conv, mlp, xor_network
from repro.utils.boxes import Box


def _regions(seed, count, n, lo=-0.6, hi=0.6, rmax=0.3):
    rng = np.random.default_rng(seed)
    return [
        Box.from_center_radius(
            rng.uniform(lo, hi, n), float(rng.uniform(0.01, rmax))
        )
        for _ in range(count)
    ]


def _random_batch(seed, batch, k, n):
    """A ZonotopeBatch with nonzero error terms (exercises the err paths
    the from-box pipeline only reaches after joins)."""
    rng = np.random.default_rng(seed)
    return ZonotopeBatch(
        rng.standard_normal((batch, n)),
        rng.standard_normal((batch, k, n)) / k,
        rng.uniform(0.0, 0.2, (batch, n)),
    )


def _assert_rows_equal(element, batch_row):
    assert type(batch_row) is Zonotope
    np.testing.assert_array_equal(element.center, batch_row.center)
    np.testing.assert_array_equal(element.gens, batch_row.gens)
    np.testing.assert_array_equal(element.err, batch_row.err)


class TestZonotopeBatchTransformers:
    @pytest.mark.parametrize("seed", range(3))
    def test_relu_matches_sequential_bitwise(self, seed):
        batch = _random_batch(seed, batch=7, k=9, n=6)
        out = batch.relu()
        for i in range(batch.batch_size):
            _assert_rows_equal(batch.row(i).relu(), out.row(i))

    def test_affine_matches_sequential_bitwise(self):
        batch = _random_batch(11, batch=5, k=6, n=4)
        rng = np.random.default_rng(0)
        weight = rng.standard_normal((7, 4))
        bias = rng.standard_normal(7)
        out = batch.affine(weight, bias)
        for i in range(batch.batch_size):
            _assert_rows_equal(batch.row(i).affine(weight, bias), out.row(i))

    def test_maxpool_matches_sequential_bitwise(self):
        batch = _random_batch(13, batch=6, k=8, n=8)
        windows = np.array([[0, 1, 2], [3, 4, 5], [5, 6, 7]])
        out = batch.maxpool(windows)
        for i in range(batch.batch_size):
            _assert_rows_equal(batch.row(i).maxpool(windows), out.row(i))

    def test_min_margin_matches_sequential_bitwise(self):
        batch = _random_batch(17, batch=6, k=10, n=5)
        margins = batch.min_margin(2)
        for i in range(batch.batch_size):
            assert margins[i] == batch.row(i).min_margin(2)

    def test_rows_slicing(self):
        batch = _random_batch(19, batch=6, k=4, n=3)
        sub = batch.rows([4, 1])
        _assert_rows_equal(batch.row(4), sub.row(0))
        _assert_rows_equal(batch.row(1), sub.row(1))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZonotopeBatch.from_boxes([])
        with pytest.raises(ValueError):
            ZonotopeBatch(
                np.zeros((2, 3)), np.zeros((2, 1, 3)), -np.ones((2, 3))
            )
        with pytest.raises(ValueError):
            ZonotopeBatch(np.zeros((2, 3)), np.zeros((2, 1, 4)), np.zeros((2, 3)))


class TestAnalyzeDispatch:
    """End-to-end: analyze_batch routes zonotope domains through the
    batched kernels and still matches per-region analyze exactly."""

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(2), bounded_zonotopes(4)],
        ids=str,
    )
    def test_mlp_exact(self, domain):
        net = mlp(5, [12, 10], 3, rng=4)
        regions = _regions(8, 5, 5, rmax=0.5)
        batch = analyze_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = analyze(net, region, 1, domain)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == single.margin_lower_bound
            lo_b, hi_b = batch[i].output.bounds()
            lo_s, hi_s = single.output.bounds()
            np.testing.assert_array_equal(lo_b, lo_s)
            np.testing.assert_array_equal(hi_b, hi_s)

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(3)], ids=str
    )
    def test_conv_with_maxpool_exact(self, domain):
        net = lenet_conv(input_shape=(1, 8, 8), num_classes=4, rng=0)
        regions = _regions(2, 3, net.input_size, lo=0.2, hi=0.8, rmax=0.1)
        batch = analyze_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = analyze(net, region, 1, domain)
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_mixed_labels_exact(self):
        net = mlp(4, [10, 8], 4, rng=2)
        regions = _regions(3, 6, 4, rmax=0.4)
        labels = [0, 1, 2, 3, 1, 0]
        batch = analyze_batch_multi(
            net, regions, labels, bounded_zonotopes(2)
        )
        for i, (region, label) in enumerate(zip(regions, labels)):
            single = analyze(net, region, label, bounded_zonotopes(2))
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_batch_height_stability(self):
        """A row's result is independent of who shares its kernel call —
        the property the scheduler's fused sweeps rely on."""
        net = mlp(6, [16, 12], 4, rng=7)
        regions = _regions(11, 12, 6, rmax=0.5)
        for domain in (ZONOTOPE, bounded_zonotopes(4)):
            full = analyze_batch(net, regions, 2, domain)
            for cut in (1, 3, 7):
                part = analyze_batch(net, regions[:cut], 2, domain)
                for i in range(cut):
                    assert (
                        part[i].margin_lower_bound
                        == full[i].margin_lower_bound
                    )

    def test_outputs_are_sequential_element_types(self):
        net = xor_network()
        region = Box(np.array([0.3, 0.3]), np.array([0.7, 0.7]))
        zono = analyze_batch(net, [region], 1, ZONOTOPE)[0].output
        power = analyze_batch(net, [region], 1, bounded_zonotopes(2))[0].output
        assert type(zono) is Zonotope
        assert type(power) is PowersetElement

    def test_batched_element_protocol(self):
        boxes = [Box.unit(3), Box.unit(3)]
        for spec, cls in (
            (DomainSpec("zonotope", 1), ZonotopeBatch),
            (DomainSpec("zonotope", 4), PowersetBatch),
        ):
            element = spec.lift_batch(boxes)
            assert isinstance(element, cls)
            assert isinstance(element, BatchedElement)
            assert element.batch_size == 2
        assert DomainSpec("symbolic", 1).lift_batch(boxes) is None
        assert DomainSpec("interval", 4).lift_batch(boxes) is None


class TestPowersetBatchRelu:
    """The satellite contract: randomized batch-vs-single equivalence
    across disjunct counts, crossing patterns, and overflow joins."""

    @pytest.mark.parametrize("budget", [1, 2, 4, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_exact_across_budgets(self, seed, budget):
        net = mlp(5, [14, 10], 3, rng=seed + 20)
        # Wide regions make many dims cross, so small budgets overflow
        # (residual split+join joins inside the final pass) while large
        # budgets keep splitting — both paths compared exactly.
        regions = _regions(seed + 40, 5, 5, rmax=0.8)
        domain = DomainSpec("zonotope", budget)
        batch = analyze_batch(net, regions, 1, domain)
        for i, region in enumerate(regions):
            single = analyze(net, region, 1, domain)
            assert batch[i].verified == single.verified
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_disjunct_structure_matches(self):
        """Same disjunct count, same per-disjunct arrays as sequential."""
        net = mlp(4, [12], 3, rng=9)
        regions = _regions(5, 4, 4, rmax=0.7)
        batch = analyze_batch(net, regions, 0, bounded_zonotopes(4))
        for i, region in enumerate(regions):
            single = analyze(net, region, 0, bounded_zonotopes(4))
            got = batch[i].output
            want = single.output
            assert got.num_disjuncts == want.num_disjuncts
            for d in range(want.num_disjuncts):
                _assert_rows_equal(want.elements[d], got.elements[d])

    def test_no_crossing_clamp_only(self):
        """Regions whose activations never cross take the one-pass clamp
        path; results must still be exact."""
        net = mlp(3, [6], 2, rng=1)
        regions = _regions(6, 4, 3, rmax=0.01)
        batch = analyze_batch(net, regions, 0, bounded_zonotopes(2))
        for i, region in enumerate(regions):
            single = analyze(net, region, 0, bounded_zonotopes(2))
            assert batch[i].margin_lower_bound == single.margin_lower_bound

    def test_powerset_rows_and_bounds(self):
        boxes = _regions(7, 3, 4, rmax=0.2)
        batch = PowersetBatch.from_boxes(boxes, 3)
        assert batch.total_disjuncts == 3
        sub = batch.rows([2, 0])
        assert sub.batch_size == 2
        low, high = batch.bounds()
        for i, box in enumerate(boxes):
            # Bitwise-equal to the sequential lift (which reconstructs
            # bounds from center ± radius, same as the batch).
            want_low, want_high = Zonotope.from_box(box).bounds()
            np.testing.assert_array_equal(low[i], want_low)
            np.testing.assert_array_equal(high[i], want_high)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowersetBatch.from_boxes([], 2)
        with pytest.raises(ValueError):
            PowersetBatch.from_boxes([Box.unit(2)], 0)
        with pytest.raises(ValueError):
            PowersetBatch(
                np.zeros((3, 2)),
                np.zeros((3, 0, 2)),
                np.zeros((3, 2)),
                np.array([0, 1, 3]),  # second region has 2 > budget rows
                1,
            )


@pytest.fixture
def no_compaction():
    """Run a test with generator compaction disabled, restoring after."""
    previous = fused.set_compaction(False)
    yield
    fused.set_compaction(previous)


class TestGeneratorCompaction:
    """The fused-kernel compaction invariant: dropping provably-zero
    generator rows changes nothing observable — not against the
    uncompacted reference path, and not against the sequential
    single-region elements, across overflow-join and budget cases."""

    @staticmethod
    def _promoted_batch(seed, batch, k, n, dead):
        """A batch with exact-zero generator rows (the err-promotion
        shape compaction exists for)."""
        zb = _random_batch(seed, batch, k, n)
        rng = np.random.default_rng(seed + 1)
        zb.gens[:, rng.choice(k, dead, replace=False), :] = 0.0
        return zb

    @pytest.mark.parametrize("seed", range(4))
    def test_compaction_matches_reference_fuzz(self, seed):
        zb = self._promoted_batch(seed, batch=6, k=12, n=7, dead=5)
        previous = fused.set_compaction(False)
        try:
            want = zb.relu()
        finally:
            fused.set_compaction(previous)
        fused.reset_counters()
        got = zb.relu()
        assert fused.FUSED_COUNTERS["compacted_rows"] > 0
        # Identical values and identical shapes: compaction is internal,
        # the dropped rows come back as zeros in their original slots.
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.gens, want.gens)
        np.testing.assert_array_equal(got.errs, want.errs)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_vs_single_with_compaction_fuzz(self, seed):
        """Batched rows equal sequential elements bitwise whether or not
        compaction runs (both paths apply it identically)."""
        zb = self._promoted_batch(seed + 7, batch=5, k=10, n=6, dead=4)
        for enabled in (True, False):
            previous = fused.set_compaction(enabled)
            try:
                out = zb.relu()
                for i in range(zb.batch_size):
                    _assert_rows_equal(zb.row(i).relu(), out.row(i))
            finally:
                fused.set_compaction(previous)

    @pytest.mark.parametrize("budget", [1, 2, 4])
    def test_powerset_budget_cases_match_reference(self, budget):
        """Overflow-join/budget pipelines end to end: margins and every
        disjunct array agree between compaction and the reference path,
        and with the sequential analyzer."""
        net = mlp(5, [14, 10], 3, rng=31)
        regions = _regions(51, 4, 5, rmax=0.8)
        domain = DomainSpec("zonotope", budget)
        with_compaction = analyze_batch(net, regions, 1, domain)
        previous = fused.set_compaction(False)
        try:
            reference = analyze_batch(net, regions, 1, domain)
            sequential = [analyze(net, r, 1, domain) for r in regions]
        finally:
            fused.set_compaction(previous)
        for got, want, solo in zip(with_compaction, reference, sequential):
            assert got.margin_lower_bound == want.margin_lower_bound
            assert got.margin_lower_bound == solo.margin_lower_bound
            if budget == 1:  # plain zonotope outputs, no disjunct structure
                _assert_rows_equal(want.output, got.output)
            else:
                assert got.output.num_disjuncts == want.output.num_disjuncts
                for d in range(want.output.num_disjuncts):
                    _assert_rows_equal(
                        want.output.elements[d], got.output.elements[d]
                    )

    def test_no_compaction_fixture_disables_counters(self, no_compaction):
        zb = self._promoted_batch(3, batch=4, k=8, n=5, dead=3)
        fused.reset_counters()
        zb.relu()
        assert fused.FUSED_COUNTERS["compacted_rows"] == 0


def _assert_triples_equal(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def _left_to_right(stack, axis):
    """Sum over ``axis`` with an explicit left-to-right loop."""
    terms = np.moveaxis(stack, axis, 0)
    total = terms[0].copy()
    for term in terms[1:]:
        total = total + term
    return total


class TestSequentialReductions:
    """The generator-axis sums that compaction relies on add strictly
    left to right: pinned against an explicit loop."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gen_sum_is_left_to_right(self, dtype):
        rng = np.random.default_rng(0)
        for rows, k in [(1, 9), (2, 17), (5, 130), (17, 97)]:
            # Magnitudes spread over 16 decades make any reassociation
            # visible in the rounding.
            stack = rng.standard_normal((rows, k)) * 10.0 ** rng.integers(
                -8, 8, (rows, k)
            )
            stack = stack.astype(dtype)
            np.testing.assert_array_equal(
                fused.gen_sum(stack), _left_to_right(stack, axis=1)
            )

    @pytest.mark.parametrize("strided", [False, True], ids=["contig", "strided"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_k_sum_is_left_to_right(self, dtype, strided):
        rng = np.random.default_rng(1)
        for rows, k, n in [(1, 9, 2), (2, 17, 3), (3, 200, 5), (17, 97, 24)]:
            shape = (rows, 2 * k, n + 3) if strided else (rows, k, n)
            stack = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -8, 8, shape
            )
            stack = stack.astype(dtype)
            if strided:
                stack = stack[:, ::2, 1 : n + 1]
            got = fused.k_sum(stack)
            assert got.dtype == stack.dtype
            np.testing.assert_array_equal(got, _left_to_right(stack, axis=1))
            np.testing.assert_array_equal(got, stack.sum(axis=1))

    def test_k_sum_width_one_keeps_numpy_sum(self):
        # At n == 1 numpy reduces the contiguous k axis in its own
        # unrolled order; k_sum keeps ``sum`` there (the reference form).
        stack = np.random.default_rng(2).standard_normal((3, 40, 1))
        np.testing.assert_array_equal(fused.k_sum(stack), stack.sum(axis=1))


class TestFusedKernelEdgeCases:
    """The magnitude-form join, in-place row blocks and flat arena are
    exact rewrites: the kernel stays ``==`` to the pre-fusion reference
    (``repro.bench.fusedref``) where a sign, the tolerance or a rounding
    could tell them apart."""

    @staticmethod
    def _paths(monkeypatch):
        """Record which round path (in-place block or gather) each
        split+join round takes."""
        taken = []
        kernel = fused.fused_split_join

        def recording(centers, gens, errs, rows, dims):
            taken.append(bool(rows[-1] == rows.size - 1))
            kernel(centers, gens, errs, rows, dims)

        monkeypatch.setattr(fused, "fused_split_join", recording)
        return taken

    def _check(self, centers, gens, errs, skips):
        snapshot = [a.copy() for a in (centers, gens, errs)]
        got = fused.stacked_relu(centers, gens, errs, skips)
        want = prefused_stacked_relu(
            centers.copy(), gens.copy(), errs.copy(), skips
        )
        _assert_triples_equal(got, want)
        for before, after in zip(snapshot, (centers, gens, errs)):
            np.testing.assert_array_equal(before, after)
        return got

    def test_no_generators(self, monkeypatch):
        taken = self._paths(monkeypatch)
        centers, gens, errs, skips = promotion_stack(1, 6, 4, 7, 0.0)
        # Error terms alone make dims cross: the rounds run at k == 0.
        self._check(centers, gens[:, :0, :].copy(), errs + 0.5, skips)
        assert taken

    @pytest.mark.parametrize("seed", range(4))
    def test_single_row(self, seed, monkeypatch):
        taken = self._paths(monkeypatch)
        self._check(*promotion_stack(seed, 1, 20, 9, 0.3))
        assert taken and all(taken)  # R == 1: every split is the block

    @pytest.mark.parametrize("seed", range(3))
    def test_block_and_gather_rounds(self, seed, monkeypatch):
        """Skips drop rows out of a round, so both round paths run."""
        taken = self._paths(monkeypatch)
        centers, gens, errs, skips = promotion_stack(seed, 12, 30, 10, 0.3)
        rng = np.random.default_rng(seed)
        skips = [
            frozenset(rng.choice(10, 3, replace=False).tolist())
            if r % 3 == 1 else frozenset()
            for r in range(12)
        ]
        self._check(centers, gens, errs, skips)
        assert True in taken and False in taken

    def test_coefficients_on_the_tolerance(self):
        centers, gens, errs, skips = promotion_stack(3, 6, 24, 8, 0.2)
        rng = np.random.default_rng(3)
        signs = np.where(rng.random((6, 4, 8)) < 0.5, -1.0, 1.0)
        # Symbols whose every coefficient is exactly +-tol: untouched by
        # every split, so |g_pos| == tol and the join must drop them.
        gens[:, :4, :] = fused._COEF_TOL * signs
        # Mixed symbols: tol on some dims, ordinary mass on the rest.
        gens[:, 4, ::2] = fused._COEF_TOL
        gens[:, 5, 1::2] = -fused._COEF_TOL
        self._check(centers, gens, errs, skips)

    def test_subnormal_products(self):
        centers, gens, errs, skips = promotion_stack(4, 6, 16, 8, 0.0)
        # Dims 1.. carry subnormal generators: every branch product on
        # them underflows gradually.
        gens[:, :, 1:] *= 1e-307
        tiny = np.finfo(np.float64).tiny
        assert (np.abs(gens[:, :, 1:]) < tiny).any()
        errs[:, 0] += 0.4  # dim 0 crosses in every row
        centers[:, 0] = 0.05
        self._check(centers, gens, errs, skips)

    @pytest.mark.parametrize("first", [0, 1], ids=["block", "gather"])
    def test_collapsed_branch_half_widths(self, first):
        """A split far from zero collapses a branch: hp == 0 (or hn == 0)
        on every symbol the split dim touches."""
        rng = np.random.default_rng(5)
        rows, k, n = 5, 7, 5
        centers = rng.standard_normal((rows, n))
        gens = rng.standard_normal((rows, k, n))
        gens[:, 2, :] = 0.0  # one symbol untouched everywhere
        errs = rng.uniform(0.0, 0.1, (rows, n))
        # Rows 0..3 are the leading block; rows 1..4 take the gather path.
        split_rows = np.arange(first, first + 4)
        dims = np.array([0, 1, 2, 3])
        centers[first, 0] = -50.0  # positive branch empty: hp == 0
        centers[first + 1, 1] = 50.0  # negative branch empty: hn == 0
        split = _stacked_relu_split(centers, gens, errs, split_rows, dims)
        assert (split[1][0] == 0.0).all(axis=1).sum() > 1
        assert (split[4][1] == 0.0).all(axis=1).sum() > 1
        want = _stacked_join(*split)
        stack = [a.copy() for a in (centers, gens, errs)]
        fused.fused_split_join(*stack, split_rows, dims)
        _assert_triples_equal([a[split_rows] for a in stack], want)
        other = 4 if first == 0 else 0
        for before, after in zip((centers, gens, errs), stack):
            np.testing.assert_array_equal(before[other], after[other])

    def test_float32_runs_the_reference_sequence(self, monkeypatch):
        """float32 differs from the reference only by where the outward
        rounding slack is added; with the slack off the float sequence is
        the reference's."""
        no_slack = lambda dtype, terms: 0.0  # noqa: E731
        monkeypatch.setattr(fused, "_slack_for", no_slack)
        monkeypatch.setattr(zonotope_batch, "_slack_for", no_slack)
        for seed in range(4):
            stack = promotion_stack(seed, 7, 24, 9, 0.3)
            args = [a.astype(np.float32) for a in stack[:3]]
            self._check(*args, stack[3])

    @pytest.mark.parametrize("seed", range(3))
    def test_row_permuted_stack_gives_permuted_output(self, seed):
        centers, gens, errs, skips = promotion_stack(seed + 8, 9, 30, 10, 0.3)
        skips[2] = frozenset({1, 4})
        radius = np.abs(gens).sum(axis=1) + errs
        perm = np.random.default_rng(seed).permutation(9)
        inputs = [a[perm] for a in (centers, gens, errs, radius)]
        snapshot = [a.copy() for a in inputs]
        got = fused.stacked_relu(
            *inputs[:3], [skips[r] for r in perm], radius=inputs[3]
        )
        want = fused.stacked_relu(centers, gens, errs, skips, radius=radius)
        _assert_triples_equal(got, [w[perm] for w in want])
        for before, after in zip(snapshot, inputs):
            np.testing.assert_array_equal(before, after)


class TestScratchArenaBound:
    def test_one_flat_block_per_key(self):
        """Compaction produces a new live ``k`` almost every round; the
        arena must serve them all from one grow-only block per
        ``(tag, dtype)``, sized by the largest request."""
        shapes = [(1 + k % 5, k, 6) for k in range(3, 60)]  # 57 distinct k
        seen = {}

        def drive():
            rng = np.random.default_rng(0)
            for rows, k, n in shapes:
                centers = rng.standard_normal((rows, n))
                gens = rng.standard_normal((rows, k, n)) / k
                errs = rng.uniform(0.0, 0.1, (rows, n))
                fused.fused_split_join(
                    centers, gens, errs, np.arange(rows), np.zeros(rows, int)
                )
            seen["arena"] = fused._thread_arena()

        # A fresh thread has a fresh arena, untouched by earlier tests.
        worker = threading.Thread(target=drive)
        worker.start()
        worker.join()
        blocks = seen["arena"]._blocks
        assert sorted(blocks) == [("", "?"), ("", "d"), ("sym", "d")]
        largest = max(r * k * n for r, k, n in shapes)
        largest_sym = max(r * 2 * k for r, k, _ in shapes)
        assert blocks[("", "d")].size <= 4 * largest
        assert blocks[("", "?")].size <= 1 * largest
        assert blocks[("sym", "d")].size <= 3 * largest_sym


class TestSoundness:
    """Batched outputs must still contain every concrete execution."""

    @pytest.mark.parametrize(
        "domain", [ZONOTOPE, bounded_zonotopes(3)], ids=str
    )
    def test_contains_concrete_runs(self, domain):
        net = mlp(4, [10, 8], 3, rng=6)
        regions = _regions(9, 3, 4, rmax=0.5)
        batch = analyze_batch(net, regions, 0, domain)
        rng = np.random.default_rng(0)
        for i, region in enumerate(regions):
            low, high = batch[i].output.bounds()
            for x in region.sample(rng, 40):
                y = net.logits(x)
                assert np.all(y >= low - 1e-9) and np.all(y <= high + 1e-9)
