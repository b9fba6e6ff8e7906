"""Batched zonotope and powerset-of-zonotope kernels.

The paper's headline domains are zonotopes and bounded powersets of
zonotopes, whose ReLU transformer is a *data-dependent* loop: each
crossing dimension is case-split (noise-symbol contraction), the negative
branch projected, and — in the plain domain — the branches re-joined,
with every step changing which later dimensions still cross.  PR 1
batched the interval and DeepPoly domains but left this path on a
per-region fallback loop, so the reproduction's own headline domain was
the one domain the batched engines could not accelerate.

:class:`ZonotopeBatch` and :class:`PowersetBatch` close that gap with
stacked ``(B, n)`` center / ``(B, k, n)`` generator representations and a
**round-based global dim order** for the ReLU case-split loop:

- Every region (and every disjunct of every region) keeps *its own*
  widest-first crossing-dimension order — the order the sequential
  transformer uses, which must be preserved for exactness because each
  split/join changes the bounds later dimensions see.
- Round ``t`` processes the ``t``-th dimension of every row's private
  order **simultaneously**: rows are independent, so the per-dimension
  contraction, projection, and join become one stacked pass over all
  rows still active in the round, across disjuncts *and* across frontier
  regions.  The Python loop shrinks from
  ``O(regions × disjuncts × dims)`` iterations to ``O(max dims)`` rounds.

**Bitwise contract.**  Row ``i`` of every batched transformer is bitwise
identical to the sequential :class:`~repro.abstract.zonotope.Zonotope` /
:class:`~repro.abstract.powerset.PowersetElement` result for region ``i``
(pinned by ``tests/abstract/test_batched_zonotope.py``).  The kernels are
*batch-height-stable by construction*: no reduction or product lets the
number of batched rows into its operand shapes in a way that changes a
row's float sequence —

- generator rotations run as ``(B·k, n) @ (n, m)`` GEMMs, whose rows are
  reduction-order-stable across row counts (unlike GEMV vs GEMM, which
  OpenBLAS routes through different kernels — which is why the *center*
  products here and in the sequential ``Zonotope.affine`` both go through
  ``einsum``, whose per-element dot loop is height-independent);
- the split/join contraction (now the fused in-place kernel in
  :mod:`repro.abstract.fused`, DESIGN.md §10) computes its branch-center
  products through the same ``einsum`` per-element dot loop, which is
  both height-stable and zero-row-neutral — the property generator
  compaction relies on to drop all-zero rows between rounds without
  changing a single output value;
- every sum (radii, join pads, margin masses) reduces over per-row axes
  whose pairwise-summation order is independent of the batch height, and
  matches the sequential element's cached-vs-fresh radius formulas
  case by case.

This is what lets the multi-property scheduler fuse zonotope sweeps
across jobs without perturbing any job's outcome, witness, or statistics.
"""

from __future__ import annotations

import numpy as np

from repro.abstract.batched import BatchedElement
from repro.abstract.fused import _COEF_TOL, gen_sum
from repro.abstract.fused import stacked_relu as _fused_stacked_relu
from repro.abstract.powerset import PowersetElement
from repro.abstract.zonotope import Zonotope, _coerce_term
from repro.backend import active as _active_backend
from repro.backend import outward_center_radius as _outward_center_radius
from repro.backend import slack_for as _slack_for
from repro.utils.boxes import Box

# ----------------------------------------------------------------------
# Stacked kernels over (T, k, n) generator tensors
# ----------------------------------------------------------------------


def _stacked_radius(gens: np.ndarray, errs: np.ndarray) -> np.ndarray:
    """Per-row radii ``|G|·1 + e``: the batched ``Zonotope.radius``."""
    return np.abs(gens).sum(axis=1) + errs


def _stacked_margins(
    centers: np.ndarray, gens: np.ndarray, errs: np.ndarray, label: int
) -> np.ndarray:
    """Per-row ``min_{j≠label}`` relational margin bounds, shape ``(T,)``.

    Matches ``Zonotope.lower_margin`` bit for bit: each rival class ``j``
    subtracts a contiguous ``(T, k)`` generator difference and reduces it
    with the same pairwise order as the sequential 1-D sum.
    """
    out = centers.shape[1]
    margins = np.full((centers.shape[0], out), np.inf, dtype=centers.dtype)
    for j in range(out):
        if j == label:
            continue
        diff = centers[:, label] - centers[:, j]
        gen_mass = np.abs(gens[:, :, label] - gens[:, :, j]).sum(axis=1)
        margins[:, j] = diff - gen_mass - errs[:, label] - errs[:, j]
    return margins.min(axis=1)


def _stacked_affine(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched ``Zonotope.affine``: fused rotation + error promotion.

    Centers go through ``einsum`` (height-stable, see module docstring);
    generator rows of all batched elements share one reshaped GEMM.
    """
    bk = _active_backend()
    rows, num_gens, n = gens.shape
    out = weight.shape[0]
    new_centers = bk.einsum("ij,bj->bi", weight, centers) + bias
    rotated = bk.matmul(gens.reshape(rows * num_gens, n), weight.T).reshape(
        rows, num_gens, out
    )
    promoted = errs[:, :, None] * weight.T[None, :, :]
    new_gens = np.concatenate([rotated, promoted], axis=1)
    scale = _slack_for(new_centers.dtype, weight.shape[1])
    if not scale:
        return new_centers, new_gens, np.zeros((rows, out), dtype=new_centers.dtype)
    # Outward rounding (float32 path): absorb the rotation/einsum
    # round-off into the error radii, mirroring ``Zonotope.affine``.
    mag = np.abs(centers) + _stacked_radius(gens, errs)
    new_errs = scale * (bk.matmul(mag, np.abs(weight).T) + np.abs(bias))
    return new_centers, new_gens, new_errs.astype(new_centers.dtype, copy=False)


def _stacked_maxpool(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    windows: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batched ``Zonotope.maxpool`` (gathers and elementwise only)."""
    rows = centers.shape[0]
    radius = _stacked_radius(gens, errs)
    low = centers - radius
    high = centers + radius
    out = windows.shape[0]
    lows = low[:, windows]  # (rows, out, win)
    highs = high[:, windows]
    winners = lows.argmax(axis=2)
    winner_src = windows[np.arange(out)[None, :], winners]  # (rows, out)
    rivals = highs.copy()
    rivals[
        np.arange(rows)[:, None], np.arange(out)[None, :], winners
    ] = -np.inf
    best_low = np.take_along_axis(lows, winners[:, :, None], axis=2)[:, :, 0]
    dominant = best_low >= rivals.max(axis=2)
    hull_lo = lows.max(axis=2)
    hull_hi = highs.max(axis=2)
    new_centers = np.where(
        dominant,
        np.take_along_axis(centers, winner_src, axis=1),
        (hull_lo + hull_hi) / 2.0,
    )
    new_gens = np.where(
        dominant[:, None, :],
        np.take_along_axis(gens, winner_src[:, None, :], axis=2),
        0.0,
    )
    new_errs = np.where(
        dominant,
        np.take_along_axis(errs, winner_src, axis=1),
        (hull_hi - hull_lo) / 2.0,
    )
    return new_centers, new_gens, new_errs


def _stacked_relu_split(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    rows: np.ndarray,
    dims: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """``Zonotope.relu_split`` on many (row, dim) pairs in one pass.

    Returns ``(pos_c, pos_g, pos_e, neg_c, neg_g, neg_e)`` stacked over
    the pairs; the negative branch arrives already projected.  Every
    arithmetic step mirrors the sequential transformer: the shared
    ``(R, 2, k) @ (R, k, n)`` center product runs the same-shape
    ``(2, k) @ (k, n)`` GEMM per slice.
    """
    count = rows.size
    sub_gens = gens[rows]  # (R, k, n) gather, reused by both branches
    coeffs = gens[rows, :, dims]  # (R, k) contiguous gather
    abs_coeffs = np.abs(coeffs)
    # gen_sum, not a pairwise axis-1 sum: contraction totals must be
    # invariant to zero generator rows (compaction) and identical to the
    # sequential ``Zonotope.relu_split`` at every height.
    total = gen_sum(abs_coeffs) + errs[rows, dims]
    touched = abs_coeffs > _COEF_TOL
    rest = total[:, None] - abs_coeffs
    c = centers[rows, dims][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pos_bound = (-c - rest) / coeffs
        neg_bound = (-c + rest) / coeffs
    pos_lower = touched & (coeffs > 0)
    pos_upper = touched & ~pos_lower
    num_gens = gens.shape[1]
    lo_sym = np.full((count, 2, num_gens), -1.0, dtype=gens.dtype)
    hi_sym = np.ones((count, 2, num_gens), dtype=gens.dtype)
    lo_sym[:, 0] = np.where(pos_lower, np.maximum(lo_sym[:, 0], pos_bound), lo_sym[:, 0])
    hi_sym[:, 0] = np.where(pos_upper, np.minimum(hi_sym[:, 0], pos_bound), hi_sym[:, 0])
    lo_sym[:, 1] = np.where(pos_upper, np.maximum(lo_sym[:, 1], neg_bound), lo_sym[:, 1])
    hi_sym[:, 1] = np.where(pos_lower, np.minimum(hi_sym[:, 1], neg_bound), hi_sym[:, 1])
    lo_sym = np.minimum(lo_sym, hi_sym)  # guard against numeric inversion
    mid = (lo_sym + hi_sym) / 2.0
    half = (hi_sym - lo_sym) / 2.0
    # einsum, not the (R, 2, k) @ (R, k, n) stacked matmul: BLAS GEMM
    # reduction order is not zero-row-invariant, while einsum's
    # accumulation loop over k is sequential and height-stable.
    branch_centers = centers[rows][:, None, :] + np.einsum(
        "rjk,rkn->rjn", mid, sub_gens
    )  # (R, 2, n)
    pos_c = branch_centers[:, 0]
    neg_c = branch_centers[:, 1].copy()
    pos_g = sub_gens * half[:, 0][:, :, None]
    neg_g = sub_gens * half[:, 1][:, :, None]
    scale = _slack_for(gens.dtype, num_gens + 4)
    if scale:
        # Outward rounding (float32 path), mirroring ``Zonotope.relu_split``.
        widen = scale * (
            np.abs(centers[rows])
            + np.abs(sub_gens).sum(axis=1)
            + errs[rows]
        )
        pos_e = errs[rows] + widen
        neg_e = pos_e.copy()
    else:
        pos_e = errs[rows].copy()
        neg_e = errs[rows].copy()
    span = np.arange(count)
    neg_c[span, dims] = 0.0
    neg_g[span, :, dims] = 0.0
    neg_e[span, dims] = 0.0
    return pos_c, pos_g, pos_e, neg_c, neg_g, neg_e


def _stacked_join(
    c1: np.ndarray, g1: np.ndarray, e1: np.ndarray,
    c2: np.ndarray, g2: np.ndarray, e2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Zonotope.join`` row by row over stacked branch pairs.

    The join is memory-bound (a dozen elementwise passes over
    ``(R, k, n)`` tensors), so the absolute-value and sign arrays the
    sequential transformer recomputes per use are materialized exactly
    once here — same values, fewer passes.
    """
    abs_g1 = np.abs(g1)
    abs_g2 = np.abs(g2)
    sign_g1 = np.sign(g1)
    rad1 = abs_g1.sum(axis=1) + e1
    rad2 = abs_g2.sum(axis=1) + e2
    lo = np.minimum(c1 - rad1, c2 - rad2)
    hi = np.maximum(c1 + rad1, c2 + rad2)
    center = (lo + hi) / 2.0
    same_sign = (sign_g1 == np.sign(g2)) & (abs_g1 > _COEF_TOL)
    gens = np.where(same_sign, sign_g1 * np.minimum(abs_g1, abs_g2), 0.0)
    pad1 = np.abs(c1 - center) + np.abs(g1 - gens).sum(axis=1) + e1
    pad2 = np.abs(c2 - center) + np.abs(g2 - gens).sum(axis=1) + e2
    err = np.maximum(pad1, pad2)
    scale = _slack_for(center.dtype, g1.shape[1] + 4)
    if scale:
        # Outward rounding (float32 path), mirroring ``Zonotope.join``.
        err += scale * (np.abs(center) + np.abs(gens).sum(axis=1) + err)
    return center, gens, err


def _stacked_pad_errs(errs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The batched ``Zonotope.pad`` error update: ``e + radii`` per row,
    with the float32 path's outward widening of the addition round-off."""
    out = errs + radii
    scale = _slack_for(out.dtype, 2)
    if scale:
        out = out + scale * out
    return out


def _stacked_relu(
    centers: np.ndarray,
    gens: np.ndarray,
    errs: np.ndarray,
    skips: list[frozenset],
    radius: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Zonotope.relu(skip_dims)`` for every row, batched.

    Delegates to :func:`repro.abstract.fused.stacked_relu` — the fused
    split+project+join contraction over scratch-arena buffers, with
    generator compaction inside the round loop.  The unfused composition
    ``_stacked_join(*_stacked_relu_split(...))`` remains available here
    as the reference path (the fused kernel is pinned bitwise against it
    in ``benchmarks/bench_zonotope_batch.py``).
    """
    return _fused_stacked_relu(centers, gens, errs, skips, radius=radius)


# ----------------------------------------------------------------------
# ZonotopeBatch
# ----------------------------------------------------------------------


class ZonotopeBatch(BatchedElement):
    """Zonotopes for ``B`` regions at once: ``(B, n)`` centers,
    ``(B, k, n)`` generators, ``(B, n)`` error radii.

    Row ``i`` is bitwise identical to the :class:`Zonotope` the sequential
    analyzer computes for region ``i`` alone (see the module docstring's
    batch-height-stability argument).
    """

    def __init__(
        self, centers: np.ndarray, gens: np.ndarray, errs: np.ndarray
    ) -> None:
        centers = _coerce_term(centers)
        gens = _coerce_term(gens, dtype=centers.dtype)
        errs = _coerce_term(errs, dtype=centers.dtype)
        if centers.ndim != 2 or errs.shape != centers.shape:
            raise ValueError(
                f"batch centers/errors must be matching (B, n) arrays, got "
                f"{centers.shape} vs {errs.shape}"
            )
        if gens.ndim != 3 or gens.shape[::2] != centers.shape:
            raise ValueError(
                f"generator tensor shape {gens.shape} incompatible with "
                f"centers of shape {centers.shape}"
            )
        if np.any(errs < 0):
            raise ValueError("error radii must be non-negative")
        self.centers = centers
        self.gens = gens
        self.errs = errs

    @staticmethod
    def from_boxes(boxes: list[Box]) -> "ZonotopeBatch":
        if not boxes:
            raise ValueError("need at least one box")
        n = boxes[0].ndim
        dtype = _active_backend().dtype
        centers, radii = _outward_center_radius(
            np.stack([b.center for b in boxes]),
            np.stack([b.radius for b in boxes]),
            dtype,
        )
        return ZonotopeBatch(centers, np.zeros((len(boxes), 0, n), dtype=dtype), radii)

    @property
    def batch_size(self) -> int:
        return self.centers.shape[0]

    @property
    def size(self) -> int:
        return self.centers.shape[1]

    @property
    def num_gens(self) -> int:
        return self.gens.shape[1]

    def row(self, i: int) -> Zonotope:
        return Zonotope._make(
            self.centers[i].copy(), self.gens[i].copy(), self.errs[i].copy()
        )

    def rows(self, indices) -> "ZonotopeBatch":
        indices = np.asarray(indices, dtype=np.int64)
        return ZonotopeBatch(
            self.centers[indices], self.gens[indices], self.errs[indices]
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        radius = _stacked_radius(self.gens, self.errs)
        return self.centers - radius, self.centers + radius

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "ZonotopeBatch":
        return ZonotopeBatch(
            *_stacked_affine(self.centers, self.gens, self.errs, weight, bias)
        )

    def relu(self) -> "ZonotopeBatch":
        skips = [frozenset()] * self.batch_size
        return ZonotopeBatch(
            *_stacked_relu(self.centers, self.gens, self.errs, skips)
        )

    def maxpool(self, windows: np.ndarray) -> "ZonotopeBatch":
        return ZonotopeBatch(
            *_stacked_maxpool(self.centers, self.gens, self.errs, windows)
        )

    def pad(self, radii: np.ndarray) -> "ZonotopeBatch":
        return ZonotopeBatch(
            self.centers, self.gens, _stacked_pad_errs(self.errs, radii)
        )

    def min_margin(self, label: int) -> np.ndarray:
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        return _stacked_margins(self.centers, self.gens, self.errs, label)

    def __repr__(self) -> str:
        return (
            f"ZonotopeBatch(batch={self.batch_size}, size={self.size}, "
            f"gens={self.num_gens})"
        )


# ----------------------------------------------------------------------
# PowersetBatch
# ----------------------------------------------------------------------


class PowersetBatch(BatchedElement):
    """Bounded powersets of zonotopes for ``B`` regions at once.

    All disjuncts of all regions live in one ``(T, k, n)`` stack (the
    affine transformer's unconditional error promotion guarantees one
    shared generator shape, exactly as in :class:`PowersetElement`), with
    ``offsets`` marking each region's contiguous row span.  The ReLU
    case-split loop runs the same round-based global dim order as
    :func:`_stacked_relu`, with each *region* additionally applying its
    own sequential disjunct-budget bookkeeping — splits change row
    counts, so the stack is rebuilt per round from gather indices.
    """

    def __init__(
        self,
        centers: np.ndarray,
        gens: np.ndarray,
        errs: np.ndarray,
        offsets: np.ndarray,
        max_disjuncts: int,
    ) -> None:
        if max_disjuncts < 1:
            raise ValueError(f"max_disjuncts must be >= 1, got {max_disjuncts}")
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0:
            raise ValueError("offsets must be a (B+1,) prefix array from 0")
        if offsets[-1] != centers.shape[0]:
            raise ValueError(
                f"offsets cover {offsets[-1]} rows, arrays hold "
                f"{centers.shape[0]}"
            )
        counts = np.diff(offsets)
        if (counts < 1).any() or (counts > max_disjuncts).any():
            raise ValueError(
                f"per-region disjunct counts {counts} violate the budget "
                f"of {max_disjuncts}"
            )
        self.centers = _coerce_term(centers)
        self.gens = _coerce_term(gens, dtype=self.centers.dtype)
        self.errs = _coerce_term(errs, dtype=self.centers.dtype)
        self.offsets = offsets
        self.max_disjuncts = max_disjuncts

    @staticmethod
    def from_boxes(boxes: list[Box], max_disjuncts: int) -> "PowersetBatch":
        if not boxes:
            raise ValueError("need at least one box")
        n = boxes[0].ndim
        dtype = _active_backend().dtype
        centers, radii = _outward_center_radius(
            np.stack([b.center for b in boxes]),
            np.stack([b.radius for b in boxes]),
            dtype,
        )
        return PowersetBatch(
            centers,
            np.zeros((len(boxes), 0, n), dtype=dtype),
            radii,
            np.arange(len(boxes) + 1),
            max_disjuncts,
        )

    @property
    def batch_size(self) -> int:
        return self.offsets.size - 1

    @property
    def size(self) -> int:
        return self.centers.shape[1]

    @property
    def total_disjuncts(self) -> int:
        return self.centers.shape[0]

    def _region_rows(self, b: int) -> range:
        return range(int(self.offsets[b]), int(self.offsets[b + 1]))

    def row(self, i: int) -> PowersetElement:
        elements = [
            Zonotope._make(
                self.centers[r].copy(), self.gens[r].copy(), self.errs[r].copy()
            )
            for r in self._region_rows(i)
        ]
        return PowersetElement(elements, self.max_disjuncts)

    def rows(self, indices) -> "PowersetBatch":
        indices = np.asarray(indices, dtype=np.int64)
        gathered = np.concatenate(
            [np.arange(*self.offsets[i : i + 2]) for i in indices]
        )
        counts = (self.offsets[indices + 1] - self.offsets[indices])
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return PowersetBatch(
            self.centers[gathered],
            self.gens[gathered],
            self.errs[gathered],
            offsets,
            self.max_disjuncts,
        )

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-region union bounds, shape ``(B, n)`` each."""
        radius = _stacked_radius(self.gens, self.errs)
        low = np.minimum.reduceat(self.centers - radius, self.offsets[:-1])
        high = np.maximum.reduceat(self.centers + radius, self.offsets[:-1])
        return low, high

    def affine(self, weight: np.ndarray, bias: np.ndarray) -> "PowersetBatch":
        return PowersetBatch(
            *_stacked_affine(self.centers, self.gens, self.errs, weight, bias),
            self.offsets,
            self.max_disjuncts,
        )

    def maxpool(self, windows: np.ndarray) -> "PowersetBatch":
        return PowersetBatch(
            *_stacked_maxpool(self.centers, self.gens, self.errs, windows),
            self.offsets,
            self.max_disjuncts,
        )

    def pad(self, radii: np.ndarray) -> "PowersetBatch":
        return PowersetBatch(
            self.centers,
            self.gens,
            _stacked_pad_errs(self.errs, radii),
            self.offsets,
            self.max_disjuncts,
        )

    def min_margin(self, label: int) -> np.ndarray:
        if not 0 <= label < self.size:
            raise ValueError(f"label {label} out of range for size {self.size}")
        per_disjunct = _stacked_margins(
            self.centers, self.gens, self.errs, label
        )
        return np.minimum.reduceat(per_disjunct, self.offsets[:-1])

    def __repr__(self) -> str:
        return (
            f"PowersetBatch(batch={self.batch_size}, size={self.size}, "
            f"disjuncts={self.total_disjuncts}/{self.max_disjuncts} max)"
        )

    # ------------------------------------------------------------------
    # ReLU: budgeted case splits, then the batched final pass
    # ------------------------------------------------------------------

    def _ranked_dims(self, low: np.ndarray, high: np.ndarray) -> list[np.ndarray]:
        """Per-region union of crossing dims ordered by max width — the
        sequential ``PowersetElement._ranked_crossing_dims``, including its
        tie-breaking (dict insertion order under a stable sort)."""
        ranked = []
        for b in range(self.batch_size):
            width_by_dim: dict[int, float] = {}
            for r in self._region_rows(b):
                for dim in np.flatnonzero((low[r] < 0.0) & (high[r] > 0.0)):
                    width = float(high[r][dim] - low[r][dim])
                    dim = int(dim)
                    if width > width_by_dim.get(dim, 0.0):
                        width_by_dim[dim] = width
            ranked.append(
                np.asarray(
                    sorted(width_by_dim, key=lambda d: -width_by_dim[d]),
                    dtype=np.int64,
                )
            )
        return ranked

    def relu(self) -> "PowersetBatch":
        centers, gens, errs = self.centers, self.gens, self.errs
        radius = _stacked_radius(gens, errs)
        low = centers - radius
        high = centers + radius
        ranked = self._ranked_dims(low, high)
        budget = self.max_disjuncts

        # Per-region disjunct state: (row index, done dims, radius fresh).
        state: list[list[tuple[int, frozenset, bool]]] = [
            [(r, frozenset(), True) for r in self._region_rows(b)]
            for b in range(self.batch_size)
        ]

        for position in range(max((len(d) for d in ranked), default=0)):
            active = [
                b
                for b in range(self.batch_size)
                if position < len(ranked[b]) and len(state[b]) < budget
            ]
            if not active:
                continue
            # Batched dim bounds for every disjunct of every active region
            # (the sequential loop evaluates them before its budget check).
            pairs = [
                (b, i, row, int(ranked[b][position]), is_fresh)
                for b in active
                for i, (row, _, is_fresh) in enumerate(state[b])
            ]
            p_rows = np.array([p[2] for p in pairs])
            p_dims = np.array([p[3] for p in pairs])
            p_fresh = np.array([p[4] for p in pairs])
            rad = np.empty(len(pairs), dtype=centers.dtype)
            if p_fresh.any():
                rad[p_fresh] = radius[p_rows[p_fresh], p_dims[p_fresh]]
            stale = ~p_fresh
            if stale.any():
                cols = gens[p_rows[stale], :, p_dims[stale]]
                rad[stale] = (
                    np.abs(cols).sum(axis=1) + errs[p_rows[stale], p_dims[stale]]
                )
            c = centers[p_rows, p_dims]
            lows = c - rad
            highs = c + rad

            # Sequential budget bookkeeping per region; collect the splits.
            split_rows: list[int] = []
            split_dims: list[int] = []
            # Per region: the new disjunct list as ("old", state entry) or
            # ("pos"/"neg", split index, done set).
            plans: dict[int, list[tuple]] = {}
            cursor = 0
            for b in active:
                dim = int(ranked[b][position])
                current = state[b]
                plan: list[tuple] = []
                produced = 0  # entries already committed to the new list
                for i, (row, done, is_fresh) in enumerate(current):
                    lo = lows[cursor]
                    hi = highs[cursor]
                    cursor += 1
                    would_total = produced + (len(current) - i) + 1
                    if (
                        lo < 0.0 < hi
                        and dim not in done
                        and would_total <= budget
                    ):
                        split_index = len(split_rows)
                        split_rows.append(row)
                        split_dims.append(dim)
                        new_done = done | {dim}
                        plan.append(("pos", split_index, new_done))
                        plan.append(("neg", split_index, new_done))
                        produced += 2
                    else:
                        plan.append(("old", (row, done, is_fresh)))
                        produced += 1
                plans[b] = plan

            if not split_rows:
                continue
            pos_c, pos_g, pos_e, neg_c, neg_g, neg_e = _stacked_relu_split(
                centers, gens, errs, np.array(split_rows), np.array(split_dims)
            )
            # Rebuild the stack: regions keep their contiguous spans, rows
            # are gathered from (old stack | pos branches | neg branches).
            old_rows: list[int] = []
            sources: list[tuple[str, int]] = []  # per new row
            new_state: list[list[tuple[int, frozenset, bool]]] = []
            for b in range(self.batch_size):
                entries = plans.get(
                    b, [("old", s) for s in state[b]]
                )
                rebuilt = []
                for entry in entries:
                    new_row = len(sources)
                    if entry[0] == "old":
                        row, done, is_fresh = entry[1]
                        sources.append(("old", len(old_rows)))
                        old_rows.append(row)
                        rebuilt.append((new_row, done, is_fresh))
                    else:
                        kind, split_index, done = entry
                        sources.append((kind, split_index))
                        rebuilt.append((new_row, done, False))
                new_state.append(rebuilt)

            total = len(sources)
            n = centers.shape[1]
            k = gens.shape[1]
            dtype = centers.dtype
            new_centers = np.empty((total, n), dtype=dtype)
            new_gens = np.empty((total, k, n), dtype=dtype)
            new_errs = np.empty((total, n), dtype=dtype)
            new_radius = np.zeros((total, n), dtype=dtype)
            by_kind: dict[str, tuple[list[int], list[int]]] = {}
            for new_row, (kind, index) in enumerate(sources):
                dst, src = by_kind.setdefault(kind, ([], []))
                dst.append(new_row)
                src.append(index)
            kind_arrays = {
                "old": (centers, gens, errs),
                "pos": (pos_c, pos_g, pos_e),
                "neg": (neg_c, neg_g, neg_e),
            }
            for kind, (dst, src) in by_kind.items():
                src_c, src_g, src_e = kind_arrays[kind]
                if kind == "old":
                    src = [old_rows[i] for i in src]
                new_centers[dst] = src_c[src]
                new_gens[dst] = src_g[src]
                new_errs[dst] = src_e[src]
                if kind == "old":
                    new_radius[dst] = radius[src]
            centers, gens, errs, radius = (
                new_centers, new_gens, new_errs, new_radius,
            )
            state = new_state

        return self._final_relu(centers, gens, errs, state)

    def _final_relu(
        self,
        centers: np.ndarray,
        gens: np.ndarray,
        errs: np.ndarray,
        state: list[list[tuple[int, frozenset, bool]]],
    ) -> "PowersetBatch":
        """The residual base-domain ReLU pass, batched across *all*
        disjuncts of *all* regions.

        Mirrors ``PowersetElement._final_relu``: disjuncts whose
        un-skipped dims no longer cross reduce to the elementwise
        dead-dimension clamp; disjuncts with residual crossings go through
        :func:`_stacked_relu` — the formerly-serial split+join loop —
        together, in one round-based stacked pass.
        """
        total = centers.shape[0]
        flat_done: list[frozenset] = [frozenset()] * total
        for region in state:
            for row, done, _ in region:
                flat_done[row] = done
        radius = _stacked_radius(gens, errs)
        low = centers - radius
        high = centers + radius
        crossing = (low < 0.0) & (high > 0.0)
        for row, done in enumerate(flat_done):
            if done:
                crossing[row, list(done)] = False
        residual = crossing.any(axis=1)

        out_c = centers.copy()
        out_g = gens.copy()
        out_e = errs.copy()
        clamp = ~residual
        if clamp.any():
            dead = high[clamp] <= 0.0
            clamp_rows = np.flatnonzero(clamp)
            for local, row in enumerate(clamp_rows):
                if flat_done[row]:
                    dead[local, list(flat_done[row])] = False
            out_c[clamp_rows] = np.where(dead, 0.0, centers[clamp_rows])
            out_g[clamp_rows] = np.where(
                dead[:, None, :], 0.0, gens[clamp_rows]
            )
            out_e[clamp_rows] = np.where(dead, 0.0, errs[clamp_rows])
        if residual.any():
            res_rows = np.flatnonzero(residual)
            res_c, res_g, res_e = _stacked_relu(
                centers[res_rows],
                gens[res_rows],
                errs[res_rows],
                [flat_done[r] for r in res_rows],
                radius=radius[res_rows],
            )
            out_c[res_rows] = res_c
            out_g[res_rows] = res_g
            out_e[res_rows] = res_e

        counts = [len(region) for region in state]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return PowersetBatch(out_c, out_g, out_e, offsets, self.max_disjuncts)


def zonotope_margins_call(
    network,
    regions: list[Box],
    labels,
    disjuncts: int = 1,
    deadline=None,
) -> np.ndarray:
    """Module-level zonotope/powerset margin kernel (process-pool entry).

    Lifts the regions into :class:`ZonotopeBatch` (``disjuncts == 1``) or
    :class:`PowersetBatch`, propagates through the network, and returns
    the per-row margin lower bounds under each row's label.  Exactly the
    arithmetic of ``analyze_batch_multi`` with a zonotope-based domain —
    the lift, :func:`~repro.abstract.analyzer.propagate`, and
    :func:`~repro.abstract.analyzer.batch_margins` calls are the same
    functions — minus the per-row output views, which a process worker
    must not materialize (pickling a powerset's ``(T, k, n)`` output
    stack back to the parent would dwarf the kernel itself).  This is the
    hottest path the process pool exists for: the split+join contraction
    is Python-loop-heavy and serializes under threads.
    """
    from repro.abstract.analyzer import batch_margins, propagate

    if not regions:
        raise ValueError("zonotope_margins_call needs at least one region")
    if len(labels) != len(regions):
        raise ValueError(
            f"got {len(labels)} labels for {len(regions)} regions"
        )
    if disjuncts == 1:
        element = ZonotopeBatch.from_boxes(list(regions))
    else:
        element = PowersetBatch.from_boxes(list(regions), disjuncts)
    ops = network.ops_for(_active_backend().dtype)
    element = propagate(ops, element, deadline)
    return np.asarray(batch_margins(element, labels), dtype=np.float64)
