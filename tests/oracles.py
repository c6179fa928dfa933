"""Test-only reference helpers: scalar kernels and template reads.

None of these has a caller in the library; they pin the behavior that
the vectorized code paths must reproduce.  tile_satd_int64 and
satd_batch_int64 are the int64 stacked-matmul Hadamard kernel the
float32 GEMM in intralab.cost replaced, kept as its oracle.
build_reference_samples is the coordinate-array border gather that
intralab.intra's slice-based one replaced, and predict_samples and
predict_block the sample-at-a-time Planar, DC and angular formulas
that intralab.intra's shared tap tables must reproduce.  candidate_valid is the
one-candidate causality check, one rectangle at a time, that the
window-wide checks of the template search and the BV list must agree
with.  build_bv_list is the BV candidate list written from the
intralab.bvlist docstring, with a linear search of the coded blocks'
rectangles in place of the BvStore.  measure_block is the
per-block measurement the encoder ran on each block before
measure_blocks batched it, with the single-block HoG, transform and
compaction bodies of that time.
"""

from __future__ import annotations

import numpy as np

from intralab.cost import METRICS, sad, satd, satd_tiling
from intralab.grid import BlockRef, ReconBuffer
from intralab.hog import N_MODES, _quantize, gradient_field
from intralab.intra import MODE_DC, MODE_PLANAR, angle_of
from intralab.tmp import BlockVector, template_rects
from intralab.transforms import _KERNELS, TRANSFORM_SIZES, _diagonal_scan_indices, transform_class

SOBEL_HOR = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
SOBEL_VER = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def tile_satd_int64(diffs: np.ndarray, tile: int) -> np.ndarray:
    """Hadamard cost of (N, th, tw) diffs fully tiled by tile x tile."""
    n, th, tw = diffs.shape
    hmat = _hadamard(tile)
    t = diffs.reshape(n, th // tile, tile, tw // tile, tile)
    t = t.transpose(0, 1, 3, 2, 4).reshape(-1, tile, tile)
    coeffs = (hmat @ t) @ hmat.T
    sums = np.abs(coeffs).sum(axis=(1, 2))
    if tile == 4:
        per_tile = (sums + 1) >> 1
    else:
        per_tile = (sums + 2) >> 2
    return per_tile.reshape(n, -1).sum(axis=1)


def satd_batch_int64(diffs: np.ndarray) -> np.ndarray:
    """SATD of (N, h, w) diffs by the int64 kernel, with SAD remainders."""
    diffs = np.asarray(diffs, dtype=np.int64)
    n, h, w = diffs.shape
    tile, th, tw = satd_tiling(h, w)
    if not tile:
        return np.abs(diffs).sum(axis=(1, 2))
    total = tile_satd_int64(diffs[:, :th, :tw], tile)
    if th < h:
        total = total + np.abs(diffs[:, th:, :]).sum(axis=(1, 2))
    if tw < w:
        total = total + np.abs(diffs[:, :th, tw:]).sum(axis=(1, 2))
    return total


def block_cost(a: np.ndarray, b: np.ndarray, metric: str) -> int:
    """Dispatch on the configured template-loss metric."""
    if metric == "sad":
        return sad(a, b)
    if metric == "satd":
        return satd(a, b)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def extract_template(buf: ReconBuffer, block: BlockRef, t: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Committed samples of the block's own template strips."""
    above_rect, left_rect = template_rects(block, t, buf.width, buf.height)
    above = buf.read_region(*above_rect) if above_rect else None
    left = buf.read_region(*left_rect) if left_rect else None
    return above, left


def template_at_bv(buf: ReconBuffer, block: BlockRef, bv: BlockVector, t: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Template strips at the displaced position (raises when uncommitted)."""
    out = []
    for rect in template_rects(block, t, buf.width, buf.height):
        if rect is None:
            out.append(None)
            continue
        x, y, w, h = rect
        out.append(buf.read_region(x + bv.dx, y + bv.dy, w, h))
    return out[0], out[1]


def _shift(rect: tuple[int, int, int, int], bv: BlockVector) -> tuple[int, int, int, int]:
    x, y, w, h = rect
    return (x + bv.dx, y + bv.dy, w, h)


def candidate_valid(buf: ReconBuffer, block: BlockRef, bv: BlockVector, t: int, strict_template: bool = True) -> bool:
    """Causality check for one candidate; (0, 0) always fails."""
    if not buf.region_available(block.x0 + bv.dx, block.y0 + bv.dy, block.w, block.h):
        return False
    for rect in template_rects(block, t, buf.width, buf.height):
        if rect is None:
            continue
        x, y, w, h = _shift(rect, bv)
        if buf.region_available(x, y, w, h):
            continue
        if not strict_template and (x + w <= 0 or y + h <= 0 or x >= buf.width or y >= buf.height):
            continue
        return False
    return True


def build_bv_list(
    coded: list[tuple[BlockRef, tuple[BlockVector, ...]]],
    buf: ReconBuffer,
    block: BlockRef,
    t: int,
    n_max: int,
    use_ar: bool,
) -> list[tuple[BlockVector, str]]:
    """(BV, provenance value) of each list entry, given each coded block with its integer-pel BVs.

    The sampling points are left, above, above-right, below-left and
    above-left of the block, then the same five pushed out by k*w and
    k*h, k = 1, 2.  Each point contributes the BVs of the coded block
    that holds it.  Each primary v then adds v + s for each BV s of the
    coded block holding the pixel v displaces the block's top-left to,
    one level only.  A vector keeps its first position and tag, a
    candidate whose displaced template-extended block is not committed
    is dropped, and n_max applies last.
    """

    def bvs_at(x: int, y: int) -> tuple[BlockVector, ...]:
        for ref, bvs in coded:
            if ref.x0 <= x < ref.x0 + ref.w and ref.y0 <= y < ref.y0 + ref.h:
                return bvs
        return ()

    w, h = block.w, block.h
    points = []
    for k in (0, 1, 2):
        for px, py in [(-1, h - 1), (w - 1, -1), (w, -1), (-1, h), (-1, -1)]:
            px += -k * w if px < 0 else (k * w if px >= w else 0)
            py += -k * h if py < 0 else (k * h if py >= h else 0)
            points.append((block.x0 + px, block.y0 + py))
    primaries = [bv for x, y in points for bv in bvs_at(x, y)]
    tagged = [(bv, "primary") for bv in primaries]
    if use_ar:
        for v in primaries:
            for s in bvs_at(block.x0 + v.dx, block.y0 + v.dy):
                tagged.append((BlockVector(v.dx + s.dx, v.dy + s.dy), "auto-relocated"))
    ex, ey = max(block.x0 - t, 0), max(block.y0 - t, 0)
    ew, eh = block.x0 + w - ex, block.y0 + h - ey
    out, seen = [], set()
    for bv, tag in tagged:
        if bv in seen:
            continue
        seen.add(bv)
        if buf.region_available(ex + bv.dx, ey + bv.dy, ew, eh):
            out.append((bv, tag))
    return out[:n_max]


def sobel_window(window: np.ndarray) -> tuple[int, int]:
    """(g_hor, g_ver) of one 3x3 window."""
    window = np.asarray(window, dtype=np.int64)
    if window.shape != (3, 3):
        raise ValueError(f"expected a 3x3 window, got {window.shape}")
    return int((window * SOBEL_HOR).sum()), int((window * SOBEL_VER).sum())


def orientation_to_mode(g_hor: int, g_ver: int) -> int | None:
    """Angular mode perpendicular to one gradient; None for zero gradient."""
    if g_hor == 0 and g_ver == 0:
        return None
    return int(_quantize(np.array([g_hor], np.float64), np.array([g_ver], np.float64))[0])


def _forward_fill(values: np.ndarray, available: np.ndarray, default: int) -> np.ndarray:
    if not available.any():
        return np.full_like(values, default)
    pos = np.where(available, np.arange(len(values)), -1)
    np.maximum.accumulate(pos, out=pos)
    first = int(np.argmax(available))
    pos[pos < 0] = first
    return values[pos]


def _note_runs(buf: ReconBuffer, xs: np.ndarray, ys: np.ndarray, taken: np.ndarray) -> None:
    """Report each contiguous run of actually-read border samples."""
    if buf.read_hook is None or not taken.any():
        return
    idx = np.flatnonzero(taken)
    splits = np.flatnonzero(np.diff(idx) > 1) + 1
    for run in np.split(idx, splits):
        x0, y0 = int(xs[run[0]]), int(ys[run[0]])
        x1, y1 = int(xs[run[-1]]), int(ys[run[-1]])
        buf.note_read(x0, y0, x1 - x0 + 1, y1 - y0 + 1)


def build_reference_samples(buf: ReconBuffer, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Padded reference line above ‖ corner ‖ left of the block at (x0, y0), one coordinate array per edge."""
    default = 1 << (buf.bit_depth - 1)

    ax = np.arange(x0 - 1, x0 + 2 * w)
    above_avail = np.zeros(2 * w + 1, dtype=bool)
    above_vals = np.zeros(2 * w + 1, dtype=np.int64)
    if y0 - 1 >= 0:
        inside = (ax >= 0) & (ax < buf.width)
        cols = ax[inside]
        above_avail[inside] = buf.available[y0 - 1, cols]
        got = np.zeros(2 * w + 1, dtype=np.int64)
        got[inside] = buf.samples[y0 - 1, cols]
        above_vals = np.where(above_avail, got, 0)
        _note_runs(buf, ax, np.full_like(ax, y0 - 1), above_avail)

    ly = np.arange(y0, y0 + 2 * h)
    left_avail = np.zeros(2 * h, dtype=bool)
    left_vals = np.zeros(2 * h, dtype=np.int64)
    if x0 - 1 >= 0:
        inside = (ly >= 0) & (ly < buf.height)
        rows = ly[inside]
        left_avail[inside] = buf.available[rows, x0 - 1]
        got = np.zeros(2 * h, dtype=np.int64)
        got[inside] = buf.samples[rows, x0 - 1]
        left_vals = np.where(left_avail, got, 0)
        _note_runs(buf, np.full_like(ly, x0 - 1), ly, left_avail)

    # Pad along the border in one sweep: bottom of the left column up to
    # the corner, then across the above row.
    scan_vals = np.concatenate([left_vals[::-1], above_vals])
    scan_avail = np.concatenate([left_avail[::-1], above_avail])
    filled = _forward_fill(scan_vals, scan_avail, default)
    left_filled = filled[: 2 * h][::-1].copy()
    above_filled = filled[2 * h :]
    return np.concatenate([above_filled, above_filled[:1], left_filled])


def predict_samples(line: np.ndarray, mode: int, w: int, h: int, positions) -> np.ndarray:
    """Samples at (x, y) positions of mode's prediction of an (h, w) block, one at a time.

    line is above ‖ corner ‖ left: above holds the 2w + 1 samples from
    the top-left corner along the row above, left the 2h samples down
    the left column.
    """
    above = [int(v) for v in line[: 2 * w + 1]]
    left = [int(v) for v in line[2 * w + 2 :]]
    assert len(left) == 2 * h and line[2 * w + 1] == line[0]
    if mode == MODE_PLANAR:

        def sample(x, y):
            pv = (h - 1 - y) * above[1 + x] + (y + 1) * left[h]
            ph = (w - 1 - x) * left[y] + (x + 1) * above[1 + w]
            return (pv * w + ph * h + w * h) // (2 * w * h)

        return np.array([sample(x, y) for x, y in positions], dtype=np.int64)
    if mode == MODE_DC:
        dc = (sum(above[1 : w + 1]) + sum(left[:h]) + (w + h) // 2) // (w + h)
        return np.array([dc for _ in positions], dtype=np.int64)

    # Angular: project along the main reference (above for vertical-set
    # modes, corner ‖ left for horizontal-set ones), extended past the
    # corner from the side reference for negative angles.
    angle = angle_of(mode)
    if mode >= 34:
        main = lambda i: above[min(i, 2 * w)]
        side = lambda j: above[0] if j == 0 else left[min(j, 2 * h) - 1]
    else:
        main = lambda i: above[0] if i == 0 else left[min(i, 2 * h) - 1]
        side = lambda j: above[min(j, 2 * w)]
    inv = round(512 * 32 / abs(angle)) if angle < 0 else 0

    def ref(i):
        return main(i) if i >= 0 else side((-i * inv + 256) >> 9)

    def sample(x, y):
        s, b = (y + 1, x) if mode >= 34 else (x + 1, y)
        proj = s * angle
        i = b + (proj >> 5) + 1
        return ((32 - (proj & 31)) * ref(i) + (proj & 31) * ref(i + 1) + 16) >> 5

    return np.array([sample(x, y) for x, y in positions], dtype=np.int64)


def predict_block(line: np.ndarray, mode: int, w: int, h: int) -> np.ndarray:
    """Mode's prediction of a whole (h, w) block, one sample at a time."""
    return predict_samples(line, mode, w, h, [(x, y) for y in range(h) for x in range(w)]).reshape(h, w)


def build_hog(samples: np.ndarray) -> np.ndarray:
    """Vote histogram indexed by mode (entries 0 and 1 stay zero)."""
    hog = np.zeros(N_MODES, dtype=np.int64)
    g_hor, g_ver = gradient_field(samples)
    if g_hor.size == 0:
        return hog
    g_hor = g_hor.ravel()
    g_ver = g_ver.ravel()
    nz = (g_hor != 0) | (g_ver != 0)
    if not nz.any():
        return hog
    modes = _quantize(g_hor[nz].astype(np.float64), g_ver[nz].astype(np.float64))
    np.add.at(hog, modes, 1)
    return hog


def dominant_mode(hog: np.ndarray) -> int | None:
    """Most frequent mode, ties to the lower index; None for an empty histogram."""
    if not hog.any():
        return None
    return int(np.argmax(hog[2:])) + 2


def transform_mode_for_block(modes, predictions) -> list[int]:
    """The first two fusion entries, each BV entry replaced by its predictor's dominant HoG mode."""
    out: list[int] = []
    for cand, pred in list(zip(modes, predictions))[:2]:
        if cand.kind == "bv":
            mode = dominant_mode(build_hog(pred))
            out.append(MODE_PLANAR if mode is None else mode)
        else:
            out.append(cand.mode)
    return out


def apply_transform(residual: np.ndarray, klass) -> np.ndarray:
    """Forward separable transform of one residual block."""
    residual = np.asarray(residual, dtype=np.float64)
    h, w = residual.shape
    if h not in TRANSFORM_SIZES or w not in TRANSFORM_SIZES:
        raise ValueError(f"residual dims {h}x{w} not in {TRANSFORM_SIZES}")
    hor_name, ver_name = klass.value
    hmat = _KERNELS[hor_name](w)
    vmat = _KERNELS[ver_name](h)
    return vmat @ residual @ hmat.T


def energy_compaction(coeffs: np.ndarray, k: int) -> float:
    """Energy share of the k first coefficients in diagonal scan order; 1.0 for a zero block."""
    h, w = coeffs.shape
    if not 1 <= k <= h * w:
        raise ValueError(f"k={k} out of range 1..{h * w}")
    energy = np.asarray(coeffs, dtype=np.float64) ** 2
    total = float(energy.sum())
    if total == 0.0:
        return 1.0
    rows, cols = _diagonal_scan_indices(h, w)
    # Sequential Python sum in scan order, not a pairwise numpy sum.
    head = sum(energy[rows[:k], cols[:k]].tolist())
    return head / total


def _measure_transform(block: BlockRef, fusion, predictions, residual: np.ndarray):
    modes = tuple(transform_mode_for_block(fusion.modes, predictions))
    klass = transform_class(modes[0])
    compaction = None
    if block.h in TRANSFORM_SIZES and block.w in TRANSFORM_SIZES:
        coeffs = apply_transform(residual, klass)
        k = max(1, (block.h * block.w) // 4)
        compaction = energy_compaction(coeffs, k)
    return modes, klass.name, compaction


def measure_block(block: BlockRef, fusion, predictions, prediction: np.ndarray, orig: np.ndarray,
                  use_hog_transform: bool) -> dict:
    """The measured BlockResult fields of one coded block, by name.

    predictions are the per-mode predictions of the fusion entries and
    prediction the fused one; orig is the block's int64 source.
    """
    measured = dict(
        pred_sad=sad(prediction, orig),
        pred_satd=satd(prediction, orig),
        pred_sse=int(((prediction.astype(np.int64) - orig) ** 2).sum()),
        transform_modes=None,
        transform_class_name=None,
        compaction=None,
    )
    if use_hog_transform:
        residual = orig - prediction.astype(np.int64)
        measured["transform_modes"], measured["transform_class_name"], measured["compaction"] = (
            _measure_transform(block, fusion, predictions, residual)
        )
    return measured
