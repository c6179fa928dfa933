"""Histogram-of-gradients mode estimation over predictor samples.

A 3x3 Sobel window slides at stride 1 over the interior of a sample
block.  Each non-zero gradient votes for the angular mode whose
prediction direction is perpendicular to the gradient, i.e. runs along
the local edge, quantized to the nearest entry of the displacement
table (ties to the lower mode index).  Each vote counts +1.

The dominant mode replaces block-vector entries among the first two
fusion modes when a transform class has to be chosen for a block whose
prediction has no angular identity of its own; etimd.measure_blocks
picks those entries and hands their predictors over.

build_hog and dominant_mode take one block (histogram) or a stack with
any leading shape, and return results in that leading shape: one Sobel
pass over the stack, each non-zero gradient quantized by a lookup in the
sorted mode-line angles, and one bincount for all histograms.
transform_mode_for_block maps an (n, h, w) stack of predictors to one
mode each with one such pass.
"""

from __future__ import annotations

import numpy as np

from .intra import MODE_PLANAR, mode_direction

N_MODES = 67


def _mode_line_angles() -> tuple[np.ndarray, np.ndarray]:
    """Distinct prediction-line angles of the angular modes, folded into [0, pi)
    and sorted, and the lowest mode on each (modes 2 and 66 share one)."""
    angles = np.empty(65, dtype=np.float64)
    for mode in range(2, 67):
        dx, dy = mode_direction(mode)
        angles[mode - 2] = np.mod(np.arctan2(dy, dx), np.pi)
    distinct, first = np.unique(angles, return_index=True)
    return distinct, first + 2


_ANGLES, _ANGLE_MODES = _mode_line_angles()


def gradient_field(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel responses at every interior position of the last two axes, shape (..., h-2, w-2)."""
    s = np.asarray(samples, dtype=np.int64)
    if s.shape[-2] < 3 or s.shape[-1] < 3:
        empty = np.zeros(s.shape[:-2] + (0, 0), np.int64)
        return empty, empty
    dx = s[..., 2:] - s[..., :-2]
    g_hor = dx[..., :-2, :] + 2 * dx[..., 1:-1, :] + dx[..., 2:, :]
    dy = s[..., 2:, :] - s[..., :-2, :]
    g_ver = dy[..., :-2] + 2 * dy[..., 1:-1] + dy[..., 2:]
    return g_hor, g_ver


def _quantize(g_hor: np.ndarray, g_ver: np.ndarray) -> np.ndarray:
    """Nearest angular mode for each non-zero gradient, ties to the lower mode.

    The nearest angle on the half-turn circle is a sorted-table neighbour
    of the edge direction, or a table end that the wrap at pi brings close.
    """
    # Edge direction is the gradient rotated a quarter turn.
    phi = np.mod(np.arctan2(g_hor, -g_ver), np.pi)
    above = np.searchsorted(_ANGLES, phi)
    near = np.stack(np.broadcast_arrays(above - 1, above % len(_ANGLES), 0, -1), axis=-1)
    diff = np.abs(phi[:, None] - _ANGLES[near])
    dist = np.minimum(diff, np.pi - diff)
    return np.where(dist == dist.min(axis=1, keepdims=True), _ANGLE_MODES[near], N_MODES).min(axis=1)


def build_hog(samples: np.ndarray) -> np.ndarray:
    """Vote histogram (last axis: N_MODES) of an (h, w) block, or of each block of a (..., h, w) stack.

    Entries 0 and 1 stay zero.  Every non-zero (g_hor, g_ver) pair of the
    stack is quantized, and all votes land with one bincount.
    """
    samples = np.asarray(samples)
    lead = samples.shape[:-2]
    n = int(np.prod(lead))
    g_hor, g_ver = gradient_field(samples)
    size = g_hor.shape[-2] * g_hor.shape[-1]
    g_hor, g_ver = g_hor.reshape(n, size), g_ver.reshape(n, size)
    rows, cols = np.nonzero((g_hor != 0) | (g_ver != 0))
    modes = _quantize(g_hor[rows, cols], g_ver[rows, cols])
    votes = np.bincount(rows * N_MODES + modes, minlength=n * N_MODES)
    return votes.astype(np.int64, copy=False).reshape(lead + (N_MODES,))


def dominant_mode(hog: np.ndarray) -> np.ndarray:
    """Most frequent mode of a histogram, or of each along the last axis; ties to the lower index, -1 when empty."""
    hog = np.asarray(hog)
    return np.where(hog.any(axis=-1), np.argmax(hog[..., 2:], axis=-1) + 2, -1)[()]


def transform_mode_for_block(predictors: np.ndarray) -> list[int]:
    """Dominant HoG mode of each predictor of an (n, h, w) stack, or Planar where a predictor has no gradient."""
    modes = dominant_mode(build_hog(predictors))
    return np.where(modes < 0, MODE_PLANAR, modes).tolist()
