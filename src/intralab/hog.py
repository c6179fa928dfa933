"""Histogram-of-gradients mode estimation over predictor samples.

A 3x3 Sobel window slides at stride 1 over the interior of a sample
block.  Each non-zero gradient votes for the angular mode whose
prediction direction is perpendicular to the gradient, i.e. runs along
the local edge, quantized to the nearest entry of the displacement
table (ties to the lower mode index).  Votes count +1 by default; a
magnitude-weighted variant adds |g_hor| + |g_ver| instead.

The dominant mode replaces block-vector entries among the first two
fusion modes when a transform class has to be chosen for a block whose
prediction has no angular identity of its own.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .intra import MODE_PLANAR, mode_direction

N_MODES = 67


def _mode_line_angles() -> np.ndarray:
    """Prediction-line angle of each angular mode, folded into [0, pi)."""
    angles = np.empty(65, dtype=np.float64)
    for mode in range(2, 67):
        dx, dy = mode_direction(mode)
        angles[mode - 2] = np.mod(np.arctan2(dy, dx), np.pi)
    return angles


_MODE_ANGLES = _mode_line_angles()


def gradient_field(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sobel responses at every interior position, shape (h-2, w-2)."""
    s = np.asarray(samples, dtype=np.int64)
    if s.shape[0] < 3 or s.shape[1] < 3:
        return np.zeros((0, 0), np.int64), np.zeros((0, 0), np.int64)
    dx = s[:, 2:] - s[:, :-2]
    g_hor = dx[:-2] + 2 * dx[1:-1] + dx[2:]
    dy = s[2:] - s[:-2]
    g_ver = dy[:, :-2] + 2 * dy[:, 1:-1] + dy[:, 2:]
    return g_hor, g_ver


def _quantize(g_hor: np.ndarray, g_ver: np.ndarray) -> np.ndarray:
    """Nearest angular mode for each non-zero gradient (vectorized)."""
    # Edge direction is the gradient rotated a quarter turn.
    phi = np.mod(np.arctan2(g_hor, -g_ver), np.pi)
    diff = np.abs(phi[:, None] - _MODE_ANGLES[None, :])
    dist = np.minimum(diff, np.pi - diff)
    return np.argmin(dist, axis=1) + 2


def build_hog(samples: np.ndarray, magnitude_weighted: bool = False) -> np.ndarray:
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
    if magnitude_weighted:
        weights = np.abs(g_hor[nz]) + np.abs(g_ver[nz])
        np.add.at(hog, modes, weights)
    else:
        np.add.at(hog, modes, 1)
    return hog


def dominant_mode(hog: np.ndarray) -> int | None:
    """Most frequent mode, ties to the lower index; None for an empty histogram."""
    if not hog.any():
        return None
    return int(np.argmax(hog[2:])) + 2


def transform_mode_for_block(modes: Sequence, predictions: Sequence[np.ndarray]) -> list[int]:
    """Transform-driving modes: the first two fusion entries, with every
    BV entry replaced by the dominant HoG mode of its own predictor
    (Planar when the predictor has no gradients at all).

    modes are fusion entries exposing .kind and .mode; predictions are
    the matching prediction blocks.
    """
    out: list[int] = []
    for cand, pred in list(zip(modes, predictions))[:2]:
        if cand.kind == "bv":
            mode = dominant_mode(build_hog(pred))
            out.append(MODE_PLANAR if mode is None else mode)
        else:
            out.append(cand.mode)
    return out
