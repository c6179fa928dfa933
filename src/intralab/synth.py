"""Synthetic test content: noise, tiled glyphs, and screen-content pages.

The screen-content fixtures imitate the material template-matching
tools are built for: text lines, terminal output, tiled UI chrome and
icon grids.  Each one is densely textured and repeats with a short
spatial period, so a causal search can find exact matches while pure
angular prediction cannot.  Each is size x size for any size >= 1: its
motif, made of whole 8-sample glyph cells, is tiled past the frame edge
and cropped.
"""

from __future__ import annotations

import numpy as np


def noise_frame(width: int, height: int, seed: int, bit_depth: int = 8) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << bit_depth, size=(height, width), dtype=np.uint16)


def _tile(motif: np.ndarray, height: int, width: int) -> np.ndarray:
    """motif repeated over a height x width frame, cropped at the right and bottom edges."""
    reps = (-(-height // motif.shape[0]), -(-width // motif.shape[1]))
    return np.tile(motif, reps)[:height, :width].copy()


def tiled_glyph_frame(
    width: int, height: int, period: int, seed: int, bit_depth: int = 8
) -> np.ndarray:
    """A random period x period glyph repeated over the whole frame."""
    rng = np.random.default_rng(seed)
    glyph = rng.integers(0, 1 << bit_depth, size=(period, period), dtype=np.uint16)
    return _tile(glyph, height, width)


def _glyph(rng: np.random.Generator, h: int, w: int, fg: int, bg: int) -> np.ndarray:
    """A blocky random glyph with a guaranteed mix of ink and paper."""
    mask = rng.random((h, w)) < 0.45
    mask[0, 0] = True
    mask[-1, -1] = False
    return np.where(mask, fg, bg).astype(np.uint16)


def text_columns(seed: int, size: int = 256) -> np.ndarray:
    """Text-like rows of glyph cells, repeating horizontally every 16 px."""
    rng = np.random.default_rng(seed)
    strip = np.full((-(-size // 8) * 8, 16), 235, dtype=np.uint16)
    for y in range(0, len(strip), 8):
        for x in (0, 8):
            strip[y : y + 8, x : x + 8] = _glyph(rng, 8, 8, 20, 235)
    return _tile(strip, size, size)


def terminal_rows(seed: int, size: int = 256) -> np.ndarray:
    """Prompt-like glyph bands repeating vertically every 16 px."""
    rng = np.random.default_rng(seed)
    band = np.full((16, -(-size // 8) * 8), 16, dtype=np.uint16)
    for x in range(0, band.shape[1], 8):
        band[0:8, x : x + 8] = _glyph(rng, 8, 8, 200, 16)
        band[8:16, x : x + 8] = _glyph(rng, 8, 8, 120, 16)
    return _tile(band, size, size)


def ui_tiles(seed: int, size: int = 256) -> np.ndarray:
    """A 32x32 widget motif (border, gradient, icon noise) tiled both ways."""
    rng = np.random.default_rng(seed)
    motif = np.zeros((32, 32), dtype=np.uint16)
    gradient = np.linspace(90, 170, 32).astype(np.uint16)
    motif[:] = gradient[None, :]
    motif[0, :] = motif[-1, :] = 250
    motif[:, 0] = motif[:, -1] = 250
    motif[8:24, 8:24] = _glyph(rng, 16, 16, 40, 210)
    return _tile(motif, size, size)


def icon_checker(seed: int, size: int = 256) -> np.ndarray:
    """An icon and its inverse alternating on a 32 px supertile."""
    rng = np.random.default_rng(seed)
    icon = _glyph(rng, 16, 16, 30, 220)
    inverse = (255 - icon).astype(np.uint16)
    supertile = np.block([[icon, inverse], [inverse, icon]])
    return _tile(supertile, size, size)


def mixed_page(seed: int, size: int = 256) -> np.ndarray:
    """Horizontally periodic text above, vertically periodic bands below."""
    top = text_columns(seed, size)[: size // 2]
    bottom = terminal_rows(seed + 1, size)[: size - size // 2]
    return np.vstack([top, bottom])


SCREEN_FIXTURES = {
    "text-columns": text_columns,
    "terminal-rows": terminal_rows,
    "ui-tiles": ui_tiles,
    "icon-checker": icon_checker,
    "mixed-page": mixed_page,
}
