"""Workload definitions for the intralab benchmark.

Each workload is a closed loop over a fixed cycle of 256x256 luma frames:
one frame is loaded, encoded, replayed and reported before the next one
starts.  The frames are synthesized from the run's seed and written as a
4:2:0 ``.yuv`` file; the program under test only ever sees that file.

Seeds map onto ``VARIANTS`` input variants (``seed % VARIANTS``), and the
expected output of every frame of every variant is recorded in
``reference/<workload>.json``, so any seed is checked against a reference taken at
the commit that defined the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

SIZE = 256
VARIANTS = 8
CYCLE = 5  # frames per cycle; a run that outlasts a cycle starts it again


def _screen_planes(variant: int) -> list[np.ndarray]:
    from intralab import synth

    return [fixture(variant * 16 + k, SIZE) for k, fixture in enumerate(synth.SCREEN_FIXTURES.values())]


def _noise_planes(variant: int) -> list[np.ndarray]:
    from intralab import synth

    return [synth.noise_frame(SIZE, SIZE, variant * 16 + k, bit_depth=10) for k in range(CYCLE)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bit_depth: int
    planes: Callable[[int], list[np.ndarray]]
    # RunConfig fields; width, height, bit_depth and input_path are added per run.
    config: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="screen-etimd",
            why=(
                "E-TIMD with search range 64 on the five screen fixtures: template search and "
                "SATD take most of encode while replay never searches"
            ),
            bit_depth=8,
            planes=_screen_planes,
            config=dict(
                tool="etimd",
                block_size=16,
                metric="satd",
                search_range=64,
                use_bv_list=True,
                use_ar_bv=True,
                tmp_compete=True,
                closed_loop=False,
                use_hog_transform=False,
            ),
        ),
        Workload(
            name="natural-timd",
            why=(
                "TIMD on 10-bit noise: intra prediction and candidate evaluation dominate and no "
                "BV list or template search runs"
            ),
            bit_depth=10,
            planes=_noise_planes,
            config=dict(
                tool="timd",
                block_size=16,
                metric="satd",
                use_bv_list=False,
                use_ar_bv=False,
                tmp_compete=False,
                closed_loop=False,
                use_hog_transform=False,
            ),
        ),
        Workload(
            name="smallblock-closedloop",
            why=(
                "E-TIMD with 8x8 blocks, range 16, closed loop and HoG transforms: 1024 small "
                "searches per frame, so per-block and per-commit costs dominate"
            ),
            bit_depth=8,
            planes=_screen_planes,
            config=dict(
                tool="etimd",
                block_size=8,
                metric="satd",
                search_range=16,
                use_bv_list=True,
                use_ar_bv=True,
                tmp_compete=True,
                closed_loop=True,
                quant_step=8,
                use_hog_transform=True,
            ),
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS

