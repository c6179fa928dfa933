"""Luma intra-prediction laboratory.

Template-derived intra mode fusion (TIMD and its BV-enhanced variant),
intra template matching, spatial/auto-relocated block-vector lists,
gradient-histogram transform selection, and an A/B experiment harness,
all runnable on raw frames.
"""

from .bvlist import BvCandidate, BvStore, CodingRecord, build_bv_list
from .errors import (
    CausalityError,
    CommitOrderError,
    FormatError,
    IntralabError,
    ReplayMismatchError,
    TruncatedInputError,
    ValidationError,
)
from .etimd import (
    CandidatePool,
    FusionSet,
    ModeCandidate,
    compute_weights,
    evaluate_candidates,
    fuse,
    select_modes_etimd,
    select_modes_timd,
)
from .frames import Frame, load_frame, write_pgm, write_yuv420
from .grid import BlockRef, ReconBuffer, partition
from .harness import RunConfig, compare_runs, encode_frame, replay_frame, run_experiment
from .hog import build_hog, dominant_mode
from .intra import build_reference_samples, predict_mode
from .reporting import Report, read_report, write_report
from .tmp import BlockVector, tmp_search
from .transforms import TransformClass, apply_transform, energy_compaction, transform_class

__version__ = "0.1.0"

__all__ = [
    "BlockRef",
    "BlockVector",
    "BvCandidate",
    "BvStore",
    "CandidatePool",
    "CausalityError",
    "CodingRecord",
    "CommitOrderError",
    "FormatError",
    "Frame",
    "FusionSet",
    "IntralabError",
    "ModeCandidate",
    "ReconBuffer",
    "ReplayMismatchError",
    "Report",
    "RunConfig",
    "TransformClass",
    "TruncatedInputError",
    "ValidationError",
    "__version__",
    "apply_transform",
    "build_bv_list",
    "build_hog",
    "build_reference_samples",
    "compare_runs",
    "compute_weights",
    "dominant_mode",
    "encode_frame",
    "energy_compaction",
    "evaluate_candidates",
    "fuse",
    "load_frame",
    "partition",
    "predict_mode",
    "read_report",
    "replay_frame",
    "run_experiment",
    "select_modes_etimd",
    "select_modes_timd",
    "tmp_search",
    "transform_class",
    "write_pgm",
    "write_report",
    "write_yuv420",
]
