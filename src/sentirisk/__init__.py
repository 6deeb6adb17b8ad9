"""sentirisk: market-sentiment sequence learning with risk alerting.

A self-contained CNN + GRU implementation (manual backpropagation on batched
float64 numpy arrays) that ingests market bars and raw text, labels sentiment
with a lexicon, trains a joint regression/classification model over 20-day
windows, compares ablations, and emits risk alerts on sentiment inflections.
"""

import os
import sys

# BLAS sums a product's terms in an order that depends on its thread count,
# so seeded runs write the same bytes on any machine only at a fixed count.
# Pin it to one thread before numpy loads, unless the user chose a count or
# numpy is loaded already (its thread pool is then set).
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(var in os.environ for var in BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

from .errors import (
    CheckpointError,
    DataValidationError,
    NumericError,
    ShapeError,
    TrainingDivergedError,
)
from .model import ArchKind, CnnGruModel, ModelConfig, build_model, load_checkpoint, save_checkpoint
# NB: the train() entry point is deliberately not re-exported here; a bare
# `train` attribute would shadow the sentirisk.train submodule.
from .train import MetricsReport, TrainConfig, compare_ablations, evaluate

__version__ = "0.1.0"

__all__ = [
    "ArchKind",
    "CheckpointError",
    "CnnGruModel",
    "DataValidationError",
    "MetricsReport",
    "ModelConfig",
    "NumericError",
    "ShapeError",
    "TrainConfig",
    "TrainingDivergedError",
    "build_model",
    "compare_ablations",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "__version__",
]
