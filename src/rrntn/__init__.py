"""Word-level recurrent language models with per-word recurrence tensors.

The model family covers the plain recurrent net, the full per-word tensor
net, the restricted tensor net that dedicates recurrence matrices to the
most frequent words while the rest share one, the multiplicative
factorization, and GRU/LSTM cells whose candidate recurrence is sliced the
same way.
"""

from .corpus import (
    EncodedCorpus,
    EncodedSplit,
    SequenceChunk,
    Vocabulary,
    build_vocab,
    chunk_sentences,
    chunk_stream,
    encode,
)
from .evaluation import capacity_report, param_label, perplexity, run_k_sweep
from .linalg import Rng, clip_by_global_norm, dropout_mask, sample_gaussian, sample_uniform, \
    softmax
from .mapping import MappingPolicy, slice_histogram
from .models import (
    DivergenceError,
    InitScheme,
    ModelSpec,
    backward_chunk,
    forward_chunk,
    init_params,
    param_count,
    param_count_formula,
)
from .training import EpochMetrics, TrainConfig, fit, grad_check, schedule_step, sgd_apply

__version__ = "0.1.0"

__all__ = [
    "EncodedCorpus", "EncodedSplit", "SequenceChunk", "Vocabulary",
    "build_vocab", "chunk_sentences", "chunk_stream", "encode",
    "capacity_report", "param_label", "perplexity", "run_k_sweep",
    "Rng", "clip_by_global_norm", "dropout_mask",
    "sample_gaussian", "sample_uniform", "softmax",
    "MappingPolicy", "slice_histogram",
    "DivergenceError", "InitScheme", "ModelSpec", "backward_chunk",
    "forward_chunk", "init_params", "param_count", "param_count_formula",
    "EpochMetrics", "TrainConfig", "fit", "grad_check", "schedule_step", "sgd_apply",
]
