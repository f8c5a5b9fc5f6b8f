"""Bit-identity fingerprint of the model and trainer: one SHA-256 per config.

Run from a source checkout, against the package on PYTHONPATH:

    PYTHONPATH=src python tests/fingerprint.py

Two trees compute the same numbers, bit for bit, exactly when this script
prints the same digests for both (point PYTHONPATH at the other tree's src
to compare). Each config's digest covers, in order:

  - param_shapes, param_count and param_count_formula;
  - init_params under a gaussian and a uniform scheme;
  - train-mode forward without dropout and with p_drop 0.3 over two
    chunks at B=1 and B=20, the second carrying the first's state: loss,
    token count, outgoing state and probabilities;
  - word_rows of the last train chunk, hashed as the element numbers each
    index selects, so equal selections hash equally whatever index form
    they take;
  - backward_chunk of that chunk with an incoming state gradient: every
    gradient block and the outgoing state gradient;
  - the parameters and train_ppl after one train_epoch per regime, each
    over at least three windows with dropout on; the gated epoch's clip
    norm is small enough that some of its windows clip.

It calls only public functions that older trees have too, so it runs
unchanged against them. Not collected by pytest itself; test_fingerprint.py
runs main() and checks the output's form, not its digests, because
Gaussian draws are bit-stable only per platform.

A second digest per config covers the train-mode forward and backward
passes above again, with the output layer run in blocks of three rows
(R = 3), which cut the chunks' T*B rows partway through. A tree whose
train mode does not block prints the digest of the unblocked passes here,
so comparing with it shows whether blocking changes any bit.

A third digest per config covers perplexity alone, on a sentence split
with a single-token window and on a stream split, each scored at the
default eval block and again at three rows (R = 3), whose runs cut
sentences and windows partway through, so that a change to evaluation
shows apart from the training digests.
"""

import hashlib
from contextlib import contextmanager
from math import prod

import numpy as np

import rrntn.models
import rrntn.training
from rrntn.corpus import EncodedSplit, chunk_sentences, chunk_stream
from rrntn.evaluation import perplexity
from rrntn.linalg import Rng
from rrntn.models import (
    InitScheme,
    ModelSpec,
    backward_chunk,
    forward_chunk,
    init_params,
    param_count,
    param_count_formula,
    param_shapes,
    word_rows,
)
from rrntn.training import TrainConfig, train_epoch
from test_gradients import CONFIGS

SPECS = {**CONFIGS,
         "rrntn_fmod": ModelSpec("rrntn", v=16, h=6, k=4, policy="fmod"),
         "rrntn_identity": ModelSpec("rrntn", v=12, h=4, k=12, policy="identity")}
INIT = InitScheme.uniform(-0.5, 0.5)


def feed(h, *items) -> None:
    """Hash arrays by dtype, shape and bytes; floats by their exact repr."""
    for x in items:
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (tuple, list)):
            feed(h, *x)
        elif isinstance(x, dict):
            for key, value in x.items():
                feed(h, key, value)
        else:
            h.update(repr(x).encode())


def ids(rng: Rng, n: int, v: int) -> np.ndarray:
    return (rng.uniform01(n) * v).astype(np.int64)


def forward_pair(h, params, spec, batch, p_drop):
    """Two (batch, 6) train-mode chunks from chunk_stream, the second carrying
    the first's state. Without dropout these are the bits an eval-mode
    forward scores."""
    split = EncodedSplit(ids(Rng(batch), 13 * batch + 1, spec.v), np.zeros(0, dtype=np.int64))
    state = None
    for n, chunk in enumerate(chunk_stream(split, 6, batch)):
        loss, count, cache, state = forward_chunk(params, spec, chunk, state, mode="train",
                                                  rng=Rng(10 + n), p_drop=p_drop)
        feed(h, loss, count, state, cache.probs)
    return cache, state


def train_passes(h, params, spec):
    """forward_pair without and with dropout at B=1 and B=20, then the
    word_rows and backward_chunk of the last chunk."""
    for batch in (1, 20):
        forward_pair(h, params, spec, batch, 0.0)
        cache, state = forward_pair(h, params, spec, batch, 0.3)
        shapes = param_shapes(spec)
        feed(h, {name: np.arange(prod(shapes[name])).reshape(shapes[name])[index]
                 for name, index in word_rows(spec, cache).items()})
        dstate_in = tuple(Rng(20 + j).uniform01(s.size).reshape(s.shape) - 0.5
                          for j, s in enumerate(state))
        feed(h, backward_chunk(params, spec, cache, dstate_in))


@contextmanager
def three_row_blocks(spec):
    """Inside the block, the output layer forms at most three rows at once,
    and a helper thread, where there is one, takes part in every chunk."""
    block = rrntn.models.EVAL_BLOCK_BYTES
    madds = getattr(rrntn.models, "HELPER_MIN_MADDS", None)  # older trees lack it
    rrntn.models.EVAL_BLOCK_BYTES = 3 * 8 * spec.v
    rrntn.models.HELPER_MIN_MADDS = 1
    try:
        yield
    finally:
        rrntn.models.EVAL_BLOCK_BYTES = block
        if madds is None:
            del rrntn.models.HELPER_MIN_MADDS
        else:
            rrntn.models.HELPER_MIN_MADDS = madds


def epoch(h, spec, cfg, split, windows):
    assert sum(1 for _ in windows) >= 3
    params = init_params(spec, cfg.init, Rng(5))
    metrics = train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    feed(h, params, metrics.train_ppl)


def fingerprint(spec: ModelSpec) -> tuple[str, int]:
    """The config's digest and the number of gated windows that clipped."""
    h = hashlib.sha256()
    feed(h, param_shapes(spec), param_count(spec), param_count_formula(spec))
    feed(h, init_params(spec, InitScheme.gaussian(0.1), Rng(1)))
    params = init_params(spec, INIT, Rng(1))
    feed(h, params)
    train_passes(h, params, spec)

    sentences = EncodedSplit(ids(Rng(7), 30, spec.v), np.array([0, 7, 15, 22], dtype=np.int64))
    simple = TrainConfig.simple(seed=0, t_bptt=5, lr0=0.5, p_drop=0.3, init=INIT)
    epoch(h, spec, simple, sentences, chunk_sentences(sentences, simple.t_bptt))

    stream = EncodedSplit(ids(Rng(8), 51, spec.v), np.zeros(0, dtype=np.int64))
    gated = TrainConfig.gated(seed=0, t_bptt=4, batch=3, lr0=0.5, p_drop=0.3, clip_norm=1.2,
                              init=INIT)
    factors = []
    clip = rrntn.training.clip_by_global_norm

    def counting_clip(arrays, max_norm):
        out = clip(arrays, max_norm)
        factors.append(out[1])
        return out

    rrntn.training.clip_by_global_norm = counting_clip
    try:
        epoch(h, spec, gated, stream, chunk_stream(stream, gated.t_bptt, gated.batch))
    finally:
        rrntn.training.clip_by_global_norm = clip
    return h.hexdigest(), sum(f < 1.0 for f in factors)


def blocked_train_fingerprint(spec: ModelSpec) -> str:
    """The config's train passes with the output layer in three-row blocks."""
    h = hashlib.sha256()
    with three_row_blocks(spec):
        train_passes(h, init_params(spec, INIT, Rng(1)), spec)
    return h.hexdigest()


def perplexity_fingerprint(spec: ModelSpec) -> str:
    """The config's perplexity digest: a sentence split whose first sentence
    ends in a one-token window, and a stream split, at t_bptt 5; both at the
    default eval block, then at an eval block of three rows."""
    h = hashlib.sha256()
    params = init_params(spec, INIT, Rng(1))
    sentences = EncodedSplit(ids(Rng(9), 30, spec.v), np.array([0, 6, 13, 21], dtype=np.int64))
    stream = EncodedSplit(ids(Rng(10), 40, spec.v), np.zeros(0, dtype=np.int64))
    for split in (sentences, stream):
        feed(h, perplexity(params, spec, split, t_bptt=5))
    with three_row_blocks(spec):
        for split in (sentences, stream):
            feed(h, perplexity(params, spec, split, t_bptt=5))
    return h.hexdigest()


def main() -> None:
    overall = hashlib.sha256()
    for name, spec in SPECS.items():
        digest, clipped = fingerprint(spec)
        assert clipped > 0, f"{name}: no gated window clipped"
        overall.update(digest.encode())
        print(f"{name:16s} {digest}  (gated windows clipped: {clipped})")
    print(f"{'overall':16s} {overall.hexdigest()}")
    for label, digests in (("blocked train", blocked_train_fingerprint),
                           ("perplexity", perplexity_fingerprint)):
        overall = hashlib.sha256()
        for name, spec in SPECS.items():
            digest = digests(spec)
            overall.update(digest.encode())
            print(f"{name:16s} {digest}  ({label})")
        print(f"{'overall':16s} {overall.hexdigest()}  ({label})")


if __name__ == "__main__":
    main()
