"""SGD training with two regimes.

simple: per-sentence windows, no mini-batching, hidden state reset between
sentences, no gradient clipping, one update per window.

gated: mini-batched stream windows with state carried across steps,
gradients averaged over the batch and clipped to a global norm.

The learning rate halves whenever the ratio of successive validation
perplexities (previous / current) falls below the halving ratio, i.e. the
epoch improved by less than the required margin; training stops after
`patience` consecutive such epochs. One plateau counter drives both.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from math import isfinite

import numpy as np

from .corpus import (
    CorpusTooSmallError,
    EncodedCorpus,
    EncodedSplit,
    SequenceChunk,
    chunk_sentences,
    chunk_stream,
)
from .linalg import Rng, clip_by_global_norm
from .models import (
    DivergenceError,
    InitScheme,
    ModelSpec,
    backward_chunk,
    forward_chunk,
    init_params,
    word_rows,
    zero_state,
)

REGIMES = ("simple", "gated")


@dataclass(frozen=True)
class TrainConfig:
    regime: str
    t_bptt: int
    batch: int
    lr0: float
    init: InitScheme
    seed: int
    halving_ratio: float = 1.003
    patience: int = 5
    p_drop: float = 0.5
    clip_norm: float | None = None
    max_epochs: int = 100

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        for name in ("lr0", "halving_ratio", "clip_norm"):
            value = getattr(self, name)
            if value is not None and not isfinite(value):
                raise ValueError(f"{name} must be finite; got {value}")
        if self.lr0 < 0:
            raise ValueError("lr0 must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be at least 1; got {self.max_epochs}")
        if self.halving_ratio <= 1.0:
            raise ValueError("halving_ratio must exceed 1")
        if self.t_bptt < 1 or self.batch < 1:
            raise ValueError("t_bptt and batch must be positive")
        if not 0.0 <= self.p_drop < 1.0:
            raise ValueError(f"p_drop must lie in [0, 1); got {self.p_drop}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive or none; got {self.clip_norm}")
        if self.regime == "simple" and self.batch != 1:
            raise ValueError("the simple regime trains one window at a time; batch must be 1")

    @classmethod
    def simple(cls, seed: int, **overrides) -> "TrainConfig":
        """The simple family's recipe: sentence windows, no batching or
        clipping, InitScheme's default gaussian draw. Fields not set here
        keep the class defaults."""
        kw = dict(regime="simple", t_bptt=20, batch=1, lr0=0.1, init=InitScheme("gaussian"))
        kw.update(overrides)
        return cls(seed=seed, **kw)

    @classmethod
    def gated(cls, seed: int, **overrides) -> "TrainConfig":
        """The gated families' stream recipe (Zaremba et al.): batched
        stream windows, InitScheme's default uniform draw, clipped updates."""
        kw = dict(regime="gated", t_bptt=35, batch=20, lr0=1.0, init=InitScheme("uniform"),
                  clip_norm=5.0)
        kw.update(overrides)
        return cls(seed=seed, **kw)


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_ppl: float
    valid_ppl: float | None = None
    seconds: float = 0.0


# sgd_apply updates each block in panels of about this many bytes of its
# gradient along the leading axis, so a panel's gather, scale and scatter
# stay in L2 instead of streaming a whole-block temporary through memory.
PANEL_BYTES = 256 << 10


def sgd_apply(params, grads, lr: float, rows=None) -> None:
    """In-place step p[idx] <- p[idx] - lr * g for every array.

    rows maps a block to the index its gradient is at (see models.word_rows):
    an int array of leading-axis rows or (slice(None), columns); a block
    without one is updated whole. Every gradient is checked before any
    parameter is written, so a non-finite block leaves all parameters
    unchanged and is named in the error. Each block is then scaled by lr in
    place and subtracted in panels of about PANEL_BYTES along its leading
    axis, p[idx[a:b]] -= g[a:b]; every element gets the bits of the whole
    block's step. The step consumes grads.
    """
    rows = rows or {}
    for name, g in grads.items():
        if not np.isfinite(np.sum(g)):
            raise DivergenceError(f"non-finite gradient in {name}", block=name)
    for name, g in grads.items():
        index = rows.get(name, slice(None))
        lead, *rest = index if isinstance(index, tuple) else (index,)
        step = max(1, PANEL_BYTES // g[:1].nbytes)
        for a in range(0, len(g), step):
            panel = g[a:a + step]
            np.multiply(panel, lr, out=panel)
            # a slice lead is the whole axis, so panel a is rows a:a+step
            at = slice(a, a + step) if isinstance(lead, slice) else lead[a:a + step]
            params[name][(at, *rest)] -= panel


def schedule_step(prev_valid_ppl, cur_valid_ppl, lr, plateau_count, cfg: TrainConfig):
    """Apply the halving rule after one epoch; returns (lr, plateau_count, stop).

    The improvement ratio is previous / current, so values above 1 mean the
    model got better; a ratio below cfg.halving_ratio halves the rate and
    advances the plateau counter, any larger improvement resets it. The
    first epoch (no previous value) never halves.
    """
    if cur_valid_ppl < 1.0:
        raise ValueError("perplexity below 1 is not possible")
    if prev_valid_ppl is None:
        return lr, 0, False
    if prev_valid_ppl / cur_valid_ppl < cfg.halving_ratio:
        plateau_count += 1
        return lr / 2.0, plateau_count, plateau_count >= cfg.patience
    return lr, 0, False


def train_chunks(split: EncodedSplit, cfg: TrainConfig):
    """The training windows of one epoch: sentence windows in the simple
    regime on a sentence split, batched stream windows otherwise. A stream
    too short for one window raises CorpusTooSmallError at the first."""
    if cfg.regime == "simple" and split.has_sentences:
        return chunk_sentences(split, cfg.t_bptt)
    return chunk_stream(split, cfg.t_bptt, cfg.batch)


def train_epoch(params, spec: ModelSpec, cfg: TrainConfig, split: EncodedSplit,
                lr: float, rng: Rng, epoch: int = 0) -> EpochMetrics:
    """One full pass over the training split; params are updated in place.

    Training perplexity is computed from the summed training loss, dropout
    included as incurred. In the gated regime gradients are averaged over
    the batch lanes before clipping so the clip threshold and learning rate
    keep their per-lane meaning. Each window's word-selected gradients come
    from backward_chunk already compact, at the rows its words touched
    (models.word_rows), so no dense slice or embedding block is formed and
    averaging, clipping and the update skip the rows that are exactly zero.
    One window is held at a time: its cache goes once backward_chunk has
    read it and its gradients once the update has used them.
    """
    t0 = time.perf_counter()
    total_loss = 0.0
    total_tokens = 0
    state = None
    try:
        for window, chunk in enumerate(train_chunks(split, cfg)):
            loss, count, cache, state = forward_chunk(
                params, spec, chunk, state, mode="train", rng=rng, p_drop=cfg.p_drop)
            rows = word_rows(spec, cache)
            grads, _ = backward_chunk(params, spec, cache, compact=True)
            del cache
            if cfg.batch > 1:
                for name in grads:  # by key, so no loop variable outlives the window
                    grads[name] /= cfg.batch
            if cfg.clip_norm is not None:
                clip_by_global_norm(grads.values(), cfg.clip_norm)
            sgd_apply(params, grads, lr, rows)
            del grads  # nothing of this window is held into the next one
            total_loss += loss
            total_tokens += count
    except DivergenceError as err:
        err.epoch = epoch
        err.window = window
        raise
    if total_tokens == 0:
        raise CorpusTooSmallError("training split has no predictable tokens")
    train_ppl = float(np.exp(total_loss / total_tokens))
    return EpochMetrics(epoch=epoch, lr=lr, train_ppl=train_ppl,
                        seconds=time.perf_counter() - t0)


@dataclass
class FitResult:
    params: dict
    history: list[EpochMetrics] = field(default_factory=list)
    best_epoch: int = -1
    best_valid_ppl: float = float("inf")


def fit(spec: ModelSpec, cfg: TrainConfig, corpus: EncodedCorpus,
        log=None) -> FitResult:
    """Train until the plateau rule stops or max_epochs is hit.

    Returns the parameters from the best-validation epoch. The halved
    learning rate takes effect from the next epoch onward. All randomness
    is derived from cfg.seed: stream 0 initializes weights, stream (1, e)
    drives epoch e's dropout.
    """
    from .evaluation import perplexity  # local import; evaluation drives fit for sweeps

    root = Rng(cfg.seed)
    params = init_params(spec, cfg.init, root.derive(0))
    result = FitResult(params=params)  # epoch 1 replaces these: its perplexity is finite or raises
    lr = cfg.lr0
    plateau = 0
    prev_valid = None
    for epoch in range(1, cfg.max_epochs + 1):
        metrics = train_epoch(params, spec, cfg, corpus.train, lr,
                              root.derive(1, epoch), epoch=epoch)
        try:
            metrics.valid_ppl = perplexity(params, spec, corpus.valid, t_bptt=cfg.t_bptt)
        except DivergenceError as err:
            err.epoch = epoch
            raise
        result.history.append(metrics)
        if log is not None:
            log(metrics)
        if metrics.valid_ppl < result.best_valid_ppl:
            result.best_valid_ppl = metrics.valid_ppl
            result.best_epoch = epoch
            result.params = copy.deepcopy(params)
        lr, plateau, stop = schedule_step(prev_valid, metrics.valid_ppl, lr, plateau, cfg)
        prev_valid = metrics.valid_ppl
        if stop:
            break
    return result


@dataclass
class GradCheckReport:
    spec: ModelSpec
    block_errors: dict[str, float]
    tolerance: float

    @property
    def max_error(self) -> float:
        return max(self.block_errors.values())

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def format(self) -> str:
        lines = [f"{self.spec.family} V={self.spec.v} H={self.spec.h} K={self.spec.k}"]
        for name, err in self.block_errors.items():
            mark = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"  {name:16s} max rel err {err:.3e}  [{mark}]")
        lines.append(f"  overall {self.max_error:.3e} (tolerance {self.tolerance:.1e})"
                     f" -> {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def grad_check(spec: ModelSpec, rng: Rng, t_steps: int = 5, eps: float = 1e-5,
               tol: float = 1e-4) -> GradCheckReport:
    """Compare analytic BPTT gradients against central finite differences.

    The chunk runs every path of training: two lanes whose first inputs are
    equal, so they share a slice; dropout 0.3, the same masks on each pass
    (a fresh rng.derive(2)); a carried U(-0.5, 0.5) incoming state and a
    reset before step max(1, t_steps // 2); and the objective
    loss + sum(g * state_out), whose random g is state_grad_in.
    Every scalar of every parameter block and of the incoming state (rows
    state_in[i]) is perturbed by +/- eps and the relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-3) is reported per
    block (the 1e-3 floor turns the test absolute for near-zero gradients,
    where finite differences lose meaning). Use small specs only.
    """
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), rng.derive(0))
    data_rng = rng.derive(1)
    ids, targets = ((data_rng.uniform01(2 * t_steps) * spec.v).astype(np.int64).reshape(2, -1)
                    for _ in range(2))
    ids[1, 0] = ids[0, 0]
    chunk = SequenceChunk(ids, targets, np.arange(t_steps) == max(1, t_steps // 2))
    state_in, g = (tuple(data_rng.uniform01(2 * spec.h).reshape(2, -1) - 0.5
                         for _ in zero_state(spec, 1)) for _ in range(2))

    def run():
        return forward_chunk(params, spec, chunk, state_in, mode="train", rng=rng.derive(2),
                             p_drop=0.3)

    def objective() -> float:
        loss, _, _, state_out = run()
        return loss + sum(float(np.sum(gi * si)) for gi, si in zip(g, state_out))

    analytic, dstate = backward_chunk(params, spec, run()[2], state_grad_in=g)
    states = {f"state_in[{i}]": s for i, s in enumerate(state_in)}
    analytic.update(zip(states, dstate))
    block_errors: dict[str, float] = {}
    for name, arr in {**params, **states}.items():
        worst = 0.0
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = objective()
            flat[idx] = orig - eps
            down = objective()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * eps)
            a = analytic[name].reshape(-1)[idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            worst = max(worst, err)
        block_errors[name] = worst
    return GradCheckReport(spec=spec, block_errors=block_errors, tolerance=tol)
