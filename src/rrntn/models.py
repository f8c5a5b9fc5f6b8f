"""Recurrent language-model families with per-word recurrence tensors.

One unified cell covers the simple family: with K = 1 the tensor model is
exactly the plain recurrent net (one shared recurrence matrix), and with
K = V and the identity policy it is the full tensor net with one dedicated
matrix per word. The gated families (GRU, LSTM) slice only the candidate
state recurrence and its bias; every other gate keeps a single shared
matrix.

Conventions:
  - the embedding matrix is (E, V) and applying it to a one-hot input is a
    column lookup, never a dense product; a cell without input weights
    requires E = H because the lookup feeds the pre-activation directly
  - token ids equal rank - 1 (see corpus), so a word's tensor slice is the
    mapping policy applied to id + 1
  - the step consuming input w_t predicts w_{t+1}
  - states and activations are batched row-wise: (batch, H)

All arithmetic is float64. Gradients are computed by truncated
backpropagation through time over one chunk, exact with respect to the
chunk's summed loss.

Every family is one row of the cell table `_CELLS`: its step and backward
step, count formula, state arity and one entry per parameter block, naming
the block once with its axes and gradient term. The axes give its shape and
whether a word selects it (see `word_rows`). The letters a row's blocks name
(`CELL_AXES`) decide every family rule: e for input weights, k for slices,
f for a factor. `gradient_stage` forms every term once per chunk, and the
terms on the input rows name the weights `input_stage` applies before the
time loop. Every sliced recurrence goes through one primitive pair:
`_sliced_pre` adds U[s] x + b[s] with the slice s chosen per word,
`_sliced_backward` returns U[s]^T d. The words' slices are looked up once
per chunk, in forward_chunk, and kept on its cache for the steps,
gradient_stage and word_rows.
"""

from __future__ import annotations

import contextvars
import os
import re
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import isfinite, prod
from typing import Callable, NamedTuple

import numpy as np

from .corpus import SequenceChunk
from .linalg import Rng, dropout_mask, sample_gaussian, sample_uniform, softmax
from .mapping import MappingPolicy, slice_assignments


class DivergenceError(RuntimeError):
    """Raised when a loss or an update stops being finite."""

    def __init__(self, message: str, *, timestep: int | None = None, lane: int | None = None,
                 word: int | None = None, block: str | None = None,
                 epoch: int | None = None, window: int | None = None):
        super().__init__(message)
        self.timestep = timestep
        self.lane = lane
        self.word = word  # input id at (timestep, lane)
        self.block = block  # first non-finite gradient block
        self.epoch = epoch
        self.window = window

    def location(self) -> str:
        """Where it happened, as the text between "numerical divergence" and
        ": message" in rrntn's error line, e.g. " (epoch 2, window 7) at
        timestep 3, lane 1, word 12"; empty when nothing is known."""
        at = [f"{what} {n}" for what, n in (("epoch", self.epoch), ("window", self.window))
              if n is not None]
        where = f" ({', '.join(at)})" if at else ""
        if self.timestep is not None:
            where += f" at timestep {self.timestep}"
            if self.lane is not None:
                where += f", lane {self.lane}"
            if self.word is not None:
                where += f", word {self.word}"
        if self.block is not None:
            where += f" in block {self.block}"
        return where


@dataclass(frozen=True)
class ModelSpec:
    """Architecture family member plus its dimensions and mapping policy."""

    family: str
    v: int
    h: int
    e: int | None = None
    k: int = 1
    policy: str = "f"
    factor: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.e is None:
            object.__setattr__(self, "e", self.h)
        # Every dimension is at least 1, and one the cell's blocks do not
        # name keeps its neutral value: E = H, K = 1, no factor.
        neutral = {"e": self.h, "k": 1, "f": 0}
        for letter, n in _dims(self).items():
            if letter in CELL_AXES[self.family] or letter not in neutral:
                if n < 1:
                    raise ValueError(f"{letter.upper()} must be at least 1; got {n}")
            elif n != neutral[letter]:
                raise ValueError(f"{self.family} has no {_WITHOUT[letter]}; got {n}")
        self.mapping_policy().validate_for(self.v)

    def mapping_policy(self) -> MappingPolicy:
        return MappingPolicy(self.policy, self.k)


@dataclass(frozen=True)
class InitScheme:
    """How to draw initial weights; biases follow the same draw unless zeroed."""

    kind: str  # gaussian | uniform
    stddev: float = 0.001
    lo: float = -0.05
    hi: float = 0.05
    bias: str = "same"  # same | zero

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.bias not in ("same", "zero"):
            raise ValueError("bias mode must be 'same' or 'zero'")
        for name in ("stddev", "lo", "hi"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"init {name} must be finite; got {value}")
        if self.stddev < 0:
            raise ValueError(f"init stddev must be non-negative; got {self.stddev}")
        if self.lo > self.hi:
            raise ValueError(f"init bounds need lo <= hi; got lo={self.lo}, hi={self.hi}")

    @classmethod
    def gaussian(cls, stddev: float, bias: str = "same") -> "InitScheme":
        return cls(kind="gaussian", stddev=stddev, bias=bias)

    @classmethod
    def uniform(cls, lo: float, hi: float, bias: str = "same") -> "InitScheme":
        return cls(kind="uniform", lo=lo, hi=hi, bias=bias)


def _dims(spec: ModelSpec) -> dict[str, int]:
    """The dimension letters of block axes and count formulas (f = factor)."""
    return {"v": spec.v, "e": spec.e, "h": spec.h, "k": spec.k, "f": spec.factor}


_WITHOUT = {"e": "input weights, so E must equal H", "k": "recurrence slices, so K must be 1",
            "f": "factor, so F must be 0"}


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Trainable arrays in their canonical (checkpoint) order."""
    dims = _dims(spec)
    cell = {name: tuple(dims[a] for a in axes) for name, axes, _, _ in _CELLS[spec.family].blocks}
    return {"w_emb": (spec.e, spec.v), **cell, "w_out": (spec.v, spec.h), "b_out": (spec.v,)}


def param_count(spec: ModelSpec) -> int:
    """Exact number of trainable scalars, per-slice biases included."""
    return sum(prod(s) for s in param_shapes(spec).values())


def param_count_formula(spec: ModelSpec) -> str:
    """The closed form behind param_count, printed alongside every count."""
    return _CELLS[spec.family].formula.format(**_dims(spec))


def init_params(spec: ModelSpec, init: InitScheme, rng: Rng) -> dict[str, np.ndarray]:
    """Draw all parameter arrays in canonical order from one stream.

    Each block is allocated once and its draws are formed into it piece by
    piece (see linalg.PIECE), so init peaks at about the parameters' bytes.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        block = params[name] = np.empty(shape)
        flat = block.reshape(-1)
        if name.startswith("b_") and init.bias == "zero":
            flat.fill(0.0)
        elif init.kind == "gaussian":
            sample_gaussian(rng, 0.0, init.stddev, flat.size, out=flat)
        else:
            sample_uniform(rng, init.lo, init.hi, flat.size, out=flat)
    return params


def zero_state(spec: ModelSpec, batch: int) -> tuple[np.ndarray, ...]:
    return tuple(np.zeros((batch, spec.h)) for _ in range(_CELLS[spec.family].arity))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


@lru_cache(maxsize=32)
def _slice_table(spec: ModelSpec) -> np.ndarray:
    return slice_assignments(spec.v, spec.mapping_policy())


def _selected_by(axes: str) -> str | None:
    """How a word selects part of a block: a leading K axis by its slice row,
    a trailing V axis by its column; None if every word shares the block."""
    return "slice" if axes[0] == "k" else "word" if axes[-1] == "v" else None


def word_rows(spec: ModelSpec, cache: ForwardCache) -> dict[str, object]:
    """Index of the part of each word-selected block a window can move.

    A window gives nonzero gradients only to the columns of w_emb (and of
    the other blocks with a trailing V axis) at its unique input ids, and
    only to the rows of the blocks with a leading K axis at the slices of
    those ids, both in ascending order. gradient_stage forms these blocks
    at this index only; blocks not listed are dense.
    """
    index = {"word": (slice(None), np.unique(cache.inputs)), "slice": np.unique(cache.slices)}
    blocks = [("w_emb", "ev"), *(block[:2] for block in _CELLS[spec.family].blocks)]
    return {name: index[by] for name, axes in blocks if (by := _selected_by(axes))}


def _sliced_pre(u: np.ndarray, b: np.ndarray, s: np.ndarray, x: np.ndarray,
                pre: np.ndarray) -> np.ndarray:
    """pre + U[s] x + b[s], one dgemv per lane; lanes may select different slices.

    A batched matmul over the gathered slices gives the same bits but was
    slower than this loop at every benchmarked size.
    """
    rec = np.empty_like(x)
    for i in range(x.shape[0]):
        rec[i] = u[s[i]] @ x[i]
    return pre + rec + b[s]


def _sliced_backward(u: np.ndarray, s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """U[s]^T d lane by lane: the gradient of _sliced_pre with respect to x."""
    dx = np.empty_like(d)
    for i in range(d.shape[0]):
        dx[i] = u[s[i]].T @ d[i]
    return dx


def input_stage(params, spec: ModelSpec, inputs: np.ndarray, emb_masks=None):
    """The non-recurrent part of every step of a chunk, computed before the loop.

    inputs is (B, T). Returns (x_in, xw): x_in is the (T, B, E) block of
    embedding rows, multiplied by emb_masks (T, B, E) when given, and xw is
    (n, T, B, H), one x_in @ W.T block per input weight of the cell (its
    blocks on "x_in", in order), each computed as one (T*B, E) product. The
    helper thread takes every other product whole (see _split).
    """
    b, t_len = inputs.shape
    x_in = np.take(params["w_emb"], inputs.T.reshape(-1), axis=1).T
    if emb_masks is not None:
        x_in = x_in * emb_masks.reshape(t_len * b, spec.e)
    names = [name for name, _, _, key in _CELLS[spec.family].blocks if key == "x_in"]
    xw = np.empty((len(names), t_len * b, spec.h))
    work = [partial(np.matmul, x_in, params[name].T, out=xw[j]) for j, name in enumerate(names)]
    _split(_helper_for(spec, t_len * b), work[::2], work[1::2])
    return x_in.reshape(t_len, b, spec.e), xw.reshape(len(names), t_len, b, spec.h)


def rrntn_step(params, s, x_ids, state, x_in, xw):
    """One step of the tensor recurrence: logistic(emb + U[slice] h + b[slice]).

    K = 1 reduces to the plain recurrent cell; K = V with the identity policy
    is the full per-word tensor. s holds the slice of each lane's input word
    x_ids (the step's row of ForwardCache.slices), x_in the step's (B, E)
    embedding rows and xw its rows of the projected inputs (see input_stage;
    empty here).
    """
    (h_prev,) = state
    h = _sigmoid(_sliced_pre(params["u_slices"], params["b_slices"], s, h_prev, x_in))
    return (h,), {"s": s, "h_prev": h_prev, "h": h}


def mrnn_step(params, s, x_ids, state, x_in, xw):
    """One multiplicative step: the per-word recurrence is factored as
    U_left diag(v_word) U_right. xw is empty, as for rrntn_step."""
    (h_prev,) = state
    q = h_prev @ params["u_right"].T
    vx = params["v_factors"][:, x_ids].T
    r = vx * q
    h = _sigmoid(x_in + r @ params["u_left"].T + params["b_h"])
    return (h,), {"h_prev": h_prev, "q": q, "vx": vx, "r": r, "h": h}


def gru_step(params, s, x_ids, state, x_in, xw):
    """One gated step; only the candidate-state recurrence is sliced.

    x_in is the step's (masked) embedding rows and xw its projections
    (x_in W_reset^T, x_in W_update^T, x_in W_cand^T), from input_stage; the
    gated steps read only xw.
    """
    (h_prev,) = state
    x_reset, x_update, x_cand = xw
    r = _sigmoid(x_reset + h_prev @ params["u_reset"].T + params["b_reset"])
    z = _sigmoid(x_update + h_prev @ params["u_update"].T + params["b_update"])
    rh = r * h_prev
    hh = np.tanh(_sliced_pre(params["u_cand_slices"], params["b_cand_slices"], s, rh, x_cand))
    h = z * h_prev + (1.0 - z) * hh
    return (h,), {"s": s, "h_prev": h_prev, "r": r, "rh": rh, "z": z, "hh": hh, "h": h}


def lstm_step(params, s, x_ids, state, x_in, xw):
    """One LSTM step over state (h, c); only the candidate-cell recurrence is
    sliced. xw holds x_in times W_forget, W_input, W_outgate and W_cand
    (transposed), as for gru_step."""
    h_prev, c_prev = state
    x_forget, x_input, x_outgate, x_cand = xw
    f = _sigmoid(x_forget + h_prev @ params["u_forget"].T + params["b_forget"])
    i = _sigmoid(x_input + h_prev @ params["u_input"].T + params["b_input"])
    o = _sigmoid(x_outgate + h_prev @ params["u_outgate"].T + params["b_outgate"])
    cc = np.tanh(_sliced_pre(params["u_cand_slices"], params["b_cand_slices"], s, h_prev, x_cand))
    c = i * cc + f * c_prev
    h = o * np.tanh(c)
    return (h, c), {"s": s, "h_prev": h_prev, "c_prev": c_prev,
                    "f": f, "i": i, "o": o, "cc": cc, "c": c, "h": h}


# Both modes form the output layer in blocks of at most R rows of V float64
# logits, R * V * 8 <= this many bytes, so eval's peak does not grow with a
# window, a sentence or a split. At V = 10k, 16 MiB (R = 209) scored the simple
# benchmark's split faster than 4 or 8 MiB, and 32 MiB was no faster.
EVAL_BLOCK_BYTES = 16 << 20


def eval_rows(spec: ModelSpec) -> int:
    """R, the most output-layer rows a forward forms at once."""
    return max(1, EVAL_BLOCK_BYTES // (8 * spec.v))


# The helper thread takes part in a chunk whose output product, rows * H * V
# multiply-adds, reaches this many. At V = 10k, gated eval runs (200 rows,
# H = 254: 5.1e8) split between the threads raised the benchmark's gated
# eval_tok_s by 27% (10/10 alternating pairs), while simple's 209-row runs
# (H = 100: 2.1e8) split in two scored 0.83-0.95x in same-process passes.
HELPER_MIN_MADDS = 1 << 28


# The helper thread: one worker that runs part of a chunk's input products,
# output layer and gradients beside the caller (see _split), or None, when its
# share runs on the caller. Tests set it to a pool or None.
_helper: ThreadPoolExecutor | None = None


def _make_helper(env=os.environ) -> None:
    """Set _helper to a one-worker pool when BLAS runs one thread and the
    process may run on two or more CPUs, else None. The pool starts its
    thread on the first call handed to it.

    BLAS fixed its thread count when numpy loaded it, by OpenBLAS's rule:
    the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS
    that reads (as C's atoi) as a positive integer, else one per CPU. This
    applies the rule to env. Beside a BLAS that already uses every core, a
    helper would only take turns with it.
    """
    global _helper
    counts = (re.match(r"\s*\+?([0-9]+)", env.get(var, ""))
              for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    first = next((n for m in counts if m and (n := int(m[1])) > 0), None)
    _helper = ThreadPoolExecutor(1, thread_name_prefix="rrntn-helper") if first == 1 and \
        hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2 else None


_make_helper()
if hasattr(os, "register_at_fork"):
    # A forked child keeps BLAS as numpy loaded it, but not the helper thread.
    os.register_at_fork(after_in_child=partial(_make_helper, dict(os.environ)))


def _helper_for(spec: ModelSpec, rows: int) -> ThreadPoolExecutor | None:
    """The helper for a chunk of `rows` rows (T*B), or None. It takes part
    only where the chunk's output product reaches HELPER_MIN_MADDS: a gated
    window or evaluation run, but not a simple-regime window or evaluation
    run, which have too little work to hand over."""
    return _helper if rows * spec.h * spec.v >= HELPER_MIN_MADDS else None


def _split(pool: ThreadPoolExecutor | None, mine: list[Callable], theirs: list[Callable]) -> None:
    """Run the zero-argument calls `theirs` on pool and `mine` here, then join.

    Each of theirs is submitted, in a copy of the caller's context (numpy's
    error state included), before the first of mine starts; without a pool,
    theirs run here first. Every call runs except those of mine after one
    that raises. All of theirs are joined before an error leaves: one of
    mine first, else the first of theirs. The caller allocates every output
    a call writes and no call writes a parameter, so each is the same NumPy
    call on the same rows on either thread, and the helper moves no bit.

    No call in theirs may itself call _split: the pool's one worker would
    then wait on its own queue, and the caller on that worker, for ever.
    """
    futures, errors = [], []
    for fn in theirs:
        if pool is not None:
            futures.append(pool.submit(contextvars.copy_context().run, fn))
            continue
        try:
            fn()
        except Exception as exc:  # held back as the helper's would be
            errors.append(exc)
    try:
        for fn in mine:
            fn()
    finally:
        wait(futures)
    for future in futures:
        future.result()
    if errors:
        raise errors[0]


def output_layer(params, spec: ModelSpec, hd: np.ndarray, targets: np.ndarray,
                 probs: np.ndarray | None = None) -> np.ndarray:
    """(T, B) negative log-likelihoods of a chunk's (B, T) targets from its
    (T, B, H) output-layer inputs hd.

    Runs in near-equal blocks of at most R = eval_rows(spec) contiguous rows.
    Given a (T, B, V) probs, softmax normalises each block in place in its
    rows there, and each value is -log(p[target]). Otherwise the blocks
    share one scratch block, and each value is -log(e[target] / sum(e)) from
    the max-shifted exponentials e, without dividing the whole row.

    Where the helper thread takes part (see _helper_for), a chunk of four or
    more rows runs in at least two blocks, and the helper runs every other
    block (see _split), into a second scratch block when there is no probs.

    The blocks can move the last bits of a loss: BLAS may round a row of a
    product differently beside a different number of rows. At V = 10k
    (H = 100 with 209 rows, H = 254 with 200 rows) no R measured changed a
    bit. At small V*H some did: at V = 500, H = 32, one lane of 600 rows,
    R = 2 changed 63 losses and R = 3 to 64 none; at V = 300, H = 32 and 400
    rows, R = 2 and R = 3 each changed 35. A one-row block is a
    matrix-vector product, and for R >= 3 it comes only from a one-row chunk.
    """
    flat_hd, targets = hd.reshape(-1, spec.h), targets.T.reshape(-1)
    nll = np.empty(targets.size)
    pool = _helper_for(spec, nll.size)
    # the helper gets one of at least two blocks, none of them a single row
    count = max(-(-nll.size // eval_rows(spec)), 2 if pool and nll.size >= 4 else 1)
    blocks = np.array_split(np.arange(nll.size), count)
    scratch = probs is None
    logits = np.empty((blocks[0].size, spec.v)) if scratch else probs.reshape(-1, spec.v)
    helper_logits = np.empty_like(logits) if scratch and pool else logits
    run = partial(_output_blocks, params, flat_hd, targets, scratch=scratch, nll=nll)
    _split(pool, [partial(run, blocks[::2], logits)], [partial(run, blocks[1::2], helper_logits)])
    return nll.reshape(hd.shape[:2])


def _output_blocks(params, flat_hd, targets, blocks, logits, scratch: bool, nll) -> None:
    """output_layer's work on some of its blocks: writes their rows of nll and,
    unless logits is one block's scratch, of the (T*B, V) probabilities logits."""
    for block in blocks:
        rows = slice(block[0], block[-1] + 1)
        e = logits[:block.size] if scratch else logits[rows]
        np.matmul(flat_hd[rows], params["w_out"].T, out=e)
        e += params["b_out"]
        picked = np.arange(block.size), targets[rows]
        if not scratch:
            nll[rows] = -np.log(softmax(e, out=e)[picked])
            continue
        e -= np.max(e, axis=-1, keepdims=True)
        np.exp(e, out=e)
        nll[rows] = -np.log(e[picked] / np.sum(e, axis=-1))


def _chunk_loss(nll: np.ndarray, inputs: np.ndarray) -> float:
    """Sum of a (T, B) loss block: each step's lanes, then one add per step
    in time order. A non-finite entry raises DivergenceError at its first
    step, first lane, with that lane's input word."""
    # C order makes each row's sum the same pairwise sum as np.sum(nll[t])
    step_loss = np.ascontiguousarray(nll).sum(axis=1)
    finite = np.isfinite(step_loss)
    if not finite.all():
        t = int(np.argmin(finite))
        lane = int(np.flatnonzero(~np.isfinite(nll[t]))[0])
        raise DivergenceError("non-finite loss", timestep=t, lane=lane,
                              word=int(inputs[lane, t]))
    loss_sum = 0.0
    for loss in step_loss.tolist():
        loss_sum += loss
    return loss_sum


@dataclass
class ForwardCache:
    """Everything the backward pass needs from one chunk's forward pass."""

    inputs: np.ndarray
    targets: np.ndarray
    resets: np.ndarray  # (T,) steps before which the state was zeroed
    slices: np.ndarray  # (T, B) slice of each input word, looked up once per chunk
    steps: list[dict] = field(default_factory=list)
    x_in: np.ndarray | None = None  # (T, B, E) input-stage rows, emb_masks applied
    emb_masks: np.ndarray | None = None  # (T, B, E), or None without embedding dropout
    out_masks: np.ndarray | tuple = ()  # (T, B, H), or () without dropout
    hd: np.ndarray | None = None  # (T, B, H) output-layer input, out_masks applied
    probs: np.ndarray | None = None  # (T, B, V); backward_chunk takes it for its dlogits


def forward_chunk(params, spec: ModelSpec, chunk: SequenceChunk, state_in=None,
                  mode: str = "eval", rng: Rng | None = None, p_drop: float = 0.0):
    """Run one chunk and return (loss_sum, token_count, cache, state_out).

    loss_sum is the summed negative log-likelihood of the chunk's targets.
    The state starts at state_in, or zero when it is None, and in both
    modes is zeroed before each step that chunk.resets marks. In train mode
    with p_drop > 0, dropout masks are drawn from rng per timestep: every
    cell masks the hidden state entering the output layer, and one that
    reads the embedding through input weights (its blocks name E) masks the
    embedding output as well; recurrent connections are never masked. A
    non-finite step loss raises DivergenceError with the first such
    timestep, its first such lane and that lane's input word.

    Both modes run output_layer in blocks of at most eval_rows(spec) rows;
    train mode writes the probabilities in place into the cache. Eval mode
    draws no dropout, builds no cache and never forms the probabilities:
    the third value is the (T, B) loss of each step, with train mode's bits
    for the same row.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    training = mode == "train"
    b, t_len = chunk.inputs.shape
    if t_len == 0:
        raise ValueError("chunk is empty")
    dropping = training and p_drop > 0.0
    if dropping and rng is None:
        raise ValueError("train-mode dropout needs an rng")

    step = _CELLS[spec.family].step
    emb_masks, out_masks = None, ()
    if dropping:
        # Every mask of the chunk, drawn before the loop in the fixed order
        # (emb_0, out_0, emb_1, out_1, ...). The stream is counter-based, so
        # one draw per step for both masks gives the same bits as two.
        masks_emb = "e" in CELL_AXES[spec.family]
        e_width = b * spec.e if masks_emb else 0
        masks = np.empty((t_len, e_width + b * spec.h))
        for t in range(t_len):
            masks[t] = dropout_mask(rng, masks.shape[1], p_drop)
        out_masks = masks[:, e_width:].reshape(t_len, b, spec.h)
        if masks_emb:
            emb_masks = masks[:, :e_width].reshape(t_len, b, spec.e)
    # The input projections run once before the loop and the output layer
    # after it, each over all T*B rows; the loop runs the recurrence.
    x_in, xw = input_stage(params, spec, chunk.inputs, emb_masks)
    hd = np.empty((t_len, b, spec.h))
    slices = _slice_table(spec)[chunk.inputs.T]
    steps = []
    state = zero_state(spec, b) if state_in is None else state_in
    for t in range(t_len):
        if chunk.resets[t]:
            state = zero_state(spec, b)
        state, entry = step(params, slices[t], chunk.inputs[:, t], state, x_in[t], xw[:, t])
        hd[t] = state[0]
        if training:
            steps.append(entry)
    if dropping:
        hd *= out_masks
    probs = np.empty((t_len, b, spec.v)) if training else None
    nll = output_layer(params, spec, hd, chunk.targets, probs)
    loss_sum = _chunk_loss(nll, chunk.inputs)
    if not training:
        return loss_sum, b * t_len, nll, state
    cache = ForwardCache(inputs=chunk.inputs, targets=chunk.targets, resets=chunk.resets,
                         slices=slices, steps=steps, x_in=x_in, emb_masks=emb_masks,
                         out_masks=out_masks, hd=hd, probs=probs)
    return loss_sum, b * t_len, cache, state


def backward_chunk(params, spec: ModelSpec, cache: ForwardCache, state_grad_in=None,
                   compact: bool = False):
    """Exact gradients of the chunk's summed loss, truncated at the chunk start.

    state_grad_in is the gradient flowing into the chunk's final state from
    later computation, one (B, H) array per state array; pass None (zero)
    for truncated training. Returns (gradients, state_grad_out): one block
    per entry of param_shapes, in its order, and the gradient with respect
    to the forward's state_in. The state gradient stops at each step that
    cache.resets marks, so it is zero when step 0 resets. With compact each
    word-selected block is returned at its word_rows(spec, cache) index;
    by default every block is dense, the compact ones scattered into zeros.
    Takes cache.probs off the cache and turns it into the logit gradients
    in place, so one cache runs backward once; a second call raises
    ValueError. The reverse time loop carries only the recurrence;
    gradient_stage then forms the recurrence gradients.

    Once the targets are subtracted, the helper thread (see _split) forms
    b_out's gradient and then dh_out while the caller forms w_out's, and the
    logit gradients are freed before the reverse loop. The w_out product is
    the one call whose BLAS packing buffer is large (about 27 MB at V = 10k,
    T*B = 700), and starting it on the caller, before the helper reaches a
    BLAS call, keeps it in the buffer the caller's calls have already touched.
    """
    b, t_len = cache.inputs.shape
    backward = _CELLS[spec.family].backward

    # Output layer, vectorized across all timesteps.
    if cache.probs is None:
        raise ValueError("cache has no probabilities: backward_chunk already ran on it")
    flat_dl = cache.probs.reshape(t_len * b, spec.v)  # the logit gradients, in place
    cache.probs = None
    flat_dl[np.arange(t_len * b), cache.targets.T.reshape(-1)] -= 1.0
    grads = {"w_out": np.empty(params["w_out"].shape), "b_out": np.empty(params["b_out"].shape)}
    dh_out = np.empty((t_len, b, spec.h))
    _split(_helper_for(spec, t_len * b),
           [partial(np.matmul, flat_dl.T, cache.hd.reshape(t_len * b, spec.h), out=grads["w_out"])],
           [partial(np.sum, flat_dl, axis=0, out=grads["b_out"]),
            partial(np.matmul, flat_dl, params["w_out"], out=dh_out.reshape(t_len * b, spec.h))])
    del flat_dl  # the (T*B, V) logit gradients are done with
    if len(cache.out_masks):
        dh_out *= cache.out_masks

    dstate = zero_state(spec, b) if state_grad_in is None else tuple(state_grad_in)
    dpre = [None] * t_len
    for t in reversed(range(t_len)):
        dstate, dpre[t] = backward(params, cache.steps[t], (dh_out[t] + dstate[0], *dstate[1:]))
        if cache.resets[t]:
            dstate = zero_state(spec, b)
    grads.update(gradient_stage(params, spec, cache, [np.concatenate(d) for d in zip(*dpre)]))
    if not compact:
        for name, index in word_rows(spec, cache).items():
            dense = np.zeros(params[name].shape)
            dense[index] = grads[name]
            grads[name] = dense
    return {name: grads[name] for name in param_shapes(spec)}, dstate


def gradient_stage(params, spec: ModelSpec, cache: ForwardCache, dpre) -> dict[str, np.ndarray]:
    """Every recurrence gradient of a chunk, each formed once over its T*B rows.

    dpre holds the reverse loop's (T*B, .) pre-activation gradients, in the
    order the cell's backward step returns them. Rows run t-major, so every
    sum over rows is in (t, lane) order: one product or row sum per shared
    block and per touched slice (rows grouped by a stable sort), one scatter
    per word-selected block, and dx_in as one product per input weight.
    Word- and slice-selected blocks are compact, formed at their word_rows
    index only: a word block holds the columns of the unique input ids, a
    sliced block one row per touched slice, each in ascending order.

    The helper thread takes every other dx_in product and shared or sliced
    block (see _split); the caller runs the rest and then the word scatters.
    """
    cell = _CELLS[spec.family]
    n = cache.inputs.size
    # each row's column in the compact word blocks; np.unique sorts as word_rows does
    cols, col_of = np.unique(cache.inputs.T.reshape(-1), return_inverse=True)
    xs = {"x_in": cache.x_in.reshape(n, -1)}  # the (T*B, .) rows each term multiplies
    for key in {key for _, _, _, key in cell.blocks} - {None, "x_in"}:
        xs[key] = np.concatenate([entry[key] for entry in cache.steps])
    slices = cache.slices.reshape(-1)
    order = np.argsort(slices, kind="stable")
    starts = np.unique(slices[order], return_index=True)[1]
    by_slice = list(enumerate(np.split(order, starts[1:])))

    # Every product and row sum writes its own output: one dx_in product per
    # input weight, then one block per shared or sliced block (a shared block
    # is one group of all rows; a sliced one gets a row per touched slice).
    inputs = [(name, j) for name, _, j, key in cell.blocks if key == "x_in"]
    products = np.empty((len(inputs), n, spec.e))
    work = [partial(np.matmul, dpre[j], params[name], out=products[i])
            for i, (name, j) in enumerate(inputs)]
    grads = {}
    for name, axes, j, key in cell.blocks:
        by, shape = _selected_by(axes), params[name].shape
        if by != "word":
            grads[name] = np.empty((starts.size, *shape[1:]) if by == "slice" else shape)
            groups = by_slice if by == "slice" else [(..., slice(None))]
            work.append(partial(_group_gradients, grads[name], dpre[j], xs.get(key), groups))

    def scatter_words():
        for name, axes, j, key in cell.blocks:
            if _selected_by(axes) == "word":
                grads[name] = _scatter_columns(cols.size, col_of, dpre[j] * xs[key])

    _split(_helper_for(spec, n), [*work[::2], scatter_words], work[1::2])

    # a cell without input weights adds the embedding straight into pre-activation 0
    dx_in = products[0] if inputs else dpre[0]
    for product in products[1:]:
        dx_in += product
    if cache.emb_masks is not None:
        dx_in *= cache.emb_masks.reshape(n, -1)
    grads["w_emb"] = _scatter_columns(cols.size, col_of, dx_in)
    return grads


def _group_gradients(out: np.ndarray, d: np.ndarray, x: np.ndarray | None, groups) -> None:
    """out[s] = d[r]^T x[r], or the row sum of d[r] when x is None, for each
    (s, r) in groups."""
    for s, r in groups:
        if x is None:
            np.sum(d[r], axis=0, out=out[s])
        else:
            np.matmul(d[r].T, x[r], out=out[s])


def _scatter_columns(n: int, col_of: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(m, n) block whose column c sums rows[r] over col_of[r] = c in row order,
    as the transpose of an (n, m) row scatter, which is faster than columns."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, col_of, rows)
    return out.T


def _rrntn_backward(params, entry, dstate):
    (dh,) = dstate
    h = entry["h"]
    dz = dh * h * (1.0 - h)
    return (_sliced_backward(params["u_slices"], entry["s"], dz),), (dz,)


def _mrnn_backward(params, entry, dstate):
    (dh,) = dstate
    h = entry["h"]
    dz = dh * h * (1.0 - h)
    dr = dz @ params["u_left"]
    dq = dr * entry["vx"]
    return (dq @ params["u_right"],), (dz, dq, dr)


def _gru_backward(params, entry, dstate):
    (dh,) = dstate
    h_prev, r, z, hh = entry["h_prev"], entry["r"], entry["z"], entry["hh"]
    dz_gate = dh * (h_prev - hh) * z * (1.0 - z)
    dhh_pre = dh * (1.0 - z) * (1.0 - hh * hh)
    d_rh = _sliced_backward(params["u_cand_slices"], entry["s"], dhh_pre)
    dr_pre = d_rh * h_prev * r * (1.0 - r)
    dh_prev = dh * z + d_rh * r + (dr_pre @ params["u_reset"] + dz_gate @ params["u_update"])
    return (dh_prev,), (dr_pre, dz_gate, dhh_pre)


def _lstm_backward(params, entry, dstate):
    dh, dc_next = dstate
    c_prev, f, i, o, cc, c = (entry[key] for key in ("c_prev", "f", "i", "o", "cc", "c"))
    tanh_c = np.tanh(c)
    dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
    do_pre = dh * tanh_c * o * (1.0 - o)
    df_pre = dc * c_prev * f * (1.0 - f)
    di_pre = dc * cc * i * (1.0 - i)
    dcc_pre = dc * i * (1.0 - cc * cc)
    dh_prev = _sliced_backward(params["u_cand_slices"], entry["s"], dcc_pre)
    for name, dpre in (("forget", df_pre), ("input", di_pre), ("outgate", do_pre)):
        dh_prev += dpre @ params[f"u_{name}"]
    return (dh_prev, dc * f), (df_pre, di_pre, do_pre, dcc_pre)


class _Cell(NamedTuple):
    """One family: step(params, s, ids, state, x_in, xw) -> (state, entry),
    backward(params, entry, dstate) -> (dstate, dpre), the blocks it adds
    between w_emb and w_out in checkpoint order, its count formula and the
    number of (B, H) arrays in its state. A block (name, axes, j, X) has one
    _dims letter per axis and the gradient dpre[j]^T X over all rows, X being
    the input rows "x_in" (these blocks are the input weights, in the order
    the step unpacks xw), a step entry's rows, or None for the row sum."""

    step: Callable
    backward: Callable
    blocks: tuple[tuple[str, str, int, str | None], ...]
    formula: str
    arity: int


def _gated(gates: tuple[str, ...], cand_in: str):
    """Blocks of a gated cell: each shared gate's W by the input rows, U by
    the previous state and b by a row sum, then the candidate, whose sliced
    U multiplies cand_in."""
    c = len(gates)
    return (*((f"{kind}_{gate}", axes, j, x) for j, gate in enumerate(gates)
              for kind, axes, x in (("w", "he", "x_in"), ("u", "hh", "h_prev"), ("b", "h", None))),
            ("w_cand", "he", c, "x_in"), ("u_cand_slices", "khh", c, cand_in),
            ("b_cand_slices", "kh", c, None))


_CELLS = {
    "rrntn": _Cell(rrntn_step, _rrntn_backward,
                   (("u_slices", "khh", 0, "h_prev"), ("b_slices", "kh", 0, None)),
                   "2*V*H + K*H^2 + K*H + V  (V={v}, H={h}, K={k})", 1),
    "mrnn": _Cell(mrnn_step, _mrnn_backward,
                  (("u_left", "hf", 0, "r"), ("u_right", "fh", 1, "h_prev"),
                   ("v_factors", "fv", 2, "q"), ("b_h", "h", 0, None)),
                  "2*V*H + F*V + 2*H*F + H + V  (V={v}, H={h}, F={f})", 1),
    "gru": _Cell(gru_step, _gru_backward, _gated(("reset", "update"), "rh"),
                 "E*V + 3*H*E + 2*(H^2 + H) + K*(H^2 + H) + V*H + V"
                 "  (V={v}, E={e}, H={h}, K={k})", 1),
    "lstm": _Cell(lstm_step, _lstm_backward, _gated(("forget", "input", "outgate"), "h_prev"),
                  "E*V + 4*H*E + 3*(H^2 + H) + K*(H^2 + H) + V*H + V"
                  "  (V={v}, E={e}, H={h}, K={k})", 2),
}
FAMILIES = tuple(_CELLS)
# The dimension letters each cell's blocks name, the one source of every
# family rule: e means input weights read the embedding, k recurrence
# slices, f a factor.
CELL_AXES = {family: frozenset("".join(b[1] for b in cell.blocks))
             for family, cell in _CELLS.items()}
