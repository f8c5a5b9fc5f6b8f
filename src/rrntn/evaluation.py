"""Perplexity measurement, K sweeps, and parameter-capacity reports."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import EncodedCorpus, EncodedSplit, SequenceChunk
from .models import (CELL_AXES, DivergenceError, ModelSpec, eval_rows, forward_chunk,
                     param_count, param_count_formula)
from .training import TrainConfig, fit


def perplexity(params, spec: ModelSpec, split: EncodedSplit, t_bptt: int = 20) -> float:
    """exp(mean negative log-likelihood per predicted token), dropout off.

    Sentence splits reset the hidden state at sentence starts; stream splits
    carry it throughout, as one sentence. Every token after the split's
    first is predicted exactly once, so the value does not depend on t_bptt.

    The input tokens run in corpus order as one lane, cut into near-equal
    runs of at most R = eval_rows(spec) tokens, each one eval-mode
    forward_chunk call that zeroes the state at the sentence starts inside
    it and carries it into the next run. The losses are summed as one B=1
    pass per window sums them: a window's tokens one add at a time, then
    the windows in corpus order. Two floats carry that sum across runs:
    `window` grows by each token's loss, and at each token whose offset from
    its sentence start is a multiple of t_bptt, a new window opens and
    `total` takes the last one in. Beyond one index per input token, no
    array grows with the split or a sentence.

    A non-finite loss raises DivergenceError whose timestep is the index in
    split.ids of the input token that predicted it, and word that token's id.
    """
    if t_bptt < 1:
        raise ValueError("t_bptt must be at least 1")
    ids = split.ids
    starts = split.boundaries if split.has_sentences else np.zeros(1, dtype=np.int64)
    # each token from the first sentence start on predicts the next; the split's last has none
    inputs = np.arange(starts[0], len(ids) - 1)
    if inputs.size == 0:
        raise ValueError("split has no predictable tokens")
    state = None
    total = window = 0.0
    for pos in np.array_split(inputs, -(-inputs.size // eval_rows(spec))):
        sentence = np.searchsorted(starts, pos, side="right") - 1
        offset = pos - starts[sentence]
        chunk = SequenceChunk(ids[pos][None], ids[pos + 1][None], offset == 0)
        try:
            _, _, nll, state = forward_chunk(params, spec, chunk, state, mode="eval")
        except DivergenceError as err:
            at = int(pos[err.timestep])
            raise DivergenceError("non-finite loss", timestep=at, word=int(ids[at])) from None
        for opens, loss in zip((offset % t_bptt == 0).tolist(), nll[:, 0].tolist()):
            if opens:
                total += window
                window = 0.0
            window += loss
    ppl = float(np.exp((total + window) / inputs.size))
    if not np.isfinite(ppl):
        raise DivergenceError("non-finite perplexity")
    return ppl


@dataclass
class SweepRow:
    policy: str
    k: int
    h: int
    params: int
    test_ppl: float | None
    valid_ppl: float | None
    seed: int
    error: str | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def to_csv(self) -> str:
        lines = ["policy,K,H,params,test_ppl,valid_ppl,seed"]
        for r in self.rows:
            test = "" if r.test_ppl is None else f"{r.test_ppl:.6f}"
            valid = "" if r.valid_ppl is None else f"{r.valid_ppl:.6f}"
            lines.append(f"{r.policy},{r.k},{r.h},{r.params},{test},{valid},{r.seed}")
        return "\n".join(lines) + "\n"


def sweep_specs(base_spec: ModelSpec, k_values, policies=("f", "fmod")) -> list[ModelSpec]:
    """Every sweep cell's ModelSpec, by policy then K. The K values (ints or
    their text) must strictly increase; a bad K or policy raises ValueError."""
    k_values = [int(k) for k in k_values]
    if not all(a < b for a, b in zip(k_values, k_values[1:])):
        raise ValueError("K values must be strictly increasing")
    return [replace(base_spec, k=k, policy=policy) for policy in policies for k in k_values]


def run_k_sweep(base_spec: ModelSpec, k_values, cfg: TrainConfig,
                corpus: EncodedCorpus, policies=("f", "fmod"), log=None) -> SweepResult:
    """Train one model per (policy, K) with a shared seed and collect test PPL.

    K = 1 doubles as the plain-RNN baseline and K = V as the full tensor
    net. Every cell's ModelSpec is built (sweep_specs) before the first one
    trains, so a bad policy or K fails at once. A diverging cell is
    recorded with an empty perplexity and the sweep continues.
    """
    rows: list[SweepRow] = []
    for spec in sweep_specs(base_spec, k_values, policies):
        row = SweepRow(policy=spec.policy, k=spec.k, h=spec.h,
                       params=param_count(spec), test_ppl=None,
                       valid_ppl=None, seed=cfg.seed)
        try:
            result = fit(spec, cfg, corpus)
            row.test_ppl = perplexity(result.params, spec, corpus.test, t_bptt=cfg.t_bptt)
            row.valid_ppl = result.best_valid_ppl
        except DivergenceError as err:
            row.error = f"diverged{err.location()}: {err}"
        rows.append(row)
        if log is not None:
            log(row)
    return SweepResult(rows=rows)


def param_label(count: int) -> str:
    """Round a parameter count the way capacity tables print it: one decimal
    of a million below 20M (trailing .0 dropped), whole millions above."""
    if count >= 20_000_000:
        return f"{(count + 500_000) // 1_000_000}M"
    tenths = (count + 50_000) // 100_000
    if tenths % 10 == 0:
        return f"{tenths // 10}M"
    return f"{tenths // 10}.{tenths % 10}M"


@dataclass
class CapacityRow:
    spec: ModelSpec
    count: int
    label: str
    formula: str


def capacity_report(specs) -> list[CapacityRow]:
    return [
        CapacityRow(spec=s, count=param_count(s), label=param_label(param_count(s)),
                    formula=param_count_formula(s))
        for s in specs
    ]


def format_capacity_table(rows: list[CapacityRow]) -> str:
    lines = []
    for r in rows:
        s = r.spec
        name = f"{s.family} V={s.v} H={s.h} K={s.k}"
        if "f" in CELL_AXES[s.family]:
            name += f" F={s.factor}"
        if "e" in CELL_AXES[s.family]:
            name += f" E={s.e}"
        lines.append(f"{name:40s} {r.count:>12,d}  {r.label:>7s}  {r.formula}")
    return "\n".join(lines)
