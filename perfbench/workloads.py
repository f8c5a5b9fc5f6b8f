"""Benchmark workloads and their seeded input generator.

Inputs come from numpy's own generator, never from the package's Rng, so a
change to the package cannot change what the benchmark feeds it. Word ranks
are drawn from a Zipf(1) unigram law over 3V word types; the vocabulary is
then cut to exactly V entries by the package's own build_vocab.

Sentence lengths (simple regime) are geometric with mean 20, but drawn as
the midpoint quantiles of that law and shuffled by the seed. Every seed
therefore has the same multiset of lengths, so the mix of short and long
windows, which sets the per-window fixed cost of a round, does not move
throughput from one seed to the next; only the words and their order do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MEAN_SENTENCE = 20


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    v: int
    h: int
    k: int
    policy: str
    regime: str  # simple: sentence windows, B=1; gated: B x T stream windows
    train_units: int  # per round: sentences (simple) or B x T windows (gated)
    eval_units: int  # per eval pass: sentences (simple) or tokens (gated)
    e: int | None = None
    corpus_tokens: int = 300_000  # generated training corpus the vocabulary is built from


# BENCHMARK.json runs simple-rrntn-k100 and gated-lstm-k100. rntn-full runs
# by name only: its eval throughput swings too much between processes on a
# shared machine to hold a bound (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simple-rrntn-k100",
            family="rrntn", v=10_000, h=100, k=100, policy="f", regime="simple",
            train_units=25, eval_units=60),
        Workload(
            name="rntn-full",
            family="rrntn", v=2_000, h=100, k=2_000, policy="identity", regime="simple",
            corpus_tokens=100_000, train_units=8, eval_units=200),
        Workload(
            name="gated-lstm-k100",
            family="lstm", v=10_000, h=254, e=650, k=100, policy="f", regime="gated",
            train_units=2, eval_units=400),
    )
}


@dataclass
class Inputs:
    """Generated token strings: `corpus` feeds build_vocab, `train` is what a
    round trains on (a prefix of `corpus`), `eval` is the held-out split."""

    corpus: list  # sentences (list of lists) or a flat token list
    train: list
    eval: list
    digest: str


def _zipf_words(rng: np.random.Generator, v: int, n: int) -> np.ndarray:
    n_types = 3 * v
    cdf = np.cumsum(1.0 / np.arange(1, n_types + 1))
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), n_types - 1)


def _stratified_lengths(rng: np.random.Generator, n: int) -> np.ndarray:
    q = (np.arange(n) + 0.5) / n
    lengths = np.ceil(np.log1p(-q) / np.log1p(-1.0 / MEAN_SENTENCE)).astype(np.int64)
    return rng.permutation(np.maximum(lengths, 1))


def _split_sentences(words: list, lengths: np.ndarray) -> list:
    out, pos = [], 0
    for n in lengths:
        out.append(words[pos:pos + n])
        pos += n
    return out


def generate(w: Workload, seed: int, batch: int = 20, t_bptt: int = 35) -> Inputs:
    """Deterministic inputs for one workload and seed. batch and t_bptt are
    the gated-regime defaults of TrainConfig.gated."""
    rng = np.random.default_rng(seed)
    if w.regime == "simple":
        train_len = _stratified_lengths(rng, w.train_units)
        eval_len = _stratified_lengths(rng, w.eval_units)
        fill_len = _stratified_lengths(rng, max(1, w.corpus_tokens // MEAN_SENTENCE))
        lengths = [train_len, eval_len, fill_len]
    else:
        train_n = batch * (t_bptt * w.train_units + 1)  # exactly train_units windows
        lengths = [np.array([train_n]), np.array([w.eval_units]),
                   np.array([max(1, w.corpus_tokens - train_n)])]
    total = int(sum(int(x.sum()) for x in lengths))
    ranks = _zipf_words(rng, w.v, total)
    digest = hashlib.sha256(ranks.tobytes() + b"".join(x.tobytes() for x in lengths))
    names = np.array([f"w{r}" for r in range(3 * w.v)], dtype=object)
    words = names[ranks].tolist()
    a = int(lengths[0].sum())
    b = a + int(lengths[1].sum())
    parts = (words[:a], words[a:b], words[b:])
    if w.regime == "simple":
        train, held, fill = (_split_sentences(p, n) for p, n in zip(parts, lengths))
    else:
        train, held, fill = parts
    return Inputs(corpus=train + fill, train=train, eval=held,
                  digest=f"sha256:{digest.hexdigest()[:16]}")
