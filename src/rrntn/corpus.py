"""Corpus ingestion: frequency-ranked vocabularies, encoding, and chunking.

Two corpus shapes are supported: line-per-sentence text (an end-of-sentence
token is appended to every line and sentence boundaries are kept) and a
single whitespace-tokenized stream with no sentence structure.

Token ids are assigned in rank order, so id = rank - 1 throughout: the most
frequent word has id 0 and rank 1. Frequency ties are broken by lexicographic
order of the surface form, which makes rebuilds deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import neg
from typing import Iterator, Sequence

import numpy as np

UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"


class EmptyCorpusError(ValueError):
    pass


class CorpusTooSmallError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Immutable word table ordered by decreasing unigram frequency."""

    words: list[str]
    counts: np.ndarray  # int64, count per id
    id_of: dict[str, int]
    unk_id: int
    eos_id: int | None  # None for stream corpora

    @property
    def size(self) -> int:
        return len(self.words)

    def rank_of(self, word: str) -> int:
        """Frequency rank in [1, V]; unknown words get the unk rank."""
        return self.id_of.get(word, self.unk_id) + 1

    def freq_of(self, word: str) -> int:
        return int(self.counts[self.id_of.get(word, self.unk_id)])

    def id_for(self, word: str) -> int:
        return self.id_of.get(word, self.unk_id)

    def save(self, path) -> None:
        """Write "word<TAB>count" lines in rank order."""
        with open(path, "w", encoding="utf-8") as f:
            for word, count in zip(self.words, self.counts):
                f.write(f"{word}\t{int(count)}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what save wrote; a malformed line or a repeated word is an
        error naming the file and the line."""
        id_of: dict[str, int] = {}
        counts: list[int] = []
        with open(path, encoding="utf-8") as f:
            for n, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    word, count = line.split("\t")
                    counts.append(int(count))
                except ValueError:
                    raise ValueError(f"vocabulary file {path} line {n}: expected "
                                     f"'word<TAB>count', got {line!r}") from None
                if word in id_of:
                    raise ValueError(f"vocabulary file {path} line {n}: {word!r} is a duplicate")
                id_of[word] = len(id_of)
        if not id_of:
            raise EmptyCorpusError(f"vocabulary file {path} is empty")
        if UNK_TOKEN not in id_of:
            raise ValueError(f"vocabulary file {path} lacks {UNK_TOKEN}")
        return cls(
            words=list(id_of),
            counts=np.asarray(counts, dtype=np.int64),
            id_of=id_of,
            unk_id=id_of[UNK_TOKEN],
            eos_id=id_of.get(EOS_TOKEN),
        )


def build_vocab(tokens, min_count: int = 1, max_size: int | None = None) -> Vocabulary:
    """Build a frequency-ranked vocabulary from a flat token stream.

    Words seen fewer than min_count times, or beyond max_size surface forms
    by rank, are folded into the unknown symbol; its rank comes from its own
    aggregate count. The unknown symbol is always present, even when nothing
    was replaced.
    """
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    if max_size is not None and max_size < 1:
        raise ValueError(f"max_size must be at least 1; got {max_size}")
    counts = Counter(tokens)
    if not counts:
        raise EmptyCorpusError("token stream is empty")

    unk_count = counts.pop(UNK_TOKEN, 0)
    # Rank by count, most frequent first, ties in word order: a stable sort
    # by count of the words in word order, both with C-level keys.
    words = sorted(counts)
    words.sort(key=counts.__getitem__, reverse=True)
    freq = [counts[w] for w in words]
    n_kept = bisect_right(freq, -min_count, key=neg)  # the prefix with count >= min_count
    if max_size is not None:
        n_kept = min(n_kept, max_size)
    unk_count += sum(freq[n_kept:])

    # <unk> ranks among the kept words by its own count, ties in word order.
    at = bisect_left(range(n_kept), (-unk_count, UNK_TOKEN), key=lambda i: (-freq[i], words[i]))
    words[at:] = [UNK_TOKEN, *words[at:n_kept]]
    freq[at:] = [unk_count, *freq[at:n_kept]]
    id_of = {w: i for i, w in enumerate(words)}
    return Vocabulary(
        words=words,
        counts=np.asarray(freq, dtype=np.int64),
        id_of=id_of,
        unk_id=id_of[UNK_TOKEN],
        eos_id=id_of.get(EOS_TOKEN),
    )


@dataclass
class EncodedSplit:
    """One corpus split: token ids plus sentence start offsets (empty for streams)."""

    ids: np.ndarray  # int64
    boundaries: np.ndarray  # int64 sentence start offsets, strictly increasing

    @property
    def has_sentences(self) -> bool:
        return self.boundaries.size > 0


@dataclass
class EncodedCorpus:
    train: EncodedSplit
    valid: EncodedSplit
    test: EncodedSplit


def encode(vocab: Vocabulary, tokens) -> EncodedSplit:
    """Encode tokens against a vocabulary; out-of-vocabulary words map to unk.

    A flat sequence of strings is treated as a stream. A sequence of token
    lists is treated as sentences: the end-of-sentence id is appended to each
    one and sentence start offsets are recorded.
    """
    tokens = list(tokens)
    if tokens and not isinstance(tokens[0], str):
        if vocab.eos_id is None:
            raise ValueError("sentence encoding needs an end-of-sentence entry in the vocabulary")
        ids: list[int] = []
        starts: list[int] = []
        for sentence in tokens:
            starts.append(len(ids))
            ids.extend(vocab.id_for(t) for t in sentence)
            ids.append(vocab.eos_id)
        return EncodedSplit(np.asarray(ids, dtype=np.int64), np.asarray(starts, dtype=np.int64))
    flat = [vocab.id_for(t) for t in tokens]
    return EncodedSplit(np.asarray(flat, dtype=np.int64), np.zeros(0, dtype=np.int64))


@dataclass(frozen=True)
class SequenceChunk:
    """A window: (batch, time) input ids and next-token targets.

    resets is a (T,) bool array marking the steps before which the state of
    every lane is zeroed, in train and eval mode alike: a sentence start, or
    the first step of a stream. A chunk can run across sentence starts.
    """

    inputs: np.ndarray
    targets: np.ndarray
    resets: np.ndarray


def chunk_sentences(split: EncodedSplit, t_bptt: int) -> Iterator[SequenceChunk]:
    """Split each sentence into consecutive windows of at most t_bptt tokens.

    Targets are the inputs shifted by one position in the corpus stream, so
    the final step of a sentence predicts the next sentence's first token;
    only the very last corpus token has no target and is never an input.
    Each window's resets is true at step 0 exactly on the first window of a
    sentence, and false elsewhere.
    """
    if t_bptt < 1:
        raise ValueError("t_bptt must be at least 1")
    if not split.has_sentences:
        raise ValueError("split has no sentence boundaries; use chunk_stream")
    ids = split.ids
    n = len(ids)
    starts = split.boundaries
    ends = np.append(starts[1:], n)
    for lo, hi in zip(starts, ends):
        stop = min(int(hi) + 1, n)  # one token of lookahead for the last target
        span = int(stop - lo - 1)
        for off in range(0, span, t_bptt):
            a = int(lo) + off
            b = min(a + t_bptt, int(lo) + span)
            resets = np.zeros(b - a, dtype=bool)
            resets[0] = off == 0
            yield SequenceChunk(ids[a:b][None, :], ids[a + 1 : b + 1][None, :], resets)


def chunk_stream(split: EncodedSplit, t_bptt: int, batch: int) -> Iterator[SequenceChunk]:
    """Cut the stream into `batch` contiguous lanes and yield aligned windows.

    Each step yields a (batch, t_bptt) chunk; the hidden state is carried
    across steps, so resets is true only at step 0 of the first. The
    trailing remainder that does not fill a whole window is dropped.
    """
    if t_bptt < 1:
        raise ValueError("t_bptt must be at least 1")
    if batch < 1:
        raise ValueError("batch must be at least 1")
    ids = split.ids
    n = len(ids)
    if n < batch * (t_bptt + 1):
        raise CorpusTooSmallError(
            f"stream of {n} tokens cannot fill batch={batch} windows of {t_bptt}"
        )
    per_lane = (n - 1) // batch
    steps = per_lane // t_bptt
    base = np.arange(batch, dtype=np.int64)[:, None] * per_lane
    for s in range(steps):
        idx = base + np.arange(s * t_bptt, (s + 1) * t_bptt, dtype=np.int64)[None, :]
        resets = np.zeros(t_bptt, dtype=bool)
        resets[0] = s == 0
        yield SequenceChunk(ids[idx], ids[idx + 1], resets)


def read_sentences(path) -> list[list[str]]:
    """Whitespace-tokenized lines of a line-per-sentence file; blank lines skipped."""
    sentences = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            toks = line.split()
            if toks:
                sentences.append(toks)
    return sentences


def sentence_token_stream(sentences: Sequence[Sequence[str]]) -> Iterator[str]:
    """Flatten sentences with the end-of-sentence token appended to each,
    matching what encode() will produce; feed this to build_vocab so the
    end-of-sentence symbol participates in frequency ranking."""
    for sentence in sentences:
        yield from sentence
        yield EOS_TOKEN


def split_stream_bytes(
    raw: bytes,
    train_bytes: int = 90_000_000,
    valid_bytes: int = 5_000_000,
    test_bytes: int = 5_000_000,
) -> tuple[list[str], list[str], list[str]]:
    """Split a byte stream at whitespace-safe boundaries near the requested sizes.

    A cut point advances past the current token so no token is ever split;
    the straddling token stays with the earlier part.
    """
    for name, size in (("train", train_bytes), ("valid", valid_bytes), ("test", test_bytes)):
        if size < 1:
            raise ValueError(f"{name} bytes must be at least 1; got {size}")

    def cut(offset: int) -> int:
        while offset < len(raw) and not raw[offset : offset + 1].isspace():
            offset += 1
        return offset

    a = cut(min(train_bytes, len(raw)))
    b = cut(min(a + valid_bytes, len(raw)))
    c = cut(min(b + test_bytes, len(raw)))
    parts = (raw[:a], raw[a:b], raw[b:c])
    train, valid, test = (p.decode("utf-8").split() for p in parts)
    if not train or not valid or not test:
        raise CorpusTooSmallError("stream too small for the requested byte split")
    return train, valid, test
