import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rrntn.corpus import (
    CorpusTooSmallError,
    EmptyCorpusError,
    EOS_TOKEN,
    UNK_TOKEN,
    EncodedSplit,
    Vocabulary,
    build_vocab,
    chunk_sentences,
    chunk_stream,
    encode,
    sentence_token_stream,
    split_stream_bytes,
)


@pytest.mark.parametrize("min_count, max_size", [(1, None), (2, None), (1, 7), (3, 4), (1, 1)])
def test_build_vocab_ranking_equals_two_full_sorts(min_count, max_size):
    # Counts 1..4 over 40 words tie heavily, and <unk> itself is tied: it
    # occurs 3 times before the cut words fold into it. Half the words sort
    # before "<unk>", half after.
    rng = np.random.default_rng(5)
    names = [f"{i:02d}" if i % 2 else f"w{i:02d}" for i in range(40)]
    tokens = [w for i, w in enumerate(names) for _ in range(1 + i % 4)] + [UNK_TOKEN] * 3
    tokens = [tokens[i] for i in rng.permutation(len(tokens))]
    vocab = build_vocab(tokens, min_count=min_count, max_size=max_size)
    words, counts = reference.vocab_ranking(tokens, min_count, max_size)
    assert vocab.words == words
    assert vocab.counts.tolist() == counts
    assert vocab.id_of == {w: i for i, w in enumerate(words)}
    assert vocab.unk_id == words.index(UNK_TOKEN)


def test_build_vocab_counts_and_ranks():
    vocab = build_vocab(["a", "a", "b"])
    assert vocab.rank_of("a") == 1
    assert vocab.rank_of("b") == 2
    assert vocab.freq_of("a") == 2
    # synthesized unk ends up ranked by its zero count
    assert vocab.words[-1] == UNK_TOKEN


def test_build_vocab_empty_stream():
    with pytest.raises(EmptyCorpusError):
        build_vocab([])


def test_build_vocab_min_count_folds_into_unk():
    tokens = ["a"] * 5 + ["b"] * 3 + ["c"]  # c falls below the cutoff
    vocab = build_vocab(tokens, min_count=2)
    assert vocab.size == 3  # a, b, unk
    assert vocab.freq_of(UNK_TOKEN) == 1
    assert vocab.id_for("c") == vocab.unk_id


def test_build_vocab_unk_rank_from_replaced_mass():
    # four distinct singletons fold into unk, outranking b
    tokens = ["a"] * 5 + ["b"] * 3 + ["c", "d", "e", "f"]
    vocab = build_vocab(tokens, min_count=2)
    assert vocab.rank_of(UNK_TOKEN) == 2
    assert vocab.freq_of(UNK_TOKEN) == 4
    assert vocab.rank_of("b") == 3


def test_build_vocab_max_size():
    tokens = ["a"] * 4 + ["b"] * 3 + ["c"] * 2 + ["d"]
    vocab = build_vocab(tokens, max_size=2)
    assert set(vocab.words) == {"a", "b", UNK_TOKEN}
    assert vocab.freq_of(UNK_TOKEN) == 3


@pytest.mark.parametrize("max_size", [0, -1])
def test_build_vocab_rejects_max_size_below_one(max_size):
    with pytest.raises(ValueError, match=f"max_size must be at least 1; got {max_size}"):
        build_vocab(["a", "b", "c"], max_size=max_size)


def test_build_vocab_literal_unk_merges():
    tokens = ["a", "a", UNK_TOKEN, UNK_TOKEN, "b"]
    vocab = build_vocab(tokens, min_count=2)
    assert vocab.freq_of(UNK_TOKEN) == 3  # two literal + folded b
    assert vocab.rank_of(UNK_TOKEN) == 1  # ranked above a by count


def test_ties_break_lexicographically():
    vocab = build_vocab(["z", "m", "a"])
    assert [vocab.rank_of(w) for w in ("a", "m", "z")] == [1, 2, 3]


def test_ids_follow_rank_order():
    vocab = build_vocab(["b", "b", "b", "a", "a", "c"])
    for word in vocab.words:
        assert vocab.id_for(word) == vocab.rank_of(word) - 1


@given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=200))
@settings(max_examples=60)
def test_rank_stable_across_rebuilds_and_frequency_sorted(tokens):
    v1 = build_vocab(tokens)
    v2 = build_vocab(list(tokens))
    assert v1.words == v2.words
    counts = v1.counts
    assert np.all(counts[:-1] >= counts[1:])


def test_encode_stream_and_oov():
    vocab = build_vocab(["a", "a", "b"])
    split = encode(vocab, ["a", "b"])
    assert split.ids.tolist() == [vocab.id_for("a"), vocab.id_for("b")]
    assert not split.has_sentences
    oov = encode(vocab, ["a", "z"])
    assert oov.ids.tolist() == [vocab.id_for("a"), vocab.unk_id]


def test_encode_sentences_appends_eos_and_records_boundaries():
    sents = [["a", "b"], ["b"]]
    vocab = build_vocab(sentence_token_stream(sents))
    split = encode(vocab, sents)
    eos = vocab.eos_id
    assert split.ids.tolist() == [vocab.id_for("a"), vocab.id_for("b"), eos,
                                  vocab.id_for("b"), eos]
    assert split.boundaries.tolist() == [0, 3]


def test_encode_deterministic():
    sents = [["a", "b", "c"], ["c", "a"]]
    vocab = build_vocab(sentence_token_stream(sents))
    one = encode(vocab, sents)
    two = encode(vocab, sents)
    assert np.array_equal(one.ids, two.ids)
    assert np.array_equal(one.boundaries, two.boundaries)


def _sentence_split(lengths, n_vocab=50):
    """Encoded split with sentences of the given token counts (zeros as ids)."""
    ids = []
    starts = []
    tok = 0
    for n in lengths:
        starts.append(len(ids))
        ids.extend((tok + i) % n_vocab for i in range(n))
        tok += n
    return EncodedSplit(np.array(ids, dtype=np.int64), np.array(starts, dtype=np.int64))


def test_chunk_sentences_45_token_sentence():
    # trailing sentence supplies the lookahead target for the first one
    split = _sentence_split([45, 5])
    chunks = [c for c in chunk_sentences(split, 20)]
    first_sentence = chunks[:3]
    assert [c.inputs.shape[1] for c in first_sentence] == [20, 20, 5]
    assert [c.resets.tolist() for c in first_sentence] == [[True] + [False] * 19,
                                                            [False] * 20, [False] * 5]
    # targets are the inputs shifted by one position in the stream
    ids = split.ids
    assert np.array_equal(first_sentence[0].targets[0], ids[1:21])
    assert first_sentence[2].targets[0][-1] == ids[45]


def test_chunk_sentences_exact_fit_single_chunk():
    split = _sentence_split([20, 4])
    chunks = list(chunk_sentences(split, 20))
    assert chunks[0].inputs.shape[1] == 20
    assert chunks[0].resets.tolist() == [True] + [False] * 19


def test_chunk_sentences_two_short_sentences():
    split = _sentence_split([5, 5])
    chunks = list(chunk_sentences(split, 20))
    assert len(chunks) == 2
    assert all(c.resets[0] and not c.resets[1:].any() for c in chunks)
    # the last sentence has no lookahead, so it contributes one fewer pair
    assert chunks[0].inputs.shape[1] == 5
    assert chunks[1].inputs.shape[1] == 4


def test_chunk_sentences_rejects_stream():
    split = EncodedSplit(np.arange(10), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="no sentence boundaries"):
        next(chunk_sentences(split, 20))


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12),
       st.integers(min_value=1, max_value=25))
@settings(max_examples=60)
def test_chunk_sentences_cover_corpus_in_order(lengths, t_bptt):
    split = _sentence_split(lengths)
    chunks = list(chunk_sentences(split, t_bptt))
    inputs = np.concatenate([c.inputs[0] for c in chunks]) if chunks else np.zeros(0)
    targets = np.concatenate([c.targets[0] for c in chunks]) if chunks else np.zeros(0)
    # every token except the last is an input once, every token except the
    # first is a target once, both in corpus order
    assert np.array_equal(inputs, split.ids[:-1])
    assert np.array_equal(targets, split.ids[1:])
    # the state is zeroed exactly before each sentence's first input
    resets = np.concatenate([c.resets for c in chunks]) if chunks else np.zeros(0, dtype=bool)
    assert np.array_equal(np.flatnonzero(resets), split.boundaries[split.boundaries < inputs.size])


def test_chunk_stream_lane_arithmetic():
    split = EncodedSplit(np.arange(141, dtype=np.int64), np.zeros(0, dtype=np.int64))
    chunks = list(chunk_stream(split, t_bptt=35, batch=2))
    assert len(chunks) == 2  # 70 pairs per lane -> two full 35-step windows
    assert all(c.inputs.shape == (2, 35) for c in chunks)
    assert chunks[0].resets.tolist() == [True] + [False] * 34 and not chunks[1].resets.any()
    # lanes are contiguous spans of the stream
    assert chunks[0].inputs[0][0] == 0
    assert chunks[0].inputs[1][0] == 70
    assert np.array_equal(chunks[0].targets, chunks[0].inputs + 1)


def test_chunk_stream_no_resets_after_first():
    split = EncodedSplit(np.arange(200, dtype=np.int64), np.zeros(0, dtype=np.int64))
    resets = np.concatenate([c.resets for c in chunk_stream(split, t_bptt=35, batch=1)])
    assert resets.size == 175
    assert np.flatnonzero(resets).tolist() == [0]


def test_chunk_stream_deterministic():
    split = EncodedSplit(np.arange(300, dtype=np.int64), np.zeros(0, dtype=np.int64))
    a = [c.inputs for c in chunk_stream(split, 10, 4)]
    b = [c.inputs for c in chunk_stream(split, 10, 4)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert len(a) == len(b)


def test_chunk_stream_too_small():
    split = EncodedSplit(np.arange(10, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(CorpusTooSmallError):
        next(chunk_stream(split, t_bptt=5, batch=2))


def test_chunk_stream_fills_one_window_from_batch_times_t_plus_one():
    # lanes [0..4] and [5..9], and id 10 is the last target
    split = EncodedSplit(np.arange(11, dtype=np.int64), np.zeros(0, dtype=np.int64))
    (chunk,) = chunk_stream(split, t_bptt=5, batch=2)
    np.testing.assert_array_equal(chunk.inputs, np.arange(10).reshape(2, 5))
    np.testing.assert_array_equal(chunk.targets, np.arange(1, 11).reshape(2, 5))
    with pytest.raises(CorpusTooSmallError):
        next(chunk_stream(EncodedSplit(split.ids[:10], split.boundaries), t_bptt=5, batch=2))


def test_vocab_file_roundtrip(tmp_path):
    vocab = build_vocab(["b", "b", "a", UNK_TOKEN])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.words == vocab.words
    assert np.array_equal(loaded.counts, vocab.counts)
    assert loaded.unk_id == vocab.unk_id
    # rank order on disk
    lines = path.read_text().splitlines()
    assert lines[0].split("\t")[0] == vocab.words[0]


def test_split_stream_bytes_whitespace_safe():
    raw = b"alpha beta gamma delta epsilon zeta"
    train, valid, test = split_stream_bytes(raw, train_bytes=7, valid_bytes=9, test_bytes=100)
    assert train == ["alpha", "beta"]  # cut lands inside "beta", token kept whole
    assert valid == ["gamma", "delta"]
    assert test == ["epsilon", "zeta"]


def test_split_stream_bytes_too_small():
    with pytest.raises(CorpusTooSmallError):
        split_stream_bytes(b"one two", train_bytes=7, valid_bytes=5, test_bytes=5)


def test_eos_participates_in_ranking():
    sents = [["a"], ["a"], ["b"]]
    vocab = build_vocab(sentence_token_stream(sents))
    assert vocab.eos_id is not None
    assert vocab.freq_of(EOS_TOKEN) == 3
    assert vocab.rank_of(EOS_TOKEN) == 1
