import tracemalloc

import numpy as np
import pytest

from reference import perplexity_per_window
from synth import synth_corpus
from rrntn import models
from rrntn.corpus import EncodedSplit
from rrntn.evaluation import (
    capacity_report,
    param_label,
    perplexity,
    run_k_sweep,
)
from rrntn.linalg import Rng
from rrntn.models import (DivergenceError, InitScheme, ModelSpec, eval_rows, init_params,
                          param_count)
from rrntn.training import TrainConfig


@pytest.fixture(scope="module")
def tiny():
    vocab, corpus = synth_corpus(v=30, n_tokens=2500, seed=13, rich=5, sentence_mean=10)
    spec = ModelSpec("rrntn", v=vocab.size, h=8, k=4)
    return vocab, corpus, spec


def test_zero_weight_model_ppl_is_v(tiny):
    vocab, corpus, spec = tiny
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    ppl = perplexity(params, spec, corpus.test)
    assert abs(ppl - vocab.size) / vocab.size < 1e-9


def test_unigram_bias_model_matches_counting_oracle(tiny):
    # with W_out = 0 the model predicts softmax(b_out) everywhere; setting
    # b_out = ln(train unigram probabilities) must reproduce the unigram
    # cross-entropy that a direct count over the split gives
    vocab, corpus, spec = tiny
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    probs = vocab.counts / vocab.counts.sum()
    probs = np.maximum(probs, 1e-12)
    params["b_out"][:] = np.log(probs)
    ppl = perplexity(params, spec, corpus.test)

    targets = corpus.test.ids[1:]  # every token after the first is predicted once
    counts = np.bincount(targets, minlength=vocab.size)
    oracle = np.exp(-(counts @ np.log(probs)) / counts.sum())
    assert abs(ppl - oracle) / oracle < 1e-6


def test_ppl_invariant_to_chunk_length(tiny):
    _, corpus, spec = tiny
    params = init_params(spec, InitScheme.uniform(-0.3, 0.3), Rng(5))
    ppls = {t: perplexity(params, spec, corpus.valid, t_bptt=t) for t in (3, 20, 50)}
    base = ppls[20]
    for value in ppls.values():
        np.testing.assert_allclose(value, base, rtol=1e-12)


def test_ppl_stream_invariant_to_chunk_length(tiny):
    _, corpus, spec = tiny
    stream = EncodedSplit(corpus.valid.ids, np.zeros(0, dtype=np.int64))
    params = init_params(spec, InitScheme.uniform(-0.3, 0.3), Rng(5))
    a = perplexity(params, spec, stream, t_bptt=7)
    b = perplexity(params, spec, stream, t_bptt=35)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_stream_ppl_differs_from_sentence_ppl(tiny):
    # resets change the prediction context, so the two policies disagree
    _, corpus, spec = tiny
    params = init_params(spec, InitScheme.uniform(-0.3, 0.3), Rng(5))
    stream = EncodedSplit(corpus.valid.ids, np.zeros(0, dtype=np.int64))
    assert perplexity(params, spec, stream) != perplexity(params, spec, corpus.valid)


# ---------------------------------------------------------------------------
# perplexity in runs of R tokens against one B=1 forward per window


def _eval_spec(name: str, v: int) -> ModelSpec:
    return {
        "rrntn-f": ModelSpec("rrntn", v=v, h=8, k=4),
        "rrntn-fmod": ModelSpec("rrntn", v=v, h=8, k=4, policy="fmod"),
        "rrntn-identity": ModelSpec("rrntn", v=v, h=6, k=v, policy="identity"),
        "mrnn": ModelSpec("mrnn", v=v, h=8, factor=5),
        "gru": ModelSpec("gru", v=v, h=8, e=6, k=3),
        "lstm": ModelSpec("lstm", v=v, h=8, e=6, k=3),
    }[name]


def _set_rows(monkeypatch, spec, rows):
    """Shrink the eval block to `rows` rows of V logits (None keeps it)."""
    if rows is not None:
        monkeypatch.setattr(models, "EVAL_BLOCK_BYTES", rows * spec.v * 8)
        assert eval_rows(spec) == rows


def _assert_matches_reference(params, spec, split, t_bptt):
    # Both run the recurrence at B=1. A reference window of one token runs
    # its input and output products as GEMV, whose row may differ in the
    # last bits from the same row of a run's GEMM; everything else is the
    # same operations.
    ppl = perplexity(params, spec, split, t_bptt=t_bptt)
    ref, single_token_window = perplexity_per_window(params, spec, split, t_bptt)
    if not single_token_window:
        assert ppl == ref
    else:
        np.testing.assert_allclose(ppl, ref, rtol=1e-13, atol=0)


NAMES = ["rrntn-f", "rrntn-fmod", "rrntn-identity", "mrnn", "gru", "lstm"]


@pytest.mark.parametrize("rows", [3, None], ids=["R3", "R-default"])
@pytest.mark.parametrize("t_bptt", [2, 5, 20])
@pytest.mark.parametrize("kind", ["sentence", "stream"])
@pytest.mark.parametrize("name", NAMES)
def test_perplexity_matches_per_window_reference(tiny, monkeypatch, name, kind, t_bptt, rows):
    vocab, corpus, _ = tiny
    spec = _eval_spec(name, vocab.size)
    _set_rows(monkeypatch, spec, rows)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(7))
    split = corpus.valid
    if kind == "stream":
        split = EncodedSplit(split.ids, np.zeros(0, dtype=np.int64))
    _assert_matches_reference(params, spec, split, t_bptt)


@pytest.mark.parametrize("lengths", [[3, 40, 2, 5, 3], [12], [4, 6, 2], [5, 3, 1],
                                     [4, 6, 2, 8, 22, 5]],
                         ids=["longer-than-R", "one-sentence", "last-without-lookahead",
                              "last-predicts-nothing", "even-windows"])
@pytest.mark.parametrize("rows", [3, None], ids=["R3", "R-default"])
@pytest.mark.parametrize("name", ["rrntn-f", "gru"])
def test_perplexity_edge_splits_match_reference(tiny, monkeypatch, name, rows, lengths):
    # At R = 3 runs cut sentences and windows partway through, and the
    # 40-token sentence spans many runs. The split's last sentence never
    # predicts the token after it, and a last sentence of one token predicts
    # nothing. The even-windows split has no one-token window at t_bptt 2, 20
    # or 64, so every family must match exactly there. At t_bptt 1 every token
    # closes a window; at 64 each sentence is one window, which spans many runs.
    vocab, _, _ = tiny
    spec = _eval_spec(name, vocab.size)
    _set_rows(monkeypatch, spec, rows)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(8))
    lengths = np.array(lengths)
    ids = (Rng(9).uniform01(int(lengths.sum())) * spec.v).astype(np.int64)
    split = EncodedSplit(ids, np.cumsum(lengths) - lengths)
    for t_bptt in (1, 2, 5, 20, 64):
        _assert_matches_reference(params, spec, split, t_bptt)


@pytest.mark.parametrize("rows", [3, None], ids=["R3", "R-default"])
@pytest.mark.parametrize("t_bptt", [2, 20])
@pytest.mark.parametrize("kind", ["sentence", "stream"])
def test_perplexity_fills_runs_of_r_tokens(tiny, monkeypatch, kind, t_bptt, rows):
    # the m input tokens take ceil(m / R) forward calls of 2 to R rows each,
    # whatever t_bptt and the sentence lengths
    _, corpus, spec = tiny
    _set_rows(monkeypatch, spec, rows)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(7))
    split = corpus.valid
    if kind == "stream":
        split = EncodedSplit(split.ids, np.zeros(0, dtype=np.int64))
    calls = []

    def counting(params, spec, chunk, *args, **kwargs):
        calls.append(chunk.inputs.shape)
        return models.forward_chunk(params, spec, chunk, *args, **kwargs)

    monkeypatch.setattr("rrntn.evaluation.forward_chunk", counting)
    perplexity(params, spec, split, t_bptt=t_bptt)
    m, rows = len(split.ids) - 1, eval_rows(spec)
    assert len(calls) == -(-m // rows)
    assert all(b == 1 and 2 <= t <= rows for b, t in calls)
    assert sum(t for _, t in calls) == m


@pytest.mark.parametrize("rows", [3, None], ids=["R3", "R-default"])
@pytest.mark.parametrize("t_bptt", [2, 20])
@pytest.mark.parametrize("family", ["rrntn", "lstm"])
def test_nonfinite_loss_names_split_token_and_word(monkeypatch, family, t_bptt, rows):
    # word 9 is read only by the third sentence, at split index 11; the NaN
    # it brings spoils that sentence from there on, and no other
    spec = ModelSpec(family, v=12, h=4, k=3, **({"e": 5} if family == "lstm" else {}))
    _set_rows(monkeypatch, spec, rows)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(1))
    params["w_emb"][:, 9] = np.nan
    ids = np.array([1, 2, 3, 4, 0, 2, 3, 1, 0, 5, 7, 9, 3, 0, 1, 2, 0])
    split = EncodedSplit(ids, np.array([0, 5, 9, 14]))
    with pytest.raises(DivergenceError) as err:
        perplexity(params, spec, split, t_bptt=t_bptt)
    assert (err.value.timestep, err.value.word, err.value.lane) == (11, 9, None)


def test_perplexity_memory_is_bounded_by_the_output_block():
    # 400 sentences of 1..40 tokens and one of 3,000; the pass holds the
    # logits block of at most R rows and one run of at most R steps,
    # whatever the length of a sentence or split
    spec = ModelSpec("rrntn", v=10_000, h=16, k=10)
    params = init_params(spec, InitScheme.uniform(-0.1, 0.1), Rng(3))
    t_bptt = 20
    gen = Rng(4)
    lengths = np.insert(1 + (gen.uniform01(400) * 40).astype(np.int64), 200, 3000)
    n = int(lengths.sum())
    starts = np.cumsum(lengths) - lengths
    ids = (gen.uniform01(n) * spec.v).astype(np.int64)
    split = EncodedSplit(ids, starts)
    doubled = EncodedSplit(np.tile(ids, 2), np.append(starts, starts + n))

    def peak(s):
        tracemalloc.start()
        try:
            perplexity(params, spec, s, t_bptt=t_bptt)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    rows = eval_rows(spec)
    # per step of a run: an embedding row, the state and output-layer rows,
    # and eight ids, indices or losses; 512 KiB for Python objects and the
    # split's one index per input token
    bound = 8 * rows * spec.v + 8 * rows * (spec.e + 2 * spec.h + 8) + 2**19
    single, twice = peak(split), peak(doubled)
    assert single <= bound and twice <= bound
    assert twice <= 1.05 * single


# ---------------------------------------------------------------------------
# K sweep


def _sweep_cfg(seed=3):
    return TrainConfig.simple(seed=seed, init=InitScheme.gaussian(0.05),
                              p_drop=0.0, max_epochs=1)


def test_sweep_rows_and_determinism(tiny):
    _, corpus, spec = tiny
    ks = [1, 4, spec.v]
    r1 = run_k_sweep(spec, ks, _sweep_cfg(), corpus)
    r2 = run_k_sweep(spec, ks, _sweep_cfg(), corpus)
    assert len(r1.rows) == len(ks) * 2  # both policies
    assert r1.to_csv() == r2.to_csv()
    assert [(a.test_ppl, a.valid_ppl) for a in r1.rows] == \
        [(b.test_ppl, b.valid_ppl) for b in r2.rows]  # bit-for-bit, not just formatted
    for row in r1.rows:
        assert row.params == param_count(ModelSpec("rrntn", v=spec.v, h=spec.h,
                                                   k=row.k, policy=row.policy))


def test_sweep_policies_coincide_at_k_one(tiny):
    _, corpus, spec = tiny
    result = run_k_sweep(spec, [1], _sweep_cfg(), corpus)
    by_policy = {r.policy: r.test_ppl for r in result.rows}
    assert by_policy["f"] == by_policy["fmod"]


def test_sweep_requires_increasing_k(tiny):
    _, corpus, spec = tiny
    with pytest.raises(ValueError):
        run_k_sweep(spec, [4, 2], _sweep_cfg(), corpus)


def test_sweep_checks_every_policy_before_training(tiny, monkeypatch):
    _, corpus, spec = tiny

    def no_fit(*args, **kwargs):
        raise AssertionError("a sweep cell trained before every cell was checked")

    monkeypatch.setattr("rrntn.evaluation.fit", no_fit)
    with pytest.raises(ValueError, match="bogus"):
        run_k_sweep(spec, [1, 3], _sweep_cfg(), corpus, policies=("f", "bogus"))
    with pytest.raises(ValueError):
        run_k_sweep(spec, [1, spec.v + 1], _sweep_cfg(), corpus, policies=("f",))


def test_sweep_csv_format(tiny):
    _, corpus, spec = tiny
    result = run_k_sweep(spec, [1, 2], _sweep_cfg(), corpus, policies=("f",))
    lines = result.to_csv().strip().splitlines()
    assert lines[0] == "policy,K,H,params,test_ppl,valid_ppl,seed"
    assert len(lines) == 3
    assert lines[1].startswith(f"f,1,{spec.h},")


# ---------------------------------------------------------------------------
# capacity labels


@pytest.mark.parametrize("count,label", [
    (2_020_100, "2M"),
    (3_020_000, "3M"),
    (103_010_000, "103M"),
    (3_030_100, "3M"),
    (3_032_650, "3M"),
    (5_275_000, "5.3M"),
    (9_605_140, "9.6M"),
    (15_546_950, "15.5M"),
    (15_523_360, "15.5M"),
    (9_969_480, "10M"),
    (16_392_600, "16.4M"),
    (16_381_710, "16.4M"),
    (7_598_051, "7.6M"),
    (11_385_551, "11.4M"),
    (11_385_701, "11.4M"),
])
def test_param_label_rounding(count, label):
    assert param_label(count) == label


def test_capacity_report_pairs_match_within_rounding():
    # same printed label for configurations built to have equal capacity
    srnn_150 = ModelSpec("rrntn", v=10_000, h=150, k=1)
    rrntn_100 = ModelSpec("rrntn", v=10_000, h=100, k=100)
    rows = capacity_report([srnn_150, rrntn_100])
    assert rows[0].label == rows[1].label == "3M"
    gru_650 = ModelSpec("gru", v=10_000, h=650, e=650, k=1)
    rgru_244 = ModelSpec("gru", v=10_000, h=244, e=650, k=100)
    rows = capacity_report([gru_650, rgru_244])
    assert rows[0].label == rows[1].label == "15.5M"


def test_capacity_report_carries_formula():
    rows = capacity_report([ModelSpec("rrntn", v=100, h=10, k=5)])
    assert "2*V*H" in rows[0].formula
    assert rows[0].count == 2 * 100 * 10 + 5 * 100 + 5 * 10 + 100
