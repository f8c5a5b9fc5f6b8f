import copy
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import reference
from synth import synth_corpus
from test_gradients import CONFIGS
import rrntn.evaluation
import rrntn.models
from rrntn.corpus import CorpusTooSmallError, EncodedSplit, chunk_sentences, chunk_stream
from rrntn.linalg import Rng, clip_by_global_norm, global_norm
from rrntn.mapping import slice_assignments
from rrntn.models import (
    DivergenceError,
    InitScheme,
    ModelSpec,
    backward_chunk,
    forward_chunk,
    init_params,
    param_shapes,
)
from rrntn.training import (
    PANEL_BYTES,
    EpochMetrics,
    TrainConfig,
    fit,
    schedule_step,
    sgd_apply,
    train_epoch,
)


def small_cfg(seed=0, **overrides):
    defaults = dict(init=InitScheme.gaussian(0.05), p_drop=0.0, max_epochs=3)
    defaults.update(overrides)
    return TrainConfig.simple(seed=seed, **defaults)


@pytest.fixture(scope="module")
def tiny():
    vocab, corpus = synth_corpus(v=30, n_tokens=3000, seed=4, rich=5, sentence_mean=10)
    spec = ModelSpec("rrntn", v=vocab.size, h=8, k=4)
    return vocab, corpus, spec


# ---------------------------------------------------------------------------
# sgd_apply


def test_sgd_zero_lr_is_identity():
    params = {"w": np.array([1.0, 2.0])}
    sgd_apply(params, {"w": np.array([5.0, -5.0])}, lr=0.0)
    assert np.array_equal(params["w"], [1.0, 2.0])


def test_sgd_scalar_example():
    params = {"p": np.array([1.0])}
    sgd_apply(params, {"p": np.array([2.0])}, lr=0.1)
    np.testing.assert_allclose(params["p"], [0.8], rtol=1e-15)


def test_sgd_after_clip_steps_by_clipped_norm():
    params = {"a": np.zeros(4), "b": np.zeros(4)}
    grads = {"a": np.full(4, 3.0), "b": np.full(4, 4.0)}  # norm 10
    clip_by_global_norm(grads.values(), 5.0)
    sgd_apply(params, grads, lr=1.0)
    assert abs(global_norm(params.values()) - 5.0) < 1e-12


def test_sgd_raises_on_non_finite():
    params = {"p": np.array([1.0])}
    with pytest.raises(DivergenceError):
        sgd_apply(params, {"p": np.array([np.nan])}, lr=0.1)


def test_sgd_non_finite_last_block_writes_nothing():
    params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]), "c": np.array([4.0])}
    before = copy.deepcopy(params)
    grads = {"a": np.array([0.5, -0.5]), "b": np.array([1.0]), "c": np.array([np.nan])}
    with pytest.raises(DivergenceError) as err:
        sgd_apply(params, grads, lr=0.1)
    assert err.value.block == "c"
    assert all(np.array_equal(params[k], before[k]) for k in params)


def test_sgd_rows_update_matches_literal_step():
    p = Rng(0).uniform01(24).reshape(4, 6)
    g = Rng(1).uniform01(12).reshape(4, 3)
    idx = (slice(None), np.array([1, 3, 4]))
    expected = p.copy()
    expected[idx] = p[idx] - 0.3 * g
    params = {"w": p.copy()}
    sgd_apply(params, {"w": g.copy()}, lr=0.3, rows={"w": idx})
    assert np.array_equal(params["w"], expected)


def _panels_plus(row_bytes: int) -> int:
    """Rows of row_bytes each that fill two whole update panels and a remainder."""
    return 2 * (PANEL_BYTES // row_bytes) + 3


@pytest.mark.parametrize("batch, clip_norm", [(1, None), (3, None), (3, 1.0), (1, 1.0)],
                         ids=["plain", "batch", "batch-clipped", "clipped"])
def test_sgd_panels_match_literal_step(batch, clip_norm):
    # a leading-axis block, a (slice(None), cols) block and a dense block,
    # each spanning two panels plus a remainder along its leading axis
    n_slices, n_rows, n_dense = _panels_plus(8 * 9 * 7), _panels_plus(8 * 3), _panels_plus(8 * 40)
    slice_idx = np.arange(1, 2 * n_slices, 2)
    cols = np.array([0, 4, 5])
    params = {"u": Rng(0).uniform01(2 * n_slices * 63).reshape(2 * n_slices, 9, 7),
              "e": Rng(1).uniform01(n_rows * 8).reshape(n_rows, 8),
              "w": Rng(2).uniform01(n_dense * 40).reshape(n_dense, 40)}
    grads = {"u": Rng(3).uniform01(n_slices * 63).reshape(n_slices, 9, 7),
             # column-major, as backward_chunk forms a compact word block
             "e": Rng(4).uniform01(3 * n_rows).reshape(3, n_rows).T,
             "w": Rng(5).uniform01(n_dense * 40).reshape(n_dense, 40)}
    rows = {"u": slice_idx, "e": (slice(None), cols)}
    expected = copy.deepcopy(params)
    factor = reference.one_pass_update(expected, copy.deepcopy(grads), 0.3, rows, batch,
                                       clip_norm)
    assert (factor < 1.0) == (clip_norm is not None)
    if (batch, clip_norm) == (1, None):
        literal = copy.deepcopy(params)
        for name, g in grads.items():
            idx = rows.get(name, ...)
            literal[name][idx] = params[name][idx] - 0.3 * g
        assert all(np.array_equal(expected[name], literal[name]) for name in params)
    sgd_apply(params, copy.deepcopy(grads), 0.3, rows, batch, clip_norm)
    assert all(np.array_equal(params[name], expected[name]) for name in params)


@pytest.mark.parametrize("clip_norm", [None, 1.0], ids=["unclipped", "clipped"])
def test_sgd_non_finite_after_multi_panel_block_writes_nothing(clip_norm):
    # clipped, the norm is inf: every block is scaled by 0, which turns the
    # inf into NaN, and the check still names b
    n = _panels_plus(8 * 40)
    params = {"w": np.zeros((n, 40)), "b": np.array([1.0])}
    grads = {"w": np.ones((n, 40)), "b": np.array([np.inf])}
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        sgd_apply(params, grads, lr=0.1, clip_norm=clip_norm)
    assert err.value.block == "b"
    assert not params["w"].any() and params["b"][0] == 1.0


# ---------------------------------------------------------------------------
# schedule_step


def test_schedule_halves_on_small_improvement():
    cfg = small_cfg()
    lr, count, stop = schedule_step(100.0, 99.8, 0.1, 0, cfg)
    assert lr == 0.05 and count == 1 and not stop


def test_schedule_keeps_lr_on_clear_improvement():
    cfg = small_cfg()
    lr, count, stop = schedule_step(100.0, 95.0, 0.1, 3, cfg)
    assert lr == 0.1 and count == 0 and not stop


def test_schedule_first_epoch_never_halves():
    cfg = small_cfg()
    lr, count, stop = schedule_step(None, 500.0, 0.1, 0, cfg)
    assert lr == 0.1 and count == 0 and not stop


def test_schedule_stops_after_patience_plateaus():
    cfg = small_cfg()
    lr, count, stop = 0.1, 0, False
    for _ in range(5):
        assert not stop
        lr, count, stop = schedule_step(100.0, 100.0, lr, count, cfg)
    assert stop and count == 5
    np.testing.assert_allclose(lr, 0.1 * 2.0**-5, rtol=1e-15)


def test_schedule_halving_also_counts_regressions():
    cfg = small_cfg()
    lr, count, stop = schedule_step(100.0, 120.0, 0.1, 0, cfg)
    assert lr == 0.05 and count == 1


# ---------------------------------------------------------------------------
# train_epoch


def test_epoch_with_zero_lr_leaves_params_bitwise(tiny):
    _, corpus, spec = tiny
    cfg = small_cfg(lr0=0.0)
    params = init_params(spec, cfg.init, Rng(1))
    before = copy.deepcopy(params)
    train_epoch(params, spec, cfg, corpus.train, lr=0.0, rng=Rng(2))
    assert all(np.array_equal(before[k], params[k]) for k in params)


def test_epoch_on_split_with_nothing_to_predict_raises(tiny):
    vocab, _, spec = tiny
    params = init_params(spec, InitScheme.gaussian(0.05), Rng(0))
    split = EncodedSplit(np.array([vocab.eos_id], dtype=np.int64), np.zeros(1, dtype=np.int64))
    with pytest.raises(CorpusTooSmallError, match="training split has no predictable tokens"):
        train_epoch(params, spec, small_cfg(), split, 0.1, Rng(1))


def test_epoch_deterministic_with_fixed_seed(tiny):
    _, corpus, spec = tiny
    cfg = small_cfg(p_drop=0.5)

    def run():
        params = init_params(spec, cfg.init, Rng(1))
        m = train_epoch(params, spec, cfg, corpus.train, lr=0.1, rng=Rng(77))
        return m, params

    m1, p1 = run()
    m2, p2 = run()
    assert m1.train_ppl == m2.train_ppl
    assert all(np.array_equal(p1[k], p2[k]) for k in p1)


def test_training_beats_uniform_baseline(tiny):
    vocab, corpus, spec = tiny
    cfg = small_cfg(p_drop=0.5)
    params = init_params(spec, InitScheme.gaussian(0.001), Rng(1))
    last = None
    for epoch in range(1, 11):
        last = train_epoch(params, spec, cfg, corpus.train, lr=0.1,
                           rng=Rng(0).derive(1, epoch), epoch=epoch)
    assert last.train_ppl < vocab.size


def _changed(before, after, axis):
    # indices along `axis` where any entry differs
    diff = before != after
    other = tuple(a for a in range(diff.ndim) if a != axis)
    return set(np.flatnonzero(diff.any(axis=other)).tolist())


def test_update_sparsity_single_chunk(tiny):
    # one simple-regime window moves only the slices and embedding columns
    # of its own words, and every one of those
    _, corpus, spec = tiny
    ids, b1 = corpus.train.ids, int(corpus.train.boundaries[1])
    split = EncodedSplit(ids[: b1 + 1], np.zeros(1, dtype=np.int64))  # first sentence only
    cfg = small_cfg(t_bptt=b1, p_drop=0.0)
    params = init_params(spec, InitScheme.gaussian(0.05), Rng(3))
    before = copy.deepcopy(params)
    train_epoch(params, spec, cfg, split, lr=0.1, rng=Rng(2))
    slices = slice_assignments(spec.v, spec.mapping_policy())[ids[:b1]]
    assert 0 < len(set(slices)) < spec.k
    # the window starts from a zero state, so step 0's recurrence matrix has
    # no gradient; its bias does
    assert _changed(before["u_slices"], params["u_slices"], 0) == set(slices[1:].tolist())
    assert _changed(before["b_slices"], params["b_slices"], 0) == set(slices.tolist())
    assert _changed(before["w_emb"], params["w_emb"], 1) == set(ids[:b1].tolist())


def test_update_sparsity_gated_window(tiny):
    # one LSTM window over two lanes moves only its words' candidate slices
    # and embedding columns, and every one of those
    _, corpus, _ = tiny
    t_len = 6
    ids = corpus.train.ids[: 2 * t_len + 2]  # exactly one (2, t_len) window
    spec = ModelSpec("lstm", v=int(corpus.train.ids.max()) + 1, h=6, e=5, k=4)
    cfg = TrainConfig.gated(seed=5, t_bptt=t_len, batch=2, lr0=0.5, p_drop=0.0,
                            init=InitScheme.uniform(-0.1, 0.1))
    params = init_params(spec, cfg.init, Rng(5))
    before = copy.deepcopy(params)
    train_epoch(params, spec, cfg, EncodedSplit(ids, np.zeros(0, dtype=np.int64)),
                lr=cfg.lr0, rng=Rng(6))
    inputs = ids[: 2 * t_len].reshape(2, t_len)
    slices = slice_assignments(spec.v, spec.mapping_policy())[inputs]
    assert 0 < len(set(slices.ravel())) < spec.k
    # both lanes start from a zero state: no recurrence gradient at step 0
    assert (_changed(before["u_cand_slices"], params["u_cand_slices"], 0)
            == set(slices[:, 1:].ravel().tolist()))
    assert (_changed(before["b_cand_slices"], params["b_cand_slices"], 0)
            == set(slices.ravel().tolist()))
    assert _changed(before["w_emb"], params["w_emb"], 1) == set(inputs.ravel().tolist())


def _touched(spec, name, shape, inputs):
    # mask of the entries a window over `inputs` may move in block `name`
    mask = np.zeros(shape, dtype=bool)
    if name in ("w_emb", "v_factors"):
        mask[:, np.unique(inputs)] = True
    elif name.endswith("_slices"):
        mask[np.unique(slice_assignments(spec.v, spec.mapping_policy())[inputs])] = True
    else:
        mask[...] = True
    return mask


@pytest.mark.parametrize("regime", ["simple", "gated_unclipped", "gated_clipped"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sparse_window_matches_dense_step(name, regime):
    # train_epoch's touched-row update against p -= lr * g over whole blocks.
    # Two lanes read id 3 at step 0, so they share its slice; dropout is on.
    spec = CONFIGS[name]
    ids = np.array([3, 7, 1, 12, 3, 9, 7, 15, 2, 5], dtype=np.int64)
    if regime == "simple":
        cfg = TrainConfig.simple(seed=0, p_drop=0.3, init=InitScheme.uniform(-0.5, 0.5))
        split = EncodedSplit(ids, np.zeros(1, dtype=np.int64))
        chunk = next(chunk_sentences(split, cfg.t_bptt))
    else:
        clip = 0.05 if regime == "gated_clipped" else None
        cfg = TrainConfig.gated(seed=0, t_bptt=4, batch=2, lr0=0.5, p_drop=0.3,
                                clip_norm=clip, init=InitScheme.uniform(-0.5, 0.5))
        split = EncodedSplit(ids, np.zeros(0, dtype=np.int64))
        chunk = next(chunk_stream(split, cfg.t_bptt, cfg.batch))
    sparse = init_params(spec, cfg.init, Rng(1))
    dense = copy.deepcopy(sparse)

    train_epoch(sparse, spec, cfg, split, lr=cfg.lr0, rng=Rng(2))
    _, _, cache, _ = forward_chunk(dense, spec, chunk, mode="train", rng=Rng(2), p_drop=cfg.p_drop)
    grads, _ = backward_chunk(dense, spec, cache)
    for g in grads.values():
        g /= chunk.inputs.shape[0]
    if cfg.clip_norm is not None:
        assert global_norm(grads.values()) > cfg.clip_norm
        clip_by_global_norm(grads.values(), cfg.clip_norm)
    for block, g in grads.items():
        dense[block] -= cfg.lr0 * g

    for block in dense:
        if cfg.clip_norm is None:
            assert np.array_equal(sparse[block], dense[block]), block
            continue
        touched = _touched(spec, block, dense[block].shape, chunk.inputs)
        assert np.array_equal(sparse[block][~touched], dense[block][~touched]), block
        np.testing.assert_allclose(sparse[block][touched], dense[block][touched],
                                   rtol=1e-12, atol=0, err_msg=block)


# ---------------------------------------------------------------------------
# the gated update in two passes, against the one-pass reference


def _gated_run(spec, clip_norm):
    """A gated config and a stream of four windows of three lanes."""
    cfg = TrainConfig.gated(seed=0, t_bptt=4, batch=3, lr0=0.5, p_drop=0.3, clip_norm=clip_norm,
                            init=InitScheme.uniform(-0.5, 0.5))
    split = EncodedSplit((Rng(8).uniform01(51) * spec.v).astype(np.int64),
                         np.zeros(0, dtype=np.int64))
    return cfg, split, init_params(spec, cfg.init, Rng(5))


@pytest.fixture(params=["without_helper", "with_helper"])
def helper_everywhere(request, monkeypatch, helper_pool):
    """The helper (or None) in every chunk; the reference runs without it."""
    monkeypatch.setattr(rrntn.models, "HELPER_MIN_MADDS", 1)
    monkeypatch.setattr(rrntn.models, "_helper", None)
    yield helper_pool if request.param == "with_helper" else None
    if request.param == "with_helper":
        assert helper_pool.calls > 0


def _reference_epoch(params, spec, cfg, split):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rrntn.models, "_helper", None)
        return reference.gated_epoch(params, spec, cfg, split, cfg.lr0, Rng(6))


@pytest.mark.parametrize("panel", [PANEL_BYTES, 1024], ids=["panel-default", "panel-1k"])
@pytest.mark.parametrize("clip_norm", [1.2, None], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_two_pass_update_matches_the_one_pass_reference(monkeypatch, helper_everywhere, name,
                                                        clip_norm, panel):
    # four windows with dropout and carried state, some clipped; at 1 KiB
    # panels the first pass recurses into leaves and the second updates
    # several panels per block
    spec = CONFIGS[name]
    cfg, split, params = _gated_run(spec, clip_norm)
    ref = copy.deepcopy(params)
    ref_ppl, factors = _reference_epoch(ref, spec, cfg, split)
    assert len(factors) == 4 and (clip_norm is None or min(factors) < 1.0)
    monkeypatch.setattr(rrntn.training, "PANEL_BYTES", panel)
    monkeypatch.setattr(rrntn.models, "_helper", helper_everywhere)
    metrics = train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    assert metrics.train_ppl == ref_ppl
    assert all(np.array_equal(params[block], ref[block]) for block in params)


def test_update_hands_the_helper_nothing(monkeypatch, with_helper):
    # the helper takes part in every chunk, but the step of a clipped gated
    # window runs on the caller alone
    spec = CONFIGS["r_lstm"]
    cfg, split, params = _gated_run(spec, 1.2)
    monkeypatch.setattr(rrntn.models, "HELPER_MIN_MADDS", 1)
    step, handed = rrntn.training.sgd_apply, []

    def counted(*args, **kwargs):
        before = with_helper.calls
        step(*args, **kwargs)
        handed.append(with_helper.calls - before)

    monkeypatch.setattr(rrntn.training, "sgd_apply", counted)
    train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    assert handed == [0, 0, 0, 0] and with_helper.calls > 0


def test_tracer_names_see_one_step_and_one_clip_per_window(monkeypatch):
    # the names perfbench/tracing.py wraps: each window makes one sgd_apply
    # call, with its gradients as the second argument, and sgd_apply makes
    # one clip_by_global_norm call, whose factor is the reference's
    spec = CONFIGS["r_lstm"]
    cfg, split, params = _gated_run(spec, 1.2)
    _, ref_factors = _reference_epoch(copy.deepcopy(params), spec, cfg, split)
    step, clip = rrntn.training.sgd_apply, rrntn.training.clip_by_global_norm
    calls, inside = [], []

    def wrapped_step(*args, **kwargs):
        calls.append(("sgd", sorted(args[1])))
        inside.append(True)
        try:
            return step(*args, **kwargs)
        finally:
            inside.pop()

    def wrapped_clip(*args, **kwargs):
        out = clip(*args, **kwargs)
        calls.append(("clip", bool(inside), out[1]))
        return out

    monkeypatch.setattr(rrntn.training, "sgd_apply", wrapped_step)
    monkeypatch.setattr(rrntn.training, "clip_by_global_norm", wrapped_clip)
    train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    names = sorted(param_shapes(spec))
    assert calls == [call for f in ref_factors for call in (("sgd", names), ("clip", True, f))]
    assert min(ref_factors) < 1.0


def _inject(value, block, window, seen):
    """A backward_chunk that sets `block` of window `window`'s gradients to
    value at its first element (NaN, inf) or everywhere (finite), and records
    the parameters it found there."""
    def backward(params, spec, cache, **kwargs):
        grads, dstate = backward_chunk(params, spec, cache, **kwargs)
        if len(seen) == window:
            g = grads[block]
            g[(0,) * g.ndim if np.isnan(value) or np.isinf(value) else ...] = value
        seen.append(copy.deepcopy(params))
        return grads, dstate
    return backward


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("clip_norm", [1.2, None], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("where", ["middle", "w_out"])
def test_non_finite_block_is_named_and_nothing_is_written(monkeypatch, helper_everywhere, where,
                                                          clip_norm, value):
    # in window 1; a clipped window scales by 0 for an inf norm, which turns
    # the inf into NaN, and the check still names its block
    spec = CONFIGS["r_lstm"]
    blocks = list(param_shapes(spec))
    block = blocks[len(blocks) // 2] if where == "middle" else where
    cfg, split, params = _gated_run(spec, clip_norm)
    seen = []
    monkeypatch.setattr(rrntn.training, "backward_chunk", _inject(value, block, 1, seen))
    monkeypatch.setattr(rrntn.models, "_helper", helper_everywhere)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore", over="ignore"):
        train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    assert (err.value.block, err.value.window) == (block, 1)
    assert all(np.array_equal(params[b], seen[1][b]) for b in params)


@pytest.mark.parametrize("where", ["middle", "w_out"])
def test_block_whose_squares_overflow_steps_as_the_one_pass_update(monkeypatch, helper_everywhere,
                                                                   where):
    # 1e200 everywhere in one block of window 1: the clip norm is inf, every
    # block is scaled by 0 and the window's step is zero; the epoch goes on
    spec = CONFIGS["r_lstm"]
    blocks = list(param_shapes(spec))
    block = blocks[len(blocks) // 2] if where == "middle" else where
    cfg, split, params = _gated_run(spec, 1.2)
    ref = copy.deepcopy(params)
    with np.errstate(over="ignore"):
        monkeypatch.setattr(reference, "backward_chunk", _inject(1e200, block, 1, []))
        ref_ppl, factors = _reference_epoch(ref, spec, cfg, split)
        assert factors[1] == 0.0
        seen = []
        monkeypatch.setattr(rrntn.training, "backward_chunk", _inject(1e200, block, 1, seen))
        monkeypatch.setattr(rrntn.models, "_helper", helper_everywhere)
        metrics = train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(6))
    assert metrics.train_ppl == ref_ppl
    assert all(np.array_equal(params[b], ref[b]) for b in params)
    assert all(np.array_equal(seen[1][b], seen[2][b]) for b in params)


def test_sentence_reset_isolates_sentences(tiny):
    # corrupting sentence n cannot move sentence n+1's first-step loss
    _, corpus, spec = tiny
    params = init_params(spec, InitScheme.uniform(-0.3, 0.3), Rng(9))

    def first_step_losses(split):
        losses = []
        state = None
        for chunk in chunk_sentences(split, t_bptt=20):
            _, _, cache, state = forward_chunk(params, spec, chunk, state, mode="train")
            if chunk.resets[0]:
                p = cache.probs[0]
                losses.append(float(np.sum(-np.log(p[np.arange(p.shape[0]), chunk.targets[:, 0]]))))
        return losses

    split = corpus.train
    ids = split.ids.copy()
    b0, b1 = split.boundaries[0], split.boundaries[1]
    ids[b0:b1 - 1] = (ids[b0:b1 - 1] + 7) % spec.v  # rewrite sentence 0, keep eos
    corrupted = EncodedSplit(ids, split.boundaries)

    a = first_step_losses(split)
    b = first_step_losses(corrupted)
    assert a[0] != b[0]
    assert a[1:] == b[1:]


def test_gated_regime_runs_on_stream(tiny):
    _, corpus, _ = tiny
    stream = EncodedSplit(corpus.train.ids, np.zeros(0, dtype=np.int64))
    spec = ModelSpec("gru", v=int(stream.ids.max()) + 1, h=6, e=5, k=2)
    cfg = TrainConfig.gated(seed=5, t_bptt=10, batch=4, lr0=0.5, max_epochs=1,
                            init=InitScheme.uniform(-0.1, 0.1))
    params = init_params(spec, cfg.init, Rng(5))
    metrics = train_epoch(params, spec, cfg, stream, lr=cfg.lr0, rng=Rng(6))
    assert np.isfinite(metrics.train_ppl)


@pytest.fixture
def made_helper(monkeypatch, blas, cpus):
    """rrntn.models's helper as _make_helper makes it where BLAS reports
    blas threads (None: a BLAS that cannot be asked) and the affinity mask
    holds cpus; the pool it makes is shut down afterwards."""
    monkeypatch.setattr(rrntn.models, "_blas_threads", lambda: blas)
    monkeypatch.setattr(rrntn.models.os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(rrntn.models, "_helper", None)
    rrntn.models._make_helper()
    yield rrntn.models._helper
    if rrntn.models._helper is not None:
        rrntn.models._helper.shutdown(wait=True)


@pytest.mark.parametrize("blas, cpus, above, threads", [
    (2, {0, 1}, 0, 0),
    (None, {0, 1}, 0, 0),
    (1, {0}, 0, 0),
    (1, {0, 1}, 1, 0),
    (1, {0, 1}, 0, 1),
    (1, {0, 1, 2, 3}, 0, 1),
], ids=["blas-2", "blas-unknown", "one-cpu", "small-windows", "blas-1", "blas-1-four-cpus"])
def test_helper_thread_only_beside_one_blas_thread(tiny, monkeypatch, made_helper, blas, cpus,
                                                   above, threads):
    # With BLAS reporting one thread, an affinity mask of two CPUs and a
    # window (here 4 x 10 rows, in output blocks of R = 3) that
    # reaches HELPER_MIN_MADDS, which is set `above` its output product,
    # three epochs share one helper thread; otherwise none starts. The pool
    # starts its thread on the first call submitted to it, so a thread here
    # means the helper ran work.
    _, corpus, _ = tiny
    stream = EncodedSplit(corpus.train.ids, np.zeros(0, dtype=np.int64))
    spec = ModelSpec("lstm", v=int(stream.ids.max()) + 1, h=6, e=5, k=2)
    monkeypatch.setattr(rrntn.models, "EVAL_BLOCK_BYTES", 3 * spec.v * 8)
    monkeypatch.setattr(rrntn.models, "HELPER_MIN_MADDS", 4 * 10 * spec.h * spec.v + above)
    cfg = TrainConfig.gated(seed=5, t_bptt=10, batch=4, lr0=0.5,
                            init=InitScheme.uniform(-0.1, 0.1))
    params = init_params(spec, cfg.init, Rng(5))
    before = threading.active_count()
    for epoch in range(3):
        train_epoch(params, spec, cfg, stream, lr=cfg.lr0, rng=Rng(6 + epoch))
    assert threading.active_count() - before == threads


_AFTER_IMPORT = """
import os, threading
os.sched_getaffinity = lambda pid: {{0, 1}}
import {imported}
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
import rrntn.models as models
from rrntn.corpus import SequenceChunk
from rrntn.linalg import Rng
models.HELPER_MIN_MADDS = 1
spec = models.ModelSpec("lstm", v=12, h=6, e=5, k=2)
params = models.init_params(spec, models.InitScheme.uniform(-0.1, 0.1), Rng(0))
ids = np.arange(10, dtype=np.int64).reshape(2, 5)
models.forward_chunk(params, spec, SequenceChunk(ids, ids + 1, np.arange(5) == 0))
pid = os.fork()
if pid == 0:
    os._exit(0 if models._helper is None else 1)
print(threading.active_count(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="BLAS runs one thread per CPU: needs two CPUs")
@pytest.mark.parametrize("imported", ["rrntn", "numpy"])
def test_blas_variables_set_after_import_make_no_helper(imported):
    # BLAS read its variables when numpy loaded it, with none of them set:
    # it runs one thread per CPU. Setting OPENBLAS_NUM_THREADS=1 afterwards,
    # whether rrntn or only numpy was imported first, changes neither BLAS
    # nor the helper, here or in a forked child, so no helper thread starts
    # beside it.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(rrntn.models.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _AFTER_IMPORT.format(imported=imported)], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.split() == ["1", "0"]


def test_window_memory_does_not_carry_over():
    # an epoch's peak is one window's: nothing of window w (its cache, its
    # gradients) is still held through window w+1
    spec = ModelSpec("lstm", v=2000, h=64, e=96, k=20)
    cfg = TrainConfig.gated(seed=0, lr0=0.0)
    params = init_params(spec, cfg.init, Rng(0))
    window = cfg.batch * cfg.t_bptt
    ids = (Rng(3).uniform01(2 * window + cfg.batch) * spec.v).astype(np.int64)

    def peak(windows):
        split = EncodedSplit(ids[: windows * window + cfg.batch], np.zeros(0, dtype=np.int64))
        tracemalloc.start()
        try:
            train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2) <= 1.05 * peak(1)


def test_window_allocates_no_dense_slice_block():
    # K = V = 1000 slices of 50 x 50 make a 20 MB dense (K, H, H) block; a
    # 20-token sentence touches at most 20 of its rows, and only those rows
    # of the slice and embedding gradients are ever formed
    spec = ModelSpec("rrntn", v=1000, h=50, k=1000, policy="identity")
    cfg = TrainConfig.simple(seed=0)
    params = init_params(spec, cfg.init, Rng(0))
    split = EncodedSplit((Rng(3).uniform01(20) * spec.v).astype(np.int64),
                         np.zeros(1, dtype=np.int64))
    dense_bytes = 8 * int(np.prod(param_shapes(spec)["u_slices"]))
    tracemalloc.start()
    try:
        train_epoch(params, spec, cfg, split, lr=cfg.lr0, rng=Rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes / 4, (peak, dense_bytes)


# ---------------------------------------------------------------------------
# fit


def test_config_rejects_zero_epochs(tiny):
    # a run trains at least one epoch, so epoch 1 is always a best epoch
    with pytest.raises(ValueError, match="max_epochs must be at least 1; got 0"):
        small_cfg(max_epochs=0)
    _, corpus, spec = tiny
    assert fit(spec, small_cfg(max_epochs=1), corpus).best_epoch == 1


def test_fit_selects_best_validation_epoch(tiny):
    _, corpus, spec = tiny
    result = fit(spec, small_cfg(max_epochs=4), corpus)
    valids = [m.valid_ppl for m in result.history]
    assert result.best_valid_ppl == min(valids)
    assert result.history[result.best_epoch - 1].valid_ppl == result.best_valid_ppl


def test_fit_lr_schedule_invariant(tiny):
    # lr at epoch e equals lr0 / 2^(number of plateau epochs seen so far)
    _, corpus, spec = tiny
    cfg = small_cfg(max_epochs=6, halving_ratio=1.5)  # aggressive ratio forces halving
    result = fit(spec, cfg, corpus)
    halvings = 0
    prev = None
    for m in result.history:
        np.testing.assert_allclose(m.lr, cfg.lr0 * 2.0**-halvings, rtol=1e-15)
        if prev is not None and prev / m.valid_ppl < cfg.halving_ratio:
            halvings += 1
        prev = m.valid_ppl
    lrs = [m.lr for m in result.history]
    assert all(a >= b for a, b in zip(lrs, lrs[1:]))


def test_fit_deterministic(tiny):
    _, corpus, spec = tiny
    cfg = small_cfg(max_epochs=2, p_drop=0.5)
    r1 = fit(spec, cfg, corpus)
    r2 = fit(spec, cfg, corpus)
    assert [m.train_ppl for m in r1.history] == [m.train_ppl for m in r2.history]
    assert [m.valid_ppl for m in r1.history] == [m.valid_ppl for m in r2.history]
    assert all(np.array_equal(r1.params[k], r2.params[k]) for k in r1.params)


def test_fit_stops_on_plateau(tiny):
    _, corpus, spec = tiny
    cfg = small_cfg(max_epochs=50, patience=2, halving_ratio=50.0, lr0=0.0)
    # lr0=0 never improves, so the run must stop after exactly `patience` + 1 epochs
    result = fit(spec, cfg, corpus)
    assert len(result.history) == cfg.patience + 1


def test_fit_names_the_epoch_of_a_validation_divergence(tiny, monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("non-finite perplexity")

    _, corpus, spec = tiny
    monkeypatch.setattr(rrntn.evaluation, "perplexity", diverge)
    with pytest.raises(DivergenceError) as err:
        fit(spec, small_cfg(max_epochs=2), corpus)
    assert err.value.epoch == 1
    assert err.value.window is None  # raised outside the training windows


def test_metrics_fields(tiny):
    _, corpus, spec = tiny
    result = fit(spec, small_cfg(max_epochs=1), corpus)
    m = result.history[0]
    assert isinstance(m, EpochMetrics)
    assert m.epoch == 1
    assert m.train_ppl >= 1.0 and m.valid_ppl >= 1.0
    assert m.seconds >= 0.0
