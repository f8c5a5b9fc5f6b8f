import itertools
import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from test_gradients import CONFIGS
import rrntn.models
from rrntn.corpus import SequenceChunk
from rrntn.linalg import Rng, dropout_mask, softmax
from rrntn.mapping import slice_assignments
from rrntn.models import (
    DivergenceError,
    InitScheme,
    ModelSpec,
    backward_chunk,
    eval_rows,
    forward_chunk,
    gru_step,
    init_params,
    input_stage,
    lstm_step,
    mrnn_step,
    output_layer,
    param_count,
    param_count_formula,
    param_shapes,
    rrntn_step,
    word_rows,
    zero_state,
)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def _step(step, params, spec, ids, state):
    """One cell step as forward_chunk runs it: the input stage, then the step."""
    x_in, xw = input_stage(params, spec, ids[:, None])
    s = slice_assignments(spec.v, spec.mapping_policy())[ids]
    return step(params, s, ids, state, x_in[0], xw[:, 0])


# ---------------------------------------------------------------------------
# spec validation and initialization


def test_spec_simple_family_requires_e_equals_h():
    assert ModelSpec("rrntn", v=10, h=4).e == 4
    with pytest.raises(ValueError):
        ModelSpec("rrntn", v=10, h=4, e=6)


def test_spec_k_bounds_and_identity():
    with pytest.raises(ValueError):
        ModelSpec("rrntn", v=10, h=4, k=11)
    with pytest.raises(ValueError):
        ModelSpec("rrntn", v=10, h=4, k=5, policy="identity")
    ModelSpec("rrntn", v=10, h=4, k=10, policy="identity")  # fine


@pytest.mark.parametrize("fields,expect", [
    (dict(family="lstm", v=10, h=4, e=0), "E must be at least 1; got 0"),
    (dict(family="gru", v=10, h=4, e=-2), "E must be at least 1; got -2"),
    (dict(family="lstm", v=10, h=0, e=4), "H must be at least 1; got 0"),
    (dict(family="rrntn", v=10, h=0), "H must be at least 1; got 0"),
    (dict(family="rrntn", v=0, h=4), "V must be at least 1; got 0"),
    (dict(family="gru", v=10, h=4, e=3, k=0), "K must be at least 1; got 0"),
    (dict(family="mrnn", v=10, h=4, factor=0), "F must be at least 1; got 0"),
    (dict(family="mrnn", v=10, h=4, factor=3, k=2), "so K must be 1; got 2"),
    (dict(family="rrntn", v=10, h=4, e=6), "so E must equal H; got 6"),
    (dict(family="mrnn", v=10, h=4, e=6, factor=3), "so E must equal H; got 6"),
    (dict(family="rrntn", v=10, h=4, factor=3), "so F must be 0; got 3"),
    (dict(family="gru", v=10, h=4, e=3, factor=3), "so F must be 0; got 3"),
    (dict(family="lstm", v=10, h=4, e=3, factor=3), "so F must be 0; got 3"),
], ids=["lstm-E0", "gru-E-2", "lstm-H0", "rrntn-H0", "rrntn-V0", "gru-K0", "mrnn-F0",
        "mrnn-K2", "rrntn-E", "mrnn-E", "rrntn-F", "gru-F", "lstm-F"])
def test_spec_dimension_rule(fields, expect):
    # every dimension is at least 1; one a cell does not name keeps its
    # neutral value (E = H without input weights, K = 1 without slices,
    # factor 0 without a factor)
    with pytest.raises(ValueError, match=expect):
        ModelSpec(**fields)


def test_init_zero_stddev_gives_zero_params():
    spec = ModelSpec("rrntn", v=6, h=3, k=2)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    assert all(np.all(p == 0) for p in params.values())


def test_init_same_seed_identical():
    spec = ModelSpec("gru", v=8, h=4, e=5, k=2)
    a = init_params(spec, InitScheme.uniform(-0.05, 0.05), Rng(3))
    b = init_params(spec, InitScheme.uniform(-0.05, 0.05), Rng(3))
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_init_uniform_range():
    spec = ModelSpec("lstm", v=30, h=10, e=12, k=3)
    params = init_params(spec, InitScheme.uniform(-0.05, 0.05), Rng(1))
    assert max(np.abs(p).max() for p in params.values()) <= 0.05


def test_init_zero_bias_mode():
    spec = ModelSpec("rrntn", v=6, h=3, k=2)
    params = init_params(spec, InitScheme.gaussian(0.1, bias="zero"), Rng(0))
    assert np.all(params["b_slices"] == 0)
    assert np.all(params["b_out"] == 0)
    assert np.any(params["w_emb"] != 0)


# ---------------------------------------------------------------------------
# parameter counts (frozen closed-form integers)


@pytest.mark.parametrize("spec,expected", [
    (ModelSpec("rrntn", v=10_000, h=100, k=1), 2_020_100),
    (ModelSpec("rrntn", v=10_000, h=100, k=100), 3_020_000),
    (ModelSpec("rrntn", v=10_000, h=100, k=10_000), 103_010_000),
    (ModelSpec("mrnn", v=10_000, h=100, factor=100), 3_030_100),
    (ModelSpec("rrntn", v=10_000, h=150, k=1), 3_032_650),
    (ModelSpec("rrntn", v=10_000, h=150, k=100), 5_275_000),
    (ModelSpec("gru", v=10_000, h=244, e=650, k=1), 9_605_140),
    (ModelSpec("gru", v=10_000, h=650, e=650, k=1), 15_546_950),
    (ModelSpec("gru", v=10_000, h=244, e=650, k=100), 15_523_360),
    (ModelSpec("lstm", v=10_000, h=254, e=650, k=1), 9_969_480),
    (ModelSpec("lstm", v=10_000, h=650, e=650, k=1), 16_392_600),
    (ModelSpec("lstm", v=10_000, h=254, e=650, k=100), 16_381_710),
])
def test_param_count_frozen_values(spec, expected):
    assert param_count(spec) == expected


def test_param_count_matches_closed_form_expressions():
    v, h, k = 777, 13, 5
    spec = ModelSpec("rrntn", v=v, h=h, k=k)
    assert param_count(spec) == 2 * v * h + k * h * h + k * h + v
    e = 21
    gru = ModelSpec("gru", v=v, h=h, e=e, k=k)
    assert param_count(gru) == e * v + 3 * h * e + 2 * (h * h + h) + k * (h * h + h) + v * h + v
    lstm = ModelSpec("lstm", v=v, h=h, e=e, k=k)
    assert param_count(lstm) == e * v + 4 * h * e + 3 * (h * h + h) + k * (h * h + h) + v * h + v
    f = 9
    mrnn = ModelSpec("mrnn", v=v, h=h, factor=f)
    assert param_count(mrnn) == 2 * v * h + f * v + 2 * h * f + h + v


def test_param_count_formula_mentions_dims():
    text = param_count_formula(ModelSpec("rrntn", v=10, h=4, k=2))
    assert "V=10" in text and "H=4" in text and "K=2" in text


# V=7, H=3, E=4, K=2, F=5: every block's shape in checkpoint order, literally
_BLOCK_TABLE = {
    "rrntn": (ModelSpec("rrntn", v=7, h=3, k=2),
              [("w_emb", (3, 7)), ("u_slices", (2, 3, 3)), ("b_slices", (2, 3))]),
    "mrnn": (ModelSpec("mrnn", v=7, h=3, factor=5),
             [("w_emb", (3, 7)), ("u_left", (3, 5)), ("u_right", (5, 3)),
              ("v_factors", (5, 7)), ("b_h", (3,))]),
    "gru": (ModelSpec("gru", v=7, h=3, e=4, k=2),
            [("w_emb", (4, 7)),
             ("w_reset", (3, 4)), ("u_reset", (3, 3)), ("b_reset", (3,)),
             ("w_update", (3, 4)), ("u_update", (3, 3)), ("b_update", (3,)),
             ("w_cand", (3, 4)), ("u_cand_slices", (2, 3, 3)), ("b_cand_slices", (2, 3))]),
    "lstm": (ModelSpec("lstm", v=7, h=3, e=4, k=2),
             [("w_emb", (4, 7)),
              ("w_forget", (3, 4)), ("u_forget", (3, 3)), ("b_forget", (3,)),
              ("w_input", (3, 4)), ("u_input", (3, 3)), ("b_input", (3,)),
              ("w_outgate", (3, 4)), ("u_outgate", (3, 3)), ("b_outgate", (3,)),
              ("w_cand", (3, 4)), ("u_cand_slices", (2, 3, 3)), ("b_cand_slices", (2, 3))]),
}


@pytest.mark.parametrize("family", sorted(_BLOCK_TABLE))
def test_param_shapes_pinned_in_checkpoint_order(family):
    spec, blocks = _BLOCK_TABLE[family]
    assert list(param_shapes(spec).items()) == [*blocks, ("w_out", (7, 3)), ("b_out", (7,))]


@pytest.mark.parametrize("family,by_word,by_slice", [
    ("rrntn", ["w_emb"], ["u_slices", "b_slices"]),
    ("mrnn", ["w_emb", "v_factors"], []),
    ("gru", ["w_emb"], ["u_cand_slices", "b_cand_slices"]),
    ("lstm", ["w_emb"], ["u_cand_slices", "b_cand_slices"]),
])
def test_word_rows_indexes_word_and_slice_blocks(family, by_word, by_slice):
    # words 1 and 2 (ranks 2 and 3) both sit in slice 1 of K=2 under f, so a
    # window over them touches neither every word nor every slice
    spec = _BLOCK_TABLE[family][0]
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(1))
    _, _, cache, _ = forward_chunk(params, spec, _chunk([2, 1, 2], [1, 2, 0]), mode="train")
    rows = word_rows(spec, cache)
    assert list(rows) == by_word + by_slice
    for name in by_word:
        assert rows[name][0] == slice(None) and rows[name][1].tolist() == [1, 2]
    for name in by_slice:
        assert rows[name].tolist() == [1]


@pytest.mark.parametrize("spec", [
    *(spec for spec, _ in _BLOCK_TABLE.values()),
    ModelSpec("rrntn", v=50, h=6, k=5), ModelSpec("mrnn", v=50, h=6, factor=4),
    ModelSpec("gru", v=50, h=6, e=9, k=5), ModelSpec("lstm", v=50, h=6, e=9, k=5),
])
def test_param_count_formula_closed_form_evaluates_to_count(spec):
    closed_form = param_count_formula(spec).split("  (")[0].replace("^", "**")
    dims = {"V": spec.v, "E": spec.e, "H": spec.h, "K": spec.k, "F": spec.factor}
    assert eval(closed_form, {"__builtins__": {}}, dims) == param_count(spec)


# ---------------------------------------------------------------------------
# step functions against scalar hand arithmetic


def test_rrntn_step_zero_params_is_half():
    spec = ModelSpec("rrntn", v=5, h=3, k=2)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    (h,), _ = _step(rrntn_step, params, spec, np.array([2]), (np.zeros((1, 3)),))
    assert np.array_equal(h, np.full((1, 3), 0.5))


def test_rrntn_step_hand_oracle():
    # H=2, V=3, K=2: rank-1 word uses slice 0, rank-3 word shares slice 1
    spec = ModelSpec("rrntn", v=3, h=2, k=2)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["w_emb"][:] = [[0.1, -0.2, 0.3], [0.0, 0.4, -0.1]]
    params["u_slices"][0] = [[0.5, -0.3], [0.2, 0.1]]
    params["u_slices"][1] = [[-0.1, 0.4], [0.3, -0.2]]
    params["b_slices"][0] = [0.05, -0.05]
    params["b_slices"][1] = [0.2, 0.1]
    h_prev = np.array([[0.3, -0.4]])

    (h0,), entry0 = _step(rrntn_step, params, spec, np.array([0]), (h_prev,))
    assert entry0["s"][0] == 0
    expect0 = [sigmoid(0.1 + (0.5 * 0.3 + -0.3 * -0.4) + 0.05),
               sigmoid(0.0 + (0.2 * 0.3 + 0.1 * -0.4) - 0.05)]
    np.testing.assert_allclose(h0[0], expect0, rtol=1e-14)

    (h2,), entry2 = _step(rrntn_step, params, spec, np.array([2]), (h_prev,))
    assert entry2["s"][0] == 1
    expect2 = [sigmoid(0.3 + (-0.1 * 0.3 + 0.4 * -0.4) + 0.2),
               sigmoid(-0.1 + (0.3 * 0.3 + -0.2 * -0.4) + 0.1)]
    np.testing.assert_allclose(h2[0], expect2, rtol=1e-14)
    assert not np.array_equal(h0, h2)


def test_mrnn_step_zero_params_is_half():
    spec = ModelSpec("mrnn", v=4, h=2, factor=3)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    (h,), _ = _step(mrnn_step, params, spec, np.array([1]), (np.zeros((1, 2)),))
    assert np.array_equal(h, np.full((1, 2), 0.5))


def test_mrnn_step_scalar_factor_oracle():
    # F=1 collapses the factorization to scalar arithmetic
    spec = ModelSpec("mrnn", v=3, h=2, factor=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["w_emb"][:] = [[0.2, -0.1, 0.0], [0.3, 0.1, -0.2]]
    params["u_left"][:] = [[0.4], [-0.5]]
    params["u_right"][:] = [[0.6, -0.7]]
    params["v_factors"][:] = [[1.5, -2.0, 0.5]]
    params["b_h"][:] = [0.01, -0.02]
    h_prev = np.array([[0.3, -0.2]])
    (h,), _ = _step(mrnn_step, params, spec, np.array([1]), (h_prev,))
    q = 0.6 * 0.3 + -0.7 * -0.2
    r = -2.0 * q
    expect = [sigmoid(-0.1 + 0.4 * r + 0.01), sigmoid(0.1 + -0.5 * r - 0.02)]
    np.testing.assert_allclose(h[0], expect, rtol=1e-14)


def test_mrnn_identity_factorization_reduces_to_shared_matrix():
    # all-ones factors with identity factor maps equal the plain recurrence U=I
    h_dim = 3
    spec = ModelSpec("mrnn", v=4, h=h_dim, factor=h_dim)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(5))
    params["w_emb"][:] = Rng(1).uniform01(h_dim * 4).reshape(h_dim, 4) - 0.5
    params["u_left"][:] = np.eye(h_dim)
    params["u_right"][:] = np.eye(h_dim)
    params["v_factors"][:] = 1.0

    rspec = ModelSpec("rrntn", v=4, h=h_dim, k=1)
    rparams = init_params(rspec, InitScheme.gaussian(0.0), Rng(0))
    rparams["w_emb"][:] = params["w_emb"]
    rparams["u_slices"][0] = np.eye(h_dim)

    h_prev = Rng(2).uniform01(h_dim).reshape(1, h_dim)
    (hm,), _ = _step(mrnn_step, params, spec, np.array([2]), (h_prev,))
    (hr,), _ = _step(rrntn_step, rparams, rspec, np.array([2]), (h_prev,))
    assert np.array_equal(hm, hr)


def test_gru_step_zero_params_halves_state():
    spec = ModelSpec("gru", v=5, h=3, e=3, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    h0 = np.array([[0.4, -0.8, 0.2]])
    (h,), _ = _step(gru_step, params, spec, np.array([1]), (h0,))
    np.testing.assert_allclose(h, 0.5 * h0, rtol=0, atol=0)


def test_gru_step_hand_oracle():
    spec = ModelSpec("gru", v=2, h=2, e=1, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["w_emb"][:] = [[0.5, -0.5]]
    params["w_reset"][:] = [[0.1], [-0.2]]
    params["u_reset"][:] = [[0.3, 0.0], [0.1, 0.2]]
    params["b_reset"][:] = [0.05, 0.0]
    params["w_update"][:] = [[-0.1], [0.4]]
    params["u_update"][:] = [[0.2, -0.1], [0.0, 0.3]]
    params["b_update"][:] = [0.0, -0.05]
    params["w_cand"][:] = [[0.7], [-0.3]]
    params["u_cand_slices"][0] = [[0.25, -0.15], [0.05, 0.35]]
    params["b_cand_slices"][0] = [0.02, -0.03]
    h_prev = [0.6, -0.4]

    x = 0.5  # embedding of word 0
    r = [sigmoid(0.1 * x + 0.3 * 0.6 + 0.0 * -0.4 + 0.05),
         sigmoid(-0.2 * x + 0.1 * 0.6 + 0.2 * -0.4 + 0.0)]
    z = [sigmoid(-0.1 * x + 0.2 * 0.6 + -0.1 * -0.4 + 0.0),
         sigmoid(0.4 * x + 0.0 * 0.6 + 0.3 * -0.4 - 0.05)]
    rh = [r[0] * 0.6, r[1] * -0.4]
    hh = [math.tanh(0.7 * x + 0.25 * rh[0] + -0.15 * rh[1] + 0.02),
          math.tanh(-0.3 * x + 0.05 * rh[0] + 0.35 * rh[1] - 0.03)]
    expect = [z[0] * 0.6 + (1 - z[0]) * hh[0], z[1] * -0.4 + (1 - z[1]) * hh[1]]

    (h,), _ = _step(gru_step, params, spec, np.array([0]), (np.array([h_prev]),))
    np.testing.assert_allclose(h[0], expect, rtol=1e-14)


def test_lstm_step_zero_params_zero_state():
    spec = ModelSpec("lstm", v=5, h=3, e=3, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    (h, c), _ = _step(lstm_step, params, spec, np.array([1]), (np.zeros((1, 3)), np.zeros((1, 3))))
    assert np.array_equal(c, np.zeros((1, 3)))
    assert np.array_equal(h, np.zeros((1, 3)))


def test_lstm_step_hand_oracle():
    spec = ModelSpec("lstm", v=2, h=1, e=1, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["w_emb"][:] = [[0.8, -0.8]]
    params["w_forget"][:] = [[0.3]]
    params["u_forget"][:] = [[0.2]]
    params["b_forget"][:] = [0.1]
    params["w_input"][:] = [[-0.4]]
    params["u_input"][:] = [[0.5]]
    params["b_input"][:] = [0.0]
    params["w_outgate"][:] = [[0.6]]
    params["u_outgate"][:] = [[-0.1]]
    params["b_outgate"][:] = [0.05]
    params["w_cand"][:] = [[0.9]]
    params["u_cand_slices"][0] = [[-0.7]]
    params["b_cand_slices"][0] = [0.2]

    x, hp, cp = 0.8, 0.3, -0.5
    f = sigmoid(0.3 * x + 0.2 * hp + 0.1)
    i = sigmoid(-0.4 * x + 0.5 * hp + 0.0)
    o = sigmoid(0.6 * x + -0.1 * hp + 0.05)
    cc = math.tanh(0.9 * x + -0.7 * hp + 0.2)
    c_exp = i * cc + f * cp
    h_exp = o * math.tanh(c_exp)

    (h, c), _ = _step(lstm_step, params, spec, np.array([0]), (np.array([[hp]]), np.array([[cp]])))
    np.testing.assert_allclose(c[0, 0], c_exp, rtol=1e-14)
    np.testing.assert_allclose(h[0, 0], h_exp, rtol=1e-14)


# ---------------------------------------------------------------------------
# output layer


def test_output_uniform_when_zero():
    # both modes; train mode also writes the probabilities
    spec = ModelSpec("rrntn", v=7, h=3, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    for probs in (None, np.empty((2, 1, 7))):
        nll = output_layer(params, spec, np.ones((2, 1, 3)), np.array([[4, 0]]), probs)
        np.testing.assert_allclose(nll, np.full((2, 1), np.log(7.0)), rtol=1e-15)
    assert np.array_equal(probs, np.full((2, 1, 7), 1 / 7))


def test_output_bias_closed_form():
    # p = (1/4, 3/4) when the second bias is ln 3
    spec = ModelSpec("rrntn", v=2, h=2, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["b_out"][:] = [0.0, np.log(3.0)]
    for probs in (None, np.empty((1, 2, 2))):
        nll = output_layer(params, spec, np.ones((1, 2, 2)), np.array([[0], [1]]), probs)
        np.testing.assert_allclose(nll, [[np.log(4.0), np.log(4.0 / 3.0)]], rtol=1e-15)
    np.testing.assert_allclose(probs[0], [[0.25, 0.75]] * 2, rtol=1e-15)


def test_output_sums_to_one_random():
    # train mode: each row of probabilities sums to 1 and gives its loss
    spec = ModelSpec("rrntn", v=11, h=4, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    targets = np.array([[3, 10], [0, 7], [5, 5]])
    probs = np.empty((2, 3, 11))
    nll = output_layer(params, spec, Rng(1).uniform01(24).reshape(2, 3, 4), targets, probs)
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones((2, 3)), atol=1e-12)
    picked = probs[np.arange(2)[:, None], np.arange(3)[None, :], targets.T]
    assert np.array_equal(nll, -np.log(picked))


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("batch", [1, 3, 20])
def test_blocked_train_output_layer_keeps_every_bit(monkeypatch, helper_pool, name, batch):
    # train mode writes the probabilities R rows at a time; R = 3 and R = 4
    # must give the bits of one whole block, also where R does not divide
    # the chunk's T*B = 7*B rows, and so must every R with a helper thread
    # taking every other block and part of the gradients
    spec = CONFIGS[name]
    params, chunk = _dropout_case(spec, batch)
    whole = eval_rows(spec)
    assert whole >= chunk.inputs.size

    def run():
        loss, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2),
                                          p_drop=0.3)
        probs = cache.probs.copy()
        return loss, probs, *backward_chunk(params, spec, cache)

    monkeypatch.setattr(rrntn.models, "_helper", None)
    loss, probs, grads, dstate = run()
    for helper, rows in itertools.product((None, helper_pool), (whole, 3, 4)):
        monkeypatch.setattr(rrntn.models, "_helper", helper)
        monkeypatch.setattr(rrntn.models, "EVAL_BLOCK_BYTES", rows * spec.v * 8)
        assert eval_rows(spec) == rows
        blocked = run()
        assert blocked[0] == loss
        assert np.array_equal(blocked[1], probs)
        for block in grads:
            assert np.array_equal(blocked[2][block], grads[block]), (helper, rows, block)
        assert all(np.array_equal(a, b) for a, b in zip(blocked[3], dstate, strict=True))


class InjectedError(RuntimeError):
    pass


@pytest.mark.parametrize("raising", ["helper", "caller"])
def test_helper_joins_before_an_error_leaves_the_forward(monkeypatch, with_helper, raising):
    # softmax raises once, on the helper thread or on the caller; the error
    # reaches the caller only after the helper's share is done, and the next
    # forward, with the helper still in place, gives the helperless bits
    spec = CONFIGS["r_lstm"]
    params, chunk = _dropout_case(spec, 3)
    monkeypatch.setattr(rrntn.models, "EVAL_BLOCK_BYTES", 3 * spec.v * 8)
    assert chunk.inputs.size > 2 * eval_rows(spec)
    plain, done, raised = rrntn.models.softmax, [], []

    def softmax_once(z, out=None):
        on_helper = threading.current_thread() is not threading.main_thread()
        if on_helper == (raising == "helper") and not raised:
            raised.append(True)
            raise InjectedError("softmax ran off the main thread" if on_helper else "caller")
        if on_helper:
            time.sleep(0.01)
            done.append(True)
        return plain(z, out=out)

    monkeypatch.setattr(rrntn.models, "softmax", softmax_once)
    with pytest.raises(InjectedError):
        forward_chunk(params, spec, chunk, mode="train", rng=Rng(2), p_drop=0.3)
    finished = len(done)
    time.sleep(0.05)
    assert len(done) == finished  # nothing of that call still runs on the helper
    loss, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2), p_drop=0.3)
    assert len(done) > finished
    monkeypatch.setattr(rrntn.models, "_helper", None)
    again, _, alone, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2), p_drop=0.3)
    assert loss == again
    assert np.array_equal(cache.probs, alone.probs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_does_not_wait_on_the_parents_helper(monkeypatch, with_helper):
    # the parent's helper thread does not exist in a forked child; a child
    # that handed work to it would wait forever
    spec = CONFIGS["r_lstm"]
    params, chunk = _dropout_case(spec, 3)
    monkeypatch.setattr(rrntn.models, "EVAL_BLOCK_BYTES", 3 * spec.v * 8)
    loss = forward_chunk(params, spec, chunk)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads, 3.12+
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if forward_chunk(params, spec, chunk)[0] == loss else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


# ---------------------------------------------------------------------------
# forward over chunks


def _chunk(ids, targets):
    """A one-lane chunk that zeroes the state before its first step."""
    return SequenceChunk(np.array([ids], dtype=np.int64),
                         np.array([targets], dtype=np.int64), np.arange(len(ids)) == 0)


def test_zero_weight_model_loss_is_log_v():
    spec = ModelSpec("rrntn", v=9, h=4, k=3)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    loss, count, _, _ = forward_chunk(params, spec, _chunk([1, 2, 3], [2, 3, 4]))
    np.testing.assert_allclose(loss / count, np.log(9), rtol=1e-15)


def test_chunk_loss_additivity_with_threaded_state():
    spec = ModelSpec("rrntn", v=12, h=5, k=4)
    params = init_params(spec, InitScheme.uniform(-0.4, 0.4), Rng(8))
    ids = (Rng(1).uniform01(9) * 12).astype(np.int64)
    whole = _chunk(ids[:-1], ids[1:])
    loss_whole, _, _, _ = forward_chunk(params, spec, whole)

    first = _chunk(ids[:4], ids[1:5])
    second = SequenceChunk(ids[4:-1][None, :], ids[5:][None, :], np.zeros(4, dtype=bool))
    l1, _, _, state = forward_chunk(params, spec, first)
    l2, _, _, _ = forward_chunk(params, spec, second, state)
    np.testing.assert_allclose(l1 + l2, loss_whole, rtol=1e-15)


def test_forward_three_token_hand_loss():
    # two predictions: p(target | input) read off the softmax directly
    spec = ModelSpec("rrntn", v=3, h=2, k=1)
    params = init_params(spec, InitScheme.uniform(-0.3, 0.3), Rng(2))
    chunk = _chunk([0, 1], [1, 2])
    loss, count, cache, _ = forward_chunk(params, spec, chunk, mode="train")
    assert count == 2
    manual = -np.log(cache.probs[0][0, 1]) - np.log(cache.probs[1][0, 2])
    np.testing.assert_allclose(loss, manual, rtol=1e-15)


def test_forward_two_step_scalar_oracle():
    # the whole pipeline (embedding, recurrence, softmax, loss) recomputed
    # with plain Python floats
    spec = ModelSpec("rrntn", v=3, h=2, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["w_emb"][:] = [[0.2, -0.3, 0.5], [-0.1, 0.4, 0.1]]
    params["u_slices"][0] = [[0.3, -0.2], [0.1, 0.25]]
    params["b_slices"][0] = [0.05, -0.1]
    params["w_out"][:] = [[0.6, -0.4], [-0.2, 0.3], [0.1, 0.7]]
    params["b_out"][:] = [0.01, -0.02, 0.03]

    def step(emb, h_prev):
        pre = [emb[i] + sum(params["u_slices"][0][i][j] * h_prev[j] for j in range(2))
               + params["b_slices"][0][i] for i in range(2)]
        return [sigmoid(p) for p in pre]

    def nll(h, target):
        logits = [sum(params["w_out"][i][j] * h[j] for j in range(2)) + params["b_out"][i]
                  for i in range(3)]
        m = max(logits)
        z = sum(math.exp(l - m) for l in logits)
        return -(logits[target] - m - math.log(z))

    h1 = step([0.2, -0.1], [0.0, 0.0])
    h2 = step([0.5, 0.1], h1)
    expected = nll(h1, 2) + nll(h2, 1)

    loss, count, _, _ = forward_chunk(params, spec, _chunk([0, 2], [2, 1]))
    assert count == 2
    np.testing.assert_allclose(loss, expected, rtol=1e-13)


def test_forward_reset_zeroes_state():
    spec = ModelSpec("rrntn", v=6, h=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.4, 0.4), Rng(3))
    chunk = _chunk([1, 2], [2, 3])
    stale_state = (np.full((1, 3), 9.0),)
    loss_a, _, _, _ = forward_chunk(params, spec, chunk, stale_state)
    loss_b, _, _, _ = forward_chunk(params, spec, chunk, None)
    assert loss_a == loss_b  # resets[0] wins over the passed state


@pytest.mark.parametrize("family", ["rrntn", "lstm"])
def test_eval_resets_split_a_chunk_into_fresh_pieces(family):
    # a reset before step 4 of 9: the steps score as the pieces 0-3 and 4-8
    # run apart, the second from a zero state
    spec = ModelSpec(family, v=12, h=4, k=3, **({"e": 5} if family == "lstm" else {}))
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(6))
    ids = (Rng(7).uniform01(10) * spec.v).astype(np.int64)
    whole = SequenceChunk(ids[None, :-1], ids[None, 1:], np.arange(9) == 4)
    _, count, nll, _ = forward_chunk(params, spec, whole, mode="eval")
    _, _, first, state = forward_chunk(params, spec, _chunk(ids[:4], ids[1:5]), mode="eval")
    _, _, second, _ = forward_chunk(params, spec, _chunk(ids[4:9], ids[5:]), state, mode="eval")
    assert count == 9 and nll.shape == (9, 1)
    assert np.array_equal(nll, np.concatenate([first, second]))


def _random_states(spec, batch, seed):
    """Two random U(-0.5, 0.5) states, one (B, H) array per state array:
    an incoming state and a gradient on the outgoing one."""
    data = Rng(seed)
    return [tuple(data.uniform01(batch * spec.h).reshape(batch, spec.h) - 0.5
                  for _ in zero_state(spec, batch)) for _ in range(2)]


@pytest.mark.parametrize("family", ["rrntn", "lstm"])
def test_train_resets_split_a_chunk_into_fresh_pieces(family):
    # train mode, two lanes, dropout on: a carried state and a reset before
    # step 4 of 9 give the loss, outgoing state, gradients and incoming
    # state gradient of the pieces 0-3 and 4-8 run apart, the second from a
    # zero state; one counter-based stream draws the same dropout masks
    spec = ModelSpec(family, v=12, h=4, k=3, **({"e": 5} if family == "lstm" else {}))
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(6))
    ids = (Rng(7).uniform01(20) * spec.v).astype(np.int64).reshape(2, 10)
    state_in, g = _random_states(spec, 2, 8)
    whole = SequenceChunk(ids[:, :-1], ids[:, 1:], np.arange(9) == 4)
    loss, _, cache, state = forward_chunk(params, spec, whole, state_in, mode="train",
                                          rng=Rng(9), p_drop=0.3)
    grads, dstate = backward_chunk(params, spec, cache, g)
    rng = Rng(9)
    first = SequenceChunk(ids[:, :4], ids[:, 1:5], np.zeros(4, dtype=bool))
    second = SequenceChunk(ids[:, 4:9], ids[:, 5:], np.zeros(5, dtype=bool))
    loss_1, _, cache_1, _ = forward_chunk(params, spec, first, state_in, mode="train", rng=rng,
                                          p_drop=0.3)
    loss_2, _, cache_2, state_2 = forward_chunk(params, spec, second, None, mode="train",
                                                rng=rng, p_drop=0.3)
    late, _ = backward_chunk(params, spec, cache_2, g)
    early, dstate_apart = backward_chunk(params, spec, cache_1)

    assert abs(loss_1 + loss_2 - loss) <= 1e-12 * loss
    assert all(np.array_equal(a, b) for a, b in zip(state, state_2, strict=True))
    for block, grad in grads.items():
        assert np.abs(early[block] + late[block] - grad).max() <= 1e-12 * np.abs(grad).max()
    for d, d_apart in zip(dstate, dstate_apart, strict=True):
        assert np.abs(d).max() > 0
        assert np.abs(d - d_apart).max() <= 1e-12 * np.abs(d).max()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reset_at_step_zero_stops_the_state_gradient(name):
    # the state_in a chunk that resets at step 0 is passed never reaches its
    # loss or its outgoing state, so its gradient is exactly zero
    spec = CONFIGS[name]
    params, chunk = _dropout_case(spec, 2)
    chunk = SequenceChunk(chunk.inputs, chunk.targets, np.arange(7) == 0)
    state_in, g = _random_states(spec, 2, 3)
    _, _, cache, _ = forward_chunk(params, spec, chunk, state_in, mode="train", rng=Rng(2),
                                   p_drop=0.3)
    _, dstate = backward_chunk(params, spec, cache, g)
    assert len(dstate) == len(state_in)
    assert all(np.array_equal(d, np.zeros_like(s)) for d, s in zip(dstate, state_in))


def test_forward_divergence_error_carries_timestep():
    spec = ModelSpec("rrntn", v=4, h=2, k=1)
    params = init_params(spec, InitScheme.gaussian(0.0), Rng(0))
    params["b_out"][:] = [np.inf, 0, 0, 0]
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        forward_chunk(params, spec, _chunk([0], [1]))
    assert err.value.timestep == 0


def test_forward_divergence_error_names_first_lane():
    # a NaN embedding column for word 5, which only lane 1 reads, at step 2
    spec = ModelSpec("rrntn", v=6, h=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.4, 0.4), Rng(1))
    params["w_emb"][:, 5] = np.nan
    chunk = SequenceChunk(np.array([[0, 1, 2, 3], [1, 2, 5, 3]]),
                          np.array([[1, 2, 3, 4], [2, 5, 3, 0]]), np.arange(4) == 0)
    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        forward_chunk(params, spec, chunk)
    assert err.value.timestep == 2
    assert err.value.lane == 1
    assert err.value.word == 5


def _dropout_case(spec, batch):
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    ids = (Rng(5).uniform01(batch * 8) * spec.v).astype(np.int64).reshape(batch, 8)
    return params, SequenceChunk(ids[:, :-1], ids[:, 1:], np.zeros(7, dtype=bool))


@pytest.mark.parametrize("spec, batch, p_drop", [
    (ModelSpec("rrntn", v=13, h=5, k=3), 1, 0.0),
    (ModelSpec("lstm", v=13, h=5, e=4, k=3), 3, 0.3),
])
def test_hoisted_output_stage_matches_per_step_definition(spec, batch, p_drop):
    # the output layer runs once over all T*B rows; each step must still be
    # the per-step distribution of its (masked) hidden state
    params, chunk = _dropout_case(spec, batch)
    loss, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2),
                                      p_drop=p_drop)
    b_idx = np.arange(batch)
    t_len = chunk.inputs.shape[1]
    assert np.shape(cache.out_masks) == ((t_len, batch, spec.h) if p_drop > 0 else (0,))
    replay = 0.0
    for t, entry in enumerate(cache.steps):
        h = entry["h"] * cache.out_masks[t] if p_drop > 0 else entry["h"]
        np.testing.assert_allclose(cache.probs[t],
                                   softmax(h @ params["w_out"].T + params["b_out"]),
                                   rtol=1e-12, atol=0)
        replay += float(np.sum(-np.log(cache.probs[t][b_idx, chunk.targets[:, t]])))
    assert replay == loss


@pytest.mark.parametrize("spec, batch", [
    (ModelSpec("rrntn", v=13, h=5, k=3), 1),
    (ModelSpec("lstm", v=13, h=5, e=4, k=3), 3),
    (ModelSpec("mrnn", v=13, h=5, factor=4), 3),
    (ModelSpec("gru", v=13, h=5, e=4, k=3), 2),
])
def test_dropout_masks_keep_interleaved_draw_order(spec, batch):
    # the masks are drawn before the loop, but must be the per-step draws
    # (emb_0, out_0, emb_1, out_1, ...) and leave the stream where they did;
    # only gru and lstm, which read the embedding through input weights,
    # draw an embedding mask
    params, chunk = _dropout_case(spec, batch)
    rng = Rng(2)
    _, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=rng, p_drop=0.3)
    fresh = Rng(2)
    masks_embedding = spec.family in ("gru", "lstm")
    assert (cache.emb_masks is not None) == masks_embedding
    for t in range(chunk.inputs.shape[1]):
        if masks_embedding:
            emb = dropout_mask(fresh, batch * spec.e, 0.3).reshape(batch, spec.e)
            assert np.array_equal(cache.emb_masks[t], emb)
        out = dropout_mask(fresh, batch * spec.h, 0.3).reshape(batch, spec.h)
        assert np.array_equal(cache.out_masks[t], out)
    assert np.array_equal(rng.raw64(4), fresh.raw64(4))


def test_forward_reaches_dropout_and_softmax_by_module_name(monkeypatch):
    # outside tools time these two by replacing the module attributes, so
    # the forward pass must look them up there at call time
    calls = {"dropout_mask": 0, "softmax": 0}

    def counting(name):
        fn = getattr(rrntn.models, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(rrntn.models, name, counting(name))
    spec = ModelSpec("lstm", v=13, h=5, e=4, k=3)
    params, chunk = _dropout_case(spec, 3)
    forward_chunk(params, spec, chunk, mode="train", rng=Rng(2), p_drop=0.3)
    assert calls["dropout_mask"] > 0
    assert calls["softmax"] > 0


@pytest.mark.parametrize("family", ["gru", "lstm"])
@pytest.mark.parametrize("batch, p_drop", [(1, 0.0), (3, 0.3)])
def test_hoisted_input_stage_matches_per_step_definition(family, batch, p_drop):
    # the input projections run once over all T*B rows; replaying every step
    # with its own literal x_in @ W.T products must give the same states
    step, inputs = {
        "gru": (gru_step, ("w_reset", "w_update", "w_cand")),
        "lstm": (lstm_step, ("w_forget", "w_input", "w_outgate", "w_cand")),
    }[family]
    spec = ModelSpec(family, v=13, h=5, e=4, k=3)
    params, chunk = _dropout_case(spec, batch)
    loss, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2),
                                      p_drop=p_drop)
    state = zero_state(spec, batch)  # the chunk starts from a zero state
    b_idx = np.arange(batch)
    replay = 0.0
    for t, entry in enumerate(cache.steps):
        x_in = params["w_emb"][:, chunk.inputs[:, t]].T
        if p_drop > 0:
            x_in = x_in * cache.emb_masks[t]
        assert np.array_equal(cache.x_in[t], x_in)
        xw = np.stack([x_in @ params[name].T for name in inputs])
        s = slice_assignments(spec.v, spec.mapping_policy())[chunk.inputs[:, t]]
        state, _ = step(params, s, chunk.inputs[:, t], state, x_in, xw)
        np.testing.assert_allclose(entry["h"], state[0], rtol=1e-12, atol=0)
        if family == "lstm":
            np.testing.assert_allclose(entry["c"], state[1], rtol=1e-12, atol=0)
        replay += float(np.sum(-np.log(cache.probs[t][b_idx, chunk.targets[:, t]])))
    assert replay == loss


@pytest.mark.parametrize("spec", [
    ModelSpec("rrntn", v=13, h=5, k=4, policy="fmod"),
    ModelSpec("lstm", v=13, h=5, e=4, k=3),
])
def test_window_looks_up_slices_once(monkeypatch, spec):
    # forward_chunk indexes the slice table once; the steps, gradient_stage
    # and word_rows all read the (T, B) block it keeps on the cache
    table = slice_assignments(spec.v, spec.mapping_policy())
    calls = []
    monkeypatch.setattr(rrntn.models, "_slice_table", lambda sp: calls.append(sp) or table)
    params, chunk = _dropout_case(spec, 3)
    _, _, cache, _ = forward_chunk(params, spec, chunk, mode="train", rng=Rng(2), p_drop=0.3)
    backward_chunk(params, spec, cache)
    rows = word_rows(spec, cache)
    assert calls == [spec]
    assert np.array_equal(cache.slices, table[chunk.inputs.T])
    assert all(np.array_equal(entry["s"], cache.slices[t]) for t, entry in enumerate(cache.steps))
    block = "b_slices" if spec.family == "rrntn" else "b_cand_slices"
    assert np.array_equal(np.arange(spec.k)[rows[block]], np.unique(table[chunk.inputs]))


def test_hoisted_output_stage_raises_at_first_bad_step():
    # word 3 gets probability zero, and it is the target at steps 1 and 3 only
    spec = ModelSpec("rrntn", v=6, h=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.4, 0.4), Rng(1))
    params["b_out"][3] = -np.inf
    with pytest.raises(DivergenceError) as err, np.errstate(divide="ignore"):
        forward_chunk(params, spec, _chunk([0, 1, 2, 4, 5], [1, 3, 4, 3, 0]))
    assert err.value.timestep == 1
    assert err.value.lane == 0


def test_cache_replay_matches_loss_exactly():
    spec = ModelSpec("gru", v=10, h=4, e=3, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(6))
    ids = (Rng(2).uniform01(7) * 10).astype(np.int64)
    loss, _, cache, _ = forward_chunk(params, spec, _chunk(ids[:-1], ids[1:]), mode="train")
    b_idx = np.arange(cache.inputs.shape[0])
    replay = 0.0
    for t, p in enumerate(cache.probs):
        replay += float(np.sum(-np.log(p[b_idx, cache.targets[:, t]])))
    assert replay == loss


def test_gru_state_stays_bounded():
    # convex combination keeps the max-norm bounded by max(previous, 1)
    spec = ModelSpec("gru", v=10, h=6, e=4, k=3)
    params = init_params(spec, InitScheme.uniform(-2.0, 2.0), Rng(9))
    state = (Rng(3).uniform01(6).reshape(1, 6) * 3.0,)
    bound = max(np.abs(state[0]).max(), 1.0)
    for t in range(20):
        state, _ = _step(gru_step, params, spec, np.array([t % 10]), state)
        assert np.abs(state[0]).max() <= bound


# ---------------------------------------------------------------------------
# backward basics (finite differences live in test_gradients)


def test_untouched_slice_gradients_are_zero():
    spec = ModelSpec("rrntn", v=10, h=4, k=5)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(7))
    # ids 0 and 1 touch slices 0 and 1 only
    loss, _, cache, _ = forward_chunk(params, spec, _chunk([0, 1, 0], [1, 0, 1]),
                                      mode="train")
    grads, _ = backward_chunk(params, spec, cache)
    assert np.all(grads["u_slices"][2:] == 0)
    assert np.all(grads["b_slices"][2:] == 0)
    assert np.any(grads["u_slices"][0] != 0)


def test_backward_takes_the_probabilities_off_the_cache():
    # the first call turns cache.probs into the logit gradients in place, so
    # a second call on that cache would start from dlogits, not probabilities
    spec = ModelSpec("rrntn", v=20, h=8, k=5)
    params, chunk = _dropout_case(spec, 2)
    _, _, cache, _ = forward_chunk(params, spec, chunk, mode="train")
    backward_chunk(params, spec, cache)
    assert cache.probs is None
    with pytest.raises(ValueError, match="already ran"):
        backward_chunk(params, spec, cache)


def test_backward_deterministic_without_dropout():
    spec = ModelSpec("lstm", v=8, h=3, e=4, k=2)
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    chunk = _chunk([1, 5, 2, 7], [5, 2, 7, 0])
    _, _, cache_a, _ = forward_chunk(params, spec, chunk, mode="train")
    grads_a, _ = backward_chunk(params, spec, cache_a)
    _, _, cache_b, _ = forward_chunk(params, spec, chunk, mode="train")
    grads_b, _ = backward_chunk(params, spec, cache_b)
    assert all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)


@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_compact_gradients_equal_dense_at_word_rows(monkeypatch, helper_pool, name, batch):
    # the compact blocks train_epoch gets against the default dense ones,
    # with dropout on, state carried in from a previous chunk and (B=20)
    # the first and last lanes reading one word, so one slice, at the
    # chunk's first step; the same without a helper thread at the default
    # R and with one at R = 3, where it takes part
    spec = CONFIGS[name]
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(4))
    ids = (Rng(5).uniform01(batch * 13) * spec.v).astype(np.int64).reshape(batch, 13)
    ids[-1, 6] = ids[0, 6]
    first = SequenceChunk(ids[:, :6], ids[:, 1:7], np.arange(6) == 0)
    second = SequenceChunk(ids[:, 6:12], ids[:, 7:13], np.zeros(6, dtype=bool))
    runs = []
    for helper, rows in ((None, eval_rows(spec)), (helper_pool, 3)):
        monkeypatch.setattr(rrntn.models, "_helper", helper)
        monkeypatch.setattr(rrntn.models, "EVAL_BLOCK_BYTES", rows * spec.v * 8)
        _, _, _, state = forward_chunk(params, spec, first, mode="train", rng=Rng(2), p_drop=0.3)
        for compact in (False, True):
            loss, _, cache, _ = forward_chunk(params, spec, second, state, mode="train",
                                              rng=Rng(3), p_drop=0.3)
            rows = word_rows(spec, cache)
            runs.append((loss, *backward_chunk(params, spec, cache, compact=compact)))
    for run, again in zip(runs[:2], runs[2:]):
        assert again[0] == run[0]
        assert list(again[1]) == list(run[1])
        assert all(np.array_equal(again[1][block], g) for block, g in run[1].items())
        assert all(np.array_equal(a, b) for a, b in zip(again[2], run[2], strict=True))
    dense, compact = runs[0][1], runs[1][1]
    assert list(compact) == list(dense) == list(param_shapes(spec))
    for block, g in dense.items():
        assert g.shape == param_shapes(spec)[block]
        expected = g[rows[block]] if block in rows else g
        assert np.array_equal(compact[block], expected), block


def _per_step_gradients(params, spec, chunk, cache, probs, state_grad_in):
    """Literal BPTT that accumulates every gradient step by step: np.outer per
    lane into the slice, dpre.T @ x per weight and np.add.at per step into
    the embedding, in reverse time order (rrntn and lstm)."""
    grads = {name: np.zeros(shape) for name, shape in param_shapes(spec).items()}
    b, t_len = chunk.inputs.shape
    lanes = np.arange(b)
    sliced = "u_slices" if spec.family == "rrntn" else "u_cand_slices"
    u, bias = params[sliced], sliced.replace("u_", "b_")
    dstate = tuple(state_grad_in)
    for t in reversed(range(t_len)):
        entry, ids = cache.steps[t], chunk.inputs[:, t]
        mask = cache.out_masks[t] if len(cache.out_masks) else None
        hd = entry["h"] if mask is None else entry["h"] * mask
        dl = probs[t].copy()
        dl[lanes, chunk.targets[:, t]] -= 1.0
        grads["w_out"] += dl.T @ hd
        grads["b_out"] += dl.sum(axis=0)
        dh = dl @ params["w_out"]
        dh = (dh if mask is None else dh * mask) + dstate[0]
        h_prev = entry["h_prev"]
        if spec.family == "rrntn":
            d_sliced = dx_in = dh * entry["h"] * (1.0 - entry["h"])
            dh_prev, dstate_rest = np.zeros_like(dh), ()
        else:
            f, i, o, cc, c = (entry[k] for k in ("f", "i", "o", "cc", "c"))
            x_in = params["w_emb"][:, ids].T * cache.emb_masks[t]
            tanh_c = np.tanh(c)
            dc = dstate[1] + dh * o * (1.0 - tanh_c * tanh_c)
            gates = {"forget": dc * entry["c_prev"] * f * (1.0 - f),
                     "input": dc * cc * i * (1.0 - i), "outgate": dh * tanh_c * o * (1.0 - o)}
            d_sliced = dc * i * (1.0 - cc * cc)
            dh_prev, dstate_rest = np.zeros_like(dh), (dc * f,)
            dx_in = d_sliced @ params["w_cand"]
            grads["w_cand"] += d_sliced.T @ x_in
            for gate, dpre in gates.items():
                grads[f"w_{gate}"] += dpre.T @ x_in
                grads[f"u_{gate}"] += dpre.T @ h_prev
                grads[f"b_{gate}"] += dpre.sum(axis=0)
                dh_prev += dpre @ params[f"u_{gate}"]
                dx_in = dx_in + dpre @ params[f"w_{gate}"]
            dx_in = dx_in * cache.emb_masks[t]
        for lane in lanes:
            s = entry["s"][lane]
            grads[sliced][s] += np.outer(d_sliced[lane], h_prev[lane])
            grads[bias][s] += d_sliced[lane]
            dh_prev[lane] += u[s].T @ d_sliced[lane]
        np.add.at(grads["w_emb"], (slice(None), ids), dx_in.T)
        dstate = (dh_prev, *dstate_rest)
    return grads, dstate


@pytest.mark.parametrize("spec, batch, p_drop", [
    (ModelSpec("rrntn", v=13, h=5, k=3), 2, 0.0),
    (ModelSpec("lstm", v=13, h=5, e=4, k=3), 3, 0.3),
])
def test_chunk_gradients_match_per_step_accumulation(spec, batch, p_drop):
    # the backward forms each gradient once per chunk; a literal per-step
    # accumulation must agree up to summation order. Under policy f with
    # K=3, words 2.. share slice 2, so lanes share a slice within a step.
    params, chunk = _dropout_case(spec, batch)
    state_in, state_grad_in = _random_states(spec, batch, 7)
    _, _, cache, _ = forward_chunk(params, spec, chunk, state_in, mode="train", rng=Rng(2),
                                   p_drop=p_drop)
    slices = np.stack([entry["s"] for entry in cache.steps])
    assert any(len(set(row)) < batch for row in slices)
    oracle, oracle_dstate = _per_step_gradients(params, spec, chunk, cache, cache.probs.copy(),
                                                state_grad_in)
    grads, dstate = backward_chunk(params, spec, cache, state_grad_in=state_grad_in)
    assert list(grads) == list(oracle)
    for name, g in oracle.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name
    for d, d_oracle in zip(dstate, oracle_dstate):
        assert np.abs(d - d_oracle).max() <= 1e-12 * np.abs(d_oracle).max()

