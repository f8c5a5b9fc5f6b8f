"""Bitwise reduction identities.

The unified tensor cell configured to K=1 must equal the plain logistic
recurrence; configured to K=V with the identity mapping (and tied biases)
it must equal a literal per-word tensor net with one shared bias; the gated
cells at K=1 must equal plain GRU / LSTM cells. Forward states, output
distributions, the loss, and gradients are compared for exact equality on
random parameter draws; the references share only the low-level kernels and
reimplement the model math directly.
"""

import numpy as np
import pytest

import reference
from rrntn.corpus import SequenceChunk
from rrntn.linalg import Rng
from rrntn.models import (
    InitScheme,
    ModelSpec,
    backward_chunk,
    forward_chunk,
    init_params,
)

V, H, E, T = 20, 8, 6, 5


def _random_case(spec, seed, batch, t_len=T):
    """Random parameters and a chunk of `batch` lanes; with two or more lanes,
    lane 1 repeats lane 0's input word at step 2, so one slice is selected
    twice in the same step. The chunk does not reset, so backward's state
    gradient is the references' gradient at their zero initial state."""
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(seed))
    data = Rng(seed).derive(99)
    ids = (data.uniform01(batch * (t_len + 1)) * spec.v).astype(np.int64).reshape(batch, -1)
    if batch > 1:
        ids[1, 2] = ids[0, 2]
    chunk = SequenceChunk(ids[:, :-1], ids[:, 1:], np.zeros(t_len, dtype=bool))
    return params, chunk


def _run_main(params, spec, chunk):
    loss, _, cache, state = forward_chunk(params, spec, chunk, mode="train")
    probs = cache.probs.copy()  # backward_chunk turns cache.probs into dlogits
    grads, state_grad = backward_chunk(params, spec, cache)
    return loss, cache, probs, state, grads, state_grad


def assert_srnn_reduction(seed, batch=1):
    spec = ModelSpec("rrntn", v=V, h=H, k=1)
    params, chunk = _random_case(spec, seed, batch)
    loss, cache, probs, state, grads, state_grad = _run_main(params, spec, chunk)

    ref_params = {"w_emb": params["w_emb"], "u": params["u_slices"][0],
                  "b": params["b_slices"][0], "w_out": params["w_out"],
                  "b_out": params["b_out"]}
    ref = reference.srnn_run(ref_params, chunk.inputs, chunk.targets, np.zeros((batch, H)))

    assert ref["loss"] == loss
    for t in range(chunk.inputs.shape[1]):
        assert np.array_equal(ref["hs"][t], cache.steps[t]["h"])
        assert np.array_equal(ref["probs"][t], probs[t])
    assert np.array_equal(ref["hs"][-1], state[0])
    assert np.array_equal(ref["grads"]["w_emb"], grads["w_emb"])
    assert np.array_equal(ref["grads"]["u"], grads["u_slices"][0])
    assert np.array_equal(ref["grads"]["b"], grads["b_slices"][0])
    assert np.array_equal(ref["grads"]["w_out"], grads["w_out"])
    assert np.array_equal(ref["grads"]["b_out"], grads["b_out"])
    assert np.array_equal(ref["dh0"], state_grad[0])


def assert_rntn_reduction(seed, batch=1):
    spec = ModelSpec("rrntn", v=V, h=H, k=V, policy="identity")
    params, chunk = _random_case(spec, seed, batch)
    shared_bias = params["b_slices"][0].copy()
    params["b_slices"][:] = shared_bias  # tie the bias rows to match one shared bias
    loss, cache, probs, state, grads, state_grad = _run_main(params, spec, chunk)

    ref_params = {"w_emb": params["w_emb"], "u_tensor": params["u_slices"],
                  "b": shared_bias, "w_out": params["w_out"], "b_out": params["b_out"]}
    ref = reference.rntn_run(ref_params, chunk.inputs, chunk.targets, np.zeros((batch, H)))

    assert ref["loss"] == loss
    for t in range(chunk.inputs.shape[1]):
        assert np.array_equal(ref["probs"][t], probs[t])
    assert np.array_equal(ref["hs"][-1], state[0])
    assert np.array_equal(ref["grads"]["u_tensor"], grads["u_slices"])
    assert np.array_equal(ref["grads"]["w_emb"], grads["w_emb"])
    assert np.array_equal(ref["dh0"], state_grad[0])
    # the tied bias accumulates per word on one side and in time order on the
    # other, so the comparison is up to summation order
    np.testing.assert_allclose(grads["b_slices"].sum(axis=0), ref["grads"]["b"],
                               rtol=1e-12, atol=1e-15)


def assert_gru_reduction(seed, batch=1):
    spec = ModelSpec("gru", v=V, h=H, e=E, k=1)
    params, chunk = _random_case(spec, seed, batch)
    loss, cache, probs, state, grads, state_grad = _run_main(params, spec, chunk)

    ref_params = {"w_emb": params["w_emb"], "w_out": params["w_out"], "b_out": params["b_out"],
                  "u_cand": params["u_cand_slices"][0], "b_cand": params["b_cand_slices"][0]}
    for gate in ("reset", "update"):
        ref_params[f"w_{gate}"] = params[f"w_{gate}"]
        ref_params[f"u_{gate}"] = params[f"u_{gate}"]
        ref_params[f"b_{gate}"] = params[f"b_{gate}"]
    ref_params["w_cand"] = params["w_cand"]
    ref = reference.gru_run(ref_params, chunk.inputs, chunk.targets, np.zeros((batch, H)))

    assert ref["loss"] == loss
    for t in range(chunk.inputs.shape[1]):
        assert np.array_equal(ref["probs"][t], probs[t])
    assert np.array_equal(ref["hs"][-1], state[0])
    for name in ("w_emb", "w_reset", "u_reset", "b_reset", "w_update", "u_update",
                 "b_update", "w_cand", "w_out", "b_out"):
        assert np.array_equal(ref["grads"][name], grads[name]), name
    assert np.array_equal(ref["grads"]["u_cand"], grads["u_cand_slices"][0])
    assert np.array_equal(ref["grads"]["b_cand"], grads["b_cand_slices"][0])
    assert np.array_equal(ref["dh0"], state_grad[0])


def assert_lstm_reduction(seed, batch=1):
    spec = ModelSpec("lstm", v=V, h=H, e=E, k=1)
    params, chunk = _random_case(spec, seed, batch)
    loss, cache, probs, state, grads, state_grad = _run_main(params, spec, chunk)

    ref_params = {"w_emb": params["w_emb"], "w_out": params["w_out"], "b_out": params["b_out"],
                  "u_cand": params["u_cand_slices"][0], "b_cand": params["b_cand_slices"][0],
                  "w_cand": params["w_cand"]}
    for gate in ("forget", "input", "outgate"):
        ref_params[f"w_{gate}"] = params[f"w_{gate}"]
        ref_params[f"u_{gate}"] = params[f"u_{gate}"]
        ref_params[f"b_{gate}"] = params[f"b_{gate}"]
    ref = reference.lstm_run(ref_params, chunk.inputs, chunk.targets,
                             np.zeros((batch, H)), np.zeros((batch, H)))

    assert ref["loss"] == loss
    for t in range(chunk.inputs.shape[1]):
        assert np.array_equal(ref["probs"][t], probs[t])
    assert np.array_equal(ref["hs"][-1], state[0])
    for name in ("w_emb", "w_forget", "u_forget", "b_forget", "w_input", "u_input",
                 "b_input", "w_outgate", "u_outgate", "b_outgate", "w_cand",
                 "w_out", "b_out"):
        assert np.array_equal(ref["grads"][name], grads[name]), name
    assert np.array_equal(ref["grads"]["u_cand"], grads["u_cand_slices"][0])
    assert np.array_equal(ref["grads"]["b_cand"], grads["b_cand_slices"][0])
    assert np.array_equal(ref["dh0"], state_grad[0])
    assert np.array_equal(ref["dc0"], state_grad[1])


ALL_REDUCTIONS = {
    "srnn": assert_srnn_reduction,
    "rntn": assert_rntn_reduction,
    "gru": assert_gru_reduction,
    "lstm": assert_lstm_reduction,
}


@pytest.mark.parametrize("name", sorted(ALL_REDUCTIONS))
@pytest.mark.parametrize("seed", range(10))
def test_reduction(name, seed):
    ALL_REDUCTIONS[name](seed)


@pytest.mark.parametrize("name", sorted(ALL_REDUCTIONS))
@pytest.mark.parametrize("seed", range(10))
def test_reduction_two_lanes(name, seed):
    ALL_REDUCTIONS[name](seed, batch=2)
