"""Analytic BPTT gradients against central finite differences.

Every family is checked at a small size where perturbing each scalar twice
is affordable; the tolerance is 1e-4 relative error at 64-bit precision.
grad_check's chunk has two lanes sharing a slice, dropout on, a carried
incoming state, a reset partway through and a pull on the outgoing state,
so its rows cover the batched training path and backward_chunk's state
gradient, cut at the reset.
"""

import numpy as np
import pytest

from rrntn.linalg import Rng
from rrntn.models import ModelSpec
from rrntn.training import grad_check

CONFIGS = {
    "rrntn_k1": ModelSpec("rrntn", v=20, h=8, k=1),
    "rrntn_k5": ModelSpec("rrntn", v=20, h=8, k=5),
    "mrnn": ModelSpec("mrnn", v=20, h=8, factor=6),
    "gru": ModelSpec("gru", v=20, h=8, e=6, k=1),
    "r_gru": ModelSpec("gru", v=20, h=8, e=6, k=5),
    "lstm": ModelSpec("lstm", v=20, h=8, e=6, k=1),
    "r_lstm": ModelSpec("lstm", v=20, h=8, e=6, k=3),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_gradients_match_finite_differences(name):
    report = grad_check(CONFIGS[name], Rng(1234), t_steps=5)
    assert report.passed, report.format()


def test_gradcheck_report_is_deterministic():
    a = grad_check(ModelSpec("rrntn", v=10, h=4, k=3), Rng(5), t_steps=4)
    b = grad_check(ModelSpec("rrntn", v=10, h=4, k=3), Rng(5), t_steps=4)
    assert a.block_errors == b.block_errors


def test_gradcheck_covers_every_block():
    spec = ModelSpec("lstm", v=10, h=4, e=3, k=2)
    report = grad_check(spec, Rng(2), t_steps=3)
    assert set(report.block_errors) == {
        "w_emb", "w_forget", "u_forget", "b_forget", "w_input", "u_input",
        "b_input", "w_outgate", "u_outgate", "b_outgate", "w_cand",
        "u_cand_slices", "b_cand_slices", "w_out", "b_out", "state_in[0]", "state_in[1]",
    }


def test_identity_policy_full_tensor_gradients():
    report = grad_check(ModelSpec("rrntn", v=12, h=4, k=12, policy="identity"),
                        Rng(3), t_steps=4)
    assert report.passed, report.format()


def test_fmod_policy_gradients():
    report = grad_check(ModelSpec("rrntn", v=16, h=6, k=4, policy="fmod"),
                        Rng(4), t_steps=4)
    assert report.passed, report.format()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rrntn_batched_gradients_match_finite_differences(name):
    # the batched training chunk at another seed and length: two lanes that
    # share a slice, dropout 0.3, a carried incoming state and a pull on the
    # outgoing state, with a report row for each incoming state array
    spec = CONFIGS[name]
    report = grad_check(spec, Rng(11), t_steps=4)
    n_state = 2 if spec.family == "lstm" else 1
    assert {f"state_in[{i}]" for i in range(n_state)} <= set(report.block_errors)
    assert report.passed, report.format()


def _two_lane_case(spec, t_len, seed):
    from rrntn.models import InitScheme, init_params

    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(seed))
    ids = (Rng(seed + 1).uniform01(2 * (t_len + 1)) * spec.v).astype(np.int64).reshape(2, -1)
    return params, ids


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_backward_returns_every_block_and_one_state_grad_per_state_array(name):
    # the contract grad_check and outside gradient checks read: one dense
    # gradient per parameter block, in checkpoint order, and a (B, H)
    # gradient for each array of the incoming state
    from rrntn.corpus import SequenceChunk
    from rrntn.models import backward_chunk, forward_chunk, param_shapes

    spec = CONFIGS[name]
    params, ids = _two_lane_case(spec, 4, 31)
    chunk = SequenceChunk(ids[:, :-1], ids[:, 1:], np.arange(4) == 0)
    _, _, cache, state = forward_chunk(params, spec, chunk, mode="train")
    grads, dstate = backward_chunk(params, spec, cache)
    assert [(k, g.shape) for k, g in grads.items()] == list(param_shapes(spec).items())
    assert len(dstate) == len(state) == (2 if spec.family == "lstm" else 1)
    assert all(d.shape == (2, spec.h) for d in dstate)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_state_carried_between_chunks_matches_one_chunk(name):
    # a 2T chunk against two T chunks that carry the state between them, both
    # from one random incoming state: one shared counter-based stream draws
    # the same dropout masks, the second half runs backward first and hands
    # its state gradient to the first
    from rrntn.corpus import SequenceChunk
    from rrntn.models import backward_chunk, forward_chunk, zero_state

    spec, t_len = CONFIGS[name], 3
    params, ids = _two_lane_case(spec, 2 * t_len, 41)
    whole = SequenceChunk(ids[:, :-1], ids[:, 1:], np.zeros(2 * t_len, dtype=bool))
    halves = [SequenceChunk(ids[:, :t_len], ids[:, 1:t_len + 1], np.zeros(t_len, dtype=bool)),
              SequenceChunk(ids[:, t_len:-1], ids[:, t_len + 1:], np.zeros(t_len, dtype=bool))]
    data = Rng(42)
    state_in = tuple(data.uniform01(2 * spec.h).reshape(2, -1) - 0.5 for _ in zero_state(spec, 2))

    _, _, cache, _ = forward_chunk(params, spec, whole, state_in, mode="train", rng=Rng(43),
                                   p_drop=0.3)
    grads, dstate = backward_chunk(params, spec, cache)
    rng, state, caches = Rng(43), state_in, []
    for chunk in halves:
        _, _, part, state = forward_chunk(params, spec, chunk, state, mode="train", rng=rng,
                                          p_drop=0.3)
        caches.append(part)
    late, carried = backward_chunk(params, spec, caches[1])
    early, dstate_split = backward_chunk(params, spec, caches[0], state_grad_in=carried)

    for block, g in grads.items():
        assert np.abs(early[block] + late[block] - g).max() <= 1e-12 * np.abs(g).max(), block
    for d, d_split in zip(dstate, dstate_split):
        assert np.abs(d).max() > 0
        assert np.abs(d_split - d).max() <= 1e-12 * np.abs(d).max()
