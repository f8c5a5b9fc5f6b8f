"""Analytic BPTT gradients against central finite differences.

Every family is checked at a small size where perturbing each scalar twice
is affordable; the tolerance is 1e-4 relative error at 64-bit precision.
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
        "u_cand_slices", "b_cand_slices", "w_out", "b_out",
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
    # two lanes share a slice at steps 0 and 1 (ids 7 and 12 share the last
    # slice for K < 8), dropout is on, the incoming state is carried and the
    # objective also pulls on the outgoing state: loss + sum(g * state_out)
    from rrntn.corpus import SequenceChunk
    from rrntn.models import InitScheme, backward_chunk, forward_chunk, init_params

    spec = CONFIGS[name]
    params = init_params(spec, InitScheme.uniform(-0.5, 0.5), Rng(11))
    inputs = np.array([[0, 7, 3, 12], [0, 12, 5, 9]], dtype=np.int64)
    targets = np.array([[7, 3, 12, 1], [12, 5, 9, 4]], dtype=np.int64)
    chunk = SequenceChunk(inputs, targets, reset_before=False)
    data = Rng(12)
    n_state = 2 if spec.family == "lstm" else 1
    state_in = tuple(data.uniform01(2 * spec.h).reshape(2, spec.h) - 0.5 for _ in range(n_state))
    g = tuple(data.uniform01(2 * spec.h).reshape(2, spec.h) - 0.5 for _ in range(n_state))

    def run():
        # a fresh stream per call draws the same dropout masks every time
        return forward_chunk(params, spec, chunk, state_in, mode="train",
                             rng=Rng(13), p_drop=0.3)

    def objective():
        loss, _, _, state_out = run()
        return loss + sum(float(np.sum(gi * si)) for gi, si in zip(g, state_out))

    _, _, cache, _ = run()
    grads, _ = backward_chunk(params, spec, cache, state_grad_in=g)

    eps = 1e-5
    worst = 0.0
    for block, arr in params.items():
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = objective()
            flat[idx] = orig - eps
            down = objective()
            flat[idx] = orig
            numeric = (up - down) / (2 * eps)
            a = grads[block].reshape(-1)[idx]
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-3))
    assert worst < 1e-4
