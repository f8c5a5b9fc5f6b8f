import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rrntn.linalg import (
    PIECE,
    Rng,
    clip_by_global_norm,
    dropout_mask,
    global_norm,
    sample_gaussian,
    sample_uniform,
    softmax,
)


def test_softmax_uniform():
    np.testing.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=0, atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    p = softmax(np.array([1000.0, 1000.0]))
    assert np.array_equal(p, np.array([0.5, 0.5]))


def test_softmax_closed_form():
    # exp(0) / (exp(0) + 3) = 1/4 when the other entry is ln 3
    np.testing.assert_allclose(softmax(np.array([0.0, np.log(3.0)])),
                               [0.25, 0.75], rtol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = Rng(3)
    z = sample_gaussian(rng, 0.0, 5.0, 40).reshape(4, 10)
    z_before = z.copy()
    p = softmax(z)
    assert np.array_equal(z, z_before)  # the in-place work happens on a copy
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(4), rtol=0, atol=1e-12)


def test_softmax_in_place_matches_copy():
    z = sample_gaussian(Rng(3), 0.0, 5.0, 40).reshape(4, 10)
    p = softmax(z)
    assert softmax(z, out=z) is z
    assert np.array_equal(z, p)


@given(st.integers(min_value=-8, max_value=8).map(float))
@settings(max_examples=30)
def test_softmax_shift_invariance(c):
    # exact when z + c rounds to nothing: integers keep the additions exact
    z = np.array([-3.0, 0.0, 1.0, 4.0])
    assert np.array_equal(softmax(z + c), softmax(z))


def test_gaussian_zero_stddev():
    out = sample_gaussian(Rng(0), 1.5, 0.0, 10)
    assert np.array_equal(out, np.full(10, 1.5))


def test_gaussian_determinism():
    a = sample_gaussian(Rng(11), 0.0, 1.0, 1000)
    b = sample_gaussian(Rng(11), 0.0, 1.0, 1000)
    assert np.array_equal(a, b)


def test_gaussian_sample_stddev():
    out = sample_gaussian(Rng(5), 0.0, 0.001, 1_000_000)
    assert abs(out.std() - 0.001) / 0.001 < 0.01


def test_gaussian_rejects_negative_stddev():
    with pytest.raises(ValueError):
        sample_gaussian(Rng(0), 0.0, -1.0, 4)


def test_uniform_constant_when_degenerate():
    out = sample_uniform(Rng(0), 0.3, 0.3, 8)
    assert np.array_equal(out, np.full(8, 0.3))


def test_uniform_determinism():
    assert np.array_equal(sample_uniform(Rng(2), -1, 1, 100),
                          sample_uniform(Rng(2), -1, 1, 100))


def test_uniform_mean_and_range():
    out = sample_uniform(Rng(8), 0.2, 0.6, 1_000_000)
    assert np.all(out >= 0.2) and np.all(out < 0.6)
    assert abs(out.mean() - 0.4) / 0.4 < 0.01
    sym = sample_uniform(Rng(8), -0.05, 0.05, 1_000_000)
    assert np.all(np.abs(sym) <= 0.05)


def test_dropout_mask_p_zero():
    assert np.array_equal(dropout_mask(Rng(0), 16, 0.0), np.ones(16))


def test_dropout_mask_inverted_scaling():
    mask = dropout_mask(Rng(1), 1000, 0.5)
    kept = mask[mask != 0]
    assert np.all(kept == 2.0)


def test_dropout_mask_preserves_expectation():
    mask = dropout_mask(Rng(7), 1_000_000, 0.5)
    assert abs(mask.mean() - 1.0) < 0.01


def test_dropout_mask_rejects_p_one():
    with pytest.raises(ValueError):
        dropout_mask(Rng(0), 4, 1.0)


def test_clip_scales_to_max_norm():
    grads = [np.full(4, 3.0), np.full(4, 4.0)]  # global norm 10
    _, factor = clip_by_global_norm(grads, 5.0)
    assert factor == 0.5
    assert abs(global_norm(grads) - 5.0) < 1e-12


def test_clip_leaves_small_gradients():
    grads = [np.array([3.0])]
    _, factor = clip_by_global_norm(grads, 5.0)
    assert factor == 1.0
    assert grads[0][0] == 3.0


def test_clip_zero_gradients_unchanged():
    grads = [np.zeros(3)]
    _, factor = clip_by_global_norm(grads, 5.0)
    assert factor == 1.0
    assert np.array_equal(grads[0], np.zeros(3))


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
       st.floats(min_value=0.1, max_value=50))
@settings(max_examples=50)
def test_clip_never_exceeds_max_norm(values, max_norm):
    grads = [np.array(values)]
    clip_by_global_norm(grads, max_norm)
    assert global_norm(grads) <= max_norm * (1 + 1e-12)


def test_derived_streams_are_independent_and_stable():
    root = Rng(123)
    a = root.derive(1, 4).uniform01(5)
    b = root.derive(1, 5).uniform01(5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Rng(123).derive(1, 4).uniform01(5))


def test_stream_position_advances():
    r = Rng(3)
    first = r.uniform01(4)
    second = r.uniform01(4)
    assert not np.array_equal(first, second)
    both = Rng(3).uniform01(8)
    assert np.array_equal(np.concatenate([first, second]), both)


P = PIECE
PIECE_EDGES = [0, 1, 2, 3, P - 1, P, P + 1, 2 * P - 1, 2 * P, 2 * P + 1, 4 * P + 5]
SAMPLERS = {
    "uniform01": (lambda rng, n, **kw: rng.uniform01(n, **kw),
                  lambda ref, n: ref.uniform01(n)),
    "uniform": (lambda rng, n, **kw: sample_uniform(rng, -0.05, 0.05, n, **kw),
                lambda ref, n: reference.sample_uniform(ref, -0.05, 0.05, n)),
    "gaussian": (lambda rng, n, **kw: sample_gaussian(rng, 0.0, 0.001, n, **kw),
                 lambda ref, n: reference.sample_gaussian(ref, 0.0, 0.001, n)),
    "gaussian-shifted": (lambda rng, n, **kw: sample_gaussian(rng, 0.5, 2.0, n, **kw),
                         lambda ref, n: reference.sample_gaussian(ref, 0.5, 2.0, n)),
}


@pytest.mark.parametrize("earlier", [0, 5])
@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_pieced_draws_equal_the_whole_array_reference(kind, earlier):
    # Sizes on both sides of each piece edge, from a fresh stream and after
    # earlier draws; the stream must end where the reference's does.
    draw, ref_draw = SAMPLERS[kind]
    for n in PIECE_EDGES:
        rng, ref = Rng(41), reference.WholeArrayRng(41)
        rng.uniform01(earlier)
        ref.uniform01(earlier)
        got, want = draw(rng, n), ref_draw(ref, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n
        assert np.array_equal(rng.uniform01(3), ref.uniform01(3)), n


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
def test_draws_into_out_equal_fresh_draws(kind):
    draw, _ = SAMPLERS[kind]
    n = P + 3
    out = np.full(n, np.nan)
    assert draw(Rng(9), n, out=out) is out
    assert np.array_equal(out, draw(Rng(9), n))


def test_raw_draws_equal_the_whole_array_reference():
    for n in PIECE_EDGES:
        assert np.array_equal(Rng(2**64 - 1).raw64(n), reference.WholeArrayRng(2**64 - 1).raw64(n))


@pytest.mark.parametrize("p", [0, 1, 7, P - 1, P, 2 * P + 1])
def test_at_continues_the_stream(p):
    rng = Rng(17)
    rng.uniform01(p)
    assert np.array_equal(Rng(17).at(p).uniform01(P + 2), rng.uniform01(P + 2))


def test_at_rejects_a_negative_position():
    with pytest.raises(ValueError):
        Rng(0).at(-1)


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("bad", [
    np.empty(9),  # wrong size
    np.empty((2, 4)),  # right size, wrong shape
    np.empty(8, dtype=np.float32),
    np.empty(16)[::2],  # not contiguous
])
def test_out_must_match_exactly(kind, bad):
    draw, _ = SAMPLERS[kind]
    with pytest.raises(ValueError, match="out must be"):
        draw(Rng(0), 8, out=bad)
