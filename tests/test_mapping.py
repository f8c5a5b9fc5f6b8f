import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrntn.mapping import MappingPolicy, slice_assignments, slice_histogram


def test_rank_min_examples():
    assert MappingPolicy("f", 100).slices(1) == 0
    assert MappingPolicy("f", 100).slices(150) == 99
    assert MappingPolicy("f", 1).slices(57) == 0  # K=1 collapses everything onto one slice


def test_rank_min_rejects_bad_rank():
    with pytest.raises(ValueError):
        MappingPolicy("f", 10).slices(0)


def test_rank_mod_examples():
    assert MappingPolicy("fmod", 100).slices(150) == 50
    assert MappingPolicy("fmod", 100).slices(100) == 0
    assert MappingPolicy("fmod", 1).slices(12345) == 0


@given(st.integers(min_value=1, max_value=10_000), st.integers(min_value=1, max_value=500))
@settings(max_examples=100)
def test_both_policies_land_in_range(rank, k):
    assert 0 <= MappingPolicy("f", k).slices(rank) < k
    assert 0 <= MappingPolicy("fmod", k).slices(rank) < k


@given(st.integers(min_value=1, max_value=500))
@settings(max_examples=50)
def test_rank_min_monotone_and_surjective(k):
    ranks = np.arange(1, k + 101)
    out = MappingPolicy("f", k).slices(ranks)
    assert np.all(np.diff(out) >= 0)
    assert set(out.tolist()) == set(range(k))


def test_rank_min_is_identity_at_k_equals_v():
    v = 37
    ranks = np.arange(1, v + 1)
    assert np.array_equal(MappingPolicy("f", v).slices(ranks), ranks - 1)


def test_policies_coincide_at_k_one():
    ranks = np.arange(1, 200)
    assert np.array_equal(MappingPolicy("f", 1).slices(ranks),
                          MappingPolicy("fmod", 1).slices(ranks))


def test_policies_are_bijections_at_k_equals_v():
    v = 29
    ranks = np.arange(1, v + 1)
    assert sorted(MappingPolicy("f", v).slices(ranks).tolist()) == list(range(v))
    assert sorted(MappingPolicy("fmod", v).slices(ranks).tolist()) == list(range(v))


def test_histogram_rank_min_closed_form():
    counts = slice_histogram(10_000, MappingPolicy("f", 100))
    assert counts.sum() == 10_000
    assert np.all(counts[:99] == 1)
    assert counts[99] == 9_901


def test_histogram_identity_all_ones():
    counts = slice_histogram(10_000, MappingPolicy("identity", 10_000))
    assert np.all(counts == 1)


def test_histogram_rank_mod_enumerated():
    # ranks 1..10 mod 3 -> slice 0 gets ranks {3,6,9}, slice 1 {1,4,7,10}, slice 2 {2,5,8}
    counts = slice_histogram(10, MappingPolicy("fmod", 3))
    assert counts.tolist() == [3, 4, 3]


def test_policy_validation():
    with pytest.raises(ValueError):
        MappingPolicy("identity", 5).validate_for(10)
    with pytest.raises(ValueError):
        MappingPolicy("f", 11).validate_for(10)
    with pytest.raises(ValueError):
        MappingPolicy("nope", 3)


@pytest.mark.parametrize("name,k,closed_form", [
    ("f", 4, lambda rank: min(rank, 4) - 1),
    ("fmod", 3, lambda rank: rank % 3),
    ("identity", 10, lambda rank: rank - 1),
], ids=["f", "fmod", "identity"])
def test_assignments_index_by_id(name, k, closed_form):
    # ids are ranks shifted by one, so id 0 is rank 1
    table = slice_assignments(10, MappingPolicy(name, k))
    assert table.dtype == np.int64
    assert table.tolist() == [closed_form(i + 1) for i in range(10)]
