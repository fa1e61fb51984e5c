import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed.blocks import (BlockLayout, ConfigurationError, block_mean,
                          broadcast_blocks)


def layout_ab():
    return BlockLayout.from_sizes([2, 2])


def test_block_mean_example():
    means = block_mean(np.array([1.0, 2.0, 3.0, 4.0]), layout_ab())
    assert means.shape == (2,) and np.allclose(means, [1.5, 3.5])


def test_block_mean_zeros_and_constant():
    assert np.all(block_mean(np.zeros(4), layout_ab()) == 0)
    c = 2.75
    assert np.all(block_mean(np.full(4, c), layout_ab()) == c)


def test_block_mean_of_a_stack_is_bitwise_per_row():
    # A round's (S, d) second moments are averaged in one call; each row
    # must be bitwise the (d,) call on it, also for blocks longer than
    # NumPy's pairwise-summation block.
    rng = np.random.default_rng(5)
    layout = BlockLayout.from_sizes([1, 7, 130, 500])
    v = (rng.standard_normal((6, layout.dim)) ** 2
         * 10.0 ** rng.uniform(-6, 2, (6, 1)))
    got = block_mean(v, layout)
    assert got.shape == (6, 4)
    assert np.array_equal(got, np.stack([block_mean(row, layout)
                                         for row in v]))
    for bad in (np.zeros((2, 3, layout.dim)), np.zeros((2, layout.dim + 1))):
        with pytest.raises(ConfigurationError):
            block_mean(bad, layout)


def test_block_mean_dim_mismatch():
    with pytest.raises(ConfigurationError):
        block_mean(np.zeros(5), layout_ab())


def test_broadcast_example():
    out = broadcast_blocks(np.array([1.5, 3.5]), layout_ab())
    assert np.array_equal(out, [1.5, 1.5, 3.5, 3.5])


def test_broadcast_needs_one_mean_per_block():
    with pytest.raises(ConfigurationError):
        broadcast_blocks(np.array([1.5, 3.5, 0.0]), layout_ab())


def test_broadcast_single_block_constant():
    layout = BlockLayout.from_sizes([6])
    out = broadcast_blocks(np.array([0.25]), layout)
    assert np.all(out == 0.25)


def test_layout_validation():
    with pytest.raises(ConfigurationError):
        BlockLayout((0, 0))
    with pytest.raises(ConfigurationError):
        BlockLayout((0,))
    with pytest.raises(ConfigurationError):
        BlockLayout((1, 3))
    with pytest.raises(ConfigurationError):
        BlockLayout.from_sizes([])


@st.composite
def vector_and_layout(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    layout = BlockLayout.from_sizes(sizes)
    vals = draw(st.lists(
        st.floats(0, 1e6, allow_nan=False, allow_infinity=False),
        min_size=layout.dim, max_size=layout.dim))
    return np.array(vals), layout


@given(vector_and_layout())
@settings(max_examples=100, deadline=None)
def test_broadcast_preserves_block_sums(vl):
    v, layout = vl
    recon = broadcast_blocks(block_mean(v, layout), layout)
    for s in layout.slices():
        expected = v[s].sum()
        assert abs(recon[s].sum() - expected) <= 1e-12 * max(1.0, abs(expected))


@given(vector_and_layout(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_block_mean_within_block_permutation_invariant(vl, rnd):
    v, layout = vl
    shuffled = v.copy()
    for s in layout.slices():
        seg = list(shuffled[s])
        rnd.shuffle(seg)
        shuffled[s] = seg
    a = block_mean(v, layout)
    b = block_mean(shuffled, layout)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
