import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpfed.blocks import (BlockLayout, ConfigurationError, block_mean,
                          broadcast_blocks)


def layout_ab():
    return BlockLayout.from_sizes([("A", 2), ("B", 2)])


def test_block_mean_example():
    means = block_mean(np.array([1.0, 2.0, 3.0, 4.0]), layout_ab())
    assert means.shape == (2,) and np.allclose(means, [1.5, 3.5])


def test_block_mean_zeros_and_constant():
    assert np.all(block_mean(np.zeros(4), layout_ab()) == 0)
    c = 2.75
    assert np.all(block_mean(np.full(4, c), layout_ab()) == c)


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
    layout = BlockLayout.from_sizes([("all", 6)])
    out = broadcast_blocks(np.array([0.25]), layout)
    assert np.all(out == 0.25)


def test_layout_validation():
    with pytest.raises(ConfigurationError):
        BlockLayout(("a",), (0, 0))
    with pytest.raises(ConfigurationError):
        BlockLayout(("a", "b"), (0, 2))
    with pytest.raises(ConfigurationError):
        BlockLayout(("a",), (1, 3))


@st.composite
def vector_and_layout(draw):
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    layout = BlockLayout.from_sizes([(f"b{i}", s) for i, s in enumerate(sizes)])
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
