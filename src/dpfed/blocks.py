"""Flat parameter vectors and block layouts.

A parameter vector is a 1-D float64 numpy array; every optimizer quantity
(parameters, gradients, moment estimates, alignment directions) lives in
this representation. A BlockLayout splits it into contiguous ranges so that
second-moment statistics can be reduced to one number per block.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Any malformed input, from a config key to a dataset; exit code 2."""


@dataclass(frozen=True)
class BlockLayout:
    """Partition of [0, dim) into contiguous blocks.

    ``bounds`` has length ``num_blocks + 1`` with bounds[0] == 0 and
    bounds[-1] == dim; block b covers [bounds[b], bounds[b+1]).
    """

    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) < 2:
            raise ConfigurationError("layout must have at least one block")
        if self.bounds[0] != 0:
            raise ConfigurationError("first block must start at index 0")
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi <= lo:
                raise ConfigurationError("blocks must be non-empty and ordered")

    @classmethod
    def from_sizes(cls, sizes: list[int]) -> "BlockLayout":
        return cls((0, *itertools.accumulate(int(size) for size in sizes)))

    @property
    def dim(self) -> int:
        return self.bounds[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.bounds) - 1

    @property
    def sizes(self) -> np.ndarray:
        b = np.asarray(self.bounds)
        return b[1:] - b[:-1]

    def slices(self) -> list[slice]:
        return [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]


def block_mean(v: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Arithmetic mean within each block of the layout, over the last axis:
    shape (B,) for a (d,) vector, (S, B) for an (S, d) stack."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != layout.dim:
        raise ConfigurationError(
            f"vector dim {v.shape} does not match layout dim {layout.dim}")
    return np.stack([v[..., s].mean(axis=-1) for s in layout.slices()], -1)


def broadcast_blocks(means: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Expand block means back to a full vector, constant within each block."""
    if np.shape(means) != (layout.num_blocks,):
        raise ConfigurationError("need one mean per block")
    return np.repeat(means, layout.sizes)
