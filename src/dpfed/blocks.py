"""Flat parameter vectors and block layouts.

A parameter vector is a 1-D float64 numpy array; every optimizer quantity
(parameters, gradients, moment estimates, alignment directions) lives in
this representation. A BlockLayout names contiguous index ranges so that
second-moment statistics can be reduced to one number per block.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ConfigurationError(ValueError):
    """Raised for inconsistent dimensions or invalid layouts."""


@dataclass(frozen=True)
class BlockLayout:
    """Partition of [0, dim) into named contiguous blocks.

    ``bounds`` has length ``num_blocks + 1`` with bounds[0] == 0 and
    bounds[-1] == dim; block b covers [bounds[b], bounds[b+1]).
    """

    names: tuple[str, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        if len(self.bounds) != len(self.names) + 1:
            raise ConfigurationError("bounds/names length mismatch")
        if not self.names:
            raise ConfigurationError("layout must have at least one block")
        if self.bounds[0] != 0:
            raise ConfigurationError("first block must start at index 0")
        for lo, hi in zip(self.bounds, self.bounds[1:]):
            if hi <= lo:
                raise ConfigurationError("blocks must be non-empty and ordered")

    @classmethod
    def from_sizes(cls, named_sizes: list[tuple[str, int]]) -> "BlockLayout":
        names = tuple(name for name, _ in named_sizes)
        bounds = [0]
        for _, size in named_sizes:
            bounds.append(bounds[-1] + int(size))
        return cls(names, tuple(bounds))

    @property
    def dim(self) -> int:
        return self.bounds[-1]

    @property
    def num_blocks(self) -> int:
        return len(self.names)

    @property
    def sizes(self) -> np.ndarray:
        b = np.asarray(self.bounds)
        return b[1:] - b[:-1]

    def slices(self) -> list[slice]:
        return [slice(lo, hi) for lo, hi in zip(self.bounds, self.bounds[1:])]


def block_mean(v: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Arithmetic mean of v within each block of the layout, shape (B,)."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (layout.dim,):
        raise ConfigurationError(
            f"vector dim {v.shape} does not match layout dim {layout.dim}")
    return np.array([v[s].mean() for s in layout.slices()])


def broadcast_blocks(means: np.ndarray, layout: BlockLayout) -> np.ndarray:
    """Expand block means back to a full vector, constant within each block."""
    if np.shape(means) != (layout.num_blocks,):
        raise ConfigurationError("need one mean per block")
    return np.repeat(means, layout.sizes)
