"""Data model for N:M fine-grained block sparsity.

A tensor is carved into contiguous length-m blocks along one axis. Each
block independently receives a mask keeping m - n of its entries. When the
axis length does not divide by m, the remainder elements form a dense tail
that is carried through unpruned (never padded).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SUPPORTED_BLOCK_LENGTHS = (2, 4, 8)
# Set bits of each 8-bit code: the nonzero count of a block's bit code.
NONZERO_COUNTS = np.array([bin(code).count("1") for code in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class SparsityPattern:
    """Prune n out of every m contiguous elements (keep m - n)."""

    n: int
    m: int

    def __post_init__(self):
        if self.m not in SUPPORTED_BLOCK_LENGTHS:
            raise ValueError(
                f"unsupported block length m={self.m}; supported: {SUPPORTED_BLOCK_LENGTHS}"
            )
        if not 0 < self.n < self.m:
            raise ValueError(f"need 0 < n < m, got pattern {self.n}:{self.m}")

    @property
    def kept(self) -> int:
        return self.m - self.n

    @classmethod
    def parse(cls, text: str) -> "SparsityPattern":
        """Parse an 'N:M' string such as '2:4'."""
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad sparsity pattern {text!r}; expected 'N:M'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad sparsity pattern {text!r}; expected 'N:M'") from None
        return cls(n, m)

    def __str__(self) -> str:
        return f"{self.n}:{self.m}"


def _float_data(values) -> np.ndarray:
    """values as an array of float32 if they are float32, else of float64."""
    arr = np.asarray(values)
    return arr if arr.dtype == np.float32 else np.asarray(arr, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Block:
    """One contiguous run of m values taken from the blocking axis."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite entries are not allowed")
        if arr.shape[0] not in SUPPORTED_BLOCK_LENGTHS:
            raise ValueError(f"block length must be one of {SUPPORTED_BLOCK_LENGTHS}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True, eq=False)
class BlockMask:
    """Boolean keep-mask for one block; exactly pattern.kept entries true."""

    kept: np.ndarray
    pattern: SparsityPattern

    def __post_init__(self):
        arr = np.asarray(self.kept, dtype=bool)
        if arr.ndim != 1 or arr.shape[0] != self.pattern.m:
            raise ValueError(f"mask must have length m={self.pattern.m}")
        if int(arr.sum()) != self.pattern.kept:
            raise ValueError(
                f"mask keeps {int(arr.sum())} entries; pattern {self.pattern} requires {self.pattern.kept}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "kept", arr)

    def kept_indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.kept))


@dataclass(frozen=True, eq=False)
class BlockedTensor:
    """A dense tensor plus the axis along which blocks are formed.

    Data is stored flat in row-major order and read-only, as float32 when
    given float32 and as float64 otherwise. A read-only array is shared;
    one that its owner can still write is copied.
    """

    shape: tuple[int, ...]
    data: np.ndarray
    block_axis: int = -1
    _split: dict = field(default_factory=dict, init=False, repr=False)  # see _coded_split

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        if len(shape) == 0:
            raise ValueError("scalar tensors cannot be blocked")
        if any(s < 0 for s in shape):
            raise ValueError(f"negative dimension in shape {shape}")
        arr = _float_data(self.data)
        data = np.array(arr, order="C", copy=True if arr.flags.writeable else None).reshape(-1)
        numel = int(np.prod(shape, dtype=np.int64))
        if data.size != numel:
            raise ValueError(f"shape {shape} implies {numel} elements, data has {data.size}")
        axis = self.block_axis
        if not -len(shape) <= axis < len(shape):
            raise ValueError(f"block_axis {axis} out of range for shape {shape}")
        axis = axis % len(shape)
        data.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "block_axis", axis)

    @classmethod
    def from_array(cls, arr, block_axis: int = -1) -> "BlockedTensor":
        arr = np.asarray(arr)
        if arr.ndim == 0:
            raise ValueError("scalar tensors cannot be blocked")
        return cls(arr.shape, arr, block_axis)

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockedTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.block_axis == other.block_axis
            and np.array_equal(self.data, other.data)
        )


@dataclass(frozen=True, eq=False)
class DenseTail:
    """Remainder elements of each lane after whole blocks are taken.

    ``values`` has shape (lanes, remainder); a remainder of zero means the
    axis divided evenly. The tail is carried dense and never pruned.
    """

    values: np.ndarray
    block_len: int
    blocks_per_lane: int

    def __post_init__(self):
        arr = _float_data(self.values)
        if arr.ndim != 2:
            raise ValueError("tail values must be 2-D (lanes, remainder)")
        if not 0 <= arr.shape[1] < self.block_len:
            raise ValueError(f"remainder {arr.shape[1]} out of range for block length {self.block_len}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def lanes(self) -> int:
        return int(self.values.shape[0])

    @property
    def remainder(self) -> int:
        return int(self.values.shape[1])

    @property
    def is_empty(self) -> bool:
        return self.values.size == 0


def _split_blocks(t: BlockedTensor, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole blocks (num_blocks, m) and tail (lanes, remainder) of split_axis;
    the blocks are a view of t.data if the axis is innermost and divides by m."""
    moved = np.moveaxis(t.as_array(), t.block_axis, -1)
    lanes = int(np.prod(moved.shape[:-1], dtype=np.int64))
    whole = moved.shape[-1] - moved.shape[-1] % m
    blocks = np.ascontiguousarray(moved[..., :whole]).reshape(lanes * whole // m, m)
    return blocks, moved[..., whole:].reshape(lanes, moved.shape[-1] - whole)


def split_axis(t: BlockedTensor, m: int) -> tuple[np.ndarray, DenseTail]:
    """Array form of block splitting: (num_blocks, m) plus the dense tail.

    Blocks are ordered lane-major: all blocks of the first lane, then the
    second, and so on, with lanes enumerated in row-major order of the
    non-blocked dimensions. They are a read-only view of t.data when the
    block axis is innermost and divides by m.
    """
    if m not in SUPPORTED_BLOCK_LENGTHS:
        raise ValueError(f"unsupported block length m={m}")
    if not np.all(np.isfinite(t.data)):
        raise ValueError("non-finite data cannot be split into blocks")
    blocks, tail = _split_blocks(t, m)
    return blocks, DenseTail(tail, m, t.shape[t.block_axis] // m)


def merge_axis(
    blocks: np.ndarray, tail: DenseTail, shape: Sequence[int], block_axis: int
) -> BlockedTensor:
    """Inverse of split_axis; validates counts against the target shape."""
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    if ndim == 0 or not -ndim <= block_axis < ndim:
        raise ValueError(f"block_axis {block_axis} out of range for shape {shape}")
    axis = block_axis % ndim
    axis_len = shape[axis]
    m = tail.block_len
    blocks_per_lane, remainder = divmod(axis_len, m)
    lead_shape = shape[:axis] + shape[axis + 1 :]
    lanes = int(np.prod(lead_shape, dtype=np.int64))
    blocks = _float_data(blocks)
    if blocks.ndim != 2 or blocks.shape != (lanes * blocks_per_lane, m):
        raise ValueError(
            f"expected blocks of shape {(lanes * blocks_per_lane, m)}, got {blocks.shape}"
        )
    if tail.blocks_per_lane != blocks_per_lane or tail.values.shape != (lanes, remainder):
        raise ValueError("tail does not match the target shape")
    if remainder == 0 and axis == ndim - 1:
        return BlockedTensor(shape, blocks, axis)
    out = np.empty(shape, dtype=np.result_type(blocks, tail.values))
    moved = np.moveaxis(out, axis, -1)
    moved[..., : axis_len - remainder] = blocks.reshape(lead_shape + (axis_len - remainder,))
    moved[..., axis_len - remainder :] = tail.values.reshape(lead_shape + (remainder,))
    out.setflags(write=False)
    return BlockedTensor(shape, out, axis)


def _coded_split(t: BlockedTensor, m: int, split=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_split_blocks of t plus each block's nonzero bit code (bit i: entry i
    nonzero), kept with the read-only tensor for the pattern check and
    compress to share. A producer that holds t's values in block layout,
    read-only, may pass them as split = (blocks, tail) instead."""
    if m not in t._split:
        blocks, tail = split or _split_blocks(t, m)
        nonzero = (blocks != 0.0).view(np.uint8)
        codes = np.zeros(blocks.shape[0], dtype=np.uint8)
        for i in range(m):
            codes |= nonzero[:, i] << i
        codes.setflags(write=False)
        t._split[m] = (blocks, tail, codes)
    return t._split[m]


def pattern_violations(t: BlockedTensor, pattern: SparsityPattern) -> int:
    """Number of blocks with more than pattern.kept nonzeros (tail ignored).

    Independent structural check used to validate pruner output: it reads
    the tensor's values, not a pruner's mask.
    """
    counts = np.take(NONZERO_COUNTS, _coded_split(t, pattern.m)[2])
    return int(np.count_nonzero(counts > pattern.kept))
