"""Data model for N:M fine-grained block sparsity.

A tensor is carved into contiguous length-m blocks along one axis. Each
block independently receives a mask keeping m - n of its entries. When the
axis length does not divide by m, the remainder elements form a dense tail
that is carried through unpruned (never padded).
"""

from __future__ import annotations

import itertools
import math
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


def _lane_blocks(arr: np.ndarray, axis: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of a C-contiguous array's whole length-m blocks along axis, as
    (lanes before the axis, lanes after it, blocks per lane, m), and of its
    tail, as (lanes before, lanes after, remainder). A lane is one run along
    the axis with every other index fixed; in row-major order both views
    run lane by lane. With no whole block the block view is (0, 0, 0, m):
    numpy refuses some empty arrays of (before, after, 0, m)."""
    before, length = math.prod(arr.shape[:axis]), arr.shape[axis]
    after, whole = math.prod(arr.shape[axis + 1 :]), length - length % m
    lanes = arr.reshape(before, length, after)
    tail = lanes[:, whole:].transpose(0, 2, 1)
    if whole == 0:
        return arr.reshape(-1)[:0].reshape(0, 0, 0, m), tail
    return lanes[:, :whole].reshape(before, whole // m, m, after).transpose(0, 3, 1, 2), tail


def _split_blocks(t: BlockedTensor, m: int) -> tuple[np.ndarray, np.ndarray]:
    """_lane_blocks of t's values, the tail reshaped to (lanes, remainder)."""
    blocks, tail = _lane_blocks(t.as_array(), t.block_axis, m)
    return blocks, tail.reshape(tail.shape[0] * tail.shape[1], tail.shape[2])


# Lanes by blocks of a tile in _copy_blocks, from a measured sweep.
TILE_LANES, TILE_BLOCKS = 128, 20


def _copy_blocks(src: np.ndarray, dest: np.ndarray | None = None) -> np.ndarray:
    """dest[...] = src for (..., lanes, blocks, m) arrays, one a lane view;
    returns dest, a new row-major array if None. numpy copies in dest's
    order; where the tensor's rows are wider than TILE_LANES, a tile at a
    time keeps both sides in cache and the TLB."""
    dest = np.empty(src.shape, src.dtype) if dest is None else dest
    if src.ndim < 3 or max(src.strides[-1], dest.strides[-1]) <= TILE_LANES * src.itemsize:
        dest[...] = src
        return dest
    *outer, lanes, blocks, _ = src.shape
    for *index, lane, block in itertools.product(
            *map(range, outer), range(0, lanes, TILE_LANES), range(0, blocks, TILE_BLOCKS)):
        tile = (*index, slice(lane, lane + TILE_LANES), slice(block, block + TILE_BLOCKS))
        dest[tile] = src[tile]
    return dest


def merge_axis(
    blocks: np.ndarray, tail: np.ndarray, shape: Sequence[int], block_axis: int
) -> BlockedTensor:
    """The tensor of its blocks (num_blocks, m), lane-major, and its tail
    (lanes, remainder), both validated against the target shape."""
    shape = tuple(int(s) for s in shape)
    ndim = len(shape)
    if ndim == 0 or not -ndim <= block_axis < ndim:
        raise ValueError(f"block_axis {block_axis} out of range for shape {shape}")
    axis = block_axis % ndim
    blocks, tail = _float_data(blocks), _float_data(tail)
    if blocks.ndim != 2 or blocks.shape[1] not in SUPPORTED_BLOCK_LENGTHS:
        raise ValueError(f"expected blocks of shape (num_blocks, m), got {blocks.shape}")
    m = blocks.shape[1]
    blocks_per_lane, remainder = divmod(shape[axis], m)
    lanes = math.prod(shape[:axis] + shape[axis + 1 :])
    if blocks.shape[0] != lanes * blocks_per_lane or tail.shape != (lanes, remainder):
        raise ValueError(f"blocks {blocks.shape} and tail {tail.shape} do not match shape {shape}"
                         f" on axis {axis}: expected {(lanes * blocks_per_lane, m)} and {(lanes, remainder)}")
    if remainder == 0 and axis == ndim - 1:
        return BlockedTensor(shape, blocks, axis)
    out = np.empty(shape, dtype=np.result_type(blocks, tail))
    whole, rest = _lane_blocks(out, axis, m)
    _copy_blocks(blocks.reshape(whole.shape), whole)
    rest[...] = tail.reshape(rest.shape)
    out.setflags(write=False)
    return BlockedTensor(shape, out, axis)


def _bit_codes(flags: np.ndarray) -> np.ndarray:
    """Per row of a (rows, m) boolean array, the uint8 code with bit i set
    where column i is true: a C-contiguous row as one little-endian integer
    of m 0/1 bytes, times 0x0102 (m = 2), 0x01020408, ..., which moves byte
    i's bit to bit 8 (m - 1) + i with no carries. Other layouts, such as
    mc_estimate's column-major mask, are or-reduced by columns, uncopied."""
    m = flags.shape[1]
    if not flags.flags.c_contiguous:
        shifted = flags.T.view(np.uint8) << np.arange(m, dtype=np.uint8)[:, None]
        return np.bitwise_or.reduce(shifted, axis=0)
    codes = flags.view(f"<u{m}").reshape(-1) * sum(1 << 8 * (m - 1) - 7 * i for i in range(m))
    codes >>= 8 * (m - 1)
    return codes.astype(np.uint8)


def _coded(blocks: np.ndarray, tail: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocks as (num_blocks, m), the tail, and each block's nonzero bit code
    (bit i: entry i nonzero), read-only: the form _coded_split keeps."""
    if not blocks.flags.c_contiguous:  # a strided lane view
        blocks = _copy_blocks(blocks)
    blocks = blocks.reshape(-1, blocks.shape[-1])
    codes = _bit_codes(blocks != 0.0)
    codes.setflags(write=False)
    return blocks, tail, codes


def _coded_split(t: BlockedTensor, m: int, split=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_coded of t's _split_blocks, kept with the read-only tensor for the
    pattern check and compress to share. A producer that holds t's values
    in block layout, read-only, may pass their _coded as split instead."""
    if m not in t._split:
        t._split[m] = split or _coded(*_split_blocks(t, m))
    return t._split[m]


def pattern_violations(t: BlockedTensor, pattern: SparsityPattern) -> int:
    """Number of blocks with more than pattern.kept nonzeros (tail ignored).

    Independent structural check used to validate pruner output: it reads
    the tensor's values, not a pruner's mask.
    """
    counts = np.take(NONZERO_COUNTS, _coded_split(t, pattern.m)[2])
    return int(np.count_nonzero(counts > pattern.kept))
