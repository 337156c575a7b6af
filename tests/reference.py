"""Plain-copy references for the block layout, shared by the tests."""

import math

import numpy as np

from nmsparse.core import SUPPORTED_BLOCK_LENGTHS, BlockedTensor


def reference_split(t: BlockedTensor, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole blocks (num_blocks, m) and the dense tail (lanes, remainder) of
    t, lanes in row-major order of the other dimensions, read through the
    block axis moved last and a copy of the whole block region."""
    moved = np.moveaxis(t.as_array(), t.block_axis, -1)
    lanes = math.prod(moved.shape[:-1])
    whole = moved.shape[-1] - moved.shape[-1] % m
    blocks = np.ascontiguousarray(moved[..., :whole]).reshape(lanes * whole // m, m)
    return blocks, moved[..., whole:].reshape(lanes, moved.shape[-1] - whole)


def split_axis(t: BlockedTensor, m: int) -> tuple[np.ndarray, np.ndarray]:
    """reference_split of a finite t at a supported block length."""
    if m not in SUPPORTED_BLOCK_LENGTHS:
        raise ValueError(f"unsupported block length m={m}")
    if not np.all(np.isfinite(t.data)):
        raise ValueError("non-finite data cannot be split into blocks")
    return reference_split(t, m)
