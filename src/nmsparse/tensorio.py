"""Binary tensor file formats.

Dense format (magic ``NMSP``), little-endian throughout:

    magic     4 bytes  b"NMSP"
    version   u16      currently 1
    dtype     u16      0 = float32
    ndim      u16
    shape     ndim * u64
    payload   prod(shape) * float32, row-major

Compressed N:M format (magic ``NMSC``) stores, per block along the
blocking axis, the kept values plus one packed position-index field
(1 byte for m in {2, 4}, 2 bytes for m = 8; position indices take
1/2/3 bits each for m = 2/4/8). Axis remainders are stored dense:

    magic       4 bytes  b"NMSC"
    version     u16
    dtype       u16      0 = float32
    n, m        u16, u16
    block_axis  u16
    ndim        u16
    shape       ndim * u64
    values      num_blocks * (m - n) * float32
    indices     num_blocks * index_bytes(m) * u8
    tail        lanes * (shape[axis] % m) * float32
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import struct
import uuid
from dataclasses import dataclass

import numpy as np

from .core import NONZERO_COUNTS, BlockedTensor, SparsityPattern, _coded_split, merge_axis

TENSOR_MAGIC = b"NMSP"
COMPRESSED_MAGIC = b"NMSC"
FORMAT_VERSION = 1
DTYPE_FLOAT32 = 0

_INDEX_BITS = {2: 1, 4: 2, 8: 3}
_NOT_ASCENDING = 0xFFFF  # above every m-bit keep code


class TensorFormatError(ValueError):
    """Raised when a tensor file is malformed."""


def index_bytes_per_block(pattern: SparsityPattern) -> int:
    """Bytes needed to pack the kept-position indices of one block.

    Positions take 1/2/3 bits each for m = 2/4/8, one field per kept slot,
    rounded up to whole bytes: 1 byte for 1:2 and 2:4, 2 bytes for 4:8.
    """
    return (_INDEX_BITS[pattern.m] * pattern.kept + 7) // 8


def _read_exact(fh, count: int, what: str) -> bytes | bytearray:
    # A header may declare more than memory holds. Check a regular file's
    # size first; read a pipe in pieces of at most 1 MiB, so EOF stops it.
    st = os.fstat(fh.fileno())
    if stat.S_ISREG(st.st_mode):
        left = max(st.st_size - fh.tell(), 0)
        if count > left:
            raise TensorFormatError(f"truncated {what}: wanted {count} bytes, got {left}")
        data = fh.read(count)
    else:
        data = bytearray()
        while len(data) < count and (piece := fh.read(min(count - len(data), 1 << 20))):
            data += piece
    if len(data) != count:
        raise TensorFormatError(f"truncated {what}: wanted {count} bytes, got {len(data)}")
    return data


# numpy refuses an array, empty or not, whose nonzero dimensions times its
# item size exceed the largest intp; the library forms float64 arrays.
_MAX_ELEMENTS = np.iinfo(np.intp).max // 8


def _read_shape(fh, ndim: int) -> tuple[int, ...]:
    """A header's ndim dimensions; a shape that numpy cannot hold as
    float64 is a format error, even with a zero dimension."""
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "shape"))
    if math.prod(s or 1 for s in shape) > _MAX_ELEMENTS:
        raise TensorFormatError(f"shape {shape} is too large")
    return shape


def _float32_payload(values: np.ndarray) -> np.ndarray:
    """values as little-endian float32, checked finite after the cast."""
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(values, dtype="<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError("refusing to write non-finite data")
    return payload


def _write_atomic(path, parts) -> None:
    """Write the byte strings to a temporary file in path's directory, then
    rename it over path, so a failed write leaves an existing file as it
    was; the temporary file is removed if a write raises, and an OSError
    on it names path. A symlink's target is replaced, and an existing file
    keeps its permission bits. A path that exists and is not a regular
    file, such as a pipe, is written directly."""
    given, path = os.fspath(path), os.path.realpath(path)
    exists = os.path.exists(path)
    if exists and not os.path.isfile(path):
        try:
            with open(path, "wb") as fh:
                fh.writelines(parts)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, given) from None
        return
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(parts)
        if exists:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, given) from None
        raise


def write_tensor(path, t: BlockedTensor) -> None:
    """Write a dense tensor file, atomically; payload is float32."""
    _write_tensor(path, t)


def _write_tensor(path, t: BlockedTensor) -> None:
    """write_tensor's body, for the CLI's worker thread: it calls no public
    function of the library, which a tracer of the calling thread may wrap."""
    payload = _float32_payload(t.data)
    header = struct.pack(
        "<4sHHH", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, len(t.shape)
    )
    header += struct.pack(f"<{len(t.shape)}Q", *t.shape)
    _write_atomic(path, (header, payload))


def read_tensor(path) -> BlockedTensor:
    """Read a dense tensor file; the blocking axis defaults to innermost.

    The data is the file's float32 payload, read-only and checked finite.
    """
    with open(path, "rb") as fh:
        magic, version, dtype, ndim = struct.unpack("<4sHHH", _read_exact(fh, 10, "header"))
        if magic != TENSOR_MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}; not a tensor file")
        if version != FORMAT_VERSION:
            raise TensorFormatError(f"unsupported version {version}")
        if dtype != DTYPE_FLOAT32:
            raise TensorFormatError(f"unsupported dtype code {dtype}")
        if ndim == 0:
            raise TensorFormatError("scalar tensor files are not supported")
        shape = _read_shape(fh, ndim)
        payload = _read_exact(fh, 4 * math.prod(shape), "payload")
        if fh.read(1):
            raise TensorFormatError("trailing bytes after payload")
    data = np.frombuffer(payload, dtype="<f4")
    if not np.all(np.isfinite(data)):
        raise TensorFormatError("payload contains non-finite values")
    return BlockedTensor(shape, data, block_axis=len(shape) - 1)


@dataclass(frozen=True, eq=False)
class CompressedSparseTensor:
    """An N:M pruned tensor in compressed form.

    ``values`` holds the kept entries of each block (ascending position
    order), ``indices`` the packed kept positions, ``tail`` the dense axis
    remainder of each lane.
    """

    pattern: SparsityPattern
    shape: tuple[int, ...]
    block_axis: int
    values: np.ndarray   # (num_blocks, kept) float32
    indices: np.ndarray  # (num_blocks, index_bytes) uint8
    tail: np.ndarray     # (lanes, remainder) float32

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float32)
        indices = np.asarray(self.indices, dtype=np.uint8)
        tail = np.asarray(self.tail, dtype=np.float32)
        if values.ndim != 2 or values.shape[1] != self.pattern.kept:
            raise ValueError("values must be (num_blocks, kept)")
        if indices.ndim != 2 or indices.shape[0] != values.shape[0]:
            raise ValueError("indices must align with values")
        if tail.ndim != 2:
            raise ValueError("tail must be 2-D (lanes, remainder)")
        if not 0 <= self.block_axis < len(self.shape):
            raise ValueError(f"block axis {self.block_axis} out of range for {self.shape}")
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "tail", tail)

    @property
    def num_blocks(self) -> int:
        return int(self.values.shape[0])

    def payload_bytes(self) -> int:
        return self.values.nbytes + self.indices.nbytes + self.tail.nbytes

    def dense_payload_bytes(self) -> int:
        return math.prod(self.shape) * 4

    def blocked_compression_ratio(self) -> float:
        """Compressed bytes of the blocked region over its dense bytes
        (the tail is stored dense either way and excluded)."""
        dense = self.num_blocks * self.pattern.m * 4
        if dense == 0:
            return 1.0
        return (self.values.nbytes + self.indices.nbytes) / dense


@functools.lru_cache(maxsize=None)
def _code_tables(pattern: SparsityPattern) -> tuple[np.ndarray, np.ndarray]:
    """Per nonzero bit code (bit i: position i nonzero), one row each of the
    keep-mask and the packed index field.

    The kept positions are the nonzero ones, padded with the lowest-index
    zero positions up to pattern.kept, in ascending order.
    """
    m, kept = pattern.m, pattern.kept
    bits, nbytes = _INDEX_BITS[m], index_bytes_per_block(pattern)
    keep = np.zeros((1 << m, m), dtype=bool)
    packed = np.zeros((1 << m, nbytes), dtype=np.uint8)
    for code in range(1 << m):
        nonzero = [i for i in range(m) if code >> i & 1]
        zero = [i for i in range(m) if not code >> i & 1]
        positions = sorted((nonzero + zero)[:kept])
        keep[code, positions] = True
        field = sum(pos << (bits * k) for k, pos in enumerate(positions))
        packed[code] = list(field.to_bytes(nbytes, "little"))
    for table in (keep, packed):
        table.flags.writeable = False  # shared by every call
    return keep, packed


@functools.lru_cache(maxsize=None)
def _field_codes(pattern: SparsityPattern) -> np.ndarray:
    """The packed table inverted, built on the first decode, never by
    compress (2^21 entries for 1:8): per value of an index field's used
    bits, the keep code (bit i: position i kept) that packs to it, or
    _NOT_ASCENDING if its positions are not strictly ascending."""
    packed = _code_tables(pattern)[1]
    full = np.flatnonzero(NONZERO_COUNTS[: 1 << pattern.m] == pattern.kept)
    inverse = np.full(1 << _INDEX_BITS[pattern.m] * pattern.kept, _NOT_ASCENDING, dtype=np.uint16)
    inverse[[int.from_bytes(packed[code], "little") for code in full]] = full
    inverse.flags.writeable = False
    return inverse


def _keep_codes(pattern: SparsityPattern, indices: np.ndarray, error=ValueError) -> np.ndarray:
    """Each block's keep code, looked up by the used bits of its index field
    (the padding bits above them are ignored); raises error if a field's
    positions are not strictly ascending."""
    table = _field_codes(pattern)
    fields = np.zeros(indices.shape[0], dtype=np.min_scalar_type(len(table) - 1))
    for b in range(indices.shape[1]):
        fields |= indices[:, b].astype(fields.dtype, copy=False) << (8 * b)
    fields &= len(table) - 1
    codes = np.take(table, fields)
    if np.any(codes == _NOT_ASCENDING):
        raise error("corrupt position indices")
    return codes


def compress(t: BlockedTensor, pattern: SparsityPattern) -> CompressedSparseTensor:
    """Compress a tensor that satisfies the pattern along t.block_axis.

    Raises if any block has more than pattern.kept nonzeros, or if a value
    is not finite as float32. Blocks with fewer nonzeros are padded with
    the lowest-index zero positions so each block always records exactly
    pattern.kept slots.
    """
    blocked, tail, code = _coded_split(t, pattern.m)
    kept = pattern.kept
    keep, packed = _code_tables(pattern)
    over = np.take(NONZERO_COUNTS, code) > kept
    if np.any(over):
        bad = int(np.argmax(over))
        raise ValueError(
            f"block {bad} has {NONZERO_COUNTS[code[bad]]} nonzeros; pattern {pattern} allows {kept}"
        )
    # np.take and np.compress: several times faster than fancy indexing.
    kept_values = np.compress(np.take(keep, code, axis=0).reshape(-1), blocked.reshape(-1))
    return CompressedSparseTensor(
        pattern=pattern,
        shape=t.shape,
        block_axis=t.block_axis,
        values=_float32_payload(kept_values).reshape(-1, kept),
        indices=np.take(packed, code, axis=0),
        tail=_float32_payload(tail),
    )


def decompress(c: CompressedSparseTensor) -> BlockedTensor:
    """Expand back to a dense float32 tensor holding the stored values;
    raises ValueError if a block's index field is corrupt or the block and
    tail counts do not match the shape."""
    m = c.pattern.m
    keep = np.take(_code_tables(c.pattern)[0], _keep_codes(c.pattern, c.indices), axis=0)
    blocked = np.zeros((c.num_blocks, m), dtype=np.float32)
    blocked.reshape(-1)[np.flatnonzero(keep)] = c.values.reshape(-1)
    blocked.setflags(write=False)
    return merge_axis(blocked, c.tail, c.shape, c.block_axis)


def write_compressed(path, c: CompressedSparseTensor) -> None:
    """Write a compressed tensor file, atomically."""
    header = struct.pack("<4sHHHHHH", COMPRESSED_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32,
                         c.pattern.n, c.pattern.m, c.block_axis, len(c.shape))
    header += struct.pack(f"<{len(c.shape)}Q", *c.shape)
    _write_atomic(path, (header, np.ascontiguousarray(c.values, dtype="<f4"),
                         np.ascontiguousarray(c.indices), np.ascontiguousarray(c.tail, dtype="<f4")))


def read_compressed(path) -> CompressedSparseTensor:
    with open(path, "rb") as fh:
        fields = struct.unpack("<4sHHHHHH", _read_exact(fh, 16, "header"))
        magic, version, dtype, n, m, block_axis, ndim = fields
        if magic != COMPRESSED_MAGIC:
            raise TensorFormatError(f"bad magic {magic!r}; not a compressed tensor file")
        if version != FORMAT_VERSION:
            raise TensorFormatError(f"unsupported version {version}")
        if dtype != DTYPE_FLOAT32:
            raise TensorFormatError(f"unsupported dtype code {dtype}")
        if ndim == 0:
            raise TensorFormatError("scalar tensor files are not supported")
        try:
            pattern = SparsityPattern(n, m)
        except ValueError as exc:
            raise TensorFormatError(str(exc)) from None
        shape = _read_shape(fh, ndim)
        if not block_axis < ndim:
            raise TensorFormatError(f"block axis {block_axis} out of range")
        axis_len = shape[block_axis]
        lanes = math.prod(shape[:block_axis] + shape[block_axis + 1 :])
        blocks_per_lane, remainder = divmod(axis_len, m)
        num_blocks = lanes * blocks_per_lane
        values = np.frombuffer(
            _read_exact(fh, 4 * num_blocks * pattern.kept, "values"), dtype="<f4"
        ).reshape(num_blocks, pattern.kept)
        idx_bytes = index_bytes_per_block(pattern)
        indices = np.frombuffer(
            _read_exact(fh, num_blocks * idx_bytes, "indices"), dtype=np.uint8
        ).reshape(num_blocks, idx_bytes)
        tail = np.frombuffer(
            _read_exact(fh, 4 * lanes * remainder, "tail"), dtype="<f4"
        ).reshape(lanes, remainder)
        if fh.read(1):
            raise TensorFormatError("trailing bytes after payload")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(tail))):
        raise TensorFormatError("payload contains non-finite values")
    _keep_codes(pattern, indices, TensorFormatError)
    return CompressedSparseTensor(pattern, shape, block_axis, values, indices, tail)
