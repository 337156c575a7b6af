"""Binary format tests: dense tensor files and compressed N:M files."""

import os
import stat
import struct

import numpy as np
import pytest

from nmsparse.cli import EXIT_IO, EXIT_OK, main
from nmsparse.core import (
    SUPPORTED_BLOCK_LENGTHS,
    BlockedTensor,
    SparsityPattern,
    pattern_violations,
    split_axis,
)
from nmsparse.estimators import EstimatorKind, prune_greedy_array, prune_tensor
from nmsparse.rng import RandomStream
from nmsparse.tensorio import (
    COMPRESSED_MAGIC,
    DTYPE_FLOAT32,
    FORMAT_VERSION,
    TENSOR_MAGIC,
    CompressedSparseTensor,
    TensorFormatError,
    compress,
    decompress,
    index_bytes_per_block,
    read_compressed,
    read_tensor,
    write_compressed,
    write_tensor,
)

P12 = SparsityPattern(1, 2)
P24 = SparsityPattern(2, 4)
P48 = SparsityPattern(4, 8)


def f32_tensor(shape, seed, block_axis=-1):
    """Random tensor whose entries are exactly float32-representable."""
    arr = RandomStream(seed).normals(shape).astype(np.float32).astype(np.float64)
    return BlockedTensor.from_array(arr.reshape(shape), block_axis=block_axis)


class TestDenseFormat:
    def test_roundtrip_2d(self, tmp_path):
        t = f32_tensor((8, 16), seed=1)
        path = tmp_path / "t.nmsp"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == (8, 16)
        assert back.block_axis == 1
        np.testing.assert_array_equal(back.as_array(), t.as_array())

    @pytest.mark.parametrize("shape", [(12,), (3, 4, 8), (2, 1, 5, 6)])
    def test_roundtrip_other_ranks(self, tmp_path, shape):
        t = f32_tensor(shape, seed=2)
        path = tmp_path / "t.nmsp"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == shape
        np.testing.assert_array_equal(back.as_array(), t.as_array())

    def test_write_rejects_non_finite(self, tmp_path):
        t = BlockedTensor((2, 2), np.array([1.0, np.inf, 3.0, 4.0]))
        with pytest.raises(ValueError):
            write_tensor(tmp_path / "bad.nmsp", t)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, BlockedTensor((1, 2), np.array([1.0, 2.0])))
        raw = path.read_bytes()
        magic, version, dtype, ndim = struct.unpack("<4sHHH", raw[:10])
        assert magic == TENSOR_MAGIC
        assert version == FORMAT_VERSION
        assert dtype == DTYPE_FLOAT32
        assert ndim == 2
        assert struct.unpack("<2Q", raw[10:26]) == (1, 2)
        assert len(raw) == 26 + 2 * 4

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nmsp"
        path.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(path)

    def test_bad_version_and_dtype(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, BlockedTensor((1, 2), np.array([1.0, 2.0])))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="version"):
            read_tensor(path)
        raw[4] = FORMAT_VERSION
        raw[6] = 7
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="dtype"):
            read_tensor(path)

    def test_scalar_rank_rejected(self, tmp_path):
        path = tmp_path / "t.nmsp"
        path.write_bytes(struct.pack("<4sHHH", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 0))
        with pytest.raises(TensorFormatError, match="scalar"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, f32_tensor((4, 4), seed=3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(path)

    def test_huge_declared_size_is_format_error(self, tmp_path):
        # 2^40 float32 elements declare 4 TiB of payload; the size is checked
        # against the file before anything is read.
        path = tmp_path / "huge.nmsp"
        header = struct.pack("<4sHHHQ", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 1, 1 << 40)
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(TensorFormatError, match="truncated payload"):
            read_tensor(path)

    def test_reads_from_a_pipe(self, tmp_path):
        t = f32_tensor((4, 8), seed=3)
        write_tensor(tmp_path / "t.nmsp", t)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, (tmp_path / "t.nmsp").read_bytes())
            os.close(write_fd)
            back = read_tensor(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        np.testing.assert_array_equal(back.as_array(), t.as_array())

    def test_huge_declared_size_from_a_pipe_is_format_error(self):
        # A pipe has no size to check: it is read in bounded pieces up to EOF.
        header = struct.pack("<4sHHHQ", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 1, 1 << 40)
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, header + b"\x00" * 64)
            os.close(write_fd)
            with pytest.raises(TensorFormatError, match="truncated payload"):
                read_tensor(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)

    def test_float32_payload_is_kept_without_copies(self, tmp_path):
        t = f32_tensor((4, 8), seed=5)
        write_tensor(tmp_path / "t.nmsp", t)
        back = read_tensor(tmp_path / "t.nmsp")
        assert back.data.dtype == np.float32 and not back.data.flags.writeable
        assert BlockedTensor(back.shape, back.data, 0).data.base is back.data.base

    def test_float64_beyond_float32_range_is_refused(self, tmp_path):
        path = tmp_path / "t.nmsp"
        with pytest.raises(ValueError, match="non-finite"):
            write_tensor(path, BlockedTensor((1, 2), np.array([1.0, 1e39])))
        assert not path.exists()

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, f32_tensor((4, 4), seed=4))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TensorFormatError, match="trailing"):
            read_tensor(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "t.nmsp"
        header = struct.pack("<4sHHH", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 1)
        header += struct.pack("<1Q", 2)
        payload = np.array([1.0, np.nan], dtype="<f4").tobytes()
        path.write_bytes(header + payload)
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_tensor(path)


class TestIndexPacking:
    def test_bytes_per_block(self):
        assert index_bytes_per_block(P12) == 1
        assert index_bytes_per_block(P24) == 1
        assert index_bytes_per_block(P48) == 2
        assert index_bytes_per_block(SparsityPattern(3, 4)) == 1
        assert index_bytes_per_block(SparsityPattern(1, 8)) == 3  # 7 slots * 3 bits

    @pytest.mark.parametrize(
        "pattern,kind",
        [
            (P12, EstimatorKind.MVUE12),
            (P24, EstimatorKind.GREEDY_MSE),
            (P48, EstimatorKind.GREEDY_MSE),
        ],
    )
    def test_compress_roundtrip(self, pattern, kind):
        axis_len = 5 * pattern.m + 3
        t = f32_tensor((6, axis_len), seed=5)
        pruned = prune_tensor(t, kind, pattern, RandomStream(6))
        # Stochastic 1:2 rescaling leaves float64 values; snap to float32 so
        # the compressed file can hold them exactly.
        snapped = BlockedTensor(
            pruned.shape,
            pruned.data.astype(np.float32).astype(np.float64),
            pruned.block_axis,
        )
        c = compress(snapped, pattern)
        assert c.pattern == pattern
        assert c.indices.shape == (c.num_blocks, index_bytes_per_block(pattern))
        assert c.num_blocks == 6 * (axis_len // pattern.m)
        assert c.tail.shape == (6, axis_len % pattern.m)
        back = decompress(c)
        assert back == snapped

    def test_all_zero_blocks_pad_low_positions(self):
        t = BlockedTensor((1, 8), np.zeros(8))
        c = compress(t, P24)
        np.testing.assert_array_equal(c.values, np.zeros((2, 2), dtype=np.float32))
        # Positions (0, 1) pack to code 0b0100 = 4 with 2-bit fields.
        np.testing.assert_array_equal(c.indices, [[4], [4]])
        assert decompress(c) == t

    def test_partial_blocks_allowed(self):
        t = BlockedTensor((1, 4), np.array([0.0, 0.0, 0.0, 5.0]))
        c = compress(t, P24)
        back = decompress(c)
        assert back == t

    def test_compress_rejects_violations(self):
        t = BlockedTensor((1, 4), np.array([1.0, 2.0, 3.0, 0.0]))
        with pytest.raises(ValueError, match="nonzeros"):
            compress(t, P24)

    def test_compression_ratio_2_4(self):
        t = f32_tensor((16, 64), seed=7)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, P24)
        c = compress(pruned, P24)
        # Per block: 2 float32 values + 1 index byte against 4 float32.
        assert c.blocked_compression_ratio() == 9 / 16
        assert c.payload_bytes() == c.num_blocks * 9
        assert c.dense_payload_bytes() == 16 * 64 * 4

    def test_compression_ratio_with_tail(self):
        t = f32_tensor((4, 10), seed=8)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, P24)
        c = compress(pruned, P24)
        assert c.blocked_compression_ratio() == 9 / 16
        assert c.payload_bytes() == c.num_blocks * 9 + 4 * 2 * 4

    def test_empty_blocked_region(self):
        t = f32_tensor((3, 2), seed=9)
        c = compress(t, P24)  # axis shorter than m: everything is tail
        assert c.num_blocks == 0
        assert decompress(c) == t


def reference_compress(t: BlockedTensor, pattern: SparsityPattern) -> CompressedSparseTensor:
    """Compress by sorting: order positions with nonzeros first (both groups
    by ascending index), take the first pattern.kept, restore ascending
    order and pack them field by field."""
    blocked, tail = split_axis(t, pattern.m)
    order = np.argsort(blocked == 0.0, axis=1, kind="stable")
    positions = np.sort(order[:, : pattern.kept], axis=1)
    values = np.take_along_axis(blocked, positions, axis=1)
    bits = {2: 1, 4: 2, 8: 3}[pattern.m]
    codes = np.zeros(positions.shape[0], dtype=np.uint32)
    for k in range(pattern.kept):
        codes |= positions[:, k].astype(np.uint32) << (bits * k)
    indices = np.zeros((positions.shape[0], index_bytes_per_block(pattern)), dtype=np.uint8)
    for b in range(indices.shape[1]):
        indices[:, b] = (codes >> (8 * b)) & 0xFF
    return CompressedSparseTensor(pattern, t.shape, t.block_axis, values, indices, tail.values)


ALL_PATTERNS = [SparsityPattern(n, m) for m in SUPPORTED_BLOCK_LENGTHS for n in range(1, m)]


class TestCompressMatchesSortReference:
    def assert_same_file(self, tmp_path, t, pattern):
        got, want = tmp_path / "got.nmsc", tmp_path / "want.nmsc"
        write_compressed(got, compress(t, pattern))
        write_compressed(want, reference_compress(t, pattern))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("pattern", ALL_PATTERNS, ids=str)
    def test_blocks(self, tmp_path, pattern):
        m = pattern.m
        stream = RandomStream(20, stream=4)
        rows = np.concatenate(
            [
                stream.normals((2_000, m)),
                stream.integers(-2, 3, (2_000, m)).astype(float),  # ties
            ]
        ).astype(np.float32).astype(np.float64)
        pruned, _ = prune_greedy_array(rows, pattern)
        # Zero-padded blocks: drop some survivors, so fewer than kept remain.
        padded = np.where(stream.uniforms(pruned.shape) < 0.4, 0.0, pruned)
        blocks = np.concatenate([pruned, padded, np.zeros((3, m)), -np.zeros((3, m))])
        self.assert_same_file(tmp_path, BlockedTensor.from_array(blocks), pattern)

    @pytest.mark.parametrize("pattern", [P12, P24, P48, SparsityPattern(1, 8)], ids=str)
    def test_axis0_tail(self, tmp_path, pattern):
        t = f32_tensor((5 * pattern.m + 3, 6), seed=21, block_axis=0)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, pattern)
        self.assert_same_file(tmp_path, pruned, pattern)

    def test_violation_names_first_bad_block(self):
        t = BlockedTensor((1, 12), np.array([1.0, 0, 0, 2, 1, 2, 3, 0, 4, 5, 6, 7]))
        with pytest.raises(ValueError, match="^block 1 has 3 nonzeros; pattern 2:4 allows 2$"):
            compress(t, P24)


class TestCompressOverflow:
    def test_float64_beyond_float32_range_is_refused(self):
        t = BlockedTensor((1, 4), np.array([1e39, 0.0, 0.0, 2.0]))
        with pytest.raises(ValueError, match="non-finite"):
            compress(t, P24)
        tail = BlockedTensor((1, 5), np.array([1.0, 0.0, 0.0, 2.0, -1e39]))
        with pytest.raises(ValueError, match="non-finite"):
            compress(tail, P24)


class TestCompressedFiles:
    def roundtrip(self, tmp_path, pattern, shape, block_axis=-1, seed=10):
        t = f32_tensor(shape, seed=seed, block_axis=block_axis)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, pattern)
        c = compress(pruned, pattern)
        path = tmp_path / "t.nmsc"
        write_compressed(path, c)
        back = read_compressed(path)
        assert back.pattern == c.pattern
        assert back.shape == c.shape
        assert back.block_axis == c.block_axis
        np.testing.assert_array_equal(back.values, c.values)
        np.testing.assert_array_equal(back.indices, c.indices)
        np.testing.assert_array_equal(back.tail, c.tail)
        assert decompress(back) == pruned
        return path

    def test_file_roundtrip_2_4(self, tmp_path):
        self.roundtrip(tmp_path, P24, (8, 20))

    def test_file_roundtrip_4_8(self, tmp_path):
        self.roundtrip(tmp_path, P48, (4, 19))

    def test_file_roundtrip_axis0(self, tmp_path):
        self.roundtrip(tmp_path, P24, (12, 3), block_axis=0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nmsc"
        path.write_bytes(b"XXXX" + b"\x00" * 30)
        with pytest.raises(TensorFormatError, match="magic"):
            read_compressed(path)

    def test_dense_file_rejected(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, f32_tensor((2, 4), seed=11))
        with pytest.raises(TensorFormatError, match="magic"):
            read_compressed(path)

    def test_bad_pattern_header(self, tmp_path):
        path = self.roundtrip(tmp_path, P24, (4, 8))
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("<H", 4)  # n = m: invalid pattern
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="0 < n < m"):
            read_compressed(path)

    def test_bad_block_axis(self, tmp_path):
        path = self.roundtrip(tmp_path, P24, (4, 8))
        raw = bytearray(path.read_bytes())
        raw[12:14] = struct.pack("<H", 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="axis"):
            read_compressed(path)

    def test_truncated_and_trailing(self, tmp_path):
        path = self.roundtrip(tmp_path, P24, (4, 8))
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(TensorFormatError, match="truncated"):
            read_compressed(path)
        path.write_bytes(raw + b"!")
        with pytest.raises(TensorFormatError, match="trailing"):
            read_compressed(path)

    def test_huge_declared_size_is_format_error(self, tmp_path):
        # 2^40 blocks of 2:4 declare 8 TiB of values; the size is checked
        # against the file before anything is read.
        path = tmp_path / "huge.nmsc"
        header = struct.pack(
            "<4sHHHHHHQ", COMPRESSED_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 2, 4, 0, 1, 4 << 40
        )
        path.write_bytes(header + b"\x00" * 64)
        with pytest.raises(TensorFormatError, match="truncated values"):
            read_compressed(path)

    def test_corrupt_positions(self, tmp_path):
        path = self.roundtrip(tmp_path, P24, (1, 4))
        raw = bytearray(path.read_bytes())
        # One block: header 16 + 2*8 shape, then 2 values, then 1 index byte.
        idx_offset = 16 + 16 + 2 * 4
        raw[idx_offset] = 0b0101  # positions (1, 1): not strictly ascending
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="position"):
            read_compressed(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = self.roundtrip(tmp_path, P24, (1, 4))
        raw = bytearray(path.read_bytes())
        raw[32:36] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError, match="non-finite"):
            read_compressed(path)

    def test_decompressed_structure_is_valid(self, tmp_path):
        t = f32_tensor((16, 32), seed=12)
        pruned = prune_tensor(t, EstimatorKind.MVUE24_EXACT, P24, RandomStream(13))
        snapped = BlockedTensor(
            pruned.shape,
            pruned.data.astype(np.float32).astype(np.float64),
            pruned.block_axis,
        )
        path = tmp_path / "t.nmsc"
        write_compressed(path, compress(snapped, P24))
        out = decompress(read_compressed(path))
        assert pattern_violations(out, P24) == 0

    @pytest.mark.parametrize("shape,axis", [((8, 16), -1), ((10, 6), 0), ((3, 2), -1)])
    def test_decompress_keeps_float32(self, tmp_path, shape, axis):
        t = BlockedTensor(shape, f32_tensor(shape, seed=14).data, axis)
        pruned = prune_tensor(t, EstimatorKind.GREEDY_MSE, P24, RandomStream(15))
        path = tmp_path / "t.nmsc"
        write_compressed(path, compress(pruned, P24))
        out = decompress(read_compressed(path))
        assert out.data.dtype == np.float32
        assert out == pruned


# A zero dimension next to others that multiply beyond what numpy can hold:
# there is no payload to read, and no array of the shape either.
HUGE_SHAPES = [(0, 2**63), (2**63, 0), (2**32, 2**32, 0), (0, 2**64 - 1)]
# The largest dimension of an empty shape the readers accept.
LARGEST_DIM = (2**63 - 1) // 8


def dense_header(shape) -> bytes:
    return struct.pack(
        f"<4sHHH{len(shape)}Q", TENSOR_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, len(shape), *shape
    )


def compressed_header(shape, axis) -> bytes:
    return struct.pack(
        f"<4sHHHHHH{len(shape)}Q", COMPRESSED_MAGIC, FORMAT_VERSION, DTYPE_FLOAT32, 2, 4, axis,
        len(shape), *shape,
    )


def prune_cli(path, out, *extra) -> int:
    return main(["prune", str(path), str(out), "--method", "mvue24", *extra])


@pytest.mark.filterwarnings("error")
class TestCraftedShapes:
    @pytest.mark.parametrize("shape", HUGE_SHAPES)
    def test_dense_reader_refuses(self, tmp_path, shape):
        path = tmp_path / "t.nmsp"
        path.write_bytes(dense_header(shape))
        with pytest.raises(TensorFormatError, match="too large"):
            read_tensor(path)

    @pytest.mark.parametrize("shape", HUGE_SHAPES)
    @pytest.mark.parametrize("axis", [0, -1])
    def test_compressed_reader_refuses(self, tmp_path, shape, axis):
        path = tmp_path / "t.nmsc"
        path.write_bytes(compressed_header(shape, axis % len(shape)))
        with pytest.raises(TensorFormatError, match="too large"):
            read_compressed(path)

    @pytest.mark.parametrize("shape", HUGE_SHAPES)
    @pytest.mark.parametrize("axis", ["0", "-1"])
    def test_prune_exits_with_a_format_error(self, tmp_path, capsys, shape, axis):
        path = tmp_path / "t.nmsp"
        path.write_bytes(dense_header(shape))
        assert prune_cli(path, tmp_path / "o.nmsp", "--axis", axis) == EXIT_IO
        assert "too large" in capsys.readouterr().err

    @pytest.mark.parametrize("shape", [(0, LARGEST_DIM), (LARGEST_DIM, 0)])
    @pytest.mark.parametrize("axis", ["0", "-1"])
    def test_largest_empty_shapes_prune(self, tmp_path, capsys, shape, axis):
        path, out, comp = tmp_path / "t.nmsp", tmp_path / "o.nmsp", tmp_path / "o.nmsc"
        path.write_bytes(dense_header(shape))
        assert prune_cli(path, out, "--axis", axis, "--compressed", str(comp)) == EXIT_OK
        assert read_tensor(out).shape == shape
        assert decompress(read_compressed(comp)).shape == shape
        path.write_bytes(dense_header(tuple(s and s + 1 for s in shape)))
        with pytest.raises(TensorFormatError, match="too large"):
            read_tensor(path)


def fuzzed(raw: bytes, header_bytes: int):
    """raw cut at every byte, then with each bit of its header flipped."""
    for end in range(len(raw)):
        yield raw[:end]
    for bit in range(8 * header_bytes):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << bit % 8
        yield bytes(flipped)


class TestHeaderFuzz:
    """A truncated file or one header bit flipped gives TensorFormatError
    from the readers and exit 3 from prune, unless the file is still well
    formed; nothing else may come out."""

    def test_dense_file(self, tmp_path):
        src, path, out = tmp_path / "t.nmsp", tmp_path / "f.nmsp", tmp_path / "o.nmsp"
        write_tensor(src, f32_tensor((3, 4, 5), seed=16))
        raw, header = src.read_bytes(), 10 + 3 * 8
        for data in fuzzed(raw, header):
            path.write_bytes(data)
            try:
                read_tensor(path)
                want = EXIT_OK
            except TensorFormatError:
                want = EXIT_IO
            # Cuts inside the payload all read as truncated; the CLI runs
            # on the header's cuts and flips.
            if len(data) <= header or len(data) == len(raw):
                assert prune_cli(path, out) == want

    def test_compressed_file(self, tmp_path):
        src, path = tmp_path / "t.nmsc", tmp_path / "f.nmsc"
        pruned = prune_tensor(f32_tensor((3, 4, 5), seed=17), EstimatorKind.GREEDY_MSE, P24)
        write_compressed(src, compress(pruned, P24))
        for data in fuzzed(src.read_bytes(), 16 + 3 * 8):
            path.write_bytes(data)
            try:
                c = read_compressed(path)
            except TensorFormatError:
                continue
            decompress(c)


class FailingPayloadFile:
    """A file whose writes stop with OSError after the header."""

    def __init__(self, path, mode):
        self.fh, self.writes = open(path, mode), 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.writes:
            raise OSError("no space left on device")
        self.writes += 1
        return self.fh.write(data)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


class TestAtomicWrites:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_failed_write_leaves_the_old_file(self, tmp_path, monkeypatch, compressed):
        from nmsparse import tensorio

        t = prune_tensor(f32_tensor((8, 12), seed=5), EstimatorKind.GREEDY_MSE, P24)
        write = (lambda p, x: write_compressed(p, compress(x, P24))) if compressed else write_tensor
        path = tmp_path / "out.bin"
        write(path, t)
        before = path.read_bytes()
        monkeypatch.setattr(tensorio, "open", FailingPayloadFile, raising=False)
        with pytest.raises(OSError, match="no space"):
            write(path, prune_tensor(f32_tensor((8, 12), seed=6), EstimatorKind.GREEDY_MSE, P24))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_failed_write_of_a_new_file_leaves_nothing(self, tmp_path, monkeypatch):
        from nmsparse import tensorio

        monkeypatch.setattr(tensorio, "open", FailingPayloadFile, raising=False)
        with pytest.raises(OSError):
            write_tensor(tmp_path / "new.nmsp", f32_tensor((4, 4), seed=7))
        assert os.listdir(tmp_path) == []

    def test_rewrite_replaces_the_file(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, f32_tensor((4, 4), seed=8))
        second = f32_tensor((2, 6), seed=9)
        write_tensor(path, second)
        assert read_tensor(path) == second
        assert os.listdir(tmp_path) == ["t.nmsp"]

    def test_rewrite_keeps_the_permission_bits(self, tmp_path):
        path = tmp_path / "t.nmsp"
        write_tensor(path, f32_tensor((4, 4), seed=8))
        os.chmod(path, 0o640)
        write_tensor(path, f32_tensor((4, 4), seed=9))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640

    def test_write_through_a_symlink_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "target.nmsp", tmp_path / "link.nmsp"
        write_tensor(target, f32_tensor((4, 4), seed=8))
        link.symlink_to(target.name)
        second = f32_tensor((2, 6), seed=9)
        write_tensor(link, second)
        assert link.is_symlink()
        assert read_tensor(target) == second
        assert sorted(os.listdir(tmp_path)) == ["link.nmsp", "target.nmsp"]
