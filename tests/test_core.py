import numpy as np
import pytest

from nmsparse.core import (
    Block,
    BlockMask,
    BlockedTensor,
    SparsityPattern,
    merge_axis,
    pattern_violations,
    split_axis,
)
from nmsparse.rng import RandomStream


class TestSparsityPattern:
    def test_parse_and_kept(self):
        p = SparsityPattern.parse("2:4")
        assert (p.n, p.m, p.kept) == (2, 4, 2)
        assert str(p) == "2:4"
        assert SparsityPattern.parse("1:2").kept == 1
        assert SparsityPattern.parse("4:8").kept == 4

    @pytest.mark.parametrize("bad", ["", "2", "2:4:8", "a:b", "2;4"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            SparsityPattern.parse(bad)

    @pytest.mark.parametrize("n,m", [(0, 4), (4, 4), (5, 4), (1, 3), (1, 16), (-1, 2)])
    def test_rejects_out_of_range(self, n, m):
        with pytest.raises(ValueError):
            SparsityPattern(n, m)


class TestBlockTypes:
    def test_block_validates_length_and_finiteness(self):
        Block([1.0, 2.0])
        Block([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            Block([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            Block([1.0, np.nan])
        with pytest.raises(ValueError):
            Block([1.0, np.inf, 2.0, 3.0])

    def test_mask_cardinality_enforced(self):
        p24 = SparsityPattern(2, 4)
        BlockMask([True, False, True, False], p24)
        with pytest.raises(ValueError):
            BlockMask([True, True, True, False], p24)
        with pytest.raises(ValueError):
            BlockMask([True, False], p24)

    def test_kept_indices(self):
        mask = BlockMask([False, True, False, True], SparsityPattern(2, 4))
        assert mask.kept_indices() == (1, 3)


class TestBlockedTensor:
    def test_shape_data_consistency(self):
        t = BlockedTensor((2, 3), np.arange(6, dtype=float))
        assert t.block_axis == 1
        np.testing.assert_array_equal(t.as_array(), np.arange(6.0).reshape(2, 3))
        with pytest.raises(ValueError):
            BlockedTensor((2, 3), np.arange(5, dtype=float))

    def test_axis_normalization_and_bounds(self):
        t = BlockedTensor((2, 3, 4), np.zeros(24), block_axis=-2)
        assert t.block_axis == 1
        with pytest.raises(ValueError):
            BlockedTensor((2, 3), np.zeros(6), block_axis=2)
        with pytest.raises(ValueError):
            BlockedTensor((2, 3), np.zeros(6), block_axis=-3)

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            BlockedTensor.from_array(np.float64(3.0))

    def test_float32_kept_other_dtypes_widened(self):
        assert BlockedTensor.from_array(np.ones((2, 4), np.float32)).data.dtype == np.float32
        assert BlockedTensor.from_array(np.ones((2, 4), np.float16)).data.dtype == np.float64
        assert BlockedTensor.from_array(np.arange(8).reshape(2, 4)).data.dtype == np.float64

    def test_writable_input_is_copied_read_only_input_shared(self):
        arr = np.arange(8.0).reshape(2, 4)
        t = BlockedTensor.from_array(arr)
        arr[0, 0] = 99.0
        assert t.as_array()[0, 0] == 0.0
        assert not t.data.flags.writeable
        frozen = np.arange(8.0)
        frozen.setflags(write=False)
        assert np.shares_memory(BlockedTensor((2, 4), frozen).data, frozen)

    def test_equality(self):
        a = BlockedTensor.from_array(np.arange(8.0).reshape(2, 4))
        b = BlockedTensor.from_array(np.arange(8.0).reshape(2, 4))
        c = BlockedTensor.from_array(np.arange(8.0).reshape(2, 4), block_axis=0)
        assert a == b
        assert a != c


class TestSplitMerge:
    def test_even_split_counts(self):
        t = BlockedTensor.from_array(np.arange(24.0).reshape(2, 12))
        blocks, tail = split_axis(t, 4)
        assert len(blocks) == 6
        assert tail.shape == (2, 0)
        np.testing.assert_array_equal(blocks[0], [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(blocks[3], [12.0, 13.0, 14.0, 15.0])

    def test_remainder_tail_carried_dense(self):
        t = BlockedTensor.from_array(np.arange(5.0)[None, :])
        blocks, tail = split_axis(t, 4)
        assert len(blocks) == 1
        assert tail.shape == (1, 1)
        np.testing.assert_array_equal(tail, [[4.0]])

    def test_zero_length_axis(self):
        t = BlockedTensor.from_array(np.zeros((3, 0)))
        blocks, tail = split_axis(t, 4)
        assert blocks.shape == (0, 4)
        assert tail.shape == (3, 0)

    def test_short_axis_all_tail(self):
        t = BlockedTensor.from_array(np.arange(6.0).reshape(2, 3))
        blocks, tail = split_axis(t, 4)
        assert blocks.shape == (0, 4)
        assert tail.shape == (2, 3)
        np.testing.assert_array_equal(tail, np.arange(6.0).reshape(2, 3))

    def test_split_rejects_non_finite(self):
        t = BlockedTensor((1, 4), np.array([1.0, np.nan, 3.0, 4.0]))
        with pytest.raises(ValueError):
            split_axis(t, 4)

    @pytest.mark.parametrize("shape,axis,m", [
        ((8,), 0, 2),
        ((3, 10), 1, 4),
        ((3, 10), 0, 2),
        ((2, 5, 7), 1, 4),
        ((2, 5, 7), 2, 2),
        ((4, 9), 1, 8),
        ((1, 5), 1, 4),
    ])
    def test_merge_inverts_split(self, shape, axis, m):
        stream = RandomStream(11, stream=hash((shape, axis, m)) & 0xFFFF)
        arr = stream.normals(shape)
        t = BlockedTensor.from_array(arr, block_axis=axis)
        blocked, tail = split_axis(t, m)
        back = merge_axis(blocked, tail, shape, axis)
        assert back == t

    def test_merge_rejects_mismatched_counts(self):
        t = BlockedTensor.from_array(np.arange(8.0).reshape(2, 4))
        blocked, tail = split_axis(t, 4)
        with pytest.raises(ValueError):
            merge_axis(blocked[:1], tail, t.shape, t.block_axis)
        with pytest.raises(ValueError):
            merge_axis(blocked, np.zeros((2, 1)), t.shape, t.block_axis)
        with pytest.raises(ValueError):
            merge_axis(blocked, tail.T, t.shape, t.block_axis)

    def test_lane_order_is_row_major(self):
        arr = np.arange(12.0).reshape(3, 4)
        blocked, tail = split_axis(BlockedTensor.from_array(arr, block_axis=0), 2)
        # Along axis 0 each lane is a column; lanes are enumerated in order.
        np.testing.assert_array_equal(blocked[0], [0.0, 4.0])
        np.testing.assert_array_equal(blocked[1], [1.0, 5.0])
        np.testing.assert_array_equal(tail[:, 0], [8.0, 9.0, 10.0, 11.0])


class TestPatternViolations:
    def test_counts_violating_blocks(self):
        arr = np.array([[1.0, 0.0, 0.0, 2.0, 3.0, 4.0, 0.0, 1.0]])
        t = BlockedTensor.from_array(arr)
        assert pattern_violations(t, SparsityPattern(2, 4)) == 1

    def test_tail_never_counts(self):
        arr = np.array([[1.0, 0.0, 0.0, 0.0, 9.0, 9.0, 9.0]])
        t = BlockedTensor.from_array(arr)
        assert pattern_violations(t, SparsityPattern(2, 4)) == 0
