"""Property tests of the method records and kernels, with fixed seeds.

They add to the pinned statistical gates, which they do not replace:
each checks an identity that must hold for every block, over blocks
drawn from the whole finite float64 range, zeros and ties included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nmsparse import core, estimators
from nmsparse.core import BlockedTensor, SparsityPattern, _coded, _coded_split, _split_blocks, merge_axis
from nmsparse.estimators import (
    METHODS,
    PAIR_INDEX_COLUMNS,
    PATTERN_24,
    PRUNE_CHUNK_BLOCKS,
    EstimatorKind,
    approx24_pair_probs,
    elementwise_variance_array,
    exact24_pair_probs,
    prune_array,
    prune_tensor,
)
from nmsparse.rng import RandomStream
from nmsparse.tensorio import compress, decompress

from reference import reference_split

FIXED = settings(derandomize=True, database=None, max_examples=60, deadline=None)
METHOD = st.sampled_from(list(EstimatorKind))
STOCHASTIC = st.sampled_from([kind for kind in EstimatorKind if kind.is_stochastic])
# Extreme inputs make numpy warn of the overflows the kernels then undo.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

# Any finite value, with zeros, ties and both ends of the range well represented.
ANY_FINITE = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 2.0, 1e308, -1.7e308, 5e-324, 1e-310]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# Magnitudes that stay normal under any scaling by 2**k, |k| <= 1000.
SCALABLE = st.one_of(st.just(0.0), st.floats(1.0, 1024.0), st.floats(-1024.0, -1.0))


def blocks(m: int, elements=ANY_FINITE, count: int = 8):
    return st.lists(st.lists(elements, min_size=m, max_size=m), min_size=1, max_size=count).map(
        lambda rows: np.array(rows, dtype=np.float64)
    )


def pattern_of(kind: EstimatorKind):
    return kind.required_pattern or PATTERN_24


def probs(kind: EstimatorKind, values: np.ndarray):
    return METHODS[kind].probs(values, pattern_of(kind))


def nonzero(values: np.ndarray) -> bool:
    return bool(np.all(np.any(values != 0.0, axis=1)))


@pytest.mark.parametrize("kind", [kind for kind in EstimatorKind if kind.is_stochastic])
@FIXED
@given(data=st.data())
def test_kept_sets_are_a_distribution_with_the_marginals(kind, data):
    values = data.draw(blocks(kind.required_pattern.m))
    sets, table = METHODS[kind].kept_set_probs(values)
    keep = np.array([[i in kept for i in range(values.shape[1])] for kept in sets])
    assert np.all(table >= 0.0)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, rtol=0, atol=4 * np.spacing(1.0))
    marginals = probs(kind, values)[0]
    assert np.all(np.abs(table @ keep - marginals) <= 4 * np.spacing(np.maximum(marginals, 0.5)))


@FIXED
@given(kind=STOCHASTIC, data=st.data())
def test_marginals_sum_to_the_kept_count(kind, data):
    values = data.draw(blocks(kind.required_pattern.m))
    p, q = probs(kind, values)
    kept = kind.required_pattern.kept
    np.testing.assert_allclose(p.sum(axis=1), kept, rtol=0, atol=8 * np.spacing(float(kept)))
    np.testing.assert_allclose(p + q, 1.0, rtol=0, atol=4 * np.spacing(1.0))


@FIXED
@given(kind=METHOD, data=st.data(), k=st.integers(-1000, 1000), seed=st.integers(0, 2**32))
def test_scaling_by_a_power_of_two_changes_nothing(kind, data, k, seed):
    pattern = pattern_of(kind)
    values = data.draw(blocks(pattern.m, SCALABLE))
    scaled = np.ldexp(values, k)
    for got, want in zip(probs(kind, scaled), probs(kind, values)):
        np.testing.assert_array_equal(got, want)
    if METHODS[kind].kept_set_probs is not None:
        np.testing.assert_array_equal(
            METHODS[kind].kept_set_probs(scaled)[1], METHODS[kind].kept_set_probs(values)[1]
        )
    got = prune_array(scaled, kind, pattern, RandomStream(seed))[1]
    np.testing.assert_array_equal(got, prune_array(values, kind, pattern, RandomStream(seed))[1])


@FIXED
@given(kind=METHOD, data=st.data())
def test_deviation_is_q_a_over_p(kind, data):
    # Where p and q are normal, the record's closed form for d matches
    # q |a| / p (rescaled) or q |a| (raw) formed from the probabilities.
    pattern = pattern_of(kind)
    values = data.draw(blocks(pattern.m, SCALABLE))
    p, q = probs(kind, values)
    mags = np.abs(values)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = q * mags / p if METHODS[kind].rescale else q * mags
    got = METHODS[kind].deviation(values, pattern)
    normal = (mags > 0.0) & (p > 0.0) & (q > 0.0)
    np.testing.assert_allclose(got[normal], want[normal], rtol=8 * np.finfo(float).eps)
    np.testing.assert_array_equal(got[(mags > 0.0) & (q == 0.0)], 0.0)


@FIXED
@given(kind=STOCHASTIC, data=st.data())
def test_permuting_a_block_permutes_its_marginals(kind, data):
    m = kind.required_pattern.m
    values = data.draw(blocks(m))
    perm = np.array(data.draw(st.permutations(range(m))))
    # An all-zero 1:2 block keeps index 0 by convention, whatever the order.
    assume(kind.required_pattern.m != 2 or nonzero(values))
    got, want = probs(kind, values[:, perm])[0], probs(kind, values)[0][:, perm]
    # Sums in another order round apart; approx24 forms p as 1 - q.
    np.testing.assert_allclose(got, want, rtol=0, atol=4 * np.spacing(1.0))


@FIXED
@given(kind=METHOD, data=st.data(), seed=st.integers(0, 2**32))
def test_flipping_signs_flips_only_the_survivors(kind, data, seed):
    # Every probability and draw reads magnitudes alone.
    pattern = pattern_of(kind)
    values = data.draw(blocks(pattern.m))
    method = METHODS[kind]
    got = [*probs(kind, -values), method.deviation(-values, pattern)]
    want = [*probs(kind, values), method.deviation(values, pattern)]
    if method.kept_set_probs is not None:
        got.append(method.kept_set_probs(-values)[1])
        want.append(method.kept_set_probs(values)[1])
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    out, mask = prune_array(-values, kind, pattern, RandomStream(seed))
    ref_out, ref_mask = prune_array(values, kind, pattern, RandomStream(seed))
    np.testing.assert_array_equal(mask, ref_mask)
    np.testing.assert_array_equal(out, -ref_out)


# Blocks of four distinct magnitudes: the rank order, which decides the
# pair a tie excludes, follows the permutation.
DISTINCT = st.lists(
    st.lists(ANY_FINITE, min_size=4, max_size=4, unique_by=abs), min_size=1, max_size=8
).map(lambda rows: np.array(rows, dtype=np.float64))


@FIXED
@given(values=DISTINCT, perm=st.permutations(range(4)))
def test_permuting_a_block_permutes_its_pair_probabilities(values, perm):
    # Pair (i, j) of the permuted block is pair (perm[i], perm[j]) of the block.
    columns = [PAIR_INDEX_COLUMNS.index(tuple(sorted((perm[i], perm[j]))))
               for i, j in PAIR_INDEX_COLUMNS]
    permuted = values[:, perm]
    np.testing.assert_array_equal(exact24_pair_probs(permuted), exact24_pair_probs(values)[:, columns])
    np.testing.assert_allclose(
        approx24_pair_probs(permuted), approx24_pair_probs(values)[:, columns],
        rtol=0, atol=4 * np.spacing(1.0),
    )


@FIXED
@given(kind=METHOD, data=st.data(), seed=st.integers(0, 2**32))
def test_every_kernel_keeps_the_pattern(kind, data, seed):
    pattern = pattern_of(kind)
    values = data.draw(blocks(pattern.m))
    out, mask = prune_array(values, kind, pattern, RandomStream(seed))
    np.testing.assert_array_equal(mask.sum(axis=1), pattern.kept)
    assert not np.any(np.isnan(out))
    assert np.all(out[~mask] == 0.0)


@FIXED
@given(
    st.integers(-300, 300), st.integers(-300, 300),
    st.floats(1.0, 10.0, exclude_max=True), st.floats(1.0, 10.0, exclude_max=True),
)
def test_12_variance_is_the_product_of_magnitudes(e0, e1, m0, m1):
    # Magnitudes from 1e-300 to 1e300 whose product is in range.
    assume(abs(e0 + e1) <= 300)
    values = np.array([[m0 * 10.0**e0, -m1 * 10.0**e1]])
    want = abs(values[0, 0] * values[0, 1])
    var = elementwise_variance_array(values, EstimatorKind.MVUE12)[0]
    assert np.all(np.abs(var - want) <= 4 * np.spacing(want))


# Any finite float32 value, with zeros, subnormals and both ends of the range.
ANY_FINITE32 = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 3.4e38, -3.4e38, 1e-45, -1e-40]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@FIXED
@given(
    kind=st.sampled_from([EstimatorKind.MVUE12, EstimatorKind.MVUE24_EXACT, EstimatorKind.MVUE24_APPROX]),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
    k=st.integers(-1000, 1000),
    seed=st.integers(0, 2**32),
)
def test_a_block_within_the_pattern_comes_back_unchanged(kind, dtype, data, k, seed):
    # A block with at most kept nonzeros keeps them all with probability 1,
    # so the unbiased samplers return each nonzero bit for bit (a dropped
    # -0.0 may come back as 0.0): float32 blocks from the whole float32
    # range, float64 blocks at any power-of-two scale.
    pattern = pattern_of(kind)
    if dtype is np.float32:
        values = data.draw(blocks(pattern.m, ANY_FINITE32)).astype(np.float32)
    else:
        values = np.ldexp(data.draw(blocks(pattern.m, SCALABLE)), k)
    for row in values:
        kept = data.draw(st.sets(st.integers(0, pattern.m - 1), max_size=pattern.kept))
        row[[i for i in range(pattern.m) if i not in kept]] = 0.0
    out = prune_array(values, kind, pattern, RandomStream(seed))[0]
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, values)
    bits, nonzero = f"u{out.itemsize}", values != 0.0
    np.testing.assert_array_equal(out[nonzero].view(bits), values[nonzero].view(bits))


def reference_prune_tensor(t: BlockedTensor, kind, pattern, stream) -> np.ndarray:
    """prune_tensor through reference_split: one prune_array call on the
    copied block region, written back through the moved axes."""
    out = np.moveaxis(t.as_array(), t.block_axis, -1).copy()
    blocks, _ = reference_split(t, pattern.m)
    if blocks.size:
        head = out[..., : out.shape[-1] - out.shape[-1] % pattern.m]
        head[...] = prune_array(blocks, kind, pattern, stream)[0].reshape(head.shape)
    return np.moveaxis(out, -1, t.block_axis)


GREEDY_PATTERNS = [SparsityPattern(1, 2), PATTERN_24, SparsityPattern(5, 8)]
# Lanes and blocks per tile of core._copy_blocks: 1, 3 and the real sizes.
TILES = st.tuples(st.sampled_from([1, 3, core.TILE_LANES]), st.sampled_from([1, 3, core.TILE_BLOCKS]))


def tiled(lanes: int, blocks: int):
    return mock.patch.multiple(core, TILE_LANES=lanes, TILE_BLOCKS=blocks)


@settings(FIXED, max_examples=150)
@given(
    kind=METHOD,
    dtype=st.sampled_from([np.float32, np.float64]),
    chunk=st.sampled_from([1, 3, 16, PRUNE_CHUNK_BLOCKS]),
    tiles=TILES,
    data=st.data(),
    seed=st.integers(0, 2**32),
)
def test_prune_tensor_matches_the_moved_axis_reference(kind, dtype, chunk, tiles, data, seed):
    # Any 1-4-D shape on any axis, with tails and zero-length dimensions, at
    # any chunk and tile size: the lane view prunes bit for bit as the copy
    # of the moved block region did, draws as many uniforms, and leaves with
    # the output the split that a fresh split of a copy reads.
    if kind is EstimatorKind.GREEDY_MSE:
        pattern = data.draw(st.sampled_from(GREEDY_PATTERNS))
    else:
        pattern = pattern_of(kind)
    shape = data.draw(array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=6))
    axis = data.draw(st.integers(-len(shape), len(shape) - 1))
    elements = ANY_FINITE32 if dtype is np.float32 else ANY_FINITE
    values = data.draw(arrays(np.float64, shape, elements=elements)).astype(dtype)
    t = BlockedTensor.from_array(values, block_axis=axis)
    stream, ref_stream = RandomStream(seed), RandomStream(seed)
    with mock.patch.object(estimators, "PRUNE_CHUNK_BLOCKS", chunk), tiled(*tiles):
        got = prune_tensor(t, kind, pattern, stream)
    want = reference_prune_tensor(t, kind, pattern, ref_stream)
    bits = f"u{values.itemsize}"
    assert got.data.dtype == dtype and got.shape == t.shape and got.block_axis == t.block_axis
    np.testing.assert_array_equal(got.as_array().view(bits), want.view(bits))
    np.testing.assert_array_equal(stream.uniforms(4), ref_stream.uniforms(4))

    fresh = BlockedTensor(got.shape, got.data.copy(), got.block_axis)
    blocks, tail, codes = got._split[pattern.m]
    ref_blocks, ref_tail = reference_split(fresh, pattern.m)
    for cached, fresh_split in ((blocks, ref_blocks), (tail, ref_tail)):
        assert cached.shape == fresh_split.shape and cached.dtype == fresh_split.dtype
        np.testing.assert_array_equal(cached.view(bits), fresh_split.view(bits))
    np.testing.assert_array_equal(codes, _coded_split(fresh, pattern.m)[2])


# Tails, lane and block counts that 3 does not divide, zero-length dimensions.
COPY_LAYOUTS = [((9, 7), 0), ((7, 10), 0), ((3, 11, 5), 1), ((2, 13, 4), 0), ((6, 9), 1),
                ((4, 5, 0), 1), ((0, 9, 6), 1)]


@pytest.mark.parametrize("shape, axis", COPY_LAYOUTS,
                         ids=[f"{'x'.join(map(str, s))}-axis{a}" for s, a in COPY_LAYOUTS])
@settings(FIXED, max_examples=12)
@given(dtype=st.sampled_from([np.float32, np.float64]), m=st.sampled_from([2, 4, 8]),
       tiles=TILES, data=st.data())
def test_layout_copies_match_a_plain_copy(shape, axis, dtype, m, tiles, data):
    # merge_axis, decompress of a compressed tensor and _coded of a lane
    # view, at tiles that do and do not divide the lanes and blocks: bit for
    # bit the copy of the moved block region.
    values = data.draw(arrays(dtype, shape, elements=ANY_FINITE32))
    t = BlockedTensor.from_array(values, block_axis=axis)
    blocks, tail = reference_split(t, m)
    # Every block's upper half zeroed: a tensor that compresses at n = m / 2.
    sparse = np.where(np.arange(m) < m // 2, blocks, 0.0).astype(dtype)
    with tiled(*tiles):
        merged = merge_axis(blocks, tail, shape, axis)
        coded = _coded(*_split_blocks(t, m))
        packed = merge_axis(sparse, tail, shape, axis)
        unpacked = decompress(compress(packed, SparsityPattern(m // 2, m)))
    bits = f"u{values.itemsize}"
    np.testing.assert_array_equal(merged.as_array().view(bits), values.view(bits))
    for got, want in zip(coded, (blocks, tail)):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(bits), want.view(bits))
    np.testing.assert_array_equal(coded[2], (blocks != 0.0) @ (1 << np.arange(m)))
    np.testing.assert_array_equal(unpacked.as_array().view("u4"),
                                  packed.as_array().astype(np.float32).view("u4"))


def rank_based_exact24(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """mvue24's survivors written by rank, as before the rank-free form:
    every survivor has magnitude `scale` except the max, rank 3, which
    keeps max(b4, scale)."""
    mags_t = np.abs(values.T)
    (*_, b4), ranks = estimators._sort4(mags_t)
    scale = estimators._exact24_sums(mags_t)[1]
    kept = np.maximum(scale, b4 * (ranks == 3))
    mask = estimators.prune_mvue24_exact_array(values, u)[1]
    return np.where(mask, (np.sign(values.T) * kept).T, 0.0)


# Zeros of both signs and exact ties, among magnitudes that stay normal.
TIED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0]), SCALABLE)


@settings(FIXED, max_examples=200)
@given(values=blocks(4, TIED), k=st.integers(-990, 989), seed=st.integers(0, 2**32))
def test_exact24_survivors_need_no_rank(values, k, seed):
    # sign(a) max(scale, |a|) is the rank-based survivor, bit for bit, in
    # every regime and on all-zero, three-zero and tied blocks, at any
    # power-of-two scale in the kernels' range.
    values = np.ldexp(values, k)
    u = RandomStream(seed).uniforms(len(values))
    got = estimators.prune_mvue24_exact_array(values, u)[0]
    np.testing.assert_array_equal(got.view(np.uint64), rank_based_exact24(values, u).view(np.uint64))
