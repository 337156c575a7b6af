"""Seeded outputs stay bit-identical: SHA-256 digests of the NMSP and NMSC
files of every method on a fixed float32 tensor, pruned along each axis,
of every stochastic method's float64 draws, of the variance-ratio scan's
CSV, and of the ``verify`` stdout and ``demo-train`` CSVs of the CLI.

67 x 71 leaves a tail on both axes for m = 2 and m = 4; the tensor holds
zeros, an all-zero row and an all-zero column. A digest changes only with
the bits of some draw, survivor or file field; a change that means to
alter them records the new digests and says which outputs moved and why.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from nmsparse.analysis import scan_summary
from nmsparse.cli import EXIT_OK, main
from nmsparse.core import BlockedTensor, SparsityPattern
from nmsparse.estimators import EstimatorKind, prune_array, prune_tensor
from nmsparse.rng import RandomStream
from nmsparse.tensorio import compress, write_compressed, write_tensor

# (method, block axis): (NMSP digest, NMSC digest)
DIGESTS = {
    ("greedy", -1): ("faa569e967aba0548e423ec1a91e947c5e4dccd6167714923c684ff421a05775",
        "4717fb51abad269730e30015f27fe3e9d2875ad581d09f00014d847e3f991ceb"),
    ("greedy", 0): ("bc99345177a020646671eec30fccf10163464f8d73d32c4b0f8f4a3ea4434510",
        "52ffafb5dbd0cbeedb74d5abad7fb1aa8594c82fbc6a183a3c0cb4ffff6298e9"),
    ("mvue12", -1): ("8de440daed8dd662d74a5411ce5731f06df78a6889fd4c035cb811d37dec503a",
        "fb7fbde44d07b5d9817db995c17f41b600bae325cff0699b95f673f04b459bd6"),
    ("mvue12", 0): ("763e8aa31f28d827cc5e0c4357fca2093dd7427969eb1e5b22f5266c1aac66b8",
        "484274d88281d58507a7140ae562dbfc30b4d835c396455f8e447652258ed82a"),
    ("mvue24", -1): ("f11a958ea19c29dda2f8a20d9c8c160bdbf0f66741ad215a63ef0b85f4996698",
        "f36a83acf1cf9badbdc016c2fec247096fc72307e9b2758fce5654950290495f"),
    ("mvue24", 0): ("1c7b7b115c5e7820c92c20549333ec326a029a6e343566d720e378169aa58fe6",
        "4cb953e22a2c83fc151eb0a05645566068efa86d2a4e838354534768cf44c9d6"),
    ("approx24", -1): ("c8ecdf59f41d1e09b87a70c8ddd5e448509df8d6a4bdcc20dc179b3213e808f4",
        "fc60e06022e499fa6e2f2d6e0c761fb1f47c3a27072fbcf4ebfb92f927b6cfc8"),
    ("approx24", 0): ("e6e4b15282830f0c92b29335b41a86162c45545063fc395e08ec4b9ad6078f2c",
        "872c4a54f44404d5e0bb434e89f4c7220ba923215f9260c99924e29c928dc2ba"),
    ("biased", -1): ("ba0193fff973c71c1f6f665acaaf8fb1dc139ccd7cf965bc1f678e65c73d6a3d",
        "1333d0784f230f90a68ba551e23742225456daf993125467d593841b3f406e34"),
    ("biased", 0): ("486d1534ead97ebbe6dc049738dfe4fcbf9e2108a51694eb11343e7f52f2a5e7",
        "b8fc09bbff6ee4eb12bc65bfe65f5b3192836c5ebd67d1d7f61a22ba85eaadce"),
    ("uniform", -1): ("bfa3a34ed10ac098d6f8758304ef9935cc6f2c122c280a7011f1a4cadd7736ce",
        "6c58e50053d6d7327e3f1240ba4c5bf1ed550e3d76dfa184f7c754415f689bf0"),
    ("uniform", 0): ("bb870537be9e7ff43bc7f942d4ce19ffe8ef3901077b0edd413ae3d9a2aa56e2",
        "3c4bc293a5b4720b4501696468e30bb61054ed55041a9176b23671a871685d80"),
    ("unbiased-uniform", -1): ("f30e9259063416e43c8d240dd14a0dd21b6c9fe7753b5cedae103c78aed05af8",
        "05c8b33a34e06cdd73981df04ad429b13bb87284e09034c576f578cbd33b31bb"),
    ("unbiased-uniform", 0): ("fc8282d1d39073bd51e230f9abca14d58af5552d9ad3011d22b05ebbb74651d0",
        "e4d50e2791effc6bcde849769efbb53748e449fc4b14373d64564dcd568d6e78"),
}


def golden_tensor() -> np.ndarray:
    stream = RandomStream(20, stream=67)
    data = stream.normals((67, 71)) * np.exp(stream.normals((67, 71)))
    data[stream.uniforms((67, 71)) < 0.15] = 0.0
    data[5] = 0.0
    data[:, 3] = 0.0
    return data.astype(np.float32)


@pytest.mark.parametrize("kind,axis", [(EstimatorKind(k), a) for k, a in DIGESTS],
                         ids=[f"{k}-axis{a}" for k, a in DIGESTS])
def test_pruned_files_keep_their_digests(kind, axis, tmp_path):
    data = golden_tensor()
    pattern = kind.required_pattern or SparsityPattern(2, 4)
    pruned = prune_tensor(BlockedTensor(data.shape, data, axis), kind, pattern, RandomStream(7))
    write_tensor(tmp_path / "t.nmsp", pruned)
    write_compressed(tmp_path / "t.nmsc", compress(pruned, pattern))
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("t.nmsp", "t.nmsc"))
    assert got == DIGESTS[kind.value, axis]


# (step, refine_edges): digest of the scan_summary CSV
SCAN_DIGESTS = {
    (0.02, False): "031a45a8aec435d7e015c0ce083854ebf1c0e83b2080177019709bd5db1e6288",
    (0.1, True): "0c4e296b873a0de5f09c6ec7d98d6473053e8fb58bd73c9467d455bab12da8d5",
}


@pytest.mark.parametrize("step,refine_edges", list(SCAN_DIGESTS),
                         ids=[f"step{s}-refine{r}" for s, r in SCAN_DIGESTS])
def test_scan_csv_keeps_its_digest(step, refine_edges, tmp_path):
    scan_summary(step, refine_edges, csv_path=tmp_path / "scan.csv")
    got = hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest()
    assert got == SCAN_DIGESTS[step, refine_edges]


def float64_blocks(m: int) -> np.ndarray:
    """(k, m) float64 blocks, all within the kernels' range: heavy-tailed
    random blocks, all-zero blocks, blocks with one nonzero (three zeros
    at 2:4), blocks with ties and blocks already within the pattern."""
    stream = RandomStream(21, stream=m)
    normal = stream.normals((3_000, m)) * np.exp(2.0 * stream.normals((3_000, m)))
    one = np.zeros((2 * m, m))
    one[np.arange(2 * m), np.arange(2 * m) % m] = [3.5, -0.25] * m
    ties = np.array([[1.0, -1.0, 1.0, 2.0], [3.0, 3.0, 3.0, 3.0], [-2.0, 1.0, -2.0, 1.0],
                     [5.0, -5.0, 0.0, 0.0], [0.0, 7.0, 0.0, -7.0], [1.0, 1.0, 1.0, 4.0]])[:, :m]
    within = stream.normals((200, m))
    within[:, :m // 2] = 0.0
    within = np.take_along_axis(within, np.argsort(stream.uniforms((200, m)), axis=1), axis=1)
    return np.concatenate([normal, np.zeros((5, m)), one, ties, within])


# (method, case): digest of prune_array's values and mask, in float64
FLOAT64_DIGESTS = {
    ("mvue12", "blocks"): "dfdf7ef11b3d6642715631dc12729a1c4c27861a3077559bbf54c157968858c2",
    ("mvue12", "row"): "f403f0b2a1299e4a27639693ae1dbc253e33534c541f186897d71464f31ed4cc",
    ("mvue24", "blocks"): "b365fdd679bbdacabac8445ea412d31f7b6771983ca87f727e669e4c3abc9049",
    ("mvue24", "row"): "6e345c27a4f3e4e3315bbc3634644a7e77f31736d235a412346c103cabe61bb9",
    ("approx24", "blocks"): "5b45a54da472b294fe09b27cfb354f05aa9c3d15b31c6682a145ba3c7c46d35e",
    ("approx24", "row"): "44ae9b3518698ed48da9a80ac9511bd31f9dffddb289a46af95cb983f79eb59e",
    ("biased", "blocks"): "59c659da7c611c8d5b60977f09500377b6e7a9641d90c934eb5a5386174fcb9a",
    ("biased", "row"): "6b5e86ddef5ab1d5dc443363b59a39d7cc20b414b8cf9e566b5f11712320d43a",
    ("uniform", "blocks"): "637c58252745e1b368d4ce448902b4a7e6011e566d20ee79825c1d3a4b7000f0",
    ("uniform", "row"): "0e72f00355188bd349573d742d5c83db2e0047e300f7961a8501f97c58e60b08",
    ("unbiased-uniform", "blocks"): "c0a810481fd82a6bd03b53417dd8cc12732df4345fee0e81e9de7a41c61bdc9d",
    ("unbiased-uniform", "row"): "f71071c0f84c738ef7b0d84328af2a41c9e96c2b0acb30fefd84e4695253c65a",
}

ROWS = {2: [0.7, -0.2], 4: [0.3, -1.2, 0.05, 2.0]}


@pytest.mark.parametrize("kind,case", [(EstimatorKind(k), c) for k, c in FLOAT64_DIGESTS],
                         ids=[f"{k}-{c}" for k, c in FLOAT64_DIGESTS])
def test_float64_draws_keep_their_digests(kind, case):
    # "blocks": one call over the block set; "row": one block drawn 10,000
    # times through a broadcast view, as verify and mc_estimate draw it.
    m = kind.required_pattern.m
    values = float64_blocks(m) if case == "blocks" else np.broadcast_to(ROWS[m], (10_000, m))
    out, mask = prune_array(values, kind, None, RandomStream(8))
    assert out.dtype == np.float64
    digest = hashlib.sha256(np.ascontiguousarray(out).tobytes() + np.ascontiguousarray(mask).tobytes())
    assert digest.hexdigest() == FLOAT64_DIGESTS[kind.value, case]


# method: digest of `nmsparse verify --method <method> --blocks 20 --samples 2000`'s stdout
VERIFY_DIGESTS = {
    "mvue24": "66eef5f4f5d5a5698f615f73ff5db8a8216b9d2e1d04e4d3c46d721ae9ccf57c",
    "approx24": "aac4235b9745448313532e2e075d521cecd2685cc2e013be74483876796a9672",
    "mvue12": "bb71d43c47416d16b8bc6b3ae46b28b49ddbbad34ced62fe833c944aa6a9d37c",
    "greedy": "6efb17e10daaea50f1283cb6bcccae72969c0cb26627fb35444c784102b5e961",
}


@pytest.mark.parametrize("method", list(VERIFY_DIGESTS))
def test_verify_stdout_keeps_its_digest(method):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--method", method, "--blocks", "20", "--samples", "2000"]) == EXIT_OK
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_DIGESTS[method]


# --act-mask: digest of the demo-train CSV at seed 101, 12 epochs, mvue24
# gradient masks; seed 101 is where the benchmark's training gate misses.
TRAIN_DIGESTS = {
    "none": "2ca647b33ead097157f9c2cdf5c6e0d37001b57697284c80bcbfb93c56b25996",
    "relu-greedy": "8bef86898291161153160fc24266e2de1ddc4ca9622fb2cdad06da9554b4721d",
}


@pytest.mark.parametrize("act_mask", list(TRAIN_DIGESTS))
def test_demo_train_csv_keeps_its_digest(act_mask, tmp_path):
    csv = tmp_path / "curve.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["demo-train", "--seed", "101", "--epochs", "12", "--grad-mask", "mvue24",
                     "--act-mask", act_mask, "--out", str(csv)]) == EXIT_OK
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == TRAIN_DIGESTS[act_mask]
