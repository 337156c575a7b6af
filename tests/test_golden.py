"""Seeded outputs stay bit-identical: SHA-256 digests of the NMSP and NMSC
files of every method on a fixed float32 tensor, pruned along each axis.

67 x 71 leaves a tail on both axes for m = 2 and m = 4; the tensor holds
zeros, an all-zero row and an all-zero column. A digest changes only with
the bits of some draw, survivor or file field; a change that means to
alter them records the new digests and says which outputs moved and why.
"""

import hashlib

import numpy as np
import pytest

from nmsparse.core import BlockedTensor, SparsityPattern
from nmsparse.estimators import EstimatorKind, prune_tensor
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
