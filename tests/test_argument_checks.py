"""Seeds, counts and the learning rate are checked where they enter the API:
a boolean, a float or a string raises ContractError before any work, and
numpy integers pass as the Python integers they equal."""

import numpy as np
import pytest

from moce.clustering import elbow_select, kmeans_fit, save_kmeans
from moce.data import make_two_dialect_corpus
from moce.embedding import embed_sequence
from moce.errors import ContractError
from moce.optim import Adam
from moce.seeding import substream, substream_seed
from moce.tensor import Tensor

POINTS = np.random.default_rng(0).standard_normal((12, 4))

LOOSE = {
    "substream-seed-bool": lambda: substream(True, "x"),
    "substream-seed-float": lambda: substream(1.5, "x"),
    "substream-seed-string": lambda: substream("1", "x"),
    "substream_seed-seed-bool": lambda: substream_seed(True, "x"),
    "substream_seed-seed-float": lambda: substream_seed(1.0, "x"),
    "kmeans-seed-bool": lambda: kmeans_fit(POINTS, 2, seed=True),
    "kmeans-seed-float": lambda: kmeans_fit(POINTS, 2, seed=1.5),
    "kmeans-seed-bool-with-starts": lambda: kmeans_fit(POINTS, 2, seed=True, n_init=1,
                                                       starts=[POINTS[:2]]),
    "kmeans-k-float": lambda: kmeans_fit(POINTS, 2.5, seed=0),
    "kmeans-k-numpy-float": lambda: kmeans_fit(POINTS, np.float64(2.0), seed=0),
    "kmeans-k-bool": lambda: kmeans_fit(POINTS, True, seed=0),
    "kmeans-n_init-float": lambda: kmeans_fit(POINTS, 2, seed=0, n_init=2.5),
    "kmeans-n_init-bool": lambda: kmeans_fit(POINTS, 2, seed=0, n_init=True),
    "elbow-k_max-float": lambda: elbow_select(POINTS, k_max=3.5),
    "elbow-seed-bool": lambda: elbow_select(POINTS, k_max=3, seed=True),
    "embed-d_e-float": lambda: embed_sequence([1, 2], d_e=2.5),
    "embed-d_e-bool": lambda: embed_sequence([1, 2], d_e=True),
    "embed-seed-bool": lambda: embed_sequence([1, 2], seed=True),
    "embed-seed-float": lambda: embed_sequence([1, 2], seed=1.0),
    "corpus-count-float": lambda: make_two_dialect_corpus(2.5, 0),
    "corpus-seed-bool": lambda: make_two_dialect_corpus(4, True),
    "adam-lr-bool": lambda: Adam([Tensor(np.ones(2), requires_grad=True)], lr=True),
    "adam-lr-string": lambda: Adam([Tensor(np.ones(2), requires_grad=True)], lr="0.1"),
    "adam-lr-none": lambda: Adam([Tensor(np.ones(2), requires_grad=True)], lr=None),
}


@pytest.mark.parametrize("case", sorted(LOOSE))
def test_a_loose_seed_count_or_rate_raises(case):
    """Each of these fitted, hashed or stepped as another value, or failed
    with a bare TypeError or AttributeError, before the check."""
    with pytest.raises(ContractError):
        LOOSE[case]()


def test_numpy_integers_pass_as_python_integers(tmp_path):
    """The same fit, stream, hash and corpus whether the integers are numpy's
    or Python's; the saved k-means header reads the plain integer."""
    i = np.int64
    assert substream(i(7), "x").random() == substream(7, "x").random()
    assert substream_seed(np.uint8(7), "x") == substream_seed(7, "x")
    a = kmeans_fit(POINTS, i(3), seed=i(2), n_init=i(2))
    b = kmeans_fit(POINTS, 3, seed=2, n_init=2)
    assert np.array_equal(a.centroids, b.centroids) and a.seed == b.seed == 2
    save_kmeans(str(tmp_path / "a.txt"), a)
    save_kmeans(str(tmp_path / "b.txt"), b)
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
    assert (elbow_select(POINTS, k_max=i(3), seed=i(1)).sse_curve
            == elbow_select(POINTS, k_max=3, seed=1).sse_curve)
    assert np.array_equal(embed_sequence([1, 2], d_e=i(8), seed=i(3)),
                          embed_sequence([1, 2], d_e=8, seed=3))
    assert make_two_dialect_corpus(i(3), i(4)) == make_two_dialect_corpus(3, 4)
    Adam([Tensor(np.ones(2), requires_grad=True)], lr=np.float64(0.1))
