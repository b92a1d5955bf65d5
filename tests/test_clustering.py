"""K-means fit quality against exhaustive enumeration, elbow selection on
planted structure, and the persistence format."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import exhaustive_two_means, make_planted_blobs
from moce.clustering import (
    ElbowReport,
    KMeansModel,
    _kmeanspp_init,
    _lloyd,
    _update,
    elbow_curvature,
    elbow_select,
    kmeans_fit,
    kmeans_predict,
    load_kmeans,
    save_kmeans,
    sse,
)
from moce.data import make_two_dialect_corpus, split_dataset
from moce.embedding import embed_dataset
from moce.errors import ContractError, FormatError


def sse_oracle(points, centroids, labels):
    """Double-loop objective, independent of the vectorised implementation."""
    total = 0.0
    for i in range(points.shape[0]):
        c = centroids[labels[i]]
        for j in range(points.shape[1]):
            total += (points[i, j] - c[j]) ** 2
    return total


class TestKMeansFit:
    def test_sse_matches_double_loop(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((12, 3))
        centroids = rng.standard_normal((4, 3))
        labels = rng.integers(0, 4, size=12)
        assert abs(sse(points, centroids, labels) - sse_oracle(points, centroids, labels)) < 1e-10

    def test_k_equals_n_gives_zero_sse(self):
        """With one centroid per point the objective collapses to zero."""
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = kmeans_fit(points, k=4, seed=0)
        assert model.final_sse < 1e-18

    def test_k_one_recovers_mean(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((20, 3))
        model = kmeans_fit(points, k=1, seed=0)
        assert np.max(np.abs(model.centroids[0] - points.mean(axis=0))) < 1e-12
        expected = float(((points - points.mean(axis=0)) ** 2).sum())
        assert abs(model.final_sse - expected) < 1e-10

    def test_two_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        model = kmeans_fit(points, k=2, seed=3)
        labels = kmeans_predict(model, points).labels
        assert labels[0] == labels[1] and labels[2] == labels[3] and labels[0] != labels[2]

    def test_matches_exhaustive_optimum_usually(self):
        """>= 8/10 random 6-point instances reach the enumerated global optimum."""
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            points = rng.standard_normal((6, 2))
            model = kmeans_fit(points, k=2, seed=seed)
            if model.final_sse <= exhaustive_two_means(points) + 1e-9:
                hits += 1
        assert hits >= 8, f"reached the global optimum in only {hits}/10 instances"

    def test_objective_history_non_increasing(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 4))
        model = kmeans_fit(points, k=5, seed=9)
        hist = model.sse_history
        assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))

    def test_determinism(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 3))
        a = kmeans_fit(points, k=3, seed=11)
        b = kmeans_fit(points, k=3, seed=11)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.final_sse == b.final_sse

    def test_empty_cluster_repair(self):
        """A centroid that captures nothing is moved onto the farthest point."""
        points = np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2], [5.0, 5.0]])
        init = np.array([[0.1, 0.1], [100.0, 100.0]])
        centroids, labels, history, _ = _lloyd(points, init, max_iters=50, tol=0.0)
        assert len(np.unique(labels)) == 2
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_update_matches_per_cluster_mean(self, k):
        """The one-hot product gives each member mean within 1e-12 and leaves
        an empty cluster's centroid untouched."""
        rng = np.random.default_rng(k)
        points = rng.standard_normal((40, 5)) * 3.0 + 1.0
        labels = rng.integers(0, max(1, k - 1), size=40)  # for k > 1, cluster k - 1 is empty
        centroids = rng.standard_normal((k, 5))
        expected = centroids.copy()
        for cluster in range(k):
            members = points[labels == cluster]
            if members.shape[0]:
                expected[cluster] = members.mean(axis=0)
        _update(points, centroids, labels)
        assert np.max(np.abs(centroids - expected)) <= 1e-12
        if k > 1:
            assert centroids[k - 1].tobytes() == expected[k - 1].tobytes()

    def test_criterion_8_cell_centroids_keep_their_bytes(self):
        """k=2 on the criterion-8 cell's training embeddings (seeds 0-2) gives
        the centroid bytes of the per-cluster mean loop it replaced."""
        digests = [
            "0b46406957610eab9b6937007990a29ebee1bc8672b90fc94f3f00c2461a3685",
            "d5524388b8a1f9dd19dd773c935c71c48d58a307175783f9af6353f40a9a3116",
            "0ce45ba8760fa67db042e20138d95e86fb74c26a285bf1496c83ac66c91fd4d7",
        ]
        for seed, digest in enumerate(digests):
            train, _ = split_dataset(make_two_dialect_corpus(100, seed), 0.2, seed)
            emb = embed_dataset([(r.record_id, r.instruction) for r in train], d_e=64, seed=seed)
            model = kmeans_fit(emb, 2, seed=seed)
            assert hashlib.sha256(model.centroids.tobytes()).hexdigest() == digest, seed

    def test_prediction_tie_breaks_to_lower_index(self):
        model = KMeansModel(
            k=2, dimension=1, seed=0,
            centroids=np.array([[1.0], [-1.0]]),
            final_sse=0.0, iterations=0,
        )
        assert kmeans_predict(model, np.array([[0.0]])).labels[0] == 0

    def test_invalid_arguments(self):
        points = np.zeros((3, 2))
        with pytest.raises(ContractError):
            kmeans_fit(points, k=0, seed=0)
        with pytest.raises(ContractError):
            kmeans_fit(points, k=4, seed=0)
        model = kmeans_fit(points + np.arange(3)[:, None], k=2, seed=0)
        with pytest.raises(ContractError):
            kmeans_predict(model, np.zeros((2, 5)))


class TestElbow:
    def test_curvature_formula(self):
        """s(k) = SSE(k-1) - 2 SSE(k) + SSE(k+1) on a hand-built curve."""
        curve = [100.0, 40.0, 10.0, 9.0, 8.5]
        scores = elbow_curvature(curve)
        assert scores == {
            2: 100.0 - 80.0 + 10.0,
            3: 40.0 - 20.0 + 9.0,
            4: 10.0 - 18.0 + 8.5,
        }

    def test_recovers_planted_k(self):
        rng = np.random.default_rng(77)
        points, _, _ = make_planted_blobs(n_centers=3, n_points=120, dim=4, radius=0.5, rng=rng)
        report = elbow_select(points, k_max=8, seed=5)
        assert report.selected_k == 3
        assert report.monotonic, f"violations at k={report.violations}"

    @settings(derandomize=True, database=None, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_curve_is_non_increasing(self, data):
        k_max = data.draw(st.integers(3, 6))
        n = data.draw(st.integers(k_max, 24))
        d = data.draw(st.integers(1, 3))
        coord = st.one_of(st.integers(-3, 3).map(float),
                          st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False))
        points = np.array(data.draw(st.lists(coord, min_size=n * d, max_size=n * d))).reshape(n, d)
        report = elbow_select(points, k_max=k_max, seed=data.draw(st.integers(0, 2**16)))
        assert report.monotonic, f"violations at k={report.violations}"
        assert report.fit.k == report.selected_k
        assert report.fit.final_sse == report.sse_curve[report.selected_k - 1]

    def test_curve_is_non_increasing_where_restarts_alone_rise(self):
        """Corpus 291 (2x40 records, d_e 64): the best of the three seeded
        attempts alone rises at k=8; the warm-started candidate holds it."""
        records = make_two_dialect_corpus(40, 291)
        emb = embed_dataset([(r.record_id, r.instruction) for r in records], d_e=64, seed=291)
        report = elbow_select(emb, k_max=8, seed=291)
        assert report.monotonic, f"violations at k={report.violations}"

    def test_tie_breaks_to_smaller_k(self):
        scores = elbow_curvature([10.0, 4.0, 4.0, 4.0, 4.0])
        best = max(scores, key=lambda k: scores[k])
        assert best == 2

    def test_csv_export(self, tmp_path):
        report = ElbowReport(
            k_max=4,
            sse_curve=[9.0, 4.0, 2.0, 1.9],
            curvature={2: 3.0, 3: 1.9},
            selected_k=2,
            monotonic=True,
        )
        path = tmp_path / "elbow.csv"
        report.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,sse,curvature"
        assert lines[1].startswith("1,9,") and lines[1].endswith(",")
        assert lines[2].split(",") == ["2", "4", "3"]

    def test_preconditions(self):
        with pytest.raises(ContractError):
            elbow_select(np.zeros((20, 2)), k_max=2, seed=0)
        with pytest.raises(ContractError):
            elbow_select(np.zeros((4, 2)), k_max=8, seed=0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = kmeans_fit(rng.standard_normal((40, 5)), k=4, seed=13)
        path = tmp_path / "kmeans.txt"
        save_kmeans(str(path), model)
        loaded = load_kmeans(str(path))
        assert (loaded.k, loaded.dimension, loaded.seed) == (4, 5, 13)
        assert np.max(np.abs(loaded.centroids - model.centroids)) < 1e-9

    def test_predictions_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((50, 3))
        model = kmeans_fit(points, k=3, seed=2)
        path = tmp_path / "kmeans.txt"
        save_kmeans(str(path), model)
        loaded = load_kmeans(str(path))
        assert np.array_equal(kmeans_predict(model, points).labels, kmeans_predict(loaded, points).labels)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-KMEANS v2 1 2 0\n0 0\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:1:")):
            load_kmeans(str(p))

    def test_row_count_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-KMEANS v1 3 2 0\n0 0\n1 1\n")
        with pytest.raises(FormatError, match="declares 3"):
            load_kmeans(str(p))

    def test_row_width_mismatch(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-KMEANS v1 1 3 0\n0 0\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:2:")):
            load_kmeans(str(p))

    def test_blank_line_rejected_at_its_own_line(self, tmp_path):
        """A blank line is an error; rows after it keep their true line numbers."""
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-KMEANS v1 2 2 0\n0 0\n\n1\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:3: blank line")):
            load_kmeans(str(p))


def _kmeanspp_with_choice(points, k, rng):
    """k-means++ seeding drawing each centre with ``Generator.choice``."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def test_kmeanspp_draws_what_generator_choice_draws():
    """Over 1,000 seeded cases (repeated points and a single distinct point
    included) the seeding picks the centres ``Generator.choice`` picks and
    leaves the generator where it leaves it: the next ``random()`` agrees."""
    cases = np.random.default_rng(12)
    for case in range(1000):
        n = int(cases.integers(1, 40))
        points = cases.normal(size=(n, int(cases.integers(1, 5))))
        if case % 5 == 0:
            points = points[cases.integers(0, max(1, n // 3), size=n)]
        k = int(cases.integers(1, n + 1))
        got_rng, want_rng = np.random.default_rng(case), np.random.default_rng(case)
        got = _kmeanspp_init(points, k, got_rng)
        want = _kmeanspp_with_choice(points, k, want_rng)
        assert got.tobytes() == want.tobytes(), case
        assert got_rng.random() == want_rng.random(), case
