"""K-means fit quality against exhaustive enumeration, elbow selection on
planted structure, nearest-centroid labels against the broadcast
reference, and the persistence format."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import exhaustive_two_means, make_planted_blobs, nearest_reference
from moce import clustering
from moce.clustering import (
    ElbowReport,
    KMeansModel,
    _assign,
    _distances,
    _kmeanspp_init,
    _lloyd,
    _max_sq_norm,
    _repair_empty,
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
from moce.errors import ContractError, FormatError, NumericError


def bench_embeddings(seed):
    """The embeddings of one cluster-elbow corpus: 2x40 two-dialect
    instructions, d_e 64, both seeded by ``seed``."""
    records = make_two_dialect_corpus(40, seed)
    return embed_dataset([(r.record_id, r.instruction) for r in records], d_e=64, seed=seed).matrix()


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
        centroids, labels, history = _lloyd(points, init)
        assert len(np.unique(labels)) == 2
        assert all(history[i + 1] <= history[i] + 1e-9 for i in range(len(history) - 1))

    def test_repair_never_empties_a_donor(self):
        """The farthest point of all is cluster 0's only member, so the
        empty cluster 1 takes cluster 2's farther point instead: every
        cluster ends filled."""
        points = np.array([[0.0, 0.0], [10.0, 0.0], [10.1, 0.0]])
        centroids = np.array([[-5.0, 0.0], [100.0, 100.0], [10.0, 0.0]])
        labels = _assign(points, centroids, _max_sq_norm(points))
        assert labels.tolist() == [0, 2, 2]
        labels, counts = _repair_empty(points, centroids, labels)
        assert labels.tolist() == [0, 2, 1] and counts.tolist() == [1, 1, 1]
        assert centroids[1].tolist() == [10.1, 0.0]

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_update_matches_per_cluster_mean(self, k):
        """The one-hot product gives each member mean within 1e-12."""
        rng = np.random.default_rng(k)
        points = rng.standard_normal((40, 5)) * 3.0 + 1.0
        labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=40 - k)]))
        centroids = rng.standard_normal((k, 5))
        expected = np.array([points[labels == cluster].mean(axis=0) for cluster in range(k)])
        _update(points, centroids, labels, np.bincount(labels, minlength=k))
        assert np.max(np.abs(centroids - expected)) <= 1e-12

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

    def test_lean_update_and_sse_keep_their_bits(self):
        """With every cluster filled, the unmasked division gives the bits of
        the masked update, and ``sse`` those of ``np.sum(diffs * diffs)``,
        over 300 random shapes and scales."""
        rng = np.random.default_rng(21)
        for case in range(300):
            n, d = int(rng.integers(1, 50)), int(rng.integers(1, 20))
            k = int(rng.integers(1, n + 1))
            labels = rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)]))
            points = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-100, 100)
            centroids = rng.normal(size=(k, d))
            onehot = (labels[None, :] == np.arange(k)[:, None]).astype(np.float64)
            expected = (onehot @ points) / np.bincount(labels, minlength=k)[:, None]
            _update(points, centroids, labels, np.bincount(labels, minlength=k))
            assert centroids.tobytes() == expected.tobytes(), case
            diffs = points - centroids[labels]
            assert sse(points, centroids, labels) == float(np.sum(diffs * diffs)), case

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_rejected_before_any_fit(self, bad, monkeypatch):
        """kmeans_fit, elbow_select and kmeans_predict name the first row
        holding NaN or inf; elbow_select starts no fit."""
        points = np.arange(24.0).reshape(12, 2)
        model = kmeans_fit(points, 2, seed=0)
        points[3, 1] = points[6, 0] = bad
        with pytest.raises(NumericError, match="row 3 is not finite"):
            kmeans_fit(points, 2, seed=0)
        with pytest.raises(NumericError, match="row 3 is not finite"):
            kmeans_predict(model, points)
        with pytest.raises(NumericError, match="row 0 is not finite"):
            kmeans_predict(model, np.array([bad, 0.0]))
        monkeypatch.setattr(clustering, "kmeans_fit", None)
        with pytest.raises(NumericError, match="row 3 is not finite"):
            elbow_select(points, k_max=3, seed=0)

    def test_prediction_tie_breaks_to_lower_index(self):
        model = KMeansModel(
            k=2, dimension=1, seed=0,
            centroids=np.array([[1.0], [-1.0]]),
            final_sse=0.0,
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

    def test_curve_is_non_increasing_where_restarts_alone_rise(self, monkeypatch):
        """Corpus 354 (2x40 records, d_e 64) needs the warm-started
        candidate: with it out of the running, the best of the three seeded
        attempts alone rises at some k; with it, the curve holds. Of
        corpora 0-399 only 354 rises without it, so the premise is asserted
        here, and a change to the seeding that moves it fails this test
        instead of leaving it vacuous."""
        points = bench_embeddings(354)
        report = elbow_select(points, k_max=8, seed=354)
        monkeypatch.setattr(clustering, "_warm_fit", lambda points, previous, seed: KMeansModel(
            k=previous.k + 1, dimension=points.shape[1], seed=seed, centroids=None,
            final_sse=float("inf")))
        assert elbow_select(points, k_max=8, seed=354).violations
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

    def test_k_max_sweep_keeps_its_bytes(self):
        """elbow_select(k_max=8) on three cluster-elbow corpora (selected k
        2, 3 and 4): the SSE curve and the selected fit's centroids have the
        bytes that the same sweep gives with ``_assign`` replaced by the
        broadcast ``_distances(...).argmin(axis=1)``, which is where these
        digests come from; the Gram path keeps them."""
        digests = {
            0: ("0d6d0a1b0c24cc960ba818ce77904725d8937e6e07819ab763d09544d0218a35",
                "b3a0d47ea4c8e1b212c36cf37e8d0014cd5cfb2c077cfee7ea12a41e38db7e31"),
            50: ("e380222fd70ef9a60b5707a85a02de981fb69fba47278dd471480fd341512860",
                 "851afb475db03c9371641c8f3e4581997bfe5d52bf2312a216801949af50ee82"),
            7: ("cc65856dbaf99cbb9469cfd6067d9d5247f19f757bd893507a46a681894d8a45",
                "00fdd521c73ee12a370201f7a7a040c79d3d6b9250d63e721d4ba4e5d8487bcb"),
        }
        for seed, (curve_digest, centroid_digest) in digests.items():
            report = elbow_select(bench_embeddings(seed), k_max=8, seed=seed)
            curve = np.array(report.sse_curve, dtype=np.float64)
            assert hashlib.sha256(curve.tobytes()).hexdigest() == curve_digest, seed
            assert hashlib.sha256(report.fit.centroids.tobytes()).hexdigest() == centroid_digest, seed

    def test_one_kmeanspp_draw_per_attempt_and_restart(self, monkeypatch):
        """A k_max = 8 sweep draws k-means++ 9 times, 8 centres each: once
        per attempt and restart, where seeding each k on its own drew 72."""
        sizes = []
        draw = clustering._kmeanspp_init

        def spy(points, k, rng):
            sizes.append(k)
            return draw(points, k, rng)

        monkeypatch.setattr(clustering, "_kmeanspp_init", spy)
        elbow_select(bench_embeddings(3), k_max=8, seed=3)
        assert sizes == [8] * 9


def _gram_case(data):
    """Points and centroids for the Gram property at scales from 1e-150 to
    1e150: random; duplicated points with centroids on them; exact ties;
    mirrored centroids, whose ties rounding breaks; or centroids 0.01 off
    data points."""
    n, d, k = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 12)), data.draw(st.integers(1, 8))
    layout = data.draw(st.sampled_from(["random", "duplicated", "tied", "mirrored", "near points"]))
    exponent = data.draw(st.floats(-150.0, 150.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points, centroids = rng.normal(size=(n, d)), rng.normal(size=(k, d))
    if layout == "duplicated":
        points = points[rng.integers(0, max(1, n // 3), size=n)]
        centroids = points[rng.integers(0, n, size=k)]
    elif layout == "tied":
        # Small integers times a power of two: every difference, product and
        # sum is exact, so each point x is exactly as far from x + v as
        # from x - v, and the lower index must win.
        scale = 2.0 ** round(exponent * np.log2(10.0))
        points = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
        x, v = points[rng.integers(n)], rng.integers(-2, 3, size=d)
        centroids[0::2], centroids[1::2] = x + v, x - v
        return points * scale, centroids * scale
    elif layout == "mirrored":
        # Real-valued x +- v: the two distances from x agree in exact
        # arithmetic, and rounding decides the label, differently in the
        # broadcast and in the Gram product.
        x, v = points[rng.integers(n)], rng.normal(size=d) * 10.0 ** rng.uniform(-3, 1)
        centroids[0::2], centroids[1::2] = x + v, x - v
        points[rng.random(n) < 0.5] = x
    elif layout == "near points":
        centroids = points[rng.integers(0, n, size=k)] + 0.01
    return points * 10.0 ** exponent, centroids * 10.0 ** exponent


class TestGramAssignment:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.data())
    def test_labels_match_the_broadcast_reference(self, data):
        """Gram labels are the broadcast argmin's, ties to the lower index."""
        points, centroids = _gram_case(data)
        model = KMeansModel(k=centroids.shape[0], dimension=points.shape[1], seed=0,
                            centroids=centroids, final_sse=0.0)
        labels = kmeans_predict(model, points).labels
        assert labels.tobytes() == nearest_reference(points, centroids).tobytes()

    def test_labels_match_on_the_near_tie_probe(self):
        """Corpus seed 3 with k=4 centroids 0.01 off its first four points has
        rows whose two nearest centroids tie exactly; there the Gram argmin
        alone got a label wrong, and the re-check gives the reference's."""
        points = bench_embeddings(3)
        for k in (2, 4, 8):
            centroids = points[:k] + 0.01
            model = KMeansModel(k=k, dimension=64, seed=0, centroids=centroids, final_sse=0.0)
            assert np.array_equal(kmeans_predict(model, points).labels, nearest_reference(points, centroids)), k

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.data())
    def test_exact_distances_of_a_row_subset_keep_their_bits(self, data):
        """Any subset of rows gets the bits those rows have in the full
        broadcast, which is what lets the re-check run on its rows alone."""
        points, centroids = _gram_case(data)
        rows = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=points.shape[0],
                                                 max_size=points.shape[0])))
        full = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assert _distances(points[rows], centroids).tobytes() == full[rows].tobytes()

    def test_few_rows_reach_the_exact_recheck(self, monkeypatch):
        """elbow_select(k_max=8) on the eight corpora of a cluster-elbow task
        re-checks at most 5% of the rows it ranks: a bound loose enough to
        undo the Gram path's gain fails here."""
        ranked, rechecked = [], []
        assign, distances = clustering._assign, clustering._distances

        def spy_assign(points, centroids, p2max):
            if centroids.shape[0] > 1:
                ranked.append(points.shape[0])
            return assign(points, centroids, p2max)

        def spy_distances(points, centroids):
            rechecked.append(points.shape[0])
            return distances(points, centroids)

        monkeypatch.setattr(clustering, "_assign", spy_assign)
        monkeypatch.setattr(clustering, "_distances", spy_distances)
        for seed in range(8):
            elbow_select(bench_embeddings(seed), k_max=8, seed=seed)
        assert sum(ranked) > 100_000
        assert sum(rechecked) <= 0.05 * sum(ranked), (sum(rechecked), sum(ranked))


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


def _prefix_cases():
    """(case, points, k_max) triples: random rows, rows drawn from a few
    distinct ones, and rows of two distinct values, where every centre
    after the second finds a zero total and draws uniformly."""
    cases = np.random.default_rng(31)
    for case in range(60):
        n, d = int(cases.integers(8, 40)), int(cases.integers(1, 5))
        points = cases.normal(size=(n, d))
        if case % 3 == 1:
            points = points[cases.integers(0, max(1, n // 4), size=n)]
        elif case % 3 == 2:
            points = points[np.r_[0, 1, cases.integers(0, 2, size=n - 2)]]
        yield case, points, int(cases.integers(3, min(n, 9) + 1))


def test_kmeanspp_for_k_is_a_prefix_of_the_k_max_draw():
    """From identical streams, the draw for each k in 1..k_max equals the
    first k rows of the draw for k_max, and the two-value rows reach the
    zero-total branch."""
    zero_totals = 0
    for case, points, k_max in _prefix_cases():
        full = _kmeanspp_init(points, k_max, np.random.default_rng(case))
        for k in range(1, k_max + 1):
            assert _kmeanspp_init(points, k, np.random.default_rng(case)).tobytes() == \
                full[:k].tobytes(), (case, k)
        zero_totals += len(np.unique(points, axis=0)) < k_max
    assert zero_totals >= 20


def test_kmeans_fit_from_shared_starts_is_the_fit_without_them():
    """``kmeans_fit`` given each restart's k_max draw equals the same call
    without it, for every k <= k_max: centroids, final SSE, SSE history
    and seed."""
    for case, points, k_max in list(_prefix_cases())[:12] + [(3, bench_embeddings(3), 8)]:
        starts = [_kmeanspp_init(points, k_max, clustering.substream(case, "kmeans-init", r))
                  for r in range(3)]
        for k in range(1, k_max + 1):
            shared = kmeans_fit(points, k, seed=case, n_init=3, starts=starts)
            alone = kmeans_fit(points, k, seed=case, n_init=3)
            assert shared.centroids.tobytes() == alone.centroids.tobytes(), (case, k)
            assert (shared.final_sse, shared.sse_history, shared.seed) == \
                (alone.final_sse, alone.sse_history, alone.seed), (case, k)


def test_malformed_starts_raise_before_any_fit(monkeypatch):
    """A wrong number of starts, a start with fewer than k rows, or one of
    another width raises ContractError before any fit or draw."""
    points = np.arange(24.0).reshape(12, 2)
    good = np.zeros((5, 2))
    monkeypatch.setattr(clustering, "_fit", None)
    monkeypatch.setattr(clustering, "_kmeanspp_init", None)
    for starts in ([good, good], [good] * 4, [good, good[:3], good], [good, good, np.zeros((5, 3))],
                   [good, good, good[0]]):
        with pytest.raises(ContractError, match="starts must be 3 arrays of at least 4 rows of width 2"):
            kmeans_fit(points, 4, seed=0, n_init=3, starts=starts)


def test_k_one_runs_restart_zero_alone(monkeypatch):
    """Every k = 1 restart assigns all points to one centroid and moves it
    to their mean, so every restart ends with the same SSE bits and
    restart 0 wins. ``kmeans_fit`` runs restart 0 alone, with or without
    ``starts``, and its fit equals the best of all ten restarts run one by
    one, on corpora 0-59."""
    fits = []
    fit = clustering._fit

    def spy(points, start, seed):
        fits.append(start.shape[0])
        return fit(points, start, seed)

    monkeypatch.setattr(clustering, "_fit", spy)
    for seed in range(60):
        points = bench_embeddings(seed)
        starts = [_kmeanspp_init(points, 3, clustering.substream(seed, "kmeans-init", r))
                  for r in range(10)]
        best = min((fit(points, draw[:1], seed) for draw in starts), key=lambda f: f.final_sse)
        fits.clear()
        for got in (kmeans_fit(points, 1, seed=seed), kmeans_fit(points, 1, seed=seed, starts=starts),
                    kmeans_fit(points, 1, seed=seed, n_init=1)):
            assert got.centroids.tobytes() == best.centroids.tobytes(), seed
            assert (got.final_sse, got.sse_history, got.seed) == \
                (best.final_sse, best.sse_history, best.seed), seed
        assert fits == [1, 1, 1]
    kmeans_fit(bench_embeddings(0), 2, seed=0)
    assert fits[3:] == [2] * 10
