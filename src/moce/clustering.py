"""K-means over sequence embeddings, plus elbow-based cluster-count choice.

One fitted cluster model drives the sequence-level routing stage: every
cluster index maps one-to-one onto an expert group. Fitting is k-means++
seeding with restarts, then Lloyd iteration whose centroid update is one
vectorised product over all clusters; the objective (sum of squared
distances to the assigned centroid) is asserted non-increasing at every
step, so a regression in the update rule fails loudly. Nearest-centroid
assignment ranks the centroids by one Gram product and computes the exact
broadcast distances again only for rows whose two best centroids lie
within a proven rounding bound, so every label is the broadcast's, ties
to the lower index. The elbow sweep warm-starts each k from the k - 1
winner, which keeps its SSE curve non-increasing, and draws k-means++
seeding once per restart for its largest k, since the draw for a smaller
k is a prefix of it. Input rows holding NaN or inf are rejected before
any fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ContractError, FormatError, NumericError, integer
from .fileio import read_table, write_csv, write_table
from .seeding import substream, substream_seed

KMEANS_MAGIC = "MOCE-KMEANS"
KMEANS_VERSION = "v1"
_MAX_ITERS = 100
# Restarts per elbow attempt; a lone kmeans_fit keeps its default of 10.
_ELBOW_RESTARTS = 3
# Unit roundoff of float64 and its smallest subnormal, for _assign's bound.
_UNIT = 2.0 ** -53
_TINY = 2.0 ** -1074


@dataclass
class KMeansModel:
    """Fitted centroids plus the fit metadata needed to reproduce them."""

    k: int
    dimension: int
    seed: int
    centroids: np.ndarray
    final_sse: float
    sse_history: list[float] = field(default_factory=list)


@dataclass
class ClusterAssignment:
    """Cluster labels for a batch of vectors, in input order."""

    labels: np.ndarray

    def counts(self, k: int) -> np.ndarray:
        return np.bincount(self.labels, minlength=k)


@dataclass
class ElbowReport:
    """SSE curve over k, its discrete curvature, and the selected k."""

    k_max: int
    sse_curve: list[float]                 # index i holds SSE for k = i + 1
    curvature: dict[int, float]            # defined for k in [2, k_max - 1]
    selected_k: int
    monotonic: bool
    violations: list[int] = field(default_factory=list)
    fit: KMeansModel | None = None         # the selected k's winning fit

    def write_csv(self, path: str) -> None:
        write_csv(path, ["k", "sse", "curvature"],
                  [[k, value, self.curvature.get(k, "")]
                   for k, value in enumerate(self.sse_curve, start=1)])


def sse(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances from each point to its assigned centroid."""
    diffs = points - centroids[labels]
    np.multiply(diffs, diffs, out=diffs)
    return float(np.add.reduce(diffs, axis=None))


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared distances by broadcast, the reference that fixes every label:
    each (point, centroid) entry is its own d-term sum, so any subset of
    rows gets the bits it gets in the full (n, k) array."""
    return np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def _max_sq_norm(points: np.ndarray) -> float:
    return float(np.add.reduce(points * points, axis=1).max(initial=0.0))


def _assign(points: np.ndarray, centroids: np.ndarray, p2max: float) -> np.ndarray:
    """Label each point with ``argmin(_distances(points, centroids))``, so
    equal distances go to the lower cluster index, without building the
    (n, k, d) array for rows whose nearest centroid is clear.

    ``p2max`` is max |p|^2 over ``points``, which must be finite. Each row
    ranks the centroids by H = p (-2 C^T) + |c|^2, one matrix product for
    all rows. H_j is D_j - |p|^2, where D_j = |p - c_j|^2, so the shift is
    the same for every centroid of the row. A row keeps argmin(H) when
    the gap between its two smallest H entries exceeds ``bound``; every
    other row gets the reference distances, on that row only.

    Why that label is the reference's. Let g_m = m u / (1 - m u), with u
    = 2^-53, and m = d + 2. The reference's differences, squares and sum
    give |fl(D_j) - D_j| <= g_m D_j, in any summation order, since every
    term is non-negative. The product and |c_j|^2 in any order, plus the
    final add (multiplying by -2 is exact), give
    |fl(H_j) - (D_j - |p|^2)| <= g_m (2 |p| |c_j| + |c_j|^2). Gradual
    underflow adds at most 2^-1075 per rounded product or square, under
    m 2^-1074 per quantity. Let j* be argmin(H) and j any other index.
    With 2 |p| |c| <= |p|^2 + |c|^2 and D <= 2 (|p|^2 + |c|^2), the
    errors of H_j, H_j*, fl(D_j) and fl(D_j*) sum to less than
    8 g_m (P + C) + 4 m 2^-1074, where P = max |p|^2 and C = max |c|^2.
    So if fl(H_j) - fl(H_j*) exceeds that, fl(D_j) > fl(D_j*) strictly
    and the reference picks j* too. ``bound`` is twice that sum, and the
    factor 2 absorbs the rounding of the bound itself, of P and C and of
    the gap. A non-finite bound fails every gap test. H is finite while
    P + C <= 2^1000, since then |H| < 2 (P + C) (1 + g_m)^2; above that,
    rows with a non-finite entry of H take the reference path.
    """
    n, k = points.shape[0], centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.intp)
    c2 = np.add.reduce(centroids * centroids, axis=1)
    h = points @ (-2.0 * centroids.T)
    h += c2
    labels = h.argmin(axis=1)
    m = points.shape[1] + 2
    scale = p2max + float(c2.max())
    bound = 2.0 * (8.0 * m * _UNIT / (1.0 - m * _UNIT) * scale + 4.0 * m * _TINY)
    two = np.partition(h, 1, axis=1)
    exact = ~(two[:, 1] - two[:, 0] > bound)
    if not scale <= 2.0 ** 1000:
        exact |= ~np.isfinite(h).all(axis=1)
    if exact.any():
        rows = np.flatnonzero(exact)
        labels[rows] = _distances(points[rows], centroids).argmin(axis=1)
    return labels


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            # rng.choice(n, p=d2 / total)'s own draw, minus its checks of p
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            idx = int(np.searchsorted(cdf, rng.random(), side="right"))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _repair_empty(points: np.ndarray, centroids: np.ndarray,
                  labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move each empty cluster, in index order, onto the point farthest
    from its centroid among clusters of two or more (the first on ties),
    and return the labels and their per-cluster counts. No donor is left
    empty, and with k <= n one of two or more exists while any cluster is
    empty, so every count returned is positive."""
    k = centroids.shape[0]
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels, counts
    labels = labels.copy()
    for cluster in np.flatnonzero(counts == 0):
        dist = np.sum((points - centroids[labels]) ** 2, axis=1)
        donor = int(np.argmax(np.where(counts[labels] > 1, dist, -np.inf)))
        counts[labels[donor]] -= 1
        counts[cluster] = 1
        centroids[cluster] = points[donor]
        labels[donor] = cluster
    return labels, counts


def _update(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray,
            counts: np.ndarray) -> None:
    """Move each cluster's centroid to its members' mean, in place.

    ``counts`` holds each cluster's member count under ``labels``, every
    one positive: Lloyd repairs empty clusters before each update. One
    (k, n) one-hot product sums every cluster at once.
    """
    onehot = (labels[None, :] == np.arange(centroids.shape[0])[:, None]).astype(np.float64)
    np.divide(onehot @ points, counts[:, None], out=centroids)


def _lloyd(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    centroids = centroids.copy()
    p2max = _max_sq_norm(points)
    labels = _assign(points, centroids, p2max)
    labels, counts = _repair_empty(points, centroids, labels)
    history = [sse(points, centroids, labels)]
    for iteration in range(1, _MAX_ITERS + 1):
        _update(points, centroids, labels, counts)
        new_labels = _assign(points, centroids, p2max)
        new_labels, counts = _repair_empty(points, centroids, new_labels)
        current = sse(points, centroids, new_labels)
        if current > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise NumericError(
                f"k-means objective increased at iteration {iteration}: "
                f"{history[-1]:.12g} -> {current:.12g}"
            )
        history.append(current)
        converged = (new_labels == labels).all()
        labels = new_labels
        if converged:
            break
    return centroids, labels, history


def _fit(points: np.ndarray, start: np.ndarray, seed: int) -> KMeansModel:
    """Lloyd from the ``start`` centroids, as a fitted model."""
    centroids, _, history = _lloyd(points, start)
    return KMeansModel(k=start.shape[0], dimension=points.shape[1], seed=seed, centroids=centroids,
                       final_sse=history[-1], sse_history=history)


def kmeans_fit(embeddings, k: int, seed: int, n_init: int = 10, starts=None) -> KMeansModel:
    """Fit k centroids with k-means++ init and Lloyd iteration.

    ``embeddings`` is an (n, d) array or anything with a ``matrix()``
    method. Convergence means the assignment stopped changing. Lloyd only
    finds local optima, so ``n_init`` seeded restarts run and the lowest
    final objective wins, the first on ties. Restart r starts from the
    k-means++ draw of ``substream(seed, "kmeans-init", r)``, so ``seed``
    reproduces the fit. k = 1 runs restart 0 alone: every restart ends at
    the mean of the points with the same SSE bits, and the first wins.

    ``starts``, when given, holds one (m, d) k-means++ draw per restart,
    m >= k, each made by ``_kmeanspp_init`` from restart r's stream, and
    restart r starts from its first k rows. k-means++ for k is a prefix of
    the draw for m under one generator, so the fit is bit-equal to the same
    call without ``starts``; a caller fitting several k on the same seed
    draws once for the largest.
    """
    k, n_init = integer(k, "cluster count", 1), integer(n_init, "n_init", 1)
    seed = integer(seed, "seed")
    points = _points(embeddings)
    n = points.shape[0]
    if k > n:
        raise ContractError(f"cannot fit {k} clusters to {n} points")
    if starts is None:
        starts = (_kmeanspp_init(points, k, substream(seed, "kmeans-init", restart))
                  for restart in range(n_init))
    else:
        starts = [np.asarray(draw, dtype=np.float64) for draw in starts]
        if len(starts) != n_init or any(draw.ndim != 2 or draw.shape[0] < k
                                        or draw.shape[1] != points.shape[1] for draw in starts):
            raise ContractError(f"starts must be {n_init} arrays of at least {k} rows of width "
                                f"{points.shape[1]}, got shapes {[draw.shape for draw in starts]}")
        starts = [draw[:k] for draw in starts]
    return min((_fit(points, start, seed) for start in islice(starts, 1 if k == 1 else None)),
               key=lambda fit: fit.final_sse)


def kmeans_predict(model: KMeansModel, vectors) -> ClusterAssignment:
    """Assign each vector to its nearest centroid, lowest index on ties."""
    points = _points(vectors, allow_vector=True)
    if points.shape[1] != model.dimension:
        raise ContractError(
            f"vectors have dimension {points.shape[1]}, model expects {model.dimension}"
        )
    return ClusterAssignment(labels=_assign(points, model.centroids, _max_sq_norm(points)))


def _points(vectors, allow_vector: bool = False) -> np.ndarray:
    """The (n, d) float64 matrix of ``vectors``, an array or anything with
    a ``matrix()`` method; with ``allow_vector`` one (d,) vector is one row.
    A row holding NaN or inf raises, which ``_assign``'s bound relies on."""
    points = vectors.matrix() if hasattr(vectors, "matrix") else np.asarray(vectors, dtype=np.float64)
    if allow_vector and points.ndim == 1:
        points = points[None, :]
    if points.ndim != 2:
        raise ContractError(f"expected an (n, d) embedding matrix, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise NumericError(f"embedding row {int(np.argmin(finite))} is not finite")
    return points


def elbow_curvature(sse_curve: list[float]) -> dict[int, float]:
    """Discrete second difference s(k) = SSE(k-1) - 2 SSE(k) + SSE(k+1)."""
    scores = {}
    for k in range(2, len(sse_curve)):
        scores[k] = sse_curve[k - 2] - 2.0 * sse_curve[k - 1] + sse_curve[k]
    return scores


def elbow_select(embeddings, k_max: int = 10, seed: int = 0) -> ElbowReport:
    """Fit k = 1..k_max and pick the sharpest bend of the SSE curve.

    Each k runs three seeded ``kmeans_fit`` attempts of a few restarts each.
    Attempt a's seed is ``substream_seed(seed, "elbow", a)`` for every k,
    and each of its restarts draws k_max k-means++ centres once for the
    whole sweep: the fit for k starts from the first k rows, which is the
    draw ``kmeans_fit`` would make itself, so the attempt's seed still
    reproduces its fit. For k >= 2 it also runs Lloyd from a warm start:
    the k - 1 winner's centroids plus the point farthest from its assigned
    centroid. Adding a centroid cannot raise the assignment SSE and Lloyd
    never raises it either, so with the warm candidate in the running the
    curve is non-increasing by construction. The lowest final SSE wins each
    k, and the report keeps the selected k's winning fit. ``violations``
    lists any k whose SSE still rose, which only a broken invariant can
    cause.
    """
    k_max = integer(k_max, "k_max", 3)
    points = _points(embeddings)
    if points.shape[0] < k_max:
        raise ContractError(f"need at least k_max={k_max} points, got {points.shape[0]}")

    seeds = [substream_seed(seed, "elbow", attempt) for attempt in range(3)]
    draws = [[_kmeanspp_init(points, k_max, substream(attempt_seed, "kmeans-init", restart))
              for restart in range(_ELBOW_RESTARTS)] for attempt_seed in seeds]
    fits = []
    for k in range(1, k_max + 1):
        candidates = [kmeans_fit(points, k, seed=attempt_seed, n_init=_ELBOW_RESTARTS, starts=starts)
                      for attempt_seed, starts in zip(seeds, draws)]
        if fits:
            candidates.append(_warm_fit(points, fits[-1], seed))
        # min() keeps the first minimiser: a later candidate wins only when
        # strictly lower.
        fits.append(min(candidates, key=lambda fit: fit.final_sse))
    sse_curve = [fit.final_sse for fit in fits]

    violations = [
        k for k in range(2, k_max + 1)
        if sse_curve[k - 1] > sse_curve[k - 2] + 1e-9 * max(1.0, sse_curve[k - 2])
    ]
    scores = elbow_curvature(sse_curve)
    # max() scans ascending k, and strict comparison keeps the first
    # maximiser, so ties resolve to the smaller k.
    selected = max(scores, key=lambda k: scores[k])
    return ElbowReport(
        k_max=k_max,
        sse_curve=sse_curve,
        curvature=scores,
        selected_k=selected,
        monotonic=not violations,
        violations=violations,
        fit=fits[selected - 1],
    )


def _warm_fit(points: np.ndarray, previous: KMeansModel, seed: int) -> KMeansModel:
    """Lloyd from ``previous``'s centroids plus the point farthest from its
    assigned centroid (the first such point on ties)."""
    centroids = previous.centroids
    d2 = np.sum((points - centroids[_assign(points, centroids, _max_sq_norm(points))]) ** 2, axis=1)
    return _fit(points, np.vstack([centroids, points[int(np.argmax(d2))]]), seed)


def save_kmeans(path: str, model: KMeansModel) -> None:
    """Write the text format: header line, then one centroid per line at
    17 significant digits, which read back as the same doubles."""
    write_table(path, KMEANS_MAGIC, KMEANS_VERSION, model.centroids, 17, extra=(model.seed,))


def load_kmeans(path: str) -> KMeansModel:
    """Read the format written by ``save_kmeans`` with ``read_table``'s
    strict rules, and at least one centroid: every error names the file
    and the 1-based line."""
    (k, dim, seed), _, centroids = read_table(path, KMEANS_MAGIC, KMEANS_VERSION,
                                               ("k", "dim", "seed"))
    if k < 1:
        raise FormatError(f"{path}:1: invalid k {k}")
    return KMeansModel(k=k, dimension=dim, seed=seed, centroids=centroids, final_sse=float("nan"))
