"""Shared test helpers: the finite-difference oracle and gradient checking
against it, test-local ops for reference chains (``matmul``, ``rmsnorm``,
``take_rows``, ``softmax``, ``activation``, ``concat_rows`` and
``attention``, the block-diagonal-mask attention, none of which a model
path runs), the op chains the fused ``attention_block`` and
``feed_forward`` replace, the masks of packed and cached blocks,
``pair_mixture``, the adapter mixture on the pair contract it had before
it took each row's chosen experts, with ``np.add.at``, ``top_k_mask`` and
``general_path``, which no model path calls either,
``reset_instrumentation`` for the adapters' work counters,
``write_run_config``, ``packed_batch``, the broadcast nearest-centroid
reference, and synthetic cluster geometry."""

import itertools

import numpy as np

from moce import tensor
from moce.config import format_lines
from moce.errors import ContractError, NumericError, ShapeError
from moce.fileio import write_atomic
from moce.harness import RUN_FILE, _loss_rows
from moce.layer import GENERAL_KEY, _top_k_order
from moce.tensor import Tensor, add, backward


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function, one coordinate at a time.

    This is the independent oracle the analytic backward pass is checked
    against; it never touches the graph machinery.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericError(f"finite_difference_gradient: non-finite objective at coordinate {i}")
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def top_k_mask(gates, k):
    """0/1 selection mask keeping the k largest entries per row, in the
    order the router's dispatch selects them."""
    if gates.ndim != 2:
        raise ShapeError(f"expected (tokens, experts) gate values, got shape {gates.shape}")
    n = gates.shape[1]
    if not (1 <= k <= n):
        raise ContractError(f"top-k needs 1 <= k <= {n}, got k={k}")
    mask = np.zeros_like(gates)
    np.put_along_axis(mask, _top_k_order(gates, k), 1.0, axis=1)
    return mask


def general_path(layer, x, record=None):
    """``layer``'s always-on second path alone: the gated sum of the
    general experts' updates, which ``forward`` adds to the group path."""
    routes = [(layer._record_key(GENERAL_KEY), layer.general_group, None)]
    return layer._dispatch(x, layer.base_ffn.forward(x), routes, record)


def reset_instrumentation(model):
    """Zero the ``forward_calls`` and ``rows_processed`` of every adapter of
    a mixture model, or of one mixture layer."""
    for layer in getattr(model, "layers", [model]):
        for group in layer.groups + ([layer.general_group] if layer.general_group else []):
            for e in group.experts:
                e.forward_calls = 0
                e.rows_processed = 0


def write_run_config(path, cfg):
    """Write ``cfg`` as the run file ``parse_run_config`` reads, every key set."""
    write_atomic(path, "".join(line + "\n" for line in format_lines(cfg, RUN_FILE)))


def packed_batch(examples, indices):
    """Inputs, targets and per-row loss weights of the training examples at
    ``indices``, packed as the pretraining step packs them."""
    return [examples[i][0] for i in indices], *_loss_rows(examples, indices)


def matmul(a, b):
    """2-D matrix product, a test-local op."""
    a, b = tensor._as_tensor(a), tensor._as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")
    return tensor._result(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g),
                          "matmul")


def rmsnorm(x, gain, eps=1e-8):
    """Row-wise RMS normalisation with a learned per-column gain, a
    test-local op on the engine's own forward and backward rules."""
    if x.data.ndim != 2 or gain.data.ndim != 1 or gain.data.shape[0] != x.data.shape[1]:
        raise ShapeError(f"rmsnorm needs (T,d) and (d,), got {x.data.shape} and {gain.data.shape}")
    out, r, normed = tensor._rmsnorm(x.data, gain.data, eps)
    return tensor._result(out, (x, gain),
                          lambda g: tensor._rmsnorm_grads(g, x.data, gain.data, r, normed),
                          "rmsnorm")


def take_rows(a, indices):
    """Gather rows by index, a test-local op; the gradient scatter-adds back
    (repeats allowed)."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or idx.ndim != 1:
        raise ShapeError(f"take_rows needs a 2-D tensor and 1-D indices, got {a.data.shape} "
                         f"and {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError(f"take_rows index out of range for {a.data.shape[0]} rows")

    def grad_fn(g):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return (da,)

    return tensor._result(a.data[idx], (a,), grad_fn, "take_rows")


def chosen_pairs(chosen, n_experts):
    """The pair contract of ``chosen``, a (T, k) array of expert ids: the
    row of each pair with the pairs sorted by expert, stably, and the
    ``n_experts + 1`` bounds of each expert's span."""
    flat = np.asarray(chosen).ravel()
    rows = np.argsort(flat, kind="stable") // np.shape(chosen)[1]
    return rows, np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=n_experts))])


def pair_mixture(base, gates, tokens, rows, bounds, w_downs, w_ups, act, n_rows,
                 renorm_mask=None, scale=1.0):
    """The adapter mixture on its pair contract, as a test-local op: pairs
    come sorted by expert, pair i in expert e's span ``bounds[e]:bounds[e +
    1]`` sends row ``rows[i]`` to e with gate ``gates[tokens[i], e % N]``
    (over the 0/1 ``renorm_mask`` total when given); expert e runs over its
    span, and the weighted outputs are added in pair order into zero
    (n_rows, d), then multiplied by ``scale``."""
    idx = np.asarray(rows, dtype=np.int64)
    tok = np.asarray(tokens, dtype=np.int64)
    ends = np.asarray(bounds, dtype=np.int64).tolist()
    n, d, width = len(w_downs), base.data.shape[1], gates.data.shape[1]
    experts = np.repeat(np.arange(n), np.diff(ends))
    cols = experts % width
    weight = pair_gate = gates.data[tok, cols]
    if renorm_mask is not None:
        mask = np.asarray(renorm_mask, dtype=np.float64)
        totals = (gates.data * mask) @ np.ones((width, 1))
        inverse = 1.0 / totals
        weight = pair_gate * inverse[tok, 0]
    parents = (base, gates, *w_downs, *w_ups)
    need = tensor._tracked(parents)
    spans = [(e, lo, hi) for e, (lo, hi) in enumerate(zip(ends, ends[1:])) if lo < hi]
    out = np.empty((idx.size, d))
    saved = {}
    for e, lo, hi in spans:
        x = base.data[idx[lo:hi]]
        value, local = tensor._activate(x @ w_downs[e].data, act, need)
        out[lo:hi] = value @ w_ups[e].data
        saved[e] = (x, value, local)
    data = np.zeros((n_rows, d))
    np.add.at(data, idx, out * weight[:, None])

    def grad_fn(g):
        g_pairs = (g * scale if scale != 1.0 else g)[idx]
        d_out = g_pairs * weight[:, None]
        d_gates = d_base = None
        if gates.requires_grad:
            d_weight = np.sum(g_pairs * out, axis=1)
            d_gates = np.zeros_like(gates.data)
            np.add.at(d_gates, (tok, cols), d_weight if renorm_mask is None
                      else d_weight * inverse[tok, 0])
            if renorm_mask is not None:
                d_inverse = np.zeros_like(totals)
                np.add.at(d_inverse, (tok, 0), d_weight * pair_gate)
                d_gates = d_gates + (-d_inverse * inverse * inverse) * mask
        d_downs, d_ups = [None] * n, [None] * n
        d_rows = np.empty_like(d_out)
        for e, lo, hi in spans:
            x, value, local = saved[e]
            d_ups[e] = value.T @ d_out[lo:hi]
            d_pre = (d_out[lo:hi] @ w_ups[e].data.T) * local
            d_downs[e] = x.T @ d_pre
            if base.requires_grad:
                d_rows[lo:hi] = d_pre @ w_downs[e].data.T
        if base.requires_grad:
            d_base = np.zeros_like(base.data)
            np.add.at(d_base, idx, d_rows)
        return (d_base, d_gates, *d_downs, *d_ups)

    return tensor._result(data * scale if scale != 1.0 else data, parents, grad_fn,
                          f"pair_mixture[{act}]")


def softmax(a, axis=-1):
    """Stable softmax along ``axis``, a test-local op for reference chains:
    exp(x - max) normalised to sum 1."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)

    def grad_fn(g):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return tensor._result(s, (a,), grad_fn, "softmax")


def activation(a, kind="gelu"):
    """Pointwise nonlinearity, one of gelu, relu, silu, as a test-local op."""
    value, local = tensor._activate(a.data, kind, tensor._tracked((a,)))
    return tensor._result(value, (a,), lambda g: (g * local,), f"activation[{kind}]")


def concat_rows(parts):
    """Stack tensors along their first axis, a test-local op; all other
    dimensions must agree."""
    if len(parts) == 1:
        return parts[0]
    if any(p.data.ndim == 0 or p.data.shape[1:] != parts[0].data.shape[1:] for p in parts):
        raise ShapeError("concat_rows needs tensors whose shapes differ only in the first axis")
    ends = np.cumsum([p.data.shape[0] for p in parts])[:-1]
    return tensor._result(np.concatenate([p.data for p in parts]), tuple(parts),
                          lambda g: np.split(g, ends), "concat_rows")


NEG_MASK = -1.0e30


def packed_mask(lengths):
    """Block-diagonal causal mask of sequences laid end to end: 0 where a
    row may attend, a large negative score where it may not."""
    n = sum(lengths)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    allowed = np.tri(n, n, 0, dtype=bool) & (segment[:, None] == segment[None, :])
    return np.where(allowed, 0.0, NEG_MASK)


def cached_mask(rows, cached):
    """Causal mask of ``rows`` new rows of one sequence after ``cached`` rows
    already read."""
    return np.where(np.tri(rows, cached + rows, cached, dtype=bool), 0.0, NEG_MASK)


def _masked_attend(q, k, v, mask, n_heads):
    """The block-diagonal reference of the engine's attention: all heads of
    the (T, d) queries over the (S, d) keys and values under one constant
    additive (T, S) mask, softmax(q_h k_h^T / sqrt(d_head) + mask) v_h with
    the heads side by side, and what its backward reads."""
    def split(a):
        return a.reshape(a.shape[0], n_heads, a.shape[1] // n_heads).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    scale = (q.shape[1] // n_heads) ** -0.5
    qh, kh, vh = split(q), split(k), split(v)
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale + mask
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = e / np.sum(e, axis=-1, keepdims=True)

    def grads(g):
        gh = split(g)
        d_probs = np.matmul(gh, vh.transpose(0, 2, 1))
        d_scores = (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True)) * probs * scale
        return (merge(np.matmul(d_scores, kh)), merge(np.matmul(d_scores.transpose(0, 2, 1), qh)),
                merge(np.matmul(probs.transpose(0, 2, 1), gh)))

    return merge(np.matmul(probs, vh)), grads


def attention(q, k, v, mask, n_heads):
    """All-head scaled dot-product attention of (T, d) queries over (S, d)
    keys and values with a constant additive (T, S) mask, as a test-local
    op: the block-diagonal reference ``attention_block`` replaced by
    attention per sequence."""
    out, grads = _masked_attend(q.data, k.data, v.data, np.asarray(mask, dtype=np.float64),
                                n_heads)
    return tensor._result(out, (q, k, v), grads, "attention")


def attention_chain(x, norm, wq, wk, wv, wo, mask, n_heads, cache=None):
    """Reference for ``attention_block`` as separate ops: rmsnorm, the q, k
    and v projections, all-head attention, the output projection and the
    residual add. ``cache`` is a dict that keeps the K and V tensors of the
    rows read so far, joined to each call's own by ``concat_rows``."""
    z = rmsnorm(x, norm)
    q, k, v = matmul(z, wq), matmul(z, wk), matmul(z, wv)
    if cache is not None:
        if cache:
            k, v = concat_rows([cache["k"], k]), concat_rows([cache["v"], v])
        cache["k"], cache["v"] = k, v
    return add(x, matmul(attention(q, k, v, mask, n_heads), wo))


def feed_forward_chain(x, w1, w2, act):
    """Reference for ``feed_forward`` as separate ops: matmul, activation, matmul."""
    return matmul(activation(matmul(x, w1), act), w2)


def relative_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-3) -> float:
    """Max elementwise |a - n| / max(|a|, |n|, floor).

    The floor keeps near-zero gradients from inflating the ratio; below it
    the comparison degrades gracefully into an absolute check.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def gradcheck(build_loss, arrays, h=1e-5, coords=None, rng=None):
    """Compare analytic gradients of ``build_loss`` with central differences.

    ``build_loss`` maps a list of numpy arrays to a scalar loss Tensor and
    must rebuild the graph on every call (define-by-run). Returns the worst
    relative error over all inputs. ``coords`` limits the finite-difference
    probe to that many coordinates per array, sampled with ``rng``.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]

    params = [Tensor(a, requires_grad=True) for a in arrays]
    loss = build_loss(params)
    backward(loss)
    analytic = [p.grad if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for i, base in enumerate(arrays):
        def scalar_f(x, i=i):
            probe = [Tensor(a) for a in arrays[:i]] + [Tensor(x)] + [Tensor(a) for a in arrays[i + 1:]]
            return build_loss(probe).item()

        if coords is None:
            numeric = finite_difference_gradient(scalar_f, base, h)
            worst = max(worst, relative_error(analytic[i], numeric))
        else:
            flat = base.reshape(-1)
            n = min(coords, flat.size)
            picked = rng.choice(flat.size, size=n, replace=False)
            for j in picked:
                orig = flat[j]
                flat[j] = orig + h
                fp = scalar_f(base)
                flat[j] = orig - h
                fm = scalar_f(base)
                flat[j] = orig
                numeric_j = (fp - fm) / (2.0 * h)
                worst = max(worst, relative_error(analytic[i].reshape(-1)[j], numeric_j))
    return worst


def nearest_reference(points, centroids):
    """Nearest centroid per row by the (n, k, d) broadcast, lowest index on
    ties: the labels the Gram assignment must reproduce."""
    return np.argmin(np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2), axis=1)


def make_planted_blobs(n_centers, n_points, dim, radius, rng, sep_factor=10.0):
    """Gaussian blobs planted on a randomly rotated, jittered simplex.

    All pairwise center distances are near-equal and at least
    sep_factor * radius. Near-equidistance matters beyond mere
    separation: if one center pair sits much closer than the rest,
    merging that pair is cheap and the SSE curve's sharpest bend moves
    below the true count, which no selection rule could repair.
    """
    if n_centers > dim:
        raise ValueError(f"cannot place {n_centers} equidistant centers in {dim}-D")
    sep = 1.2 * sep_factor * radius
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    centers = (sep / np.sqrt(2.0)) * q[:n_centers]
    centers = centers + rng.uniform(-1.0, 1.0, size=centers.shape) * (0.02 * sep)
    d = np.sqrt(((centers[:, None] - centers[None, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, np.inf)
    assert d.min() >= sep_factor * radius
    labels = rng.integers(0, n_centers, size=n_points)
    points = centers[labels] + rng.normal(scale=radius / 3.0, size=(n_points, dim))
    return points, labels, centers


def exhaustive_two_means(points):
    """Globally optimal 2-means SSE by enumerating every bipartition.

    Only feasible for a handful of points, and that is the point: it is the
    oracle the iterative fit is judged against.
    """
    n = points.shape[0]
    best = np.inf
    for assignment in itertools.product([0, 1], repeat=n):
        labels = np.array(assignment)
        if labels.min() == labels.max():
            continue
        total = 0.0
        for c in (0, 1):
            members = points[labels == c]
            centroid = members.mean(axis=0)
            total += float(((members - centroid) ** 2).sum())
        best = min(best, total)
    return best
