"""Reverse-mode autodiff over dense 64-bit float tensors.

Define-by-run: every operation records its inputs and a local backward
rule on the output node, so the op graph reachable from a loss scalar is
the tape. ``backward`` replays that tape once, newest node first, and
accumulates gradients additively into every tensor that requires them.
Inside ``no_grad`` nothing is recorded, for forwards no backward reads.
There are no views or strides; every op materialises a fresh row-major
array, which keeps the engine small and bit-deterministic.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, NumericError, ShapeError, StateError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

ACTIVATIONS = ("gelu", "relu", "silu")


class Tensor:
    """A dense float64 array plus the bookkeeping reverse mode needs.

    ``grad`` stays None until a backward pass deposits into it; repeated
    backward passes through fresh graphs keep accumulating, so callers
    zero gradients between optimisation steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericError("tensor constructed from non-finite data")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self) -> "Tensor":
        return tensor_sum(self)

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside ``no_grad``. One flag for the whole process: the engine
# runs on one thread.
_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Run ops without recording them: a result built inside has no parents
    and no backward rule, so nothing reaches back through it. Every shape,
    range and finiteness check still runs. Blocks nest, and the previous
    state comes back on exit, also when the block raises."""
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {op}")
    out = Tensor.__new__(Tensor)
    out.data = np.ascontiguousarray(data, dtype=np.float64)
    out.grad = None
    out.requires_grad = _recording and any(p.requires_grad for p in parents)
    out._consumed = False
    if out.requires_grad:
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out._parents = ()
        out._backward_fn = None
    return out


def backward(loss: Tensor) -> None:
    """Replay the op graph below ``loss`` in reverse and fill gradients.

    The loss must be a scalar; a second pass over the same graph is a
    state error because intermediate nodes are marked consumed.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    # Iterative topological order; graphs can be deeper than the default
    # recursion limit when losses accumulate over long batches.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._consumed:
            raise StateError("backward was already run over part of this graph")
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen and parent.requires_grad:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        # Leaves stay reusable across steps; only op nodes are one-shot.
        if node._backward_fn is not None:
            node._consumed = True
        grad_out = grads.pop(id(node), None)
        if grad_out is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = grad_out.copy()
            else:
                node.grad = node.grad + grad_out
        if node._backward_fn is None:
            continue
        parent_grads = node._backward_fn(grad_out)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            if pg.shape != parent.data.shape:
                raise ShapeError(
                    f"backward rule produced gradient of shape {pg.shape} "
                    f"for parent of shape {parent.data.shape}"
                )
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


# -- arithmetic ---------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; the second operand may be a Python scalar."""
    if isinstance(b, (int, float)):
        data = a.data + float(b)
        return _result(data, (a,), lambda g: (g,), "add")
    b = _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add needs matching shapes, got {a.data.shape} and {b.data.shape}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g), "add")


def sub(a: Tensor, b) -> Tensor:
    if isinstance(b, (int, float)):
        return add(a, -float(b))
    b = _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub needs matching shapes, got {a.data.shape} and {b.data.shape}")
    return _result(a.data - b.data, (a, b), lambda g: (g, -g), "sub")


def neg(a: Tensor) -> Tensor:
    return _result(-a.data, (a,), lambda g: (-g,), "neg")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise (Hadamard) product, or scaling by a Python scalar."""
    if isinstance(b, (int, float)):
        s = float(b)
        return _result(a.data * s, (a,), lambda g: (g * s,), "mul")
    b = _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul needs matching shapes, got {a.data.shape} and {b.data.shape}")
    return _result(
        a.data * b.data,
        (a, b),
        lambda g: (g * b.data, g * a.data),
        "mul",
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.data.shape} @ {b.data.shape}")

    def grad_fn(g: np.ndarray):
        return g @ b.data.T, a.data.T @ g

    return _result(a.data @ b.data, (a, b), grad_fn, "matmul")


def reciprocal(a: Tensor) -> Tensor:
    """Elementwise 1/x; rejects inputs close enough to zero to blow up."""
    if np.any(np.abs(a.data) < 1e-300):
        raise NumericError("reciprocal of a (near-)zero value")
    inv = 1.0 / a.data
    return _result(inv, (a,), lambda g: (-g * inv * inv,), "reciprocal")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.data.shape}")
    return _result(a.data.T, (a,), lambda g: (np.ascontiguousarray(g.T),), "transpose")


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, returned as a scalar tensor."""
    data = np.array(np.sum(a.data), dtype=np.float64)
    return _result(data, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),), "sum")


def mean(a: Tensor) -> Tensor:
    n = a.data.size
    if n == 0:
        raise ContractError("mean of an empty tensor")
    return mul(tensor_sum(a), 1.0 / n)


# -- nonlinearities -----------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``: exp(x - max) normalised to sum 1."""
    shifted = a.data - np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / np.sum(e, axis=axis, keepdims=True)

    def grad_fn(g: np.ndarray):
        inner = np.sum(g * s, axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return _result(s, (a,), grad_fn, "softmax")


def _gelu_value_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return x * cdf, cdf + x * pdf


def _silu_value_grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig * (1.0 + x * (1.0 - sig))


def _activate(x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """A nonlinearity's value and its pointwise derivative at ``x``."""
    if kind == "gelu":
        return _gelu_value_grad(x)
    if kind == "relu":
        return np.maximum(x, 0.0), (x > 0.0).astype(np.float64)
    if kind == "silu":
        return _silu_value_grad(x)
    raise ContractError(f"unknown activation kind '{kind}', expected one of {ACTIVATIONS}")


def activation(a: Tensor, kind: str = "gelu") -> Tensor:
    """Pointwise nonlinearity. ``kind`` is one of gelu, relu, silu."""
    value, local = _activate(a.data, kind)
    return _result(value, (a,), lambda g: (g * local,), f"activation[{kind}]")


def rmsnorm(x: Tensor, gain: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise RMS normalisation with a learned per-column gain."""
    if x.data.ndim != 2 or gain.data.ndim != 1 or gain.data.shape[0] != x.data.shape[1]:
        raise ShapeError(f"rmsnorm needs (T,d) and (d,), got {x.data.shape} and {gain.data.shape}")
    d = x.data.shape[1]
    r = np.sqrt(np.mean(x.data * x.data, axis=1, keepdims=True) + eps)
    normed = x.data / r
    out = normed * gain.data

    def grad_fn(g: np.ndarray):
        gg = g * gain.data
        inner = np.sum(gg * x.data, axis=1, keepdims=True)
        dx = gg / r - x.data * inner / (d * r ** 3)
        dgain = np.sum(g * normed, axis=0)
        return dx, dgain

    return _result(out, (x, gain), grad_fn, "rmsnorm")


# -- structural ops -----------------------------------------------------

def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows by index; gradient scatter-adds back (repeats allowed)."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-D tensor, got {a.data.shape}")
    if idx.ndim != 1:
        raise ShapeError(f"take_rows needs a 1-D index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ContractError(f"take_rows index out of range for {a.data.shape[0]} rows")

    def grad_fn(g: np.ndarray):
        da = np.zeros_like(a.data)
        np.add.at(da, idx, g)
        return (da,)

    return _result(a.data[idx], (a,), grad_fn, "take_rows")


def pad_rows(a: Tensor, indices, total_rows: int) -> Tensor:
    """Place rows of ``a`` at the given positions of a zero (total_rows, d) tensor."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"pad_rows needs a 2-D tensor, got {a.data.shape}")
    if idx.shape != (a.data.shape[0],):
        raise ShapeError(f"pad_rows needs one index per row, got {idx.shape} for {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= total_rows):
        raise ContractError(f"pad_rows index out of range for {total_rows} rows")
    if idx.size != np.unique(idx).size:
        raise ContractError("pad_rows indices must be unique")
    data = np.zeros((total_rows, a.data.shape[1]), dtype=np.float64)
    data[idx] = a.data
    return _result(data, (a,), lambda g: (g[idx].copy(),), "pad_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got {a.data.shape}")
    if not (0 <= start < stop <= a.data.shape[1]):
        raise ContractError(f"slice_cols range [{start}, {stop}) invalid for {a.data.shape[1]} columns")

    def grad_fn(g: np.ndarray):
        da = np.zeros_like(a.data)
        da[:, start:stop] = g
        return (da,)

    return _result(a.data[:, start:stop].copy(), (a,), grad_fn, "slice_cols")


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ContractError("concat_cols needs at least one tensor")
    rows = parts[0].data.shape[0]
    for p in parts:
        if p.data.ndim != 2 or p.data.shape[0] != rows:
            raise ShapeError("concat_cols needs 2-D tensors with equal row counts")
    widths = [p.data.shape[1] for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def grad_fn(g: np.ndarray):
        return tuple(g[:, offsets[i]:offsets[i + 1]].copy() for i in range(len(parts)))

    return _result(np.concatenate([p.data for p in parts], axis=1), tuple(parts), grad_fn, "concat_cols")


def mul_rows(a: Tensor, scale: Tensor) -> Tensor:
    """Scale each row of a (T, d) tensor by the matching entry of a (T,) tensor."""
    if a.data.ndim != 2 or scale.data.ndim != 1 or scale.data.shape[0] != a.data.shape[0]:
        raise ShapeError(f"mul_rows needs (T,d) and (T,), got {a.data.shape} and {scale.data.shape}")

    def grad_fn(g: np.ndarray):
        return g * scale.data[:, None], np.sum(g * a.data, axis=1)

    return _result(a.data * scale.data[:, None], (a, scale), grad_fn, "mul_rows")


def take_entries(a: Tensor, rows, cols) -> Tensor:
    """Gather the entries a[rows[i], cols[i]] into a 1-D tensor; gradient scatter-adds back."""
    r = np.asarray(rows, dtype=np.int64)
    c = np.asarray(cols, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"take_entries needs a 2-D tensor, got {a.data.shape}")
    if r.ndim != 1 or r.shape != c.shape:
        raise ShapeError(f"take_entries needs two equal 1-D index lists, got {r.shape} and {c.shape}")
    if r.size and (r.min() < 0 or r.max() >= a.data.shape[0] or c.min() < 0
                   or c.max() >= a.data.shape[1]):
        raise ContractError(f"take_entries index out of range for shape {a.data.shape}")

    def grad_fn(g: np.ndarray):
        da = np.zeros_like(a.data)
        np.add.at(da, (r, c), g)
        return (da,)

    return _result(a.data[r, c], (a,), grad_fn, "take_entries")


def scatter_add_rows(a: Tensor, indices, total_rows: int) -> Tensor:
    """Add each row of ``a`` into the given row of a zero (total_rows, d) tensor.

    Rows sent to the same index add up, in the order they come in.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2:
        raise ShapeError(f"scatter_add_rows needs a 2-D tensor, got {a.data.shape}")
    if idx.shape != (a.data.shape[0],):
        raise ShapeError(f"scatter_add_rows needs one index per row, got {idx.shape} for {a.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= total_rows):
        raise ContractError(f"scatter_add_rows index out of range for {total_rows} rows")
    data = np.zeros((total_rows, a.data.shape[1]), dtype=np.float64)
    np.add.at(data, idx, a.data)
    return _result(data, (a,), lambda g: (g[idx],), "scatter_add_rows")


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors along their first axis; all other dimensions must agree."""
    if not parts:
        raise ContractError("concat_rows needs at least one tensor")
    if len(parts) == 1:
        return parts[0]
    tail = parts[0].data.shape[1:]
    for p in parts:
        if p.data.ndim == 0 or p.data.shape[1:] != tail:
            raise ShapeError("concat_rows needs tensors whose shapes differ only in the first axis")

    def grad_fn(g: np.ndarray):
        grads, start = [], 0
        for p in parts:
            stop = start + p.data.shape[0]
            grads.append(g[start:stop])
            start = stop
        return grads

    return _result(np.concatenate([p.data for p in parts]), tuple(parts), grad_fn, "concat_rows")


def flatten_to_vector(a: Tensor) -> Tensor:
    """Reshape a 2-D (T, 1) or (1, T) tensor to a 1-D (T,) tensor."""
    if a.data.ndim != 2 or 1 not in a.data.shape:
        raise ShapeError(f"flatten_to_vector needs a single-row or single-column tensor, got {a.data.shape}")
    shape = a.data.shape
    return _result(a.data.reshape(-1), (a,), lambda g: (g.reshape(shape),), "flatten_to_vector")


def masked_cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Weighted mean negative log-likelihood: sum_r w_r * nll_r / sum_r w_r.

    ``targets`` holds one class index per row and ``weights`` one
    non-negative weight per row, with a positive sum; both are constants,
    not graph nodes. A 0/1 mask gives the mean over the rows it selects;
    weights of mask / mask-count per packed sequence give the mean over
    sequences of each sequence's mean.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"masked_cross_entropy needs (T,V) logits, got {logits.data.shape}")
    t = np.asarray(targets, dtype=np.int64)
    m = np.asarray(weights, dtype=np.float64)
    rows, vocab = logits.data.shape
    if t.shape != (rows,) or m.shape != (rows,):
        raise ShapeError(
            f"targets/weights must have shape ({rows},), got {t.shape} and {m.shape}"
        )
    if t.size and (t.min() < 0 or t.max() >= vocab):
        raise ContractError(f"target index out of range for vocab size {vocab}")
    if np.any(m < 0.0) or not np.all(np.isfinite(m)):
        raise ContractError("masked_cross_entropy: weights must be finite and non-negative")
    count = float(np.sum(m))
    if count <= 0.0:
        raise ContractError("masked_cross_entropy: the supervised span is empty")

    shifted = logits.data - np.max(logits.data, axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - logz
    picked = logp[np.arange(rows), t]
    loss = np.array(-np.sum(picked * m) / count, dtype=np.float64)

    def grad_fn(g: np.ndarray):
        gs = float(np.asarray(g).reshape(()))
        probs = np.exp(logp)
        probs[np.arange(rows), t] -= 1.0
        return (probs * (m[:, None] * (gs / count)),)

    return _result(loss, (logits,), grad_fn, "masked_cross_entropy")


# -- fused blocks -------------------------------------------------------

def _split_heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(rows, d) -> (heads, rows, d / heads): head h owns its h-th run of columns."""
    rows, d = a.shape
    return a.reshape(rows, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(heads, rows, d_head) -> (rows, heads * d_head), the heads side by side."""
    heads, rows, d_head = a.shape
    return a.transpose(1, 0, 2).reshape(rows, heads * d_head)


def attention(q: Tensor, k: Tensor, v: Tensor, mask, n_heads: int) -> Tensor:
    """Scaled dot-product attention for every head in one op.

    ``q`` is (T, d), ``k`` and ``v`` are (S, d), and head h owns columns
    ``h*d/n_heads`` to ``(h+1)*d/n_heads`` of each. ``mask`` is a constant
    additive (T, S) array: 0 where a row may attend and a large negative
    score where it may not. Head h computes
    softmax(q_h k_h^T / sqrt(d_head) + mask) v_h; the result holds the
    heads side by side, (T, d).
    """
    m = np.asarray(mask, dtype=np.float64)
    if q.data.ndim != 2 or k.data.ndim != 2 or v.data.shape != k.data.shape:
        raise ShapeError(f"attention needs (T,d) queries and equal (S,d) keys and values, "
                         f"got {q.data.shape}, {k.data.shape} and {v.data.shape}")
    rows, d = q.data.shape
    if k.data.shape[1] != d:
        raise ShapeError(f"attention keys have width {k.data.shape[1]}, queries {d}")
    if not (isinstance(n_heads, int) and n_heads >= 1 and d % n_heads == 0):
        raise ContractError(f"attention needs a head count >= 1 that divides {d}, got {n_heads}")
    if m.shape != (rows, k.data.shape[0]):
        raise ShapeError(f"attention mask must have shape {(rows, k.data.shape[0])}, got {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError("attention mask holds non-finite values")
    scale = (d // n_heads) ** -0.5
    qh, kh, vh = (_split_heads(t.data, n_heads) for t in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 2, 1)) * scale + m
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    probs = e / np.sum(e, axis=-1, keepdims=True)

    def grad_fn(g: np.ndarray):
        gh = _split_heads(g, n_heads)
        d_probs = np.matmul(gh, vh.transpose(0, 2, 1))
        d_scores = (d_probs - np.sum(d_probs * probs, axis=-1, keepdims=True)) * probs * scale
        return (_merge_heads(np.matmul(d_scores, kh)),
                _merge_heads(np.matmul(d_scores.transpose(0, 2, 1), qh)),
                _merge_heads(np.matmul(probs.transpose(0, 2, 1), gh)))

    return _result(_merge_heads(np.matmul(probs, vh)), (q, k, v), grad_fn, "attention")


def adapter_bank(base: Tensor, rows, bounds, w_downs: Sequence[Tensor], w_ups: Sequence[Tensor],
                 act: str = "gelu") -> Tensor:
    """A bank of bottleneck adapters, each run once on its own rows.

    ``rows`` lists rows of ``base`` sorted by adapter: adapter e reads rows
    ``rows[bounds[e]:bounds[e + 1]]`` and writes act(base_rows @ w_downs[e])
    @ w_ups[e] to the same span of the result, which has one row per entry
    of ``rows`` (repeats allowed). An adapter with no rows does no work, and
    its weights get no gradient: None, not zeros.
    """
    idx = np.asarray(rows, dtype=np.int64)
    ends = np.asarray(bounds, dtype=np.int64).tolist()
    n = len(w_downs)
    if base.data.ndim != 2:
        raise ShapeError(f"adapter_bank needs a 2-D base, got {base.data.shape}")
    if idx.ndim != 1:
        raise ShapeError(f"adapter_bank needs a 1-D row list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= base.data.shape[0]):
        raise ContractError(f"adapter_bank row out of range for {base.data.shape[0]} rows")
    if n == 0 or len(w_ups) != n:
        raise ContractError(f"adapter_bank needs one up projection per down projection, "
                            f"got {n} and {len(w_ups)}")
    if (not isinstance(ends, list) or len(ends) != n + 1 or ends[0] != 0 or ends[-1] != idx.size
            or any(lo > hi for lo, hi in zip(ends, ends[1:]))):
        raise ContractError(f"adapter_bank needs {n + 1} bounds rising from 0 to {idx.size}")
    d = base.data.shape[1]
    for w_down, w_up in zip(w_downs, w_ups):
        rank = w_down.data.shape[1] if w_down.data.ndim == 2 else -1
        if w_down.data.shape != (d, rank) or w_up.data.shape != (rank, d):
            raise ShapeError(f"adapter_bank needs ({d}, r) and (r, {d}) projections, "
                             f"got {w_down.data.shape} and {w_up.data.shape}")
    if act not in ACTIVATIONS:
        raise ContractError(f"unknown activation kind '{act}', expected one of {ACTIVATIONS}")
    spans = [(e, lo, hi) for e, (lo, hi) in enumerate(zip(ends, ends[1:])) if lo < hi]
    out = np.empty((idx.size, d))
    saved = {}
    for e, lo, hi in spans:
        x = base.data[idx[lo:hi]]
        value, local = _activate(x @ w_downs[e].data, act)
        out[lo:hi] = value @ w_ups[e].data
        saved[e] = (x, value, local)

    def grad_fn(g: np.ndarray):
        d_downs, d_ups = [None] * n, [None] * n
        d_rows = np.empty_like(g)
        for e, lo, hi in spans:
            x, value, local = saved[e]
            d_ups[e] = value.T @ g[lo:hi]
            d_pre = (g[lo:hi] @ w_ups[e].data.T) * local
            d_downs[e] = x.T @ d_pre
            d_rows[lo:hi] = d_pre @ w_downs[e].data.T
        d_base = None
        if base.requires_grad:
            d_base = np.zeros_like(base.data)
            np.add.at(d_base, idx, d_rows)
        return (d_base, *d_downs, *d_ups)

    return _result(out, (base, *w_downs, *w_ups), grad_fn, f"adapter_bank[{act}]")


# -- the numerical oracle ----------------------------------------------

def finite_difference_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
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
