"""Reverse-mode autodiff over dense 64-bit float tensors.

Define-by-run: every operation records its inputs and a local backward
rule on the output node, so the op graph reachable from a loss scalar is
the tape. ``backward`` replays that tape once, newest node first, and
accumulates gradients additively into every tensor that requires them.
Inside ``no_grad`` nothing is recorded, for forwards no backward reads.
There are no views or strides; every op materialises a fresh row-major
array, which keeps the engine small and bit-deterministic. The one
exception is the K/V cache of ``attention_block``: it writes into arrays
the caller owns, and no gradient reaches them.

The model's pieces are fused ops, so one op is one Python call however
many numpy steps it takes: ``embed_tokens``, ``attention_block``,
``feed_forward``, ``router_gates``, ``adapter_mixture``, ``gate_balance``
and ``output_head``. ``embed_tokens``, ``feed_forward`` and
``output_head`` compute with the expressions of the op chains they
replace, in the same order, and add gradient terms in the order the tape
would, so they are bit-identical to those chains. ``attention_block``
takes a block's sequence lengths, not a mask, and builds its causal
mask itself. Sequences of one length attend at once in a (sequences,
heads, length, d_head) layout, each over its own rows only; a block of
mixed lengths attends as one sequence under the block-diagonal mask.
That gives the bits of the op chain under the block-diagonal mask;
equal sequences agree with it within 1e-12, as the sums run over fewer
masked zeros. ``adapter_mixture`` runs one activation call over every pair and
adds each row's pairs in pair order with ``np.bincount``, the bits of
``np.add.at``. Ops
reduce through the numpy ufuncs themselves (``np.add.reduce``,
``np.maximum.reduce``, ``np.logical_and.reduce``), not through the
``np.sum``/``np.max``/``np.mean`` wrappers, whose per-call cost is most of
a reduction over one row; the bits are the same.

The engine imports numpy alone. gelu's ``erf`` is ``scipy.special.erf``,
which ``_scipy_erf`` imports the first time a gelu block is built or run:
scipy costs about 26 MB resident and 200 ms to load, and the sequence
stage and relu and silu models never call it. Without scipy a gelu block
fails to build with ConfigError, before a run writes anything.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, ContractError, NumericError, ShapeError, StateError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

ACTIVATIONS = ("gelu", "relu", "silu")

# The additive score of a key a query may not attend to: exp of it is 0.
_NEG_MASK = -1.0e30


class Tensor:
    """A dense float64 array plus the bookkeeping reverse mode needs.

    ``grad`` stays None until a backward pass deposits into it; repeated
    backward passes through fresh graphs keep accumulating, so callers
    zero gradients between optimisation steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.logical_and.reduce(np.isfinite(arr), axis=None):
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

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))


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


def _tracked(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over ``parents`` is recorded, so a backward may read it."""
    return _recording and any(p.requires_grad for p in parents)


def from_checked(data: np.ndarray) -> Tensor:
    """A constant tensor over ``data`` itself, with no copy and no
    finiteness check: for C-ordered float64 rows built from op results,
    which were checked when the op made them."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._parents = ()
    out._backward_fn = None
    out._consumed = False
    return out


def _result(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    """The one constructor of op results: checks finiteness, and records
    ``parents`` and ``backward_fn`` when the op is tracked."""
    if not np.logical_and.reduce(np.isfinite(data), axis=None):
        raise NumericError(f"non-finite values produced by {op}")
    out = from_checked(np.ascontiguousarray(data, dtype=np.float64))
    if _tracked(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
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


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, returned as a scalar tensor. No model path calls
    it; tests and the bench self-tests build scalar losses with it."""
    data = np.array(np.add.reduce(a.data, axis=None), dtype=np.float64)
    return _result(data, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),), "sum")


# -- nonlinearities and norms -------------------------------------------

@cache
def _scipy_erf():
    """``scipy.special.erf``, imported by the first call; gelu is its only
    reader. No scipy raises ConfigError, naming gelu and scipy."""
    try:
        from scipy.special import erf
    except ImportError as exc:
        raise ConfigError("activation 'gelu' needs scipy.special.erf, but scipy cannot be "
                          f"imported ({exc}); install scipy or use relu or silu") from exc
    return erf


def check_activation(act) -> None:
    """Raise ContractError unless ``act`` names one of ``ACTIVATIONS``."""
    if act not in ACTIVATIONS:
        raise ContractError(f"unknown activation kind '{act}', expected one of {ACTIVATIONS}")


def _activate(x: np.ndarray, kind: str, need: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """A nonlinearity's value at ``x`` and, when ``need`` is set, its
    pointwise derivative there (else None: no backward will read it).

    gelu's erf comes from ``_scipy_erf``, so scipy loads at the first gelu
    call at the latest; a gelu ``FeedForward`` loads it when built."""
    if kind == "gelu":
        cdf = 0.5 * (1.0 + _scipy_erf()(x * _INV_SQRT2))
        local = cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI) if need else None
        return x * cdf, local
    if kind == "relu":
        return np.maximum(x, 0.0), (x > 0.0).astype(np.float64) if need else None
    if kind == "silu":
        sig = 1.0 / (1.0 + np.exp(-x))
        return x * sig, sig * (1.0 + x * (1.0 - sig)) if need else None
    check_activation(kind)  # every known kind has returned, so this raises


def _rmsnorm(x: np.ndarray, gain: np.ndarray, eps: float = 1e-8):
    """Row-wise RMS normalisation times ``gain``, with the row RMS values
    and the normalised rows that the backward rule reads."""
    r = np.sqrt(np.add.reduce(x * x, axis=1, keepdims=True) / x.shape[1] + eps)
    normed = x / r
    return normed * gain, r, normed


def _rmsnorm_grads(g: np.ndarray, x: np.ndarray, gain: np.ndarray, r: np.ndarray,
                   normed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of ``_rmsnorm`` with respect to x and the gain."""
    gg = g * gain
    inner = np.add.reduce(gg * x, axis=1, keepdims=True)
    dx = gg / r - x * inner / (x.shape[1] * r ** 3)
    return dx, np.add.reduce(g * normed, axis=0)


# -- embedding, head and loss ------------------------------------------

_BOOLS = frozenset((bool, np.bool_))


def integers(values, what: str) -> np.ndarray:
    """``values`` as an integer array, or ContractError("{what}, got ...").

    Floats would be truncated and booleans read as 0 and 1, so a dtype that
    is not an integer kind is rejected, and so is a list, nested or not,
    that holds a boolean among integers, which numpy reads as an integer
    array. An ndarray costs one dtype test and no per-element work. An empty
    input comes back as an empty integer array, for the caller to judge.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        if arr.size:
            raise ContractError(f"{what}, got dtype {arr.dtype}")
        arr = arr.astype(np.int64)
    elif arr.ndim and not isinstance(values, np.ndarray):
        items = values if arr.ndim == 1 else np.asarray(values, dtype=object).flat
        if not _BOOLS.isdisjoint(map(type, items)):
            raise ContractError(f"{what}, got a boolean among them")
    return arr


def embed_tokens(tok_emb: Tensor, pos_emb: Tensor, ids, positions) -> Tensor:
    """A block's input rows in one op: tok_emb[ids] + pos_emb[positions].

    ``ids`` and ``positions`` are equal-length 1-D integer arrays; the
    gradient scatter-adds back into the rows they read, repeats included.
    """
    idx = integers(ids, "embed_tokens needs integer ids")
    pos = integers(positions, "embed_tokens needs integer positions")
    table = tok_emb.data.shape
    if (len(table) != 2 or pos_emb.data.ndim != 2 or pos_emb.data.shape[1:] != table[1:]
            or idx.ndim != 1 or pos.shape != idx.shape):
        raise ShapeError(f"embed_tokens needs (V, d) and (P, d) tables and equal 1-D ids and "
                         f"positions, got {table}, {pos_emb.data.shape}, {idx.shape}, {pos.shape}")
    if idx.size and (np.minimum.reduce(idx) < 0 or np.maximum.reduce(idx) >= table[0]):
        raise ContractError(f"token id out of range for vocab size {table[0]}")
    if pos.size and (np.minimum.reduce(pos) < 0 or np.maximum.reduce(pos) >= pos_emb.data.shape[0]):
        raise ContractError(f"position out of range for {pos_emb.data.shape[0]} positions")

    def grad_fn(g: np.ndarray):
        grads = []
        for emb, rows in ((tok_emb, idx), (pos_emb, pos)):
            d = None
            if emb.requires_grad:
                d = np.zeros_like(emb.data)
                np.add.at(d, rows, g)
            grads.append(d)
        return grads

    return _result(tok_emb.data[idx] + pos_emb.data[pos], (tok_emb, pos_emb), grad_fn,
                   "embed_tokens")


def output_head(x: Tensor, norm: Tensor, head: Tensor) -> Tensor:
    """The model's head in one op: rmsnorm(x, norm) @ head, the (T, d) rows
    normalised with the (d,) gain and projected by the (d, V) head."""
    if (x.data.ndim != 2 or norm.data.shape != x.data.shape[1:] or head.data.ndim != 2
            or head.data.shape[0] != x.data.shape[1]):
        raise ShapeError(f"output_head needs (T, d) rows, a (d,) norm and a (d, V) head, "
                         f"got {x.data.shape}, {norm.data.shape} and {head.data.shape}")
    z, r, normed = _rmsnorm(x.data, norm.data)

    def grad_fn(g: np.ndarray):
        dx, d_norm = _rmsnorm_grads(g @ head.data.T, x.data, norm.data, r, normed)
        return dx, d_norm, z.T @ g if head.requires_grad else None

    return _result(z @ head.data, (x, norm, head), grad_fn, "output_head")


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
    t = integers(targets, "masked_cross_entropy needs integer targets")
    m = np.asarray(weights, dtype=np.float64)
    rows, vocab = logits.data.shape
    if t.shape != (rows,) or m.shape != (rows,):
        raise ShapeError(
            f"targets/weights must have shape ({rows},), got {t.shape} and {m.shape}"
        )
    if rows and (np.minimum.reduce(t) < 0 or np.maximum.reduce(t) >= vocab):
        raise ContractError(f"target index out of range for vocab size {vocab}")
    if np.logical_or.reduce(m < 0.0) or not np.logical_and.reduce(np.isfinite(m)):
        raise ContractError("masked_cross_entropy: weights must be finite and non-negative")
    count = float(np.add.reduce(m))
    if count <= 0.0:
        raise ContractError("masked_cross_entropy: the supervised span is empty")

    shifted = logits.data - np.maximum.reduce(logits.data, axis=1, keepdims=True)
    logz = np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))
    logp = shifted - logz
    picked = logp[np.arange(rows), t]
    loss = np.array(-np.add.reduce(picked * m) / count, dtype=np.float64)

    def grad_fn(g: np.ndarray):
        gs = float(np.asarray(g).reshape(()))
        probs = np.exp(logp)
        probs[np.arange(rows), t] -= 1.0
        return (probs * (m[:, None] * (gs / count)),)

    return _result(loss, (logits,), grad_fn, "masked_cross_entropy")


# -- fused blocks -------------------------------------------------------

def _layout(lengths: np.ndarray, rows: int, start: int):
    """How a block of sequences of ``lengths``, ``rows`` in all, is scored:
    the batch count B, the rows L of each batch and the additive causal
    mask, 0 where a query may attend and a large negative score where it
    may not (None when a lone row may attend to every key).

    Sequences of one length L sit side by side, (B, L): each scores only
    its own L x L pairs. Query i of a sequence sees its first i + 1 rows;
    with ``start`` cached rows (one sequence) it also sees all of those.
    A block of mixed lengths is one batch of all its T rows under the
    block-diagonal mask. Padding to the longest would score B x L^2
    pairs, more than T^2 when one sequence is far longer than the rest;
    whether padding or bucketing by length beats T x T on real traffic
    is unmeasured, as no bench workload mixes lengths.
    """
    batch = lengths.size
    longest = int(np.maximum.reduce(lengths))
    if batch * longest != rows:
        segment = np.repeat(np.arange(batch), lengths)
        allowed = np.tri(rows, dtype=bool) & (segment[:, None] == segment)
        batch, longest = 1, rows
    elif longest > 1:
        allowed = np.tri(longest, start + longest, start, dtype=bool)
    else:
        return batch, longest, None
    return batch, longest, np.where(allowed, 0.0, _NEG_MASK)


def _split_heads(a: np.ndarray, batch: int, n_heads: int) -> np.ndarray:
    """(batch * rows, d) -> (batch, heads, rows, d / heads): head h owns its
    h-th run of columns."""
    return a.reshape(batch, -1, n_heads, a.shape[1] // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """(batch, heads, rows, d_head) -> (batch * rows, heads * d_head), the
    heads side by side."""
    batch, heads, rows, d_head = a.shape
    return a.transpose(0, 2, 1, 3).reshape(batch * rows, heads * d_head)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, layout, n_heads: int):
    """All-head causal attention of each batch of a block over its own
    rows, and what the backward reads.

    ``layout`` comes from ``_layout``. The (T, d) queries and keys and
    values go to (B, heads, L, d_head) arrays; with a cache the one
    sequence's (S, d) keys and values hold the cached rows first. Head h
    owns columns ``h*d/n_heads`` to ``(h+1)*d/n_heads`` and computes
    softmax(q_h k_h^T / sqrt(d_head) + mask) v_h; the (T, d) result holds
    the heads side by side.
    """
    batch, _, mask = layout
    scale = (q.shape[1] // n_heads) ** -0.5
    qh, kh, vh = (_split_heads(t, batch, n_heads) for t in (q, k, v))
    scores = np.matmul(qh, kh.transpose(0, 1, 3, 2)) * scale
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    probs = e / np.add.reduce(e, axis=-1, keepdims=True)
    return _merge_heads(np.matmul(probs, vh)), (qh, kh, vh, probs, scale)


def _attend_grads(g: np.ndarray, n_heads: int, saved) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients of ``_attend`` with respect to q, k and v."""
    qh, kh, vh, probs, scale = saved
    gh = _split_heads(g, qh.shape[0], n_heads)
    d_probs = np.matmul(gh, vh.transpose(0, 1, 3, 2))
    d_scores = (d_probs - np.add.reduce(d_probs * probs, axis=-1, keepdims=True)) * probs * scale
    return (_merge_heads(np.matmul(d_scores, kh)),
            _merge_heads(np.matmul(d_scores.transpose(0, 1, 3, 2), qh)),
            _merge_heads(np.matmul(probs.transpose(0, 1, 3, 2), gh)))


def attention_block(x: Tensor, norm: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                    lengths, n_heads: int, cache: tuple | None = None) -> Tensor:
    """A pre-norm causal attention sublayer with its residual, in one op:
    x + attend(z @ wq, z @ wk, z @ wv) @ wo with z = rmsnorm(x, norm).

    ``x`` is (T, d): sequences of the 1-D integer ``lengths`` laid end to
    end. ``norm`` is (d,) and the four projections (d, d). Each row
    attends to the rows of its own sequence up to itself, all heads at
    once, in the layout of ``_layout``. With ``cache`` = (keys, values,
    start), two (capacity, d) arrays whose first ``start`` rows hold the
    keys and values of the one sequence's rows read before, the op writes
    its rows' keys and values after them in place, and the rows also
    attend to every cached row. The cached rows are plain arrays that no
    gradient can reach, so a backward through such a forward raises
    ContractError: run it under ``no_grad``. Recorded or not, its values
    are the same.
    """
    if x.data.ndim != 2 or norm.data.shape != x.data.shape[1:]:
        raise ShapeError(f"attention_block needs (T,d) rows and a (d,) norm, "
                         f"got {x.data.shape} and {norm.data.shape}")
    rows, d = x.data.shape
    if any(w.data.shape != (d, d) for w in (wq, wk, wv, wo)):
        raise ShapeError(f"attention_block needs ({d}, {d}) projections, "
                         f"got {[w.data.shape for w in (wq, wk, wv, wo)]}")
    if not (isinstance(n_heads, int) and n_heads >= 1 and d % n_heads == 0):
        raise ContractError(f"attention needs a head count >= 1 that divides {d}, got {n_heads}")
    lens = np.asarray(lengths)
    if lens.ndim != 1 or lens.size == 0 or lens.dtype.kind not in "iu":
        raise ContractError(f"attention_block needs a 1-D integer array of sequence lengths, "
                            f"got {lens.shape} of {lens.dtype}")
    if np.minimum.reduce(lens) < 1:
        raise ContractError(f"attention_block needs positive sequence lengths, got {lens.tolist()}")
    total = sum(lens.tolist())  # Python ints: no wrap-around
    if total != rows:
        raise ShapeError(f"attention_block sequence lengths sum to {total}, not the {rows} rows")
    start = 0
    if cache is not None:
        keys, values, start = cache
        if lens.size != 1:
            raise ContractError(f"a K/V cache holds one sequence, got {lens.size}")
        if keys.shape != values.shape or keys.shape[1:] != (d,) or start + rows > keys.shape[0]:
            raise ShapeError(f"attention_block cannot add {rows} rows after {start} to "
                             f"{keys.shape} keys and {values.shape} values")
    layout = _layout(lens, rows, start)
    z, r, normed = _rmsnorm(x.data, norm.data)
    q, k, v = z @ wq.data, z @ wk.data, z @ wv.data
    if cache is not None:
        keys[start:start + rows] = k
        values[start:start + rows] = v
        k, v = keys[:start + rows], values[:start + rows]
    a, saved = _attend(q, k, v, layout, n_heads)

    def grad_fn(g: np.ndarray):
        if cache is not None:
            raise ContractError("attention_block has no gradient with a K/V cache: no gradient "
                                "reaches the cached rows; run cached forwards under no_grad")
        dq, dk, dv = _attend_grads(g @ wo.data.T, n_heads, saved)
        dz = dq @ wq.data.T + dk @ wk.data.T + dv @ wv.data.T
        dx, d_norm = _rmsnorm_grads(dz, x.data, norm.data, r, normed)
        return (g + dx, d_norm, *(z.T @ dw if w.requires_grad else None
                                  for w, dw in ((wq, dq), (wk, dk), (wv, dv))),
                a.T @ g if wo.requires_grad else None)

    return _result(x.data + a @ wo.data, (x, norm, wq, wk, wv, wo), grad_fn, "attention_block")


def feed_forward(x: Tensor, w1: Tensor, w2: Tensor, act: str) -> Tensor:
    """A two-layer feed-forward, act(x @ w1) @ w2, in one op; ``act`` is one
    of gelu, relu, silu."""
    if (x.data.ndim != 2 or w1.data.ndim != 2 or w2.data.ndim != 2
            or x.data.shape[1] != w1.data.shape[0] or w1.data.shape[1] != w2.data.shape[0]):
        raise ShapeError(f"feed_forward shapes do not chain: {x.data.shape} @ {w1.data.shape} "
                         f"@ {w2.data.shape}")
    value, local = _activate(x.data @ w1.data, act, _tracked((x, w1)))

    def grad_fn(g: np.ndarray):
        d_w2 = value.T @ g if w2.requires_grad else None
        if local is None:
            return None, None, d_w2
        d_pre = (g @ w2.data.T) * local
        return (d_pre @ w1.data.T if x.requires_grad else None,
                x.data.T @ d_pre if w1.requires_grad else None, d_w2)

    return _result(value @ w2.data, (x, w1, w2), grad_fn, f"feed_forward[{act}]")


def router_gates(x: Tensor, routers: Sequence[Tensor], rows: Sequence) -> Tensor:
    """The softmax gates of several routers over one block, in one (T, N) tensor.

    Router i scores the 1-D row list ``rows[i]`` of ``x``: those gate rows
    are softmax(x[rows[i]] @ routers[i]). The lists cover every row of
    ``x`` exactly once; a lone router may take None, for every row without
    a gather or a check.
    """
    shape = routers[0].data.shape if routers else ()
    if (x.data.ndim != 2 or len(shape) != 2 or shape[0] != x.data.shape[1]
            or any(r.data.shape != shape for r in routers)):
        raise ShapeError(f"router_gates needs a 2-D input and (d, N) routers of one shape, "
                         f"got {x.data.shape} and {[r.data.shape for r in routers]}")
    if len(rows) != len(routers):
        raise ContractError(f"router_gates needs one row list per router, got {len(rows)}")
    n_rows = x.data.shape[0]
    if len(routers) == 1 and rows[0] is None:
        idx, xs = [slice(None)], [x.data]
        logits = x.data @ routers[0].data
    else:
        if any(r is None for r in rows):
            raise ContractError("router_gates takes None rows only for a lone router")
        idx = [integers(r, "router_gates needs integer row lists") for r in rows]
        if any(i.ndim != 1 for i in idx):
            raise ShapeError("router_gates needs 1-D row lists")
        idx = [i.astype(np.int64, copy=False) for i in idx]
        flat = np.concatenate(idx)
        if flat.size and (np.minimum.reduce(flat) < 0 or np.maximum.reduce(flat) >= n_rows):
            raise ContractError(f"router_gates row out of range for {n_rows} rows")
        if not np.array_equal(np.bincount(flat, minlength=n_rows), np.ones(n_rows, dtype=np.int64)):
            raise ContractError(f"router_gates row lists must cover each of {n_rows} rows once")
        xs = [x.data[i] for i in idx]
        logits = np.empty((n_rows, shape[1]))
        for i, xi, router in zip(idx, xs, routers):
            logits[i] = xi @ router.data
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    s = e / np.add.reduce(e, axis=-1, keepdims=True)

    def grad_fn(g: np.ndarray):
        d_logits = (g - np.add.reduce(g * s, axis=-1, keepdims=True)) * s
        d_x = np.zeros_like(x.data) if x.requires_grad else None
        d_routers = []
        for i, xi, router in zip(idx, xs, routers):
            d = d_logits[i]
            d_routers.append(xi.T @ d if router.requires_grad else None)
            if d_x is not None:
                d_x[i] = d @ router.data.T
        return (d_x, *d_routers)

    return _result(s, (x, *routers), grad_fn, "router_gates")


def gate_balance(calls: Sequence[Sequence[tuple]], weights: Sequence) -> Tensor:
    """The routers' gate column sums, weighted and summed, in one op.

    ``calls[r]`` lists router r's (gates, rows) pairs in call order, rows
    None meaning every row. Each pair's column sums ``ones @ gates[rows]``
    are added in call order, multiplied by the constant (1, N)
    ``weights[r]`` and summed; the routers' terms are added in order.
    """
    if len(weights) != len(calls) or not all(calls):
        raise ContractError("gate_balance needs one weight row and at least one call per router")
    parents, spans, terms = [], [], []
    for router_calls, w in zip(calls, weights):
        w = np.asarray(w, dtype=np.float64)
        sums = []
        for gates, rows in router_calls:
            if gates.data.ndim != 2 or w.shape != (1, gates.data.shape[1]):
                raise ShapeError(f"gate_balance needs (T, N) gates and (1, N) weights, "
                                 f"got {gates.data.shape} and {w.shape}")
            picked = gates.data if rows is None else gates.data[rows]
            sums.append(np.ones((1, picked.shape[0])) @ picked)
            parents.append(gates)
            spans.append((slice(None) if rows is None else rows, w))
        terms.append(np.add.reduce(sum(sums[1:], sums[0]) * w, axis=None))

    def grad_fn(g: np.ndarray):
        grads = [np.zeros_like(gates.data) for gates in parents]
        for d, (rows, w) in zip(grads, spans):
            d[rows] = g * w
        return grads

    return _result(np.array(sum(terms[1:], terms[0])), tuple(parents), grad_fn, "gate_balance")


def adapter_mixture(base: Tensor, gates: Tensor, chosen, w_downs: Sequence[Tensor],
                    w_ups: Sequence[Tensor], act: str, renorm_mask=None, scale: float = 1.0,
                    skip: Tensor | None = None) -> Tensor:
    """The chosen adapters of one or more routers, weighted by their gates, in one op.

    Row t of the (T, d) ``base`` goes to the k experts ``chosen[t]``, a
    (T, k) integer array. The experts come in blocks of N =
    ``gates.shape[1]``, one block per router, and expert e reads gate column
    e % N: the pair (t, e) weighs ``gates[t, e % N]``, divided by row t's
    total gate over the 0/1 ``renorm_mask`` when given. The op sorts the
    pairs by expert, stably, so that expert e runs act(base[rows] @
    w_downs[e]) @ w_ups[e] once over the rows that chose it; one activation
    call covers every pair. Each row adds its weighted pairs in pair order
    onto zeros (one ``np.bincount`` over the (row, column) cells, the bits
    of ``np.add.at``), the sum is multiplied by ``scale``, and with
    ``skip`` the op returns skip + that: the mixture carries updates only,
    and the caller's ``skip`` carries the residual. An expert no row chose
    does no work, and its weights get no gradient: None, not zeros. The
    experts share one rank r.
    """
    ids = integers(chosen, "adapter_mixture needs integer expert ids")
    n, shape = len(w_downs), base.data.shape
    width = gates.data.shape[1] if gates.data.ndim == 2 else 0
    if (len(shape) != 2 or gates.data.shape != (shape[0], width) or width == 0 or n % width):
        raise ShapeError(f"adapter_mixture needs a (T, d) base and (T, N) gates with N dividing "
                         f"the {n} experts, got {shape} and {gates.data.shape}")
    if ids.ndim != 2 or ids.shape[0] != shape[0] or ids.shape[1] == 0:
        raise ShapeError(f"adapter_mixture needs ({shape[0]}, k) integer expert ids, got "
                         f"shape {ids.shape}")
    if n == 0 or len(w_ups) != n:
        raise ContractError(f"adapter_mixture needs one up per down projection, got {n} and {len(w_ups)}")
    if ids.size and (np.minimum.reduce(ids, axis=None) < 0 or np.maximum.reduce(ids, axis=None) >= n):
        raise ContractError(f"adapter_mixture expert id out of range for {n} experts")
    d = shape[1]
    rank = w_downs[0].data.shape[-1]
    for w_down, w_up in zip(w_downs, w_ups):
        if w_down.data.shape != (d, rank) or w_up.data.shape != (rank, d):
            raise ShapeError(f"adapter_mixture needs ({d}, r) and (r, {d}) projections of one "
                             f"rank, got {w_down.data.shape} and {w_up.data.shape}")
    check_activation(act)
    if skip is not None and skip.data.shape != shape:
        raise ShapeError(f"adapter_mixture skip must match the base {shape}, got {skip.data.shape}")
    flat = ids.ravel()
    order = flat.argsort(kind="stable")
    idx = order // ids.shape[1]  # each pair's row, pairs sorted by expert
    experts = flat[order]
    cols = experts if width == n else experts % width
    weight = pair_gate = gates.data[idx, cols]
    if renorm_mask is not None:
        mask = np.asarray(renorm_mask, dtype=np.float64)
        if mask.shape != gates.data.shape:
            raise ShapeError(f"adapter_mixture renorm mask must be {gates.data.shape}, got {mask.shape}")
        totals = (gates.data * mask) @ np.ones((width, 1))
        if np.logical_or.reduce(np.abs(totals) < 1e-300, axis=None):
            raise NumericError("adapter_mixture cannot renormalise a (near-)zero gate total")
        inverse = 1.0 / totals
        weight = pair_gate * inverse[idx, 0]
    parents = (base, gates, *w_downs, *w_ups, *(() if skip is None else (skip,)))
    counts = np.bincount(flat, minlength=n)
    ends = counts.cumsum().tolist()
    spans = [(e, hi - c, hi) for e, (c, hi) in enumerate(zip(counts.tolist(), ends)) if c]
    xs = base.data[idx]
    pre = np.empty((flat.size, rank))
    for e, lo, hi in spans:
        pre[lo:hi] = xs[lo:hi] @ w_downs[e].data
    value, local = _activate(pre, act, _tracked(parents))
    out = np.empty((flat.size, d))
    for e, lo, hi in spans:
        out[lo:hi] = value[lo:hi] @ w_ups[e].data
    # bincount adds each cell's values in pair order onto zero, as np.add.at does.
    cells = (idx[:, None] * d + np.arange(d)).ravel()

    def to_rows(values: np.ndarray) -> np.ndarray:
        return np.bincount(cells, values.ravel(), base.data.size).reshape(shape)

    data = to_rows(out * weight[:, None])
    if scale != 1.0:
        data = data * scale

    def grad_fn(g: np.ndarray):
        g_pairs = (g * scale if scale != 1.0 else g)[idx]
        d_out = g_pairs * weight[:, None]
        d_gates = d_base = None
        if gates.requires_grad:
            # A row may read one gate column from two blocks: its cell adds both.
            d_weight = np.add.reduce(g_pairs * out, axis=1)
            d_gates = np.bincount(idx * width + cols, d_weight if renorm_mask is None
                                  else d_weight * inverse[idx, 0], gates.data.size)
            d_gates = d_gates.reshape(gates.data.shape)
            if renorm_mask is not None:
                d_inverse = np.bincount(idx, d_weight * pair_gate, shape[0])[:, None]
                d_gates = d_gates + (-d_inverse * inverse * inverse) * mask
        d_downs, d_ups = [None] * n, [None] * n
        d_value = np.empty_like(pre)
        for e, lo, hi in spans:
            d_ups[e] = value[lo:hi].T @ d_out[lo:hi]
            d_value[lo:hi] = d_out[lo:hi] @ w_ups[e].data.T
        d_pre = d_value * local
        d_rows = np.empty_like(d_out) if base.requires_grad else None
        for e, lo, hi in spans:
            d_downs[e] = xs[lo:hi].T @ d_pre[lo:hi]
            if d_rows is not None:
                d_rows[lo:hi] = d_pre[lo:hi] @ w_downs[e].data.T
        if d_rows is not None:
            d_base = to_rows(d_rows)
        return (d_base, d_gates, *d_downs, *d_ups, *(() if skip is None else (g,)))

    return _result(data if skip is None else skip.data + data, parents, grad_fn,
                   f"adapter_mixture[{act}]")
