"""The fused ops against the op chains they replace: ``attention_block``
against rmsnorm, projections, attention, projection and residual as
separate ops, ``feed_forward`` against matmul, activation and matmul,
``embed_tokens`` against two row gathers and an add, ``output_head``
against rmsnorm and matmul, ``attention`` against one
matmul-softmax-matmul chain per head, ``adapter_mixture`` against one
gather-matmul-activation-matmul chain per expert with the weighting and
the scatter back to rows spelled out in plain ops, and against the pair
contract it replaced, ``router_gates`` against one gather-matmul-softmax
chain per router, and ``gate_balance`` against ones-matmul column sums
added, weighted and summed."""

import numpy as np
import pytest

from conftest import (activation, attention, attention_chain, cached_mask, chosen_pairs,
                      concat_rows, feed_forward_chain, matmul, packed_mask, pair_mixture, rmsnorm,
                      softmax, take_rows)
from moce import tensor
from moce.errors import ContractError, NumericError, ShapeError
from moce.tensor import (
    Tensor,
    adapter_mixture,
    add,
    attention_block,
    backward,
    embed_tokens,
    feed_forward,
    gate_balance,
    masked_cross_entropy,
    mul,
    no_grad,
    output_head,
    router_gates,
    tensor_sum,
)

def per_head_attention(arrays, mask, weight, n_heads):
    """Reference: each head on its own leaves q_h, k_h^T and v_h, sliced in
    numpy. Yields each head's columns, its output, and the gradients of
    sum(out_h * weight_h) with respect to q_h, k_h and v_h."""
    q, k, v = arrays
    d_head = q.shape[1] // n_heads
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        q_h, k_ht, v_h = (Tensor(a, requires_grad=True) for a in (q[:, cols], k[:, cols].T, v[:, cols]))
        scores = add(mul(matmul(q_h, k_ht), d_head ** -0.5), Tensor(mask))
        out = matmul(softmax(scores, axis=-1), v_h)
        backward(tensor_sum(mul(out, Tensor(weight[:, cols]))))
        yield cols, out.data, [q_h.grad, k_ht.grad.T, v_h.grad]


def reciprocal(a):
    """Elementwise 1/x, a test-local op for the renormalisation reference."""
    inv = 1.0 / a.data
    return tensor._result(inv, (a,), lambda g: (-g * inv * inv,), "reciprocal")


def per_expert_chain(base, gates, tokens, rows, bounds, w_downs, w_ups, act, n_rows,
                     renorm_mask=None, scale=1.0, skip=None):
    """Reference: each expert with rows gathers them and runs its own chain;
    constant 0/1 matrices pick each pair's gate; each result row adds its
    pairs one at a time onto zeros, in pair order; ``skip`` is then added
    by ``add``."""
    outputs = []
    for e, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            h = activation(matmul(take_rows(base, rows[lo:hi]), w_downs[e]), act)
            outputs.append(matmul(h, w_ups[e]))
    out = concat_rows(outputs)
    n, d = len(w_downs), base.shape[1]
    pick = Tensor(np.eye(n)[np.repeat(np.arange(n), np.diff(bounds))])
    weight = matmul(mul(take_rows(gates, tokens), pick), Tensor(np.ones((n, 1))))
    if renorm_mask is not None:
        totals = matmul(mul(gates, Tensor(renorm_mask)), Tensor(np.ones((n, 1))))
        weight = mul(weight, take_rows(reciprocal(totals), tokens))
    weighted = mul(out, matmul(weight, Tensor(np.ones((1, d)))))
    result = []
    for r in range(n_rows):
        acc = Tensor(np.zeros((1, d)))
        for i in np.flatnonzero(rows == r):
            acc = add(acc, take_rows(weighted, [i]))
        result.append(acc)
    result = concat_rows(result)
    result = mul(result, scale) if scale != 1.0 else result
    return result if skip is None else add(skip, result)


def run(fn, arrays, weight, frozen=()):
    """Forward ``fn`` on fresh leaves, back-propagate sum(out * weight), and
    return the output with every leaf's gradient; the leaves whose index is
    in ``frozen`` take no gradient."""
    leaves = [Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
    out = fn(leaves)
    backward(tensor_sum(mul(out, Tensor(weight))))
    return out.data, [leaf.grad for leaf in leaves]


def assert_same_bytes(fused, fused_grads, ref, ref_grads):
    assert fused.tobytes() == ref.tobytes()
    for got, want in zip(fused_grads, ref_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()


def assert_close(fused, fused_grads, ref, ref_grads, tol=1e-12):
    assert np.max(np.abs(fused - ref)) < tol
    for got, want in zip(fused_grads, ref_grads):
        assert (got is None) == (want is None)
        if got is not None:
            assert np.max(np.abs(got - want)) < tol


@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("frozen", [(), (1, 2, 3, 4, 5)], ids=["dense", "frozen"])
def test_attention_block_matches_its_chain(n_heads, frozen):
    """``attention_block`` on sequence lengths against its op chain under
    the block-diagonal mask: one sequence and sequences of mixed lengths
    byte for byte, the output, x's gradient and with every weight
    trainable each weight's gradient; two or three packed sequences of
    one length within 1e-12."""
    rng = np.random.default_rng(n_heads + len(frozen))
    d = 4 * n_heads
    for trial in range(9):
        lengths = rng.integers(1, 6, size=1 + trial % 3)
        if trial % 2:
            lengths[:] = lengths[0]
        mask = packed_mask(lengths)
        rows = int(lengths.sum())
        arrays = ([rng.standard_normal((rows, d)), rng.random(d) + 0.5]
                  + [rng.standard_normal((d, d)) * d ** -0.5 for _ in range(4)])
        weight = rng.standard_normal((rows, d))
        fused = run(lambda p: attention_block(*p, lengths, n_heads), arrays, weight, frozen)
        ref = run(lambda p: attention_chain(*p, mask, n_heads), arrays, weight, frozen)
        if lengths.size > 1 and np.logical_and.reduce(lengths == lengths[0]):
            assert_close(*fused, *ref)
        else:
            assert_same_bytes(*fused, *ref)


@pytest.mark.parametrize("n_heads", [1, 2, 3])
def test_attention_block_with_a_cache_matches_its_chain(n_heads):
    """A prompt read into the K/V cache, then steps of one to three rows,
    give the bytes of the op chain whose K and V grow by ``concat_rows``
    under the causal mask of the cached rows; the buffers hold the keys
    and values of every row read."""
    rng = np.random.default_rng(20 + n_heads)
    d, capacity = 4 * n_heads, 14
    for _ in range(3):
        weights = ([Tensor(rng.random(d) + 0.5)]
                   + [Tensor(rng.standard_normal((d, d)) * d ** -0.5) for _ in range(4)])
        keys, values = np.zeros((capacity, d)), np.zeros((capacity, d))
        store = {}
        start = 0
        while start < capacity:
            rows = min(capacity - start, int(rng.integers(1, 4)) if start else int(rng.integers(1, 6)))
            x = Tensor(rng.standard_normal((rows, d)))
            with no_grad():
                got = attention_block(x, *weights, [rows], n_heads, (keys, values, start))
                want = attention_chain(x, *weights, cached_mask(rows, start), n_heads, store)
            assert got.data.tobytes() == want.data.tobytes()
            start += rows
        assert keys.tobytes() == store["k"].data.tobytes()
        assert values.tobytes() == store["v"].data.tobytes()


def test_attention_scores_hold_each_sequence_alone(monkeypatch):
    """The score array of a block of B sequences of one length L holds
    heads x B x L^2 entries, not heads x T^2 for its T rows; a block of
    mixed lengths holds heads x T^2, as under the block-diagonal mask."""
    sizes = []
    attend = tensor._attend

    def spy(*args):
        out, saved = attend(*args)
        sizes.append(saved[3].size)
        return out, saved

    monkeypatch.setattr(tensor, "_attend", spy)
    rng = np.random.default_rng(0)
    heads, d = 2, 4
    weights = [Tensor(np.ones(d))] + [Tensor(rng.standard_normal((d, d))) for _ in range(4)]
    for lengths in ([8] * 8, [3, 3], [1, 1, 1], [6], [5, 2, 4], [40, 4, 4, 4, 4, 4]):
        rows = sum(lengths)
        attention_block(Tensor(rng.standard_normal((rows, d))), *weights, lengths, heads)
        if len(set(lengths)) == 1:
            assert sizes.pop() == heads * sum(n * n for n in lengths)
        else:
            assert sizes.pop() == heads * rows * rows


@pytest.mark.parametrize("act", ["gelu", "relu", "silu"])
def test_feed_forward_matches_its_chain(act):
    """``feed_forward`` equals matmul, activation and matmul byte for byte:
    the output and every gradient, with trainable and with frozen weights."""
    rng = np.random.default_rng(len(act))
    for trial in range(6):
        rows, d, hidden = int(rng.integers(1, 9)), 5, 7
        arrays = [rng.standard_normal((rows, d)), rng.standard_normal((d, hidden)),
                  rng.standard_normal((hidden, d))]
        weight = rng.standard_normal((rows, d))
        frozen = [(), (1, 2), (0,)][trial % 3]
        fused = run(lambda p: feed_forward(*p, act), arrays, weight, frozen)
        ref = run(lambda p: feed_forward_chain(*p, act), arrays, weight, frozen)
        assert_same_bytes(*fused, *ref)


@pytest.mark.parametrize("frozen", [(), (0,), (1,)], ids=["both", "positions", "tokens"])
def test_embed_tokens_matches_its_chain(frozen):
    """``embed_tokens`` equals two ``take_rows`` and an ``add`` byte for
    byte: the rows, and each table's gradient with repeated ids, also with
    one table frozen."""
    rng = np.random.default_rng(len(frozen) + sum(frozen))
    for _ in range(6):
        vocab, n_pos, d, rows = 7, 6, 4, int(rng.integers(1, 9))
        ids, positions = rng.integers(0, vocab, size=rows), rng.integers(0, n_pos, size=rows)
        arrays = [rng.standard_normal((vocab, d)), rng.standard_normal((n_pos, d))]
        weight = rng.standard_normal((rows, d))
        fused = run(lambda p: embed_tokens(p[0], p[1], ids, positions), arrays, weight, frozen)
        ref = run(lambda p: add(take_rows(p[0], ids), take_rows(p[1], positions)), arrays, weight,
                  frozen)
        assert_same_bytes(*fused, *ref)


@pytest.mark.parametrize("frozen", [(), (1, 2)], ids=["dense", "frozen"])
def test_output_head_matches_its_chain(frozen):
    """``output_head`` equals ``rmsnorm`` then ``matmul`` byte for byte: the
    logits and every gradient, with the norm and head trainable or frozen."""
    rng = np.random.default_rng(3 + len(frozen))
    for _ in range(6):
        rows, d, vocab = int(rng.integers(1, 9)), 5, 7
        arrays = [rng.standard_normal((rows, d)), rng.random(d) + 0.5,
                  rng.standard_normal((d, vocab))]
        weight = rng.standard_normal((rows, vocab))
        fused = run(lambda p: output_head(*p), arrays, weight, frozen)
        ref = run(lambda p: matmul(rmsnorm(p[0], p[1]), p[2]), arrays, weight, frozen)
        assert_same_bytes(*fused, *ref)


@pytest.mark.parametrize("case", ["soft", "renormalize", "skip", "groups"])
def test_adapter_mixture_matches_the_pair_contract(case):
    """The mixture on each row's chosen experts equals ``pair_mixture``, the
    op on the pairs sorted by expert, with the skip added by ``add``, byte
    for byte: the output and every gradient. Soft routing (every expert,
    in gate order), renormalised and scaled top-2, a skip, and three
    routers' expert blocks."""
    rng = np.random.default_rng(len(case))
    n, d, rank = 4, 5, 3
    blocks = 3 if case == "groups" else 1
    experts = n * blocks
    for trial in range(6):
        rows = int(rng.integers(1, 9))
        gates = rng.random((rows, n)) + 0.5
        k = n if case == "soft" else 2
        order = np.argsort(-gates, axis=1, kind="stable")[:, :k]
        chosen = order + n * rng.integers(0, blocks, size=(rows, 1))
        mask = np.zeros((rows, n))
        np.put_along_axis(mask, order, 1.0, axis=1)
        options = {"renormalize": {"renorm_mask": mask, "scale": 0.5}}.get(case, {})
        extra = int(case == "skip")
        arrays = ([rng.standard_normal((rows, d)), gates]
                  + [rng.standard_normal((d, rank)) for _ in range(experts)]
                  + [rng.standard_normal((rank, d)) for _ in range(experts)]
                  + [rng.standard_normal((rows, d)) for _ in range(extra)])
        weight = rng.standard_normal((rows, d))
        pair_rows, bounds = chosen_pairs(chosen, experts)

        def fused(p):
            skip = p[2 + 2 * experts] if extra else None
            return adapter_mixture(p[0], p[1], chosen, p[2:2 + experts],
                                   p[2 + experts:2 + 2 * experts], "gelu", skip=skip, **options)

        def reference(p):
            out = pair_mixture(p[0], p[1], pair_rows, pair_rows, bounds, p[2:2 + experts],
                               p[2 + experts:2 + 2 * experts], "gelu", rows, **options)
            return add(p[2 + 2 * experts], out) if extra else out

        assert_same_bytes(*run(fused, arrays, weight), *run(reference, arrays, weight))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", ["plain", "renormalize", "shared-column"])
def test_adapter_mixture_sums_rows_as_np_add_at(k, case):
    """Each row's pairs added in pair order onto zeros give the bits of
    ``pair_mixture``'s ``np.add.at``: the output and every gradient. Rows
    take k pairs; one row picks one expert twice, and in "shared-column"
    rows pick experts c and c + N of two router blocks, which share gate
    column c, so gate gradients sum repeated (row, column) cells."""
    rng = np.random.default_rng(10 * k + len(case))
    n, blocks, d, rank, n_rows = 3, 2, 5, 2, 7
    experts = n * blocks
    for trial in range(4):
        chosen = chosen_ids(rng, n_rows, np.arange(experts), k)
        if k > 1:
            chosen[1, 1] = chosen[1, 0]
        if case == "shared-column" and k > 1:
            for row in range(2, n_rows):
                c = int(rng.integers(n))
                chosen[row, :2] = (c, c + n) if row % 2 else (c + n, c)
        mask = np.zeros((n_rows, n))
        np.put_along_axis(mask, chosen % n, 1.0, axis=1)
        options = {"renormalize": {"renorm_mask": mask, "scale": 0.5}}.get(case, {})
        arrays = ([rng.standard_normal((n_rows, d)), rng.random((n_rows, n)) + 0.5]
                  + [rng.standard_normal((d, rank)) for _ in range(experts)]
                  + [rng.standard_normal((rank, d)) for _ in range(experts)])
        weight = rng.standard_normal((n_rows, d))
        pair_rows, bounds = chosen_pairs(chosen, experts)

        def split(p):
            return p[2:2 + experts], p[2 + experts:2 + 2 * experts], "gelu", options

        def fused(p):
            downs, ups, act, kwargs = split(p)
            return adapter_mixture(p[0], p[1], chosen, downs, ups, act, **kwargs)

        def reference(p):
            downs, ups, act, kwargs = split(p)
            return pair_mixture(p[0], p[1], pair_rows, pair_rows, bounds, downs, ups, act, n_rows,
                                **kwargs)

        assert_same_bytes(*run(fused, arrays, weight), *run(reference, arrays, weight))


def test_adapter_mixture_calls_the_activation_once(monkeypatch):
    """One ``_activate`` call covers every pair of every chosen expert."""
    rng = np.random.default_rng(2)
    calls = []
    activate = tensor._activate

    def spy(x, kind, need):
        calls.append(x.shape)
        return activate(x, kind, need)

    monkeypatch.setattr(tensor, "_activate", spy)
    n_rows, d, rank, experts = 6, 4, 3, 5
    chosen = chosen_ids(rng, n_rows, np.arange(experts), 2)
    downs = [Tensor(rng.standard_normal((d, rank)), requires_grad=True) for _ in range(experts)]
    ups = [Tensor(rng.standard_normal((rank, d)), requires_grad=True) for _ in range(experts)]
    out = adapter_mixture(Tensor(rng.standard_normal((n_rows, d))),
                          Tensor(rng.random((n_rows, experts))), chosen, downs, ups, "silu")
    assert calls == [(chosen.size, rank)]
    backward(tensor_sum(out))
    assert len(calls) == 1


def test_feed_forward_checks_its_inputs():
    x = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="do not chain"):
        feed_forward(x, Tensor(np.ones((4, 5))), Tensor(np.ones((5, 3))), "gelu")
    with pytest.raises(ShapeError, match="do not chain"):
        feed_forward(x, Tensor(np.ones((3, 5))), Tensor(np.ones((4, 3))), "gelu")
    with pytest.raises(ContractError, match="unknown activation"):
        feed_forward(x, Tensor(np.ones((3, 5))), Tensor(np.ones((5, 3))), "tanh")


def engine_attention(q, k, v, lengths, start, n_heads):
    """The engine's attention per sequence as a test-local op: the (T, d)
    queries of sequences of ``lengths``, over their own keys and values,
    with ``start`` cached rows of one sequence first."""
    layout = tensor._layout(np.array(lengths), sum(lengths), start)
    out, saved = tensor._attend(q.data, k.data, v.data, layout, n_heads)
    return tensor._result(out, (q, k, v), lambda g: tensor._attend_grads(g, n_heads, saved),
                          "engine_attention")


@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("shape", ["packed", "cached"])
def test_attention_matches_per_head_reference(n_heads, shape):
    """The block-diagonal reference ``attention`` and the engine's attention
    per sequence each agree with one matmul-softmax-matmul chain per head
    within 1e-12: the output and the q, k and v gradients, over packed
    sequences of mixed lengths and over rows after cached ones."""
    rng = np.random.default_rng(10 * n_heads + len(shape))
    d = 4 * n_heads
    for _ in range(5):
        if shape == "packed":
            lengths = rng.integers(1, 6, size=3).tolist()
            mask, start = packed_mask(lengths), 0
            rows = keys = sum(lengths)
        else:
            rows, start = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            mask, lengths = cached_mask(rows, start), [rows]
            keys = rows + start
        arrays = [rng.standard_normal((rows, d)), rng.standard_normal((keys, d)),
                  rng.standard_normal((keys, d))]
        weight = rng.standard_normal((rows, d))
        for op in (lambda p: attention(p[0], p[1], p[2], mask, n_heads),
                   lambda p: engine_attention(p[0], p[1], p[2], lengths, start, n_heads)):
            fused, fused_grads = run(op, arrays, weight)
            for cols, ref, ref_grads in per_head_attention(arrays, mask, weight, n_heads):
                assert np.max(np.abs(fused[:, cols] - ref)) < 1e-12
                for got, want in zip(fused_grads, ref_grads):
                    assert np.max(np.abs(got[:, cols] - want)) < 1e-12


def chosen_ids(rng, n_rows, experts, k):
    """(n_rows, k) expert ids, k distinct ones from ``experts`` per row."""
    return np.array([rng.permutation(experts)[:k] for _ in range(n_rows)])


@pytest.mark.parametrize("act", ["gelu", "relu", "silu"])
def test_adapter_bank_matches_per_expert_chain(act):
    """``adapter_mixture`` equals the reference bit for bit, with gradients
    within 1e-12: an idle expert, rows that choose one to three experts,
    plain, renormalised and scaled, and with a skip."""
    rng = np.random.default_rng(len(act))
    n_experts, d, rank, n_rows = 4, 6, 3, 5
    for trial in range(6):
        idle = int(rng.integers(n_experts))
        chosen = chosen_ids(rng, n_rows, [e for e in range(n_experts) if e != idle],
                            1 + (trial // 2) % 3)
        rows, bounds = chosen_pairs(chosen, n_experts)
        mask = np.zeros((n_rows, n_experts))
        np.put_along_axis(mask, chosen, 1.0, axis=1)
        options = [{}, {"renorm_mask": mask, "scale": 0.5}, {"skip": True}][trial % 3]
        arrays = ([rng.standard_normal((n_rows, d)), rng.random((n_rows, n_experts)) + 0.5]
                  + [rng.standard_normal((d, rank)) for _ in range(n_experts)]
                  + [rng.standard_normal((rank, d)) for _ in range(n_experts)]
                  + ([rng.standard_normal((n_rows, d))] if options.get("skip") else []))
        weight = rng.standard_normal((n_rows, d))

        def call(fn, pairs):
            def build(p):
                kwargs = dict(options, skip=p[-1]) if "skip" in options else options
                experts = (p[2:2 + n_experts], p[2 + n_experts:2 + 2 * n_experts], act)
                if pairs:
                    return fn(p[0], p[1], rows, rows, bounds, *experts, n_rows, **kwargs)
                return fn(p[0], p[1], chosen, *experts, **kwargs)
            return build

        fused, fused_grads = run(call(adapter_mixture, False), arrays, weight)
        ref, ref_grads = run(call(per_expert_chain, True), arrays, weight)
        assert np.array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.max(np.abs(got - want)) < 1e-12


def partition(rng, n_rows, parts):
    """A random split of range(n_rows) into ``parts`` ascending row lists."""
    owner = rng.integers(0, parts, size=n_rows)
    return [np.flatnonzero(owner == i) for i in range(parts)]


def test_router_gates_matches_per_router_chain():
    """Each router's gate rows equal take_rows, matmul and softmax over its
    rows bit for bit, the lone router's matmul and softmax over all rows;
    gradients within 1e-12."""
    rng = np.random.default_rng(4)
    for trial in range(12):
        parts = 1 + trial % 3
        n_rows, d, n = int(rng.integers(1, 9)), 5, int(rng.integers(1, 5))
        rows = [None] if trial % 6 == 0 else partition(rng, n_rows, parts)
        parts = len(rows)
        arrays = [rng.standard_normal((n_rows, d))] + [rng.standard_normal((d, n))
                                                       for _ in range(parts)]
        weight = rng.standard_normal((n_rows, n))
        fused, fused_grads = run(lambda p: router_gates(p[0], p[1:], rows), arrays, weight)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        parts_out = []
        for i, r in enumerate(rows):
            inputs = leaves[0] if r is None else take_rows(leaves[0], r)
            gates = softmax(matmul(inputs, leaves[1 + i]))
            parts_out.append(tensor_sum(mul(gates, Tensor(weight if r is None else weight[r]))))
            assert gates.data.tobytes() == (fused if r is None else fused[r]).tobytes()
        total = parts_out[0]
        for extra in parts_out[1:]:
            total = add(total, extra)
        backward(total)
        for got, leaf in zip(fused_grads, leaves):
            assert np.max(np.abs(got - leaf.grad)) < 1e-12


def test_gate_balance_matches_ones_matmul_chain():
    """One router over a block's rows and over a whole tensor, a second
    over the block's other rows: the value is the ones-matmul chain's bit
    for bit, and the gradients agree within 1e-12."""
    rng = np.random.default_rng(8)
    for _ in range(10):
        n_rows, n = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        first, second = partition(rng, n_rows, 2)
        arrays = [rng.random((n_rows, n)), rng.random((int(rng.integers(1, 5)), n))]
        weights = [rng.random((1, n)) * 2.0, rng.random((1, n)) * 2.0]

        def calls(p):
            return [[(p[0], first), (p[1], None)], [(p[0], second)]]

        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        fused = gate_balance(calls(leaves), weights)
        backward(fused)
        fused_grads = [leaf.grad for leaf in leaves]
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        total = None
        for router_calls, w in zip(calls(leaves), weights):
            prob_sum = None
            for gates, rows in router_calls:
                picked = gates if rows is None else take_rows(gates, rows)
                part = matmul(Tensor(np.ones((1, picked.shape[0]))), picked)
                prob_sum = part if prob_sum is None else add(prob_sum, part)
            term = tensor_sum(mul(prob_sum, Tensor(w)))
            total = term if total is None else add(total, term)
        backward(total)
        assert fused.data.tobytes() == total.data.tobytes()
        for got, leaf in zip(fused_grads, leaves):
            assert np.max(np.abs(got - leaf.grad)) < 1e-12


@pytest.mark.parametrize("blocks", [2, 3])
def test_adapter_mixture_reads_one_gate_block_per_router(blocks):
    """With ``blocks`` routers' experts and (T, N) gates, expert e reads gate
    column e % N: the value equals the per-expert reference on the gates
    tiled across the blocks bit for bit, gradients within 1e-12."""
    rng = np.random.default_rng(blocks)
    n, d, rank, n_rows = 3, 5, 2, 6
    experts = n * blocks
    for trial in range(6):
        chosen = chosen_ids(rng, n_rows, np.arange(experts), 2)
        rows, bounds = chosen_pairs(chosen, experts)
        options = [{}, {"scale": 0.5}, {"skip": True}][trial % 3]
        arrays = ([rng.standard_normal((n_rows, d)), rng.random((n_rows, n)) + 0.5]
                  + [rng.standard_normal((d, rank)) for _ in range(experts)]
                  + [rng.standard_normal((rank, d)) for _ in range(experts)]
                  + ([rng.standard_normal((n_rows, d))] if options.get("skip") else []))
        weight = rng.standard_normal((n_rows, d))
        tile = Tensor(np.tile(np.eye(n), blocks))

        def call(fn, tiled):
            def build(p):
                kwargs = dict(options, skip=p[-1]) if "skip" in options else options
                weights = (p[2:2 + experts], p[2 + experts:2 + 2 * experts], "gelu")
                if tiled:
                    return fn(p[0], matmul(p[1], tile), rows, rows, bounds, *weights, n_rows,
                              **kwargs)
                return fn(p[0], p[1], chosen, *weights, **kwargs)
            return build

        fused, fused_grads = run(call(adapter_mixture, False), arrays, weight)
        ref, ref_grads = run(call(per_expert_chain, True), arrays, weight)
        assert np.array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.max(np.abs(got - want)) < 1e-12


def test_router_gates_rejects_float_and_boolean_row_lists():
    """Float row lists would be truncated ([[0.2, 1.9], [2.5, 3.0]] read as
    rows [0, 1] and [2, 3]) and booleans read as rows 0 and 1."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)))
    r = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    for rows in ([[0.2, 1.9], [2.5, 3.0]], [np.array([0.0, 1.0]), [2, 3]],
                 [[True, False], [2, 3]]):
        with pytest.raises(ContractError, match="integer row lists"):
            router_gates(x, r, rows)
    unsigned = router_gates(x, r, [np.array([0, 1], dtype=np.uint32), [2, 3]])
    assert unsigned.data.tobytes() == router_gates(x, r, [[0, 1], [2, 3]]).data.tobytes()


def _mixed_integer_calls(flag):
    """One call of each op that takes integer lists, with ``flag`` in a
    list, or in a nested list, where the integer 1 would run."""
    rng = np.random.default_rng(0)
    x, logits = Tensor(rng.standard_normal((3, 4))), Tensor(np.zeros((2, 4)))
    routers = [Tensor(rng.standard_normal((4, 2))) for _ in range(2)]
    tok, pos = Tensor(np.ones((5, 4))), Tensor(np.ones((3, 4)))
    gates = Tensor(rng.random((2, 2)) + 0.5)
    downs = [Tensor(rng.standard_normal((4, 2))) for _ in range(2)]
    ups = [Tensor(rng.standard_normal((2, 4))) for _ in range(2)]
    return {
        "masked_cross_entropy": [
            (lambda: masked_cross_entropy(logits, [2, flag], [1.0, 1.0]), "integer targets")],
        "router_gates": [
            (lambda: router_gates(x, routers, [[2, flag], [0]]), "integer row lists")],
        "embed_tokens": [
            (lambda: embed_tokens(tok, pos, [2, flag], [0, 1]), "integer ids"),
            (lambda: embed_tokens(tok, pos, [0, 1], [2, flag]), "integer positions")],
        "adapter_mixture": [
            (lambda: adapter_mixture(Tensor(x.data[:2]), gates, [[0], [flag]], downs, ups,
                                     "gelu"), "integer expert ids")],
    }


@pytest.mark.parametrize("op", ["masked_cross_entropy", "router_gates", "embed_tokens",
                                "adapter_mixture"])
def test_a_boolean_among_integers_raises(op):
    """numpy reads [2, True] as an int64 array, so a dtype test alone ran
    it as [2, 1]. Each op now raises ContractError before any arithmetic,
    and the same call with the integer 1 runs."""
    for flag in (True, np.bool_(True)):
        for call, what in _mixed_integer_calls(flag)[op]:
            with pytest.raises(ContractError, match=f"{what}, got a boolean among them"):
                call()
    for call, _ in _mixed_integer_calls(1)[op]:
        call()


def test_router_gates_and_gate_balance_check_their_inputs():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)))
    r = [Tensor(rng.standard_normal((3, 2))) for _ in range(2)]
    with pytest.raises(ContractError, match="once"):
        router_gates(x, r, [[0, 1, 2], [2, 3]])
    with pytest.raises(ContractError, match="once"):
        router_gates(x, r, [[0, 1], [3]])
    with pytest.raises(ContractError, match="out of range"):
        router_gates(x, r, [[0, 1], [2, 3, 4]])
    with pytest.raises(ContractError, match="lone router"):
        router_gates(x, r, [None, [0, 1, 2, 3]])
    with pytest.raises(ShapeError, match="routers of one shape"):
        router_gates(x, [r[0], Tensor(np.ones((3, 3)))], [[0, 1], [2, 3]])
    with pytest.raises(ShapeError, match="routers of one shape"):
        router_gates(x, [Tensor(np.ones((2, 2)))], [None])
    with pytest.raises(ContractError, match="one row list per router"):
        router_gates(x, r, [None])
    with pytest.raises(ShapeError, match="1-D"):
        router_gates(x, r, [[[0, 1]], [2, 3]])
    gates = Tensor(rng.random((4, 2)))
    with pytest.raises(ShapeError, match="weights"):
        gate_balance([[(gates, None)]], [np.ones((1, 3))])
    with pytest.raises(ContractError, match="one call"):
        gate_balance([[]], [np.ones((1, 2))])
    with pytest.raises(ContractError, match="one weight row"):
        gate_balance([[(gates, None)]], [])


def test_attention_checks_its_inputs():
    """``attention_block`` rejects sequence lengths that are not a 1-D
    integer list, hold a length below 1 or do not sum to the rows, a head
    count that does not divide d, a norm or a projection of the wrong
    shape, rows past the end of the cache buffers and a cache given more
    than one sequence; a rejected call writes no cache row."""
    rng = np.random.default_rng(0)
    x, norm = Tensor(rng.standard_normal((2, 4))), Tensor(np.ones(4))
    ws = [Tensor(rng.standard_normal((4, 4))) for _ in range(4)]

    def block(lengths=(2,), n_heads=2, cache=None, norm=norm, ws=ws):
        return attention_block(x, norm, *ws, lengths, n_heads, cache)

    with pytest.raises(ShapeError, match="sum to 3, not the 2 rows"):
        block(lengths=[1, 2])
    with pytest.raises(ShapeError, match="sum to 1000001, not the 2 rows"):
        block(lengths=[1, 10 ** 6])  # raised before any (T, T) mask is built
    with pytest.raises(ShapeError, match="not the 2 rows"):
        block(lengths=[2 ** 62] * 4 + [2])  # wraps to 2 in int64
    with pytest.raises(ContractError, match="positive sequence lengths"):
        block(lengths=[2, 0])
    with pytest.raises(ContractError, match="positive sequence lengths"):
        block(lengths=[3, -1])
    with pytest.raises(ContractError, match="1-D integer"):
        block(lengths=[1.0, 1.0])
    with pytest.raises(ContractError, match="1-D integer"):
        block(lengths=[True, True])
    with pytest.raises(ContractError, match="1-D integer"):
        block(lengths=[[2]])
    with pytest.raises(ContractError, match="1-D integer"):
        block(lengths=[])
    with pytest.raises(ContractError, match="head count"):
        block(n_heads=3)
    with pytest.raises(ShapeError, match="norm"):
        block(norm=Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="projections"):
        block(ws=[ws[0], ws[1], Tensor(np.ones((4, 3))), ws[3]])
    keys, values = np.zeros((3, 4)), np.zeros((3, 4))
    with pytest.raises(ShapeError, match="cannot add 2 rows after 2"):
        block(cache=(keys, values, 2))
    with pytest.raises(ContractError, match="one sequence"):
        block(lengths=[1, 1], cache=(keys, values, 0))
    with pytest.raises(ShapeError, match="sum to 1"):
        block(lengths=[1], cache=(keys, values, 1))
    assert not keys.any() and not values.any()


def test_adapter_bank_checks_its_inputs():
    rng = np.random.default_rng(0)
    base = Tensor(rng.standard_normal((3, 4)))
    gates = Tensor(rng.random((3, 2)) + 0.5)
    downs = [Tensor(rng.standard_normal((4, 2))) for _ in range(2)]
    ups = [Tensor(rng.standard_normal((2, 4))) for _ in range(2)]

    def mixture(chosen=((0, 1), (1, 0), (1, 1)), w_ups=ups, act="gelu", **kwargs):
        return adapter_mixture(base, kwargs.pop("gates", gates), chosen, downs, w_ups, act,
                               **kwargs)

    with pytest.raises(ContractError, match="expert id out of range"):
        mixture(chosen=[[0, 2], [1, 0], [0, 1]])
    with pytest.raises(ContractError, match="expert id out of range"):
        mixture(chosen=[[0, -1], [1, 0], [0, 1]])
    with pytest.raises(ShapeError, match="integer expert ids"):
        mixture(chosen=[[0, 1], [1, 0]])
    with pytest.raises(ShapeError, match="integer expert ids"):
        mixture(chosen=[0, 1, 0])
    with pytest.raises(ContractError, match="integer expert ids"):
        mixture(chosen=[[0.0], [1.0], [1.0]])
    with pytest.raises(ShapeError, match="integer expert ids"):
        mixture(chosen=np.zeros((3, 0), dtype=np.int64))
    with pytest.raises(ShapeError, match="gates"):
        mixture(gates=Tensor(np.ones((3, 3))))
    with pytest.raises(ShapeError, match="gates"):
        mixture(gates=Tensor(np.ones((2, 2))))
    with pytest.raises(ShapeError, match="dividing the 2 experts"):
        mixture(gates=Tensor(np.ones((3, 4))))
    with pytest.raises(ContractError, match="one up per down"):
        mixture(w_ups=ups[:1])
    with pytest.raises(ShapeError, match="projections"):
        mixture(w_ups=[ups[0], Tensor(np.zeros((2, 3)))])
    with pytest.raises(ContractError, match="unknown activation"):
        mixture(act="tanh")
    with pytest.raises(ShapeError, match="renorm mask"):
        mixture(renorm_mask=np.ones((3, 3)))
    with pytest.raises(NumericError, match="zero gate total"):
        mixture(renorm_mask=[[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ShapeError, match="skip"):
        mixture(skip=Tensor(np.ones((3, 5))))


def test_embedding_and_head_check_their_inputs():
    tok, pos = Tensor(np.ones((5, 4))), Tensor(np.ones((3, 4)))
    with pytest.raises(ContractError, match="token id out of range for vocab size 5"):
        embed_tokens(tok, pos, [0, 5], [0, 1])
    with pytest.raises(ContractError, match="token id out of range"):
        embed_tokens(tok, pos, [-1, 0], [0, 1])
    with pytest.raises(ContractError, match="position out of range for 3 positions"):
        embed_tokens(tok, pos, [0, 1], [1, 3])
    with pytest.raises(ContractError, match="integer ids"):
        embed_tokens(tok, pos, [0.0, 1.0], [0, 1])
    with pytest.raises(ContractError, match="integer ids"):
        embed_tokens(tok, pos, [True, False], [0, 1])
    with pytest.raises(ShapeError, match="equal 1-D"):
        embed_tokens(tok, pos, [0, 1], [0])
    with pytest.raises(ShapeError, match="tables"):
        embed_tokens(tok, Tensor(np.ones((3, 2))), [0], [0])
    x = Tensor(np.ones((2, 4)))
    with pytest.raises(ShapeError, match="output_head"):
        output_head(x, Tensor(np.ones(3)), Tensor(np.ones((4, 5))))
    with pytest.raises(ShapeError, match="output_head"):
        output_head(x, Tensor(np.ones(4)), Tensor(np.ones((3, 5))))


def test_no_grad_skips_the_activation_derivative(monkeypatch):
    """Under ``no_grad`` no activation derivative is computed, and the
    values are bit-identical to those of the recorded path."""
    from moce.model import DenseBaseModel, ModelConfig, upcycle_init

    cfg = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=10, d_ff=12,
                      n_groups=2, n_experts=3, adapter_rank=3, top_k=2, variant=True)
    model = upcycle_init(DenseBaseModel.build(cfg, seed=1), cfg, seed=1)
    rng = np.random.default_rng(1)
    for p in model.trainable_parameters():
        p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
    derivatives = []
    activate = tensor._activate

    def spy(x, kind, need):
        value, local = activate(x, kind, need)
        derivatives.append(local is not None)
        return value, local

    monkeypatch.setattr(tensor, "_activate", spy)
    ids = [[1, 4, 2, 7, 3], [5, 6]]
    with tensor.no_grad():
        quiet = model.forward(ids, [0, 1]).data
    assert derivatives and not any(derivatives)
    derivatives.clear()
    recorded = model.forward(ids, [0, 1])
    assert recorded.requires_grad and any(derivatives)
    assert recorded.data.tobytes() == quiet.tobytes()
