"""Tensor engine: forward values against independent oracles, gradients
against central differences, and the tape lifecycle contracts."""

import ast
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from moce import tensor

from conftest import (activation, attention, concat_rows, finite_difference_gradient, gradcheck,
                      matmul, relative_error, rmsnorm, take_rows)
from moce.errors import ContractError, NumericError, ShapeError, StateError
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
    output_head,
    router_gates,
    tensor_sum,
)


def matmul_oracle(a, b):
    """Triple-loop matrix product, independent of the engine and of numpy's @."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


def softmax_oracle(values):
    """Softmax at 50 decimal digits, rounded to float64 at the end."""
    with mpmath.workdps(50):
        exps = [mpmath.e ** mpmath.mpf(repr(v)) for v in values]
        total = mpmath.fsum(exps)
        return np.array([float(e / total) for e in exps])


def row_softmax(x):
    """``router_gates`` with an identity router: the softmax of each row of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    return router_gates(Tensor(x), [Tensor(np.eye(x.shape[1]))], [None])


def gelu_oracle(x):
    with mpmath.workdps(50):
        v = mpmath.mpf(repr(x))
        return float(0.5 * v * (1 + mpmath.erf(v / mpmath.sqrt(2))))


class TestForwardValues:
    def test_matmul_known_product(self):
        """2x2 product matches the hand-computed result exactly."""
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_matches_triple_loop(self):
        """Random 4x4 products agree with the loop oracle to 1e-12."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            out = matmul(Tensor(a), Tensor(b))
            assert np.max(np.abs(out.data - matmul_oracle(a, b))) < 1e-12

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_softmax_against_extended_precision(self):
        """softmax([1,2,3]) matches the 50-digit oracle within 1e-15."""
        out = row_softmax([[1.0, 2.0, 3.0]])
        expected = softmax_oracle([1.0, 2.0, 3.0])
        assert np.max(np.abs(out.data[0] - expected)) < 1e-15

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal((5, 7)) * 3
            s = row_softmax(x).data
            assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_shift_invariance(self):
        """Adding a constant to every logit leaves the output unchanged to 1e-12."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 6))
        assert np.max(np.abs(row_softmax(x).data - row_softmax(x + 123.456).data)) < 1e-12

    def test_softmax_large_logits_no_overflow(self):
        s = row_softmax([[1000.0, 1001.0, 1002.0]]).data
        assert np.all(np.isfinite(s)) and abs(s.sum() - 1.0) < 1e-12

    def test_gelu_against_extended_precision(self):
        for x in [1.0, -0.5, 0.25, 3.0, -2.0]:
            out = activation(Tensor([x]), "gelu")
            assert abs(out.data[0] - gelu_oracle(x)) < 1e-10

    def test_relu_and_silu_values(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.array_equal(activation(Tensor(x), "relu").data, np.maximum(x, 0))
        expected = x / (1 + np.exp(-x))
        assert np.max(np.abs(activation(Tensor(x), "silu").data - expected)) < 1e-12

    def test_unknown_activation_rejected(self):
        with pytest.raises(ContractError):
            activation(Tensor([1.0]), "tanh")

    def test_elementwise_and_structural_ops(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[10.0, 20.0], [30.0, 40.0]])
        assert np.array_equal(add(a, b).data, [[11.0, 22.0], [33.0, 44.0]])
        assert np.array_equal(add(a, -1.5).data, [[-0.5, 0.5], [1.5, 2.5]])
        assert np.array_equal(mul(a, b).data, [[10.0, 40.0], [90.0, 160.0]])
        assert np.array_equal(mul(a, -0.5).data, [[-0.5, -1.0], [-1.5, -2.0]])
        assert tensor_sum(a).item() == 10.0
        assert np.array_equal(take_rows(a, [1, 0, 1]).data, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        # Two relu adapters with identity down projections and up
        # projections I and 2I: row 0 chooses experts 0 then 1, row 1
        # experts 1 then 0.
        eye = Tensor(np.eye(2))
        gates = Tensor([[1.5, 0.5], [1.0, 0.25]])

        def mixture(**kwargs):
            return adapter_mixture(a, gates, [[0, 1], [1, 0]], [eye, eye],
                                   [eye, Tensor(2.0 * np.eye(2))], "relu", **kwargs).data

        assert np.array_equal(mixture(), [[2.5, 5.0], [4.5, 6.0]])
        assert np.array_equal(mixture(scale=0.5), [[1.25, 2.5], [2.25, 3.0]])
        assert np.array_equal(mixture(renorm_mask=[[1.0, 1.0], [0.0, 1.0]]),
                              [[1.25, 2.5], [18.0, 24.0]])
        assert np.array_equal(mixture(scale=0.5, skip=b), [[11.25, 22.5], [32.25, 43.0]])
        assert np.array_equal(embed_tokens(b, a, [1, 1, 0], [0, 1, 0]).data,
                              [[31.0, 42.0], [33.0, 44.0], [11.0, 22.0]])
        assert np.array_equal(output_head(Tensor([[3.0, 4.0]]), Tensor([2.0, 1.0]), eye).data,
                              rmsnorm(Tensor([[3.0, 4.0]]), Tensor([2.0, 1.0])).data)
        assert np.array_equal(concat_rows([a, b]).data, [[1, 2], [3, 4], [10, 20], [30, 40]])
        assert np.array_equal(concat_rows([Tensor([1.0]), Tensor([2.0, 3.0])]).data, [1, 2, 3])

    def test_shape_mismatch_messages_name_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 2\)"):
            add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 2))))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor([np.inf, 1.0])

    def test_determinism_bit_identical(self):
        """The same computation twice yields byte-identical results."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 6))
        w = rng.standard_normal((6, 6))

        def run():
            return router_gates(activation(Tensor(x), "gelu"), [Tensor(w)], [None]).data.tobytes()

        assert run() == run()


class TestBackward:
    def test_square_gradient(self):
        """d/dx sum(x*x) = 2x."""
        x = Tensor([[1.0, -2.0], [3.0, 0.5]], requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        assert np.array_equal(x.grad, 2 * x.data)

    def test_gradients_accumulate_additively(self):
        x = Tensor([2.0], requires_grad=True)
        backward(tensor_sum(mul(x, x)))
        backward(tensor_sum(mul(x, x)))
        assert x.grad[0] == 8.0

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ContractError):
            backward(mul(x, x))

    def test_second_backward_same_graph_rejected(self):
        x = Tensor([3.0], requires_grad=True)
        loss = tensor_sum(mul(x, x))
        backward(loss)
        with pytest.raises(StateError):
            backward(loss)

    def test_every_op_against_central_differences(self):
        """All differentiable ops pass the finite-difference check at 1e-6, 100 seeds."""
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m, k, n = rng.integers(2, 9, size=3)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            c = rng.standard_normal((m, k))
            gain = rng.standard_normal(k)
            kind = ("gelu", "silu")[seed % 2]
            # Attention as in a cached step: fewer query rows than keys, 2 or
            # 3 heads, and a mask blocking random keys but never the first.
            heads, t_rows = 2 + seed % 2, int(rng.integers(1, 4))
            s_rows = t_rows + int(rng.integers(1, 3))
            q, kv = rng.standard_normal((t_rows, 2 * heads)), rng.standard_normal((2, s_rows, 2 * heads))
            blocked = rng.random((t_rows, s_rows)) < 0.4
            blocked[:, 0] = False
            att_mask = np.where(blocked, -1.0e30, 0.0)
            # Adapter mixtures of three experts, two per row with expert 1
            # given none: the first renormalises over the chosen pairs plus
            # column 1 of the last row and scales by 0.5; the second sends
            # each row to experts 2 and 0 or 0 and 1 and adds a skip to the
            # sum.
            chosen = np.where(np.arange(m)[:, None] % 2 == 0, [[0, 2]], [[2, 0]])
            other_chosen = np.where(np.arange(m)[:, None] % 3 == 0, [[2, 0]], [[0, 1]])
            downs = [rng.standard_normal((k, 3)) for _ in range(3)]
            ups = [rng.standard_normal((3, k)) for _ in range(3)]
            gates = rng.random((m, 3)) + 0.5
            renorm = np.zeros((m, 3))
            np.put_along_axis(renorm, chosen, 1.0, axis=1)
            renorm[m - 1, 1] = 1.0
            # The embedding reads token rows of b.T with a repeat, and
            # positions of c; the head normalises a with gain and projects
            # by b.
            ids, positions = [n - 1, 0, n - 1], [0, m - 1, 0]

            cases = [
                (lambda p: tensor_sum(matmul(p[0], p[1])), [a, b]),
                (lambda p: tensor_sum(mul(add(p[0], p[1]), add(p[0], mul(p[1], -1.0)))), [a, c]),
                (lambda p: tensor_sum(mul(router_gates(p[0], [p[1]], [None]), matmul(p[0], p[1]))),
                 [a, b]),
                (lambda p: tensor_sum(activation(p[0], kind)), [a]),
                (lambda p: tensor_sum(mul(rmsnorm(p[0], p[1]), p[2])), [a, gain, c]),
                (lambda p: tensor_sum(take_rows(p[0], [0, 0, m - 1])), [a]),
                (lambda p: tensor_sum(mul(concat_rows([p[0], p[1]]), concat_rows([p[1], p[0]]))), [a, c]),
                (lambda p: tensor_sum(mul(attention(p[0], p[1], p[2], att_mask, heads), p[3])),
                 [q, kv[0], kv[1], rng.standard_normal(q.shape)]),
                (lambda p: tensor_sum(mul(adapter_mixture(p[0], p[1], chosen, p[2:5], p[5:8], kind,
                                                          renorm, 0.5),
                                          p[8])),
                 [a, gates, *downs, *ups, rng.standard_normal((m, k))]),
                (lambda p: tensor_sum(mul(adapter_mixture(p[0], p[1], other_chosen, p[2:5], p[5:8],
                                                          kind, skip=p[8]),
                                          p[9])),
                 [a, rng.random((m, 3)) + 0.5, *downs, *ups, rng.standard_normal((m, k)),
                  rng.standard_normal((m, k))]),
                (lambda p: tensor_sum(mul(embed_tokens(p[0], p[1], ids, positions), p[2])),
                 [b.T.copy(), c, rng.standard_normal((3, k))]),
                (lambda p: tensor_sum(mul(output_head(p[0], p[1], p[2]), p[3])),
                 [a, gain, b, rng.standard_normal((m, n))]),
            ]
            for build, arrays in cases:
                worst = max(worst, gradcheck(build, arrays))
        assert worst < 1e-6, f"worst op relative error {worst:.3e}"

    def test_router_gates_and_gate_balance_against_central_differences(self):
        """``router_gates`` with one to three routers (or a lone router over
        every row) and ``gate_balance`` over its rows, one router reading
        every part in separate calls and one router per part, pass the
        finite-difference check at 1e-6 over 50 seeds."""
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m, k, n = rng.integers(2, 7, size=3)
            owner = rng.integers(0, 1 + seed % 3, size=m)
            rows = [None] if seed % 4 == 0 else [np.flatnonzero(owner == i)
                                                 for i in range(1 + seed % 3)]
            arrays = [rng.standard_normal((m, k))] + [rng.standard_normal((k, n)) for _ in rows]
            weight = rng.standard_normal((m, n))
            balance_weights = [rng.random((1, n)) for _ in range(1 + len(rows))]

            def build(p):
                gates = router_gates(p[0], p[1:], rows)
                calls = [[(gates, r) for r in rows]] + [[(gates, r)] for r in rows]
                return add(tensor_sum(mul(gates, Tensor(weight))), gate_balance(calls, balance_weights))

            worst = max(worst, gradcheck(build, arrays))
        assert worst < 1e-6, f"worst relative error {worst:.3e}"

    def test_attention_block_and_feed_forward_against_central_differences(self):
        """``attention_block`` (one or two heads; one or two packed
        sequences, so some keys are blocked) and ``feed_forward`` (gelu,
        relu and silu, relu inputs kept clear of its kink) pass the
        finite-difference check at 1e-6 over 50 seeds."""
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            heads = 1 + seed % 2
            d = 2 * heads
            lengths = [int(rng.integers(1, 4))] + ([int(rng.integers(1, 3))] if seed % 3 else [])
            rows = sum(lengths)
            # Projections at the model's init scale: with unit ones the
            # softmax is sharp enough for the h^2 term of the central
            # difference to reach 1e-6 (1.6e-6 at seed 17, 6.8e-8 at h/3).
            arrays = ([rng.standard_normal((rows, d)), rng.random(d) + 0.5]
                      + [rng.standard_normal((d, d)) * d ** -0.5 for _ in range(4)]
                      + [rng.standard_normal((rows, d))])
            worst = max(worst, gradcheck(
                lambda p: tensor_sum(mul(attention_block(*p[:6], lengths, heads), p[6])), arrays))
            act = ("gelu", "relu", "silu")[seed % 3]
            x, w1 = rng.standard_normal((rows, 3)), rng.standard_normal((3, 4))
            while act == "relu" and np.min(np.abs(x @ w1)) < 1e-2:
                x = rng.standard_normal((rows, 3))
            arrays = [x, w1, rng.standard_normal((4, 3)), rng.standard_normal((rows, 3))]
            worst = max(worst, gradcheck(
                lambda p: tensor_sum(mul(feed_forward(p[0], p[1], p[2], act), p[3])), arrays))
        assert worst < 1e-6, f"worst relative error {worst:.3e}"

    def test_adapter_bank_idle_expert_gets_no_gradient(self):
        """An adapter with no rows gets None, not zeros, so Adam leaves it
        be; its gates get zeros, and so does every gate no pair reads."""
        rng = np.random.default_rng(5)
        base = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        gates = Tensor(rng.random((4, 3)) + 0.5, requires_grad=True)
        downs = [Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(3)]
        ups = [Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3)]
        backward(tensor_sum(adapter_mixture(base, gates, [[0], [2], [2], [0]], downs, ups, "gelu")))
        assert downs[1].grad is None and ups[1].grad is None
        for w in (downs[0], ups[0], downs[2], ups[2], base):
            assert w.grad is not None and np.any(w.grad != 0)
        read = np.zeros((4, 3), dtype=bool)
        read[[0, 1, 2, 3], [0, 2, 2, 0]] = True
        assert np.all(gates.grad[read] != 0) and np.all(gates.grad[~read] == 0)

    def test_relu_gradient_away_from_kink(self):
        """relu passes the check when no input sits within h of zero."""
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(20):
            x = rng.standard_normal((4, 4))
            x = np.where(np.abs(x) < 1e-3, 0.5, x)
            worst = max(worst, gradcheck(lambda p: tensor_sum(activation(p[0], "relu")), [x]))
        assert worst < 1e-6

    def test_cross_entropy_matches_log_softmax_oracle(self):
        """Masked NLL equals a direct -log softmax computation."""
        rng = np.random.default_rng(17)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, size=5)
        msk = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        loss = masked_cross_entropy(Tensor(logits), targets, msk)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expected = -np.mean([np.log(probs[i, targets[i]]) for i in range(5) if msk[i] > 0])
        assert abs(loss.item() - expected) < 1e-12

    def test_cross_entropy_per_row_weights(self):
        """Weighted NLL is sum(w * nll) / sum(w); negative weights are rejected."""
        rng = np.random.default_rng(23)
        logits = rng.standard_normal((5, 7))
        targets = rng.integers(0, 7, size=5)
        weights = np.array([0.0, 0.5, 0.25, 0.125, 2.0])
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        nll = -np.log(probs[np.arange(5), targets])
        loss = masked_cross_entropy(Tensor(logits), targets, weights)
        assert abs(loss.item() - (weights @ nll) / weights.sum()) < 1e-12
        err = gradcheck(lambda p: masked_cross_entropy(p[0], targets, weights), [logits])
        assert err < 1e-6
        with pytest.raises(ContractError):
            masked_cross_entropy(Tensor(logits), targets, [1.0, -0.5, 1.0, 1.0, 1.0])

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(19)
        logits = rng.standard_normal((4, 6))
        targets = rng.integers(0, 6, size=4)
        msk = np.array([1.0, 0.0, 1.0, 1.0])
        err = gradcheck(lambda p: masked_cross_entropy(p[0], targets, msk), [logits])
        assert err < 1e-6

    def test_cross_entropy_empty_span_rejected(self):
        with pytest.raises(ContractError):
            masked_cross_entropy(Tensor(np.zeros((3, 4))), [0, 1, 2], [0.0, 0.0, 0.0])

    def test_cross_entropy_rejects_float_and_boolean_targets(self):
        """Float targets would be truncated ([1.7, 2.2] scored as [1, 2]) and
        booleans read as 0 and 1: both raise before any arithmetic."""
        logits = Tensor(np.zeros((2, 4)))
        for targets in ([1.7, 2.2], np.array([1.0, 2.0]), [True, False]):
            with pytest.raises(ContractError, match="integer targets"):
                masked_cross_entropy(logits, targets, [1.0, 1.0])
        assert masked_cross_entropy(logits, np.array([1, 2], dtype=np.uint8),
                                    [1.0, 1.0]).item() == np.log(4.0)

    def test_finite_difference_oracle_on_quadratic(self):
        """The oracle itself reproduces an analytic gradient it cannot see."""
        q = np.array([[2.0, 0.5], [0.5, 3.0]])
        x = np.array([1.0, -2.0])
        grad = finite_difference_gradient(lambda v: float(v @ q @ v), x)
        assert relative_error(grad, 2 * q @ x) < 1e-8


# Finite doubles with the edge cases the reductions must keep: both signed
# zeros and the smallest subnormals, next to ordinary and huge values.
EDGE_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -(2.0 ** -1030)]),
                        st.floats(allow_nan=False, allow_infinity=False, width=64))


class TestUfuncReductions:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(x=arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6),
                    elements=EDGE_FLOATS),
           axis=st.integers(-3, 2), keepdims=st.booleans())
    def test_ufunc_reductions_equal_the_wrappers_bit_for_bit(self, x, axis, keepdims):
        """``np.add.reduce``, ``np.maximum.reduce`` and ``np.minimum.reduce``
        give the bits of ``np.sum``, ``np.max`` and ``np.min``; the add
        reduction over n values divided by n those of ``np.mean``;
        ``np.logical_and.reduce`` over every axis those of ``ndarray.all``;
        and ``_rmsnorm``'s row scale that of the ``np.mean`` formula."""
        axis = axis % x.ndim
        with np.errstate(over="ignore", invalid="ignore"):
            for ufunc, wrapper in ((np.add, np.sum), (np.maximum, np.max), (np.minimum, np.min)):
                assert (ufunc.reduce(x, axis=axis, keepdims=keepdims).tobytes()
                        == wrapper(x, axis=axis, keepdims=keepdims).tobytes())
            assert (np.add.reduce(x, axis=None).tobytes() == np.sum(x).tobytes())
            assert ((np.add.reduce(x, axis=axis, keepdims=keepdims) / x.shape[axis]).tobytes()
                    == np.mean(x, axis=axis, keepdims=keepdims).tobytes())
            finite = np.isfinite(x * x)
            assert np.logical_and.reduce(finite, axis=None) == finite.all()
            rows = x.reshape(x.shape[0], -1)
            _, r, _ = tensor._rmsnorm(rows, np.ones(rows.shape[1]))
            assert r.tobytes() == np.sqrt(np.mean(rows * rows, axis=1, keepdims=True) + 1e-8).tobytes()

    def test_engine_ops_call_no_reduction_wrapper(self):
        """No function in ``moce.tensor`` calls ``np.sum``, ``np.max``,
        ``np.min`` or ``np.mean``: the wrappers cost more than the reduction
        on the one-row blocks of a decoded token."""
        tree = ast.parse(Path(tensor.__file__).read_text(encoding="utf-8"))
        calls = [f"line {node.lineno}: np.{node.func.attr}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                 and node.func.attr in ("sum", "max", "min", "mean")]
        assert not calls, calls
