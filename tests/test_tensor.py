"""Tensor engine: forward values against independent oracles, gradients
against central differences, and the tape lifecycle contracts."""

import mpmath
import numpy as np
import pytest

from conftest import gradcheck, relative_error
from moce.errors import ContractError, NumericError, ShapeError, StateError
from moce.tensor import (
    Tensor,
    activation,
    adapter_bank,
    add,
    attention,
    backward,
    concat_cols,
    concat_rows,
    finite_difference_gradient,
    flatten_to_vector,
    masked_cross_entropy,
    matmul,
    mean,
    mul,
    mul_rows,
    pad_rows,
    reciprocal,
    rmsnorm,
    scatter_add_rows,
    slice_cols,
    softmax,
    sub,
    take_entries,
    take_rows,
    tensor_sum,
    transpose,
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
        out = softmax(Tensor([[1.0, 2.0, 3.0]]))
        expected = softmax_oracle([1.0, 2.0, 3.0])
        assert np.max(np.abs(out.data[0] - expected)) < 1e-15

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.standard_normal((5, 7)) * 3
            s = softmax(Tensor(x)).data
            assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-12

    def test_softmax_shift_invariance(self):
        """Adding a constant to every logit leaves the output unchanged to 1e-12."""
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 6))
        assert np.max(np.abs(softmax(Tensor(x)).data - softmax(Tensor(x + 123.456)).data)) < 1e-12

    def test_softmax_large_logits_no_overflow(self):
        s = softmax(Tensor([[1000.0, 1001.0, 1002.0]])).data
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
        assert np.array_equal(sub(b, a).data, [[9.0, 18.0], [27.0, 36.0]])
        assert np.array_equal(mul(a, b).data, [[10.0, 40.0], [90.0, 160.0]])
        assert np.array_equal(transpose(a).data, [[1.0, 3.0], [2.0, 4.0]])
        assert tensor_sum(a).item() == 10.0
        assert mean(a).item() == 2.5
        assert np.array_equal(take_rows(a, [1, 0, 1]).data, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(pad_rows(a, [2, 0], 3).data, [[3.0, 4.0], [0.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(slice_cols(a, 1, 2).data, [[2.0], [4.0]])
        assert np.array_equal(concat_cols([a, b]).data, [[1, 2, 10, 20], [3, 4, 30, 40]])
        assert np.array_equal(mul_rows(a, Tensor([2.0, 0.5])).data, [[2.0, 4.0], [1.5, 2.0]])
        assert np.array_equal(flatten_to_vector(slice_cols(a, 0, 1)).data, [1.0, 3.0])
        assert np.array_equal(take_entries(a, [1, 0, 1], [0, 1, 1]).data, [3.0, 2.0, 4.0])
        assert np.array_equal(scatter_add_rows(a, [2, 2], 3).data, [[0, 0], [0, 0], [4.0, 6.0]])
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
            return softmax(matmul(activation(Tensor(x), "gelu"), Tensor(w))).data.tobytes()

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
            col = rng.standard_normal(m)
            kind = ("gelu", "silu")[seed % 2]
            # Attention as in a cached step: fewer query rows than keys, 2 or
            # 3 heads, and a mask blocking random keys but never the first.
            heads, t_rows = 2 + seed % 2, int(rng.integers(1, 4))
            s_rows = t_rows + int(rng.integers(1, 3))
            q, kv = rng.standard_normal((t_rows, 2 * heads)), rng.standard_normal((2, s_rows, 2 * heads))
            blocked = rng.random((t_rows, s_rows)) < 0.4
            blocked[:, 0] = False
            att_mask = np.where(blocked, -1.0e30, 0.0)
            # An adapter bank with repeated rows, and expert 1 given none.
            bank_rows = [m - 1, 0, 0, 1, m - 1]
            downs = [rng.standard_normal((k, 3)) for _ in range(3)]
            ups = [rng.standard_normal((3, k)) for _ in range(3)]

            cases = [
                (lambda p: tensor_sum(matmul(p[0], p[1])), [a, b]),
                (lambda p: tensor_sum(mul(add(p[0], p[1]), sub(p[0], p[1]))), [a, c]),
                (lambda p: tensor_sum(mul(softmax(p[0]), p[1])), [a, c]),
                (lambda p: tensor_sum(activation(p[0], kind)), [a]),
                (lambda p: tensor_sum(mul(rmsnorm(p[0], p[1]), p[2])), [a, gain, c]),
                (lambda p: tensor_sum(transpose(mul(p[0], p[0]))), [a]),
                (lambda p: tensor_sum(take_rows(p[0], [0, 0, m - 1])), [a]),
                (lambda p: tensor_sum(mul_rows(p[0], p[1])), [a, col]),
                (lambda p: tensor_sum(mul(pad_rows(p[0], list(range(m)), m + 2), 3.0)), [a]),
                (lambda p: tensor_sum(concat_cols([slice_cols(p[0], 0, 1), p[0]])), [a]),
                (lambda p: mean(mul(p[0], p[0])), [a]),
                (lambda p: tensor_sum(flatten_to_vector(slice_cols(p[0], 0, 1))), [a]),
                (lambda p: tensor_sum(reciprocal(add(mul(p[0], p[0]), 1.0))), [a]),
                (lambda p: tensor_sum(mul(take_entries(p[0], [0, m - 1, 0], [k - 1, 0, k - 1]),
                                          take_entries(p[0], [1, 1, 0], [0, 0, 0]))), [a]),
                (lambda p: tensor_sum(mul(scatter_add_rows(p[0], [m - 1] + list(range(m - 1)), m + 1),
                                          scatter_add_rows(p[1], [0] * m, m + 1))), [a, c]),
                (lambda p: tensor_sum(mul(concat_rows([p[0], p[1]]), concat_rows([p[1], p[0]]))), [a, c]),
                (lambda p: tensor_sum(mul(attention(p[0], p[1], p[2], att_mask, heads), p[3])),
                 [q, kv[0], kv[1], rng.standard_normal(q.shape)]),
                (lambda p: tensor_sum(mul(adapter_bank(p[0], bank_rows, [0, 2, 2, 5], p[1:4], p[4:7],
                                                       kind), p[7])),
                 [a, *downs, *ups, rng.standard_normal((5, k))]),
            ]
            for build, arrays in cases:
                worst = max(worst, gradcheck(build, arrays))
        assert worst < 1e-6, f"worst op relative error {worst:.3e}"

    def test_adapter_bank_idle_expert_gets_no_gradient(self):
        """An adapter with no rows gets None, not zeros, so Adam leaves it be."""
        rng = np.random.default_rng(5)
        base = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        downs = [Tensor(rng.standard_normal((3, 2)), requires_grad=True) for _ in range(3)]
        ups = [Tensor(rng.standard_normal((2, 3)), requires_grad=True) for _ in range(3)]
        backward(tensor_sum(adapter_bank(base, [3, 0, 0], [0, 2, 2, 3], downs, ups)))
        assert downs[1].grad is None and ups[1].grad is None
        for w in (downs[0], ups[0], downs[2], ups[2], base):
            assert w.grad is not None and np.any(w.grad != 0)
        assert np.array_equal(base.grad[[1, 2]], np.zeros((2, 3)))

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

    def test_finite_difference_oracle_on_quadratic(self):
        """The oracle itself reproduces an analytic gradient it cannot see."""
        q = np.array([[2.0, 0.5], [0.5, 3.0]])
        x = np.array([1.0, -2.0])
        grad = finite_difference_gradient(lambda v: float(v @ q @ v), x)
        assert relative_error(grad, 2 * q @ x) < 1e-8
