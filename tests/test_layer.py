"""Routing invariants, adapter identities, compute sparsity, and the
balance objective, all against hand-composed oracles."""

import logging

import numpy as np
import pytest
from scipy.special import erf

from conftest import gradcheck
from moce.errors import ConfigError, ContractError
from moce.layer import (
    AdapterExpert,
    ExpertGroup,
    FeedForward,
    MoCELayer,
    RoutingRecord,
    gate,
    load_balance_loss,
    router_logits,
    top_k_select,
)
from moce.tensor import Tensor, adapter_bank, add, backward, tensor_sum


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def build_layer(rng, d=6, n_groups=2, n_experts=3, rank=4, k=2, zero_up=False,
                general=False, router_scale=0.6, **kwargs):
    """A small layer with non-degenerate routers and optional zero adapters."""
    def make_group():
        router = Tensor(rng.normal(0.0, router_scale, size=(d, n_experts)), requires_grad=True)
        experts = []
        for _ in range(n_experts):
            w_down = Tensor(rng.normal(0.0, 0.4, size=(d, rank)), requires_grad=True)
            up = np.zeros((rank, d)) if zero_up else rng.normal(0.0, 0.4, size=(rank, d))
            experts.append(AdapterExpert(w_down, Tensor(up, requires_grad=True)))
        return ExpertGroup(router, experts)

    base = FeedForward(Tensor(rng.normal(0.0, 0.4, size=(d, 2 * d))),
                       Tensor(rng.normal(0.0, 0.4, size=(2 * d, d))))
    return MoCELayer(
        groups=[make_group() for _ in range(n_groups)],
        base_ffn=base,
        k=k,
        general_group=make_group() if general else None,
        **kwargs,
    )


def layer_oracle(layer, x, group_id, k=None, include_residual_weights=False):
    """Numpy re-composition of the forward rule, outside the graph engine."""
    group = layer.groups[group_id] if group_id != "general" else layer.general_group
    base = np_gelu(x @ layer.base_ffn.w1.data) @ layer.base_ffn.w2.data
    gates = np_softmax(x @ group.router.data)
    k = layer.k if k is None else k
    out = np.zeros_like(x) if include_residual_weights else x.copy()
    for t in range(x.shape[0]):
        order = np.argsort(-gates[t], kind="stable")[:k]
        for i in order:
            e = group.experts[i]
            delta = np_gelu(base[t] @ e.w_down.data) @ e.w_up.data
            if include_residual_weights:
                out[t] += gates[t, i] * (delta + x[t])
            else:
                out[t] += gates[t, i] * delta
    return out


class TestGateAndTopK:
    def test_gate_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            w = Tensor(rng.standard_normal((5, 4)))
            x = Tensor(rng.standard_normal((7, 5)))
            g = gate(router_logits(w, x)).data
            assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-12

    def test_single_expert_gate_is_one(self):
        g = gate(router_logits(Tensor(np.ones((3, 1))), Tensor([[2.0, -1.0, 0.5]])))
        assert g.data.shape == (1, 1) and g.data[0, 0] == 1.0

    def test_top_k_keeps_original_values(self):
        out = top_k_select(Tensor([0.1, 0.5, 0.2, 0.2]), k=2)
        assert np.array_equal(out.data, [0.0, 0.5, 0.2, 0.0])

    def test_top_k_tie_breaks_to_lowest_index(self):
        out = top_k_select(Tensor([0.25, 0.25, 0.25, 0.25]), k=2)
        assert np.array_equal(out.data, [0.25, 0.25, 0.0, 0.0])

    def test_top_k_exact_count_per_row(self):
        rng = np.random.default_rng(1)
        values = np_softmax(rng.standard_normal((20, 6)))
        for k in (1, 2, 5, 6):
            out = top_k_select(Tensor(values), k=k)
            assert np.all(np.count_nonzero(out.data, axis=1) == k)

    def test_top_k_bad_k(self):
        with pytest.raises(ContractError):
            top_k_select(Tensor([0.5, 0.5]), k=3)
        with pytest.raises(ContractError):
            top_k_select(Tensor([0.5, 0.5]), k=0)


def expert_output(e, base, x):
    """One gelu expert's full output on every row: its update from a
    one-adapter bank, plus the residual input."""
    rows = np.arange(base.shape[0])
    return add(adapter_bank(base, rows, [0, rows.size], [e.w_down], [e.w_up]), x)


class TestAdapter:
    def test_zero_up_projection_is_identity(self):
        """W_up = 0 makes the expert the identity on its residual input."""
        rng = np.random.default_rng(2)
        e = AdapterExpert(Tensor(rng.standard_normal((5, 3))), Tensor(np.zeros((3, 5))))
        x = rng.standard_normal((4, 5))
        out = expert_output(e, Tensor(rng.standard_normal((4, 5))), Tensor(x))
        assert np.array_equal(out.data, x)

    def test_matches_stepwise_oracle(self):
        rng = np.random.default_rng(3)
        w_down = rng.standard_normal((5, 3))
        w_up = rng.standard_normal((3, 5))
        b = rng.standard_normal((2, 5))
        x = rng.standard_normal((2, 5))
        e = AdapterExpert(Tensor(w_down), Tensor(w_up))
        expected = np_gelu(b @ w_down) @ w_up + x
        assert np.max(np.abs(expert_output(e, Tensor(b), Tensor(x)).data - expected)) < 1e-12

    def test_output_shape_equals_input_shape(self):
        rng = np.random.default_rng(4)
        e = AdapterExpert.init(6, 2, rng)
        out = expert_output(e, Tensor(rng.standard_normal((3, 6))), Tensor(rng.standard_normal((3, 6))))
        assert out.shape == (3, 6)


class TestLayerForward:
    def test_single_expert_layer_equals_adapter(self):
        """M=1, N=1, k=1 collapses to the lone expert's full output."""
        rng = np.random.default_rng(5)
        layer = build_layer(rng, n_groups=1, n_experts=1, k=1)
        x = rng.standard_normal((4, 6))
        e = layer.groups[0].experts[0]
        base = np_gelu(x @ layer.base_ffn.w1.data) @ layer.base_ffn.w2.data
        expected = np_gelu(base @ e.w_down.data) @ e.w_up.data + x
        out = layer.forward(Tensor(x), 0)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_zeroed_adapters_identity_at_k_equals_n(self):
        rng = np.random.default_rng(6)
        layer = build_layer(rng, zero_up=True, n_experts=3, k=3)
        x = rng.standard_normal((5, 6))
        assert np.array_equal(layer.forward(Tensor(x), 1).data, x)

    def test_zeroed_adapters_identity_for_any_k(self):
        """The single shared residual makes zero-init exact even for k < N."""
        rng = np.random.default_rng(7)
        for k in (1, 2):
            layer = build_layer(rng, zero_up=True, n_experts=3, k=k)
            x = rng.standard_normal((5, 6))
            assert np.array_equal(layer.forward(Tensor(x), 0).data, x)

    def test_matches_hand_composed_oracle(self):
        rng = np.random.default_rng(8)
        layer = build_layer(rng, n_experts=3, k=2)
        x = rng.standard_normal((7, 6))
        out = layer.forward(Tensor(x), 1)
        assert np.max(np.abs(out.data - layer_oracle(layer, x, 1))) < 1e-12

    def test_k_equals_n_matches_full_mixture(self):
        """At k = N the output equals the gate-weighted sum of full expert outputs."""
        rng = np.random.default_rng(9)
        layer = build_layer(rng, n_experts=2, k=2)
        x = rng.standard_normal((6, 6))
        out = layer.forward(Tensor(x), 0)
        mixture = layer_oracle(layer, x, 0, include_residual_weights=True)
        assert np.max(np.abs(out.data - mixture)) < 1e-12

    def test_soft_equals_topk_with_k_n(self):
        rng = np.random.default_rng(10)
        layer = build_layer(rng, n_experts=4, k=4)
        soft = MoCELayer(layer.groups, layer.base_ffn, k=4, mode="soft")
        x = rng.standard_normal((5, 6))
        a = soft.forward(Tensor(x), 0).data
        b = layer.forward(Tensor(x), 0).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_renormalized_weights_sum_to_one(self):
        """With the ablation flag on, the k selected weights are rescaled to sum 1."""
        rng = np.random.default_rng(11)
        plain = build_layer(rng, n_experts=3, k=2)
        renorm = MoCELayer(plain.groups, plain.base_ffn, k=2, renormalize=True)
        x = rng.standard_normal((4, 6))
        base = np_gelu(x @ plain.base_ffn.w1.data) @ plain.base_ffn.w2.data
        group = plain.groups[0]
        gates = np_softmax(x @ group.router.data)
        expected = x.copy()
        for t in range(4):
            order = np.argsort(-gates[t], kind="stable")[:2]
            denom = gates[t, order].sum()
            for i in order:
                e = group.experts[i]
                expected[t] += (gates[t, i] / denom) * (np_gelu(base[t] @ e.w_down.data) @ e.w_up.data)
        out = renorm.forward(Tensor(x), 0)
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_moe_scale_multiplies_the_update(self):
        rng = np.random.default_rng(12)
        layer = build_layer(rng, n_experts=2, k=1)
        scaled = MoCELayer(layer.groups, layer.base_ffn, k=1, moe_scale=2.5)
        x = rng.standard_normal((3, 6))
        delta = layer.forward(Tensor(x), 0).data - x
        delta_scaled = scaled.forward(Tensor(x), 0).data - x
        assert np.max(np.abs(delta_scaled - 2.5 * delta)) < 1e-12

    def test_bad_group_and_mode(self):
        rng = np.random.default_rng(13)
        layer = build_layer(rng)
        x = Tensor(rng.standard_normal((2, 6)))
        with pytest.raises(ContractError):
            layer.forward(x, 5)
        with pytest.raises(ConfigError, match="routing mode"):
            MoCELayer(layer.groups, layer.base_ffn, k=2, mode="dense")
        with pytest.raises(ConfigError):
            MoCELayer(layer.groups, layer.base_ffn, k=9)


class TestVariant:
    def test_variant_is_sum_of_paths(self):
        rng = np.random.default_rng(14)
        layer = build_layer(rng, general=True)
        x = rng.standard_normal((5, 6))
        total = layer.variant_forward(Tensor(x), 1).data
        split = layer.forward(Tensor(x), 1).data + layer.general_path(Tensor(x)).data
        assert np.max(np.abs(total - split)) < 1e-12

    def test_zeroed_general_path_contributes_residual(self):
        """General experts at W_up = 0 with k = N add exactly x to the output."""
        rng = np.random.default_rng(15)
        layer = build_layer(rng, n_experts=2, k=2, general=True)
        for e in layer.general_group.experts:
            e.w_up.data[:] = 0.0
        x = rng.standard_normal((4, 6))
        variant = layer.variant_forward(Tensor(x), 0).data
        group_only = layer.forward(Tensor(x), 0).data
        assert np.max(np.abs(variant - (group_only + x))) < 1e-12

    def test_general_path_matches_oracle(self):
        rng = np.random.default_rng(16)
        layer = build_layer(rng, n_experts=3, k=2, general=True)
        x = rng.standard_normal((5, 6))
        out = layer.general_path(Tensor(x)).data
        expected = layer_oracle(layer, x, "general", include_residual_weights=True)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_variant_doubles_active_expert_count(self):
        rng = np.random.default_rng(17)
        layer = build_layer(rng, n_experts=3, k=2, general=True)
        record = RoutingRecord()
        layer.variant_forward(Tensor(rng.standard_normal((6, 6))), 0, record)
        per_token = len(record.rows) / 6
        assert per_token == 2 * layer.k


class TestSparsity:
    def test_unselected_experts_do_no_work(self):
        """Experts that win no tokens are never invoked (call-count check)."""
        rng = np.random.default_rng(18)
        layer = build_layer(rng, n_groups=1, n_experts=4, k=1, router_scale=3.0)
        x = rng.standard_normal((6, 6))
        gates = np_softmax(x @ layer.groups[0].router.data)
        winners = set(np.argmax(gates, axis=1).tolist())
        layer.reset_instrumentation()
        layer.forward(Tensor(x), 0)
        for i, e in enumerate(layer.groups[0].experts):
            if i in winners:
                assert e.forward_calls == 1
            else:
                assert e.forward_calls == 0 and e.rows_processed == 0

    def test_total_expert_rows_equal_tokens_times_k(self):
        rng = np.random.default_rng(19)
        layer = build_layer(rng, n_groups=1, n_experts=4, k=2)
        layer.reset_instrumentation()
        layer.forward(Tensor(rng.standard_normal((9, 6))), 0)
        total = sum(e.rows_processed for e in layer.groups[0].experts)
        assert total == 9 * 2

    def test_exactly_k_nonzero_weights_per_token(self):
        rng = np.random.default_rng(20)
        layer = build_layer(rng, n_experts=4, k=2)
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((8, 6))), 0, record)
        per_token = {}
        for token_idx, _, _, weight in record.rows:
            assert weight > 0.0
            per_token[token_idx] = per_token.get(token_idx, 0) + 1
        assert all(v == 2 for v in per_token.values()) and len(per_token) == 8


class TestGradients:
    def test_inactive_groups_get_zero_gradient(self):
        rng = np.random.default_rng(21)
        layer = build_layer(rng, n_groups=3)
        x = Tensor(rng.standard_normal((4, 6)))
        backward(tensor_sum(layer.forward(x, 1)))
        for gid in (0, 2):
            for p in layer.groups[gid].parameters():
                assert p.grad is None
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in layer.groups[1].parameters())

    def test_layer_gradients_against_central_differences(self):
        """Group-path gradients match the oracle when routing margins are safe."""
        rng = np.random.default_rng(22)
        checked = 0
        attempts = 0
        worst = 0.0
        while checked < 5 and attempts < 50:
            attempts += 1
            d, n, rank, k = 4, 3, 2, 2
            x = rng.standard_normal((3, d))
            router = rng.standard_normal((d, n))
            w_down = [rng.standard_normal((d, rank)) * 0.5 for _ in range(n)]
            w_up = [rng.standard_normal((rank, d)) * 0.5 for _ in range(n)]
            b1 = rng.standard_normal((d, d)) * 0.5
            b2 = rng.standard_normal((d, d)) * 0.5
            gates = np_softmax(x @ router)
            margins = np.sort(gates, axis=1)
            if np.min(margins[:, -k] - margins[:, -(k + 1)]) < 1e-3:
                continue

            def build(p):
                base = FeedForward(p[0], p[1])
                experts = [AdapterExpert(p[2 + 2 * i], p[3 + 2 * i]) for i in range(n)]
                group = ExpertGroup(p[2 + 2 * n], experts)
                layer = MoCELayer([group], base, k=k)
                return tensor_sum(layer.forward(p[3 + 2 * n], 0))

            arrays = [b1, b2]
            for i in range(n):
                arrays += [w_down[i], w_up[i]]
            arrays += [router, x]
            worst = max(worst, gradcheck(build, arrays))
            checked += 1
        assert checked == 5, "could not find enough margin-safe routing instances"
        assert worst < 1e-6, f"worst layer relative error {worst:.3e}"


class TestBalanceLoss:
    def test_uniform_routing_scores_one(self):
        """Zero routers give uniform gates, and the objective is exactly 1."""
        rng = np.random.default_rng(23)
        layer = build_layer(rng, n_groups=1, n_experts=4, k=2)
        layer.groups[0].router.data[:] = 0.0
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((10, 6))), 0, record)
        assert abs(load_balance_loss(record).item() - 1.0) < 1e-9

    def test_collapse_scores_n(self):
        rng = np.random.default_rng(24)
        layer = build_layer(rng, n_groups=1, n_experts=4, k=2)
        layer.groups[0].router.data[:] = 0.0
        layer.groups[0].router.data[:, 2] = 60.0
        record = RoutingRecord()
        layer.forward(Tensor(np.abs(rng.standard_normal((10, 6))) + 0.1), 0, record)
        assert abs(load_balance_loss(record).item() - 4.0) < 1e-9

    def test_single_expert_scores_one(self):
        rng = np.random.default_rng(25)
        layer = build_layer(rng, n_groups=1, n_experts=1, k=1)
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((6, 6))), 0, record)
        assert abs(load_balance_loss(record).item() - 1.0) < 1e-12

    def test_matches_direct_formula_per_router(self):
        """Graph value equals N * sum(f_i * P_i) recomputed from raw stats."""
        rng = np.random.default_rng(26)
        layer = build_layer(rng, n_groups=2, n_experts=3, k=1)
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((7, 6))), 0, record)
        record.advance(7)
        layer.forward(Tensor(rng.standard_normal((5, 6))), 1, record)
        record.advance(5)
        expected = 0.0
        for key in record.routers:
            f = record.load_fractions(key)
            p = record.mean_gate_probs(key)
            expected += len(f) * float(f @ p)
        assert abs(load_balance_loss(record).item() - expected) < 1e-12

    def test_gradient_reaches_router_only(self):
        rng = np.random.default_rng(27)
        layer = build_layer(rng, n_groups=1, n_experts=3, k=2)
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((6, 6))), 0, record)
        backward(load_balance_loss(record))
        group = layer.groups[0]
        assert group.router.grad is not None and np.any(group.router.grad != 0)
        for e in group.experts:
            assert e.w_down.grad is None and e.w_up.grad is None

    def test_empty_record_warns_and_returns_zero(self, caplog):
        with caplog.at_level(logging.WARNING):
            loss = load_balance_loss(RoutingRecord())
        assert loss.item() == 0.0
        assert any("empty routing record" in m for m in caplog.messages)


class TestRecordExport:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(28)
        layer = build_layer(rng, n_experts=3, k=2)
        record = RoutingRecord()
        layer.forward(Tensor(rng.standard_normal((4, 6))), 0, record)
        path = tmp_path / "routes.csv"
        record.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "token_idx,group,expert,weight"
        assert len(lines) == 1 + 4 * 2
        first = lines[1].split(",")
        assert first[0] == "0" and 0.0 < float(first[3]) <= 1.0
