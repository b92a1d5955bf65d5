"""Nine end-to-end gates over the whole system.

Each test prints exactly one verdict line with the measured value and its
tolerance (visible with ``pytest -s``); the same line is the assertion
message on failure.
"""

import time

import numpy as np
import pytest

from conftest import (activation, attention, concat_rows, exhaustive_two_means, general_path,
                      make_planted_blobs, matmul, relative_error, rmsnorm, take_rows, top_k_mask)
from moce.clustering import elbow_select, kmeans_fit, kmeans_predict, load_kmeans, save_kmeans
from moce.data import make_two_dialect_corpus, split_dataset
from moce.embedding import embed_dataset
from moce.harness import RunConfig, pipeline_eval, pipeline_train, route_statistics
from moce.layer import (
    ExpertGroup,
    FeedForward,
    MoCELayer,
    RoutingRecord,
    _top_k_order,
    load_balance_loss,
)
from moce.model import (
    DenseBaseModel,
    ModelConfig,
    greedy_decode,
    lm_loss,
    load_checkpoint,
    save_checkpoint,
    upcycle_init,
)
from moce.optim import Adam
from moce.seeding import substream
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


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _ops_loss(params: list[Tensor]) -> Tensor:
    """One composite graph that exercises every differentiable op."""
    a, b, gain, scale, proj = params
    h = activation(rmsnorm(matmul(a, b), gain), "gelu")
    h = add(h, mul(add(h, -1.5), -0.25))
    # The head op: h normalised with gain, projected by proj.
    x = output_head(h, gain, proj)
    # Token rows of proj (one read twice) plus position rows of a.
    emb = embed_tokens(proj, a, [4, 0, 4], [2, 0, 2])
    # Two heads; two query rows over three keys, each query blocked from one.
    att = attention(take_rows(x, [0, 2]), x, activation(x, "silu"),
                    [[0.0, 0.0, -1.0e30], [-1.0e30, 0.0, 0.0]], 2)
    # Five adapters read from rows of ``proj``. Two routers gate them: b
    # scores rows 0 and 2 of x, silu(b) scores row 1.
    downs = [take_rows(proj, r) for r in ([0, 1, 2, 3], [1, 2, 3, 4], [4, 4, 0, 2], [3, 1, 4, 0],
                                          [2, 0, 1, 3])]
    ups = [take_rows(proj, r) for r in ([3, 0, 1, 1], [2, 3, 4, 0], [1, 0, 3, 2], [0, 4, 2, 3],
                                        [4, 1, 1, 0])]
    gates = router_gates(x, [b, activation(b, "silu")], [[0, 2], [1]])
    # Two gate blocks of five adapters each, the second block the five
    # rotated by one. Rows 0 and 2 choose in block 0, with adapter 1 idle
    # and adapter 0 chosen by both, row 1 in block 1; gates renormalised
    # over the chosen pairs, the result halved, and the embedding added.
    chosen = [[0, 3], [7, 9], [2, 0]]
    selected = np.zeros((3, 5))
    np.put_along_axis(selected, np.array(chosen) % 5, 1.0, axis=1)
    mixed = adapter_mixture(x, gates, chosen, downs + downs[1:] + downs[:1],
                            ups + ups[1:] + ups[:1], "silu", selected, 0.5, skip=emb)
    # The attention rows as the base of a second call, gated by rows 2 and
    # 0 of the gates, with a feed-forward of x as the skip; adapters 1
    # and 4 idle, adapter 3 chosen by both rows.
    ffn = feed_forward(x, b, proj, "silu")
    second = adapter_mixture(att, take_rows(gates, [2, 0]), [[3, 0], [2, 3]], downs, ups, "gelu",
                             skip=take_rows(ffn, [2, 0]))
    stacked = concat_rows([second, mixed])
    # squaring keeps the relu input >= 0.3, clear of its kink at 0
    relu_part = activation(add(mul(stacked, stacked), 0.3), "relu")
    logits = matmul(router_gates(add(relu_part, activation(stacked, "silu")),
                                 [Tensor(np.eye(4))], [None]), b)
    # The balance op: one router over x's rows 0 and 2 and over the
    # attention rows (gated by b alone), a second over x's row 1.
    att_gates = router_gates(att, [b], [None])
    balance = gate_balance([[(gates, [0, 2]), (att_gates, None)], [(gates, [1])]],
                           [[[0.6, 1.2, 0.9, 1.5, 0.3]], [[1.1, 0.4, 0.8, 1.3, 0.7]]])
    ce = masked_cross_entropy(logits, [1, 0, 3, 4, 2], [1.0, 0.0, 1.0, 0.5, 1.0])
    # An attention sublayer over h: five heads, gain as its norm, and rows
    # 0-1 and row 2 as two packed sequences.
    wide = mul(matmul(proj, b), 0.4)
    sublayer = attention_block(h, gain, wide, take_rows(b, [0, 1, 2, 3, 1]),
                               take_rows(b, [3, 2, 1, 0, 2]), mul(wide, -0.5), [2, 1], 5)
    # ``scale`` reaches the loss through a product of two scalar sums.
    reg = mul(tensor_sum(mul(h, sublayer)), tensor_sum(activation(scale, "gelu")))
    return add(add(ce, mul(reg, 1.0 / 600.0)), mul(balance, 0.1))


def _fd_over_model(build_loss, params, h=1e-5):
    """Worst relative error between analytic and central-difference
    gradients for in-place perturbed model parameters."""
    loss = build_loss()
    backward(loss)
    worst = 0.0
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = build_loss().item()
            flat[j] = orig - h
            fm = build_loss().item()
            flat[j] = orig
            worst = max(worst, relative_error(gflat[j], (fp - fm) / (2.0 * h)))
        p.grad = None
    return worst


class TestCriterion1Gradients:
    def test_all_ops_and_micro_model(self):
        start = time.monotonic()
        from conftest import gradcheck

        worst_ops = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            arrays = [
                rng.normal(size=(3, 4)),
                rng.normal(size=(4, 5)),
                rng.normal(size=5) * 0.5 + 1.0,
                rng.normal(size=3) * 0.5 + 1.5,
            ]
            arrays.append(rng.normal(size=(5, 4)) * 0.5)
            worst_ops = max(worst_ops, gradcheck(_ops_loss, arrays))

        cfg = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2,
                          max_seq_len=8, d_ff=12, n_groups=2, n_experts=2,
                          adapter_rank=3, top_k=1)
        ids = [1, 7, 3, 9, 2, 5]
        targets = [7, 3, 9, 2, 5, 10]
        mask = [1.0, 1.0, 0.0, 1.0, 1.0, 1.0]

        def dense_loss(model):
            return lambda: lm_loss(model.forward(ids), targets, mask)

        dense = DenseBaseModel.build(cfg, seed=0)
        worst_model = _fd_over_model(dense_loss(dense), dense.trainable_parameters())

        def moce_loss(model):
            def build():
                rec = RoutingRecord()
                t = lm_loss(model.forward(ids, 1, rec), targets, mask)
                return add(t, mul(load_balance_loss(rec), 0.01))
            return build

        for mode in ("topk", "soft"):
            mcfg = ModelConfig(**{**cfg.__dict__, "mode": mode})
            moce = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
            opt = Adam(moce.trainable_parameters(), lr=1e-2)
            for _ in range(3):
                loss = moce_loss(moce)()
                backward(loss)
                opt.step()
                opt.zero_grad()
            worst_model = max(
                worst_model, _fd_over_model(moce_loss(moce), moce.trainable_parameters())
            )

        elapsed = time.monotonic() - start
        ok = worst_ops < 1e-6 and worst_model < 1e-4 and elapsed < 60.0
        _verdict(1, ok, f"op gradients rel err {worst_ops:.2e} (tol 1e-6), "
                        f"micro model rel err {worst_model:.2e} (tol 1e-4), "
                        f"{elapsed:.1f}s (limit 60s)")


class TestCriterion2RoutingInvariants:
    def test_gate_and_selection_invariants(self):
        worst_sum = 0.0
        worst_soft = 0.0
        worst_variant = 0.0
        originals_kept = True
        ties_low = True
        inactive_clean = True
        for seed in range(20):
            rng = substream(900, "acceptance-routing", seed)
            d, n, t, k = 6, 4, 5, 2
            base = FeedForward.init(d, 9, rng)
            groups = [ExpertGroup.init(d, n, 3, rng) for _ in range(3)]
            layer = MoCELayer(groups, base, k=k, mode="topk")
            layer.layer_key = 0
            x = Tensor(rng.normal(size=(t, d)), requires_grad=True)

            gates = router_gates(x, [groups[0].router], [None]).data
            worst_sum = max(worst_sum, float(np.max(np.abs(gates.sum(axis=1) - 1.0))))
            mask = top_k_mask(gates, k)
            if not np.all(mask.sum(axis=1) == k):
                originals_kept = False
            selected = gates * mask
            kept = selected[mask.astype(bool)]
            if not np.all(np.isin(kept, gates)):
                originals_kept = False

            tied = np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.4, 0.4, 0.1]])
            tie_mask = top_k_mask(tied, 2)
            if not (np.array_equal(tie_mask[0], [1, 1, 0, 0])
                    and np.array_equal(tie_mask[1], [0, 1, 1, 0])):
                ties_low = False

            full = MoCELayer(groups, base, k=n, mode="topk")
            soft = MoCELayer(groups, base, k=n, mode="soft")
            diff = np.abs(full.forward(x, 0).data - soft.forward(x, 0).data)
            worst_soft = max(worst_soft, float(np.max(diff)))

            general = ExpertGroup.init(d, n, 3, rng)
            with_gen = MoCELayer(groups, base, k=k, mode="topk", general_group=general)
            v = with_gen.forward(x, 1)
            parts = add(layer.forward(x, 1), general_path(with_gen, x))
            worst_variant = max(worst_variant, float(np.max(np.abs(v.data - parts.data))))

            out = layer.forward(x, 2)
            backward(tensor_sum(out))
            for gid in (0, 1):
                if groups[gid].router.grad is not None:
                    inactive_clean = False
                for e in groups[gid].experts:
                    if e.w_down.grad is not None or e.w_up.grad is not None:
                        inactive_clean = False
            for p in [groups[2].router] + [w for e in groups[2].experts
                                           for w in (e.w_down, e.w_up)]:
                p.grad = None
            x.grad = None

        ok = (worst_sum < 1e-12 and originals_kept and ties_low
              and worst_soft < 1e-12 and worst_variant < 1e-12 and inactive_clean)
        _verdict(2, ok, f"gate sums off by {worst_sum:.1e}, originals kept: "
                        f"{originals_kept}, ties to lowest index: {ties_low}, "
                        f"|soft - top-N| {worst_soft:.1e}, |variant - sum| "
                        f"{worst_variant:.1e} (tol 1e-12), inactive groups "
                        f"untouched: {inactive_clean}")


class TestCriterion3UpcyclingIdentity:
    def test_function_preserved(self):
        cfg = ModelConfig(vocab_size=33, d_model=16, n_layers=2, n_heads=2,
                          max_seq_len=12, d_ff=24, n_groups=3, n_experts=4,
                          adapter_rank=5, top_k=2)
        dense = DenseBaseModel.build(cfg, seed=21)
        moce = upcycle_init(dense, cfg, seed=21)
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            length = int(rng.integers(2, cfg.max_seq_len + 1))
            ids = rng.integers(0, cfg.vocab_size, size=length).tolist()
            group = int(rng.integers(cfg.n_groups))
            diff = np.abs(moce.forward(ids, group).data - dense.forward(ids).data)
            worst = max(worst, float(np.max(diff)))
        _verdict(3, worst < 1e-9,
                 f"max logit deviation {worst:.1e} over 50 sequences (tol 1e-9)")


class TestCriterion4KMeansOptimality:
    def test_against_exhaustive_oracle(self):
        hits = 0
        gaps = []
        monotone = True
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            points = rng.uniform(-1.0, 1.0, size=(6, 2))
            fit = kmeans_fit(points, 2, seed=seed)
            oracle = exhaustive_two_means(points)
            gaps.append(fit.final_sse - oracle)
            if fit.final_sse <= oracle + 1e-9 * max(1.0, oracle):
                hits += 1
            history = fit.sse_history
            if any(history[i + 1] > history[i] + 1e-12 for i in range(len(history) - 1)):
                monotone = False
        ok = hits >= 8 and monotone
        _verdict(4, ok, f"{hits}/10 instances reached the enumerated global "
                        f"optimum (need 8), worst gap {max(gaps):.2e}; SSE "
                        f"non-increasing every iteration: {monotone}")


class TestCriterion5ElbowRecovery:
    def test_planted_cluster_counts(self):
        results = {}
        for n_centers in (3, 4):
            hits = 0
            for seed in range(10):
                rng = np.random.default_rng(1000 + seed)
                points, _, _ = make_planted_blobs(n_centers, 200, 8, 1.0, rng)
                report = elbow_select(points, k_max=8, seed=seed)
                hits += int(report.selected_k == n_centers)
            results[n_centers] = hits
        ok = all(h >= 9 for h in results.values())
        _verdict(5, ok, f"recovered 3 centers {results[3]}/10 and 4 centers "
                        f"{results[4]}/10 seeds (need 9/10 each)")


class TestCriterion6BalanceLoss:
    def test_exact_values_and_training_effect(self, tmp_path):
        rec = RoutingRecord()
        uniform = router_gates(Tensor(np.eye(7)), [Tensor(np.zeros((7, 4)))], [None])
        rec.observe("r", uniform, _top_k_order(uniform.data, 2))
        uniform_err = abs(load_balance_loss(rec).item() - 1.0)

        rec = RoutingRecord()
        logits = np.zeros((6, 4))
        logits[:, 1] = 60.0
        collapsed = router_gates(Tensor(np.eye(6)), [Tensor(logits)], [None])
        rec.observe("r", collapsed, _top_k_order(collapsed.data, 1))
        collapse_err = abs(load_balance_loss(rec).item() - 4.0)

        rec = RoutingRecord()
        solo = router_gates(Tensor(np.eye(5)), [Tensor(np.zeros((5, 1)))], [None])
        rec.observe("r", solo, _top_k_order(solo.data, 1))
        solo_err = abs(load_balance_loss(rec).item() - 1.0)

        records = make_two_dialect_corpus(100, seed=0)
        wins = 0
        for seed in range(5):
            loads = {}
            for lam in (0.0, 0.01):
                cfg = RunConfig(seed=seed, n_groups=2, d_model=24, n_layers=2,
                                n_heads=2, d_ff=48, n_experts=4, adapter_rank=8,
                                top_k=1, pretrain_steps=40, train_steps=150,
                                lr=1e-2, batch_size=8, balance_weight=lam)
                out = str(tmp_path / f"bal_s{seed}_l{lam}")
                pipeline_train(cfg, records, out)
                train, _ = split_dataset(records, cfg.holdout_fraction, cfg.seed)
                stats = route_statistics(out, train, out + "-stats")
                loads[lam] = stats["max_load_fraction"]
            wins += int(loads[0.01] < loads[0.0])

        ok = (uniform_err < 1e-9 and collapse_err < 1e-9 and solo_err < 1e-9
              and wins >= 4)
        _verdict(6, ok, f"uniform off by {uniform_err:.1e}, collapse off by "
                        f"{collapse_err:.1e}, single-expert off by {solo_err:.1e} "
                        f"(tol 1e-9); penalty lowered max load in {wins}/5 seeds "
                        f"(need 4)")


class TestCriterion7EndToEndTraining:
    def test_two_dialect_run(self, tmp_path):
        start = time.monotonic()
        records = make_two_dialect_corpus(150, seed=0)
        cfg = RunConfig(seed=0, n_groups=2, d_model=32, n_layers=2, n_heads=2,
                        d_ff=64, n_experts=2, adapter_rank=32, top_k=1,
                        pretrain_steps=150, train_steps=300, lr=1e-2,
                        batch_size=16)
        out = str(tmp_path / "run")
        summary = pipeline_train(cfg, records, out)
        _, holdout = split_dataset(records, cfg.holdout_fraction, cfg.seed)
        result = pipeline_eval(out, holdout)
        elapsed = time.monotonic() - start

        ratio = summary["final_lm_loss"] / summary["initial_lm_loss"]
        ok = (ratio <= 0.5 and result["exact_match"] >= 0.9 and elapsed < 300.0)
        _verdict(7, ok, f"loss {summary['initial_lm_loss']:.4f} -> "
                        f"{summary['final_lm_loss']:.4f} (ratio {ratio:.3f}, "
                        f"need <= 0.5), held-out exact match "
                        f"{result['exact_match']:.3f} (need >= 0.9), "
                        f"{elapsed:.0f}s (limit 300s)")


class TestCriterion8DualStageValue:
    def test_ablations_and_scaling(self, tmp_path):
        from moce.harness import ablation_grid

        grid = ablation_grid(RunConfig(n_groups=2, n_experts=4, top_k=2))
        labels = [label for label, _ in grid]
        table_ok = len(labels) == 12 and len(set(labels)) == 12

        records = make_two_dialect_corpus(100, seed=0)

        def run(seed, n_groups, n_experts, top_k):
            cfg = RunConfig(seed=seed, n_groups=n_groups, d_model=24, n_layers=2,
                            n_heads=2, d_ff=48, n_experts=n_experts,
                            adapter_rank=4, top_k=top_k, pretrain_steps=40,
                            train_steps=250, lr=1e-2, batch_size=8)
            out = str(tmp_path / f"s{seed}_g{n_groups}_n{n_experts}_k{top_k}")
            pipeline_train(cfg, records, out)
            _, holdout = split_dataset(records, cfg.holdout_fraction, cfg.seed)
            return pipeline_eval(out, holdout)["mean_nll"]

        wins = 0
        n1 = []
        for seed in range(5):
            dual = run(seed, 2, 2, 1)
            noclust = run(seed, 1, 2, 1)
            notok = run(seed, 2, 1, 1)
            wins += int(dual <= noclust and dual <= notok)
            n1.append(notok)

        n2 = [run(seed, 2, 2, 2) for seed in range(5)]
        n4 = [run(seed, 2, 4, 2) for seed in range(5)]

        transitions_ok = True
        details = []
        for lo, hi, label in ((n1, n2, "1->2"), (n2, n4, "2->4")):
            diffs = np.array(hi) - np.array(lo)
            sem = diffs.std(ddof=1) / np.sqrt(len(diffs))
            band = 2.0 * sem
            if diffs.mean() > band:
                transitions_ok = False
            details.append(f"N{label} mean diff {diffs.mean():+.4f} (band {band:.4f})")

        ok = wins >= 3 and transitions_ok and table_ok
        _verdict(8, ok, f"dual-stage beat or matched both ablations in {wins}/5 "
                        f"seeds (need 3); expert scaling {'held' if transitions_ok else 'degraded'}: "
                        + ", ".join(details)
                        + f"; 12-row comparison table well-formed: {table_ok}")


class TestCriterion9DeterminismPersistence:
    def test_bit_exact_replay_and_round_trips(self, tmp_path):
        records = make_two_dialect_corpus(30, seed=0)
        cfg = RunConfig(seed=0, n_groups=2, d_model=16, n_layers=2, n_heads=2,
                        d_ff=24, n_experts=2, adapter_rank=4, top_k=1,
                        pretrain_steps=3, train_steps=4, lr=1e-2, batch_size=4)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        pipeline_train(cfg, records, a)
        pipeline_train(cfg, records, b)
        replay_identical = True
        for rel in ("metrics.jsonl", "embeddings.txt", "kmeans.txt",
                    "checkpoint/params.bin", "checkpoint/manifest.txt"):
            with open(f"{a}/{rel}", "rb") as fa, open(f"{b}/{rel}", "rb") as fb:
                if fa.read() != fb.read():
                    replay_identical = False

        model, _ = load_checkpoint(f"{a}/checkpoint")
        save_checkpoint(str(tmp_path / "again"), model, seed=0, step=4)
        reloaded, _ = load_checkpoint(str(tmp_path / "again"))
        ckpt_exact = all(
            pa.data.tobytes() == pb.data.tobytes()
            for (_, pa), (_, pb) in zip(model.named_parameters(),
                                        reloaded.named_parameters())
        )
        probe = [1, 5, 9, 2]
        logits_exact = np.array_equal(model.forward(probe, 0).data,
                                      reloaded.forward(probe, 0).data)
        decode_same = (greedy_decode(model, probe, 0, 8, 1)
                       == greedy_decode(reloaded, probe, 0, 8, 1))

        emb = embed_dataset([(r.record_id, r.instruction) for r in records], 32, 0)
        km = kmeans_fit(emb, 2, seed=0)
        save_kmeans(str(tmp_path / "km.txt"), km)
        km2 = load_kmeans(str(tmp_path / "km.txt"))
        centroid_dev = float(np.max(np.abs(km.centroids - km2.centroids)))
        same_labels = np.array_equal(kmeans_predict(km, emb).labels,
                                     kmeans_predict(km2, emb).labels)

        ok = (replay_identical and ckpt_exact and logits_exact and decode_same
              and centroid_dev <= 1e-9 and same_labels)
        _verdict(9, ok, f"replayed run bit-identical: {replay_identical}; "
                        f"checkpoint round trip bit-exact: {ckpt_exact}, logits "
                        f"bit-exact: {logits_exact}, decode stable: {decode_same}; "
                        f"k-means centroid drift {centroid_dev:.1e} (tol 1e-9), "
                        f"labels stable: {same_labels}")
