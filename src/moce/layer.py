"""The clustered mixture layer: adapter experts, per-group token routing,
and the router load-balance objective.

Routing happens in two stages. A sequence arrives already pinned to one
expert group (the clustering stage decided that); within the group, a
softmax router scores the group's adapter experts per token and the top-k
keep their original softmax weights with no renormalisation, so the weights
of unselected experts are simply zero. Each expert is a bottleneck
adapter over one shared frozen feed-forward block and contributes a
residual update; experts that win no tokens do no work at all.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .fileio import write_csv
from .tensor import (
    Tensor,
    activation,
    adapter_bank,
    add,
    concat_rows,
    matmul,
    mul,
    mul_rows,
    reciprocal,
    scatter_add_rows,
    softmax,
    take_entries,
    take_rows,
    tensor_sum,
)

log = logging.getLogger(__name__)

GENERAL_KEY = "general"

ROUTING_MODES = ("topk", "soft")


class FeedForward:
    """Two-layer feed-forward block; frozen once upcycling copies it."""

    def __init__(self, w1: Tensor, w2: Tensor, act: str = "gelu"):
        if w1.shape[1] != w2.shape[0]:
            raise ShapeError(f"feed-forward shapes do not chain: {w1.shape} then {w2.shape}")
        self.w1 = w1
        self.w2 = w2
        self.act = act

    @classmethod
    def init(cls, d_model: int, d_hidden: int, rng: np.random.Generator, act: str = "gelu",
             requires_grad: bool = False) -> "FeedForward":
        w1 = Tensor(rng.normal(0.0, d_model ** -0.5, size=(d_model, d_hidden)), requires_grad)
        w2 = Tensor(rng.normal(0.0, d_hidden ** -0.5, size=(d_hidden, d_model)), requires_grad)
        return cls(w1, w2, act)

    def forward(self, x: Tensor) -> Tensor:
        return matmul(activation(matmul(x, self.w1), self.act), self.w2)

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.w2]


class AdapterExpert:
    """A bottleneck adapter acting as one expert.

    Its update is act(base_out @ W_down) @ W_up, with its group's ``act``;
    ``adapter_bank`` computes it for all of one router call's experts at
    once, and the full output adds the residual input x. With W_up all
    zero the update is exactly zero, which is what makes zero-initialised
    upcycling function-preserving. ``forward_calls`` and ``rows_processed``
    count actual work for the sparsity assertions.
    """

    def __init__(self, w_down: Tensor, w_up: Tensor):
        if w_down.shape[1] != w_up.shape[0]:
            raise ShapeError(f"adapter shapes do not chain: {w_down.shape} then {w_up.shape}")
        if w_down.shape[0] != w_up.shape[1]:
            raise ShapeError(
                f"adapter must map back to its input width, got {w_down.shape} and {w_up.shape}"
            )
        self.w_down = w_down
        self.w_up = w_up
        self.forward_calls = 0
        self.rows_processed = 0

    @classmethod
    def init(cls, d_model: int, rank: int, rng: np.random.Generator) -> "AdapterExpert":
        # W_up starts at zero so a fresh expert is the identity; W_down is
        # small random so the bottleneck has distinct features to train.
        w_down = Tensor(rng.normal(0.0, d_model ** -0.5, size=(d_model, rank)), requires_grad=True)
        w_up = Tensor(np.zeros((rank, d_model)), requires_grad=True)
        return cls(w_down, w_up)

    def parameters(self) -> list[Tensor]:
        return [self.w_down, self.w_up]


class ExpertGroup:
    """One expert group: a router plus its private experts, which share one
    activation ``act``."""

    def __init__(self, router: Tensor, experts: list[AdapterExpert], act: str = "gelu"):
        if not experts:
            raise ContractError("an expert group needs at least one expert")
        if router.shape[1] != len(experts):
            raise ShapeError(
                f"router scores {router.shape[1]} experts but the group holds {len(experts)}"
            )
        self.router = router
        self.experts = experts
        self.act = act

    @classmethod
    def init(cls, d_model: int, n_experts: int, rank: int, rng: np.random.Generator,
             act: str = "gelu") -> "ExpertGroup":
        router = Tensor(rng.normal(0.0, 0.02, size=(d_model, n_experts)), requires_grad=True)
        experts = [AdapterExpert.init(d_model, rank, rng) for _ in range(n_experts)]
        return cls(router, experts, act)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def parameters(self) -> list[Tensor]:
        out = [self.router]
        for e in self.experts:
            out.extend(e.parameters())
        return out


def router_logits(w_router: Tensor, x: Tensor) -> Tensor:
    """Per-token expert scores: x @ W_G, one row per token."""
    return matmul(x, w_router)


def gate(logits: Tensor) -> Tensor:
    """Row-wise softmax over expert scores; every row sums to one."""
    return softmax(logits, axis=-1)


def top_k_mask(gates: np.ndarray, k: int) -> np.ndarray:
    """0/1 selection mask keeping the k largest entries per row.

    Ties resolve to the lowest expert index: the stable descending sort
    keeps equal values in original order.
    """
    if gates.ndim != 2:
        raise ShapeError(f"expected (tokens, experts) gate values, got shape {gates.shape}")
    n = gates.shape[1]
    if not (1 <= k <= n):
        raise ContractError(f"top-k needs 1 <= k <= {n}, got k={k}")
    mask = np.zeros_like(gates)
    order = np.argsort(-gates, axis=1, kind="stable")[:, :k]
    np.put_along_axis(mask, order, 1.0, axis=1)
    return mask


def top_k_select(weights: Tensor, k: int) -> Tensor:
    """Keep the k largest weights per row at their original values, zero the rest.

    The selection mask is treated as a constant in the backward pass:
    gradients flow only through the surviving entries.
    """
    row = weights.data.ndim == 1
    values = weights.data[None, :] if row else weights.data
    mask = top_k_mask(values, k)
    mask_t = Tensor(mask[0] if row else mask)
    return mul(weights, mask_t)


@dataclass
class _RouterStats:
    """Per-router accumulators backing the balance loss and the reports."""

    n_experts: int
    top1_counts: np.ndarray
    token_count: int = 0
    gate_prob_sums: list = field(default_factory=list)   # graph tensors, one (1, N) per batch
    gate_value_sum: np.ndarray | None = None             # plain values for reporting
    selected_counts: np.ndarray | None = None

    def __post_init__(self):
        if self.gate_value_sum is None:
            self.gate_value_sum = np.zeros(self.n_experts)
        if self.selected_counts is None:
            self.selected_counts = np.zeros(self.n_experts, dtype=np.int64)


@dataclass
class RoutingRecord:
    """Everything observed about routing during one or more forward passes.

    Keeps both plain numbers (for CSV / stats) and the live gate tensors
    each router produced (so the balance loss can backpropagate). The
    token-level ``rows`` are built only when read, from each router call's
    gate and selection arrays.
    """

    routers: dict = field(default_factory=dict)
    tokens_seen: int = 0
    active_experts_per_token: int | None = None
    _calls: list = field(default_factory=list, repr=False)   # (key, gates, mask, token indices)
    _starts: list = field(default_factory=list, repr=False)  # first token index of each sequence

    def advance(self, n_tokens: int) -> None:
        """Move the global token index past one sequence."""
        self._starts.append(self.tokens_seen)
        self.tokens_seen += n_tokens

    def _stats(self, key, n_experts: int) -> _RouterStats:
        stats = self.routers.get(key)
        if stats is None:
            stats = _RouterStats(n_experts=n_experts, top1_counts=np.zeros(n_experts, dtype=np.int64))
            self.routers[key] = stats
        elif stats.n_experts != n_experts:
            raise ContractError(f"router '{key}' changed expert count mid-record")
        return stats

    def observe(self, key, gates: Tensor, mask: np.ndarray, token_offset: int,
                rows: np.ndarray | None = None) -> None:
        """Record one router invocation over a block of tokens.

        ``mask`` marks the selected experts; the top-1 tally uses the
        pre-truncation argmax of the full gate row. Gate row t belongs to
        token ``token_offset + rows[t]`` (``rows`` defaults to 0, 1, ...).
        """
        g = gates.data
        stats = self._stats(key, g.shape[1])
        stats.token_count += g.shape[0]
        top1 = np.argmax(g, axis=1)
        np.add.at(stats.top1_counts, top1, 1)
        stats.gate_value_sum += g.sum(axis=0)
        stats.selected_counts += mask.astype(np.int64).sum(axis=0)
        ones = Tensor(np.ones((1, g.shape[0])))
        stats.gate_prob_sums.append(matmul(ones, gates))
        offsets = np.arange(g.shape[0]) if rows is None else np.asarray(rows, dtype=np.int64)
        self._calls.append((key, g, mask, token_offset + offsets))

    @property
    def rows(self) -> list:
        """Every selection as (token_idx, group, expert, weight).

        Ordered by sequence, then router call, then token, then expert: the
        order in which routing one sequence at a time would record them.
        """
        if not self._calls:
            return []
        calls, tokens, experts, weights = [], [], [], []
        for i, (_, g, mask, token_idx) in enumerate(self._calls):
            t, e = np.nonzero(mask)
            calls.append(np.full(t.size, i))
            tokens.append(token_idx[t])
            experts.append(e)
            weights.append(g[t, e])
        call, token, expert, weight = (np.concatenate(a) for a in (calls, tokens, experts, weights))
        sequence = np.searchsorted(np.asarray(self._starts, dtype=np.int64), token, side="right")
        order = np.lexsort((expert, token, call, sequence))
        keys = [c[0] for c in self._calls]
        return [(int(token[j]), keys[call[j]], int(expert[j]), float(weight[j])) for j in order]

    def load_fractions(self, key) -> np.ndarray:
        """f_i: fraction of this router's tokens whose top-1 expert is i."""
        stats = self.routers[key]
        if stats.token_count == 0:
            return np.zeros(stats.n_experts)
        return stats.top1_counts / stats.token_count

    def mean_gate_probs(self, key) -> np.ndarray:
        """P_i: mean gate probability of expert i over this router's tokens."""
        stats = self.routers[key]
        if stats.token_count == 0:
            return np.zeros(stats.n_experts)
        return stats.gate_value_sum / stats.token_count

    def write_csv(self, path: str) -> None:
        write_csv(path, ["token_idx", "group", "expert", "weight"],
                  [[token_idx, group, expert, f"{weight:.17g}"]
                   for token_idx, group, expert, weight in self.rows])


def load_balance_loss(record: RoutingRecord) -> Tensor:
    """Switch-style balance objective, summed over routers.

    Per router: N * sum_i f_i * P_i, where f_i is the top-1 load fraction
    (a constant, since argmax does not differentiate) and P_i the mean gate
    probability (a graph tensor, so routers feel the gradient). Uniform
    routing scores 1.0; total collapse onto one expert approaches N.
    """
    terms = []
    for key, stats in record.routers.items():
        if stats.token_count == 0:
            continue
        f = record.load_fractions(key)
        prob_sum = stats.gate_prob_sums[0]
        for extra in stats.gate_prob_sums[1:]:
            prob_sum = add(prob_sum, extra)
        weighted = mul(prob_sum, Tensor(f[None, :] * stats.n_experts / stats.token_count))
        terms.append(tensor_sum(weighted))
    if not terms:
        log.warning("load_balance_loss called on an empty routing record; returning 0")
        return Tensor(np.zeros(()))
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


class MoCELayer:
    """M expert groups over one shared frozen feed-forward block.

    ``forward`` runs the group whose index the sequence-level clustering
    chose; all other groups stay untouched, so their parameters receive
    no gradient. The optional general group (the two-path variant) routes
    every sequence regardless of cluster.
    """

    def __init__(self, groups: list[ExpertGroup], base_ffn: FeedForward, k: int,
                 mode: str = "topk", renormalize: bool = False, moe_scale: float = 1.0,
                 general_group: ExpertGroup | None = None):
        if not groups:
            raise ContractError("a mixture layer needs at least one expert group")
        n = groups[0].n_experts
        for g in groups:
            if g.n_experts != n:
                raise ContractError("all expert groups must hold the same number of experts")
        if mode not in ROUTING_MODES:
            raise ConfigError(f"unknown routing mode '{mode}', expected one of {ROUTING_MODES}")
        if not (1 <= k <= n):
            raise ConfigError(f"top-k must satisfy 1 <= k <= {n}, got {k}")
        self.groups = groups
        self.base_ffn = base_ffn
        self.k = k
        self.mode = mode
        self.renormalize = renormalize
        self.moe_scale = moe_scale
        self.general_group = general_group
        # Set by the owning model so stacked layers report their routers
        # under distinct keys; a lone layer keeps plain group ids.
        self.layer_key: int | None = None

    def _record_key(self, group_id: int | str):
        if self.layer_key is None:
            return group_id
        return f"L{self.layer_key}.{group_id}"

    def _dispatch(self, x: Tensor, base_out: Tensor, routes: list, k: int,
                  include_residual: bool, record: RoutingRecord | None) -> Tensor:
        """Route tokens and combine the selected experts' outputs.

        ``routes`` lists (record key, group, rows) for each router call;
        ``rows`` are the block rows the group owns, or None for all rows.
        The selected (token, expert) pairs are sorted by expert, so one
        ``adapter_bank`` op per router call runs each selected expert once,
        on exactly the rows that selected it; one weighted scatter-add
        returns every contribution to its token. With ``include_residual``
        each expert contributes its full output (update plus residual
        input) instead of the bare update.
        """
        outputs, weights, targets = [], [], []
        for key, group, rows in routes:
            gates = gate(router_logits(group.router, x if rows is None else take_rows(x, rows)))
            mask = top_k_mask(gates.data, k)
            if record is not None:
                record.observe(key, gates, mask, record.tokens_seen, rows)
            pair_expert, pair_token = np.nonzero(mask.T)
            pair_weight = take_entries(gates, pair_token, pair_expert)
            if self.renormalize and self.mode == "topk":
                totals = matmul(mul(gates, Tensor(mask)), Tensor(np.ones((mask.shape[1], 1))))
                inverse = take_entries(reciprocal(totals), pair_token, np.zeros_like(pair_token))
                pair_weight = mul(pair_weight, inverse)
            pair_row = pair_token if rows is None else rows[pair_token]
            bounds = np.searchsorted(pair_expert, np.arange(group.n_experts + 1))
            for expert, lo, hi in zip(group.experts, bounds[:-1], bounds[1:]):
                if hi > lo:
                    expert.forward_calls += 1
                    expert.rows_processed += int(hi - lo)
            update = adapter_bank(base_out, pair_row, bounds, [e.w_down for e in group.experts],
                                  [e.w_up for e in group.experts], group.act)
            outputs.append(add(update, take_rows(x, pair_row)) if include_residual else update)
            weights.append(pair_weight)
            targets.append(pair_row)
        combined = scatter_add_rows(mul_rows(concat_rows(outputs), concat_rows(weights)),
                                    np.concatenate(targets), x.shape[0])
        if self.moe_scale != 1.0:
            combined = mul(combined, self.moe_scale)
        return combined

    def _group_path(self, x: Tensor, base_out: Tensor, group_id,
                    record: RoutingRecord | None) -> Tensor:
        if x.shape[0] == 0:
            raise ContractError("cannot route an empty token block")
        row_groups = np.asarray(group_id, dtype=np.int64)
        if row_groups.ndim == 0:
            row_groups = np.full(x.shape[0], row_groups)
        if row_groups.shape != (x.shape[0],):
            raise ShapeError(f"need one group id per row, got {row_groups.shape} for {x.shape[0]} rows")
        if row_groups.min() < 0 or row_groups.max() >= len(self.groups):
            raise ContractError(f"group id out of range for {len(self.groups)} groups")
        present = np.unique(row_groups)
        routes = [(self._record_key(int(g)), self.groups[g],
                   None if present.size == 1 else np.nonzero(row_groups == g)[0])
                  for g in present]
        k = self.groups[0].n_experts if self.mode == "soft" else self.k
        return add(x, self._dispatch(x, base_out, routes, k, False, record))

    def _general_path(self, x: Tensor, base_out: Tensor, record: RoutingRecord | None) -> Tensor:
        if self.general_group is None:
            raise ContractError("this layer was built without a general group")
        if x.shape[0] == 0:
            raise ContractError("cannot route an empty token block")
        group = self.general_group
        k = group.n_experts if self.mode == "soft" else self.k
        return self._dispatch(x, base_out, [(self._record_key(GENERAL_KEY), group, None)], k,
                              True, record)

    def forward(self, x: Tensor, group_id, record: RoutingRecord | None = None) -> Tensor:
        """Group-path output: x plus the gated sum of selected adapter updates.

        ``group_id`` is one group for every row, or one group id per row of
        a packed block; each group present gets one router call over its
        own rows. With every W_up at zero this is exactly the identity on
        x, for any k, the property upcycled initialisation relies on.
        """
        return self._group_path(x, self.base_ffn.forward(x), group_id, record)

    def general_path(self, x: Tensor, record: RoutingRecord | None = None) -> Tensor:
        """The always-on second path: gated sum of full general-expert outputs."""
        return self._general_path(x, self.base_ffn.forward(x), record)

    def variant_forward(self, x: Tensor, group_id, record: RoutingRecord | None = None) -> Tensor:
        """Two-path output: the group path plus the general path, over one base FFN pass."""
        base_out = self.base_ffn.forward(x)
        return add(self._group_path(x, base_out, group_id, record),
                   self._general_path(x, base_out, record))

    def parameters(self) -> list[Tensor]:
        out = []
        for g in self.groups:
            out.extend(g.parameters())
        if self.general_group is not None:
            out.extend(self.general_group.parameters())
        return out

    def reset_instrumentation(self) -> None:
        for g in self.groups + ([self.general_group] if self.general_group else []):
            for e in g.experts:
                e.forward_calls = 0
                e.rows_processed = 0
