"""The clustered mixture layer: adapter experts, per-group token routing,
and the router load-balance objective.

Routing happens in two stages. A sequence arrives already pinned to one
expert group (the clustering stage decided that); within the group, a
softmax router scores the group's adapter experts per token and the top-k
keep their original softmax weights with no renormalisation, so the weights
of unselected experts are simply zero. Each expert is a bottleneck
adapter over one shared frozen feed-forward block, with that block's
activation, and contributes an update; the residual x is added once per
layer. Per layer and path one ``router_gates`` op scores a packed block
for every group present, each group over its own rows, and one
``adapter_mixture`` op takes each row's chosen experts, runs every
selected expert once, with one activation call over all of their rows,
and adds the weighted updates onto its ``skip``; experts that win no
tokens do no work at all. ``MoCELayer.forward`` is the one routed
forward: the group path is two engine ops beside the frozen
feed-forward, with x as its skip, and a layer that holds a general
group (the two-path variant) adds one more call over the same
feed-forward rows, with the group path's output as its skip.
``RoutingRecord`` files each router call under its router when
observed, with the (T, k) expert columns the call chose; the load
fractions, gate means, selection counts and token-level routes are
computed from those calls when read, and the balance loss is one
``gate_balance`` op over them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .fileio import write_csv
from .tensor import (Tensor, _scipy_erf, adapter_mixture, check_activation, feed_forward,
                     gate_balance, integers, router_gates)

log = logging.getLogger(__name__)

GENERAL_KEY = "general"

ROUTING_MODES = ("topk", "soft")


class FeedForward:
    """Two-layer feed-forward block, built frozen; adapters read its features.

    An unknown activation raises ContractError when the block is built. A
    gelu block loads scipy's erf when built, not at its first forward, so
    a missing scipy fails as ConfigError while a model is built, before a
    run writes anything.
    """

    def __init__(self, w1: Tensor, w2: Tensor, act: str = "gelu"):
        if w1.shape[1] != w2.shape[0]:
            raise ShapeError(f"feed-forward shapes do not chain: {w1.shape} then {w2.shape}")
        check_activation(act)
        if act == "gelu":
            _scipy_erf()
        self.w1 = w1
        self.w2 = w2
        self.act = act

    @classmethod
    def init(cls, d_model: int, d_hidden: int, rng: np.random.Generator,
             act: str = "gelu") -> "FeedForward":
        w1 = Tensor(rng.normal(0.0, d_model ** -0.5, size=(d_model, d_hidden)))
        w2 = Tensor(rng.normal(0.0, d_hidden ** -0.5, size=(d_hidden, d_model)))
        return cls(w1, w2, act)

    def forward(self, x: Tensor) -> Tensor:
        return feed_forward(x, self.w1, self.w2, self.act)


class AdapterExpert:
    """A bottleneck adapter acting as one expert.

    Its update is act(base_out @ W_down) @ W_up, with the base block's ``act``;
    ``adapter_mixture`` computes it for all of one router call's experts at
    once, and the expert adds nothing else: the layer adds the residual x
    once. With W_up all zero the update is exactly zero, which is what makes
    zero-initialised upcycling function-preserving. ``forward_calls`` and
    ``rows_processed`` count actual work for the sparsity assertions.
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


class ExpertGroup:
    """One expert group: a router plus its private experts."""

    def __init__(self, router: Tensor, experts: list[AdapterExpert]):
        if not experts:
            raise ContractError("an expert group needs at least one expert")
        if router.shape[1] != len(experts):
            raise ShapeError(
                f"router scores {router.shape[1]} experts but the group holds {len(experts)}"
            )
        self.router = router
        self.experts = experts

    @classmethod
    def init(cls, d_model: int, n_experts: int, rank: int,
             rng: np.random.Generator) -> "ExpertGroup":
        router = Tensor(rng.normal(0.0, 0.02, size=(d_model, n_experts)), requires_grad=True)
        experts = [AdapterExpert.init(d_model, rank, rng) for _ in range(n_experts)]
        return cls(router, experts)

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [(f"{prefix}.router", self.router)]
        for e, expert in enumerate(self.experts):
            out += [(f"{prefix}.expert{e}.w_down", expert.w_down),
                    (f"{prefix}.expert{e}.w_up", expert.w_up)]
        return out


def _top_k_order(gates: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k largest entries of each row, largest first.

    Ties resolve to the lowest expert index: the stable descending sort
    keeps equal values in original order.
    """
    return (-gates).argsort(axis=1, kind="stable")[:, :k]


def _picked(array: np.ndarray, rows) -> np.ndarray:
    return array if rows is None else array[rows]


@dataclass
class RoutingRecord:
    """Everything observed about routing during one or more forward passes.

    Files each router call under its router when observed: the live gate
    tensor (so the balance loss can backpropagate), the router's rows of
    it, the (T, k) expert columns its rows chose, the token offset and the
    call's place among all calls. Everything else, from the load fractions
    to the token-level ``rows``, is computed from those calls when read,
    adding each call's terms in call order.
    """

    tokens_seen: int = 0
    _routers: dict = field(default_factory=dict, repr=False)  # key -> [(gates, chosen, rows, offset, call)]
    _n_calls: int = field(default=0, repr=False)
    _starts: list = field(default_factory=list, repr=False)  # first token index of each sequence

    def advance(self, n_tokens: int) -> None:
        """Move the global token index past one sequence."""
        self._starts.append(self.tokens_seen)
        self.tokens_seen += n_tokens

    def observe(self, key, gates: Tensor, chosen: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Record one router's share of a router call over a block of tokens.

        ``rows`` selects this router's rows of the block's ``gates`` and
        ``chosen`` (None: every row), ``chosen`` holds each row's selected
        gate columns, and block row r is token ``tokens_seen + r``. A key
        whose gates change width raises ContractError. Records no engine
        op, computes nothing and copies nothing.
        """
        calls = self._routers.setdefault(key, [])
        if calls and calls[0][0].shape[1] != gates.shape[1]:
            raise ContractError(f"router '{key}' changed expert count mid-record")
        calls.append((gates, chosen, rows, self.tokens_seen, self._n_calls))
        self._n_calls += 1

    @property
    def routers(self) -> dict:
        """Each router's calls as (block gate tensor, its rows or None for all)."""
        return {key: [(gates, rows) for gates, _, rows, _, _ in calls]
                for key, calls in self._routers.items()}

    def _gate_values(self, key) -> list[np.ndarray]:
        return [_picked(gates.data, rows) for gates, _, rows, _, _ in self._routers[key]]

    @property
    def rows(self) -> list:
        """Every selection as (token_idx, group, expert, weight).

        Ordered by sequence, then router call, then token, then expert
        (ascending): the order in which routing one sequence at a time
        would record them.
        """
        if not self._routers:
            return []
        keys = [None] * self._n_calls
        calls, tokens, experts, weights = [], [], [], []
        for key, entries in self._routers.items():
            for gates, chosen, rows, offset, call in entries:
                keys[call] = key
                picked = _picked(chosen, rows)
                t = np.repeat(np.arange(picked.shape[0]), picked.shape[1])
                calls.append(np.full(t.size, call))
                tokens.append(offset + (t if rows is None else np.asarray(rows, dtype=np.int64)[t]))
                experts.append(picked.ravel())
                weights.append(np.take_along_axis(_picked(gates.data, rows), picked, axis=1).ravel())
        call, token, expert, weight = (np.concatenate(a) for a in (calls, tokens, experts, weights))
        sequence = np.searchsorted(np.asarray(self._starts, dtype=np.int64), token, side="right")
        order = np.lexsort((expert, token, call, sequence))
        return [(int(token[j]), keys[call[j]], int(expert[j]), float(weight[j])) for j in order]

    def load_fractions(self, key) -> np.ndarray:
        """f_i: fraction of this router's tokens whose top-1 expert is i."""
        gates = self._gate_values(key)
        top1 = np.concatenate([g.argmax(axis=1) for g in gates])
        return np.bincount(top1, minlength=gates[0].shape[1]) / top1.size

    def mean_gate_probs(self, key) -> np.ndarray:
        """P_i: mean gate probability of expert i over this router's tokens."""
        gates = self._gate_values(key)
        total = np.zeros(gates[0].shape[1])
        for g in gates:
            total += np.add.reduce(g, axis=0)
        return total / sum(g.shape[0] for g in gates)

    def selections(self, key) -> np.ndarray:
        """How many of this router's tokens selected each expert."""
        calls = self._routers[key]
        width = calls[0][0].shape[1]
        return sum(np.bincount(_picked(chosen, rows).ravel(), minlength=width)
                   for _, chosen, rows, _, _ in calls)

    def write_csv(self, path: str) -> None:
        write_csv(path, ["token_idx", "group", "expert", "weight"], self.rows)


def load_balance_loss(record: RoutingRecord) -> Tensor:
    """Switch-style balance objective, summed over routers.

    Per router: N * sum_i f_i * P_i, where f_i is the top-1 load fraction
    (a constant, since argmax does not differentiate) and P_i the mean gate
    probability (read from the recorded gate tensors, so routers feel the
    gradient). Uniform routing scores 1.0; total collapse onto one expert
    approaches N. One ``gate_balance`` op computes it for every router.
    """
    routers = record.routers
    if not routers:
        log.warning("load_balance_loss called on an empty routing record; returning 0")
        return Tensor(np.zeros(()))
    weights = []
    for key, calls in routers.items():
        n_tokens = sum(gates.shape[0] if rows is None else len(rows) for gates, rows in calls)
        weights.append(record.load_fractions(key)[None, :] * calls[0][0].shape[1] / n_tokens)
    return gate_balance(list(routers.values()), weights)


class MoCELayer:
    """M expert groups over one shared frozen feed-forward block.

    ``forward`` runs the group whose index the sequence-level clustering
    chose; all other groups stay untouched, so their parameters receive
    no gradient. The optional general group (the two-path variant) routes
    every sequence regardless of cluster. Construction settles the rule
    of both paths: soft mode is top-N (``k`` becomes N), and only top-k
    mode renormalises the kept weights.
    """

    def __init__(self, groups: list[ExpertGroup], base_ffn: FeedForward, k: int,
                 mode: str = "topk", renormalize: bool = False, moe_scale: float = 1.0,
                 general_group: ExpertGroup | None = None):
        if not groups:
            raise ContractError("a mixture layer needs at least one expert group")
        n = groups[0].n_experts
        for g in groups if general_group is None else [*groups, general_group]:
            if g.n_experts != n:
                raise ContractError("all expert groups must hold the same number of experts")
        if mode not in ROUTING_MODES:
            raise ConfigError(f"unknown routing mode '{mode}', expected one of {ROUTING_MODES}")
        if not (1 <= k <= n):
            raise ConfigError(f"top-k must satisfy 1 <= k <= {n}, got {k}")
        self.groups = groups
        self.base_ffn = base_ffn
        self.k = n if mode == "soft" else k
        self.mode = mode
        self.renormalize = renormalize and mode == "topk"
        self.moe_scale = moe_scale
        self.general_group = general_group
        # Set by the owning model so stacked layers report their routers
        # under distinct keys; a lone layer keeps plain group ids.
        self.layer_key: int | None = None

    def _record_key(self, group_id: int | str):
        if self.layer_key is None:
            return group_id
        return f"L{self.layer_key}.{group_id}"

    def _dispatch(self, x: Tensor, base_out: Tensor, routes: list,
                  record: RoutingRecord | None, skip: Tensor | None = None) -> Tensor:
        """Route tokens and combine the selected experts' updates, in one call.

        ``routes`` lists (record key, group, rows) for each group present,
        in ascending group id; ``rows`` are the block rows the group owns,
        or None for all rows of a lone group. One ``router_gates`` op
        scores each row with its group's router, and the row keeps its top
        ``self.k``. A selection's global expert id is its group's slot in
        ``routes`` times N plus the gate column, and one ``adapter_mixture``
        runs each selected expert once, on exactly the rows that selected
        it, and returns the weighted sum of the updates, plus ``skip`` when
        given. An empty block raises ContractError.
        """
        if x.shape[0] == 0:
            raise ContractError("cannot route an empty token block")
        groups = [group for _, group, _ in routes]
        gates = router_gates(x, [g.router for g in groups], [rows for _, _, rows in routes])
        chosen = _top_k_order(gates.data, self.k)
        if record is not None:
            for key, _, rows in routes:
                record.observe(key, gates, chosen, rows)
        mask = None
        if self.renormalize:
            mask = np.zeros_like(gates.data)
            np.put_along_axis(mask, chosen, 1.0, axis=1)
        if len(routes) > 1:
            first = np.empty(x.shape[0], dtype=np.int64)  # each row's first global expert id
            for slot, (_, group, rows) in enumerate(routes):
                first[rows] = slot * group.n_experts
            chosen = chosen + first[:, None]
        experts = [e for g in groups for e in g.experts]
        counts = np.bincount(chosen.ravel(), minlength=len(experts)).tolist()
        for expert, count in zip(experts, counts):
            if count:
                expert.forward_calls += 1
                expert.rows_processed += count
        return adapter_mixture(base_out, gates, chosen, [e.w_down for e in experts],
                               [e.w_up for e in experts], self.base_ffn.act,
                               mask, self.moe_scale, skip)

    def forward(self, x: Tensor, group_id, record: RoutingRecord | None = None,
                base_out: Tensor | None = None) -> Tensor:
        """x plus the gated sum of the selected adapter updates of the group
        path, plus, when the layer holds a general group, that of the
        general path.

        ``group_id`` is one group for every row, or one group id per row of
        a packed block; one router call scores each group present over its
        own rows. ``base_out`` is the frozen feed-forward's rows over x when
        the caller has them already; both paths read the same rows. The
        general path routes every row, and its dispatch adds its updates
        onto the group path's output. With every W_up at zero each update
        is exactly zero, so the layer is exactly the identity on x, for any
        k and with or without the general path, the property upcycled
        initialisation relies on.
        """
        row_groups = integers(group_id, "group ids must be integers")
        if row_groups.ndim == 0:
            present, rows = row_groups.reshape(1), [None]
        elif row_groups.shape != (x.shape[0],):
            raise ShapeError(f"need one group id per row, got {row_groups.shape} for {x.shape[0]} rows")
        else:
            present = np.unique(row_groups)
            rows = [None] if present.size == 1 else [np.nonzero(row_groups == g)[0] for g in present]
        # An empty block has no group present, and ``_dispatch`` rejects it.
        if present.size and (present[0] < 0 or present[-1] >= len(self.groups)):
            raise ContractError(f"group id out of range for {len(self.groups)} groups")
        routes = [(self._record_key(int(g)), self.groups[g], r) for g, r in zip(present, rows)]
        base_out = self.base_ffn.forward(x) if base_out is None else base_out
        out = self._dispatch(x, base_out, routes, record, skip=x)
        if self.general_group is None:
            return out
        general = [(self._record_key(GENERAL_KEY), self.general_group, None)]
        return self._dispatch(x, base_out, general, record, skip=out)

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = [p for g, group in enumerate(self.groups)
               for p in group.named_parameters(f"{prefix}.group{g}")]
        if self.general_group is not None:
            out += self.general_group.named_parameters(f"{prefix}.general")
        return out
