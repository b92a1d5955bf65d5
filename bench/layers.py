"""The traced run's layer map: which moce functions get a span, which
per-layer metric each span's self time feeds, and the counters read at
the same call boundaries.

Functions are wrapped by rebinding every reference to them in the loaded
``moce`` modules, and methods by rebinding the class attribute; ``Probe``
(the traced run's spans) and ``OpClock`` (the untraced run's operation
timing) undo all of it when their task ends. No file of the program is
touched, so a traced run writes the same bytes as an untraced one.
"""

from __future__ import annotations

import sys
from collections import Counter

from spans import Tracer, call_counts, overhead_frac, self_times, tape_nodes
from speed import Laps

# span name -> (defining module, function name)
FUNCTIONS = {
    "pipeline_train": ("moce.harness", "pipeline_train"),
    "pipeline_eval": ("moce.harness", "pipeline_eval"),
    "assign_group": ("moce.harness", "assign_group"),
    "embed_dataset": ("moce.embedding", "embed_dataset"),
    "elbow_select": ("moce.clustering", "elbow_select"),
    "kmeans_fit": ("moce.clustering", "kmeans_fit"),
    "kmeans_predict": ("moce.clustering", "kmeans_predict"),
    "lm_loss": ("moce.model", "lm_loss"),
    "load_balance_loss": ("moce.layer", "load_balance_loss"),
    "save_checkpoint": ("moce.model", "save_checkpoint"),
    "load_checkpoint": ("moce.model", "load_checkpoint"),
    "greedy_decode": ("moce.model", "greedy_decode"),
    "backward": ("moce.tensor", "backward"),
}

# span name -> (defining module, class name, method name)
METHODS = {
    "DenseBaseModel.forward": ("moce.model", "DenseBaseModel", "forward"),
    "MoCEModel.forward": ("moce.model", "MoCEModel", "forward"),
    "MoCELayer.forward": ("moce.layer", "MoCELayer", "forward"),
    "Adam.step": ("moce.optim", "Adam", "step"),
}

# Self time of these spans, in ms per traced task. "task" is the
# benchmark's own root span (its loop and glue), "walk" the node counting.
SPAN_METRIC = {
    "backward": "tensor.backward_ms",
    "Adam.step": "optim.adam_ms",
    "load_balance_loss": "layer.balance_loss_ms",
    "lm_loss": "model.lm_loss_ms",
    "DenseBaseModel.forward": "model.dense_forward_ms",
    "pipeline_train": "harness.self_ms",
    "pipeline_eval": "harness.self_ms",
    "assign_group": "harness.self_ms",
    "MoCEModel.forward": "model.forward_self_ms",
    "MoCELayer.forward": "layer.moce_forward_ms",
    "greedy_decode": "model.decode_self_ms",
    "save_checkpoint": "model.checkpoint_ms",
    "load_checkpoint": "model.checkpoint_ms",
    "embed_dataset": "embedding.embed_ms",
    "elbow_select": "clustering.elbow_ms",
    "kmeans_fit": "clustering.kmeans_fit_ms",
    "kmeans_predict": "clustering.predict_ms",
    "task": "bench.self_ms",
    "walk": "trace.walk_ms",
}

# Every per-layer metric the traced run prints, with its unit. A layer a
# workload never enters reads 0.
PER_LAYER = {
    **{metric: "ms" for metric in SPAN_METRIC.values()},
    "tensor.tape_nodes_per_step": "count",
    "tensor.decode_nodes_per_forward": "count",
    "layer.expert_rows_per_step": "count",
    "layer.expert_calls_per_step": "count",
    "clustering.kmeans_fit_calls": "count",
    "trace.overhead_frac": "ratio",
}


def _moce_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "moce" or name.startswith("moce."))]


def _experts(model):
    for layer in getattr(model, "layers", ()):
        groups = list(layer.groups)
        if getattr(layer, "general_group", None) is not None:
            groups.append(layer.general_group)
        for group in groups:
            yield from group.experts


class Rebinder:
    """Rebinds moce functions and methods in memory and restores them on exit.

    ``target`` is ``(module, attr)`` for a function, whose every reference in
    the loaded moce modules is rebound, or ``(module, class, attr)`` for a
    method. A target the program no longer has is skipped.
    """

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []

    def rebind(self, target: tuple, make_wrapper) -> None:
        if len(target) == 3:
            module, cls_name, attr = target
            owner = getattr(sys.modules.get(module), cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            owners = [(owner, attr)]
        else:
            module, attr = target
            original = getattr(sys.modules.get(module), attr, None)
            owners = [(mod, name) for mod in _moce_modules()
                      for name, value in list(vars(mod).items())
                      if original is not None and value is original]
        if original is None:
            return
        wrapper = make_wrapper(original)
        for owner, name in owners:
            self._restore.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


class OpClock(Rebinder):
    """Times a task's operations without recording spans.

    An operation ends at every return of one program function, and the
    last one at the task's end. ``laps`` holds their durations, which add
    up to the task's wall time less the reference runs between them (see
    ``speed.Laps``).
    """

    def __init__(self, target: tuple):
        super().__init__()
        self.target = target
        self.laps = Laps()

    def __enter__(self) -> "OpClock":
        laps = self.laps

        def make_wrapper(original):
            def clocked(*args, **kwargs):
                result = original(*args, **kwargs)
                laps.lap()
                return result
            return clocked

        self.rebind(self.target, make_wrapper)
        laps.start()
        return self

    def __exit__(self, *exc) -> None:
        self.laps.lap()
        super().__exit__(*exc)


class Probe(Rebinder):
    """Installs the spans and counters of one traced task, and removes them.

    Counters:
    - ``tape_nodes``/``backward_calls``: nodes walked below each loss handed
      to ``backward``, before the replay consumes the graph.
    - ``decode_nodes``/``decode_forwards``: nodes below the logits of every
      model forward made inside ``greedy_decode``.
    - ``expert_rows``/``expert_calls``/``expert_steps``: the adapters'
      ``rows_processed`` and ``forward_calls`` of each model handed to
      ``save_checkpoint``, with the step count it is saved at. In
      ``pipeline_train`` that is the freshly trained model, whose counters
      hold exactly the adapter-training forwards.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer
        self.counts: Counter = Counter()

    def __enter__(self) -> "Probe":
        for span, target in {**FUNCTIONS, **METHODS}.items():
            self.rebind(target, lambda original, span=span: self._wrapper(span, original))
        return self

    def _wrapper(self, span: str, original):
        tracer, counts = self.tracer, self.counts
        if span == "backward":
            def traced_backward(loss, *args, **kwargs):
                counts["tape_nodes"] += tracer.call("walk", tape_nodes, loss)
                counts["backward_calls"] += 1
                return tracer.call(span, original, loss, *args, **kwargs)
            return traced_backward
        if span == "MoCEModel.forward":
            def traced_forward(*args, **kwargs):
                in_decode = tracer.current() == "greedy_decode"
                logits = tracer.call(span, original, *args, **kwargs)
                if in_decode:
                    counts["decode_nodes"] += tracer.call("walk", tape_nodes, logits)
                    counts["decode_forwards"] += 1
                return logits
            return traced_forward
        if span == "save_checkpoint":
            def traced_save(directory, model, *args, **kwargs):
                experts = list(_experts(model))
                counts["expert_rows"] += sum(e.rows_processed for e in experts)
                counts["expert_calls"] += sum(e.forward_calls for e in experts)
                counts["expert_steps"] += int(kwargs.get("step", args[1] if len(args) > 1 else 0))
                return tracer.call(span, original, directory, model, *args, **kwargs)
            return traced_save
        return tracer.wrap(span, original)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counts: Counter, traced_s: list[float],
                  untraced_s: list[float]) -> dict[str, float]:
    """Every PER_LAYER metric from the spans and counters of ``len(traced_s)`` tasks."""
    n_tasks = len(traced_s)
    out = {metric: 0.0 for metric in PER_LAYER}
    for name, seconds in self_times(tracer.spans).items():
        out[SPAN_METRIC[name]] += seconds * 1000.0 / n_tasks
    calls = call_counts(tracer.spans)
    out["tensor.tape_nodes_per_step"] = _per(counts["tape_nodes"], counts["backward_calls"])
    out["tensor.decode_nodes_per_forward"] = _per(counts["decode_nodes"], counts["decode_forwards"])
    out["layer.expert_rows_per_step"] = _per(counts["expert_rows"], counts["expert_steps"])
    out["layer.expert_calls_per_step"] = _per(counts["expert_calls"], counts["expert_steps"])
    out["clustering.kmeans_fit_calls"] = calls["kmeans_fit"] / n_tasks
    out["trace.overhead_frac"] = overhead_frac(traced_s, untraced_s)
    return out
