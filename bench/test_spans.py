"""Checks of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest bench -q
"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import Span, Tracer, call_counts, overhead_frac, self_times, tape_nodes  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    """A legal metric or workload name: a letter or digit, then at most 63
    more letters, digits, ``_``, ``.`` and ``-``."""
    return NAME_RE.fullmatch(name) is not None


class FakeClock:
    """Advances one second per reading, so span bounds are predictable."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 5.0, 9.0, 0),
    ]
    st = self_times(spans)
    assert st == {"root": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_sums_repeated_names():
    spans = [Span("task", 0.0, 6.0, -1), Span("f", 1.0, 2.0, 0), Span("f", 3.0, 5.0, 0)]
    assert self_times(spans) == {"task": 3.0, "f": 3.0}
    assert call_counts(spans) == {"task": 1, "f": 2}


def test_tracer_records_parents_and_bounds():
    tracer = Tracer(clock=FakeClock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert tracer.call("task", outer, 2) == 9
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("task", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    # clock readings: task 1, outer 2, inner 3-4, inner 5-6, outer end 7, task end 8
    assert [(s.start, s.end) for s in tracer.spans] == [(1, 8), (2, 7), (3, 4), (5, 6)]
    assert self_times(tracer.spans) == {"task": 2.0, "outer": 3.0, "inner": 2.0}


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("outer", tracer.wrap("boom", boom))
    assert tracer.current() is None
    assert all(s.end > s.start for s in tracer.spans)


def test_overhead_is_ratio_of_medians():
    assert overhead_frac([1.2, 1.1, 5.0], [1.0, 0.9, 1.1]) == pytest.approx(1.2)


@pytest.mark.parametrize("name", ["tensor.backward_ms", "decode-long", "setup_s", "9x", "a" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "x/y", "a" * 65, "ms\n"])
def test_invalid_names(name):
    assert not valid_name(name)


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(valid_name(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_every_span_feeds_a_metric():
    wrapped = set(layers.FUNCTIONS) | set(layers.METHODS) | {"task", "walk"}
    assert wrapped == set(layers.SPAN_METRIC)


def _node(parents=(), recorded=True, requires_grad=True):
    return SimpleNamespace(_parents=tuple(parents), requires_grad=requires_grad,
                           _backward_fn=(lambda g: g) if recorded else None)


def test_tape_walk_counts_each_recorded_node_once():
    leaf = _node(recorded=False)
    const = _node(recorded=False, requires_grad=False)
    a = _node([leaf, const])
    b = _node([a, a])
    loss = _node([a, b])
    assert tape_nodes(loss) == 3
    assert tape_nodes(_node(recorded=False)) == 0


def test_tape_walk_matches_the_engine():
    from moce.tensor import Tensor, add, mul, tensor_sum

    w = Tensor([[1.0, 2.0]], requires_grad=True)
    h = mul(w, 3.0)
    loss = tensor_sum(add(h, h))
    assert tape_nodes(loss) == 3
    frozen = tensor_sum(mul(Tensor([[1.0]]), 2.0))
    assert tape_nodes(frozen) == 0


def test_probe_spans_calls_and_restores_the_program():
    import numpy as np

    import moce
    import moce.harness

    original = moce.harness.kmeans_fit
    tracer = Tracer()
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    with layers.Probe(tracer):
        assert moce.harness.kmeans_fit is not original
        tracer.call("task", moce.elbow_select, points, k_max=3, seed=0)
    assert moce.harness.kmeans_fit is original
    assert moce.clustering.kmeans_fit is original
    counts = call_counts(tracer.spans)
    assert counts["elbow_select"] == 1
    assert counts["kmeans_fit"] == 9  # k = 1..3, three attempts each
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "kmeans_fit"}
    assert parents == {"elbow_select"}


def test_op_clock_splits_the_task_at_each_return_and_restores():
    import numpy as np

    import moce

    original = moce.kmeans_fit
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    with layers.OpClock(("moce.clustering", "kmeans_fit")) as clock:
        assert moce.clustering.kmeans_fit is not original
        moce.elbow_select(points, k_max=3, seed=0)
    assert moce.kmeans_fit is original and moce.clustering.kmeans_fit is original
    assert len(clock.laps.laps) == 9 + 1  # nine fits, then the tail up to the task's end
    assert len(clock.laps.refs) == len(clock.laps.laps) + 1


def test_laps_leave_out_the_reference_runs():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0, 11.0])
    laps = speed.Laps(clock=lambda: next(ticks), work=lambda: None)
    laps.start()  # reference 0 -> 2
    laps.lap()    # lap 2 -> 3, reference 4 -> 5
    laps.lap()    # lap 5 -> 9, reference 10 -> 11
    assert laps.laps == [1.0, 4.0]
    assert laps.refs == [2.0, 1.0, 1.0]
    r = speed.REFERENCE_S
    assert laps.scaled() == [pytest.approx(r), pytest.approx(4 * r)]


def test_scaling_follows_the_local_reference_speed():
    # The machine halves its speed after lap 19: references and laps take twice as long.
    laps = [1.0] * 20 + [2.0] * 20
    refs = [1.0] * 20 + [2.0] * 21
    out = speed.scaled(laps, refs)
    assert out[0] == out[-1] == pytest.approx(speed.REFERENCE_S)
    with pytest.raises(ValueError):
        speed.scaled(laps, refs[:-1])

