"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload train-short --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The load is a closed loop with one caller: set up repeatedly to time
set-up, keep the first set-up's inputs, then run the workload's task back
to back until the next one would pass ``--seconds``, with at least two
tasks so that replays can be compared. Every output is checked.

With ``--trace 0`` no span is recorded and the end-to-end metrics are
printed. Each untraced task is split into operations at every return of
one program function (the workload's ``op``), set-up is timed set-up by
set-up, and every such lap is scaled to a fixed machine speed measured by
a reference run next to it (see ``speed.py``). The metrics are the
medians of the scaled laps. With ``--trace 1`` untraced and traced tasks
alternate, and the per-layer metrics come from the traced ones (see
``layers.py``).

Standard output carries one JSON object per line: the environment, the
workload's detail figures, every check, and last the result with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0 means a
result was printed (``correct`` says whether the outputs passed); 2 means
the run could not start, for instance because ``src/moce`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
# One BLAS thread: the single caller's ops are small, and a second thread
# would only compete with it for the machine's two cores.
BLAS_THREADS = "1"
MIN_TASKS = 2
# Set-up is repeated for at least SETUP_S seconds and SETUP_MIN times.
SETUP_S = 4.0
SETUP_MIN = 10
WORKLOAD_NAMES = ("train-short", "decode-long", "cluster-elbow")

END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def environment() -> dict:
    import numpy as np

    return {
        "commit": _git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
    }


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def run(args) -> int:
    from layers import PER_LAYER, OpClock, Probe, layer_metrics
    from spans import Tracer
    from speed import Laps
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        # Every set-up is timed; the first one's inputs are kept, and each
        # leaves its "replay" digest, if it has one, for the checks.
        state, replays, setups = None, [], Laps()
        setup_end = time.perf_counter() + SETUP_S
        setups.start()
        while len(setups.laps) < SETUP_MIN or time.perf_counter() < setup_end:
            latest = workload.setup(args.seed, tempfile.mkdtemp(dir=work))
            setups.lap()
            state = state or latest
            replays.append(latest.get("replay"))
        del latest

        tracer = Tracer()
        probe = Probe(tracer)
        outcomes, untraced_s, traced_s = [], [], []
        op_s, scaled_op_s, ref_s = [], [], []
        task_errors = 0
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(outcomes) % 2 == 1
            run_dir = tempfile.mkdtemp(dir=work)
            try:
                if traced:
                    with probe:
                        start = time.perf_counter()
                        raw = tracer.call("task", workload.task, state, run_dir)
                        elapsed = time.perf_counter() - start
                else:
                    with OpClock(workload.op) as clock:
                        raw = workload.task(state, run_dir)
                    elapsed = sum(clock.laps.laps)
                    op_s += clock.laps.laps
                    scaled_op_s += clock.laps.scaled()
                    ref_s += clock.laps.refs
                outcomes.append(workload.inspect(raw, run_dir))
            except Exception:  # a failing program is a result, not a crash
                traceback.print_exc()
                task_errors += 1
                break
            finally:
                shutil.rmtree(run_dir)
            (traced_s if traced else untraced_s).append(elapsed)
            median = statistics.median(untraced_s + traced_s)
            if len(outcomes) >= MIN_TASKS and time.perf_counter() + median > deadline:
                break

        checks = workload.checks(state, replays, outcomes) if outcomes else []
        failed = task_errors + sum(not c.ok for c in checks)
        attempted = len(outcomes) + task_errors + len(checks)
        _emit({"environment": environment()})
        if len(outcomes) >= MIN_TASKS and untraced_s:
            _emit({"detail": dict(workload.detail(state, outcomes), fail_rate=failed / attempted,
                                  ops=len(op_s), op_ms_p50_unscaled=1000 * statistics.median(op_s),
                                  reference_ms_p50=1000 * statistics.median(ref_s),
                                  task_s_p50=statistics.median(untraced_s),
                                  setups=len(setups.laps),
                                  setup_s_unscaled=statistics.median(setups.laps),
                                  task_s_each=untraced_s, traced_task_s_each=traced_s)})
        _emit({"checks": [vars(c) for c in checks]})

        metrics, units = {}, END_TO_END
        if args.trace and traced_s:
            metrics = layer_metrics(tracer, probe.counts, traced_s, untraced_s)
            units = PER_LAYER
        elif not args.trace and untraced_s:
            metrics = {
                "setup_s": statistics.median(setups.scaled()),
                "op_ms_p50": 1000 * statistics.median(scaled_op_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        _emit({"correct": failed == 0 and len(outcomes) >= MIN_TASKS,
               "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}})
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "moce" / "__init__.py").is_file():
        print(f"error: {src / 'moce'} not found; run from the root of a moce checkout",
              file=sys.stderr)
        return 2
    # Set before numpy loads, so the BLAS thread pool is created at this size.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import moce

    if Path(moce.__file__).resolve().parent != (src / "moce").resolve():
        print(f"error: imported moce from {moce.__file__}, not from {src}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
