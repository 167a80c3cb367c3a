"""Benchmark of the GMQL system: cold CLI, warm server and 2-node cluster.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` records
spans around every call into the system and reports the per-layer
metrics instead (``LEDGER.md`` maps each to the end-to-end metric it
should move).  Every result is checked against the naive-engine oracle.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans, results and an environment stamp are written under
``.perfbench/`` in the checkout; scratch data lives in a per-run
directory there and is removed (and checked for leaks) at the end.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

#: A run that takes longer than this is stuck.
WATCHDOG_SECONDS = 165


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop (machine drift indicator)."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


def environment_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": calibration_seconds(),
    }


def declared_metrics() -> tuple:
    """``(end_to_end, per_layer)`` metric lists from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _shm_segments() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def hygiene(run, shm_before: set, tmp_dir: str) -> None:
    """Leaked children, shm segments or scratch directories fail a check."""
    import multiprocessing

    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    children = multiprocessing.active_children()
    run.check(not children, f"hygiene: live worker processes {children}")
    leaked = sorted(_shm_segments() - shm_before)
    run.check(not leaked, f"hygiene: new /dev/shm segments {leaked}")
    left = sorted(os.listdir(tmp_dir))
    run.check(not left, f"hygiene: leftover scratch entries {left}")


def _kill(pid: int) -> None:
    """SIGKILL *pid* and wait until it has ended."""
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        return
    except ChildProcessError:  # a grandchild: its parent or init reaps it
        pass
    except OSError:
        return
    deadline = time.monotonic() + 5.0
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        time.sleep(0.01)


def stop_child_processes() -> None:
    """End every process this run started and wait for each.

    Runs after the hygiene check, which counts leaked workers as
    failures.  The multiprocessing resource tracker, started with the
    program's first shared-memory segment, would otherwise outlive this
    process: it ends only when every holder of its pipe has closed it.
    """
    from multiprocessing import resource_tracker

    from workloads import descendants

    tracker = resource_tracker._resource_tracker
    for pid in descendants(os.getpid()):
        if pid != tracker._pid:
            _kill(pid)
    tracker._stop()


def _abort_hung_run() -> None:
    from workloads import descendants

    faulthandler.dump_traceback(all_threads=True)
    for pid in descendants(os.getpid()):
        _kill(pid)
    shutil.rmtree(os.path.join(WORK, f"run-{os.getpid()}"), ignore_errors=True)
    os._exit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A hung run dumps every thread's stack, kills its worker processes
    # and exits non-zero in time; faulthandler's own exit is the backstop
    # for a hang that holds the GIL.
    watchdog = threading.Timer(WATCHDOG_SECONDS, _abort_hung_run)
    watchdog.daemon = True
    watchdog.start()
    faulthandler.dump_traceback_later(WATCHDOG_SECONDS + 5, exit=True)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tempfile

    from inputs import Oracle, source_fingerprint
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end_spec, per_layer_spec = declared_metrics()

    stamp = environment_stamp()
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir)
    # Every temporary file of the system lands in the checkout; the
    # relative path keeps worker socket addresses short.
    tempfile.tempdir = os.path.relpath(tmp_dir)
    shm_before = _shm_segments()
    tracer = Tracer(enabled=bool(args.trace))
    oracle = Oracle(args.seed, os.path.join(WORK, "oracle"),
                    source_fingerprint(SRC))
    run = Run(args.workload, args.seed, args.seconds, tracer, oracle,
              tmp_dir)
    try:
        end_to_end, per_layer = WORKLOADS[args.workload](run)
        oracle.release()
        hygiene(run, shm_before, tmp_dir)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_child_processes()
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
    stamp["calibration_end_s"] = calibration_seconds()

    if args.trace:
        metrics = {
            spec["name"]: {
                "value": float(per_layer.get(spec["name"], 0.0)),
                "unit": spec["unit"],
            }
            for spec in per_layer_spec
        }
    else:
        metrics = {
            spec["name"]: {
                "value": float(end_to_end[spec["name"]][0]),
                "unit": spec["unit"],
            }
            for spec in end_to_end_spec
        }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as handle:
        json.dump({"environment": stamp, "failures": run.failures,
                   **result}, handle, indent=1)
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        tracer.write(os.path.join(WORK, "traces", f"{tag}.json"),
                     {"environment": stamp, "workload": args.workload,
                      "seed": args.seed})

    print(f"environment: nproc={stamp['nproc']} python={stamp['python']} "
          f"numpy={stamp['numpy']} calibration={stamp['calibration_s']:.4f}s"
          f" (end of run {stamp['calibration_end_s']:.4f}s)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {run.attempted} checked, {run.failed} failed, "
          f"error_ratio={run.failed / max(run.attempted, 1):.4f}")
    for label, seconds in sorted(run.latencies.items()):
        print(f"  {label}: {len(seconds)} queries, median "
              f"{statistics.median(seconds) * 1000:.1f} ms, max "
              f"{max(seconds) * 1000:.1f} ms")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:>16.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
