"""Replay benchmark: one command, two workloads, oracle-checked outputs.

    python3 perfbench/run.py --workload full_replay --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json and perfbench/NOTES.md):
  full_replay    REPLACE-mode builds of a seeded change log
  tail_updates   UPDATE-mode micro-batches applied to a restored base

``--trace 0`` prints the end-to-end metrics of untraced operations;
``--trace 1`` runs the traced layer sweep (perfbench/tracing.py) and prints
the per-layer metrics.  Either way the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the host calibration.

The load is one single-threaded client in a closed loop: each operation
starts when the previous one has returned, until ``--seconds`` of
operation time have been measured.  Each run is its own process with its
own Ray sessions, sized to the CPUs this process may use.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Ray start + input warm-up + base restore, repeated; setup_s is the median
SETUPS = 3


def _engine_env() -> None:
    """Make the engine importable here and in every Ray worker, whatever
    the cwd, and cap kernel threads before polars is first imported."""
    sys.path.insert(0, ROOT)
    prev = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = ROOT + (os.pathsep + prev if prev else "")
    from aiw_i2b2_etl_ray.util import cap_kernel_threads

    cap_kernel_threads()


def set_up(bench, wl) -> list[float]:
    """SETUPS full set-ups; the Ray session of the last one stays up.
    Building a missing cached input inside a set-up is not counted."""
    times = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        bench.ray_start()
        t1 = time.perf_counter()
        wl.prepare()
        t2 = time.perf_counter()
        wl.set_up()
        times.append(time.perf_counter() - t2 + (t1 - t0))
        if i < SETUPS - 1:
            bench.ray_stop()
    return times


def measure(wl, seconds: float) -> list[tuple[float, int]]:
    """Closed loop: run operations until ``seconds`` of operation time, or
    three times that in wall time (checks included), whichever is first."""
    samples: list[tuple[float, int]] = []
    i, t0 = 1, time.perf_counter()
    while wl.more(i):
        got = wl.op(i)
        wl.drop(i)
        if got is None:  # the operation raised; it is counted as failed
            break
        samples.append(got)
        i += 1
        if sum(s for s, _ in samples) >= seconds or time.perf_counter() - t0 >= 3 * seconds:
            break
    return samples


def end_to_end(bench, wl, seconds: float) -> dict:
    import host

    setups = set_up(bench, wl)
    wl.warm_up()
    samples = measure(wl, seconds)
    rss = host.peak_rss_mb()
    bench.ray_stop()
    secs = [s for s, _ in samples] or [0.0]
    rates = [n / s for s, n in samples if s > 0] or [0.0]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_s_p50": {"value": statistics.median(secs), "unit": "s"},
        "events_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("std", "tiny"), default="std",
                    help="input size; tiny is for the self-tests")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="self-test: corrupt the first checked result")
    args = ap.parse_args(argv)
    # a terminated run still stops its Ray session (bench.close below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        _engine_env()
        import aiw_i2b2_etl_ray  # noqa: F401
        import __ray_entry__  # noqa: F401
    except ImportError as ex:
        print(f"[perfbench] the engine is not importable from {ROOT}: {ex}", file=sys.stderr)
        return 2

    import host
    import tracing
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    t_start, ticks0 = time.perf_counter(), host.cpu_ticks()
    bench = Bench(ROOT, args.seed, args.scale)
    bench.inject_wrong = args.inject_wrong
    try:
        wl = WORKLOADS[args.workload](bench)  # builds missing cached inputs
        host.reset_peak_rss()
        if args.trace:
            metrics = tracing.sweep(bench, wl)
        else:
            metrics = end_to_end(bench, wl, args.seconds)
    finally:
        bench.close()

    ticks1 = host.cpu_ticks()
    calib = dict(host.calibration(), host_busy_share=host.busy_share(ticks0, ticks1),
                 host_steal_share=host.steal_share(ticks0, ticks1),
                 run_wall_s=time.perf_counter() - t_start, workload=args.workload,
                 seed=args.seed, trace=args.trace)
    if args.trace:
        metrics["host.cpus"] = {"value": calib["cpus"], "unit": "count"}
        metrics["host.cpu_probe_s"] = {"value": calib["cpu_probe_s"], "unit": "s"}
        metrics["host.busy_share"] = {"value": calib["host_busy_share"], "unit": "share"}
    print(json.dumps({"calibration": calib}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
