"""One fresh benchmark process: set up a workload, run it, report JSON.

``run.py`` starts this script once per measurement so that imports are
part of set-up and the process's VmHWM belongs to one workload alone
(``ru_maxrss`` would survive exec).  Modes:

* ``setup`` - imports and set-up only; reports ``setup_s``.
* ``run`` - untraced: timed passes until ``--seconds`` have elapsed
  (``--passes`` fixes the count instead), then the correctness gate.
* ``trace`` - one traced pass with the layer wrappers installed; writes
  a Chrome trace and a self-time table under ``--out``.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """This process's VmHWM (peak resident set) in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for trace artifacts")
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory, removed afterwards")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from clock import CalibratedClock

    scratch = args.work
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with CalibratedClock() as clock:
            # Interpreter start-up ran before the clock: plain wall time.
            startup_s = time.time() - args.spawned
            sys.path.insert(0, str(ROOT / "src"))
            from tracer import Tracer, layers_traced

            if args.mode != "trace":
                report = run(args, clock, None, scratch, startup_s)
            else:
                tracer = Tracer(clock.now)
                with layers_traced(tracer):
                    report = run(args, clock, tracer, scratch, startup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run(args, clock, tracer, scratch, startup_s: float) -> dict:
    """Set-up (imports included), then the measurement for the mode."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, scratch)
    report = {"setup_s": startup_s + clock.now()}
    if args.mode != "setup":
        report.update(measure(args, workload, clock, tracer))
    return report


def measure(args, workload, clock, tracer) -> dict:
    """Timed passes in calibrated seconds, then the readouts."""
    from workloads import Gate, Ops

    ops = Ops(clock.now, tracer)
    passes = 0
    wall_start = time.perf_counter()
    start = clock.now()
    while True:
        workload.run_pass(ops, passes)
        passes += 1
        elapsed = clock.now() - start
        if passes >= args.passes if args.passes else elapsed >= args.seconds:
            break
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "timed_s": elapsed,
        "wall_s": time.perf_counter() - wall_start,
        "calibration_samples": clock.samples,
        "passes": passes,
        "ops": [[seconds, quads, ok] for _, seconds, quads, ok in ops.records],
        "digest": ops.digest(),
        "readout": workload.readout(ops),
    }
    if tracer is not None:
        from tracer import layer_metrics, self_time_table

        totals = tracer.totals()
        stem = args.out / f"{args.workload}-seed{args.seed}"
        tracer.write_chrome(str(stem) + ".trace.json")
        table = self_time_table(totals, elapsed)
        (Path(str(stem) + ".selftime.txt")).write_text(table)
        report["layers"] = layer_metrics(tracer)
        report["self_time"] = {name: row["self_s"] for name, row in totals.items()}
        report["artifacts"] = [str(stem) + ".trace.json", str(stem) + ".selftime.txt"]
    else:
        gate = Gate()
        report["scene_digest"] = workload.gate(ops, gate)
        report["checks"] = gate.checks
    return report


if __name__ == "__main__":
    sys.exit(main())
