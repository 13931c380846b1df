"""Repository benchmark: end-to-end and per-layer host-time metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure_suite --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``figure_suite``, ``filter_ablation``,
``stream_campaign``, all at 512x256.  Every measurement runs in a fresh
``worker.py`` process, one after another:

* three set-up measurements (two set-up-only processes plus the timed
  one); ``setup_s`` is their median (untraced runs only);
* the untraced run, which reports ``quads_per_s`` and ``peak_rss_mb``
  and then runs the correctness gate; per-operation times are printed
  in the summary;
* with ``--trace 1``, one untraced and one traced pass of the same work,
  giving the per-layer metrics and ``trace.overhead_frac``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when every operation and check passed; without
the program's sources next to it, the benchmark exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("figure_suite", "filter_ablation", "stream_campaign")
#: The whole invocation must end within this many seconds.
DEADLINE_S = 175.0
SETUP_PROBES = 2
#: The paper's headline figures, printed beside the model readout.
PAPER = {
    "model.dtexl_speedup": "1.2x",
    "model.l2_decrease_pct": "46.8%",
    "model.energy_decrease_pct": "6.3%",
}


class BenchError(Exception):
    """A measurement process failed; no result may be printed."""


def spawn(args, mode: str, deadline: float, passes: int = 0) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    work = OUT / f"work-{os.getpid()}-{mode}"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
        "--passes", str(passes), "--out", str(OUT), "--work", str(work),
        "--spawned", repr(time.time()),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} process")
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the deadline") from None
    finally:
        # A killed worker cannot clean up after itself.
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        raise BenchError(f"{mode} process exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed nothing")
    return json.loads(lines[-1])


def op_stats(run: dict) -> dict:
    ops = run["ops"]
    seconds = sorted(op[0] for op in ops if op[2])
    quads = sum(op[1] for op in ops if op[2])
    stats = {
        "ops": len(ops),
        "failed_ops": sum(1 for op in ops if not op[2]),
        "quads": quads,
        "quads_per_s": quads / run["timed_s"],
        "op_ms.p50": 1000.0 * statistics.median(seconds) if seconds else 0.0,
    }
    # A percentile needs at least ten samples beyond it.
    if len(seconds) >= 100:
        stats["op_ms.p90"] = 1000.0 * statistics.quantiles(seconds, n=10)[-1]
    return stats


def declared(values: dict, kind: str) -> dict:
    """``values`` as BENCHMARK.json's ``kind`` metrics, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {entry["name"]: entry["unit"] for entry in spec[kind]}
    if set(values) != set(units):
        raise BenchError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}"
        )
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # setup_s is an end-to-end metric, reported by untraced runs only.
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(probes)]
        # The traced comparison needs equal work on both sides: one pass.
        run = spawn(args, "run", deadline, passes=1 if args.trace else 0)
        traced = spawn(args, "trace", deadline, passes=1) if args.trace else None
        setups.append(run["setup_s"])
        result = report(args, setups, run, traced)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, setups: list, run: dict, traced) -> dict:
    """Print the readable summary; return the result object."""
    stats = op_stats(run)
    checks = run["checks"]
    if traced is not None:
        checks.append(["traced run reproduces the untraced RunResults",
                       traced["digest"] == run["digest"]])
    failed_checks = sum(1 for _, ok in checks if not ok)
    attempted = stats["ops"] + len(checks)
    failed = stats["failed_ops"] + failed_checks

    end_to_end = {
        "setup_s": statistics.median(setups),
        "quads_per_s": stats["quads_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    print(f"workload {args.workload} seed {args.seed}: {stats['ops']} operations "
          f"({stats['failed_ops']} failed), {len(checks)} checks ({failed_checks} failed), "
          f"{run['passes']} pass(es) in {run['timed_s']:.3f} calibrated s "
          f"({run['wall_s']:.3f} s wall, {run['calibration_samples']} calibration samples), "
          f"{stats['quads']} quads, scene digest {run['scene_digest'][:16]}, "
          f"results digest {run['digest'][:16]}")
    for name, value in end_to_end.items():
        print(f"  {name} = {value:.6g}")
    # Per-operation times follow each seed's scene sizes too closely to
    # gate (see README.md); they are reported, not bounded.
    for name in ("op_ms.p50", "op_ms.p90"):
        if name in stats:
            print(f"  {name} = {stats[name]:.6g} ms (n = {stats['ops']}, not gated)")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    if run["readout"]:
        print("  model readout (unvalidated synthetic-scene model, not gated):")
        for name, value in run["readout"].items():
            print(f"    {name} = {value:.4f} (paper {PAPER[name]})")

    if traced is None:
        metrics = declared(end_to_end, "end_to_end")
    else:
        layers = traced["layers"]
        layers["trace.overhead_frac"] = traced["timed_s"] / run["timed_s"] - 1.0
        metrics = declared(layers, "per_layer")
        wall = traced["timed_s"]
        print(f"  traced pass {wall:.3f} s vs untraced {run['timed_s']:.3f} s; "
              f"artifacts: {', '.join(traced['artifacts'])}")
        for name, self_s in sorted(traced["self_time"].items(), key=lambda kv: -kv[1]):
            print(f"    self {name:<16} {self_s:9.4f} s {100.0 * self_s / wall:6.2f}%")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
