"""Steady-state, layer-by-layer benchmark of the VoD simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady_100k --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --self-test

For one workload and seed this runs, one after another and each in its
own fresh subprocess (BLAS/OpenMP thread variables set to 1):

1. the untimed correctness pass (oracle, reference digest, goldens);
2. the timed pass, which must reproduce the reference digest;
3. with ``--trace 1`` only, the traced pass (spans around every layer),
   which must reproduce it too.

It prints every metric by name with its unit, then, as the last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero on any correctness failure.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("steady_100k", "near_threshold_2k", "scenario_suite")

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "rounds_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "served_frac": "ratio",
}

#: Per-layer self-time metrics inside ``VodSimulator.step``, name -> span.
#: With ``sim.engine.self_ms`` they add up to ``sim.engine.step_ms``.
STEP_LAYERS = {
    "workloads.demand_ms": "workloads.demand",
    "sim.rules.admission_ms": "sim.rules.admission",
    "sim.rules.playback_ms": "sim.rules.playback",
    "sim.swarm.enter_ms": "sim.swarm.enter",
    "core.preloading.schedule_ms": "core.preloading.schedule",
    "sim.scheduler.pool_ms": "sim.scheduler.pool",
    "core.matching.possession_ms": "core.matching.possession",
    "core.matching.adjacency_ms": "core.matching.adjacency",
    "core.matching.match_self_ms": "core.matching.match",
    "flow.hk_ms": "flow.hk",
    "flow.repair_ms": "flow.repair",
    "flow.dinic_ms": "flow.dinic",
    "events.queue_ms": "events.queue",
}

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    **{name: "ms" for name in STEP_LAYERS},
    "workloads.arrivals": "count",
    "sim.rules.rejected_frac": "ratio",
    "sim.swarm.entries": "count",
    "core.preloading.requests": "count",
    "sim.scheduler.active_requests": "count",
    "core.matching.deficit_rows": "count",
    "flow.hk_calls": "count",
    "flow.repair_calls": "count",
    "flow.repair_success_frac": "ratio",
    "flow.repair_wasted_ms": "ms",
    "api.session.snapshot_ms": "ms",
    "api.session.restore_ms": "ms",
    "api.session.snapshot_bytes": "bytes",
    "api.session.snapshot_failed": "count",
    "faults.driver_ms": "ms",
    "sim.engine.self_ms": "ms",
    "sim.engine.step_ms": "ms",
    "api.system.allocate_ms": "ms",
    "api.system.build_simulator_ms": "ms",
    "sim.engine.repair_fallback_rounds": "count",
    "sim.engine.degraded_rounds": "count",
    "infeasible_frac": "ratio",
    "failed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: A driver-style run (check, timed and traced pass) must end within this.
RUN_BUDGET_S = 170.0


# ---------------------------------------------------------------------- #
# Child side: one pass in this process
# ---------------------------------------------------------------------- #
def layer_metrics(tracer, timed: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics from the traced pass's spans and counters.

    Values are per measured round (per cell in the suite); the set-up
    layers are per build.  Span times are rescaled to the reference host
    speed by the pass's median calibration kernel time, like the
    end-to-end times (see ``HostSpeed`` in ``workloads.py``).
    """
    from spans import layer_totals
    from workloads import CAL_REF_NS

    totals = layer_totals(tracer)
    units = timed["measured_units"]
    scale = CAL_REF_NS / 1e6 / timed["host_kernel_ms"]

    def total(span: str, key: str = "self_ms") -> float:
        value = totals.get(span, {}).get(key, 0)
        return value * scale if key.endswith("_ms") else value

    metrics = {name: total(span) / units for name, span in STEP_LAYERS.items()}
    arrivals = total("workloads.demand", "count")
    repair_calls = total("flow.repair", "calls")
    metrics.update(
        {
            "workloads.arrivals": arrivals / units,
            "sim.rules.rejected_frac": timed["rejected"] / arrivals if arrivals else 0.0,
            "sim.swarm.entries": total("sim.swarm.enter", "count") / units,
            "core.preloading.requests": total("core.preloading.schedule", "count") / units,
            "sim.scheduler.active_requests": timed["mean_active"],
            "core.matching.deficit_rows": total("core.matching.adjacency", "count") / units,
            "flow.hk_calls": total("flow.hk", "calls") / units,
            "flow.repair_calls": repair_calls / units,
            "flow.repair_success_frac": (
                1.0 - total("flow.repair", "failed") / repair_calls if repair_calls else 0.0
            ),
            "flow.repair_wasted_ms": total("flow.repair", "failed_total_ms") / units,
            "api.session.snapshot_ms": total("api.session.snapshot") / units,
            "api.session.restore_ms": total("api.session.restore") / units,
            "api.session.snapshot_bytes": total("api.session.snapshot", "count") / units,
            "api.session.snapshot_failed": total("api.session.snapshot", "failed") / units,
            "faults.driver_ms": total("faults.driver") / units,
            "sim.engine.self_ms": total("sim.engine.step") / units,
            "sim.engine.step_ms": total("sim.engine.step", "total_ms") / units,
            "api.system.allocate_ms": total("api.system.allocate") / timed["builds"],
            "api.system.build_simulator_ms": (
                total("api.system.build_simulator") / timed["builds"]
            ),
            "sim.engine.repair_fallback_rounds": timed["repair_fallback_rounds"] / units,
            "sim.engine.degraded_rounds": timed["degraded_rounds"] / units,
        }
    )
    return metrics


def self_times_add_up(metrics: Dict[str, float]) -> bool:
    """Whether the step layers' self times plus engine self time equal step time."""
    parts = sum(metrics[name] for name in STEP_LAYERS) + metrics["sim.engine.self_ms"]
    return abs(parts - metrics["sim.engine.step_ms"]) <= 1e-6 * max(
        metrics["sim.engine.step_ms"], 1.0
    )


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    import workloads

    if args.mode == "check":
        return workloads.check_pass(args.workload, args.seed, args.size)
    # Runs for per-layer figures report no round-time percentile.
    min_measured = 0 if args.trace else workloads.MIN_MEASURED_ROUNDS
    if args.mode == "timed":
        return workloads.timed_pass(
            args.workload, args.seed, args.size, args.seconds, min_measured=min_measured
        )

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        outcome = workloads.timed_pass(
            args.workload, args.seed, args.size, args.seconds, tracer, min_measured
        )
    finally:
        still_wrapped = tracer.remove()
    if still_wrapped:
        outcome["failed"] += 1
        outcome["errors"].append(f"wrappers not removed: {', '.join(still_wrapped)}")
    outcome["layers"] = layer_metrics(tracer, outcome)
    if args.workload != "scenario_suite" and not self_times_add_up(outcome["layers"]):
        outcome["failed"] += 1
        outcome["errors"].append("per-layer self times do not add up to the step time")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans_{args.workload}_{args.seed}.jsonl")
    return outcome


# ---------------------------------------------------------------------- #
# Parent side: orchestrate the passes
# ---------------------------------------------------------------------- #
def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(mode: str, workload: str, seed: int, size: str, seconds: float, trace: bool,
          deadline: float) -> Dict[str, Any]:
    """Run one pass in a fresh subprocess; returns its JSON outcome."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--mode", mode, "--workload", workload, "--seed", str(seed),
        "--size", size, "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            command, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"{mode} pass of {workload} timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-5:])
        return {"crashed": f"{mode} pass of {workload} exited {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str,
                 corrupt_reference: bool = False,
                 budget_s: float = RUN_BUDGET_S) -> Dict[str, Any]:
    """Check, time and (optionally) trace one workload; returns the result object."""
    deadline = time.monotonic() + budget_s
    errors: List[str] = []
    attempted = failed = known = 0
    passes: Dict[str, Dict[str, Any]] = {}
    for mode in ("check", "timed") + (("traced",) if trace else ()):
        outcome = spawn(mode, workload, seed, size, seconds, trace, deadline)
        attempted += 1 + outcome.get("attempted", 0)
        if "crashed" in outcome:
            failed += 1
            errors.append(outcome["crashed"])
            break
        failed += outcome["failed"]
        known += outcome["known_failed"]
        errors.extend(outcome["errors"])
        passes[mode] = outcome

    reference = dict(passes.get("check", {}).get("digests", {}))
    if corrupt_reference:
        reference = {name: "0" * 64 for name in reference}
    for mode in ("timed", "traced"):
        for name, digest in passes.get(mode, {}).get("digests", {}).items():
            attempted += 1
            if reference.get(name) != digest:
                failed += 1
                errors.append(f"{mode} pass: {name} digest differs from the reference")

    metrics: Dict[str, float] = {}
    behaviour_metrics: Dict[str, float] = {}
    if not errors:
        behaviour = passes["check"]["behaviour"]
        # Deterministic per seed: a speed-up must leave them exactly as they are.
        behaviour_metrics = {
            "served_frac": behaviour["matched"] / behaviour["active"],
            "infeasible_frac": behaviour["infeasible_rounds"] / behaviour["rounds"],
            "failed_frac": (failed + known) / attempted,
        }
        timed = passes["timed"]["metrics"]
        if trace:
            metrics = dict(passes["traced"]["layers"])
            rate = "cells_per_s" if workload == "scenario_suite" else "rounds_per_s"
            metrics["trace_overhead_frac"] = (
                timed[rate] / passes["traced"]["metrics"][rate] - 1.0
            )
        else:
            metrics = dict(timed)
        metrics.update({k: v for k, v in behaviour_metrics.items() if k in
                        (PER_LAYER if trace else END_TO_END)})
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "known_failed": known,
        "errors": errors,
        "metrics": metrics,
        "behaviour": behaviour_metrics,
        "host_kernel_ms": passes.get("timed", {}).get("host_kernel_ms"),
    }


def print_result(workload: str, result: Dict[str, Any], trace: bool) -> None:
    units = PER_LAYER if trace else END_TO_END
    for name, value in result["metrics"].items():
        print(f"{workload:<18} {name:<36} {value:>16.6g} {units[name]}")
    for name, value in result["behaviour"].items():
        if name not in result["metrics"]:
            print(f"{workload:<18} {name:<36} {value:>16.6g} ratio")
    if result["host_kernel_ms"] is not None:
        print(f"{workload:<18} {'host_kernel_ms (calibration)':<36} "
              f"{result['host_kernel_ms']:>16.6g} ms")
    if result["known_failed"]:
        print(f"{workload:<18} known defects hit: {result['known_failed']} "
              "(trace_replay snapshot; see perfbench/README.md)")
    for error in result["errors"]:
        print(f"{workload:<18} FAILED: {error}")


def contract_line(result: Dict[str, Any], trace: bool, prefix: str = "") -> Dict[str, Any]:
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            prefix + name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


# ---------------------------------------------------------------------- #
# Self-test at tiny sizes
# ---------------------------------------------------------------------- #
def self_test() -> bool:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: List[str] = []
    for trace, key, table in ((False, "end_to_end", END_TO_END), (True, "per_layer", PER_LAYER)):
        wanted = {m["name"]: m["unit"] for m in declared[key]}
        if wanted != table:
            problems.append(f"{key} in BENCHMARK.json differs from run.py's table")
        for workload in WORKLOADS:
            result = run_workload(workload, 7, 0.5, trace, "tiny")
            line = contract_line(result, trace)
            got = {name: entry["unit"] for name, entry in line["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)}: {result['errors']}")
            elif got != wanted:
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(got)}")
            else:
                print(f"self-test: {workload} trace={int(trace)} emits all {len(got)} metrics")
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", "near_threshold_2k",
        "--seed", "7", "--seconds", "0.5", "--trace", "0", "--size", "tiny",
        "--corrupt-reference",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_BUDGET_S)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode == 0 or last["failed"] == 0 or last["correct"]:
        problems.append("a wrong reference digest did not fail the run")
    else:
        print(f"self-test: wrong reference digest -> exit {proc.returncode}, "
              f"failed {last['failed']}/{last['attempted']}")
    for problem in problems:
        print(f"self-test FAILED: {problem}")
    return not problems


# ---------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check metric names and failure detection at tiny sizes")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("run", "check", "timed", "traced"),
                        default="run", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    if args.mode != "run":
        sys.path.insert(0, str(SRC))
        print(json.dumps(run_child(args)))
        return 0
    if args.self_test:
        return 0 if self_test() else 1

    trace = bool(args.trace)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, trace, args.size,
                              corrupt_reference=args.corrupt_reference)
        print_result(args.workload, result, trace)
        print(json.dumps(contract_line(result, trace)))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, trace, args.size,
                              corrupt_reference=args.corrupt_reference)
        print_result(workload, result, trace)
        line = contract_line(result, trace, prefix=f"{workload}.")
        combined["correct"] = combined["correct"] and line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        combined["metrics"].update(line["metrics"])
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
