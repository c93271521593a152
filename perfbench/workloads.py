"""The benchmark's workloads and the three passes each one runs.

Workloads (each a closed loop: one single-threaded process steps its
simulators back to back, one at a time, with nothing else queued):

* ``steady_100k`` — the registered ``scale_tier_100k`` in steady state;
* ``near_threshold_2k`` — ``near_threshold_load`` scaled up 42x, built
  here as a :class:`ScenarioSpec` (nothing is added to the registry),
  run as three trajectories on three seeds;
* ``scenario_suite`` — every registered non-scale scenario, each cell
  stepped as a :class:`VodSession` to half its horizon, snapshotted,
  restored and finished, over 16 seed variants.

Passes (each runs in its own fresh subprocess, see ``run.py``):

* :func:`check_pass` — untimed: differential oracle on sampled rounds,
  the reference digest, goldens at seed 1234, and the deterministic
  behaviour figures (``served_frac``, ``infeasible_frac``);
* :func:`timed_pass` — the end-to-end timings, no wrappers installed;
* the same :func:`timed_pass` with a :class:`~spans.Tracer` — the
  per-layer spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.api.session import VodSession
from repro.core.preloading import START_UP_DELAY_ROUNDS
from repro.flow.hopcroft_karp import hopcroft_karp_matching
from repro.scenarios.build import build_scenario
from repro.scenarios.oracle import check_matching_instance
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.replay import digest_result
from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)

from spans import Tracer

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
GOLDEN_SEED = 1234

#: Independent trajectories a single-simulator workload runs one after
#: another, each on its own :func:`variant_seed`, sharing the measured
#: window.  Threshold rounds vary with the seed far more than
#: steady-state ones do: over 200 rounds one seed ran 25% faster than
#: another.
TRAJECTORIES = {"steady_100k": 1, "near_threshold_2k": 3}
#: Seed variants the suite's passes cycle through, for the same reason:
#: its two threshold scenarios cost 60% more on one seed than another.
SUITE_VARIANTS = 16

#: A timed run of a single-simulator workload builds it at least this
#: many times and for at least this long; ``setup_s`` is the median
#: build and the last build is the one stepped.
MIN_SETUPS = 5
MIN_SETUP_SECONDS = 0.5
#: Measured rounds a timed run never stops below: leaves at least ten
#: samples above the p90.  ``peak_rss_mb`` is read when the run reaches
#: it (after ``MIN_SUITE_PASSES`` passes in the suite), so the figure
#: does not grow with the speed of the code under test: the engine's
#: per-demand and per-round records grow with every round.
MIN_MEASURED_ROUNDS = 100
#: Measured rounds the check pass steps after warm-up; the reference
#: digest covers warm-up plus these rounds.
CHECK_ROUNDS = 5
#: Every this many check-pass rounds the matching instance is re-solved
#: by the differential oracle.
ORACLE_EVERY = 5
#: Larger instances get a cold Hopcroft–Karp maximality check in full and
#: the max-flow battery on a seeded sub-instance of this many requests.
ORACLE_MAX_REQUESTS = 1_500
#: Suite passes a timed run never stops below: one per seed variant.
MIN_SUITE_PASSES = SUITE_VARIANTS
#: Video durations per block of the measured window; the round rate is
#: the median over blocks.  Demand comes in cohorts that repeat every
#: duration, so whole-duration blocks each see every phase of the cycle.
DURATIONS_PER_BLOCK = 1
#: Host-speed calibration (see :class:`HostSpeed`): the kernel each
#: workload uses, its sizes, how often it runs, and the kernel time
#: reported times are scaled to.
CAL_KIND = {"steady_100k": "numpy", "near_threshold_2k": "python", "scenario_suite": "python"}
CAL_NODES = 60_000
CAL_VISITS = 16_000
CAL_LOOP = 20_000
CAL_SORT_SIZE = 20_000
CAL_TABLE_SIZE = 8 * 1024 * 1024
CAL_GATHER_SIZE = 100_000
CAL_PERIOD_NS = 250_000_000
CAL_REF_NS = 5_000_000

#: Snapshot failures that are known defects, not benchmark failures:
#: ``trace_replay`` keeps a generator (the streaming trace reader) in its
#: workload, which ``pickle`` refuses.  They still count in
#: ``api.session.snapshot_failed`` and the per-layer ``failed_frac``.
KNOWN_SNAPSHOT_DEFECTS = {"trace_replay": "TypeError"}


# ---------------------------------------------------------------------- #
# Specs
# ---------------------------------------------------------------------- #
def _homogeneous(name, boxes, videos, duration, u, d, replicas, kind, rate):
    return ScenarioSpec(
        name=name,
        description=f"Benchmark workload {name}: {boxes} boxes, {videos} videos.",
        paper_claim="Benchmark workload; see perfbench/README.md.",
        catalog=CatalogSpec(num_videos=videos, num_stripes=4, duration=duration),
        population=PopulationSpec("homogeneous", {"n": boxes, "u": u, "d": d}),
        allocation=AllocationSpec("permutation", replicas_per_stripe=replicas),
        workload=(WorkloadPhaseSpec(kind, params={"arrival_rate": rate}),),
        mu=1.5,
        horizon=1_000_000,
        trace_level="lean",
    )


def sim_spec(workload: str, size: str) -> ScenarioSpec:
    """The spec of a single-simulator workload (``size`` "full" or "tiny")."""
    if workload == "steady_100k":
        if size == "full":
            return get_scenario("scale_tier_100k")
        return _homogeneous("steady_tiny", 2_000, 250, 12, 2.0, 3.0, 4, "zipf", 40.0)
    if workload == "near_threshold_2k":
        if size == "full":
            return _homogeneous(
                "near_threshold_2k", 2_000, 583, 10, 1.05, 2.5, 3, "uniform", 417.0
            )
        return _homogeneous(
            "near_threshold_tiny", 200, 58, 10, 1.05, 2.5, 3, "uniform", 42.0
        )
    raise KeyError(workload)


def suite_specs(size: str) -> List[ScenarioSpec]:
    """Every registered non-scale scenario (a handful at the tiny size)."""
    specs = [s for s in all_scenarios() if not s.name.startswith("scale_tier_")]
    if size == "tiny":
        keep = ("event_steady_state", "chaos_degraded_solver", "trace_replay")
        specs = [s for s in specs if s.name in keep]
    return specs


def warmup_rounds(spec: ScenarioSpec) -> int:
    """Rounds stepped before timing starts (see README: steady state)."""
    return spec.catalog.duration + START_UP_DELAY_ROUNDS


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #
def variant_seed(seed: int, index: int) -> int:
    """Seed of a workload's ``index``-th trajectory or suite pass variant.

    Variant 0 is the workload seed itself, so ``--seed 1234`` replays the
    goldens' seed.
    """
    return seed + index * 100_003


def prefix_digest(round_stats, rounds: int) -> str:
    """SHA-256 over the first ``rounds`` per-round records."""
    records = [stats.to_dict() for stats in round_stats[:rounds]]
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def behaviour(round_stats) -> Dict[str, int]:
    """The deterministic totals the behaviour fractions are built from."""
    return {
        "rounds": len(round_stats),
        "infeasible_rounds": sum(1 for s in round_stats if not s.feasible),
        "matched": sum(s.matched for s in round_stats),
        "active": sum(s.active_requests for s in round_stats),
    }


def oracle_errors(observation) -> List[str]:
    """Differentially re-solve one observed round's matching instance."""
    context = f"round {observation.time}"
    num_left = len(observation.request_set)
    capacities = observation.capacities
    indptr, indices = observation.possession.adjacency_for(
        observation.request_set, observation.time
    )
    if num_left <= ORACLE_MAX_REQUESTS:
        return check_matching_instance(
            num_left, capacities.size, indptr, indices, capacities,
            reference_assignment=observation.matching.assignment, context=context,
        )
    errors = []
    cold = hopcroft_karp_matching(num_left, int(capacities.size), indptr, indices, capacities)
    engine_matched = int((observation.matching.assignment >= 0).sum())
    if engine_matched != cold.matched:
        errors.append(
            f"engine [{context}]: matched {engine_matched} but a cold maximum "
            f"matching has {cold.matched}"
        )
    rng = np.random.default_rng(observation.time)
    chosen = np.sort(rng.choice(num_left, size=ORACLE_MAX_REQUESTS, replace=False))
    lens = (indptr[chosen + 1] - indptr[chosen]).astype(np.int64)
    sub_indptr = np.zeros(chosen.size + 1, dtype=np.int64)
    np.cumsum(lens, out=sub_indptr[1:])
    gather = (
        np.arange(int(lens.sum()), dtype=np.int64)
        - np.repeat(sub_indptr[:-1], lens)
        + np.repeat(indptr[chosen], lens)
    )
    sub_boxes, sub_indices = np.unique(indices[gather], return_inverse=True)
    errors.extend(
        check_matching_instance(
            int(chosen.size), int(sub_boxes.size), sub_indptr, sub_indices,
            capacities[sub_boxes], context=f"{context} (sub-instance)",
        )
    )
    return errors


def _quantile_ms(times_ns: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(times_ns, dtype=np.float64), q)) / 1e6


def _block_median_rate(step_ns: List[float], block: int) -> float:
    """Rounds per second: the median over consecutive blocks of ``block`` rounds.

    A median of block rates, not one mean over the window, so a host
    hiccup during one block does not move the figure.
    """
    times = np.asarray(step_ns, dtype=np.float64)
    blocks = times[: times.size // block * block].reshape(-1, block)
    return float(np.median(block / (blocks.sum(axis=1) / 1e9)))


class HostSpeed:
    """Machine-relative time: wall time rescaled by a fixed calibration kernel.

    The benchmark's hosts change speed by up to 2x over minutes (other
    tenants, frequency scaling), far more than any bound a timing metric
    could carry.  Every :data:`CAL_PERIOD_NS` the process runs a fixed
    kernel that touches none of the simulator's code and scales the wall
    times that follow by ``CAL_REF_NS / kernel time``.  Reported times
    therefore read as milliseconds on a host where the kernel takes
    exactly ``CAL_REF_NS``.  Kernel runs are excluded from every
    measurement.

    A slow host slows interpreter-bound and array-bound code by different
    factors, so the kernel matches the workload (:data:`CAL_KIND`):
    ``"python"`` walks a random graph held in Python lists and a dict,
    like the Hopcroft–Karp and repair searches; ``"numpy"`` sorts and
    gathers arrays larger than the caches, like the 100k-box adjacency
    gathers.
    """

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        if kind == "python":
            self._graph = [rng.integers(0, CAL_NODES, size=4).tolist() for _ in range(CAL_NODES)]
            self._work = self._walk_graph
        else:
            self._sort_input = rng.integers(0, 1 << 30, size=CAL_SORT_SIZE)
            self._table = rng.integers(0, 1 << 30, size=CAL_TABLE_SIZE, dtype=np.int32)
            self._gather = rng.integers(0, CAL_TABLE_SIZE, size=CAL_GATHER_SIZE)
            self._work = self._sort_and_gather
        self._kernel_ns: List[int] = []
        self.factor = 1.0
        self._clock = 0.0
        self._work()  # the first touch of the buffers is not representative
        self._mark = self._next = time.perf_counter_ns()
        self.refresh()

    def _walk_graph(self) -> None:
        graph, seen, queue, head = self._graph, {0: 0}, [0], 0
        while len(seen) < CAL_VISITS and head < len(queue):
            node = queue[head]
            head += 1
            for neighbour in graph[node]:
                if neighbour not in seen:
                    seen[neighbour] = node
                    queue.append(neighbour)

    def _sort_and_gather(self) -> None:
        total = 0
        for i in range(CAL_LOOP):
            total += i * i % 7
        np.sort(self._sort_input, kind="stable")
        int(self._table[self._gather].sum())

    def refresh(self) -> None:
        """Re-measure the host speed if the period is up."""
        now = time.perf_counter_ns()
        if now < self._next:
            return
        self._clock += (now - self._mark) * self.factor
        self._work()
        self._mark = time.perf_counter_ns()
        kernel_ns = self._mark - now
        self._kernel_ns.append(kernel_ns)
        self.factor = CAL_REF_NS / kernel_ns
        self._next = self._mark + CAL_PERIOD_NS

    def scale(self, wall_ns: int) -> float:
        """A wall-time interval measured since the last refresh, rescaled."""
        return wall_ns * self.factor

    def clock(self) -> float:
        """Rescaled nanoseconds since construction, kernel runs excluded."""
        return self._clock + (time.perf_counter_ns() - self._mark) * self.factor

    def kernel_ms(self) -> float:
        """Median kernel time (the host's speed during the run)."""
        return statistics.median(self._kernel_ns) / 1e6


# ---------------------------------------------------------------------- #
# Single-simulator workloads
# ---------------------------------------------------------------------- #
def check_sim(workload: str, seed: int, size: str) -> Dict[str, Any]:
    spec = sim_spec(workload, size)
    trajectories = TRAJECTORIES[workload]
    warmup = warmup_rounds(spec)
    reference_rounds = warmup + CHECK_ROUNDS
    errors: List[str] = []
    oracle_failed: List[bool] = []
    digests: Dict[str, str] = {}
    measured: List = []

    def observer(observation) -> None:
        if observation.time >= warmup and (observation.time - warmup) % ORACLE_EVERY == 0:
            found = oracle_errors(observation)
            oracle_failed.append(bool(found))
            errors.extend(found)

    for index in range(trajectories):
        compiled = build_scenario(
            spec, seed=variant_seed(seed, index), round_observer=observer
        )
        for _ in range(reference_rounds):
            compiled.simulator.step(compiled.workload)
        round_stats = compiled.simulator.result().metrics.round_stats
        digests[f"{workload}#{index}"] = prefix_digest(round_stats, reference_rounds)
        measured.extend(round_stats[warmup:reference_rounds])
    return {
        "digests": digests,
        "behaviour": behaviour(measured),
        "attempted": len(oracle_failed),
        "failed": sum(oracle_failed),
        "errors": errors,
        "known_failed": 0,
    }


def timed_sim(
    workload: str, seed: int, size: str, seconds: float, tracer: Optional[Tracer],
    min_measured: int,
) -> Dict[str, Any]:
    spec = sim_spec(workload, size)
    trajectories = TRAJECTORIES[workload]
    warmup = warmup_rounds(spec)
    reference_rounds = warmup + CHECK_ROUNDS
    block = DURATIONS_PER_BLOCK * spec.catalog.duration
    # Every trajectory measures whole blocks, at least one and at least
    # its share of ``min_measured`` rounds.
    min_rounds = max(1, -(-min_measured // (trajectories * block))) * block
    window_ns = seconds * 1e9 / trajectories
    host = HostSpeed(CAL_KIND[workload])
    setup_ns: List[float] = []
    step_ns: List[float] = []
    digests: Dict[str, str] = {}
    measured: List = []
    rejected = fallback = degraded = 0
    for index in range(trajectories):
        if tracer is not None:
            tracer.active = True
        builds = 0
        while builds < 1 or len(setup_ns) < MIN_SETUPS or sum(setup_ns) < MIN_SETUP_SECONDS * 1e9:
            compiled = None  # release the previous build before the next one
            host.refresh()
            start = time.perf_counter_ns()
            compiled = build_scenario(spec, seed=variant_seed(seed, index))
            setup_ns.append(host.scale(time.perf_counter_ns() - start))
            builds += 1
        simulator, demand = compiled.simulator, compiled.workload
        if tracer is not None:
            tracer.active = False
        for _ in range(warmup):
            host.refresh()
            simulator.step(demand)
        gc.collect()

        before = (
            simulator.rejected_demands,
            simulator.repair_fallback_rounds,
            simulator.degraded_rounds,
        )
        taken = 0
        if tracer is not None:
            tracer.active = True
        start = host.clock()
        while True:
            if tracer is not None:
                tracer.round = len(step_ns)
            host.refresh()
            t0 = time.perf_counter_ns()
            simulator.step(demand)
            step_ns.append(host.scale(time.perf_counter_ns() - t0))
            taken += 1
            if index == 0 and taken == min_rounds:
                rss_mb = peak_rss_mb()
            if (
                taken >= min_rounds
                and taken % block == 0
                and warmup + taken >= reference_rounds
                and host.clock() - start >= window_ns
            ):
                break
        if tracer is not None:
            tracer.active = False
        round_stats = simulator.result().metrics.round_stats
        digests[f"{workload}#{index}"] = prefix_digest(round_stats, reference_rounds)
        measured.extend(round_stats[warmup:])
        rejected += simulator.rejected_demands - before[0]
        fallback += simulator.repair_fallback_rounds - before[1]
        degraded += simulator.degraded_rounds - before[2]

    return {
        "digests": digests,
        "attempted": len(step_ns),
        "failed": 0,
        "errors": [],
        "known_failed": 0,
        "measured_units": len(step_ns),
        "builds": len(setup_ns),
        "rejected": rejected,
        "mean_active": float(np.mean([s.active_requests for s in measured])),
        "repair_fallback_rounds": fallback,
        "degraded_rounds": degraded,
        "host_kernel_ms": host.kernel_ms(),
        "metrics": {
            "setup_s": statistics.median(setup_ns) / 1e9,
            "rounds_per_s": _block_median_rate(step_ns, block),
            "round_ms_p50": _quantile_ms(step_ns, 50),
            "round_ms_p90": _quantile_ms(step_ns, 90),
            # A cell here is one build; see README for why warm-up is left out.
            "cells_per_s": 1e9 / statistics.median(setup_ns),
            "peak_rss_mb": rss_mb,
        },
    }


# ---------------------------------------------------------------------- #
# The scenario suite
# ---------------------------------------------------------------------- #
class _Cell:
    """Outcome of one suite cell: build, half run, snapshot/restore, finish.

    Build and step times are rescaled by ``host`` (see :class:`HostSpeed`).
    """

    def __init__(self, spec: ScenarioSpec, seed: int, host: HostSpeed,
                 step_ns: List[float], observer=None):
        host.refresh()
        start = time.perf_counter_ns()
        compiled = build_scenario(spec, seed=seed, round_observer=observer)
        self.setup_ns = host.scale(time.perf_counter_ns() - start)
        self.snapshot_error: Optional[str] = None
        session = compiled.session()
        self._step(session, spec.horizon // 2, host, step_ns)
        try:
            session = VodSession.restore(session.snapshot())
        except Exception as exc:  # noqa: BLE001 - recorded and reported per cell
            self.snapshot_error = f"{type(exc).__name__}: {exc}"
        self._step(session, spec.horizon, host, step_ns)
        result = session.result()
        self.digest = digest_result(spec, compiled.seed, spec.horizon, result).digest
        self.round_stats = result.metrics.round_stats
        self.rejected = int(result.rejected_demands)
        self.repair_fallback_rounds = int(session.engine.repair_fallback_rounds)
        self.degraded_rounds = int(session.engine.degraded_rounds)

    @staticmethod
    def _step(session: VodSession, until: int, host: HostSpeed, step_ns: List[float]) -> None:
        while session.now < until and not session.closed:
            host.refresh()
            start = time.perf_counter_ns()
            session.step()
            step_ns.append(host.scale(time.perf_counter_ns() - start))


def _snapshot_outcome(spec: ScenarioSpec, cell: _Cell, errors: List[str]) -> str:
    """``"ok"``, ``"known"`` (a known defect) or ``"failed"`` (recorded in ``errors``)."""
    if cell.snapshot_error is None:
        return "ok"
    known = KNOWN_SNAPSHOT_DEFECTS.get(spec.name)
    if known is not None and cell.snapshot_error.startswith(known + ":"):
        return "known"
    errors.append(f"{spec.name}: snapshot/restore failed: {cell.snapshot_error}")
    return "failed"


def check_suite(seed: int, size: str) -> Dict[str, Any]:
    errors: List[str] = []
    digests: Dict[str, str] = {}
    stats: List = []
    attempted = failed = known = 0
    host = HostSpeed(CAL_KIND["scenario_suite"])
    for variant in range(SUITE_VARIANTS):
        cell_seed = variant_seed(seed, variant)
        for spec in suite_specs(size):
            oracle_failed: List[bool] = []
            name = f"{spec.name}#{variant}"

            def observer(observation, name=name, oracle_failed=oracle_failed) -> None:
                if variant == 0 and observation.time % 3 == 0:
                    found = [f"{name}: {e}" for e in oracle_errors(observation)]
                    oracle_failed.append(bool(found))
                    errors.extend(found)

            cell = _Cell(spec, cell_seed, host, [], observer=observer)
            outcome = _snapshot_outcome(spec, cell, errors)
            attempted += len(oracle_failed) + 1
            failed += sum(oracle_failed) + (outcome == "failed")
            known += outcome == "known"
            digests[name] = cell.digest
            stats.extend(cell.round_stats)
            golden_path = GOLDEN_DIR / f"{spec.name}.json"
            if cell_seed == GOLDEN_SEED and golden_path.exists():
                golden = json.loads(golden_path.read_text())
                if golden["rounds"] == spec.horizon and golden["seed"] == cell_seed:
                    attempted += 1
                    if golden["digest"] != cell.digest:
                        failed += 1
                        errors.append(f"{name}: digest differs from {golden_path.name}")
    return {
        "digests": digests,
        "behaviour": behaviour(stats),
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "known_failed": known,
    }


def timed_suite(seed: int, size: str, seconds: float, tracer: Optional[Tracer]) -> Dict[str, Any]:
    specs = suite_specs(size)
    host = HostSpeed(CAL_KIND["scenario_suite"])
    step_ns: List[float] = []
    errors: List[str] = []
    digests: Dict[str, str] = {}
    cell_ns: Dict[str, List[float]] = {spec.name: [] for spec in specs}
    build_ns: Dict[str, List[float]] = {spec.name: [] for spec in specs}
    cell_rounds: Dict[str, int] = {}
    passes = cells = failed = known = rejected = fallback = degraded = active = 0
    if tracer is not None:
        tracer.active = True
    start = host.clock()
    while True:
        variant = passes % SUITE_VARIANTS
        for spec in specs:
            if tracer is not None:
                tracer.round = cells
            begin = host.clock()
            cell = _Cell(spec, variant_seed(seed, variant), host, step_ns)
            cell_ns[spec.name].append(host.clock() - begin)
            build_ns[spec.name].append(cell.setup_ns)
            outcome = _snapshot_outcome(spec, cell, errors)
            failed += outcome == "failed"
            known += outcome == "known"
            name = f"{spec.name}#{variant}"
            if digests.setdefault(name, cell.digest) != cell.digest:
                failed += 1
                errors.append(f"{name}: digest changed between passes")
            cells += 1
            rejected += cell.rejected
            fallback += cell.repair_fallback_rounds
            degraded += cell.degraded_rounds
            active += sum(s.active_requests for s in cell.round_stats)
            cell_rounds[spec.name] = len(cell.round_stats)
        passes += 1
        if passes == MIN_SUITE_PASSES:
            rss_mb = peak_rss_mb()
        if passes >= MIN_SUITE_PASSES and host.clock() - start >= seconds * 1e9:
            break
    if tracer is not None:
        tracer.active = False
    # A typical pass: every scenario at its median cost over passes and
    # seed variants, so one expensive threshold seed moves nothing.
    pass_s = sum(statistics.median(times) for times in cell_ns.values()) / 1e9
    return {
        "digests": digests,
        "attempted": cells,
        "failed": failed,
        "errors": errors,
        "known_failed": known,
        "measured_units": cells,
        "builds": cells,
        "rejected": rejected,
        "mean_active": active / len(step_ns),
        "repair_fallback_rounds": fallback,
        "degraded_rounds": degraded,
        "host_kernel_ms": host.kernel_ms(),
        "metrics": {
            "setup_s": sum(statistics.median(times) for times in build_ns.values()) / 1e9,
            "rounds_per_s": sum(cell_rounds.values()) / pass_s,
            "round_ms_p50": _quantile_ms(step_ns, 50),
            "round_ms_p90": _quantile_ms(step_ns, 90),
            "cells_per_s": len(specs) / pass_s,
            "peak_rss_mb": rss_mb,
        },
    }


def check_pass(workload: str, seed: int, size: str) -> Dict[str, Any]:
    if workload == "scenario_suite":
        return check_suite(seed, size)
    return check_sim(workload, seed, size)


def timed_pass(
    workload: str, seed: int, size: str, seconds: float, tracer: Optional[Tracer] = None,
    min_measured: int = MIN_MEASURED_ROUNDS,
) -> Dict[str, Any]:
    """Time one workload; ``min_measured`` is the floor on measured rounds.

    Runs that report only per-layer figures (``--trace 1``) pass 0: they
    report no percentile, so one block per trajectory is enough.
    """
    if workload == "scenario_suite":
        return timed_suite(seed, size, seconds, tracer)
    return timed_sim(workload, seed, size, seconds, tracer, min_measured)
