"""The engine's one demand path.

A workload speaks either protocol: ``demand_arrays_for_round`` (arrays)
or ``demands_for_round`` (:class:`Demand` objects); an array supplier
returning ``None`` falls back to the object protocol.  Every round, the
engine turns the arrivals into ``(box_ids, video_ids)`` arrays once,
validates them and admits them through one function.  These tests pin
that the protocols give identical runs on both engines, and that
malformed arrivals are refused before anything is admitted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import VodSystem
from repro.core.allocation import random_permutation_allocation
from repro.core.parameters import homogeneous_population
from repro.core.preloading import Demand
from repro.core.video import Catalog

N_BOXES = 30
N_VIDEOS = 6
ROUNDS = 24


def _allocation():
    catalog = Catalog(num_videos=N_VIDEOS, num_stripes=4, duration=5)
    population = homogeneous_population(N_BOXES, u=1.5, d=4.0)
    return random_permutation_allocation(catalog, population, 3, random_state=7)


def _simulator(engine: str):
    system = VodSystem.for_allocation(_allocation(), mu=1.5)
    return system.build_simulator(
        trace_level="full", engine=engine, event_random_state=11
    )


class RandomArrivals:
    """Arrivals drawn over *all* boxes, with replacement.

    Unlike the registered workloads it targets busy boxes and repeats a
    box within a round, so admission rejects some arrivals; videos repeat
    too, so the preload rotation advances within a round.
    """

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def demand_arrays_for_round(self, view):
        count = int(self._rng.integers(0, 9))
        boxes = self._rng.integers(0, N_BOXES, size=count)
        videos = self._rng.integers(0, N_VIDEOS, size=count)
        return boxes.astype(np.int64), videos.astype(np.int64)

    def demands_for_round(self, view):
        boxes, videos = self.demand_arrays_for_round(view)
        return [
            Demand(time=view.time, box_id=b, video_id=v)
            for b, v in zip(boxes.tolist(), videos.tolist())
        ]


class ArraysOnly:
    def __init__(self, inner):
        self._inner = inner

    def demand_arrays_for_round(self, view):
        return self._inner.demand_arrays_for_round(view)


class ObjectsOnly:
    def __init__(self, inner):
        self._inner = inner

    def demands_for_round(self, view):
        return self._inner.demands_for_round(view)


class ArraysDeclined(ObjectsOnly):
    def demand_arrays_for_round(self, view):
        return None


def _run(engine: str, wrapper, seed: int):
    sim = _simulator(engine)
    workload = wrapper(RandomArrivals(seed))
    latencies = []
    for _ in range(ROUNDS):
        sim.step(workload)
        if engine == "event":
            latencies.append(
                (
                    sim.last_round_admission_latency_p50,
                    sim.last_round_admission_latency_p99,
                )
            )
    result = sim.result()
    observed = {
        "trace": result.trace.to_records(),
        "metrics": result.metrics.to_dict(),
        "rejected": result.rejected_demands,
        "demands_seen": sim.scheduler.demands_seen,
        "violations": sim.swarms.violations,
    }
    if engine == "event":
        observed["processed"] = sim.processed_events
        observed["counts"] = sim.round_event_counts
        observed["latencies"] = latencies
    return observed


@pytest.mark.parametrize("engine", ["round", "event"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_both_protocols_give_identical_full_traces(engine, seed):
    reference = _run(engine, ArraysOnly, seed)
    # The workload must exercise admission: rejections and repeated videos.
    assert reference["rejected"] > 0
    assert reference["metrics"]["total_demands"] > ROUNDS
    for wrapper in (ObjectsOnly, ArraysDeclined):
        assert _run(engine, wrapper, seed) == reference


class FixedArrivals:
    """Round 0 is empty; every later round offers the same arrays."""

    def __init__(self, boxes, videos):
        self._boxes = np.asarray(boxes, dtype=np.int64)
        self._videos = np.asarray(videos, dtype=np.int64)

    def demand_arrays_for_round(self, view):
        if view.time == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return self._boxes, self._videos


class FixedDemands:
    def __init__(self, demands):
        self._demands = demands

    def demands_for_round(self, view):
        return self._demands if view.time else []


MALFORMED = [
    pytest.param(FixedArrivals([0, -1], [0, 0]), "round 1: demand from box -1", id="box<0"),
    pytest.param(
        FixedArrivals([0, N_BOXES], [0, 0]),
        f"round 1: demand from box {N_BOXES} outside population of size {N_BOXES}",
        id="box>=n",
    ),
    pytest.param(FixedArrivals([0, 1], [0, -2]), "round 1: demand for video -2", id="video<0"),
    pytest.param(
        FixedArrivals([0, 1], [0, N_VIDEOS]),
        f"round 1: demand for video {N_VIDEOS} outside catalog of size {N_VIDEOS}",
        id="video>=m",
    ),
    pytest.param(
        FixedArrivals([0, 1], [0]),
        "round 1: workload produced 2 box ids but 1 video ids",
        id="unequal-lengths",
    ),
    pytest.param(
        FixedDemands([Demand(time=1, box_id=0, video_id=0), Demand(time=4, box_id=1, video_id=0)]),
        "workload produced a demand for round 4 during round 1",
        id="wrong-round",
    ),
]


@pytest.mark.parametrize("engine", ["round", "event"])
@pytest.mark.parametrize("workload, message", MALFORMED)
def test_malformed_arrivals_are_refused_before_admission(engine, workload, message):
    sim = _simulator(engine)
    sim.step(workload)
    with pytest.raises(ValueError, match=message):
        sim.step(workload)
    # Nothing of the refused round was admitted.
    assert sim.free_boxes(1).size == N_BOXES
    assert sim.scheduler.demands_seen == ()
    assert sim.rejected_demands == 0
