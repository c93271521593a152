"""Tests for the preloading request strategy (Section 3)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.preloading import START_UP_DELAY_ROUNDS, Demand, PreloadingScheduler
from repro.core.video import Catalog


@pytest.fixture
def catalog():
    return Catalog(num_videos=5, num_stripes=4, duration=30)


class TestDemand:
    def test_validation(self):
        with pytest.raises(ValueError):
            Demand(time=-1, box_id=0, video_id=0)
        with pytest.raises(ValueError):
            Demand(time=0, box_id=-1, video_id=0)

    def test_ordering_by_time(self):
        assert Demand(1, 5, 2) < Demand(2, 0, 0)


class TestPreloadingScheduler:
    def test_single_demand_issues_one_preload_now(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        immediate = scheduler.on_demand(Demand(time=3, box_id=0, video_id=1))
        assert len(immediate) == 1
        request = immediate[0]
        assert request.is_preload
        assert request.request_time == 3
        assert request.box_id == 0
        assert catalog.video_of_stripe(request.stripe_id) == 1

    def test_postponed_requests_queued_for_next_round(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand(Demand(time=3, box_id=0, video_id=1))
        postponed = scheduler.requests_due(4)
        assert len(postponed) == catalog.num_stripes_per_video - 1
        assert all(not r.is_preload for r in postponed)
        assert all(r.request_time == 4 for r in postponed)
        # All c stripes of the video are covered exactly once in total.
        stripes = {r.stripe_id for r in postponed}
        assert len(stripes) == 3

    def test_requests_due_pops_only_once(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand(Demand(time=3, box_id=0, video_id=1))
        assert scheduler.requests_due(4)
        assert scheduler.requests_due(4) == []

    def test_preload_stripe_rotates_round_robin(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        c = catalog.num_stripes_per_video
        preloads = []
        for box in range(2 * c):
            immediate = scheduler.on_demand(Demand(time=0, box_id=box, video_id=2))
            preloads.append(catalog.stripe_index_of(immediate[0].stripe_id))
        # The p-th box preloads stripe p mod c: indices cycle 0..c-1 twice.
        assert preloads == [p % c for p in range(2 * c)]

    def test_counters_are_per_video(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        a = scheduler.on_demand(Demand(time=0, box_id=0, video_id=0))[0]
        b = scheduler.on_demand(Demand(time=0, box_id=1, video_id=1))[0]
        assert catalog.stripe_index_of(a.stripe_id) == 0
        assert catalog.stripe_index_of(b.stripe_id) == 0
        assert scheduler.swarm_entry_count(0) == 1
        assert scheduler.swarm_entry_count(1) == 1
        assert scheduler.swarm_entry_count(4) == 0

    def test_total_requests_per_demand_is_c(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        immediate = scheduler.on_demand(Demand(time=5, box_id=0, video_id=3))
        postponed = scheduler.requests_due(6)
        all_requests = immediate + postponed
        assert len(all_requests) == catalog.num_stripes_per_video
        assert {r.stripe_id for r in all_requests} == set(
            catalog.stripes_of_video(3).tolist()
        )

    def test_start_up_delay_constant(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        assert scheduler.start_up_delay == START_UP_DELAY_ROUNDS == 3
        demand = Demand(time=7, box_id=0, video_id=0)
        assert scheduler.playback_start_round(demand) == 9

    def test_pending_rounds_and_reset(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        scheduler.on_demand(Demand(time=2, box_id=0, video_id=0))
        scheduler.on_demand(Demand(time=5, box_id=1, video_id=1))
        assert scheduler.pending_rounds() == (3, 6)
        assert len(scheduler.demands_seen) == 2
        scheduler.reset()
        assert scheduler.pending_rounds() == ()
        assert scheduler.swarm_entry_count(0) == 0
        assert scheduler.demands_seen == ()

    def test_demand_for_unknown_video_raises(self, catalog):
        scheduler = PreloadingScheduler(catalog)
        with pytest.raises(ValueError):
            scheduler.on_demand(Demand(time=0, box_id=0, video_id=99))


# ---------------------------------------------------------------------- #
# Every entry point against a scalar reference of the rotation
# ---------------------------------------------------------------------- #
class ReferenceRotation:
    """Scalar, one-demand-at-a-time statement of the Section 3 rotation.

    The ``p``-th box entering a video's swarm preloads stripe ``p mod c``
    now and queues the other ``c − 1`` stripes, in stripe order, for the
    next round.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        self.counter = {}
        self.pending = {}
        self.seen = []

    def on_demand(self, demand, demand_index):
        c = self.catalog.num_stripes_per_video
        entry = self.counter.get(demand.video_id, 0)
        self.counter[demand.video_id] = entry + 1
        self.seen.append(demand)
        preload_index = entry % c
        for index in range(c):
            if index != preload_index:
                self.pending.setdefault(demand.time + 1, []).append(
                    (self.catalog.stripe_id(demand.video_id, index), demand.box_id, demand_index)
                )
        return self.catalog.stripe_id(demand.video_id, preload_index)


ENTRY_POINTS = ("on_demand_arrays", "on_demands_batch", "on_demand")

round_arrivals = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 3)), min_size=0, max_size=8
)


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    c=st.sampled_from([1, 2, 4]),
    rounds=st.lists(
        st.tuples(round_arrivals, st.sampled_from(ENTRY_POINTS)), min_size=1, max_size=6
    ),
)
def test_every_entry_point_matches_the_scalar_rotation(c, rounds):
    """Entry points may be mixed round by round; each demand index is kept."""
    catalog = Catalog(num_videos=4, num_stripes=c, duration=10)
    scheduler = PreloadingScheduler(catalog)
    reference = ReferenceRotation(catalog)
    next_index = 0
    for time, (arrivals, entry_point) in enumerate(rounds):
        demands = [Demand(time=time, box_id=b, video_id=v) for b, v in arrivals]
        indices = list(range(next_index, next_index + len(demands)))
        next_index += len(demands)
        if entry_point == "on_demand":
            indices = [-1] * len(demands)  # on_demand carries no demand index
            got = [scheduler.on_demand(d)[0].stripe_id for d in demands]
        elif entry_point == "on_demands_batch":
            got = scheduler.on_demands_batch(list(zip(indices, demands)))[0].tolist()
        else:
            got = scheduler.on_demand_arrays(
                np.array([v for _, v in arrivals], dtype=np.int64),
                np.array([b for b, _ in arrivals], dtype=np.int64),
                np.array(indices, dtype=np.int64),
                time,
            )[0].tolist()
        expected = [reference.on_demand(d, i) for d, i in zip(demands, indices)]
        assert got == expected
        stripes, boxes, demand_indices = scheduler.due_arrays(time)
        assert list(zip(stripes.tolist(), boxes.tolist(), demand_indices.tolist())) == (
            reference.pending.pop(time, [])
        )
    assert scheduler.demands_seen == tuple(reference.seen)
    for video in range(catalog.num_videos):
        assert scheduler.swarm_entry_count(video) == reference.counter.get(video, 0)
    last = len(rounds)
    stripes, boxes, demand_indices = scheduler.due_arrays(last)
    assert list(zip(stripes.tolist(), boxes.tolist(), demand_indices.tolist())) == (
        reference.pending.pop(last, [])
    )
    assert scheduler.pending_rounds() == ()
