"""The event-driven continuous-time engine mode (:mod:`repro.events`).

The load-bearing property is *round parity*: the event engine inherits
the round engine's admission/matching/playback state machine, so binning
its continuous event trace by round must reproduce the round engine's
records bit for bit — what it adds is the per-request latency metrics
the synchronous clock cannot express.  The tests here pin the queue's
deterministic ordering, engine parity across scenarios (hypothesis-swept,
including a chaos scenario), the latency percentiles' presence and
ranges, the facade/serialization plumbing, and snapshot/restore.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import VodSession, VodSystem
from repro.api.errors import ApiError
from repro.api.session import RoundReport
from repro.events import (
    Arrival,
    ChurnTransition,
    EventDrivenVodSimulator,
    EventQueue,
    Expiry,
    FaultInjection,
    PlaybackStart,
    crosscheck_scenario,
)
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.replay import run_scenario

SEED = 20260808

#: The cross-check sweep: calibrated baseline, a churn regime, and one
#: chaos_* scenario whose fault driver mutates the engine mid-run.
CROSSCHECK_SCENARIOS = ["steady_state", "churn_storm", "chaos_box_crash"]


# ---------------------------------------------------------------------- #
# The queue
# ---------------------------------------------------------------------- #
class TestEventQueue:
    def test_orders_by_time_then_priority_then_push_order(self):
        queue = EventQueue()
        arrival = Arrival(time=3.0, round=3, box_id=1, video_id=0, accepted=True)
        expiry = Expiry(time=3.0, round=3, box_id=2, demand_index=0)
        churn = ChurnTransition(time=3.0, round=3, box_id=3, online=False)
        fault = FaultInjection(time=3.0, round=3, action="set_budget", box_id=-1)
        play = PlaybackStart(time=3.0, round=2, demand_index=0, startup_delay=1.5)
        early = Arrival(time=2.5, round=2, box_id=4, video_id=1, accepted=False)
        for event in (arrival, play, fault, churn, expiry, early):
            queue.push(event)
        drained = list(queue.drain_until(4.0))
        # Time first, then the fixed kind rank: expiry, churn, fault,
        # arrival, playback.
        assert drained == [early, expiry, churn, fault, arrival, play]

    def test_equal_events_drain_in_push_order(self):
        queue = EventQueue()
        a = Arrival(time=1.0, round=1, box_id=1, video_id=0, accepted=True)
        b = Arrival(time=1.0, round=1, box_id=2, video_id=0, accepted=True)
        queue.push(a)
        queue.push(b)
        assert list(queue.drain_until(2.0)) == [a, b]

    def test_drain_until_is_exclusive(self):
        """Boundary-stamped events belong to the round starting there."""
        queue = EventQueue()
        queue.push(Expiry(time=5.0, round=5, box_id=0, demand_index=0))
        assert list(queue.drain_until(5.0)) == []
        assert len(queue) == 1
        assert queue.peek_time() == 5.0
        assert len(list(queue.drain_until(6.0))) == 1

    def test_same_pushes_same_drain_order(self):
        def build():
            queue = EventQueue()
            for k in range(20):
                queue.push(
                    Arrival(
                        time=float(k % 4), round=k % 4, box_id=k,
                        video_id=0, accepted=True,
                    )
                )
                queue.push(Expiry(time=float(k % 4), round=k % 4, box_id=k,
                                  demand_index=k))
            return list(queue.drain_until(10.0))

        assert build() == build()


# ---------------------------------------------------------------------- #
# Engine parity and the latency metrics
# ---------------------------------------------------------------------- #
class TestEngineParity:
    def test_round_records_identical_across_engines(self):
        round_run = run_scenario("steady_state", seed=SEED, num_rounds=10)
        event_run = run_scenario(
            "steady_state", seed=SEED, num_rounds=10, engine="event"
        )
        assert event_run.round_records == round_run.round_records
        # The event summary is the round summary plus the latency keys.
        extras = set(event_run.summary) - set(round_run.summary)
        assert extras == {
            "admission_latency_p50",
            "admission_latency_p99",
            "startup_delay_p50",
            "startup_delay_p99",
        }

    def test_latency_percentiles_in_continuous_ranges(self):
        """Admission latencies lie in (0, 1]; the paper's 3-round startup
        bound shows up as continuous delays in (1, 2]."""
        run = run_scenario("event_steady_state", seed=SEED, num_rounds=12)
        summary = run.summary
        assert 0.0 < summary["admission_latency_p50"] <= 1.0
        assert 0.0 < summary["admission_latency_p99"] <= 1.0
        assert 1.0 < summary["startup_delay_p50"] <= 2.0
        assert 1.0 < summary["startup_delay_p99"] <= 2.0
        assert summary["admission_latency_p50"] <= summary["admission_latency_p99"]

    def test_event_run_is_deterministic(self):
        a = run_scenario("event_steady_state", seed=SEED, num_rounds=8)
        b = run_scenario("event_steady_state", seed=SEED, num_rounds=8)
        assert a.digest == b.digest
        assert a.summary == b.summary

    def test_round_binned_trace_matches_reports(self):
        report = crosscheck_scenario("steady_state", seed=SEED, rounds=10)
        assert report.matched, "\n".join(report.mismatches)
        assert len(report.round_event_counts) == 10
        assert report.admission_latency_p99 is not None

    @pytest.mark.parametrize("name", CROSSCHECK_SCENARIOS)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_binned_event_trace_reproduces_round_engine(self, name, seed):
        """Property (satellite): binning the event trace per round equals
        the round engine's accept/playback counts for any seed, including
        through a chaos scenario's fault windows."""
        report = crosscheck_scenario(name, seed=seed, rounds=8)
        assert report.matched, "\n".join(report.mismatches)


# ---------------------------------------------------------------------- #
# Facade and serialization plumbing
# ---------------------------------------------------------------------- #
def _small_system():
    return VodSystem.configure(
        catalog={"num_videos": 8, "num_stripes": 4, "duration": 12},
        population=("homogeneous", {"n": 24, "u": 2.0, "d": 3.0}),
        mu=1.5,
    )


class TestFacade:
    def test_build_simulator_event_mode(self):
        system = _small_system()
        system.allocate("permutation", replicas_per_stripe=4, seed=0)
        engine = system.build_simulator(engine="event", event_random_state=7)
        assert isinstance(engine, EventDrivenVodSimulator)

    def test_unknown_engine_rejected(self):
        system = _small_system()
        system.allocate("permutation", replicas_per_stripe=4, seed=0)
        with pytest.raises(ApiError, match="engine"):
            system.build_simulator(engine="continuous")

    def test_session_reports_carry_latency_fields(self):
        spec = get_scenario("event_steady_state")
        session = build_scenario(spec, seed=SEED).session(horizon=8)
        reports = session.step_until(rounds=8)
        with_latency = [r for r in reports if r.admission_latency_p50 is not None]
        assert with_latency, "no round reported admission latency"
        report = with_latency[-1]
        payload = report.to_dict()
        assert RoundReport.from_dict(payload) == report
        assert 0.0 < payload["admission_latency_p50"] <= 1.0

    def test_round_engine_reports_omit_latency_keys(self):
        spec = get_scenario("steady_state")
        session = build_scenario(spec, seed=SEED).session(horizon=4)
        report = session.step_until(rounds=4)[-1]
        payload = report.to_dict()
        assert "admission_latency_p50" not in payload
        assert RoundReport.from_dict(payload) == report

    def test_snapshot_restore_replays_identically(self):
        spec = get_scenario("event_steady_state")
        session = build_scenario(spec, seed=SEED).session(horizon=12)
        session.step_until(rounds=6)
        restored = VodSession.restore(session.snapshot())
        tail_a = session.step_until(round=12)
        tail_b = restored.step_until(round=12)
        assert [r.to_dict() for r in tail_a] == [r.to_dict() for r in tail_b]
        assert session.digest() == restored.digest()


# ---------------------------------------------------------------------- #
# The event trace itself
# ---------------------------------------------------------------------- #
class TestEventTrace:
    def test_full_trace_records_ordered_events(self):
        spec = get_scenario("event_steady_state")  # trace_level defaults to full
        compiled = build_scenario(spec, seed=SEED)
        compiled.run(8)
        events = compiled.simulator.processed_events
        assert events, "full trace recorded no events"
        assert any(isinstance(e, Arrival) for e in events)
        assert any(isinstance(e, PlaybackStart) for e in events)
        times = [e.time for e in events]
        assert times == sorted(times)

    def test_lean_trace_keeps_no_raw_events(self):
        import dataclasses

        spec = dataclasses.replace(
            get_scenario("event_steady_state"), trace_level="lean"
        )
        compiled = build_scenario(spec, seed=SEED)
        compiled.run(8)
        simulator = compiled.simulator
        assert simulator.processed_events == ()
        assert len(simulator.round_event_counts) == 8

    def test_expiries_fire_after_duration(self):
        spec = get_scenario("event_steady_state")
        compiled = build_scenario(spec, seed=SEED)
        duration = compiled.catalog.duration
        rounds = duration + 4
        compiled = build_scenario(spec, seed=SEED, min_horizon=rounds)
        compiled.run(rounds)
        counts = compiled.simulator.round_event_counts
        assert all(b["expirations"] == 0 for b in counts[:duration])
        assert any(b["expirations"] > 0 for b in counts[duration:])
