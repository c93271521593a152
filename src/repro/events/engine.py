"""The event-driven continuous-time engine mode.

:class:`EventDrivenVodSimulator` runs the exact same per-round state
machine as :class:`~repro.sim.engine.VodSimulator` — demands, admission,
request generation, matching, playback detection are all inherited, so
every round record is bit-identical to the round engine on the same
inputs — and layers a deterministic continuous clock over it: each round
``t`` spans the interval ``[t, t + 1)``, arrivals receive continuous
timestamps inside it, and a heap-ordered :class:`~repro.events.queue.
EventQueue` drains arrival / expiry / churn / fault / playback-start
events in timestamp order.

That layering is what makes the round-aggregation cross-check
(:mod:`repro.events.crosscheck`) exact rather than statistical: binning
the event trace by round *must* reproduce the round engine's accept
counts and playback starts because admission itself is unchanged.  What
the event mode adds is the metric the round clock cannot express —
per-request latency distributions:

* **admission latency** — a demand arriving at ``t + x`` (``x ∈ [0, 1)``)
  is admitted at the next matching boundary ``t + 1``, so its latency is
  ``1 − x``;
* **continuous startup delay** — playback begins at an integer boundary
  ``p`` (all stripes served), so the arrival-to-playback time is
  ``p − (t + x)``.  The round engine's integer delay counts the arrival
  and playback rounds inclusively (``p − t + 1``), so the paper's
  constant ``3``-round bound shows up here as *elapsed* delays in
  ``(1, 2]`` — the continuous view is always exactly ``1 + x`` tighter.

Both are recorded per round (``last_round_*`` attributes, surfaced in
:class:`~repro.api.session.RoundReport`) and per run (p50/p99 in
:class:`~repro.sim.metrics.SimulationMetrics`).

All continuous randomness (the intra-round arrival offsets) comes from a
dedicated RNG stream: the scenario compiler spawns it *after* every
pre-existing stream of the master seed, so adding the event engine never
perturbs a recorded digest.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.events.queue import (
    Arrival,
    ChurnTransition,
    EventQueue,
    Expiry,
    FaultInjection,
    PlaybackStart,
)
from repro.sim.engine import VodSimulator
from repro.sim.rules import admission_mask
from repro.util.soa import ensure_column_capacity
from repro.workloads.base import DemandGenerator

__all__ = ["EventDrivenVodSimulator"]


class EventDrivenVodSimulator(VodSimulator):
    """Round-parity engine with a continuous event clock.

    Accepts every :class:`~repro.sim.engine.VodSimulator` argument plus
    ``event_random_state`` — the seed/stream of the intra-round arrival
    offsets (the only randomness the event layer consumes).  Construct
    through :meth:`repro.api.VodSystem.build_simulator` with
    ``engine="event"``; the scenario compiler wires the stream from the
    master seed automatically.
    """

    def __init__(self, *args: Any, event_random_state=None, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._event_rng = np.random.default_rng(event_random_state)
        self._queue = EventQueue()
        #: Continuous arrival timestamp per accepted demand, parallel to
        #: the demand log (rejected arrivals only exist as queue events).
        self._arrival_time = np.empty(64, dtype=np.float64)
        #: One aggregate-count record per completed round (the
        #: round-binned event trace the cross-check consumes).
        self._round_event_counts: List[Dict[str, int]] = []
        #: Raw drained events in drain order; kept only under the full
        #: trace level so lean scale runs stay memory-bounded.
        self._processed_events: List[object] = []
        self._prev_offline = np.empty(0, dtype=np.int64)
        self._round_arrivals = 0
        self._round_accepted = 0
        self._round_playbacks = 0
        self._round_latencies: Optional[np.ndarray] = None
        self._round_delays: Optional[np.ndarray] = None
        self.last_round_admission_latency_p50: Optional[float] = None
        self.last_round_admission_latency_p99: Optional[float] = None
        self.last_round_startup_delay_p50: Optional[float] = None
        self.last_round_startup_delay_p99: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Event-trace accessors
    # ------------------------------------------------------------------ #
    @property
    def round_event_counts(self) -> Tuple[Dict[str, int], ...]:
        """Per-round aggregate event counts (the round-binned trace)."""
        return tuple(self._round_event_counts)

    @property
    def processed_events(self) -> Tuple[object, ...]:
        """Drained events in drain order (full trace level only)."""
        return tuple(self._processed_events)

    @property
    def pending_events(self) -> int:
        """Events still queued past the last completed round's horizon."""
        return len(self._queue)

    # ------------------------------------------------------------------ #
    # The round boundary
    # ------------------------------------------------------------------ #
    def step(self, workload: DemandGenerator) -> bool:
        time = self._clock.now
        self._begin_round(time)
        feasible = super().step(workload)
        self._finish_round(time)
        return feasible

    def _begin_round(self, time: int) -> None:
        self._round_arrivals = 0
        self._round_accepted = 0
        self._round_playbacks = 0
        self._round_latencies = None
        self._round_delays = None
        current = self._offline_array(time)
        if current.size or self._prev_offline.size:
            for box in np.setdiff1d(current, self._prev_offline).tolist():
                self._queue.push(
                    ChurnTransition(
                        time=float(time), round=time, box_id=int(box), online=False
                    )
                )
            for box in np.setdiff1d(self._prev_offline, current).tolist():
                self._queue.push(
                    ChurnTransition(
                        time=float(time), round=time, box_id=int(box), online=True
                    )
                )
            self._prev_offline = current.copy()

    def _finish_round(self, time: int) -> None:
        expirations = churn = faults = 0
        keep_raw = self._full_trace
        for event in self._queue.drain_until(time + 1):
            kind = type(event)
            if kind is Expiry:
                expirations += 1
            elif kind is ChurnTransition:
                churn += 1
            elif kind is FaultInjection:
                faults += 1
            if keep_raw:
                self._processed_events.append(event)
        self._round_event_counts.append(
            {
                "round": int(time),
                "arrivals": int(self._round_arrivals),
                "accepted": int(self._round_accepted),
                "playback_starts": int(self._round_playbacks),
                "expirations": int(expirations),
                "churn_transitions": int(churn),
                "fault_injections": int(faults),
            }
        )
        lat = self._round_latencies
        self.last_round_admission_latency_p50 = (
            float(np.percentile(lat, 50)) if lat is not None and lat.size else None
        )
        self.last_round_admission_latency_p99 = (
            float(np.percentile(lat, 99)) if lat is not None and lat.size else None
        )
        delays = self._round_delays
        self.last_round_startup_delay_p50 = (
            float(np.percentile(delays, 50))
            if delays is not None and delays.size
            else None
        )
        self.last_round_startup_delay_p99 = (
            float(np.percentile(delays, 99))
            if delays is not None and delays.size
            else None
        )

    # ------------------------------------------------------------------ #
    # Arrival timestamps (the admission hooks)
    # ------------------------------------------------------------------ #
    def _draw_arrival_times(self, count: int, time: int) -> np.ndarray:
        """``count`` continuous timestamps in ``[time, time + 1)``, sorted.

        Sorted offsets assigned in emission order keep the continuous
        arrival order identical to the workload's emission order, which is
        what makes the round binning reproduce the round engine's
        admission decisions record for record.
        """
        if not count:
            return np.empty(0, dtype=np.float64)
        return time + np.sort(self._event_rng.random(count))

    def _accept_demand_arrays(
        self, box_ids: np.ndarray, video_ids: np.ndarray, time: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        count = int(box_ids.size)
        times = self._draw_arrival_times(count, time)
        # The admission rule reads only pre-round state, so evaluating it
        # before the parent mutates the busy horizons reproduces exactly
        # the accept mask the parent is about to apply.
        accept = (
            admission_mask(self._busy_until, box_ids, time)
            if count
            else np.empty(0, dtype=bool)
        )
        demand_indices, boxes, videos = super()._accept_demand_arrays(
            box_ids, video_ids, time
        )
        self._round_arrivals += count
        self._round_accepted += int(demand_indices.size)
        for position in range(count):
            self._queue.push(
                Arrival(
                    time=float(times[position]),
                    round=time,
                    box_id=int(box_ids[position]),
                    video_id=int(video_ids[position]),
                    accepted=bool(accept[position]),
                )
            )
        if demand_indices.size:
            accepted_times = times[accept]
            lo = int(demand_indices[0])
            hi = lo + int(demand_indices.size)
            ensure_column_capacity(self, ("_arrival_time",), lo, hi)
            self._arrival_time[lo:hi] = accepted_times
            duration = self._catalog.duration
            for offset in range(hi - lo):
                self._queue.push(
                    Expiry(
                        time=float(time + duration),
                        round=time + duration,
                        box_id=int(boxes[offset]),
                        demand_index=lo + offset,
                    )
                )
            latencies = (time + 1) - accepted_times
            self._round_latencies = latencies
            self._metrics.record_admission_latencies(latencies)
        return demand_indices, boxes, videos

    # ------------------------------------------------------------------ #
    # Playback starts
    # ------------------------------------------------------------------ #
    def _detect_playback_starts(
        self, time: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        hits = super()._detect_playback_starts(time)
        if hits is None:
            return None
        ready_idx, playback_rounds, _ = hits
        self._round_playbacks += int(ready_idx.size)
        continuous = playback_rounds.astype(np.float64) - self._arrival_time[ready_idx]
        self._round_delays = continuous
        self._metrics.record_continuous_delays(continuous)
        for k in range(ready_idx.size):
            self._queue.push(
                PlaybackStart(
                    time=float(playback_rounds[k]),
                    round=time,
                    demand_index=int(ready_idx[k]),
                    startup_delay=float(continuous[k]),
                )
            )
        return hits

    # ------------------------------------------------------------------ #
    # Live mutations become fault events
    # ------------------------------------------------------------------ #
    def set_upload_capacity(self, box_id: int, upload: float) -> int:
        slots = super().set_upload_capacity(box_id, upload)
        time = self._clock.now
        self._queue.push(
            FaultInjection(
                time=float(time),
                round=time,
                action="set_upload_capacity",
                box_id=int(box_id),
            )
        )
        return slots

    def set_solver_budget(self, budget) -> None:
        super().set_solver_budget(budget)
        time = self._clock.now
        self._queue.push(
            FaultInjection(
                time=float(time),
                round=time,
                action="set_solver_budget" if budget is not None else "clear_budget",
                box_id=-1,
            )
        )
