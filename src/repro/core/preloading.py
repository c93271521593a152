"""The preloading request strategy of Theorem 1 (Section 3).

When the user of box ``b`` demands a video ``v`` during the interval
``[t−1, t[``:

1. a **preloading request** ``(s, t, b)`` for *one* stripe ``s`` of ``v``
   is issued at time ``t``;
2. ``c−1`` **postponed requests** for the remaining stripes are issued at
   time ``t+1``;
3. playback starts at ``t+2`` once all connections are wired — a start-up
   delay of **3 rounds**.

To balance the preloading load, each video keeps a counter of the boxes
entering its swarm; the ``p``-th box preloads stripe number ``p mod c`` so
that all stripes of a video are equally preloaded.  This is the mechanism
that lets a swarm absorb growth ``µ``: boxes that entered one round ago
hold pairwise-distinct preloaded stripes and can re-serve them ``⌊u·c⌋``
times each.

:class:`PreloadingScheduler` turns user *demands* into dated
:class:`~repro.core.matching.StripeRequest` objects; the simulator drains
them round by round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.matching import StripeRequest
from repro.core.video import Catalog
from repro.util.validation import check_non_negative_integer

__all__ = [
    "Demand",
    "PreloadingScheduler",
    "ImmediateRequestScheduler",
    "START_UP_DELAY_ROUNDS",
]

#: Start-up delay of the homogeneous preloading strategy, in rounds.
START_UP_DELAY_ROUNDS = 3


def _check_catalog_growth(old: Catalog, new: Catalog) -> Catalog:
    """Validate a live catalog swap: grow-only, same stripe count/duration.

    Global stripe identifiers are ``video_id·c + index``; changing ``c``
    or shrinking the catalog would shift or orphan the identifiers of
    already-queued requests.
    """
    if (
        new.num_stripes_per_video != old.num_stripes_per_video
        or new.duration != old.duration
        or new.num_videos < old.num_videos
    ):
        raise ValueError(
            "update_catalog only supports growing the catalog with the "
            "same stripe count and duration"
        )
    return new


@dataclass(frozen=True, order=True)
class Demand:
    """A user demand: box ``box_id`` wants to play ``video_id`` from round ``time``."""

    time: int
    box_id: int
    video_id: int

    def __post_init__(self) -> None:
        check_non_negative_integer(self.time, "time")
        check_non_negative_integer(self.box_id, "box_id")
        check_non_negative_integer(self.video_id, "video_id")


class PreloadingScheduler:
    """Converts demands into preloading + postponed stripe requests.

    :meth:`on_demand_arrays` is the one implementation of the strategy;
    :meth:`on_demand` and :meth:`on_demands_batch` are adapters over it
    for callers holding :class:`Demand` objects.

    Parameters
    ----------
    catalog:
        The video catalog (provides ``c`` and global stripe identifiers).
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        #: Per-video swarm-entry counter used to rotate the preload stripe.
        self._entry_counter: Dict[int, int] = {}
        #: Requests queued for future rounds, as struct-of-arrays blocks:
        #: round -> list of (stripe_ids, box_ids, demand_indices) with
        #: demand index −1 when queued through :meth:`on_demand`.
        self._pending: Dict[int, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        #: Demand log, as ``(time, box_ids, video_ids)`` blocks in arrival
        #: order (materialized into Demand objects on :attr:`demands_seen`).
        self._scheduled_blocks: List[Tuple[int, np.ndarray, np.ndarray]] = []

    @property
    def catalog(self) -> Catalog:
        """The catalog the scheduler generates requests against."""
        return self._catalog

    def update_catalog(self, catalog: Catalog) -> None:
        """Adopt a grown catalog (live ``add_videos`` reconfiguration)."""
        self._catalog = _check_catalog_growth(self._catalog, catalog)

    @property
    def start_up_delay(self) -> int:
        """Start-up delay of the strategy, in rounds (3)."""
        return START_UP_DELAY_ROUNDS

    def swarm_entry_count(self, video_id: int) -> int:
        """Number of boxes that have entered the swarm of ``video_id`` so far."""
        return self._entry_counter.get(int(video_id), 0)

    # ------------------------------------------------------------------ #
    # Demand handling
    # ------------------------------------------------------------------ #
    def on_demand(self, demand: Demand) -> List[StripeRequest]:
        """Process a demand arriving in ``[demand.time − 1, demand.time[``.

        Returns the requests to issue *at* ``demand.time`` (the preloading
        request) and internally queues the ``c−1`` postponed requests for
        ``demand.time + 1``, with demand index −1.
        """
        self._catalog.video(demand.video_id)  # validates the video id
        pre_stripes, _, _ = self.on_demand_arrays(
            np.array([demand.video_id], dtype=np.int64),
            np.array([demand.box_id], dtype=np.int64),
            np.array([-1], dtype=np.int64),
            demand.time,
        )
        return [
            StripeRequest(
                stripe_id=int(pre_stripes[0]),
                request_time=demand.time,
                box_id=demand.box_id,
                is_preload=True,
            )
        ]

    def on_demands_batch(
        self, accepted: List[Tuple[int, Demand]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`on_demand_arrays` over ``(demand index, Demand)`` pairs.

        All demands must share one arrival round.  The engine no longer
        calls it; ``perfbench/spans.py`` still traces it by name.
        """
        if not accepted:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        return self.on_demand_arrays(
            np.array([demand.video_id for _, demand in accepted], dtype=np.int64),
            np.array([demand.box_id for _, demand in accepted], dtype=np.int64),
            np.array([index for index, _ in accepted], dtype=np.int64),
            accepted[0][1].time,
        )

    def on_demand_arrays(
        self,
        video_ids: np.ndarray,
        box_ids: np.ndarray,
        demand_indices: np.ndarray,
        time: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Process one round's arrivals, given as parallel arrays.

        Returns the preloading requests issued at ``time`` as
        ``(stripe_ids, box_ids, demand_indices)`` and queues the ``c−1``
        postponed requests of each arrival, with its demand index, for
        ``time + 1``.  Arrivals are processed in array order: the ``p``-th
        box entering a video's swarm preloads stripe ``p mod c``.
        """
        c = self._catalog.num_stripes_per_video
        n = int(video_ids.size)
        time = int(time)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        counter = self._entry_counter
        entries = []
        for vid in video_ids.tolist():
            entry = counter.get(vid, 0)
            counter[vid] = entry + 1
            entries.append(entry)
        preload_idx = np.array(entries, dtype=np.int64) % c
        self._scheduled_blocks.append((time, box_ids.copy(), video_ids.copy()))
        pre_stripes = video_ids * c + preload_idx
        if c > 1:
            stripe_offsets = np.arange(c, dtype=np.int64)
            grid = video_ids[:, None] * c + stripe_offsets[None, :]
            keep = stripe_offsets[None, :] != preload_idx[:, None]
            self._pending.setdefault(time + 1, []).append(
                (
                    grid[keep],
                    np.repeat(box_ids, c - 1),
                    np.repeat(demand_indices, c - 1),
                )
            )
        return pre_stripes, box_ids, demand_indices

    def due_arrays(self, time: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pop the postponed requests queued for round ``time`` as arrays.

        Returns ``(stripe_ids, box_ids, demand_indices)``; a demand index
        of −1 marks a request queued through :meth:`on_demand` (the engine
        resolves it against its demand log).
        """
        check_non_negative_integer(time, "time")
        blocks = self._pending.pop(time, None)
        if not blocks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        if len(blocks) == 1:
            return blocks[0]
        return (
            np.concatenate([b[0] for b in blocks]),
            np.concatenate([b[1] for b in blocks]),
            np.concatenate([b[2] for b in blocks]),
        )

    def requests_due(self, time: int) -> List[StripeRequest]:
        """Pop and return the postponed requests queued for round ``time``."""
        stripes, boxes, _ = self.due_arrays(time)
        return [
            StripeRequest(
                stripe_id=int(s), request_time=time, box_id=int(b), is_preload=False
            )
            for s, b in zip(stripes.tolist(), boxes.tolist())
        ]

    def pending_rounds(self) -> Tuple[int, ...]:
        """Rounds that still have queued postponed requests (sorted)."""
        return tuple(sorted(self._pending))

    def playback_start_round(self, demand: Demand) -> int:
        """Round at which playback of ``demand`` begins (demand time + delay − 1).

        The demand arrives in ``[t−1, t[``, the preload request is wired for
        ``t+1`` and the postponed ones for ``t+2``; all ``c`` stripes flow
        from ``t+2`` on, i.e. 3 rounds after the demand arrival interval
        started.
        """
        return demand.time + START_UP_DELAY_ROUNDS - 1

    @property
    def demands_seen(self) -> Tuple[Demand, ...]:
        """All demands processed so far (chronological order of arrival)."""
        return tuple(
            Demand(time=time, box_id=b, video_id=v)
            for time, boxes, videos in self._scheduled_blocks
            for b, v in zip(boxes.tolist(), videos.tolist())
        )

    def reset(self) -> None:
        """Clear all counters and queued requests."""
        self._entry_counter.clear()
        self._pending.clear()
        self._scheduled_blocks.clear()


class ImmediateRequestScheduler:
    """Ablation of the preloading strategy: request all ``c`` stripes at once.

    This scheduler drops both ingredients of Section 3 — the one-round
    postponement of ``c−1`` stripes and the round-robin rotation of the
    preload stripe — and simply issues all ``c`` stripe requests at the
    demand round.  It is *not* part of the paper's construction; it exists
    to measure how much the preloading strategy buys: without it, the
    newest generation of a fast-growing swarm cannot be fed by the
    previous generation's preloaded stripes, and flash crowds at high ``µ``
    overwhelm the static allocation (see
    ``benchmarks/bench_ablation_preloading.py``).

    The interface mirrors :class:`PreloadingScheduler` so the simulator can
    use either interchangeably.  The nominal start-up delay is 2 rounds
    (requests at ``t``, wired for ``t+1``, playback at ``t+1``), one round
    less than the preloading strategy — the ablation trades robustness for
    that round.
    """

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._scheduled: List[Demand] = []

    @property
    def catalog(self) -> Catalog:
        """The catalog the scheduler generates requests against."""
        return self._catalog

    def update_catalog(self, catalog: Catalog) -> None:
        """Adopt a grown catalog (same constraints as the preloading strategy)."""
        self._catalog = _check_catalog_growth(self._catalog, catalog)

    @property
    def start_up_delay(self) -> int:
        """Nominal start-up delay of the ablated strategy (2 rounds)."""
        return 2

    def on_demand(self, demand: Demand) -> List[StripeRequest]:
        """Issue all ``c`` stripe requests of the demanded video immediately."""
        video = self._catalog.video(demand.video_id)
        self._scheduled.append(demand)
        requests = []
        for index in range(video.num_stripes):
            requests.append(
                StripeRequest(
                    stripe_id=self._catalog.stripe_id(demand.video_id, index),
                    request_time=demand.time,
                    box_id=demand.box_id,
                    is_preload=(index == 0),
                )
            )
        return requests

    def requests_due(self, time: int) -> List[StripeRequest]:
        """No postponed requests exist under this strategy."""
        check_non_negative_integer(time, "time")
        return []

    @property
    def demands_seen(self) -> Tuple[Demand, ...]:
        """All demands processed so far."""
        return tuple(self._scheduled)

    def reset(self) -> None:
        """Clear the demand log."""
        self._scheduled.clear()
