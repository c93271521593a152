"""Structural interfaces of the pluggable engine components.

These :class:`typing.Protocol` definitions pin down what the engine
actually consumes from each component, so alternative implementations can
be registered (:mod:`repro.api.registry`) and swapped without inheriting
from the built-in classes:

* :class:`Solver` — the per-round connection matcher (Lemma 1);
  :class:`~repro.core.matching.ConnectionMatcher` is the reference
  implementation, parameterized by kernel name;
* :class:`RequestScheduler` — turns user demands into dated stripe
  requests (:class:`~repro.core.preloading.PreloadingScheduler` is the
  paper's preloading strategy, ``ImmediateRequestScheduler`` the ablation);
* :class:`DemandGenerator` — re-exported from :mod:`repro.workloads.base`:
  the per-round demand source;
* :class:`ChurnModel` — decides which boxes are offline each round
  (:class:`~repro.sim.churn.ChurnSchedule` is the deterministic reference).

All protocols are ``runtime_checkable`` so facade construction can
validate injected components early with ``isinstance``.
"""

from __future__ import annotations

from typing import (
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    runtime_checkable,
)

import numpy as np

from repro.core.matching import ConnectionMatching, PossessionIndex, RequestSet
from repro.core.matching import StripeRequest
from repro.core.preloading import Demand
from repro.workloads.base import DemandGenerator, SystemView

__all__ = [
    "Solver",
    "RequestScheduler",
    "DemandGenerator",
    "ChurnModel",
    "SystemView",
]


@runtime_checkable
class Solver(Protocol):
    """Per-round connection matching: requests × possession → assignment."""

    @property
    def upload_slots(self) -> np.ndarray:
        """Per-box stripe-upload capacities ``⌊u_b·c⌋`` of the instance."""
        ...  # pragma: no cover

    def match(
        self,
        requests: RequestSet,
        possession: PossessionIndex,
        current_time: int,
        busy_slots: Optional[Sequence[int]] = None,
        warm_start: Optional[Sequence[int]] = None,
    ) -> ConnectionMatching:
        """Solve the round's b-matching; must return a *maximum* matching."""
        ...  # pragma: no cover


@runtime_checkable
class RequestScheduler(Protocol):
    """Demand → dated stripe requests (the preloading strategy of Section 3)."""

    @property
    def start_up_delay(self) -> int:
        """Nominal start-up delay of the strategy, in rounds."""
        ...  # pragma: no cover

    def on_demand(self, demand: Demand) -> List[StripeRequest]:
        """Requests to issue at the demand round (others queued internally)."""
        ...  # pragma: no cover

    def requests_due(self, time: int) -> List[StripeRequest]:
        """Pop the postponed requests queued for round ``time``."""
        ...  # pragma: no cover


@runtime_checkable
class ChurnModel(Protocol):
    """Per-round box availability."""

    def offline_boxes(self, time: int) -> Set[int]:
        """Boxes offline at round ``time``."""
        ...  # pragma: no cover

    def is_offline(self, box_id: int, time: int) -> bool:
        """Whether ``box_id`` is offline at round ``time``."""
        ...  # pragma: no cover
