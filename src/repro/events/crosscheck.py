"""Round-aggregation cross-check between the event and round engines.

The event engine's parity claim is structural — it inherits the round
engine's admission/matching/playback state machine — but structural
claims rot, so this harness proves the claim on live runs: it steps the
same ``(scenario, seed)`` through both engine modes and verifies, record
for record,

1. **engine parity** — every stepped :class:`~repro.api.session.
   RoundReport` agrees field for field (the eight ``RoundStats`` fields
   plus rejections, playback starts, offline boxes and the degradation
   flags) between the two engines;
2. **bin consistency** — the event engine's own round-binned event trace
   (:attr:`~repro.events.engine.EventDrivenVodSimulator.
   round_event_counts`) reproduces its reports: per round, accepted
   arrivals equal ``arrivals − rejected`` and binned playback starts
   equal the report's count;
3. **totals** — the final summaries agree on demand totals.

Together: binning the continuous event trace per round reproduces the
round engine's accept counts and playback starts exactly.  The CLI
(``python -m repro.scenarios crosscheck``) and the CI ``event-smoke``
job run this; the hypothesis property test sweeps it across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

__all__ = ["CrosscheckReport", "crosscheck_scenario"]

#: RoundReport fields compared for engine parity — everything except the
#: event-only latency percentiles (the round engine cannot report them).
_PARITY_FIELDS = (
    "time",
    "active_requests",
    "new_requests",
    "matched",
    "unmatched",
    "feasible",
    "upload_used",
    "upload_capacity",
    "demands_injected",
    "demands_rejected",
    "playback_starts",
    "offline_boxes",
    "degraded",
    "repair_fallback",
)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of one scenario's event/round cross-check."""

    scenario: str
    seed: int
    rounds: int
    mismatches: Tuple[str, ...] = ()
    admission_latency_p50: Optional[float] = None
    admission_latency_p99: Optional[float] = None
    startup_delay_p50: Optional[float] = None
    startup_delay_p99: Optional[float] = None
    round_event_counts: Tuple[Dict[str, int], ...] = field(default=())

    @property
    def matched(self) -> bool:
        """Whether every record agreed (no mismatches)."""
        return not self.mismatches

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready plain-dict form (what the CLI prints)."""
        return {
            "scenario": self.scenario,
            "seed": int(self.seed),
            "rounds": int(self.rounds),
            "matched": self.matched,
            "mismatches": list(self.mismatches),
            "admission_latency_p50": self.admission_latency_p50,
            "admission_latency_p99": self.admission_latency_p99,
            "startup_delay_p50": self.startup_delay_p50,
            "startup_delay_p99": self.startup_delay_p99,
        }


def _run_session(spec: ScenarioSpec, seed: Optional[int], rounds: int):
    compiled = build_scenario(spec, seed=seed, min_horizon=rounds)
    session = compiled.session(horizon=rounds)
    reports = session.step_until(rounds=rounds)
    return compiled, reports, session.result()


def crosscheck_scenario(
    scenario: Union[str, ScenarioSpec],
    seed: Optional[int] = None,
    rounds: Optional[int] = None,
) -> CrosscheckReport:
    """Run ``scenario`` through both engine modes and compare them.

    ``seed`` defaults to the spec's; ``rounds`` to its horizon.  Works on
    fault-injecting (chaos) scenarios too — both sessions drive the same
    fault driver schedule, so parity must hold through the fault windows.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    rounds = spec.horizon if rounds is None else int(rounds)
    _, round_reports, round_result = _run_session(
        spec.with_overrides(engine="round"), seed, rounds
    )
    event_compiled, event_reports, event_result = _run_session(
        spec.with_overrides(engine="event"), seed, rounds
    )
    counts = event_compiled.simulator.round_event_counts

    mismatches: List[str] = []
    if len(round_reports) != len(event_reports):
        mismatches.append(
            f"round count: round engine {len(round_reports)}, "
            f"event engine {len(event_reports)}"
        )
    for index, (round_report, event_report) in enumerate(
        zip(round_reports, event_reports)
    ):
        for name in _PARITY_FIELDS:
            expected = getattr(round_report, name)
            got = getattr(event_report, name)
            if expected != got:
                mismatches.append(
                    f"round {index} field {name}: round engine {expected!r}, "
                    f"event engine {got!r}"
                )
    for index, (bins, event_report) in enumerate(zip(counts, event_reports)):
        rejected = bins["arrivals"] - bins["accepted"]
        if rejected != event_report.demands_rejected:
            mismatches.append(
                f"round {index} binned rejections {rejected} != report "
                f"{event_report.demands_rejected}"
            )
        if bins["playback_starts"] != event_report.playback_starts:
            mismatches.append(
                f"round {index} binned playback starts {bins['playback_starts']} "
                f"!= report {event_report.playback_starts}"
            )
    if len(counts) != len(event_reports):
        mismatches.append(
            f"event trace rounds {len(counts)} != reports {len(event_reports)}"
        )
    round_total = round_result.metrics.total_demands
    event_total = event_result.metrics.total_demands
    if round_total != event_total:
        mismatches.append(
            f"total demands: round engine {round_total}, event engine {event_total}"
        )
    binned_total = sum(b["accepted"] for b in counts)
    if binned_total != event_total:
        mismatches.append(
            f"binned accepted total {binned_total} != metrics {event_total}"
        )

    metrics = event_result.metrics
    return CrosscheckReport(
        scenario=spec.name,
        seed=int(seed if seed is not None else spec.default_seed),
        rounds=rounds,
        mismatches=tuple(mismatches),
        admission_latency_p50=metrics.admission_latency_p50,
        admission_latency_p99=metrics.admission_latency_p99,
        startup_delay_p50=metrics.startup_delay_p50,
        startup_delay_p99=metrics.startup_delay_p99,
        round_event_counts=counts,
    )
