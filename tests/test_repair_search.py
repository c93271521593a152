"""Differential tests for the level-batched incremental repair search.

The repair's exact search (:func:`repro.flow.hopcroft_karp.repair_matching`)
fetches adjacency a chunk of discovered rows at a time and defers its
right-match index until a search leaves its root.  Neither may change a
result: the scalar one-row-at-a-time search it replaced is kept here as
the reference, and both run on the same instances — built from a real
:class:`PossessionIndex` (static replicas, playback caches with expiries,
relay caches, duplicate edges) — with the same budgets, including budgets
that run out exactly at the last discovery.  A pinned digest of the
per-round assignments of a near-threshold run ties the engine to the
results the scalar search produced.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.matching as matching_module
from repro.core.allocation import Allocation
from repro.core.matching import NEVER_EXPIRES, PossessionIndex, StripeRequest
from repro.core.parameters import homogeneous_population
from repro.core.video import Catalog
from repro.flow.hopcroft_karp import (
    _DeferredRightMatches,
    _kuhn_augment_lazy,
    _LazyRightMatches,
    repair_matching,
)
from repro.scenarios.build import build_scenario
from repro.scenarios.spec import (
    AllocationSpec,
    CatalogSpec,
    PopulationSpec,
    ScenarioSpec,
    WorkloadPhaseSpec,
)


# ---------------------------------------------------------------------- #
# Reference: the scalar search, one row and one gather per discovery
# ---------------------------------------------------------------------- #
def _reference_search(
    i0, get_row, cap, load, has_free, match_left, right_matches, pair_expiry,
    budget: List[int],
) -> Optional[bool]:
    parent: dict = {i0: None}

    def try_free(u, boxes_arr, boxes, exps):
        if not boxes_arr.size:
            return False
        mask = has_free[boxes_arr]
        e = int(np.argmax(mask))
        if not mask[e]:
            return False
        j = boxes[e]
        right_matches[j].append(u)
        load[j] += 1
        if load[j] >= cap[j]:
            has_free[j] = False
        match_left[u] = j
        pair_expiry[u] = exps[e]
        cur = u
        link = parent[cur]
        while link is not None:
            p, b, x = link
            siblings = right_matches[b]
            siblings[siblings.index(cur)] = p
            match_left[p] = b
            pair_expiry[p] = x
            cur = p
            link = parent[cur]
        return True

    arr0, row0, exp0 = get_row(i0)
    if try_free(i0, arr0, row0, exp0):
        return True
    visited = set()
    frontier = deque(((i0, row0, exp0),))
    while frontier:
        u, boxes, exps = frontier.popleft()
        for e in range(len(boxes)):
            j = boxes[e]
            if j in visited:
                continue
            visited.add(j)
            x = exps[e]
            for k in right_matches[j]:
                if k in parent:
                    continue
                if budget[0] <= 0:
                    return None
                budget[0] -= 1
                parent[k] = (u, j, x)
                ak, bk, xk = get_row(k)
                if try_free(k, ak, bk, xk):
                    return True
                frontier.append((k, bk, xk))
    return False


def _row_getter(fetch_rows):
    """Per-row access through ``fetch_rows``, cached like the old repair."""
    cache = {}

    def get_row(i):
        row = cache.get(i)
        if row is None:
            _, arr, exp = fetch_rows(np.asarray([i], dtype=np.int64))
            row = cache[i] = (arr, arr.tolist(), exp.tolist())
        return row

    return get_row


def _reference_repair(
    fetch_rows, right_capacities, assignment, load, pair_expiry, deficit_rows,
    search_budget=None,
) -> bool:
    deficit_rows = [int(i) for i in deficit_rows]
    if search_budget is not None and len(deficit_rows) > search_budget:
        return False
    matched_i = np.flatnonzero(assignment >= 0)
    right_matches = _LazyRightMatches(
        right_capacities.size, matched_i, assignment[matched_i], []
    )
    has_free = load < right_capacities
    budget = [max(100_000, 16 * len(deficit_rows))]
    get_row = _row_getter(fetch_rows)
    for i in deficit_rows:
        if not _reference_search(
            i, get_row, right_capacities, load, has_free, assignment,
            right_matches, pair_expiry, budget,
        ):
            return False
    return True


# ---------------------------------------------------------------------- #
# Instances
# ---------------------------------------------------------------------- #
class _Instance:
    """A partial matching over a bipartite instance, plus a deficit order."""

    def _match_partially(self, draw, num_right, first_fit):
        # A valid partial matching, requests visited in a random order:
        # each takes its first edge to a box with room (``first_fit``,
        # which saturates boxes) or, some of the time, a random edge while
        # that box has room.
        indptr, indices, expiry = self.fetch_rows(None)
        num = indptr.size - 1
        self.assignment = np.full(num, -1, dtype=np.int64)
        self.pair_expiry = np.full(num, -1, dtype=np.int64)
        self.load = np.zeros(num_right, dtype=np.int64)
        for i in draw(st.permutations(range(num))):
            lo, hi = int(indptr[i]), int(indptr[i + 1])
            if first_fit:
                room = self.load[indices[lo:hi]] < self.capacities[indices[lo:hi]]
                if not room.any():
                    continue
                e = lo + int(np.argmax(room))
            else:
                if hi == lo or not draw(st.integers(0, 3)):
                    continue
                e = draw(st.integers(lo, hi - 1))
            j = int(indices[e])
            if self.load[j] < self.capacities[j]:
                self.assignment[i] = j
                self.pair_expiry[i] = expiry[e]
                self.load[j] += 1
        unmatched = np.flatnonzero(self.assignment < 0).tolist()
        self.deficit = draw(st.permutations(unmatched))

    def state(self):
        return self.assignment.copy(), self.load.copy(), self.pair_expiry.copy()


class _PossessionInstance(_Instance):
    """One round of a small possession index: caches, relays, duplicates."""

    def __init__(self, draw):
        num_boxes = draw(st.integers(2, 9))
        num_videos = draw(st.integers(1, 3))
        k = draw(st.integers(1, 3))
        window = draw(st.integers(1, 4))
        catalog = Catalog(num_videos=num_videos, num_stripes=2, duration=20)
        num_stripes = catalog.total_stripes
        # Replica lists may repeat a box: the static index dedups them.
        replica_box = np.asarray(
            draw(st.lists(st.integers(0, num_boxes - 1),
                          min_size=num_stripes * k, max_size=num_stripes * k)),
            dtype=np.int64,
        )
        population = homogeneous_population(num_boxes, u=1.0, d=float(num_stripes * k))
        possession = PossessionIndex(
            Allocation(catalog, population, k, replica_box), cache_window=window
        )
        self.time = window + 2
        stripe = st.integers(0, num_stripes - 1)
        box = st.integers(0, num_boxes - 1)
        downloads = draw(st.lists(
            st.tuples(stripe, box, st.integers(0, self.time - 1)), max_size=25
        ))
        for s, b, t in sorted(downloads, key=lambda d: d[2]):
            possession.record_download(s, b, t)
        for s, b in draw(st.lists(st.tuples(stripe, box), max_size=6)):
            possession.record_relay_cache(s, b)
        possession.evict_before(self.time)
        self.possession = possession
        self.requests = [
            StripeRequest(s, t, b)
            for s, t, b in draw(st.lists(
                st.tuples(stripe, st.integers(0, self.time), box),
                min_size=1, max_size=40,
            ))
        ]
        self.capacities = np.asarray(
            draw(st.lists(st.integers(0, 3), min_size=num_boxes, max_size=num_boxes)),
            dtype=np.int64,
        )
        self._match_partially(draw, num_boxes, first_fit=False)

    def fetch_rows(self, rows):
        return self.possession.adjacency_delta_for(self.requests, self.time, rows=rows)


class _SaturatedInstance(_Instance):
    """More requests than slots, nearly all slots taken: long searches."""

    def __init__(self, draw):
        num_right = draw(st.integers(2, 10))
        self.capacities = np.asarray(
            draw(st.lists(st.integers(0, 2), min_size=num_right, max_size=num_right)),
            dtype=np.int64,
        )
        num_left = int(self.capacities.sum()) + draw(st.integers(1, 6))
        rows = [
            draw(st.lists(st.integers(0, num_right - 1), min_size=1, max_size=4))
            for _ in range(num_left)
        ]
        self.indptr = np.zeros(num_left + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=self.indptr[1:])
        self.indices = np.asarray([b for row in rows for b in row], dtype=np.int64)
        self.expiry = np.asarray(
            draw(st.lists(st.integers(0, 50), min_size=self.indices.size,
                          max_size=self.indices.size)),
            dtype=np.int64,
        )
        self._match_partially(draw, num_right, first_fit=True)

    def fetch_rows(self, rows):
        if rows is None:
            return self.indptr, self.indices, self.expiry
        starts, ends = self.indptr[rows], self.indptr[np.asarray(rows) + 1]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(ends - starts, out=indptr[1:])
        edges = np.concatenate(
            [np.arange(a, b) for a, b in zip(starts, ends)] + [np.empty(0, np.int64)]
        ).astype(np.int64)
        return indptr, self.indices[edges], self.expiry[edges]


possession_instances = st.composite(lambda draw: _PossessionInstance(draw))()
instances = st.one_of(
    possession_instances, st.composite(lambda draw: _SaturatedInstance(draw))()
)

_SETTINGS = settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_reference_searches(inst, budget_value):
    assignment, load, pair_expiry = inst.state()
    matched_i = np.flatnonzero(assignment >= 0)
    right_matches = _LazyRightMatches(
        inst.capacities.size, matched_i, assignment[matched_i], []
    )
    has_free = load < inst.capacities
    budget = [budget_value]
    get_row = _row_getter(inst.fetch_rows)
    outcomes = []
    for i in inst.deficit:
        outcome = _reference_search(
            i, get_row, inst.capacities, load, has_free, assignment,
            right_matches, pair_expiry, budget,
        )
        outcomes.append(outcome)
        if not outcome:
            break
    return outcomes, assignment, load, pair_expiry, has_free, budget[0]


def _run_batched_searches(inst, budget_value):
    assignment, load, pair_expiry = inst.state()
    right_matches = _DeferredRightMatches(inst.capacities.size, assignment)
    has_free = load < inst.capacities
    budget = [budget_value]
    outcomes = []
    for i in inst.deficit:
        _, root_boxes, root_expiry = inst.fetch_rows(np.asarray([i], dtype=np.int64))
        outcome = _kuhn_augment_lazy(
            i, root_boxes, root_expiry, inst.fetch_rows, inst.capacities, load,
            has_free, assignment, right_matches, pair_expiry, budget,
        )
        outcomes.append(outcome)
        if not outcome:
            break
    return outcomes, assignment, load, pair_expiry, has_free, budget[0]


def _assert_same(ref, new):
    assert new[0] == ref[0]  # per-search outcomes, None/False/True
    for a, b in zip(ref[1:5], new[1:5]):
        np.testing.assert_array_equal(a, b)
    assert new[5] == ref[5]  # budget left


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #
@_SETTINGS
@given(inst=instances)
def test_searches_match_reference_at_every_budget_boundary(inst):
    """Same outcome, assignment, loads, expiries and budget, search by search.

    The budget is charged once per discovered left; an unbounded run
    measures the total charge ``used``, then budgets of ``used`` (the
    last discovery still fits), ``used - 1`` (it aborts exactly there),
    0 and a few in between must agree with the reference too.
    """
    unbounded = 10**9
    ref = _run_reference_searches(inst, unbounded)
    _assert_same(ref, _run_batched_searches(inst, unbounded))
    used = unbounded - ref[5]
    for budget_value in sorted({0, 1, 2, used // 2, max(used - 1, 0), used, used + 1}):
        _assert_same(
            _run_reference_searches(inst, budget_value),
            _run_batched_searches(inst, budget_value),
        )


@_SETTINGS
@given(inst=instances, search_budget=st.one_of(st.none(), st.integers(0, 8)))
def test_repair_matching_matches_reference(inst, search_budget):
    """The public entry point agrees with the scalar repair on every instance."""
    assignment, load, pair_expiry = inst.state()
    expected = _reference_repair(
        inst.fetch_rows, inst.capacities, assignment, load, pair_expiry,
        inst.deficit, search_budget=search_budget,
    )
    got_assignment, got_load, got_expiry = inst.state()
    got = repair_matching(
        inst.fetch_rows, inst.capacities, got_assignment, got_load, got_expiry,
        inst.deficit, search_budget=search_budget,
    )
    assert got is expected
    np.testing.assert_array_equal(got_assignment, assignment)
    np.testing.assert_array_equal(got_load, load)
    np.testing.assert_array_equal(got_expiry, pair_expiry)


@_SETTINGS
@given(inst=possession_instances, data=st.data())
def test_batched_rows_match_servers_for(inst, data):
    """Every row of a batched fetch is the request's neighbourhood ``B(x)``.

    Static replicas and relay caches never expire; a playback-cache edge
    expires ``T`` rounds after the cacher's own request.
    """
    num = len(inst.requests)
    rows = np.asarray(
        data.draw(st.lists(st.integers(0, num - 1), max_size=2 * num)), dtype=np.int64
    )
    indptr, indices, expiry = inst.fetch_rows(rows)
    assert indptr.size == rows.size + 1
    possession, window = inst.possession, inst.possession.cache_window
    for r, i in enumerate(rows.tolist()):
        request = inst.requests[i]
        boxes = indices[indptr[r]:indptr[r + 1]]
        expected = possession.servers_for(request, inst.time) - {request.box_id}
        assert set(boxes.tolist()) == expected
        assert request.box_id not in boxes
        lasting = set(possession.static_servers(request.stripe_id).tolist())
        lasting |= possession._relays.get(request.stripe_id, set())
        for b, x in zip(boxes.tolist(), expiry[indptr[r]:indptr[r + 1]].tolist()):
            if x == NEVER_EXPIRES:
                assert b in lasting
            else:
                assert inst.time <= x < request.request_time + window


def test_repair_rejects_matched_or_repeated_deficit_rows():
    def fetch(rows):
        empty = np.empty(0, dtype=np.int64)
        return np.zeros(len(rows) + 1, dtype=np.int64), empty, empty

    caps = np.ones(2, dtype=np.int64)
    for assignment, deficit in (([0, -1], [0]), ([-1, -1], [1, 1])):
        assignment = np.asarray(assignment, dtype=np.int64)
        with pytest.raises(ValueError, match="distinct unmatched"):
            repair_matching(
                fetch, caps, assignment, np.zeros(2, np.int64),
                np.full(2, -1, np.int64), deficit,
            )


@pytest.mark.parametrize(
    "rows, capacities, deficit, expected, index_built",
    [
        # Every deficit row finds a free box in its own row.
        ({0: [1, 0], 1: [0], 2: [1]}, [2, 2], [0, 1, 2], [1, 0, 1], False),
        # Row 2's only box is full: its search displaces row 0 to box 0,
        # through an index that must hold row 0's root append on box 1.
        ({0: [1, 0], 1: [0], 2: [1]}, [2, 1], [0, 1, 2], [0, 0, 1], True),
        # Rows 2 then 1 fill box 0 at their roots; row 3's search must meet
        # them in that append order, so row 2 (not row 1) moves on.
        ({1: [0, 2], 2: [0, 1], 3: [0]}, [2, 1, 1], [2, 1, 3], [-1, 0, 1, 0], True),
    ],
)
def test_right_match_index_is_built_only_past_a_root(
    monkeypatch, rows, capacities, deficit, expected, index_built
):
    def fetch_rows(batch):
        lens = [len(rows[i]) for i in batch.tolist()]
        indptr = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
        indices = np.asarray(
            [b for i in batch.tolist() for b in rows[i]], dtype=np.int64
        )
        return indptr, indices, np.full(indices.size, NEVER_EXPIRES, dtype=np.int64)

    built = []
    original = _DeferredRightMatches.index

    def spy(self):
        built.append(True)
        return original(self)

    monkeypatch.setattr(_DeferredRightMatches, "index", spy)
    num_left, num_right = len(expected), len(capacities)
    assignment = np.full(num_left, -1, dtype=np.int64)
    assert repair_matching(
        fetch_rows, np.asarray(capacities, dtype=np.int64), assignment,
        np.zeros(num_right, dtype=np.int64), np.full(num_left, -1, dtype=np.int64),
        deficit,
    )
    np.testing.assert_array_equal(assignment, expected)
    assert bool(built) is index_built


# ---------------------------------------------------------------------- #
# Engine level: a near-threshold run keeps the scalar search's results
# ---------------------------------------------------------------------- #
#: 200 boxes at u = 1.05 with uniform demand: within 40 rounds most rounds
#: are infeasible, and repairs both succeed and fail after thousands of
#: discoveries.
_NEAR_THRESHOLD = ScenarioSpec(
    name="near_threshold_repair",
    description="200 boxes at u = 1.05 under uniform demand.",
    paper_claim="Repair search differential test.",
    catalog=CatalogSpec(num_videos=58, num_stripes=4, duration=10),
    population=PopulationSpec("homogeneous", {"n": 200, "u": 1.05, "d": 2.5}),
    allocation=AllocationSpec("permutation", replicas_per_stripe=3),
    workload=(WorkloadPhaseSpec("uniform", params={"arrival_rate": 42.0}),),
    mu=1.5,
    horizon=40,
    trace_level="lean",
)

#: SHA-256 over the 40 per-round assignments (int64 little-endian) of the
#: run below at seed 1, as the scalar search produced them.
_NEAR_THRESHOLD_ASSIGNMENTS = (
    "2568fb6fbb6fb2f4922100b437b3b0eeb7dec189b5c06bc9245ece6a55ca4efb"
)


def _assignment_digest(monkeypatch=None, reference=False) -> str:
    if reference:
        monkeypatch.setattr(matching_module, "repair_matching", _reference_repair)
    digest = hashlib.sha256()
    compiled = build_scenario(
        _NEAR_THRESHOLD, seed=1,
        round_observer=lambda o: digest.update(
            np.asarray(o.matching.assignment, dtype="<i8").tobytes()
        ),
    )
    compiled.run(_NEAR_THRESHOLD.horizon)
    return digest.hexdigest()


def test_near_threshold_assignments_match_the_scalar_search(monkeypatch):
    """Per-round assignments equal the scalar search's, live and pinned."""
    batched = _assignment_digest()
    assert batched == _NEAR_THRESHOLD_ASSIGNMENTS
    assert _assignment_digest(monkeypatch, reference=True) == batched
