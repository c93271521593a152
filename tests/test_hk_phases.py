"""Differential test of the Hopcroft–Karp kernel against its scalar reference.

The reference below is the kernel as it was before the NumPy layering,
the liveness prune and the Kuhn dead-box set: one scalar BFS per phase,
a layered DFS from every free left, and small-deficit single-source
searches that share nothing.  The kernel must return the same
assignment, matched count, deficient lefts and Hall witness, and exhaust
an augmentation budget at the same search.
"""

import math
from collections import Counter, deque
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.matching as matching_module
from repro.flow.hopcroft_karp import (
    AugmentationBudgetExceeded,
    HKMatchingResult,
    _kuhn_augment,
    _LazyRightMatches,
    hopcroft_karp_matching,
)
from repro.scenarios.build import build_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import CatalogSpec, PopulationSpec, WorkloadPhaseSpec

_INF = float("inf")

instance_settings = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------- #
# Reference kernel
# ---------------------------------------------------------------------- #
def reference_kuhn_augment(i0, starts, adj, cap, load, match_left, right_matches) -> bool:
    """Single-source alternating DFS; each search starts from scratch."""
    visited = set()
    stack: List[List[int]] = [[i0, starts[i0], 0]]
    while stack:
        frame = stack[-1]
        i, e = frame[0], frame[1]
        end = starts[i + 1]
        descended = False
        while e < end:
            j = adj[e]
            if load[j] < cap[j]:
                frame[1] = e
                right_matches[j].append(i)
                load[j] += 1
                match_left[i] = j
                for t in range(len(stack) - 2, -1, -1):
                    fi, fe, fm = stack[t]
                    jt = adj[fe]
                    right_matches[jt][fm] = fi
                    match_left[fi] = jt
                return True
            if j not in visited:
                visited.add(j)
                row = right_matches[j]
                if row:
                    frame[1], frame[2] = e, 0
                    stack.append([row[0], starts[row[0]], 0])
                    descended = True
                    break
            e += 1
        if descended:
            continue
        stack.pop()
        if stack:
            parent = stack[-1]
            pj = adj[parent[1]]
            parent[2] += 1
            row = right_matches[pj]
            if parent[2] < len(row):
                i2 = row[parent[2]]
                stack.append([i2, starts[i2], 0])
            else:
                parent[1] += 1
                parent[2] = 0
    return False


def reference_matching(
    num_left: int,
    num_right: int,
    indptr,
    indices,
    right_capacities,
    initial_assignment=None,
    augmentation_budget: Optional[int] = None,
) -> Tuple[HKMatchingResult, int, str]:
    """The scalar kernel: ``(result, searches charged, path taken)``.

    ``path`` is ``"greedy"`` when warm start and greedy matched every
    left, ``"kuhn"`` when the small-deficit searches ran, ``"phases"``
    when only the layered BFS/DFS phases did.
    """
    indptr_arr = np.asarray(indptr, dtype=np.int64)
    indices_arr = np.asarray(indices, dtype=np.int64)
    cap_arr = np.asarray(right_capacities, dtype=np.int64)
    match_arr = np.full(num_left, -1, dtype=np.int64)
    load_arr = np.zeros(num_right, dtype=np.int64)
    warm_i = warm_b = np.empty(0, dtype=np.int64)
    greedy_pairs: List[Tuple[int, int]] = []

    if initial_assignment is not None:
        warm = np.asarray(initial_assignment, dtype=np.int64)
        in_range = (warm >= 0) & (warm < num_right)
        adjacent = np.zeros(num_left, dtype=bool)
        if indices_arr.size and in_range.any():
            targets = np.where(in_range, warm, -2)
            hit_edges = indices_arr == np.repeat(targets, np.diff(indptr_arr))
            hit_pos = np.flatnonzero(hit_edges)
            if hit_pos.size:
                hit_rows = np.searchsorted(indptr_arr, hit_pos, side="right") - 1
                adjacent[hit_rows] = True
        candidates = np.flatnonzero(in_range & adjacent)
        if candidates.size:
            cand_b = warm[candidates]
            counts = np.bincount(cand_b, minlength=num_right).astype(np.int64)
            if (counts <= cap_arr).all():
                warm_i, warm_b = candidates, cand_b
                match_arr[warm_i] = warm_b
                load_arr += counts
            else:
                order = np.argsort(cand_b, kind="stable")
                cand_i = candidates[order]
                cand_b = cand_b[order]
                new_group = np.empty(cand_b.size, dtype=bool)
                new_group[0] = True
                new_group[1:] = cand_b[1:] != cand_b[:-1]
                group_start = np.flatnonzero(new_group)
                group_id = np.cumsum(new_group) - 1
                rank_in_group = (
                    np.arange(cand_b.size, dtype=np.int64) - group_start[group_id]
                )
                keep = rank_in_group < cap_arr[cand_b]
                warm_i, warm_b = cand_i[keep], cand_b[keep]
                match_arr[warm_i] = warm_b
                load_arr += np.bincount(warm_b, minlength=num_right).astype(np.int64)

    starts = indptr_arr.tolist()
    adj: List[int] = indices_arr.tolist()
    cap = cap_arr.tolist()
    load = load_arr.tolist()
    for i in np.flatnonzero(match_arr < 0).tolist():
        for e in range(starts[i], starts[i + 1]):
            j = adj[e]
            if load[j] < cap[j]:
                match_arr[i] = j
                load[j] += 1
                greedy_pairs.append((i, j))
                break

    matched = int((match_arr >= 0).sum())
    if matched == num_left:
        result = HKMatchingResult(True, match_arr, matched, (), None)
        return result, 0, "greedy"

    match_left = match_arr.tolist()
    deficit = num_left - matched
    searches_spent = 0

    def _charge_search() -> None:
        nonlocal searches_spent
        searches_spent += 1
        if augmentation_budget is not None and searches_spent > augmentation_budget:
            raise AugmentationBudgetExceeded(
                f"augmentation budget of {augmentation_budget} searches "
                f"exhausted with a deficit of {num_left - matched} left"
            )

    path = "phases"
    lazy_rm: Optional[_LazyRightMatches] = None
    if 0 < deficit <= max(8, math.isqrt(num_left)):
        path = "kuhn"
        lazy_rm = _LazyRightMatches(num_right, warm_i, warm_b, greedy_pairs)
        for i in range(num_left):
            if match_left[i] < 0:
                _charge_search()
                if reference_kuhn_augment(i, starts, adj, cap, load, match_left, lazy_rm):
                    matched += 1
        if matched == num_left:
            result = HKMatchingResult(
                True, np.asarray(match_left, dtype=np.int64), matched, (), None
            )
            return result, searches_spent, path

    if lazy_rm is not None:
        right_matches = lazy_rm.materialize()
    else:
        right_matches = [[] for _ in range(num_right)]
        for i, b in zip(warm_i.tolist(), warm_b.tolist()):
            right_matches[b].append(i)
        for i, b in greedy_pairs:
            right_matches[b].append(i)

    dist: List[float] = [_INF] * num_left

    def bfs() -> float:
        queue: deque = deque()
        for i in range(num_left):
            if match_left[i] < 0:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = _INF
        seen_right = [False] * num_right
        dist_nil = _INF
        while queue:
            i = queue.popleft()
            di = dist[i]
            if di >= dist_nil:
                continue
            dn = di + 1
            for e in range(starts[i], starts[i + 1]):
                j = adj[e]
                if load[j] < cap[j]:
                    if dn < dist_nil:
                        dist_nil = dn
                elif not seen_right[j]:
                    seen_right[j] = True
                    for i2 in right_matches[j]:
                        if dist[i2] == _INF:
                            dist[i2] = dn
                            queue.append(i2)
        return dist_nil

    def augment(i0: int, ptr: List[int], dist_nil: float) -> bool:
        stack: List[List[int]] = [[i0, ptr[i0], 0]]
        while stack:
            frame = stack[-1]
            i, e, m = frame
            end = starts[i + 1]
            descended = False
            while e < end:
                j = adj[e]
                layer = dist[i] + 1
                if load[j] < cap[j] and layer == dist_nil:
                    frame[1] = e
                    right_matches[j].append(i)
                    load[j] += 1
                    match_left[i] = j
                    for t in range(len(stack) - 2, -1, -1):
                        fi, fe, fm = stack[t]
                        jt = adj[fe]
                        right_matches[jt][fm] = fi
                        match_left[fi] = jt
                    return True
                row = right_matches[j]
                while m < len(row):
                    i2 = row[m]
                    if dist[i2] == layer:
                        frame[1], frame[2] = e, m
                        stack.append([i2, ptr[i2], 0])
                        descended = True
                        break
                    m += 1
                if descended:
                    break
                e += 1
                m = 0
            if descended:
                continue
            ptr[i] = end
            dist[i] = _INF
            stack.pop()
            if stack:
                stack[-1][2] += 1
        return False

    while matched < num_left:
        dist_nil = bfs()
        if dist_nil == _INF:
            break
        ptr = starts[:num_left]
        for i in range(num_left):
            if match_left[i] < 0:
                _charge_search()
                if augment(i, ptr, dist_nil):
                    matched += 1

    deficient = tuple(i for i in range(num_left) if match_left[i] < 0)
    witness = None
    if deficient:
        witness = tuple(i for i in range(num_left) if dist[i] != _INF)
    result = HKMatchingResult(
        feasible=not deficient,
        assignment=np.asarray(match_left, dtype=np.int64),
        matched=matched,
        deficient_left=deficient,
        unsatisfied_witness=witness,
    )
    return result, searches_spent, path


# ---------------------------------------------------------------------- #
# Instances
# ---------------------------------------------------------------------- #
WARM_KINDS = ("none", "valid", "stale")


def make_instance(seed: int):
    """A random CSR instance with near-tight capacity (0.9–1.3 × requests).

    Every request gets a *planted* box, listed last in its row after up
    to four decoys drawn from a hot quarter of the boxes, and the planted
    loads plus spare slots set the capacities.  Greedy first-fit fills the
    hot boxes with decoys, so the deficit it leaves ranges from a few rows
    (the Kuhn path) to dozens (the phase path).  Half the instances are
    feasible by construction; the other half drop one planted edge in ten
    and zero one box in seven.  Rows are unsorted and may repeat a box.
    """
    rng = np.random.default_rng(seed)
    num_left = int(rng.integers(0, 160))
    num_right = int(rng.integers(1, 40))
    planted_ok = bool(rng.random() < 0.5)
    factor = rng.uniform(1.0 if planted_ok else 0.9, 1.3)
    planted = rng.integers(0, num_right, size=num_left)
    hot = max(1, num_right // 4)
    rows = []
    for i in range(num_left):
        row = rng.integers(0, hot, size=int(rng.integers(0, 5))).tolist()
        if planted_ok or rng.random() < 0.9:
            row.append(int(planted[i]))
        rows.append(row)
    indptr = np.zeros(num_left + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indices = np.array([j for row in rows for j in row], dtype=np.int64)
    caps = np.bincount(planted, minlength=num_right).astype(np.int64)
    spare = int(round(factor * num_left)) - num_left
    if spare > 0:
        caps += rng.multinomial(spare, np.full(num_right, 1.0 / num_right))
    for _ in range(-spare):
        caps[rng.choice(np.flatnonzero(caps))] -= 1
    if not planted_ok:
        caps[rng.random(num_right) < 0.15] = 0
    return num_left, num_right, indptr, indices, caps, rng


def make_warm(kind: str, instance) -> Optional[np.ndarray]:
    """No warm start, the reference's own maximum matching, or a stale one."""
    num_left, num_right, indptr, indices, caps, rng = instance
    if kind == "none":
        return None
    if kind == "valid":
        result, _, _ = reference_matching(num_left, num_right, indptr, indices, caps)
        return result.assignment
    # Stale: random boxes, some out of range, some not adjacent any more.
    return rng.integers(-1, num_right + 2, size=num_left)


def assert_same(result: HKMatchingResult, expected: HKMatchingResult) -> None:
    assert np.array_equal(result.assignment, expected.assignment)
    assert result.assignment.dtype == expected.assignment.dtype
    assert result.matched == expected.matched
    assert result.feasible == expected.feasible
    assert result.deficient_left == expected.deficient_left
    assert result.unsatisfied_witness == expected.unsatisfied_witness


def outcome(solver, *args, **kwargs):
    """``("raised", message)`` or ``("result", HKMatchingResult)``."""
    try:
        result = solver(*args, **kwargs)
    except AugmentationBudgetExceeded as exc:
        return "raised", str(exc)
    return "result", result if isinstance(result, HKMatchingResult) else result[0]


# ---------------------------------------------------------------------- #
# Tests
# ---------------------------------------------------------------------- #
class TestAgainstScalarReference:
    def test_instances_reach_both_augmenting_paths(self):
        """The generator reaches both paths, each feasible and infeasible."""
        outcomes = Counter()
        for seed in range(200):
            num_left, num_right, indptr, indices, caps, _ = make_instance(seed)
            result, _, path = reference_matching(num_left, num_right, indptr, indices, caps)
            outcomes[path, result.feasible] += 1
        for key in [("kuhn", True), ("kuhn", False), ("phases", True), ("phases", False)]:
            assert outcomes[key] >= 10, outcomes

    @instance_settings
    @given(seed=st.integers(0, 2**32 - 1), warm=st.sampled_from(WARM_KINDS))
    def test_identical_results(self, seed, warm):
        instance = make_instance(seed)
        num_left, num_right, indptr, indices, caps, _ = instance
        warm_start = make_warm(warm, instance)
        expected, _, _ = reference_matching(
            num_left, num_right, indptr, indices, caps, initial_assignment=warm_start
        )
        result = hopcroft_karp_matching(
            num_left, num_right, indptr, indices, caps, initial_assignment=warm_start
        )
        assert_same(result, expected)

    @instance_settings
    @given(seed=st.integers(0, 2**32 - 1), warm=st.sampled_from(WARM_KINDS))
    def test_budget_exhausted_at_the_same_search(self, seed, warm):
        """Budgets 0, 1, used−1, used and used+1 trip (or not) identically."""
        instance = make_instance(seed)
        num_left, num_right, indptr, indices, caps, _ = instance
        warm_start = make_warm(warm, instance)
        args = (num_left, num_right, indptr, indices, caps, warm_start)
        _, used, _ = reference_matching(*args)
        for budget in sorted({0, 1, max(used - 1, 0), used, used + 1}):
            expected = outcome(reference_matching, *args, augmentation_budget=budget)
            got = outcome(hopcroft_karp_matching, *args, augmentation_budget=budget)
            assert got[0] == expected[0], budget
            assert expected[0] == ("result" if budget >= used else "raised")
            if got[0] == "raised":
                assert got[1] == expected[1]
            else:
                assert_same(got[1], expected[1])

    def test_engine_rounds_near_the_threshold(self, monkeypatch):
        """Every kernel call of a 200-box u = 1.05 run matches the reference."""
        base = get_scenario("near_threshold_load")
        spec = replace(
            base,
            catalog=CatalogSpec(num_videos=58, num_stripes=4, duration=10),
            population=PopulationSpec("homogeneous", {"n": 200, "u": 1.05, "d": 2.5}),
            workload=(WorkloadPhaseSpec("uniform", params={"arrival_rate": 42.0}),),
        )
        feasible: List[bool] = []

        def checked(**kwargs):
            result = hopcroft_karp_matching(**kwargs)
            expected, _, _ = reference_matching(**kwargs)
            assert_same(result, expected)
            feasible.append(result.feasible)
            return result

        monkeypatch.setattr(matching_module, "hopcroft_karp_matching", checked)
        compiled = build_scenario(spec, seed=5)
        for _ in range(30):
            compiled.simulator.step(compiled.workload)
        assert len(feasible) >= 10
        assert feasible.count(False) >= 10


def _reaches_spare_capacity(box, starts, adj, cap, load, match_left) -> bool:
    """Independent BFS: can a left matched to ``box`` be moved, chain by
    chain of displacements, onto a box with spare capacity?"""
    matched_to = {}
    for i, j in enumerate(match_left):
        if j >= 0:
            matched_to.setdefault(j, []).append(i)
    seen = {box}
    queue = deque([box])
    while queue:
        j = queue.popleft()
        if load[j] < cap[j]:
            return True
        for i in matched_to.get(j, ()):
            for e in range(starts[i], starts[i + 1]):
                if adj[e] not in seen:
                    seen.add(adj[e])
                    queue.append(adj[e])
    return False


class TestKuhnDeadBoxes:
    @instance_settings
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dead_boxes_have_no_path_to_spare_capacity(self, seed):
        num_left, num_right, indptr, indices, caps, _ = make_instance(seed)
        starts, adj, cap = indptr.tolist(), indices.tolist(), caps.tolist()
        load = [0] * num_right
        match_left = [-1] * num_left
        right_matches: List[List[int]] = [[] for _ in range(num_right)]
        for i in range(num_left):
            for e in range(starts[i], starts[i + 1]):
                j = adj[e]
                if load[j] < cap[j]:
                    load[j] += 1
                    match_left[i] = j
                    right_matches[j].append(i)
                    break
        dead: set = set()
        for i in range(num_left):
            if match_left[i] < 0:
                _kuhn_augment(i, starts, adj, cap, load, match_left, right_matches, dead)
        for j in dead:
            assert not _reaches_spare_capacity(j, starts, adj, cap, load, match_left)
