"""Zone-to-worker assignment and workload skew reporting.

Three strategies: contiguous runs, round-robin, and a greedy
longest-processing-time (LPT) pass over the per-zone object counts. The
report quantifies how uneven an assignment is for a given catalog as
imbalance = max worker load / mean worker load (1.0 is perfectly even), so a
bad leading-catalog choice is visible as data rather than guessed at.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "STRATEGIES",
    "PartitionPlan",
    "WorkloadReport",
    "plan_contiguous",
    "plan_round_robin",
    "plan_density",
    "make_plan",
    "report",
]

STRATEGIES = ("contiguous", "round_robin", "density")


@dataclass(frozen=True)
class PartitionPlan:
    """Total assignment of zones to workers, held as its runs of consecutive
    zones on one worker: run i starts at zone ``run_starts[i]``, ends where
    the next run starts (the last at ``zone_count``) and belongs to worker
    ``run_workers[i]``."""

    strategy: str
    worker_count: int
    zone_count: int
    run_starts: tuple[int, ...]
    run_workers: tuple[int, ...]

    @property
    def assignment(self) -> np.ndarray:
        """assignment[zone] = worker index, built from the runs."""
        sizes = np.diff([*self.run_starts, self.zone_count])
        return np.repeat(np.array(self.run_workers, dtype=np.int64), sizes)

    def runs(self) -> list[tuple[int, int, int]]:
        """(zone_start, zone_stop, worker) triples in zone order."""
        stops = [*self.run_starts[1:], self.zone_count]
        return list(zip(self.run_starts, stops, self.run_workers))

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "worker_count": self.worker_count,
            "zone_count": self.zone_count,
            "runs": [list(r) for r in self.runs()],
        }
        return json.dumps(payload, sort_keys=True)


def _plan(strategy: str, worker_count: int, assignment: np.ndarray) -> PartitionPlan:
    """The plan of a per-zone assignment, stored as its runs."""
    starts = np.flatnonzero(np.diff(assignment, prepend=-1))
    return PartitionPlan(strategy, worker_count, len(assignment),
                         tuple(starts.tolist()), tuple(assignment[starts].tolist()))


def _check_workers(worker_count: int) -> None:
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")


def plan_contiguous(zone_count: int, worker_count: int) -> PartitionPlan:
    """Split zones into contiguous runs whose sizes differ by at most one."""
    _check_workers(worker_count)
    base, extra = divmod(zone_count, worker_count)
    sizes = [base + 1 if w < extra else base for w in range(worker_count)]
    assignment = np.repeat(np.arange(worker_count, dtype=np.int64), sizes)
    return _plan("contiguous", worker_count, assignment)


def plan_round_robin(zone_count: int, worker_count: int) -> PartitionPlan:
    """zone -> zone mod worker_count."""
    _check_workers(worker_count)
    assignment = np.arange(zone_count, dtype=np.int64) % worker_count
    return _plan("round_robin", worker_count, assignment)


def plan_density(hist: np.ndarray, worker_count: int) -> PartitionPlan:
    """Greedy LPT over the per-zone counts ``hist``: heaviest zones first,
    each to the currently lightest worker; ties broken toward lower zone id
    and lower worker index so the plan is bit-deterministic."""
    _check_workers(worker_count)
    zone_count = len(hist)
    order = sorted(range(zone_count), key=lambda z: (-int(hist[z]), z))
    heap = [(0, w) for w in range(worker_count)]
    heapq.heapify(heap)
    assignment = np.empty(zone_count, dtype=np.int64)
    for z in order:
        load, worker = heapq.heappop(heap)
        assignment[z] = worker
        heapq.heappush(heap, (load + int(hist[z]), worker))
    return _plan("density", worker_count, assignment)


def make_plan(
    strategy: str,
    zone_count: int,
    worker_count: int,
    hist: np.ndarray | None = None,
) -> PartitionPlan:
    """Build a plan by strategy name; density requires the per-zone counts
    ``hist``."""
    if strategy == "contiguous":
        return plan_contiguous(zone_count, worker_count)
    if strategy == "round_robin":
        return plan_round_robin(zone_count, worker_count)
    if strategy == "density":
        if hist is None:
            raise ValueError("density strategy needs a zone histogram")
        if len(hist) != zone_count:
            raise ValueError(
                f"histogram covers {len(hist)} zones, plan needs {zone_count}"
            )
        return plan_density(hist, worker_count)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


@dataclass(frozen=True)
class WorkloadReport:
    """Per-worker object counts for a plan applied to one catalog."""

    counts: tuple[int, ...]
    max_count: int
    avg_count: float
    imbalance: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_text(self) -> str:
        lines = [f"{'worker':>8}  {'objects':>12}"]
        for w, c in enumerate(self.counts):
            lines.append(f"{w:>8}  {c:>12}")
        lines.append(f"{'MAX':>8}  {self.max_count:>12}")
        lines.append(f"{'AVG':>8}  {self.avg_count:>12.1f}")
        lines.append(f"imbalance (max/avg): {self.imbalance:.3f}")
        return "\n".join(lines)


def report(plan: PartitionPlan, hist: np.ndarray) -> WorkloadReport:
    """Per-worker load sums of the per-zone counts ``hist``, their max/avg,
    and the imbalance ratio."""
    if len(hist) != plan.zone_count:
        raise ValueError(
            f"histogram covers {len(hist)} zones, plan covers {plan.zone_count}"
        )
    loads = np.zeros(plan.worker_count, dtype=np.int64)
    np.add.at(loads, plan.assignment, hist)
    max_count = int(loads.max())
    avg_count = float(loads.sum()) / plan.worker_count
    imbalance = max_count / avg_count if avg_count > 0 else 1.0
    return WorkloadReport(
        counts=tuple(int(c) for c in loads),
        max_count=max_count,
        avg_count=avg_count,
        imbalance=imbalance,
    )
