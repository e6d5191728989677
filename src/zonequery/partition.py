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
from dataclasses import dataclass

import numpy as np

from .catalog import ZoneHistogram

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


@dataclass(frozen=True, eq=False)
class PartitionPlan:
    """Total assignment of zones to workers: assignment[zone] = worker index."""

    strategy: str
    worker_count: int
    zone_count: int
    assignment: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartitionPlan):
            return NotImplemented
        return (
            self.strategy == other.strategy
            and self.worker_count == other.worker_count
            and self.zone_count == other.zone_count
            and np.array_equal(self.assignment, other.assignment)
        )

    def zones_of(self, worker: int) -> np.ndarray:
        return np.nonzero(self.assignment == worker)[0]

    def runs(self, lo: int = 0, hi: int | None = None) -> list[tuple[int, int, int]]:
        """Run-length encoding of zones [lo, hi), all zones by default:
        (zone_start, zone_stop, worker) triples in zone order."""
        a = self.assignment[lo:hi]
        if not a.size:
            return []
        cuts = np.flatnonzero(np.diff(a)) + 1
        starts = np.concatenate(([0], cuts))
        stops = np.concatenate((cuts, [a.size]))
        return list(zip((starts + lo).tolist(), (stops + lo).tolist(), a[starts].tolist()))

    def to_json(self) -> str:
        payload = {
            "strategy": self.strategy,
            "worker_count": self.worker_count,
            "zone_count": self.zone_count,
            "runs": [list(r) for r in self.runs()],
        }
        return json.dumps(payload, sort_keys=True)


def _check_workers(worker_count: int) -> None:
    if worker_count < 1:
        raise ValueError(f"worker_count must be >= 1, got {worker_count}")


def plan_contiguous(zone_count: int, worker_count: int) -> PartitionPlan:
    """Split zones into contiguous runs whose sizes differ by at most one."""
    _check_workers(worker_count)
    base, extra = divmod(zone_count, worker_count)
    sizes = [base + 1 if w < extra else base for w in range(worker_count)]
    assignment = np.repeat(np.arange(worker_count, dtype=np.int64), sizes)
    return PartitionPlan("contiguous", worker_count, zone_count, assignment)


def plan_round_robin(zone_count: int, worker_count: int) -> PartitionPlan:
    """zone -> zone mod worker_count."""
    _check_workers(worker_count)
    assignment = np.arange(zone_count, dtype=np.int64) % worker_count
    return PartitionPlan("round_robin", worker_count, zone_count, assignment)


def plan_density(hist: ZoneHistogram, worker_count: int) -> PartitionPlan:
    """Greedy LPT over per-zone counts: heaviest zones first, each to the
    currently lightest worker; ties broken toward lower zone id and lower
    worker index so the plan is bit-deterministic."""
    _check_workers(worker_count)
    counts = hist.counts
    zone_count = len(counts)
    order = sorted(range(zone_count), key=lambda z: (-int(counts[z]), z))
    heap = [(0, w) for w in range(worker_count)]
    heapq.heapify(heap)
    assignment = np.empty(zone_count, dtype=np.int64)
    for z in order:
        load, worker = heapq.heappop(heap)
        assignment[z] = worker
        heapq.heappush(heap, (load + int(counts[z]), worker))
    return PartitionPlan("density", worker_count, zone_count, assignment)


def make_plan(
    strategy: str,
    zone_count: int,
    worker_count: int,
    hist: ZoneHistogram | None = None,
) -> PartitionPlan:
    """Build a plan by strategy name; density requires a histogram."""
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
        return json.dumps(
            {
                "counts": list(self.counts),
                "max_count": self.max_count,
                "avg_count": self.avg_count,
                "imbalance": self.imbalance,
            },
            sort_keys=True,
        )

    def to_text(self) -> str:
        lines = [f"{'worker':>8}  {'objects':>12}"]
        for w, c in enumerate(self.counts):
            lines.append(f"{w:>8}  {c:>12}")
        lines.append(f"{'MAX':>8}  {self.max_count:>12}")
        lines.append(f"{'AVG':>8}  {self.avg_count:>12.1f}")
        lines.append(f"imbalance (max/avg): {self.imbalance:.3f}")
        return "\n".join(lines)


def report(plan: PartitionPlan, hist: ZoneHistogram) -> WorkloadReport:
    """Per-worker load sums, their max/avg, and the imbalance ratio."""
    if len(hist) != plan.zone_count:
        raise ValueError(
            f"histogram covers {len(hist)} zones, plan covers {plan.zone_count}"
        )
    loads = np.zeros(plan.worker_count, dtype=np.int64)
    np.add.at(loads, plan.assignment, hist.counts)
    max_count = int(loads.max())
    avg_count = float(loads.sum()) / plan.worker_count
    imbalance = max_count / avg_count if avg_count > 0 else 1.0
    return WorkloadReport(
        counts=tuple(int(c) for c in loads),
        max_count=max_count,
        avg_count=avg_count,
        imbalance=imbalance,
    )
