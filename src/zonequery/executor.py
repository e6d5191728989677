"""Fan a query out over W workers and merge results deterministically.

Workers are in-process threads over immutable shared indexes; the heavy
lifting inside each worker is vectorized array work that releases the GIL,
which is what makes threads worth having here. A worker owns the row ranges
of its plan's zone runs within the zones the query can touch (the other
catalog, for cross-matches, is shared read-only by everyone); workers never
talk to each other, and the coordinator merges by concatenate-then-sort so
the result is bit-identical for any worker count or strategy. All three
queries run through one executor, ``_execute``, and one join kernel: a cone
is a cross-match whose leading catalog is its one centre.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .catalog import ZoneIndex
from .partition import PartitionPlan
from .queries import (
    ConeQuery,
    MatchSpec,
    MatchTable,
    ScanFilter,
    _by_id,
    _cone_join,
    _crossmatch_arrays,
    _mag_filter,
)
from .sphere import zone_of_array

__all__ = [
    "WorkerStats",
    "ExecutionReport",
    "aggregate",
    "run_scan",
    "run_cone",
    "run_xmatch",
]


@dataclass(frozen=True)
class WorkerStats:
    """What one worker did: wall clock, CPU if the platform provides it,
    and row/byte counters standing in for the storage engine's I/O numbers.

    ``rows_scanned`` counts the rows a scan visits, and the candidates a cone
    or cross-match examines before the exact separation filter.
    ``bytes_read`` is modelled, not measured I/O: rows_scanned x 8 * (3 +
    bands), the width of a stored row of the scanned index. A worker whose
    share holds no rows reports an all-zero row. The aggregate rows of
    :func:`aggregate` are labelled "MAX" and "AVG" instead of a worker index.
    """

    worker: int | str
    elapsed_s: float
    cpu_s: float | None
    rows_scanned: int
    rows_returned: int
    bytes_read: int


# the counters of a stats row, each aggregated into the MAX and AVG rows
_COUNTERS = ("elapsed_s", "cpu_s", "rows_scanned", "rows_returned", "bytes_read")


def aggregate(stats: Sequence[WorkerStats]) -> tuple[WorkerStats, WorkerStats]:
    """Component-wise maximum and arithmetic mean over worker rows, as rows
    labelled "MAX" and "AVG"; cpu_s is None unless every worker has one."""
    if not stats:
        raise ValueError("aggregate needs at least one worker row")
    max_row, avg_row = {}, {}
    for name in _COUNTERS:
        values = [getattr(s, name) for s in stats]
        known = None not in values
        max_row[name] = max(values) if known else None
        avg_row[name] = sum(values) / len(values) if known else None
    return WorkerStats("MAX", **max_row), WorkerStats("AVG", **avg_row)


@dataclass(frozen=True)
class ExecutionReport:
    workers: tuple[WorkerStats, ...]
    total_elapsed_s: float

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    @property
    def max_row(self) -> WorkerStats:
        return aggregate(self.workers)[0]

    @property
    def avg_row(self) -> WorkerStats:
        return aggregate(self.workers)[1]

    def to_json(self) -> str:
        max_row, avg_row = aggregate(self.workers)
        payload = {
            "worker_count": self.worker_count,
            "total_elapsed_s": self.total_elapsed_s,
            "workers": [asdict(s) for s in self.workers],
            "max": asdict(max_row),
            "avg": asdict(avg_row),
        }
        return json.dumps(payload, sort_keys=True)


def _check_plan(index: ZoneIndex, plan: PartitionPlan) -> None:
    if plan.zone_count != index.cfg.zone_count:
        raise ValueError(
            f"plan covers {plan.zone_count} zones but index "
            f"{index.name!r} has {index.cfg.zone_count}"
        )


# wall clock is mandatory; per-thread CPU only where the platform has it
_HAS_THREAD_CPU = hasattr(time, "thread_time")
_IDLE_CPU = 0.0 if _HAS_THREAD_CPU else None

# a worker's share: [start, stop) row ranges in zone order
Ranges = Sequence[tuple[int, int]]
# work(ranges) -> (result columns, rows_scanned, rows_returned)
Work = Callable[[Ranges], tuple]


def _take(col: np.ndarray, ranges: Ranges) -> np.ndarray:
    """The rows of ``col`` in ``ranges``, in order; a view for one range."""
    if len(ranges) == 1:
        a, b = ranges[0]
        return col[a:b]
    return np.concatenate([col[a:b] for a, b in ranges])


def _shares(
    plan: PartitionPlan, zone_starts: np.ndarray, z_lo: int, z_hi: int
) -> list[list[tuple[int, int]]]:
    """Per worker, the non-empty row ranges of its runs clipped to zones
    [z_lo, z_hi]. Runs come in zone order, so each share is key-sorted."""
    runs = plan.runs(z_lo, z_hi + 1)
    bounds = zone_starts[[a for a, _, _ in runs] + [z_hi + 1]].tolist()
    shares: list[list[tuple[int, int]]] = [[] for _ in range(plan.worker_count)]
    for (_, _, worker), start, stop in zip(runs, bounds, bounds[1:]):
        if stop > start:
            shares[worker].append((start, stop))
    return shares


def _timed(worker: int, row_bytes: int, work: Work, ranges: Ranges):
    """Run one worker's share and wrap the counters it reports."""
    t0 = time.perf_counter()
    c0 = time.thread_time() if _HAS_THREAD_CPU else None
    result, scanned, returned = work(ranges)
    elapsed = time.perf_counter() - t0
    cpu = time.thread_time() - c0 if c0 is not None else None
    stats = WorkerStats(
        worker=worker,
        elapsed_s=elapsed,
        cpu_s=cpu,
        rows_scanned=scanned,
        rows_returned=returned,
        bytes_read=scanned * row_bytes,
    )
    return result, stats


def _execute(
    plan: PartitionPlan,
    zone_starts: np.ndarray,
    band: tuple[int, int],
    row_bytes: int,
    work: Work,
    merge: Callable,
):
    """Run ``work`` over each worker's share of the zone band, one thread per
    worker with rows; a worker without rows gets an all-zero stats row and no
    thread, and a lone busy worker runs in the calling thread. The workers'
    result columns are concatenated, then ``merge``d."""
    t0 = time.perf_counter()
    shares = _shares(plan, zone_starts, *band)
    busy = [w for w, ranges in enumerate(shares) if ranges]
    stats = [WorkerStats(w, 0.0, _IDLE_CPU, 0, 0, 0) for w in range(plan.worker_count)]
    if len(busy) > 1:
        with ThreadPoolExecutor(max_workers=len(busy)) as pool:
            futures = [pool.submit(_timed, w, row_bytes, work, shares[w]) for w in busy]
            done = [fut.result() for fut in futures]
    else:
        done = [_timed(w, row_bytes, work, shares[w]) for w in busy]
    for w, (_, row) in zip(busy, done):
        stats[w] = row
    # no busy worker: typed empty columns for the merge
    results = [result for result, _ in done] or [work([(0, 0)])[0]]
    merged = merge(*(np.concatenate(parts) for parts in zip(*results)))
    return merged, ExecutionReport(tuple(stats), time.perf_counter() - t0)


def run_scan(
    index: ZoneIndex, f: ScanFilter, plan: PartitionPlan
) -> tuple[list[tuple[int, float]], ExecutionReport]:
    """Parallel magnitude scan; results identical to a single-threaded
    scan_filter after the canonical ascending-id sort."""
    _check_plan(index, plan)
    col = index.band_column(f.band)  # validates the band before dispatching

    def work(ranges: Ranges) -> tuple:
        ids, mags = _mag_filter(_take(index.ids, ranges), _take(col, ranges), f)
        return (ids, mags), sum(b - a for a, b in ranges), len(ids)

    everything = (0, plan.zone_count - 1)
    return _execute(plan, index.zone_starts, everything, index.row_bytes, work, _by_id)


def run_cone(
    index: ZoneIndex, q: ConeQuery, plan: PartitionPlan
) -> tuple[list[tuple[int, float]], ExecutionReport]:
    """Parallel cone search over the zones of dec +- radius; row ranges are
    disjoint so the merged union needs no dedup."""
    _check_plan(index, plan)
    dec = q.center.dec
    band = zone_of_array(np.array([dec - q.radius, dec + q.radius]), index.cfg)

    def work(ranges: Ranges) -> tuple:
        rows, sep, candidates = _cone_join(
            q,
            _take(index.ra_key, ranges),
            _take(index.ra, ranges),
            _take(index.dec, ranges),
            index.cfg,
        )
        return (_take(index.ids, ranges)[rows], sep), candidates, len(rows)

    return _execute(
        plan, index.zone_starts, tuple(band.tolist()), index.row_bytes, work, _by_id
    )


def run_xmatch(
    leading: ZoneIndex,
    other: ZoneIndex,
    spec: MatchSpec,
    plan: PartitionPlan,
) -> tuple[MatchTable, ExecutionReport]:
    """Parallel cross-match. Each worker joins its leading rows against the
    full (replicated, read-only) other index; a leading object is owned by
    exactly one worker, so each pair is produced exactly once."""
    if leading.cfg != other.cfg:
        raise ValueError(
            f"catalogs indexed with different zone configurations: "
            f"{leading.cfg} vs {other.cfg}"
        )
    _check_plan(leading, plan)
    if spec.leading is not None and spec.leading != leading.name:
        raise ValueError(
            f"spec names leading catalog {spec.leading!r} but got {leading.name!r}"
        )

    def work(ranges: Ranges) -> tuple:
        a, b, sep, candidates = _crossmatch_arrays(
            _take(leading.ids, ranges),
            _take(leading.ra, ranges),
            _take(leading.dec, ranges),
            other,
            spec.radius,
        )
        return (a, b, sep), candidates, len(a)

    everything = (0, plan.zone_count - 1)
    merge = MatchTable.from_unsorted
    return _execute(plan, leading.zone_starts, everything, other.row_bytes, work, merge)
