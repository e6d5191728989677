"""Fan a query out over W workers and merge results deterministically.

Workers are in-process threads over immutable shared indexes: the busy
worker of lowest index runs in the calling thread, each other busy worker in
a pool thread, and an idle one nowhere. The heavy lifting inside each worker
is vectorized array work, most of which releases the GIL, which is what
makes threads worth having here. Not all of it does: ``np.repeat``, which
expands candidate ranges in ``queries._candidates``, holds the GIL and so
caps how far the join scales with threads. All three queries run through
one executor, ``_execute``, which runs the shares it is given; workers never
talk to each other.

A scan or cross-match worker owns the row ranges of its plan's zone runs
within the zones the query can touch (the other catalog, for cross-matches,
is shared read-only by everyone), and is busy when those hold rows; for the
join the search is the heavy, parallel part, so each worker searches its
own needles. A cone's needles (one per zone and ra window segment of its
zone band) are built and searched once, in the calling thread, over the
band's contiguous slice of the key. A cone whose needles count no row
returns at once, with every worker's all-zero stats row. Otherwise a
worker's share is the needles of its runs that count rows, and it only
expands and filters them, with the expansion and exact filter of the
cross-match kernel: a cone's worker is busy when the search finds
candidates in its zones, not merely when it holds rows there.

A cross-match worker sorts its own pairs, in its own thread, with one sort
of (leading rank, other rank) uint64 keys (``MatchTable.from_unsorted``),
and the coordinator merges the sorted runs with one stable sort on the
leading id; a scan or cone coordinator sorts the concatenated rows by id.
Either way the result is bit-identical for any worker count or strategy. A
plan is its runs of zones (its per-zone ``assignment`` is derived from
them), and a worker's share is found by bisecting the run starts, so a
narrow band costs its few runs, not array calls. Stats rows and reports are
named tuples: immutable, cheap to build on every query, and they unpack and
compare equal to plain tuples.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .catalog import ZoneIndex
from .partition import PartitionPlan
from .queries import (
    ConeQuery,
    MatchSpec,
    MatchTable,
    Ranges,
    ScanFilter,
    _by_id,
    _cone_rows,
    _cone_search,
    _crossmatch_arrays,
    _take,
)
from .sphere import check_same_zones

__all__ = [
    "WorkerStats",
    "ExecutionReport",
    "aggregate",
    "run_scan",
    "run_cone",
    "run_xmatch",
]


class WorkerStats(NamedTuple):
    """What one worker did: wall clock, the CPU time of its thread, and row
    counters.

    ``rows_scanned`` counts the rows a scan visits, and the candidates a cone
    or cross-match examines before the exact separation filter. A worker
    that is not busy (no rows in a scan's or cross-match's zones, no
    candidate in a cone's) reports an all-zero row. The aggregate rows of
    :func:`aggregate` are labelled "MAX" and "AVG" instead of a worker index.
    """

    worker: int | str
    elapsed_s: float
    cpu_s: float
    rows_scanned: int
    rows_returned: int


def aggregate(stats: Sequence[WorkerStats]) -> tuple[WorkerStats, WorkerStats]:
    """Component-wise maximum and arithmetic mean over worker rows, as rows
    labelled "MAX" and "AVG"."""
    if not stats:
        raise ValueError("aggregate needs at least one worker row")
    _, *counters = zip(*stats)
    means = (sum(c) / len(c) for c in counters)
    return WorkerStats("MAX", *map(max, counters)), WorkerStats("AVG", *means)


class ExecutionReport(NamedTuple):
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
            "workers": [s._asdict() for s in self.workers],
            "max": max_row._asdict(),
            "avg": avg_row._asdict(),
        }
        return json.dumps(payload, sort_keys=True)


def _check_plan(index: ZoneIndex, plan: PartitionPlan) -> None:
    if plan.zone_count != index.cfg.zone_count:
        raise ValueError(
            f"plan covers {plan.zone_count} zones but index "
            f"{index.name!r} has {index.cfg.zone_count}"
        )


# work(a worker's share) -> (result columns, rows_scanned, rows_returned);
# a share is a list of [start, stop) ranges, of rows or of a cone's needles
Work = Callable[[Ranges], tuple]


def _band_runs(
    plan: PartitionPlan, z_lo: int, z_hi: int
) -> tuple[tuple[int, ...], list[int]]:
    """The plan's runs that meet zones [z_lo, z_hi], clipped to them:
    ``(workers, edges)``, run k belonging to ``workers[k]`` and spanning
    zones ``edges[k]`` to ``edges[k + 1]``. The runs are found by bisecting
    the run starts and only they are walked: a band costs its runs, not its
    zones."""
    run_starts = plan.run_starts
    first, end = bisect_right(run_starts, z_lo) - 1, bisect_right(run_starts, z_hi)
    return plan.run_workers[first:end], [z_lo, *run_starts[first + 1 : end], z_hi + 1]


def _shares(
    plan: PartitionPlan, z_lo: int, z_hi: int, starts: Sequence[int], totals: Sequence[int]
) -> dict[int, list[tuple[int, int]]]:
    """The busy workers' shares of zones [z_lo, z_hi]: per worker, the
    ranges of its runs of consecutive zones that hold something, in zone
    order, so each share is key-sorted. Zone z's range begins at
    ``starts[z - z_lo]`` and the zones before it in the band hold
    ``totals[z - z_lo]`` things; both have an entry for zone z_hi + 1, the
    end. Row ranges have both from ``zone_starts``; a cone's needle ranges,
    n per zone, start at multiples of n, and its totals count rows. Workers
    come in the order of their first run, and one whose runs hold nothing
    is absent."""
    workers, edges = _band_runs(plan, z_lo, z_hi)
    shares: dict[int, list[tuple[int, int]]] = {}
    for worker, a, b in zip(workers, edges, edges[1:]):
        a, b = a - z_lo, b - z_lo
        if totals[b] > totals[a]:
            shares.setdefault(worker, []).append((starts[a], starts[b]))
    return shares


@cache
def _idle_rows(worker_count: int) -> tuple[WorkerStats, ...]:
    """The all-zero stats row of every worker; rows are immutable, so every
    report shares them."""
    return tuple(WorkerStats(w, 0.0, 0.0, 0, 0) for w in range(worker_count))


def _timed(worker: int, work: Work, share: Ranges):
    """Run one worker's share and wrap the counters it reports."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    result, scanned, returned = work(share)
    elapsed = time.perf_counter() - t0
    cpu = time.thread_time() - c0
    return result, WorkerStats(worker, elapsed, cpu, scanned, returned)


def _execute(
    plan: PartitionPlan,
    shares: dict[int, list[tuple[int, int]]],
    work: Work,
    merge: Callable,
    t0: float,
):
    """Run ``work`` over each busy worker's share (worker -> share). The
    busy worker of lowest index runs in the calling thread and each other
    one in a pool thread, so a query starts one thread fewer than it has
    busy workers: each new thread gets a malloc arena of its own, memory the
    process keeps. A worker without a share gets the shared all-zero stats
    row and no thread. The workers' result columns are concatenated (unless
    one worker returned them), then ``merge``d; with no busy worker, which
    only a scan or cross-match reaches, ``work`` of one empty range gives
    the typed empty columns. The report's total runs from ``t0``."""
    busy = sorted(shares)
    if len(busy) > 1:
        with ThreadPoolExecutor(max_workers=len(busy) - 1) as pool:
            futures = [pool.submit(_timed, w, work, shares[w]) for w in busy[1:]]
            done = [_timed(busy[0], work, shares[busy[0]])]
            done += [fut.result() for fut in futures]
    else:
        done = [_timed(w, work, shares[w]) for w in busy]
    stats = list(_idle_rows(plan.worker_count))
    for _, row in done:
        stats[row.worker] = row
    results = [result for result, _ in done] or [work([(0, 0)])[0]]
    if len(results) == 1:
        columns = results[0]
    else:
        columns = [np.concatenate(parts) for parts in zip(*results)]
    merged = merge(*columns)
    return merged, ExecutionReport(tuple(stats), time.perf_counter() - t0)


def run_scan(
    index: ZoneIndex, f: ScanFilter, plan: PartitionPlan
) -> tuple[list[tuple[int, float]], ExecutionReport]:
    """Parallel magnitude scan: the (id, magnitude) rows whose ``f.band``
    magnitude lies in [lo, hi], ascending by id, for any worker count or
    strategy. Every object is visited; there is deliberately no index over
    magnitudes."""
    _check_plan(index, plan)
    col = index.band_column(f.band)  # validates the band before dispatching

    def work(ranges: Ranges) -> tuple:
        ids, mags = _take(index.ids, ranges), _take(col, ranges)
        keep = (mags >= f.lo) & (mags <= f.hi)  # NaN (missing) compares False
        return (ids[keep], mags[keep]), len(ids), int(np.count_nonzero(keep))

    t0 = time.perf_counter()
    zone_starts = index.zone_starts.tolist()
    shares = _shares(plan, 0, plan.zone_count - 1, zone_starts, zone_starts)
    return _execute(plan, shares, work, _by_id, t0)


def run_cone(
    index: ZoneIndex, q: ConeQuery, plan: PartitionPlan
) -> tuple[list[tuple[int, float]], ExecutionReport]:
    """Parallel cone search over the zones of dec +- radius. The calling
    thread searches the cone's needles once, in the band's contiguous key
    slice; a cone whose needles count no row returns at once, with every
    worker's all-zero stats row. Otherwise each worker whose zones hold a
    needle that counts rows expands and filters its needles' candidates,
    and the others stay idle. Workers' rows are disjoint, so the merged
    union needs no dedup."""
    t0 = time.perf_counter()
    _check_plan(index, plan)
    (z_lo, z_hi), start, i0, counts = _cone_search(q, index)
    found = counts.tolist()
    if not any(found):  # most small cones: no shares, worker clocks or merge
        return [], ExecutionReport(_idle_rows(plan.worker_count), time.perf_counter() - t0)

    def work(needles: Ranges) -> tuple:
        ids, sep, candidates = _cone_rows(
            q, index, start, _take(i0, needles), _take(counts, needles)
        )
        return (ids, sep), candidates, len(ids)

    per_zone = len(found) // (z_hi - z_lo + 1)
    totals = list(accumulate(found, initial=0))[::per_zone]
    shares = _shares(plan, z_lo, z_hi, range(0, len(found) + 1, per_zone), totals)
    return _execute(plan, shares, work, _by_id, t0)


def run_xmatch(
    leading: ZoneIndex,
    other: ZoneIndex,
    spec: MatchSpec,
    plan: PartitionPlan,
) -> tuple[MatchTable, ExecutionReport]:
    """Parallel cross-match. Each worker walks its share's leading row ranges
    in chunks, joining each chunk against the zone-local slice of the shared,
    read-only other index (the zones the chunk's dec +- radius reaches); a
    leading object is owned by exactly one worker, so each pair is produced
    exactly once."""
    check_same_zones(leading.cfg, other.cfg)
    _check_plan(leading, plan)
    other.ra_key  # built here, if not yet, rather than by racing workers

    def work(ranges: Ranges) -> tuple:
        a, b, sep, candidates = _crossmatch_arrays(
            leading.ids, leading.ra, leading.dec, other, spec.radius, ranges=ranges
        )
        pairs = MatchTable.from_unsorted(a, b, sep)
        return (pairs.leading_ids, pairs.other_ids, pairs.separation), candidates, len(a)

    t0 = time.perf_counter()
    zone_starts = leading.zone_starts.tolist()
    shares = _shares(plan, 0, plan.zone_count - 1, zone_starts, zone_starts)
    return _execute(plan, shares, work, _merge_runs, t0)


def _merge_runs(
    leading_ids: np.ndarray, other_ids: np.ndarray, separation: np.ndarray
) -> MatchTable:
    """The pairs of the workers' concatenated runs, each run sorted by
    (leading_id, other_id), in canonical order. A leading object belongs to
    one worker, so the pairs of one leading id lie in one run, already
    ordered by other id, and a stable sort on the leading id alone keeps
    them so."""
    order = np.argsort(leading_ids, kind="stable")
    return MatchTable(leading_ids[order], other_ids[order], separation[order])
