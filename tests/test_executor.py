"""Parallel fan-out: result invariance, stats accounting, aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from zonequery import (
    ConeQuery,
    MatchSpec,
    ScanFilter,
    SkyPoint,
    WorkerStats,
    ZoneConfig,
    aggregate,
    build_index,
    cone_search,
    make_plan,
    histogram,
    plan_contiguous,
    run_cone,
    run_scan,
    run_xmatch,
    scan_filter,
    zone_crossmatch,
    zone_of,
)

from conftest import random_sky, scenario_pair

CFG = ZoneConfig()
ARCMIN = 1.0 / 60.0
WORKER_COUNTS = (1, 2, 4, 8)
STRATEGIES = ("contiguous", "round_robin", "density")


@pytest.fixture(scope="module")
def catalog():
    rng = np.random.default_rng(60)
    ra, dec = random_sky(rng, 8000)
    mags = rng.uniform(5.0, 15.0, (8000, 1))
    return build_index(
        "cat", CFG, np.arange(8000, dtype=np.uint64), ra, dec, mags, ("r",)
    )


@pytest.fixture(scope="module")
def xmatch_pair():
    rng = np.random.default_rng(61)
    return scenario_pair(rng, "random", 3000, 3000, ARCMIN, CFG, bands=())


def plans_under_test(index):
    hist = histogram(index)
    for workers in WORKER_COUNTS:
        for strategy in STRATEGIES:
            yield make_plan(strategy, index.cfg.zone_count, workers, hist)


class TestRunScan:
    def test_single_worker_equals_direct_call(self, catalog):
        f = ScanFilter("r", 9.0, 10.0)
        rows, rep = run_scan(catalog, f, plan_contiguous(CFG.zone_count, 1))
        assert rows == scan_filter(list(catalog.slices()), f)
        assert rep.worker_count == 1

    def test_invariant_across_workers_and_strategies(self, catalog):
        f = ScanFilter("r", 9.0, 10.0)
        baseline, _ = run_scan(catalog, f, plan_contiguous(CFG.zone_count, 1))
        for plan in plans_under_test(catalog):
            rows, rep = run_scan(catalog, f, plan)
            assert rows == baseline
            assert sum(s.rows_returned for s in rep.workers) == len(rows)
            assert sum(s.rows_scanned for s in rep.workers) == catalog.total_count

    def test_unknown_band_rejected_before_dispatch(self, catalog):
        with pytest.raises(ValueError, match="unknown band"):
            run_scan(catalog, ScanFilter("z", 0, 1), plan_contiguous(CFG.zone_count, 2))

    def test_plan_mismatch_rejected(self, catalog):
        bad = plan_contiguous(100, 2)
        with pytest.raises(ValueError, match="zones"):
            run_scan(catalog, ScanFilter("r", 9, 10), bad)


class TestRunCone:
    CONES = (
        ConeQuery(SkyPoint(200.0, 30.0), 2.0),
        ConeQuery(SkyPoint(359.5, -10.0), 1.5),  # across 0/360
        ConeQuery(SkyPoint(0.2, 45.0), 1.0),  # across 0/360
        ConeQuery(SkyPoint(77.0, 88.0), 3.0),  # over the north pole
        ConeQuery(SkyPoint(5.0, -90.0), 2.0),  # centred on the south pole
        ConeQuery(SkyPoint(123.0, -12.0), 0.0),  # radius 0, nothing there
        ConeQuery(SkyPoint(10.0, 10.0), 180.0),  # the whole sky
        ConeQuery(SkyPoint(300.0, 5.0), 0.05),
    )

    def test_union_equals_single_threaded(self, catalog):
        from zonequery.sphere import separation_deg

        # radius 0 on an object must return that object
        cones = self.CONES + (
            ConeQuery(SkyPoint(float(catalog.ra[17]), float(catalog.dec[17])), 0.0),
        )
        sizes = np.diff(catalog.zone_starts)
        idle_rows = 0
        for q in cones:
            expected = cone_search(catalog, q)
            sep = separation_deg(catalog.ra, catalog.dec, q.center.ra, q.center.dec)
            keep = sep <= q.radius
            oracle = sorted(zip(catalog.ids[keep].tolist(), sep[keep].tolist()))
            assert expected == oracle
            lo = zone_of(max(q.center.dec - q.radius, -90.0), CFG)
            hi = zone_of(min(q.center.dec + q.radius, 90.0), CFG)
            for plan in plans_under_test(catalog):
                rows, rep = run_cone(catalog, q, plan)
                assert rows == expected
                assert sum(s.rows_returned for s in rep.workers) == len(rows)
                for s in rep.workers:
                    zones = plan.zones_of(s.worker)
                    band = zones[(zones >= lo) & (zones <= hi)]
                    if sizes[band].sum() == 0:
                        idle_rows += 1
                        assert s == WorkerStats(s.worker, 0.0, s.cpu_s, 0, 0, 0)
                        assert s.cpu_s in (0.0, None)
        assert len(cone_search(catalog, cones[-1])) == 1
        assert idle_rows > 0

    def test_non_overlapping_workers_scan_nothing(self, catalog):
        # cone around dec 80: zones near 2550, owned by the last of 4
        # contiguous workers; the others must report zero rows scanned
        q = ConeQuery(SkyPoint(10.0, 80.0), 0.5)
        plan = plan_contiguous(CFG.zone_count, 4)
        rows, rep = run_cone(catalog, q, plan)
        assert len(rows) > 0
        scanned = [s.rows_scanned for s in rep.workers]
        assert scanned[0] == scanned[1] == scanned[2] == 0
        assert scanned[3] > 0

    def test_one_busy_worker_runs_in_calling_thread(self, catalog, monkeypatch):
        # the cone's zones all belong to the last of 2 contiguous workers: it
        # runs without a thread pool, and the idle worker reports all zeros
        from zonequery import executor

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool for one busy worker")

        monkeypatch.setattr(executor, "ThreadPoolExecutor", no_pool)
        q = ConeQuery(SkyPoint(10.0, 60.0), 1.0)
        rows, rep = run_cone(catalog, q, plan_contiguous(CFG.zone_count, 2))
        assert rows == cone_search(catalog, q) and len(rows) > 0
        idle, busy = rep.workers
        assert idle == WorkerStats(0, 0.0, idle.cpu_s, 0, 0, 0)
        assert idle.cpu_s in (0.0, None)
        assert busy.rows_scanned > 0 and busy.rows_returned == len(rows)
        assert busy.elapsed_s > 0.0
        assert rep.max_row.rows_scanned == busy.rows_scanned
        assert rep.avg_row.rows_scanned == busy.rows_scanned / 2

    def test_radius_zero(self, catalog):
        q = ConeQuery(SkyPoint(1.0, 1.0), 0.0)
        rows, _ = run_cone(catalog, q, plan_contiguous(CFG.zone_count, 4))
        assert rows == cone_search(catalog, q)

    def test_cone_spanning_worker_boundary_matches_bruteforce(self, catalog):
        # dec 0 is zone 1350, exactly the split between contiguous workers
        # 1 and 2 of 4: the cone's zones straddle both
        from zonequery.sphere import separation_deg

        q = ConeQuery(SkyPoint(100.0, 0.0), 2.0)
        plan = plan_contiguous(CFG.zone_count, 4)
        rows, rep = run_cone(catalog, q, plan)
        assert rep.workers[1].rows_scanned > 0
        assert rep.workers[2].rows_scanned > 0
        sep = separation_deg(catalog.ra, catalog.dec, q.center.ra, q.center.dec)
        keep = sep <= q.radius
        oracle = sorted(zip(catalog.ids[keep].tolist(), sep[keep].tolist()))
        assert [(i, s) for i, s in rows] == [(int(i), float(s)) for i, s in oracle]


class TestRunXmatch:
    def test_invariant_across_workers_and_strategies(self, xmatch_pair):
        leading, other = xmatch_pair
        spec = MatchSpec(radius=ARCMIN)
        baseline = zone_crossmatch(list(leading.slices()), other, spec)
        assert len(baseline) > 0
        for plan in plans_under_test(leading):
            pairs, rep = run_xmatch(leading, other, spec, plan)
            assert pairs == baseline
            assert sum(s.rows_returned for s in rep.workers) == len(pairs)

    def test_pairs_exactly_once_across_100_randomized_runs(self):
        rng = np.random.default_rng(62)
        for _ in range(25):
            a, b = scenario_pair(
                rng, str(rng.choice(["random", "wrap", "polar"])), 200, 200,
                ARCMIN, CFG,
            )
            for workers in WORKER_COUNTS:
                plan = plan_contiguous(CFG.zone_count, workers)
                pairs, _ = run_xmatch(a, b, MatchSpec(radius=ARCMIN), plan)
                keys = [(p.leading_id, p.other_id) for p in pairs]
                assert len(keys) == len(set(keys))

    def test_config_mismatch_rejected(self):
        a = build_index("a", CFG, np.array([0], dtype=np.uint64),
                        np.array([1.0]), np.array([1.0]))
        b = build_index("b", ZoneConfig(1.0), np.array([0], dtype=np.uint64),
                        np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="zone configurations"):
            run_xmatch(a, b, MatchSpec(radius=ARCMIN), plan_contiguous(CFG.zone_count, 2))

    def test_leading_label_checked(self, xmatch_pair):
        leading, other = xmatch_pair
        spec = MatchSpec(radius=ARCMIN, leading="not-this-catalog")
        with pytest.raises(ValueError, match="leading"):
            run_xmatch(leading, other, spec, plan_contiguous(CFG.zone_count, 2))

    def test_skewed_leading_shows_up_in_stats(self):
        rng = np.random.default_rng(63)
        # all leading objects in a narrow band owned by one contiguous worker
        ra, dec = random_sky(rng, 4000, 60.0, 61.0)
        leading = build_index("lead", CFG, np.arange(4000, dtype=np.uint64), ra, dec)
        ra_b, dec_b = random_sky(rng, 4000, 55.0, 65.0)
        other = build_index("oth", CFG, np.arange(4000, dtype=np.uint64), ra_b, dec_b)
        plan = plan_contiguous(CFG.zone_count, 4)
        _, rep = run_xmatch(leading, other, MatchSpec(radius=ARCMIN), plan)
        scanned = [s.rows_scanned for s in rep.workers]
        # dec 60-61 lives in zone ~2250, worker 3 of 4
        assert scanned[3] == max(scanned)
        assert scanned[0] == 0


class TestEmptyIndex:
    def test_all_runners_handle_empty_catalogs(self):
        empty = build_index(
            "empty", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0),
            np.empty((0, 1)), ("r",),
        )
        plan = plan_contiguous(CFG.zone_count, 4)
        rows, rep = run_scan(empty, ScanFilter("r", 0.0, 99.0), plan)
        assert rows == [] and rep.worker_count == 4
        rows, _ = run_cone(empty, ConeQuery(SkyPoint(0.0, 0.0), 5.0), plan)
        assert rows == []
        pairs, _ = run_xmatch(empty, empty, MatchSpec(radius=ARCMIN), plan)
        assert pairs == []


class TestStatsAndAggregate:
    def test_total_elapsed_at_least_max_worker(self, catalog):
        f = ScanFilter("r", 9.0, 10.0)
        _, rep = run_scan(catalog, f, plan_contiguous(CFG.zone_count, 4))
        assert rep.total_elapsed_s >= max(s.elapsed_s for s in rep.workers)
        assert rep.max_row.elapsed_s >= rep.avg_row.elapsed_s
        assert rep.max_row.rows_scanned >= rep.avg_row.rows_scanned

    def test_aggregate_single_row(self):
        row = WorkerStats(0, 1.5, 0.5, 100, 10, 800)
        mx, av = aggregate([row])
        assert (mx.elapsed_s, av.elapsed_s) == (1.5, 1.5)
        assert (mx.rows_scanned, av.rows_scanned) == (100, 100.0)

    def test_aggregate_max_and_mean_semantics(self):
        # eight workers whose elapsed max is 147 and mean is 113: the summary
        # rows must report exactly those two numbers
        elapsed = [147.0, 113.0, 113.0, 113.0, 113.0, 113.0, 113.0, 79.0]
        rows = [
            WorkerStats(w, e, e / 10, 1000 + w, 10 + w, 8000)
            for w, e in enumerate(elapsed)
        ]
        mx, av = aggregate(rows)
        assert mx.elapsed_s == 147.0
        assert av.elapsed_s == pytest.approx(113.0)
        assert mx.rows_scanned == 1007
        assert av.rows_scanned == pytest.approx(1003.5)

    def test_aggregate_all_zero(self):
        rows = [WorkerStats(w, 0.0, 0.0, 0, 0, 0) for w in range(3)]
        mx, av = aggregate(rows)
        assert mx.elapsed_s == av.elapsed_s == 0.0
        assert mx.rows_returned == av.rows_returned == 0

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_report_serialization(self, catalog):
        import json

        _, rep = run_scan(
            catalog, ScanFilter("r", 9.0, 10.0), plan_contiguous(CFG.zone_count, 2)
        )
        parsed = json.loads(rep.to_json())
        assert parsed["worker_count"] == 2
        assert len(parsed["workers"]) == 2
        assert parsed["max"]["worker"] == "MAX"
