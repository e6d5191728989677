"""Parallel fan-out: result invariance, stats accounting, aggregation."""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonequery import (
    ConeQuery,
    MatchSpec,
    ScanFilter,
    SkyPoint,
    ExecutionReport,
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
    zone_crossmatch,
    zone_of,
)
from zonequery import queries
from zonequery.executor import _shares
from zonequery.partition import PartitionPlan
from zonequery.queries import MAX_MATCH_RADIUS_DEG, brute_force_crossmatch
from zonequery.sphere import separation_deg, zone_of_array
from zonequery.synth import Clustered, DecBand, SyntheticSpec, generate_index

from conftest import (
    clip_runs,
    match_table_reference,
    random_sky,
    scan_reference,
    scenario_pair,
    scenario_positions,
    shares_reference,
    zone_join_reference,
)

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
        assert rows == scan_reference(catalog, f)
        assert all(type(i) is int and type(m) is float for i, m in rows)
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
                    zones = np.flatnonzero(plan.assignment == s.worker)
                    band = zones[(zones >= lo) & (zones <= hi)]
                    if sizes[band].sum() == 0:
                        idle_rows += 1
                        assert s == WorkerStats(s.worker, 0.0, 0.0, 0, 0)
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
        assert idle == WorkerStats(0, 0.0, 0.0, 0, 0)
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


def cone_reference(index, q, plan):
    """The rows and per-worker (rows_scanned, rows_returned) of a cone: the
    one-row ``conftest.zone_join_reference`` over each worker's share of
    the zones of dec +- radius (``conftest.shares_reference``)."""
    dec, radius = q.center.dec, q.radius
    band = zone_of_array(np.array([dec - radius, dec + radius]), index.cfg).tolist()
    shares = shares_reference(plan, index.zone_starts, *band)
    rows, counters = [], []
    for ranges in shares:
        if not ranges:
            counters.append((0, 0))
            continue
        ids, key, ra, dec_ = (
            np.concatenate([c[a:b] for a, b in ranges])
            for c in (index.ids, index.ra_key, index.ra, index.dec)
        )
        _, hit, sep, candidates = zone_join_reference(
            np.array([q.center.ra]), np.array([dec]), radius, key, ra, dec_, index.cfg
        )
        rows += zip(ids[hit].tolist(), sep.tolist())
        counters.append((candidates, len(hit)))
    return sorted(rows), counters, shares


def assert_cone_equals_reference(index, q, plan):
    """``run_cone`` under ``plan`` gives the reference's rows and each
    worker's counters, and the ids and separations of brute force."""
    rows, rep = run_cone(index, q, plan)
    expected, counters, shares = cone_reference(index, q, plan)
    assert rows == expected, (plan.strategy, plan.worker_count)
    assert [(s.rows_scanned, s.rows_returned) for s in rep.workers] == counters
    sep = separation_deg(index.ra, index.dec, q.center.ra, q.center.dec)
    keep = sep <= q.radius
    assert [i for i, _ in rows] == sorted(index.ids[keep].tolist())
    brute = dict(zip(index.ids[keep].tolist(), sep[keep].tolist()))
    assert np.allclose([s for _, s in rows], [brute[i] for i, _ in rows], rtol=0, atol=1e-12)
    assert all(type(i) is int and type(s) is float for i, s in rows)
    return rows, rep, shares


@pytest.fixture(scope="module")
def cone_sky():
    """Full sky plus clusters at both poles, across the 0/360 wrap and on
    zone boundaries."""
    rng = np.random.default_rng(65)
    parts = [scenario_positions(rng, kind, n, CFG) for kind, n in (
        ("random", 3000), ("polar", 400), ("wrap", 400), ("boundary", 200),
    )]
    ra, dec = (np.concatenate(c) for c in zip(*parts))
    return build_index("sky", CFG, np.arange(len(ra), dtype=np.uint64), ra, dec)


_PLANS_1_TO_4 = [(s, w) for s in STRATEGIES for w in (1, 2, 3, 4)]


class TestConeEquivalence:
    """``run_cone`` builds and searches a cone's needles once, and each
    worker whose needles count rows expands and filters them: its rows equal
    the one-row reference join's and brute force's, and each worker's
    ``rows_scanned`` the reference's candidates in that worker's share,
    under every strategy at 1-4 workers."""

    @settings(max_examples=60, deadline=None)
    @given(
        ra=st.sampled_from([0.0, float(np.nextafter(360.0, 0.0)), 0.01, 359.99])
        | st.floats(0.0, 360.0, exclude_max=True),
        dec=st.sampled_from([-90.0, 90.0, 0.0, 89.5, -89.5])
        | st.floats(-90.0, 90.0),
        radius=st.sampled_from([0.0, ARCMIN, 0.5]) | st.floats(0.0, 3.0),
    )
    def test_equals_reference_and_brute_force(self, cone_sky, ra, dec, radius):
        q = ConeQuery(SkyPoint(ra, dec), radius)
        hist = histogram(cone_sky)
        for strategy, workers in _PLANS_1_TO_4:
            plan = make_plan(strategy, CFG.zone_count, workers, hist)
            assert_cone_equals_reference(cone_sky, q, plan)
        rows = cone_search(cone_sky, q)
        assert rows == run_cone(cone_sky, q, plan)[0]
        assert all(type(i) is int and type(s) is float for i, s in rows)

    @pytest.mark.parametrize("strategy, workers", _PLANS_1_TO_4)
    def test_fixed_cones(self, cone_sky, strategy, workers):
        plan = make_plan(strategy, CFG.zone_count, workers, histogram(cone_sky))
        for q in TestRunCone.CONES + (
            ConeQuery(SkyPoint(0.0, 0.0), 0.3),  # wraps on both sides of 0/360
            ConeQuery(SkyPoint(180.0, 89.9), 0.1),  # |dec| + r exactly 90
            ConeQuery(SkyPoint(float(cone_sky.ra[5]), float(cone_sky.dec[5])), 0.0),
        ):
            rows, _, _ = assert_cone_equals_reference(cone_sky, q, plan)
        assert len(rows) == 1  # the last cone: radius 0 on a stored object

    def test_full_sky_at_coarse_zones(self):
        cfg = ZoneConfig(0.5)
        ra, dec = random_sky(np.random.default_rng(66), 600)
        index = build_index("coarse", cfg, np.arange(600, dtype=np.uint64), ra, dec)
        for strategy, workers in _PLANS_1_TO_4:
            plan = make_plan(strategy, cfg.zone_count, workers, histogram(index))
            for dec0 in (-90.0, 0.0, 90.0):
                rows, rep, _ = assert_cone_equals_reference(
                    index, ConeQuery(SkyPoint(359.5, dec0), 180.0), plan
                )
                assert len(rows) == 600
                assert sum(s.rows_scanned for s in rep.workers) == 600

    def test_empty_index(self):
        empty = build_index("empty", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
        for strategy, workers in _PLANS_1_TO_4:
            plan = make_plan(strategy, CFG.zone_count, workers, histogram(empty))
            for q in TestRunCone.CONES:
                rows, rep = run_cone(empty, q, plan)
                assert rows == [] and cone_search(empty, q) == []
                assert all(s == WorkerStats(s.worker, 0.0, 0.0, 0, 0) for s in rep.workers)

    def test_empty_zones(self):
        # rows only at dec 10-12: a cone at dec -30 finds no rows in its
        # zones, one at dec 9.5 reaches both empty and filled zones
        rng = np.random.default_rng(67)
        ra, dec = random_sky(rng, 5000, 10.0, 12.0)
        index = build_index("strip", CFG, np.arange(5000, dtype=np.uint64), ra, dec)
        for strategy, workers in _PLANS_1_TO_4:
            plan = make_plan(strategy, CFG.zone_count, workers, histogram(index))
            rows, rep, shares = assert_cone_equals_reference(
                index, ConeQuery(SkyPoint(40.0, -30.0), 2.0), plan
            )
            assert rows == [] and not any(shares)
            rows, _, _ = assert_cone_equals_reference(
                index, ConeQuery(SkyPoint(40.0, 9.5), 1.5), plan
            )
            assert rows

    @pytest.mark.parametrize("strategy, workers", _PLANS_1_TO_4)
    def test_no_candidate_report(self, strategy, workers):
        """A cone whose zones hold rows but whose window finds none returns
        no rows and a report of every worker's all-zero row: a worker is
        busy only when the search finds candidates in its zones. The search
        itself counts in ``total_elapsed_s``."""
        rng = np.random.default_rng(70)
        ra, dec = rng.uniform(99.0, 101.0, 2000), rng.uniform(-1.0, 1.0, 2000)
        index = build_index("patch", CFG, np.arange(2000, dtype=np.uint64), ra, dec)
        plan = make_plan(strategy, CFG.zone_count, workers, histogram(index))
        rows, rep, shares = assert_cone_equals_reference(
            index, ConeQuery(SkyPoint(250.0, 0.0), 0.5), plan
        )
        assert rows == [] and any(shares)  # the band's zones hold rows
        assert rep.workers == tuple(WorkerStats(w, 0.0, 0.0, 0, 0) for w in range(workers))
        assert rep.total_elapsed_s > 0.0

    @pytest.mark.parametrize("strategy, workers", [("contiguous", 2), ("round_robin", 2),
                                                   ("round_robin", 3)])
    def test_worker_with_rows_but_no_candidate(self, strategy, workers):
        """Of two workers holding rows in a cone's band, the one whose rows
        the window misses gets the all-zero row and the other runs: rows lie
        at ra 250 in zone 1349 and at ra 100 in zone 1350 (dec 0, the edge
        between contiguous workers 0 and 1, and two workers of any
        round-robin plan), and the cone at ra 250 reaches both zones."""
        rng = np.random.default_rng(71)
        ra = np.concatenate((rng.uniform(249.0, 251.0, 500), rng.uniform(99.0, 101.0, 1500)))
        dec = np.concatenate((rng.uniform(-0.06, -0.01, 500), rng.uniform(0.01, 0.06, 1500)))
        index = build_index("sides", CFG, np.arange(2000, dtype=np.uint64), ra, dec)
        plan = make_plan(strategy, CFG.zone_count, workers, histogram(index))
        rows, rep, shares = assert_cone_equals_reference(
            index, ConeQuery(SkyPoint(250.0, 0.0), 0.5), plan
        )
        holding = [w for w, ranges in enumerate(shares) if ranges]
        ran = [s.worker for s in rep.workers if s.rows_scanned]
        assert rows and ran and set(holding) - set(ran)
        for s in rep.workers:
            if s.worker in ran:
                assert s.elapsed_s > 0.0 and s.rows_returned > 0
            else:
                assert s == WorkerStats(s.worker, 0.0, 0.0, 0, 0)

    def test_band_across_a_worker_boundary(self):
        # dec 0 is zone 1350, the edge between two contiguous workers
        rng = np.random.default_rng(68)
        ra, dec = rng.uniform(99.0, 101.0, 2000), rng.uniform(-1.0, 1.0, 2000)
        index = build_index("patch", CFG, np.arange(2000, dtype=np.uint64), ra, dec)
        plan = plan_contiguous(CFG.zone_count, 2)
        _, rep, shares = assert_cone_equals_reference(
            index, ConeQuery(SkyPoint(100.0, 0.0), 0.5), plan
        )
        assert all(shares) and all(s.rows_scanned > 0 for s in rep.workers)

    def test_round_robin_many_ranges_per_worker(self):
        rng = np.random.default_rng(69)
        ra, dec = rng.uniform(195.0, 205.0, 3000), rng.uniform(17.0, 23.0, 3000)
        index = build_index("patch", CFG, np.arange(3000, dtype=np.uint64), ra, dec)
        plan = make_plan("round_robin", CFG.zone_count, 3)
        rows, _, shares = assert_cone_equals_reference(
            index, ConeQuery(SkyPoint(200.0, 20.0), 2.0), plan
        )
        assert rows and min(len(ranges) for ranges in shares) > 10

    @pytest.mark.parametrize("workers", [2, 3, 4])
    @pytest.mark.parametrize("ra", [200.0, 0.3, 359.7])
    def test_needle_slices_over_many_runs(self, needle_sky, workers, ra):
        """Round-robin plans at 4' zones deal a 1.5 deg cone's band of 46
        zones into at least 8 runs per worker, so each worker gets a
        slice of needles per run; at ra 0.3 and 359.7 the window wraps at
        0/360 and each zone holds two needles, one per segment."""
        q = ConeQuery(SkyPoint(ra, 20.0), 1.5)
        plan = make_plan("round_robin", CFG.zone_count, workers)
        rows, rep, shares = assert_cone_equals_reference(needle_sky, q, plan)
        assert rows and min(len(ranges) for ranges in shares) >= 8
        assert all(s.rows_scanned > 0 for s in rep.workers)
        band, lo, _ = queries._cone_needles(q, CFG)
        assert len(lo) == (band[1] - band[0] + 1) * (1 if ra == 200.0 else 2)

    @pytest.mark.parametrize("edge", [-1, 0, 1, 2, 4])
    def test_full_circle_window_at_a_run_edge(self, needle_sky, edge):
        """A cone over the north pole has one full-circle needle per zone of
        its band of 5; a 2-worker plan whose run edge lies below, at, inside
        or at the last zone of that band splits the needles between the
        workers, and so do round-robin plans, whose every zone is a run."""
        q = ConeQuery(SkyPoint(30.0, 89.9), 0.2)
        (z_lo, z_hi), lo, hi = queries._cone_needles(q, CFG)
        assert z_hi - z_lo + 1 == 5 and len(lo) == 5
        assert np.array_equal(hi - lo, np.full(5, 360.0))
        plan = PartitionPlan("contiguous", 2, CFG.zone_count, (0, z_lo + edge), (0, 1))
        rows, rep, _ = assert_cone_equals_reference(needle_sky, q, plan)
        assert rows
        assert [s.rows_scanned > 0 for s in rep.workers] == [edge > 0, True]
        for workers in (2, 3):
            plan = make_plan("round_robin", CFG.zone_count, workers)
            assert_cone_equals_reference(needle_sky, q, plan)


@pytest.fixture(scope="module")
def needle_sky():
    """A dense patch around dec 20 across the 0/360 wrap and at ra 200, and
    a cap around the north pole: rows in every zone of the cones of
    ``TestConeEquivalence``'s needle slice tests."""
    rng = np.random.default_rng(72)
    ra = np.concatenate((rng.uniform(-2.0, 2.0, 4000) % 360.0, rng.uniform(198.0, 202.0, 3000),
                         rng.uniform(0.0, 360.0, 3000)))
    dec = np.concatenate((rng.uniform(18.0, 22.0, 7000), rng.uniform(89.5, 90.0, 3000)))
    return build_index("needles", CFG, np.arange(len(ra), dtype=np.uint64), ra, dec)


class TestShares:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_walk_equals_runs_encoding(self, strategy, workers):
        """The run-edge walk over the plan gives the row ranges of the
        run-length encoding it replaced, empty zones included, for the
        workers whose share holds rows; the others are absent."""
        rng = np.random.default_rng(workers)
        counts = rng.integers(0, 5, CFG.zone_count) * (rng.random(CFG.zone_count) < 0.7)
        zone_starts = np.concatenate(([0], np.cumsum(counts)))
        plan = make_plan(strategy, CFG.zone_count, workers, counts)
        bands = [(0, CFG.zone_count - 1)] + [
            tuple(sorted(rng.integers(0, CFG.zone_count, 2).tolist())) for _ in range(500)
        ] + [(z, z) for z in (0, 1, CFG.zone_count - 1)]
        for z_lo, z_hi in bands:
            expected = shares_reference(plan, zone_starts, z_lo, z_hi)
            busy = {w: ranges for w, ranges in enumerate(expected) if ranges}
            band = zone_starts[z_lo:].tolist()
            assert _shares(plan, z_lo, z_hi, band, band) == busy

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 8])
    def test_needle_walk_equals_runs(self, strategy, workers):
        """A cone's needle shares: per worker, the needle range of each of
        its runs clipped to the band (``conftest.clip_runs``) that holds a
        needle that counts rows, for one and two needles per zone; needle
        ranges start at multiples of the needles per zone, and the totals
        are the rows the needles before them count."""
        rng = np.random.default_rng(100 + workers)
        counts = rng.integers(0, 5, CFG.zone_count)
        plan = make_plan(strategy, CFG.zone_count, workers, counts)
        for _ in range(300):
            z_lo, z_hi = sorted(rng.integers(0, CFG.zone_count, 2).tolist())
            z_hi = min(z_hi, z_lo + int(rng.integers(0, 40)))
            per_zone = int(rng.integers(1, 3))
            n = (z_hi - z_lo + 1) * per_zone
            found = (rng.integers(0, 3, n) * (rng.random(n) < 0.2)).tolist()
            expected = {}
            for a, b, w in clip_runs(plan.runs(), z_lo, z_hi + 1):
                start, stop = (a - z_lo) * per_zone, (b - z_lo) * per_zone
                if any(found[start:stop]):
                    expected.setdefault(w, []).append((start, stop))
            starts = range(0, n + 1, per_zone)
            totals = [sum(found[:k]) for k in starts]
            assert _shares(plan, z_lo, z_hi, starts, totals) == expected


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

    def test_merge_equals_one_sort_of_all_pairs(self):
        # ids shuffled, so every worker's leading ids interleave with the
        # others'; the other catalog covers only dec >= 1, so a contiguous
        # 2-worker plan has a busy worker 0 that finds no pairs
        rng = np.random.default_rng(64)
        ra, dec = rng.uniform(0.0, 2.0, 3000), rng.uniform(-10.0, 10.0, 3000)
        leading = build_index("lead", CFG, rng.permutation(3000).astype(np.uint64), ra, dec)
        ra, dec = rng.uniform(0.0, 2.0, 1500), rng.uniform(1.0, 10.0, 1500)
        other = build_index("oth", CFG, rng.permutation(1500).astype(np.uint64), ra, dec)
        spec = MatchSpec(radius=3 * ARCMIN)
        a, b, sep, _ = queries._crossmatch_arrays(
            leading.ids, leading.ra, leading.dec, other, spec.radius
        )
        expected = match_table_reference(a, b, sep)
        assert len(np.unique(expected.leading_ids)) < len(expected)
        hist = histogram(leading)
        for workers in (1, 2, 3, 4):
            for strategy in STRATEGIES:
                plan = make_plan(strategy, CFG.zone_count, workers, hist)
                pairs, rep = run_xmatch(leading, other, spec, plan)
                assert pairs == expected
                assert pairs.leading_ids.dtype == np.uint64
                if (strategy, workers) == ("contiguous", 2):
                    no_pairs = rep.workers[0]
                    assert no_pairs.elapsed_s > 0 and no_pairs.rows_returned == 0

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


class TestCallingThread:
    """The first busy worker runs in the calling thread and every other busy
    worker in a pool thread; results and per-worker stats do not depend on
    where a worker ran."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_xmatch(self, xmatch_pair, monkeypatch, workers, strategy):
        from zonequery import executor

        leading, other = xmatch_pair
        spec = MatchSpec(radius=ARCMIN)
        plan = make_plan(strategy, CFG.zone_count, workers, histogram(leading))
        shares = shares_reference(plan, leading.zone_starts, 0, CFG.zone_count - 1)
        counters = []
        for ranges in shares:
            if not ranges:
                counters.append((0, 0))
                continue
            a, _, _, candidates = queries._crossmatch_arrays(
                leading.ids, leading.ra, leading.dec, other, spec.radius, ranges=ranges
            )
            counters.append((candidates, len(a)))
        threads = {}
        real = executor._crossmatch_arrays

        def recording(*args, ranges, **kwargs):
            threads[tuple(ranges)] = threading.get_ident()
            return real(*args, ranges=ranges, **kwargs)

        monkeypatch.setattr(executor, "_crossmatch_arrays", recording)
        pairs, rep = run_xmatch(leading, other, spec, plan)
        busy = [w for w, ranges in enumerate(shares) if ranges]
        ran_in = [threads[tuple(shares[w])] for w in busy]
        assert len(threads) == len(busy) >= 1
        assert ran_in[0] == threading.get_ident()
        assert threading.get_ident() not in ran_in[1:]
        assert pairs == zone_crossmatch(list(leading.slices()), other, spec)
        assert [s.worker for s in rep.workers] == list(range(workers))
        assert [(s.rows_scanned, s.rows_returned) for s in rep.workers] == counters

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_cone(self, catalog, monkeypatch, workers, strategy):
        # dec 0 is zone 1350: a contiguous 4-worker plan has busy workers 1
        # and 2, and idle workers 0 and 3. A worker is busy when the cone's
        # search finds candidates in its zones, and only then runs
        # _cone_rows, which expands and filters them
        from zonequery import executor

        q = ConeQuery(SkyPoint(100.0, 0.0), 2.0)
        plan = make_plan(strategy, CFG.zone_count, workers, histogram(catalog))
        threads = []
        real = executor._cone_rows

        def recording(*args):
            threads.append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(executor, "_cone_rows", recording)
        _, rep, _ = assert_cone_equals_reference(catalog, q, plan)
        busy = [s.worker for s in rep.workers if s.rows_scanned]
        assert len(threads) == len(busy) >= 1
        # the calling thread runs first, so its call is recorded first unless
        # a pool thread got there sooner; either way it runs exactly one
        assert threads.count(threading.get_ident()) == 1
        idle = [s for s in rep.workers if s.worker not in busy]
        assert all(s == WorkerStats(s.worker, 0.0, 0.0, 0, 0) for s in idle)


class TestChunkedJoin:
    """The cross-match joins leading rows JOIN_CHUNK_ROWS at a time, each
    chunk against the zone-local slice of the other index; chunk boundaries
    fall anywhere in a worker's share, including across its row ranges."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["random", "polar", "wrap", "boundary"]),
        height=st.sampled_from([4 * ARCMIN, 0.5]),
        radius=st.floats(min_value=1.0 / 3600.0, max_value=MAX_MATCH_RADIUS_DEG),
        n_a=st.integers(0, 40),
        n_b=st.integers(0, 40),
        chunk=st.sampled_from([1, 3, 7]),
        workers=st.integers(1, 4),
        strategy=st.sampled_from(STRATEGIES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tiny_chunks_equal_oracle(
        self, kind, height, radius, n_a, n_b, chunk, workers, strategy, seed
    ):
        cfg = ZoneConfig(height)
        a, b = scenario_pair(np.random.default_rng(seed), kind, n_a, n_b, radius, cfg)
        plan = make_plan(strategy, cfg.zone_count, workers, histogram(a))
        spec = MatchSpec(radius=radius)
        whole, whole_rep = run_xmatch(a, b, spec, plan)  # one chunk per worker
        # leading rows out of zone order: each chunk's slice comes from its
        # own dec extremes, not from its first and last rows
        shuffled = np.random.default_rng(seed).permutation(n_a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(queries, "JOIN_CHUNK_ROWS", chunk)
            pairs, rep = run_xmatch(a, b, spec, plan)
            columns = (a.ids[shuffled], a.ra[shuffled], a.dec[shuffled])
            unordered = queries._crossmatch_arrays(*columns, b, radius)
        expected = brute_force_crossmatch(a, b, radius)
        assert pairs == expected
        assert pairs == whole
        assert match_table_reference(*unordered[:3]) == expected
        scanned = sum(s.rows_scanned for s in rep.workers)
        assert scanned == sum(s.rows_scanned for s in whole_rep.workers)

    def test_transient_memory_bounded_by_chunk(self):
        """tracemalloc peak of one run_xmatch above the two loaded indexes,
        two 2*10^5-row catalogs on two 4-degree dec stripes at 60 arcsec, one
        worker: 23.4 MiB when the join took the whole share at once, 7.9 MiB
        with 65,536-row chunks (numpy 2.4, 64-bit Linux). The bound sits
        between the two, so whole-share temporaries fail it."""
        stripes = Clustered((DecBand(-2.0, 2.0), DecBand(30.0, 34.0)))
        lead = generate_index(SyntheticSpec(200_000, stripes, seed=101), "lead")
        other = generate_index(SyntheticSpec(200_000, stripes, seed=202), "other")
        plan = plan_contiguous(CFG.zone_count, 1)
        tracemalloc.start()
        try:
            pairs, _ = run_xmatch(lead, other, MatchSpec(radius=ARCMIN), plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pairs) > 10_000
        assert peak < 12 * 2**20, f"transient {peak / 2**20:.1f} MiB"


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
        row = WorkerStats(0, 1.5, 0.5, 100, 10)
        mx, av = aggregate([row])
        assert (mx.elapsed_s, av.elapsed_s) == (1.5, 1.5)
        assert (mx.rows_scanned, av.rows_scanned) == (100, 100.0)

    def test_aggregate_max_and_mean_semantics(self):
        # eight workers whose elapsed max is 147 and mean is 113: the summary
        # rows must report exactly those two numbers
        elapsed = [147.0, 113.0, 113.0, 113.0, 113.0, 113.0, 113.0, 79.0]
        rows = [
            WorkerStats(w, e, e / 10, 1000 + w, 10 + w)
            for w, e in enumerate(elapsed)
        ]
        mx, av = aggregate(rows)
        assert mx.elapsed_s == 147.0
        assert av.elapsed_s == pytest.approx(113.0)
        assert mx.rows_scanned == 1007
        assert av.rows_scanned == pytest.approx(1003.5)

    def test_aggregate_all_zero(self):
        rows = [WorkerStats(w, 0.0, 0.0, 0, 0) for w in range(3)]
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

    def test_rows_and_reports_are_plain_tuples_by_value(self):
        row = WorkerStats(1, 0.5, 0.25, 40, 3)
        assert row == (1, 0.5, 0.25, 40, 3) and hash(row) == hash((1, 0.5, 0.25, 40, 3))
        worker, elapsed, cpu, scanned, returned = row
        assert (worker, scanned, returned) == (1, 40, 3)
        with pytest.raises(AttributeError):
            row.rows_scanned = 0
        rep = ExecutionReport((row,), 0.75)
        rows, total = rep
        assert rows == ((1, 0.5, 0.25, 40, 3),) and total == 0.75
        assert rep == (((1, 0.5, 0.25, 40, 3),), 0.75)
        assert (rep.max_row, rep.avg_row) == aggregate([row])
        assert rep.avg_row == ("AVG", 0.5, 0.25, 40.0, 3.0)

    def test_aggregate_of_mixed_rows(self):
        rows = [WorkerStats(0, 2.0, 1.0, 7, 1), WorkerStats(1, 0.0, 0.0, 0, 0),
                WorkerStats(2, 4.0, 0.5, 2, 2)]
        mx, av = aggregate(rows)
        assert mx == ("MAX", 4.0, 1.0, 7, 2)
        assert av == ("AVG", 2.0, 0.5, 3.0, 1.0)
        assert [type(v) for v in mx[3:]] == [int, int]
