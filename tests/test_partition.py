"""Zone assignment strategies and the workload report."""

from __future__ import annotations

import numpy as np
import pytest

from zonequery import (
    ZoneConfig,
    ZoneHistogram,
    make_plan,
    plan_contiguous,
    plan_density,
    plan_round_robin,
    report,
)

ZC = ZoneConfig().zone_count  # 2700


def hist_of(counts) -> ZoneHistogram:
    return ZoneHistogram(np.asarray(counts, dtype=np.int64))


class TestContiguous:
    def test_2700_zones_8_workers(self):
        plan = plan_contiguous(ZC, 8)
        sizes = [len(plan.zones_of(w)) for w in range(8)]
        assert sorted(set(sizes)) == [337, 338]
        assert plan.zones_of(0).tolist() == list(range(0, 338))
        assert max(sizes) - min(sizes) <= 1

    def test_single_worker_takes_all(self):
        plan = plan_contiguous(ZC, 1)
        assert len(plan.zones_of(0)) == ZC

    def test_five_zones_two_workers(self):
        plan = plan_contiguous(5, 2)
        assert [len(plan.zones_of(w)) for w in range(2)] == [3, 2]

    def test_runs_are_contiguous(self):
        plan = plan_contiguous(100, 7)
        runs = plan.runs()
        assert [w for _, _, w in runs] == list(range(7))


class TestRoundRobin:
    def test_four_zones_two_workers(self):
        assert plan_round_robin(4, 2).assignment.tolist() == [0, 1, 0, 1]

    def test_single_worker(self):
        assert set(plan_round_robin(50, 1).assignment.tolist()) == {0}

    def test_2700_zones_8_workers_sizes(self):
        plan = plan_round_robin(ZC, 8)
        sizes = [len(plan.zones_of(w)) for w in range(8)]
        assert sorted(set(sizes)) == [337, 338]


class TestDensity:
    def test_one_heavy_zone_vs_ten_light(self):
        counts = np.zeros(11, dtype=int)
        counts[0] = 10
        counts[1:] = 1
        plan = plan_density(hist_of(counts), 2)
        rep = report(plan, hist_of(counts))
        assert sorted(rep.counts) == [10, 10]
        assert rep.imbalance == 1.0
        # the heavy zone sits alone on one worker
        heavy_worker = plan.assignment[0]
        assert len(plan.zones_of(int(heavy_worker))) == 1

    def test_uniform_histogram_not_worse_than_contiguous(self):
        counts = np.full(ZC, 5, dtype=int)
        h = hist_of(counts)
        for workers in (2, 3, 7, 8):
            d = report(plan_density(h, workers), h).imbalance
            c = report(plan_contiguous(ZC, workers), h).imbalance
            assert d <= c

    def test_clustered_footprint_beats_contiguous(self):
        # two narrow stripes: one straddling the middle split, one off-center
        counts = np.zeros(ZC, dtype=int)
        counts[1320:1380] = 800
        counts[1800:1860] = 800
        h = hist_of(counts)
        density_imb = report(plan_density(h, 4), h).imbalance
        contiguous_imb = report(plan_contiguous(ZC, 4), h).imbalance
        assert density_imb <= 1.1
        assert contiguous_imb > 1.5

    def test_lpt_not_worse_than_round_robin_on_100_random_histograms(self):
        rng = np.random.default_rng(30)
        failures = []
        for trial in range(100):
            n_zones = int(rng.integers(8, 300))
            workers = int(rng.integers(2, 9))
            counts = np.rint(rng.pareto(1.2, n_zones) * 50).astype(int)
            h = hist_of(counts)
            lpt = report(plan_density(h, workers), h).imbalance
            rr = report(plan_round_robin(n_zones, workers), h).imbalance
            if lpt > rr + 1e-12:
                failures.append((trial, lpt, rr))
        assert failures == []


class TestPlanInvariants:
    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "density"])
    def test_totality_every_zone_exactly_once(self, strategy):
        rng = np.random.default_rng(31)
        counts = rng.integers(0, 100, 200)
        for workers in range(1, 17):
            plan = make_plan(strategy, 200, workers, hist_of(counts))
            seen = np.concatenate([plan.zones_of(w) for w in range(workers)])
            assert sorted(seen.tolist()) == list(range(200))
            assert plan.assignment.min() >= 0
            assert plan.assignment.max() < workers

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "density"])
    def test_determinism(self, strategy):
        rng = np.random.default_rng(32)
        counts = rng.integers(0, 1000, ZC)
        a = make_plan(strategy, ZC, 8, hist_of(counts))
        b = make_plan(strategy, ZC, 8, hist_of(counts.copy()))
        assert a == b

    @pytest.mark.parametrize("strategy", ["contiguous", "round_robin", "density"])
    def test_runs_match_zone_by_zone_encoding(self, strategy):
        def loop_runs(a, lo, hi):
            out = []
            start = lo
            for z in range(lo + 1, hi + 1):
                if z == hi or a[z] != a[start]:
                    out.append((start, z, int(a[start])))
                    start = z
            return out

        rng = np.random.default_rng(33)
        counts = rng.integers(0, 50, 300)
        for workers in (1, 2, 3, 8):
            plan = make_plan(strategy, 300, workers, hist_of(counts))
            assert plan.runs() == loop_runs(plan.assignment, 0, 300)
            for _ in range(20):
                lo, hi = sorted(rng.integers(0, 301, 2).tolist())
                assert plan.runs(lo, hi) == loop_runs(plan.assignment, lo, hi)

    def test_worker_count_below_one_rejected(self):
        for fn in (lambda: plan_contiguous(10, 0),
                   lambda: plan_round_robin(10, 0),
                   lambda: plan_density(hist_of([1] * 10), 0)):
            with pytest.raises(ValueError):
                fn()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            make_plan("fancy", 10, 2)

    def test_density_requires_histogram(self):
        with pytest.raises(ValueError, match="histogram"):
            make_plan("density", 10, 2)


class TestReport:
    def test_empty_histogram(self):
        rep = report(plan_contiguous(10, 4), hist_of([0] * 10))
        assert rep.counts == (0, 0, 0, 0)
        assert rep.max_count == 0
        assert rep.imbalance == 1.0

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(34)
        counts = rng.integers(0, 100, ZC)
        h = hist_of(counts)
        rep = report(plan_round_robin(ZC, 6), h)
        assert sum(rep.counts) == h.total_count

    def test_clustered_contiguous_shows_material_skew(self):
        counts = np.zeros(ZC, dtype=int)
        counts[1320:1380] = 500   # stripe straddling the 1350 split
        counts[1800:1860] = 500
        rep = report(plan_contiguous(ZC, 4), hist_of(counts))
        assert rep.imbalance > 1.5
        assert rep.max_count == max(rep.counts)

    def test_zone_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="zones"):
            report(plan_contiguous(10, 2), hist_of([1] * 11))

    def test_text_and_json_forms(self):
        rep = report(plan_contiguous(10, 2), hist_of([3] * 10))
        text = rep.to_text()
        assert "MAX" in text and "AVG" in text and "imbalance" in text
        import json

        parsed = json.loads(rep.to_json())
        assert parsed["counts"] == [15, 15]
        assert parsed["imbalance"] == 1.0
