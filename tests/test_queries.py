"""Scan, cone search, cross-match, and the brute-force oracle."""

from __future__ import annotations

import dataclasses
from collections import abc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonequery import (
    ConeQuery,
    MatchSpec,
    ScanFilter,
    SkyPoint,
    ZoneConfig,
    best_matches,
    brute_force_crossmatch,
    build_index,
    cone_search,
    scan_filter,
    zone_crossmatch,
    zone_of,
)
from zonequery.queries import MatchPair, MatchTable
from zonequery.executor import run_xmatch
from zonequery.partition import plan_contiguous
from zonequery.sphere import MIN_ZONE_HEIGHT_DEG, separation_deg

from conftest import (
    assert_same_pairs,
    best_matches_reference,
    pair_keys,
    random_sky,
    scenario_pair,
    scenario_positions,
)

CFG = ZoneConfig()
ARCSEC = 1.0 / 3600.0
ARCMIN = 1.0 / 60.0


def index_from(name, ra, dec, ids=None, mags=None, bands=(), cfg=CFG):
    ra = np.asarray(ra, dtype=float)
    dec = np.asarray(dec, dtype=float)
    if ids is None:
        ids = np.arange(len(ra), dtype=np.uint64)
    return build_index(name, cfg, np.asarray(ids, dtype=np.uint64), ra, dec, mags, bands)


class TestScanFilter:
    def make_catalog(self, n=4000, seed=40):
        rng = np.random.default_rng(seed)
        ra, dec = random_sky(rng, n)
        mags = rng.uniform(5.0, 15.0, (n, 1))
        mags[::13, 0] = np.nan  # missing magnitudes
        return index_from("scan", ra, dec, mags=mags, bands=("r",)), mags[:, 0]

    def test_excluding_range_is_empty(self):
        index, _ = self.make_catalog()
        assert scan_filter(list(index.slices()), ScanFilter("r", 99.0, 100.0)) == []

    def test_between_is_inclusive(self):
        index = index_from(
            "one", [10.0], [0.0], mags=np.array([[9.25]]), bands=("r",)
        )
        rows = scan_filter(list(index.slices()), ScanFilter("r", 9.25, 9.25))
        assert rows == [(0, 9.25)]

    def test_missing_magnitude_never_passes(self):
        index = index_from(
            "gap", [1.0, 2.0], [0.0, 0.0],
            mags=np.array([[np.nan], [9.0]]), bands=("r",),
        )
        rows = scan_filter(list(index.slices()), ScanFilter("r", -1e9, 1e9))
        assert rows == [(1, 9.0)]

    def test_unknown_band_rejected(self):
        index, _ = self.make_catalog(100)
        with pytest.raises(ValueError, match="unknown band"):
            scan_filter(list(index.slices()), ScanFilter("z", 0.0, 1.0))

    def test_against_linear_oracle_and_binomial(self):
        index, col = self.make_catalog(4000)
        rows = scan_filter(list(index.slices()), ScanFilter("r", 9.0, 10.0))
        # linear oracle straight over the input columns
        ids = np.arange(4000, dtype=np.uint64)
        keep = (col >= 9.0) & (col <= 10.0)
        oracle = sorted(zip(ids[keep].tolist(), col[keep].tolist()))
        assert rows == [(int(i), float(m)) for i, m in oracle]
        # uniform [5, 15]: a [9, 10] filter keeps ~1/10 of non-missing rows
        n_valid = int(np.isfinite(col).sum())
        expect = n_valid / 10
        sigma = (n_valid * 0.1 * 0.9) ** 0.5
        assert abs(len(rows) - expect) <= 3 * sigma

    def test_independent_of_slice_grouping(self):
        index, _ = self.make_catalog(3000, seed=41)
        slices = list(index.slices())
        whole = scan_filter(slices, ScanFilter("r", 8.0, 11.0))
        by_parts = []
        for s in slices:
            by_parts.extend(scan_filter([s], ScanFilter("r", 8.0, 11.0)))
        assert sorted(by_parts) == whole

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ScanFilter("r", 10.0, 9.0)


def brute_cone(index, q):
    sep = separation_deg(index.ra, index.dec, q.center.ra, q.center.dec)
    keep = sep <= q.radius
    return sorted(zip(index.ids[keep].tolist(), sep[keep].tolist()))


class TestConeSearch:
    def test_radius_zero_returns_coincident_only(self):
        ra = [10.0, 10.0, 10.000001, 200.0]
        dec = [5.0, 5.0, 5.0, -5.0]
        index = index_from("dup", ra, dec, ids=[7, 8, 9, 10])
        rows = cone_search(index, ConeQuery(SkyPoint(10.0, 5.0), 0.0))
        assert [(i, s) for i, s in rows] == [(7, 0.0), (8, 0.0)]

    def test_polar_cap_identity(self):
        rng = np.random.default_rng(42)
        ra = rng.uniform(0, 360, 3000)
        dec = rng.uniform(85.0, 90.0, 3000)
        index = index_from("polar", ra, dec)
        rows = cone_search(index, ConeQuery(SkyPoint(123.0, 90.0), 1.0))
        got = sorted(i for i, _ in rows)
        expected = sorted(np.nonzero(dec >= 89.0)[0].tolist())
        assert got == expected

    def test_cone_crossing_ra_wrap(self):
        ra = [359.95, 0.02, 1.0]
        dec = [0.0, 0.0, 0.0]
        index = index_from("wrap", ra, dec)
        rows = cone_search(index, ConeQuery(SkyPoint(0.0, 0.0), 0.1))
        assert [i for i, _ in rows] == [0, 1]

    def test_random_cones_match_bruteforce(self):
        rng = np.random.default_rng(43)
        ra, dec = random_sky(rng, 10_000)
        index = index_from("rand", ra, dec)
        for _ in range(30):
            center = SkyPoint(float(rng.uniform(0, 360)),
                              float(np.degrees(np.arcsin(rng.uniform(-1, 1)))))
            radius = float(rng.choice((ARCSEC, ARCMIN, 1.0)))
            q = ConeQuery(center, radius)
            got = cone_search(index, q)
            expected = brute_cone(index, q)
            assert [i for i, _ in got] == [i for i, _ in expected]
            assert np.allclose(
                [s for _, s in got], [s for _, s in expected], rtol=0, atol=1e-12
            )

    def test_cone_near_pole_with_clamped_window(self):
        rng = np.random.default_rng(44)
        ra, dec = random_sky(rng, 4000, 88.0, 90.0)
        index = index_from("cap", ra, dec)
        q = ConeQuery(SkyPoint(10.0, 89.5), 1.0)
        assert [i for i, _ in cone_search(index, q)] == [
            i for i, _ in brute_cone(index, q)
        ]


class TestZoneCrossmatch:
    def test_identical_single_object_catalogs(self):
        a = index_from("a", [100.0], [45.0])
        b = index_from("b", [100.0], [45.0])
        pairs = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCSEC))
        assert pairs == [MatchPair(0, 0, 0.0)]

    def test_equatorial_wrap_pair(self):
        a = index_from("a", [359.95], [0.0])
        b = index_from("b", [0.05], [0.0])
        pairs = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=0.2))
        assert len(pairs) == 1
        assert pairs[0].separation == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("radius", [ARCSEC, 10 * ARCSEC, ARCMIN, 0.5])
    def test_randomized_equals_bruteforce(self, radius):
        rng = np.random.default_rng(45)
        a, b = scenario_pair(rng, "random", 1000, 1000, radius, CFG)
        got = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=radius))
        expected = brute_force_crossmatch(a, b, radius)
        assert len(got) > 0
        assert got == expected  # same pairs, bitwise-same separations

    @pytest.mark.parametrize("kind", ["polar", "wrap", "boundary"])
    def test_stress_scenarios_equal_bruteforce(self, kind):
        rng = np.random.default_rng(46)
        for radius in (ARCSEC, ARCMIN, 0.5):
            a, b = scenario_pair(rng, kind, 600, 600, radius, CFG)
            got = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=radius))
            expected = brute_force_crossmatch(a, b, radius)
            assert_same_pairs(got, expected, sep_tol=1e-9)
            assert got == expected

    def test_pairs_unique(self):
        rng = np.random.default_rng(47)
        a, b = scenario_pair(rng, "wrap", 800, 800, ARCMIN, CFG)
        pairs = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCMIN))
        keys = [(p.leading_id, p.other_id) for p in pairs]
        assert len(keys) == len(set(keys))

    def test_leading_symmetry(self):
        rng = np.random.default_rng(48)
        a, b = scenario_pair(rng, "random", 700, 900, ARCMIN, CFG)
        ab = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCMIN))
        ba = zone_crossmatch(list(b.slices()), a, MatchSpec(radius=ARCMIN))
        assert pair_keys(ab) == {(o, l) for l, o in pair_keys(ba)}

    def test_candidate_stream_superset_of_true_pairs(self):
        rng = np.random.default_rng(49)
        a, b = scenario_pair(rng, "polar", 500, 500, 0.5, CFG)
        seen: set[tuple[int, int]] = set()
        got = zone_crossmatch(
            list(a.slices()),
            b,
            MatchSpec(radius=0.5),
            candidate_sink=lambda la, ob: seen.update(
                zip(la.tolist(), ob.tolist())
            ),
        )
        true_pairs = pair_keys(brute_force_crossmatch(a, b, 0.5))
        assert true_pairs <= seen
        assert pair_keys(got) == true_pairs

    def test_object_with_ra_one_ulp_below_360_is_found(self):
        # the composite sort key zone*512 + ra rounds this ra up to exactly
        # the zone band's end; the join must still find the pair
        ra_victim = float(np.nextafter(360.0, 0.0))
        a = index_from("a", [0.0], [0.01])
        b = index_from("b", [ra_victim], [0.01])
        assert b.ra_key[0] == zone_of(0.01, CFG) * 512.0 + 360.0
        got = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCMIN))
        assert got == brute_force_crossmatch(a, b, ARCMIN)
        assert len(got) == 1

    def test_one_arcsec_zones_complete_at_window_edge(self):
        # at the smallest zone height the key zone*512 + ra is largest and
        # rounds coarsest; companions due east or west at distance r sit at
        # the edge of their ra window, on the equator with almost no margin
        cfg = ZoneConfig(MIN_ZONE_HEIGHT_DEG)
        rng = np.random.default_rng(71)
        n = 1500
        ra, dec = random_sky(rng, n)
        dec[:300] = rng.uniform(-0.01, 0.01, 300)
        ra[:100] = rng.uniform(-0.01, 0.01, 100) % 360.0  # across 0/360
        dec[300:400] = rng.uniform(89.9, 90.0, 100) * rng.choice((-1.0, 1.0), 100)
        a = index_from("a", ra, dec, cfg=cfg)
        for radius in (ARCSEC, 10 * ARCSEC):
            # destination point at bearing 90 or 270 degrees, distance radius
            theta = rng.choice((0.5 * np.pi, 1.5 * np.pi), n)
            delta, phi1 = np.radians(radius), np.radians(dec)
            sin_phi2 = np.sin(phi1) * np.cos(delta) + np.cos(phi1) * np.sin(delta) * np.cos(theta)
            lam2 = np.radians(ra) + np.arctan2(
                np.sin(theta) * np.sin(delta) * np.cos(phi1),
                np.cos(delta) - np.sin(phi1) * sin_phi2,
            )
            ra2 = np.degrees(lam2) % 360.0
            ra2[ra2 >= 360.0] = 0.0
            dec2 = np.clip(np.degrees(np.arcsin(sin_phi2)), -90.0, 90.0)
            b = index_from("b", ra2, dec2, cfg=cfg)
            spec = MatchSpec(radius=radius)
            expected = brute_force_crossmatch(a, b, radius)
            assert len(expected) > n // 4
            assert zone_crossmatch(list(a.slices()), b, spec) == expected
            pairs, _ = run_xmatch(a, b, spec, plan_contiguous(cfg.zone_count, 2))
            assert pairs == expected

    def test_mismatched_zone_config_rejected(self):
        a = index_from("a", [1.0], [1.0])
        b = index_from("b", [1.0], [1.0], cfg=ZoneConfig(1.0))
        with pytest.raises(ValueError, match="zone configuration"):
            zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCSEC))

    def test_self_match_includes_identity_pairs(self):
        a = index_from("a", [10.0, 10.0, 50.0], [0.0, 0.0, 2.0], ids=[1, 2, 3])
        pairs = zone_crossmatch(list(a.slices()), a, MatchSpec(radius=ARCSEC))
        assert pair_keys(pairs) == {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}

    def test_empty_inputs(self):
        empty = index_from("e", [], [])
        full = index_from("f", [1.0], [1.0])
        spec = MatchSpec(radius=ARCSEC)
        assert zone_crossmatch(list(empty.slices()), full, spec) == []
        assert zone_crossmatch(list(full.slices()), empty, spec) == []

    def test_radius_cap_enforced(self):
        with pytest.raises(ValueError, match="match radius 11.0 above sanity cap 10.0"):
            MatchSpec(radius=11.0)
        assert MatchSpec(radius=10.0).radius == 10.0
        with pytest.raises(ValueError):
            MatchSpec(radius=0.0)


class TestBruteForce:
    def test_disjoint_hemispheres_empty(self):
        rng = np.random.default_rng(50)
        ra_n, dec_n = random_sky(rng, 300, 30.0, 90.0)
        ra_s, dec_s = random_sky(rng, 300, -90.0, -30.0)
        a = index_from("n", ra_n, dec_n)
        b = index_from("s", ra_s, dec_s)
        assert brute_force_crossmatch(a, b, ARCMIN) == []

    def test_self_match_radius_zero(self):
        # ids 1 and 2 share a position: self pairs plus the coincident pair
        a = index_from("a", [10.0, 10.0, 20.0], [0.0, 0.0, 0.0], ids=[1, 2, 3])
        pairs = brute_force_crossmatch(a, a, 0.0)
        assert pair_keys(pairs) == {(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)}
        assert all(p.separation == 0.0 for p in pairs)

    def test_size_guard(self):
        rng = np.random.default_rng(51)
        ra, dec = random_sky(rng, 10_001)
        a = index_from("a", ra, dec)
        with pytest.raises(ValueError, match="guard"):
            brute_force_crossmatch(a, a, ARCSEC)

    def test_agrees_with_zone_crossmatch_both_directions(self):
        rng = np.random.default_rng(52)
        a, b = scenario_pair(rng, "random", 400, 500, ARCMIN, CFG)
        assert brute_force_crossmatch(a, b, ARCMIN) == zone_crossmatch(
            list(a.slices()), b, MatchSpec(radius=ARCMIN)
        )
        assert brute_force_crossmatch(b, a, ARCMIN) == zone_crossmatch(
            list(b.slices()), a, MatchSpec(radius=ARCMIN)
        )


def table_of(rows):
    """A MatchTable of (leading_id, other_id, separation) rows, in any order."""
    lead, other, sep = zip(*rows) if rows else ((), (), ())
    return MatchTable.from_unsorted(
        np.array(lead, dtype=np.uint64),
        np.array(other, dtype=np.uint64),
        np.array(sep, dtype=np.float64),
    )


class TestMatchTable:
    ROWS = [(2, 1, 0.5), (1, 3, 0.25), (2**64 - 1, 0, 0.0), (1, 2, 0.125)]
    CANONICAL = [
        MatchPair(1, 2, 0.125),
        MatchPair(1, 3, 0.25),
        MatchPair(2, 1, 0.5),
        MatchPair(2**64 - 1, 0, 0.0),
    ]

    def test_canonical_order_and_indexing(self):
        t = table_of(self.ROWS)
        assert len(t) == 4
        assert [t[i] for i in range(4)] == self.CANONICAL
        assert t[-1] == MatchPair(2**64 - 1, 0, 0.0)
        with pytest.raises(IndexError):
            t[4]
        assert list(t) == self.CANONICAL
        assert list(reversed(t)) == self.CANONICAL[::-1]
        assert MatchPair(1, 3, 0.25) in t
        assert t.index(MatchPair(2, 1, 0.5)) == 2

    def test_elements_are_python_scalars(self):
        for p in (*table_of(self.ROWS), table_of(self.ROWS)[3]):
            assert type(p.leading_id) is int and type(p.other_id) is int
            assert type(p.separation) is float
        assert table_of(self.ROWS)[3].leading_id == 2**64 - 1

    def test_equality_against_tables_and_sequences(self):
        t = table_of(self.ROWS)
        assert t == table_of(self.ROWS[::-1])
        assert t == self.CANONICAL and self.CANONICAL == t
        assert t == tuple(self.CANONICAL)
        assert t != self.CANONICAL[:3]
        assert t != self.CANONICAL[::-1]
        assert t != table_of(self.ROWS[:3])
        assert t != table_of([(2, 1, 0.5), (1, 3, 0.25), (2**64 - 1, 0, 0.0), (1, 2, 0.1)])
        assert t != "1,2,0.125"
        assert table_of([]) == [] and [] == table_of([])
        assert isinstance(t, abc.Sequence)

    def test_unhashable_and_frozen(self):
        t = table_of(self.ROWS)
        with pytest.raises(TypeError):
            hash(t)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.separation = np.zeros(4)

    def test_take_keeps_order(self):
        t = table_of(self.ROWS)
        assert t.take(t.leading_ids != 1) == self.CANONICAL[2:]
        assert t.take(np.array([0, 3])) == [self.CANONICAL[0], self.CANONICAL[3]]


# few ids and separations, so duplicate separations (the tie rule) are common
_IDS = st.sampled_from([0, 1, 2, 3, 2**63, 2**64 - 1])
_SEPS = st.sampled_from([0.0, 1e-9, 2.5e-4, 0.01, 0.5]) | st.floats(0.0, 1.0)


class TestBestMatches:
    @given(st.lists(st.tuples(_IDS, _IDS, _SEPS), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_columnar_equals_dict_loop(self, rows):
        pairs = [MatchPair(*r) for r in rows]
        expected = best_matches_reference(pairs)
        got = best_matches(pairs)
        assert isinstance(got, MatchTable)
        assert got == expected
        assert best_matches(table_of(rows)) == expected


    def test_keeps_minimum_separation_with_id_tiebreak(self):
        pairs = [
            MatchPair(1, 5, 0.002),
            MatchPair(1, 3, 0.001),
            MatchPair(1, 9, 0.001),
            MatchPair(2, 7, 0.004),
        ]
        assert best_matches(pairs) == [MatchPair(1, 3, 0.001), MatchPair(2, 7, 0.004)]

    def test_empty(self):
        assert best_matches([]) == []

    def test_subset_of_all_pairs(self):
        rng = np.random.default_rng(53)
        a, b = scenario_pair(rng, "random", 500, 500, ARCMIN, CFG)
        pairs = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=ARCMIN))
        best = best_matches(pairs)
        assert set(best) <= set(pairs)
        assert len({p.leading_id for p in best}) == len(best)


class TestBoundaryDecs:
    def test_objects_exactly_on_zone_boundaries(self):
        rng = np.random.default_rng(54)
        ra, dec = scenario_positions(rng, "boundary", 800, CFG)
        a = index_from("a", ra, dec)
        # companions of the same boundary-heavy population
        ra2, dec2 = scenario_positions(rng, "boundary", 800, CFG)
        b = index_from("b", ra2, dec2)
        for radius in (ARCSEC, ARCMIN):
            got = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=radius))
            assert got == brute_force_crossmatch(a, b, radius)
