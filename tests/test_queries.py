"""Scan, cone search, cross-match, and the brute-force oracle."""

from __future__ import annotations

import dataclasses
from collections import abc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    histogram,
    make_plan,
    run_scan,
    zone_crossmatch,
    zone_of,
)
from zonequery import queries
from zonequery.catalog import KEY_BAND
from zonequery.queries import MatchPair, MatchTable, _zone_join
from zonequery.executor import run_cone, run_xmatch
from zonequery.partition import plan_contiguous
from zonequery.sphere import (
    MIN_ZONE_HEIGHT_DEG,
    ra_halfwidth,
    ra_halfwidth_array,
    separation_deg,
    zone_of_array,
)

from conftest import (
    assert_same_pairs,
    best_matches_reference,
    match_table_reference,
    offset_points,
    zone_join_reference,
    pair_keys,
    random_sky,
    scan_reference,
    scenario_pair,
    scenario_positions,
    separation_reference,
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


def scan_plans(index):
    """Plans of 1, 2 and 4 workers under every strategy."""
    hist = histogram(index)
    for workers in (1, 2, 4):
        for strategy in ("contiguous", "round_robin", "density"):
            yield make_plan(strategy, index.cfg.zone_count, workers, hist)


def scan_rows(index, f):
    """The rows of ``run_scan``, checked to equal the NumPy reference under
    every plan of :func:`scan_plans`."""
    expected = scan_reference(index, f)
    for plan in scan_plans(index):
        rows, _ = run_scan(index, f, plan)
        assert rows == expected, (plan.strategy, plan.worker_count)
    return expected


class TestScanFilter:
    def make_catalog(self, n=4000, seed=40):
        rng = np.random.default_rng(seed)
        ra, dec = random_sky(rng, n)
        mags = rng.uniform(5.0, 15.0, (n, 1))
        mags[::13, 0] = np.nan  # missing magnitudes
        return index_from("scan", ra, dec, mags=mags, bands=("r",)), mags[:, 0]

    def test_excluding_range_is_empty(self):
        index, _ = self.make_catalog()
        assert scan_rows(index, ScanFilter("r", 99.0, 100.0)) == []

    def test_between_is_inclusive(self):
        index = index_from(
            "one", [10.0], [0.0], mags=np.array([[9.25]]), bands=("r",)
        )
        assert scan_rows(index, ScanFilter("r", 9.25, 9.25)) == [(0, 9.25)]

    def test_missing_magnitude_never_passes(self):
        index = index_from(
            "gap", [1.0, 2.0], [0.0, 0.0],
            mags=np.array([[np.nan], [9.0]]), bands=("r",),
        )
        assert scan_rows(index, ScanFilter("r", -1e9, 1e9)) == [(1, 9.0)]

    def test_all_pass(self):
        index, col = self.make_catalog(1000, seed=42)
        rows = scan_rows(index, ScanFilter("r", 5.0, 15.0))
        assert len(rows) == int(np.isfinite(col).sum())

    def test_unknown_band_rejected(self):
        index, _ = self.make_catalog(100)
        for plan in scan_plans(index):
            with pytest.raises(ValueError, match="unknown band"):
                run_scan(index, ScanFilter("z", 0.0, 1.0), plan)

    def test_against_linear_oracle_and_binomial(self):
        index, col = self.make_catalog(4000)
        rows = scan_rows(index, ScanFilter("r", 9.0, 10.0))
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

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ScanFilter("r", 10.0, 9.0)

    @pytest.mark.parametrize("lo, hi, named", [(np.nan, 5.0, "lo"), (5.0, np.nan, "hi")])
    def test_nan_bound_named(self, lo, hi, named):
        with pytest.raises(ValueError, match=f"^{named} nan is not a number$"):
            ScanFilter("r", lo, hi)


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

    def test_near_antipodal_cone_follows_vector_oracle(self):
        """A cone of radius 179.9999977 deg over 4,000 points within 4.6e-6
        deg of its antipode, so its edge, 2.3e-6 deg from the antipode,
        runs through them: the rows and their separations are those of
        ``conftest.separation_reference``, but for points within 1e-12 deg
        of the edge, and so are a 2-worker ``run_cone``'s."""
        rng = np.random.default_rng(45)
        n = 4000
        ra0, dec0, radius = 10.0, 20.0, 179.9999977
        gap = 4.6e-6 * np.sqrt(rng.uniform(0.0, 1.0, n))  # uniform in area
        theta = rng.uniform(0.0, 2 * np.pi, n)
        dec = -dec0 + gap * np.cos(theta)
        ra = ra0 + 180.0 + gap * np.sin(theta) / np.cos(np.radians(dec))
        index = index_from("antipode", ra, dec)
        oracle = [separation_reference(ra0, dec0, a, d)
                  for a, d in zip(index.ra.tolist(), index.dec.tolist())]
        clear = [abs(sep - radius) > 1e-12 for sep in oracle]
        q = ConeQuery(SkyPoint(ra0, dec0), radius)
        rows = cone_search(index, q)
        assert run_cone(index, q, plan_contiguous(CFG.zone_count, 2))[0] == rows
        got = dict(rows)
        ids = index.ids.tolist()
        inside = [i for i, sep, c in zip(ids, oracle, clear) if c and sep <= radius]
        assert 1000 < len(inside) < n - 1000
        assert [i for i, c in zip(ids, clear) if c and i in got] == inside
        assert max(abs(got[i] - oracle[k]) for k, i in enumerate(ids) if i in got) <= 1e-12

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
        queries._crossmatch_arrays(
            a.ids, a.ra, a.dec, b, 0.5,
            candidate_sink=lambda la, ob: seen.update(zip(la.tolist(), ob.tolist())),
        )
        got = zone_crossmatch(list(a.slices()), b, MatchSpec(radius=0.5))
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


def columns_of(rows):
    """(leading_ids, other_ids, separation) arrays of (leading_id, other_id,
    separation) rows."""
    lead, other, sep = zip(*rows) if rows else ((), (), ())
    return (
        np.array(lead, dtype=np.uint64),
        np.array(other, dtype=np.uint64),
        np.array(sep, dtype=np.float64),
    )


def table_of(rows):
    """A MatchTable of (leading_id, other_id, separation) rows, in any order,
    sorted by the lexsort reference rather than the code under test."""
    return match_table_reference(*columns_of(rows))


# ids at the edges of the uint64 range and of the sort key's 32-bit halves
_EDGE_IDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1])


class TestFromUnsorted:
    """The one-key sort of ``MatchTable.from_unsorted`` orders distinct pairs
    exactly as a two-key lexsort does."""

    @given(
        st.lists(
            st.tuples(_EDGE_IDS | st.integers(0, 2**64 - 1), _EDGE_IDS, st.floats(0.0, 1.0)),
            unique_by=lambda row: row[:2],
            max_size=80,
        )
    )
    @example([])
    @example([(2**64 - 1, 2**32, 0.5)])
    # every leading id with every other id, out of order
    @example([(a, b, 0.0) for b in (3, 2**64 - 1, 2**32) for a in (7, 2**32, 0)][::-1])
    @settings(max_examples=300, deadline=None)
    def test_equals_lexsort(self, rows):
        columns = columns_of(rows)
        got = MatchTable.from_unsorted(*columns)
        expected = match_table_reference(*columns)
        for mine, theirs in zip(dataclasses.astuple(got), dataclasses.astuple(expected)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    def test_more_pairs_than_16_bits_hold(self):
        # ranks and positions above 2**18: a low half of 16 bits would spill
        # positions into the ranks
        rng = np.random.default_rng(7)
        n = 300_000
        pairs = np.unique(rng.integers(0, 2**18, (n, 2), dtype=np.uint64), axis=0)
        pairs = pairs[rng.permutation(len(pairs))] << np.uint64(40)
        columns = (pairs[:, 0].copy(), pairs[:, 1].copy(), rng.uniform(0.0, 1.0, len(pairs)))
        assert MatchTable.from_unsorted(*columns) == match_table_reference(*columns)

    def test_refuses_more_pairs_than_the_key_holds(self):
        # broadcast views: 2**32 rows without the memory
        huge = np.broadcast_to(np.uint64(0), (2**32,))
        with pytest.raises(ValueError, match="2\\*\\*32"):
            MatchTable.from_unsorted(huge, huge, np.broadcast_to(0.0, (2**32,)))


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
        expected = best_matches_reference([MatchPair(*r) for r in rows])
        got = best_matches(table_of(rows))
        assert isinstance(got, MatchTable)
        assert got == expected


    def test_keeps_minimum_separation_with_id_tiebreak(self):
        pairs = table_of([(1, 5, 0.002), (1, 3, 0.001), (1, 9, 0.001), (2, 7, 0.004)])
        assert best_matches(pairs) == [MatchPair(1, 3, 0.001), MatchPair(2, 7, 0.004)]

    def test_empty(self):
        assert best_matches(table_of([])) == []

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


class TestDecPreTest:
    """The |delta dec| test before the haversine must not move the inclusive
    sep <= r boundary: same-ra pairs whose |delta dec| is r exactly, or one
    ulp either side, are kept or dropped exactly as the oracle says."""

    @staticmethod
    def rounding_offset(dec0):
        """A dec offset at which a same-ra pair's haversine rounds below its
        float |delta dec|: with r the haversine, the oracle keeps the pair
        and only the pad keeps the pre-test from dropping it."""
        for r0 in np.linspace(0.01, 1.0, 400):
            d1 = dec0 - r0 if dec0 > 0 else dec0 + r0
            if separation_deg(0.0, dec0, 0.0, d1) < abs(d1 - dec0):
                return float(r0)
        raise AssertionError(f"no rounding case near dec {dec0}")

    @pytest.mark.parametrize("dec0", [0.0, 45.0, -45.0, 89.9, -89.9])
    def test_boundary_pairs_follow_oracle(self, dec0):
        kept = dropped = 0
        for r0 in (ARCSEC, ARCMIN, 0.05, 0.5, self.rounding_offset(dec0)):
            for sign in (1.0, -1.0):
                d1 = dec0 + sign * r0
                if not -90.0 <= d1 <= 90.0:
                    continue
                decs = [np.nextafter(d1, -np.inf), d1, np.nextafter(d1, np.inf)]
                a = index_from("a", [123.25], [dec0])
                b = index_from("b", [123.25] * 3, decs)
                # r is the middle companion's float |delta dec|, which the
                # pre-test sees, or its haversine, which the oracle sees
                sep = float(separation_deg(123.25, dec0, 123.25, d1))
                for r in {abs(d1 - dec0), sep}:
                    expected = brute_force_crossmatch(a, b, r)
                    assert zone_crossmatch(list(a.slices()), b, MatchSpec(radius=r)) == expected
                    q = ConeQuery(SkyPoint(123.25, dec0), r)
                    assert cone_search(b, q) == brute_cone(b, q)
                    kept += len(expected)
                    dropped += 3 - len(expected)
        # the cases straddle the boundary rather than sit on one side of it
        assert kept > 0 and dropped > 0


def _join_outputs(join, lead_ra, lead_dec, radius, index):
    stream = []
    out = join(
        lead_ra, lead_dec, radius, index.ra_key, index.ra, index.dec, index.cfg,
        lambda li, ci: stream.append((li.copy(), ci.copy())),
    )
    return out, stream


class TestOnePassJoin:
    """``_zone_join`` builds every (zone offset, window segment, leading row)
    needle up front and searches them in one pass; outputs, candidate counts
    and the candidate stream, order included, equal the per-offset loop it
    replaced (``conftest.zone_join_reference``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "polar", "wrap", "boundary"]),
        height=st.sampled_from([ARCSEC, 4 * ARCMIN, 0.5]),
        radius=st.one_of(
            st.sampled_from([0.0, 180.0]),
            st.floats(min_value=ARCSEC, max_value=2.0),
            st.floats(min_value=ARCSEC, max_value=90.0),
        ),
        n_lead=st.sampled_from([1, 1, 2, 7, 40]),
        n_other=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_offset_reference(self, kind, height, radius, n_lead, n_other, seed):
        if height == ARCSEC:
            # the reference makes 16 array calls per zone offset: keep 1"
            # zones to radii of a few hundred offsets
            radius = min(radius, 0.05)
        cfg = ZoneConfig(height)
        rng = np.random.default_rng(seed)
        lead_ra, lead_dec = scenario_positions(rng, kind, n_lead, cfg)
        ra, dec = scenario_positions(rng, kind, n_other, cfg)
        index = index_from("other", ra, dec, cfg=cfg)
        got, got_stream = _join_outputs(_zone_join, lead_ra, lead_dec, radius, index)
        ref, ref_stream = _join_outputs(zone_join_reference, lead_ra, lead_dec, radius, index)
        for mine, theirs in zip(got[:3], ref[:3]):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
        assert got[3] == ref[3]
        assert len(got_stream) == len(ref_stream) == (n_other > 0)
        for mine, theirs in zip(got_stream[:1], ref_stream[:1]):
            assert all(np.array_equal(m, t) for m, t in zip(mine, theirs))

    @pytest.mark.parametrize("dec0", [-90.0, -45.0, 0.0, 89.99, 90.0])
    @pytest.mark.parametrize("ra0", [0.0, 180.0, 359.9999])
    def test_full_circle_cones(self, ra0, dec0):
        """Radius 180 at 0.5 degree zones: every zone, one full-circle
        segment, every row a candidate."""
        cfg = ZoneConfig(0.5)
        ra, dec = random_sky(np.random.default_rng(5), 500)
        index = index_from("sky", ra, dec, cfg=cfg)
        lead = (np.array([ra0]), np.array([dec0]))
        got, got_stream = _join_outputs(_zone_join, *lead, 180.0, index)
        ref, ref_stream = _join_outputs(zone_join_reference, *lead, 180.0, index)
        assert got[3] == ref[3] == 500
        assert all(np.array_equal(m, t) for m, t in zip(got[:3], ref[:3]))
        assert all(np.array_equal(m, t) for m, t in zip(got_stream[0], ref_stream[0]))

    @pytest.mark.parametrize(
        "height, radius",
        [
            (ARCSEC, 0.0),
            (ARCSEC, 0.5 * ARCSEC),
            (ARCSEC, ARCSEC),
            (ARCSEC, 7.5 * ARCSEC),
            (ARCSEC, 0.02),
            (4 * ARCMIN, 0.0),
            (4 * ARCMIN, 4 * ARCMIN),
            (4 * ARCMIN, 1.0),
            (0.5, 0.0),
            (0.5, 180.0),
        ],
    )
    def test_own_zone_edges(self, height, radius):
        """Leading rows at the poles (own zone clamped), exactly on zone
        edges and one ulp either side, with radii of zero, of under, at and
        above the zone height, and of 180 degrees."""
        cfg = ZoneConfig(height)
        rng = np.random.default_rng(9)
        edges = np.array([1, 2, cfg.zone_count // 2, cfg.zone_count - 1]) * height - 90.0
        lead_dec = np.concatenate(
            ([-90.0, 90.0], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf))
        )
        lead_ra = rng.uniform(0.0, 360.0, len(lead_dec))
        # other rows: copies of the leading rows, rows around them, and rows
        # on the same zone edges
        near_ra, near_dec = offset_points(
            rng, np.repeat(lead_ra, 20), np.repeat(lead_dec, 20), 1.5 * max(radius, ARCSEC)
        )
        ra = np.concatenate((lead_ra, near_ra, rng.uniform(0.0, 360.0, len(edges))))
        dec = np.concatenate((lead_dec, near_dec, edges))
        index = index_from("other", ra, dec, cfg=cfg)
        got, got_stream = _join_outputs(_zone_join, lead_ra, lead_dec, radius, index)
        ref, ref_stream = _join_outputs(zone_join_reference, lead_ra, lead_dec, radius, index)
        assert got[3] == ref[3] > 0
        assert all(np.array_equal(m, t) for m, t in zip(got[:3], ref[:3]))
        assert all(np.array_equal(m, t) for m, t in zip(got_stream[0], ref_stream[0]))

    def test_passes_split_at_chunk_rows(self, monkeypatch):
        """A join with more needles than JOIN_CHUNK_ROWS takes several
        passes, and their concatenation is the one-pass stream."""
        cfg = ZoneConfig(ARCSEC)
        rng = np.random.default_rng(6)
        # rows around the leading points, across the 0/360 wrap
        ra = rng.uniform(-0.1, 0.1, 2000) + rng.choice([0.0, 10.0], 2000)
        ra, dec = ra % 360.0, rng.uniform(-0.1, 0.1, 2000)
        index = index_from("patch", ra, dec, cfg=cfg)
        lead = (np.array([10.0, 359.999, 0.001]), np.array([0.0, 0.01, -0.02]))
        whole, whole_stream = _join_outputs(_zone_join, *lead, 0.05, index)
        monkeypatch.setattr(queries, "JOIN_CHUNK_ROWS", 7)
        split, split_stream = _join_outputs(_zone_join, *lead, 0.05, index)
        ref, ref_stream = _join_outputs(zone_join_reference, *lead, 0.05, index)
        for got, stream in ((whole, whole_stream), (split, split_stream)):
            assert got[3] == ref[3] > 0
            assert all(np.array_equal(m, t) for m, t in zip(got[:3], ref[:3]))
            assert all(np.array_equal(m, t) for m, t in zip(stream[0], ref_stream[0]))


_ULP_BELOW_360 = float(np.nextafter(360.0, 0.0))


@st.composite
def _cones(draw):
    """(ra, dec, radius) of a cone: ra 0 and 360 - ulp, dec at the poles,
    radius 0 and 180, and radii putting |dec| + r just below, at and just
    above 90 (the half-width's switch to the full circle)."""
    ra = draw(st.sampled_from([0.0, _ULP_BELOW_360, 180.0]) | st.floats(0.0, _ULP_BELOW_360))
    dec = draw(st.sampled_from([-90.0, 90.0, 0.0]) | st.floats(-90.0, 90.0))
    if draw(st.booleans()):
        radius = 90.0 - abs(dec)
        steps = draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            radius = float(np.nextafter(radius, np.inf if steps > 0 else -np.inf))
        radius = min(max(radius, 0.0), 180.0)
    else:
        radius = draw(st.sampled_from([0.0, 180.0]) | st.floats(0.0, 2.0) | st.floats(0.0, 180.0))
    return ra, dec, radius


class TestConeGeometry:
    """A cone's needles are built from scalars (``queries._cone_needles``),
    the scalar twin of the geometry ``_zone_join`` computes per row with
    array calls. For one row the two must be equal to the last bit: the zone
    band, the half-width and the needles, whose key ranges hold the window
    segments. ``math.cos`` and ``np.cos`` agree bit for bit with numpy 2.x on
    x86-64 (checked on 2*10^6 values), so equality is exact; on a platform
    where they differ, a half-width within 4 ulp is enough, because the
    1e-7 degree WINDOW_PAD_DEG absorbs it."""

    @settings(max_examples=300, deadline=None)
    @given(cone=_cones(), height=st.sampled_from([ARCSEC, 4 * ARCMIN, 0.5, 7.0]))
    def test_scalar_geometry_equals_join_arrays(self, cone, height):
        _needles_equal_join(*cone, ZoneConfig(height))

    @pytest.mark.parametrize(
        "ra, dec, radius, zones, wrap",
        [
            (123.4, 10.01, 1.0, 31, None),  # many zones: zone(9.01)..zone(11.01)
            (40.0, 89.5, 0.6, 17, "full"),  # full circle, over the north pole
            (300.0, -89.95, 0.1, 3, "full"),  # full circle, over the south pole
            (0.001, 0.03, 0.01, 1, "at 0"),
            (359.999, 0.03, 0.01, 1, "at 360"),
            (_ULP_BELOW_360, 45.01, 1.0, 31, "at 360"),
        ],
    )
    def test_fixed_windows(self, ra, dec, radius, zones, wrap):
        """Cones at 4' zones whose needles take the less common shapes: a
        band of 31 zones, a full-circle window near either pole, and
        windows wrapping at 0 and at 360, each equal to the join's."""
        band, lo, hi = _needles_equal_join(ra, dec, radius, CFG)
        assert band[1] - band[0] + 1 == zones
        # each zone's key band: zone * KEY_BAND plus the segment bounds
        bases = np.arange(band[0], band[1] + 1, dtype=np.float64) * KEY_BAND
        segments = {None: 1, "full": 1, "at 0": 2, "at 360": 2}[wrap]
        assert len(lo) == zones * segments
        firsts, seconds = slice(0, None, segments), slice(1, None, segments)
        if wrap == "full":
            assert np.array_equal(lo, bases) and np.array_equal(hi, bases + 360.0)
        elif wrap == "at 0":  # [0, w_hi), then [w_lo + 360, 360)
            assert np.array_equal(lo[firsts], bases)
            assert np.array_equal(hi[seconds], bases + 360.0)
        elif wrap == "at 360":  # [w_lo, 360), then [0, w_hi - 360)
            assert np.array_equal(hi[firsts], bases + 360.0)
            assert np.array_equal(lo[seconds], bases)
        else:
            assert np.all((lo > bases) & (hi < bases + 360.0))


def _needles_equal_join(ra, dec, radius, cfg):
    """Assert that ``queries._cone_needles``, built from Python floats,
    gives the zone band, the half-width and the needles' key ranges (dtypes
    included) of a one-row ``_zone_join``, bit for bit, whose needles all
    belong to its row 0; returns (band, lo, hi)."""
    q = ConeQuery(SkyPoint(ra, dec), radius)
    band, lo, hi = queries._cone_needles(q, cfg)
    reach = zone_of_array(np.array([dec - radius, dec + radius]), cfg)
    assert band == tuple(reach.tolist())
    assert ra_halfwidth(radius, dec) == ra_halfwidth_array(radius, np.array([dec]))[0]
    # the needles the one-row join searches, caught on their way in
    index = index_from("one", [ra], [dec], cfg=cfg)
    seen = []
    expand = queries._expand

    def spy(key, *needles):
        seen.append([n.copy() for n in needles])
        return expand(key, *needles)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(queries, "_expand", spy)
        _zone_join(np.array([ra]), np.array([dec]), radius, index.ra_key,
                   index.ra, index.dec, cfg)
    obj, *join_ranges = (np.concatenate(c) for c in zip(*seen))
    assert obj.dtype == np.intp and not obj.any()
    for mine, join in zip((lo, hi), join_ranges):
        assert mine.dtype == join.dtype
        assert np.array_equal(mine, join)
    segments = len(queries._window_segments(
        np.array([ra]), ra_halfwidth_array(radius, np.array([dec]))
    )[0])
    assert len(lo) == (band[1] - band[0] + 1) * segments
    return band, lo, hi


class TestEarlyExits:
    """A search that counts no row returns typed empty arrays at once, and
    so does everything downstream of it: the outputs are those of the full
    path."""

    def test_expand_finds_no_row(self):
        index = index_from("two", [10.0, 200.0], [0.0, 30.0])
        z = zone_of(0.0, CFG)
        gap = float(z) * KEY_BAND + 400.0  # past zone z's keys, before zone z + 1's
        inside = float(z) * KEY_BAND + 100.0  # in zone z's keys, away from its row
        obj = np.array([0, 1, 2], dtype=np.intp)
        lo = np.array([gap, gap + 50.0, inside])
        for key in (index.ra_key, index.ra_key[:0]):
            li, ci = queries._expand(key, obj, lo, lo + 10.0)
            assert li.dtype == ci.dtype == np.intp
            assert li.shape == ci.shape == (0,)

    def test_by_id_of_no_rows(self):
        got = queries._by_id(np.empty(0, dtype=np.uint64), np.empty(0))
        assert type(got) is list and got == []

    def test_by_id_of_one_and_several_rows(self):
        one = queries._by_id(np.array([7], dtype=np.uint64), np.array([0.5]))
        assert one == [(7, 0.5)] and all(type(i) is int and type(v) is float for i, v in one)
        ids = np.array([9, 2, 5], dtype=np.uint64)
        assert queries._by_id(ids, np.array([0.9, 0.2, 0.5])) == [(2, 0.2), (5, 0.5), (9, 0.9)]

    @pytest.mark.parametrize("chunk_rows", [None, 3])
    def test_join_without_candidates_equals_reference(self, monkeypatch, chunk_rows):
        """Leading rows whose zones hold other rows, but whose windows find
        none, in one pass and in several."""
        rng = np.random.default_rng(12)
        ra, dec = rng.uniform(100.0, 101.0, 400), rng.uniform(-1.0, 1.0, 400)
        index = index_from("patch", ra, dec)
        lead = (np.array([200.0, 300.0, 0.0, 359.99]), np.array([0.5, -0.5, 0.0, 0.9]))
        if chunk_rows is not None:
            monkeypatch.setattr(queries, "JOIN_CHUNK_ROWS", chunk_rows)
        got, got_stream = _join_outputs(_zone_join, *lead, 0.2, index)
        ref, ref_stream = _join_outputs(zone_join_reference, *lead, 0.2, index)
        assert got[3] == ref[3] == 0
        for mine, theirs in zip(got[:3], ref[:3]):
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape == (0,)
        assert len(got_stream) == len(ref_stream) == 1
        assert all(m.dtype == t.dtype and m.size == t.size == 0
                   for m, t in zip(got_stream[0], ref_stream[0]))
