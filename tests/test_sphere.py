"""Geometry: zones, separation metric, and the conservative ra window."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zonequery import SkyPoint, ZoneConfig, zone_of
from zonequery.queries import WINDOW_PAD_DEG, _window_segments
from zonequery.sphere import (
    MIN_ZONE_HEIGHT_DEG,
    normalize_ra,
    normalize_ra_array,
    ra_halfwidth_array,
    separation_deg,
    zone_of_array,
)

from conftest import offset_points, random_sky

CFG = ZoneConfig()  # default 4-arcmin zones
ARCSEC = 1.0 / 3600.0


class TestSkyPoint:
    def test_ra_normalized(self):
        assert SkyPoint(370.0, 0.0).ra == 10.0
        assert SkyPoint(-0.5, 0.0).ra == 359.5
        assert SkyPoint(360.0, 0.0).ra == 0.0
        assert SkyPoint(-1e-16, 0.0).ra == 0.0

    def test_dec_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SkyPoint(0.0, 90.0001)
        with pytest.raises(ValueError):
            SkyPoint(0.0, -91.0)
        with pytest.raises(ValueError):
            SkyPoint(0.0, math.nan)

    def test_non_finite_ra_rejected(self):
        with pytest.raises(ValueError):
            SkyPoint(math.inf, 0.0)

    def test_poles_allowed_with_any_ra(self):
        assert SkyPoint(123.4, 90.0).dec == 90.0
        assert SkyPoint(321.0, -90.0).dec == -90.0


_ULP_BELOW_360 = math.nextafter(360.0, 0.0)
# values whose wrap is easy to get wrong: signed zero, a tiny negative that
# % 360 rounds to 360, the ends of [0, 360), whole turns and huge magnitudes
_RA_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, _ULP_BELOW_360, 360.0,
    math.nextafter(360.0, 720.0), -_ULP_BELOW_360, -360.0, 720.0, -720.0,
    3600.0, -3600.0, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
]


def _bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


class TestNormalizeRaArray:
    """normalize_ra_array equals normalize_ra bit for bit, element by element:
    the in-range values skip the modulo, the others take it."""

    def test_edges(self):
        ra = np.array(_RA_EDGES)
        got = normalize_ra_array(ra)
        assert _bits(got) == _bits([normalize_ra(x) for x in _RA_EDGES])
        assert _bits(got[:2]) == _bits([0.0, 0.0])  # -0.0 becomes 0.0
        assert _bits(got[5]) == _bits(0.0)  # -1e-300 % 360 is 360.0, wrapped to 0
        assert np.all((got >= 0.0) & (got < 360.0))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_RA_EDGES),
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(-1e-3, 1e-3),
                st.floats(359.999, 360.001),
                st.integers(-4, 4).map(lambda k: k * 360.0),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_scalar(self, values):
        ra = np.array(values, dtype=np.float64)
        before = ra.tobytes()
        got = normalize_ra_array(ra)
        assert got.dtype == np.float64 and got is not ra
        assert _bits(got) == _bits([normalize_ra(x) for x in values])
        assert ra.tobytes() == before


class TestZoneConfig:
    def test_default_is_2700_zones(self):
        assert CFG.height_deg == pytest.approx(4.0 / 60.0)
        assert CFG.zone_count == 2700

    def test_other_heights(self):
        assert ZoneConfig(1.0).zone_count == 180
        assert ZoneConfig(7.0).zone_count == math.ceil(180 / 7)
        assert ZoneConfig(400.0).zone_count == 1

    def test_bad_height_rejected(self):
        for h in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ZoneConfig(h)

    def test_height_below_one_arcsec_rejected(self):
        assert MIN_ZONE_HEIGHT_DEG == 1.0 / 3600.0
        assert ZoneConfig(MIN_ZONE_HEIGHT_DEG).zone_count == 648_000
        for h in (math.nextafter(MIN_ZONE_HEIGHT_DEG, 0.0), 0.6 / 3600.0, 1e-9):
            with pytest.raises(ValueError, match="1 arcsec"):
                ZoneConfig(h)


class TestZoneOf:
    def test_fixtures(self):
        assert zone_of(-90.0, CFG) == 0
        assert zone_of(0.0, CFG) == 1350
        assert zone_of(90.0, CFG) == 2699  # clamped; raw formula gives 2700

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            zone_of(90.1, CFG)
        with pytest.raises(ValueError):
            zone_of(-90.1, CFG)

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(11)
        dec = rng.uniform(-90.0, 90.0, 1000)
        vec = zone_of_array(dec, CFG)
        assert all(zone_of(float(d), CFG) == z for d, z in zip(dec, vec))


def _dec_range(zone, cfg):
    """Declination range [lo, hi) of ``zone`` by the module docstring's
    definition; the last zone is closed at +90."""
    last = zone == cfg.zone_count - 1
    return zone * cfg.height_deg - 90.0, 90.0 if last else (zone + 1) * cfg.height_deg - 90.0


def _zones_overlapping_oracle(dec_lo, dec_hi, cfg):
    """Scan every zone for intersection with the closed band [dec_lo, dec_hi]."""
    dec_lo = min(max(dec_lo, -90.0), 90.0)
    dec_hi = min(max(dec_hi, -90.0), 90.0)
    hits = []
    for z in range(cfg.zone_count):
        lo, hi = _dec_range(z, cfg)
        closed_top = z == cfg.zone_count - 1
        if lo <= dec_hi and (dec_lo < hi or (closed_top and dec_lo <= hi)):
            hits.append(z)
    return hits


def _zone_band(dec_lo, dec_hi, cfg):
    """The zones a declination band touches, as the join and run_cone compute
    them: zone_of_array of the unclamped ends (it clamps the zones)."""
    z_lo, z_hi = zone_of_array(np.array([dec_lo, dec_hi]), cfg).tolist()
    return list(range(z_lo, z_hi + 1))


class TestZonesOverlapping:
    def test_band_within_one_zone(self):
        lo, hi = _dec_range(1000, CFG)
        mid = (lo + hi) / 2
        assert _zone_band(mid, mid, CFG) == [1000]

    def test_band_straddling_equator(self):
        assert _zone_band(-0.01, 0.01, CFG) == [1349, 1350]

    def test_polar_band_matches_scan_oracle(self):
        got = _zone_band(89.0, 90.0, CFG)
        assert got == _zones_overlapping_oracle(89.0, 90.0, CFG)
        # dec 89 sits exactly on the lower edge of zone 2685
        assert got == list(range(2685, 2700))

    def test_random_bands_match_scan_oracle(self):
        # ends beyond the poles: clamping the zones equals clamping the decs
        cfg = ZoneConfig(2.5)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = sorted(rng.uniform(-95.0, 95.0, 2))
            assert _zone_band(a, b, cfg) == _zones_overlapping_oracle(a, b, cfg)


class TestAngularSeparation:
    def test_coincident(self):
        assert separation_deg(42.0, 17.0, 42.0, 17.0) == 0.0

    def test_antipodal_on_equator(self):
        assert separation_deg(0.0, 0.0, 180.0, 0.0) == 180.0

    def test_path_across_pole(self):
        got = separation_deg(10.0, 89.0, 190.0, 89.0)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_pole_points_coincide_regardless_of_ra(self):
        got = separation_deg(10.0, 90.0, 200.0, 90.0)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_small_separation_precision(self):
        # 1 arcsec apart in dec: haversine must not lose it
        got = separation_deg(100.0, 20.0, 100.0, 20.0 + ARCSEC)
        assert got == pytest.approx(ARCSEC, rel=1e-9)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            (ra1, ra2), (dec1, dec2) = rng.uniform(0, 360, 2), rng.uniform(-90, 90, 2)
            assert separation_deg(ra1, dec1, ra2, dec2) == separation_deg(ra2, dec2, ra1, dec1)

    def test_range_and_identity(self):
        rng = np.random.default_rng(4)
        ra, dec = random_sky(rng, 5000)
        ra2, dec2 = random_sky(rng, 5000)
        sep = separation_deg(ra, dec, ra2, dec2)
        assert sep.min() >= 0.0 and sep.max() <= 180.0
        assert np.all(separation_deg(ra, dec, ra, dec) == 0.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        ra = [rng.uniform(0, 360, 2000) for _ in range(3)]
        dec = [np.degrees(np.arcsin(rng.uniform(-1, 1, 2000))) for _ in range(3)]
        ab = separation_deg(ra[0], dec[0], ra[1], dec[1])
        bc = separation_deg(ra[1], dec[1], ra[2], dec[2])
        ac = separation_deg(ra[0], dec[0], ra[2], dec[2])
        assert np.all(ac <= ab + bc + 1e-9)

    @given(
        ra=st.floats(0, 360, exclude_max=True),
        dec=st.floats(-90, 90),
        ra2=st.floats(0, 360, exclude_max=True),
        dec2=st.floats(-90, 90),
    )
    @settings(max_examples=300, deadline=None)
    def test_metric_properties_hypothesis(self, ra, dec, ra2, dec2):
        s = separation_deg(ra, dec, ra2, dec2)
        assert 0.0 <= s <= 180.0
        assert s == separation_deg(ra2, dec2, ra, dec)


def _halfwidth(radius, dec):
    return float(ra_halfwidth_array(radius, np.array([dec]))[0])


class TestRaHalfwidth:
    def test_at_least_radius_on_equator(self):
        assert _halfwidth(0.1, 0.0) >= 0.1

    def test_pole_clamp(self):
        assert _halfwidth(1.0, 89.5) == 180.0
        assert _halfwidth(1.0, -89.5) == 180.0
        assert _halfwidth(90.0, 0.0) == 180.0

    def test_conservative_formula_at_dec_60(self):
        expected = 1.0 / math.cos(math.radians(61.0))
        assert _halfwidth(1.0, 60.0) == pytest.approx(expected)
        assert _halfwidth(1.0, 60.0) == pytest.approx(2.0627, abs=5e-5)
        assert _halfwidth(1.0, -60.0) == _halfwidth(1.0, 60.0)
        # bit for bit the masked form it replaced, which took the cosine of
        # the rows that reach no pole only
        rng = np.random.default_rng(9)
        decs = [random_sky(rng, 5000)[1], random_sky(rng, 5000, 30.0, 34.0)[1],
                np.array([89.99]), np.array([-90.0, 0.0, 90.0])]
        for radius in (60 * ARCSEC, 1.0, 179.0):
            for dec in decs:
                reach = np.abs(dec) + radius
                masked = np.full(len(dec), 180.0)
                narrow = reach < 90.0
                masked[narrow] = np.minimum(radius / np.cos(np.radians(reach[narrow])), 180.0)
                assert ra_halfwidth_array(radius, dec).tobytes() == masked.tobytes()

    def test_no_pair_missed_near_dec_60(self):
        rng = np.random.default_rng(7)
        ra, dec = random_sky(rng, 20000, 59.0, 61.0)
        ra2, dec2 = offset_points(rng, ra, dec, 1.0)
        sep = separation_deg(ra, dec, ra2, dec2)
        true_pair = sep <= 1.0
        alpha = ra_halfwidth_array(1.0, dec)
        dra = np.abs((ra2 - ra + 180.0) % 360.0 - 180.0)
        assert np.all(dra[true_pair] <= alpha[true_pair])

    def test_monotone_in_abs_dec(self):
        widths = ra_halfwidth_array(0.5, np.array([0.0, 30.0, 60.0, 80.0, 89.0]))
        assert widths.tolist() == sorted(widths.tolist())


def _window(center, hw):
    """The join's padded ra window around one point: sorted closed segments."""
    _, lo, hi = _window_segments(np.array([center]), np.array([hw]))
    return sorted(zip(lo.tolist(), hi.tolist()))


def _contains(window, ra):
    return any(lo <= ra <= hi for lo, hi in window)


class TestRaWindow:
    def test_plain_window(self):
        assert _window(180.0, 1.0) == [(179.0 - WINDOW_PAD_DEG, 181.0 + WINDOW_PAD_DEG)]

    def test_wrap_split(self):
        w = _window(0.05, 0.2)
        assert [v for seg in w for v in seg] == pytest.approx(
            [0.0, 0.25 + WINDOW_PAD_DEG, 359.85 - WINDOW_PAD_DEG, 360.0], abs=1e-12
        )

    def test_full_circle(self):
        assert _window(123.0, 180.0) == [(0.0, 360.0)]

    def test_degenerate_window_contains_center(self):
        w = _window(10.0, 0.0)
        assert _contains(w, 10.0)
        assert not _contains(w, 10.0 + 2 * WINDOW_PAD_DEG)
        assert 0.0 < w[0][1] - w[0][0] <= 2 * WINDOW_PAD_DEG + 1e-12

    def test_width_at_least_twice_halfwidth(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            c = rng.uniform(0, 360)
            hw = rng.uniform(0, 179.9)
            width = sum(hi - lo for lo, hi in _window(c, hw))
            assert width >= 2 * hw - 1e-12

    def test_intervals_disjoint_and_sorted(self):
        (a_lo, a_hi), (b_lo, b_hi) = _window(359.0, 2.0)
        assert a_hi <= b_lo
        assert a_lo < a_hi and b_lo < b_hi

    @given(
        center=st.floats(0, 360, exclude_max=True),
        hw=st.floats(0, 180),
        ra=st.floats(0, 360, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_membership_invariant_under_wrap(self, center, hw, ra):
        # membership depends only on the distance around the circle, so it is
        # the same on either side of 0/360; exact-edge rounding is skipped
        reach = hw + WINDOW_PAD_DEG
        dist = abs((ra - center + 180.0) % 360.0 - 180.0)
        assume(abs(dist - reach) > 1e-9)
        assert _contains(_window(center, hw), ra) == (dist <= reach)


class TestZoneTotality:
    def test_every_dec_in_exactly_one_zone(self):
        rng = np.random.default_rng(9)
        dec = rng.uniform(-90.0, 90.0, 1_000_000)
        zones = zone_of_array(dec, CFG)
        assert zones.min() >= 0 and zones.max() < CFG.zone_count
        # containment agreement for a sample; full array checked via formula
        lo = zones * CFG.height_deg - 90.0
        hi = np.where(
            zones == CFG.zone_count - 1, 90.0, (zones + 1) * CFG.height_deg - 90.0
        )
        inside = (dec >= lo) & ((dec < hi) | ((zones == CFG.zone_count - 1) & (dec <= 90)))
        assert inside.all()
        for d in dec[:500]:
            z = zone_of(float(d), CFG)
            a, b = _dec_range(z, CFG)
            assert a <= d and (d < b or (z == CFG.zone_count - 1 and d <= 90.0))


class TestAlphaCompleteness:
    def test_no_true_pair_outside_window_1e6(self):
        rng = np.random.default_rng(10)
        n = 1_000_000
        # half the sample hugs the poles, where the clamp must kick in
        ra_lo, dec_lo = random_sky(rng, n // 2)
        ra_hi = rng.uniform(0, 360, n - n // 2)
        z = rng.uniform(np.sin(np.radians(85.0)), 1.0, n - n // 2)
        dec_hi = np.degrees(np.arcsin(z)) * rng.choice((-1.0, 1.0), n - n // 2)
        ra = np.concatenate([ra_lo, ra_hi])
        dec = np.concatenate([dec_lo, dec_hi])
        radius = rng.choice((ARCSEC, 10 * ARCSEC, 1 / 60.0, 0.5, 2.0), n)
        # destination-point sampling with a per-point radius
        theta = rng.uniform(0, 2 * np.pi, n)
        delta = np.radians(rng.uniform(0, 1, n) * radius)
        phi1 = np.radians(dec)
        sin_phi2 = np.sin(phi1) * np.cos(delta) + np.cos(phi1) * np.sin(delta) * np.cos(theta)
        sin_phi2 = np.clip(sin_phi2, -1, 1)
        lam2 = np.radians(ra) + np.arctan2(
            np.sin(theta) * np.sin(delta) * np.cos(phi1),
            np.cos(delta) - np.sin(phi1) * sin_phi2,
        )
        ra2 = np.degrees(lam2) % 360.0
        dec2 = np.clip(np.degrees(np.arcsin(sin_phi2)), -90.0, 90.0)

        sep = separation_deg(ra, dec, ra2, dec2)
        true_pair = sep <= radius
        alpha = np.empty(n)
        for r in np.unique(radius):
            m = radius == r
            alpha[m] = ra_halfwidth_array(float(r), dec[m])
        dra = np.abs((ra2 - ra + 180.0) % 360.0 - 180.0)
        violations = true_pair & (dra > alpha)
        assert violations.sum() == 0
        # spot-check the join's window segments on the same pairs
        idx = np.nonzero(true_pair)[0][:2000]
        inside = np.zeros(len(idx), dtype=bool)
        obj, lo, hi = _window_segments(ra[idx], alpha[idx])
        np.logical_or.at(inside, obj, (ra2[idx][obj] >= lo) & (ra2[idx][obj] <= hi))
        assert inside.all()
