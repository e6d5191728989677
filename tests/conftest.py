"""Shared helpers: sky samplers, scenario catalogs, pair-set utilities."""

from __future__ import annotations

import numpy as np

from zonequery import ZoneConfig, build_index


def random_sky(rng: np.random.Generator, n: int, dec_lo=-90.0, dec_hi=90.0):
    """Uniform-on-sphere positions within a declination band."""
    ra = rng.uniform(0.0, 360.0, n)
    z = rng.uniform(np.sin(np.radians(dec_lo)), np.sin(np.radians(dec_hi)), n)
    dec = np.degrees(np.arcsin(z))
    return ra, dec


def offset_points(rng: np.random.Generator, ra, dec, radius):
    """Points at a random bearing and distance <= radius from each (ra, dec).

    Standard destination-point formulas; distances are uniform in [0, radius],
    which concentrates samples near the window edges better than area-uniform.
    """
    n = len(ra)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    delta = np.radians(rng.uniform(0.0, radius, n))
    phi1 = np.radians(dec)
    lam1 = np.radians(ra)
    sin_phi2 = np.sin(phi1) * np.cos(delta) + np.cos(phi1) * np.sin(delta) * np.cos(theta)
    sin_phi2 = np.clip(sin_phi2, -1.0, 1.0)
    phi2 = np.arcsin(sin_phi2)
    lam2 = lam1 + np.arctan2(
        np.sin(theta) * np.sin(delta) * np.cos(phi1),
        np.cos(delta) - np.sin(phi1) * sin_phi2,
    )
    ra2 = np.degrees(lam2) % 360.0
    ra2[ra2 >= 360.0] = 0.0
    dec2 = np.clip(np.degrees(phi2), -90.0, 90.0)
    return ra2, dec2


def scenario_positions(rng: np.random.Generator, kind: str, n: int, cfg: ZoneConfig):
    """Position generators for the stress scenarios the join must survive."""
    if kind == "random":
        return random_sky(rng, n)
    if kind == "polar":
        # clusters hugging both poles, |dec| > 88
        ra = rng.uniform(0.0, 360.0, n)
        z = rng.uniform(np.sin(np.radians(88.0)), 1.0, n)
        dec = np.degrees(np.arcsin(z)) * rng.choice((-1.0, 1.0), n)
        return ra, dec
    if kind == "wrap":
        # tight cluster straddling ra = 0/360
        ra = rng.uniform(-0.05, 0.05, n) % 360.0
        ra[ra >= 360.0] = 0.0
        _, dec = random_sky(rng, n, -5.0, 5.0)
        return ra, dec
    if kind == "boundary":
        # declinations exactly on zone boundaries, poles included
        zones = rng.integers(0, cfg.zone_count, n)
        dec = np.clip(zones * cfg.height_deg - 90.0, -90.0, 90.0)
        dec[: min(4, n)] = (-90.0, 90.0, -90.0, 90.0)[: min(4, n)]
        return rng.uniform(0.0, 360.0, n), dec
    raise ValueError(f"unknown scenario {kind!r}")


def scenario_pair(rng, kind, n_a, n_b, radius, cfg, bands=(), seed_companions=True):
    """Two indexed catalogs for a scenario; catalog b gets companions seeded
    within `radius` of random a objects so tiny radii still produce pairs."""
    ra_a, dec_a = scenario_positions(rng, kind, n_a, cfg)
    ra_b, dec_b = scenario_positions(rng, kind, n_b, cfg)
    if seed_companions and n_a and n_b:
        k = min(n_b // 4 + 1, n_a)
        pick = rng.integers(0, n_a, k)
        ra_c, dec_c = offset_points(rng, ra_a[pick], dec_a[pick], radius)
        ra_b[:k], dec_b[:k] = ra_c, dec_c
        if k >= 2:  # a couple of exact duplicates (separation 0)
            ra_b[0], dec_b[0] = ra_a[pick[0]], dec_a[pick[0]]
    mags_a = rng.uniform(5.0, 15.0, (n_a, len(bands))) if bands else None
    mags_b = rng.uniform(5.0, 15.0, (n_b, len(bands))) if bands else None
    a = build_index("a", cfg, np.arange(n_a, dtype=np.uint64), ra_a, dec_a, mags_a, bands)
    b = build_index("b", cfg, np.arange(n_b, dtype=np.uint64), ra_b, dec_b, mags_b, bands)
    return a, b


def pair_keys(pairs):
    return {(p.leading_id, p.other_id) for p in pairs}


def assert_same_pairs(got, expected, sep_tol=1e-9):
    """Same pair set; separations agree within sep_tol degrees."""
    assert pair_keys(got) == pair_keys(expected)
    exp_sep = {(p.leading_id, p.other_id): p.separation for p in expected}
    for p in got:
        assert abs(p.separation - exp_sep[(p.leading_id, p.other_id)]) <= sep_tol


def best_matches_reference(pairs):
    """The per-pair dict loop ``best_matches`` once was, kept as the reference
    for the columnar version: per leading id the minimum separation, ties to
    the lower other_id, returned as a list ascending by leading id."""
    best = {}
    for p in pairs:
        cur = best.get(p.leading_id)
        if (
            cur is None
            or p.separation < cur.separation
            or (p.separation == cur.separation and p.other_id < cur.other_id)
        ):
            best[p.leading_id] = p
    return [best[k] for k in sorted(best)]
