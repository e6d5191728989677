"""Shared helpers: sky samplers, scenario catalogs, pair-set utilities."""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from zonequery import ZoneConfig, build_index
from zonequery import ingest
from zonequery.catalog import KEY_BAND, ZoneIndex
from zonequery.ingest import IngestError, _parse_header
from zonequery.partition import PartitionPlan
from zonequery.queries import DEC_PAD_DEG, WINDOW_PAD_DEG, MatchTable
from zonequery.sphere import ra_halfwidth_array, separation_deg, zone_of_array


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


def match_table_reference(leading_ids, other_ids, separation):
    """A MatchTable of three columns in canonical order, sorted with the
    two-key ``np.lexsort`` that ``MatchTable.from_unsorted`` once used: the
    reference order for its one-key sort."""
    order = np.lexsort((other_ids, leading_ids))
    return MatchTable(leading_ids[order], other_ids[order], separation[order])


def scan_reference(index, f):
    """The (id, magnitude) rows a scan must return, ascending by id: a mask
    over the index's magnitude column for ``f.band``, in which a missing
    (NaN) magnitude never passes."""
    col = index.mags[:, index.bands.index(f.band)]
    keep = (col >= f.lo) & (col <= f.hi)
    return sorted(zip(index.ids[keep].tolist(), col[keep].tolist()))


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


def ingest_csv_reference(
    path: str | Path,
    bands: Sequence[str] | None = None,
    cfg: ZoneConfig = ZoneConfig(),
    name: str | None = None,
    on_reject: Callable[[str], None] | None = None,
) -> ZoneIndex:
    """The per-row ``ingest_csv`` that the bulk parser replaced, kept as its
    reference: same accepted rows, messages and errors on every input it
    handled without a traceback.

    ``bands`` selects a projection of the header's magnitude columns (all of
    them when None). Rows with unparseable or out-of-range values are
    rejected individually and reported as ``line <n>: <reason>`` through
    ``on_reject``; more than 1% rejected rows aborts with IngestError.
    Empty magnitude fields mean missing and are stored as NaN.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no such file: {path}")
    rejects: list[str] = []

    def reject(line_no: int, reason: str) -> None:
        msg = f"line {line_no}: {reason}"
        rejects.append(msg)
        if on_reject is not None:
            on_reject(msg)

    ids: list[int] = []
    ras: list[float] = []
    decs: list[float] = []
    mag_rows: list[list[float]] = []
    seen: set[int] = set()

    # utf-8-sig: a byte-order mark, as some spreadsheet tools write, is not
    # part of the first header name
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [c.strip() for c in next(reader)]
        except StopIteration:
            raise IngestError(f"{path}: empty file, missing header") from None
        selected = _parse_header(header, bands)
        col_idx = [header.index(b, 3) for b in selected] if selected else []
        n_cols = len(header)
        total_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            total_rows += 1
            if len(row) != n_cols:
                reject(line_no, f"expected {n_cols} fields, got {len(row)}")
                continue
            try:
                obj_id = int(row[0])
            except ValueError:
                reject(line_no, f"bad id {row[0]!r}")
                continue
            if not 0 <= obj_id < 2**64:
                reject(line_no, f"id {obj_id} outside unsigned 64-bit range")
                continue
            if obj_id in seen:
                reject(line_no, f"duplicate id {obj_id}")
                continue
            try:
                ra = float(row[1])
                dec = float(row[2])
            except ValueError:
                reject(line_no, f"unparseable coordinates {row[1]!r},{row[2]!r}")
                continue
            if not (math.isfinite(ra) and math.isfinite(dec)):
                reject(line_no, f"non-finite coordinates {row[1]!r},{row[2]!r}")
                continue
            if not -90.0 <= dec <= 90.0:
                reject(line_no, f"dec {dec} outside [-90, 90]")
                continue
            mags = []
            ok = True
            for band, ci in zip(selected, col_idx):
                field = row[ci].strip()
                if field == "":
                    mags.append(math.nan)
                    continue
                try:
                    value = float(field)
                except ValueError:
                    ok = False
                    reject(line_no, f"bad magnitude {field!r} for band {band}")
                    break
                if not math.isfinite(value):
                    ok = False
                    reject(line_no, f"non-finite magnitude {field!r} for band {band}")
                    break
                mags.append(value)
            if not ok:
                continue
            seen.add(obj_id)
            ids.append(obj_id)
            ras.append(ra)
            decs.append(dec)
            mag_rows.append(mags)

    # read at call time, so that tests can change the threshold for both
    max_reject_fraction = ingest.MAX_REJECT_FRACTION
    if total_rows and len(rejects) > max_reject_fraction * total_rows:
        shown = "; ".join(rejects[:5])
        raise IngestError(
            f"{path}: {len(rejects)}/{total_rows} rows rejected (> "
            f"{max_reject_fraction:.0%}): {shown}"
        )

    mags_arr = (
        np.array(mag_rows, dtype=np.float64).reshape(len(ids), len(selected))
        if selected
        else None
    )
    return build_index(
        name if name is not None else path.stem,
        cfg,
        np.array(ids, dtype=np.uint64),
        np.array(ras, dtype=np.float64),
        np.array(decs, dtype=np.float64),
        mags_arr,
        selected,
    )


def _window_segments_reference(ra, alpha):
    """Padded ra windows as up to three (object_index, lo, hi) groups inside
    [0, 360): the main segment of every object, then the wrap segments."""
    w_lo = ra - alpha - WINDOW_PAD_DEG
    w_hi = ra + alpha + WINDOW_PAD_DEG
    full = (w_hi - w_lo) >= 360.0

    main_lo = np.where(full, 0.0, np.maximum(w_lo, 0.0))
    main_hi = np.where(full, 360.0, np.minimum(w_hi, 360.0))
    segments = [(np.arange(len(ra)), main_lo, main_hi)]

    wrap_low = np.nonzero(~full & (w_lo < 0.0))[0]
    if wrap_low.size:
        segments.append(
            (wrap_low, w_lo[wrap_low] + 360.0, np.full(wrap_low.size, 360.0))
        )
    wrap_high = np.nonzero(~full & (w_hi > 360.0))[0]
    if wrap_high.size:
        segments.append(
            (wrap_high, np.zeros(wrap_high.size), w_hi[wrap_high] - 360.0)
        )
    return segments


_NO_ROWS = np.empty(0, dtype=np.intp)


def zone_join_reference(
    lead_ra, lead_dec, radius, key, ra, dec, cfg, candidate_sink=None
):
    """The per-offset ``queries._zone_join`` that one search pass per join
    replaced, kept as its reference: one pair of binary searches per (zone
    offset, window segment), so its outputs and candidate stream, order
    included, are what the one-pass kernel must reproduce. Zone offsets
    count from each row's own zone, zone(dec), and run over the range the
    rows' own dec +- radius spans, found by reductions."""
    if len(lead_ra) == 0 or len(key) == 0:
        return _NO_ROWS, _NO_ROWS, np.empty(0), 0
    z_own = zone_of_array(lead_dec, cfg)
    z_lo = zone_of_array(lead_dec - radius, cfg)
    z_hi = zone_of_array(lead_dec + radius, cfg)
    alpha = ra_halfwidth_array(radius, lead_dec)
    segments = _window_segments_reference(lead_ra, alpha)

    lead_parts = []
    cand_parts = []
    for k in range(int((z_lo - z_own).min()), int((z_hi - z_own).max()) + 1):
        zone_k = z_own + k
        for obj_idx, seg_lo, seg_hi in segments:
            zone = zone_k[obj_idx]
            act = np.nonzero((z_lo[obj_idx] <= zone) & (zone <= z_hi[obj_idx]))[0]
            if act.size == 0:
                continue
            obj = obj_idx[act]
            base = zone_k[obj].astype(np.float64) * KEY_BAND
            i0 = np.searchsorted(key, base + seg_lo[act], side="left")
            i1 = np.searchsorted(key, base + seg_hi[act], side="right")
            counts = i1 - i0
            total = int(counts.sum())
            if total == 0:
                continue
            lead_parts.append(np.repeat(obj, counts))
            starts = np.cumsum(counts) - counts
            cand_parts.append(np.repeat(i0 - starts, counts) + np.arange(total))

    li = np.concatenate(lead_parts) if lead_parts else _NO_ROWS
    ci = np.concatenate(cand_parts) if cand_parts else _NO_ROWS
    if candidate_sink is not None:
        candidate_sink(li, ci)
    candidates = int(li.size)
    lead_d, other_d = lead_dec[li], dec[ci]
    near = np.abs(lead_d - other_d) <= radius + DEC_PAD_DEG
    li, ci = li[near], ci[near]
    sep = separation_deg(lead_ra[li], lead_d[near], ra[ci], other_d[near])
    keep = sep <= radius
    return li[keep], ci[keep], sep[keep], candidates


def separation_reference(ra1: float, dec1: float, ra2: float, dec2: float) -> float:
    """Great-circle separation in degrees as atan2(|a x b|, a . b) of unit
    vectors, in Python ``math`` floats with ``math.fsum``: well conditioned
    at every separation, the antipode included, and sharing no float path
    with ``sphere.separation_deg``, whose oracle it is."""

    def unit(ra: float, dec: float) -> tuple[float, float, float]:
        a, d = math.radians(ra), math.radians(dec)
        return math.cos(d) * math.cos(a), math.cos(d) * math.sin(a), math.sin(d)

    (ax, ay, az), (bx, by, bz) = unit(ra1, dec1), unit(ra2, dec2)
    cross = (math.fsum((ay * bz, -az * by)), math.fsum((az * bx, -ax * bz)),
             math.fsum((ax * by, -ay * bx)))
    sin_sep = math.sqrt(math.fsum(c * c for c in cross))
    return math.degrees(math.atan2(sin_sep, math.fsum((ax * bx, ay * by, az * bz))))


def haversine_reference(ra1, dec1, ra2, dec2):
    """The haversine ``separation_deg`` was before its form for separations
    beyond 90 degrees, kept as the reference for the bits it still gives up
    to 90 degrees."""
    phi1, phi2 = np.radians(dec1), np.radians(dec2)
    sd = np.sin(0.5 * np.radians(np.subtract(dec2, dec1)))
    sr = np.sin(0.5 * np.radians(np.subtract(ra2, ra1)))
    h = sd * sd + np.cos(phi1) * np.cos(phi2) * (sr * sr)
    return 2.0 * np.degrees(np.arcsin(np.minimum(1.0, np.sqrt(h))))


def clip_runs(runs, lo: int, hi: int):
    """The (zone_start, zone_stop, worker) runs of zones [lo, hi)."""
    return [(max(a, lo), min(b, hi), w) for a, b, w in runs if a < hi and b > lo]


def shares_reference(plan: PartitionPlan, zone_starts, z_lo: int, z_hi: int):
    """The runs-based ``executor._shares``, kept as the reference for the
    run-edge walk: per worker, the non-empty row ranges of its runs
    clipped to zones [z_lo, z_hi]."""
    runs = clip_runs(plan.runs(), z_lo, z_hi + 1)
    bounds = zone_starts[[a for a, _, _ in runs] + [z_hi + 1]].tolist()
    shares = [[] for _ in range(plan.worker_count)]
    for (_, _, worker), start, stop in zip(runs, bounds, bounds[1:]):
        if stop > start:
            shares[worker].append((start, stop))
    return shares
