"""Query parameters, cone search and cross-match kernels, plus the exhaustive
oracle used to verify them.

* ScanFilter: the magnitude BETWEEN filter of ``executor.run_scan``, which
  visits every object (no index on magnitudes by design).
* zone_crossmatch: all-pairs radius join driven by the leading catalog's
  slices, taken in chunks of rows; each chunk is joined against the
  zone-local slice of the other index, the zones its dec +- radius reaches.
* cone_search: the same search, expansion and exact filter, on needles
  built once per cone from scalars: the zone band zone(dec - r)..zone(dec +
  r), the half-width r / cos(|dec| + r) and the padded ra window, split at
  0/360, computed with the arithmetic the join applies per row. The needles
  are searched once, in the band's contiguous slice of the key, and only
  what they find is expanded and filtered.
* brute_force_crossmatch: O(n*m) exhaustive comparison, the correctness
  oracle; zone_crossmatch must reproduce its output exactly.

Match semantics are all-pairs-within-radius with an inclusive boundary
(sep <= r); best-match is a post-filter, not a different join.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .catalog import KEY_BAND, ZoneIndex, ZoneSlice
from .sphere import (
    SkyPoint,
    ZoneConfig,
    check_same_zones,
    ra_halfwidth,
    ra_halfwidth_array,
    separation_deg,
    zone_of,
    zone_of_array,
)

__all__ = [
    "ScanFilter",
    "ConeQuery",
    "MatchSpec",
    "MatchPair",
    "MatchTable",
    "cone_search",
    "zone_crossmatch",
    "brute_force_crossmatch",
    "best_matches",
]

# widen candidate windows by this many degrees: absorbs the quantization of
# the composite zone*512+ra sort key, which can shift an edge by ~1e-10 deg.
# Padding only adds false candidates; the exact filter removes them.
WINDOW_PAD_DEG = 1e-7

# a candidate whose |delta dec| exceeds the radius by more than this is
# dropped before the separation is computed. A pair is at least |delta dec|
# apart in exact arithmetic; the pad absorbs the rounding of the haversine.
DEC_PAD_DEG = 1e-9

# leading rows joined at a time: bounds the per-candidate temporaries, and
# each chunk searches only the other index's rows in the zones it reaches
JOIN_CHUNK_ROWS = 65_536

# sanity cap on a cross-match radius, degrees
MAX_MATCH_RADIUS_DEG = 10.0

# brute-force oracle refuses above this many pairwise comparisons
BRUTE_FORCE_PAIR_LIMIT = 10**8

CandidateSink = Callable[[np.ndarray, np.ndarray], None]

# [start, stop) row ranges of an array, in order
Ranges = Sequence[tuple[int, int]]

_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class ScanFilter:
    """Inclusive magnitude range on one band; missing magnitudes never pass."""

    band: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if math.isnan(bound):
                raise ValueError(f"{name} {bound!r} is not a number")
        if self.lo > self.hi:
            raise ValueError(f"lo {self.lo!r} > hi {self.hi!r}")


@dataclass(frozen=True)
class ConeQuery:
    center: SkyPoint
    radius: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.radius <= 180.0:
            raise ValueError(f"radius {self.radius!r} outside [0, 180]")


@dataclass(frozen=True)
class MatchSpec:
    """Cross-match parameters: the match radius, in degrees."""

    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0.0:
            raise ValueError(f"match radius must be > 0, got {self.radius!r}")
        if self.radius > MAX_MATCH_RADIUS_DEG:
            raise ValueError(
                f"match radius {self.radius!r} above sanity cap {MAX_MATCH_RADIUS_DEG!r}"
            )


@dataclass(frozen=True)
class MatchPair:
    leading_id: int
    other_id: int
    separation: float


@dataclass(frozen=True, eq=False)
class MatchTable(abc.Sequence):
    """Cross-match pairs as three columns in ascending (leading_id, other_id)
    order: ``leading_ids`` and ``other_ids`` (uint64), ``separation``
    (float64, degrees). A read-only sequence of :class:`MatchPair`, which
    are built only when it is indexed or iterated."""

    leading_ids: np.ndarray
    other_ids: np.ndarray
    separation: np.ndarray

    __hash__ = None  # type: ignore[assignment]

    @classmethod
    def from_unsorted(
        cls, leading_ids: np.ndarray, other_ids: np.ndarray, separation: np.ndarray
    ) -> MatchTable:
        """The pairs of three equal-length columns, sorted into canonical order.
        The (leading_id, other_id) pairs must be distinct, as a join's are.

        The sort is one in-place sort of uint64 keys, cheaper than a two-key
        lexsort: the high 32 bits hold the dense rank of the leading id,
        the low 32 bits the pair's position in an argsort of the other ids.
        Distinct pairs never tie on other id inside one leading id, so the keys
        are distinct and order exactly as (leading_id, other_id) does, for any
        uint64 ids, up to 2**32 - 1 pairs; the sorted keys' low bits, looked up
        in that argsort, give the order."""
        n = len(leading_ids)
        if n >= 1 << 32:
            raise ValueError(f"{n} pairs: one sort key orders at most 2**32 - 1")
        by_lead = np.argsort(leading_ids)
        # the dense rank, written over the sorted ids it is counted from
        rank = leading_ids[by_lead]
        new_value = rank[1:] != rank[:-1]
        rank[:1] = 0
        np.cumsum(new_value, out=rank[1:])
        key = np.empty(n, dtype=np.uint64)
        key[by_lead] = rank
        del by_lead, rank, new_value  # free each temporary before the next is made
        key <<= np.uint64(32)
        by_other = np.argsort(other_ids)
        key[by_other] |= np.arange(n, dtype=np.uint64)
        key.sort()
        order = by_other[key & np.uint64(0xFFFFFFFF)]
        del by_other, key
        return cls(leading_ids[order], other_ids[order], separation[order])

    def take(self, rows: np.ndarray) -> MatchTable:
        """The pairs at ``rows`` (a boolean mask or ascending positions)."""
        columns = (self.leading_ids, self.other_ids, self.separation)
        return MatchTable(*(c[rows] for c in columns))

    def __len__(self) -> int:
        return len(self.leading_ids)

    def __getitem__(self, i: int) -> MatchPair:  # type: ignore[override]
        return MatchPair(
            int(self.leading_ids[i]), int(self.other_ids[i]), float(self.separation[i])
        )

    def __iter__(self) -> Iterator[MatchPair]:
        columns = (self.leading_ids, self.other_ids, self.separation)
        return map(MatchPair, *(c.tolist() for c in columns))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MatchTable):
            return (
                np.array_equal(self.leading_ids, other.leading_ids)
                and np.array_equal(self.other_ids, other.other_ids)
                and np.array_equal(self.separation, other.separation)
            )
        if isinstance(other, abc.Sequence) and not isinstance(other, str):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented


def _by_id(ids: np.ndarray, values: np.ndarray) -> list[tuple[int, float]]:
    """(id, value) rows in ascending id order, as Python ints and floats;
    fewer than two rows need no sort."""
    if len(ids) > 1:
        order = ids.argsort()
        ids, values = ids[order], values[order]
    return list(zip(ids.tolist(), values.tolist()))


def _cone_needles(
    q: ConeQuery, cfg: ZoneConfig
) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """A cone's zone band (z_lo, z_hi) and the key ranges (lo, hi) of its
    needles, those of a one-row :func:`_zone_join` in the same (zone, window
    segment) order, computed from Python floats: the zone band with
    ``zone_of_array``'s clamping, the half-width with :func:`ra_halfwidth`,
    the segments of :func:`_window_segments` and the key bounds float(zone)
    * KEY_BAND + segment bound, each with the same IEEE operations as the
    join's array form, so the key ranges are equal to the last bit. Only the
    finished bounds become arrays."""
    ra, dec, radius = q.center.ra, q.center.dec, q.radius
    band = zone_of(max(dec - radius, -90.0), cfg), zone_of(min(dec + radius, 90.0), cfg)
    alpha = ra_halfwidth(radius, dec)
    w_lo = ra - alpha - WINDOW_PAD_DEG
    w_hi = ra + alpha + WINDOW_PAD_DEG
    if w_hi - w_lo >= 360.0:
        segments = [(0.0, 360.0)]
    else:
        segments = [(max(w_lo, 0.0), min(w_hi, 360.0))]
        if w_lo < 0.0:
            segments.append((w_lo + 360.0, 360.0))
        if w_hi > 360.0:
            segments.append((0.0, w_hi - 360.0))
    bases = [float(z) * KEY_BAND for z in range(band[0], band[1] + 1)]
    lo = np.array([base + s_lo for base in bases for s_lo, _ in segments])
    hi = np.array([base + s_hi for base in bases for _, s_hi in segments])
    return band, lo, hi


def _cone_search(
    q: ConeQuery, index: ZoneIndex
) -> tuple[tuple[int, int], int, np.ndarray, np.ndarray]:
    """A cone's one search: ``(band, start, i0, counts)``, its zone band,
    the band's first row, and per needle of :func:`_cone_needles` (zone
    major, the same number of window segments in each zone) the first row
    of its key range and the rows it counts, in the band's contiguous slice
    of ``ra_key``; a row of the slice is row ``start + i`` of the index."""
    band, lo, hi = _cone_needles(q, index.cfg)
    start = index.zone_starts[band[0]]
    i0, counts = _search(index.ra_key[start : index.zone_starts[band[1] + 1]], lo, hi)
    return band, start, i0, counts


def _cone_rows(
    q: ConeQuery, index: ZoneIndex, start: int, i0: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The objects within a cone among the candidates of needles that
    :func:`_cone_search` found at ``i0`` with ``counts``, at least one row in
    all: (ids, separations, candidates), unsorted. The candidates are
    expanded into rows of the whole index, whose ra, dec and ids are
    gathered from the whole columns, and go through the join's exact
    filter with the cone's centre as its one leading row."""
    ci = _candidates(i0, counts)
    ci += start
    center = np.array([q.center.ra]), np.array([q.center.dec])
    li = np.zeros(len(ci), dtype=np.intp)
    _, rows, sep = _exact_filter(li, ci, *center, index.ra, index.dec, q.radius)
    return index.ids[rows], sep, len(ci)


def cone_search(index: ZoneIndex, q: ConeQuery) -> list[tuple[int, float]]:
    """All objects within q.radius of q.center as (id, separation), by id."""
    _, start, i0, counts = _cone_search(q, index)
    if not np.count_nonzero(counts):
        return []
    ids, sep, _ = _cone_rows(q, index, start, i0, counts)
    return _by_id(ids, sep)


def _window_segments(
    ra: np.ndarray, alpha: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split padded ra windows into half-open segments inside [0, 360).

    Returns (object_index, lo, hi) columns holding the main segment of every
    object, then the wrap segments of windows crossing 0, then those of
    windows crossing 360, each group in object order. Segments of one object
    never overlap, so no candidate is produced twice.
    """
    w_lo = ra - alpha - WINDOW_PAD_DEG
    w_hi = ra + alpha + WINDOW_PAD_DEG
    full = (w_hi - w_lo) >= 360.0
    main_lo = np.where(full, 0.0, np.maximum(w_lo, 0.0))
    main_hi = np.where(full, 360.0, np.minimum(w_hi, 360.0))
    wrap_low = np.flatnonzero(~full & (w_lo < 0.0))
    wrap_high = np.flatnonzero(~full & (w_hi > 360.0))
    if not (wrap_low.size or wrap_high.size):
        return np.arange(len(ra)), main_lo, main_hi
    obj = np.concatenate((np.arange(len(ra)), wrap_low, wrap_high))
    lo = np.concatenate((main_lo, w_lo[wrap_low] + 360.0, np.zeros(wrap_high.size)))
    hi = np.concatenate((main_hi, np.full(wrap_low.size, 360.0), w_hi[wrap_high] - 360.0))
    return obj, lo, hi


def _search(key: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The search half of the candidate kernel: per needle, the first row of
    ``key`` in its key range [lo, hi] and the number of rows there. Methods
    stand in for the ``np.`` functions, whose dispatch (about 1 us a call
    with numpy 2.4) a one-cone search feels."""
    i0 = key.searchsorted(lo, side="left")
    # closed upper bound: a stored key for ra just under 360 can round up to
    # exactly zone*KEY_BAND + 360, and the gap to the next zone band makes
    # including equality safe (never pulls in another zone)
    return i0, key.searchsorted(hi, side="right") - i0


def _candidates(i0: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The expansion half: the key rows ``counts[k]`` from ``i0[k]`` on, in
    needle order, for at least one needle."""
    ends = counts.cumsum()
    return (i0 - (ends - counts)).repeat(counts) + np.arange(ends[-1])


def _expand(
    key: np.ndarray, obj: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``key`` in each needle's key range [lo, hi], as (leading
    row, key row) pairs in needle order, key rows ascending per needle;
    when the searches find no row, nothing else runs."""
    i0, counts = _search(key, lo, hi)
    del lo, hi  # the caller passes temporaries: free them before expanding
    if not np.count_nonzero(counts):
        return _NO_ROWS, _NO_ROWS
    return obj.repeat(counts), _candidates(i0, counts)


def _zone_join(
    lead_ra: np.ndarray,
    lead_dec: np.ndarray,
    radius: float,
    key: np.ndarray,
    ra: np.ndarray,
    dec: np.ndarray,
    cfg: ZoneConfig,
    candidate_sink: CandidateSink | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Zone join of leading points against other rows sorted by the composite
    key (``ZoneIndex.ra_key``, or a zone-ordered run of it). Returns
    (lead_rows, other_rows, separations, candidates), unsorted; rows are
    positions into the leading and the other arrays.

    Per leading point the candidate set is: other rows in the zones its
    dec +- radius band can touch, with ra inside a window of conservative
    half-width. A |delta dec| test then drops the candidates farther than
    radius (+ DEC_PAD_DEG) in dec alone, and an exact separation filter
    decides on the rest. Each (zone offset, window segment, leading row)
    triple is a needle: a key range located by binary search on the
    composite (zone, ra) sort key. Zone offsets count from each row's own
    zone, zone(dec), so for one offset the target zone rises with the
    leading rows' (zone, ra) order: the needles of leading rows in index
    order arrive almost sorted, and the binary searches stay in cache. The
    needles are built up front, in (offset, segment, row) order, and
    searched and expanded in one pass of array calls; a join is split into
    several passes only to hold at most JOIN_CHUNK_ROWS needles each: a full
    chunk of leading rows takes one pass per zone offset, and a chunk of few
    rows with a wide reach takes many offsets per pass (one pass per offset
    would give a one-row join at 1" zones and r = 180 deg about 1.3 million
    passes). Offsets with no needle are skipped.
    ``candidate_sink``, when given, receives the pre-filter (lead_rows,
    other_rows) stream, and ``candidates`` counts it.
    """
    if len(lead_ra) == 0 or len(key) == 0:
        return _NO_ROWS, _NO_ROWS, np.empty(0), 0
    # zones of dec, dec - r and dec + r in one call; zone_of_array clamps to
    # [0, zone_count), which covers dec +- r past a pole
    own, below, above = zone_of_array(lead_dec + np.array([[0.0], [-radius], [radius]]), cfg)
    obj, seg_lo, seg_hi = _window_segments(lead_ra, ra_halfwidth_array(radius, lead_dec))
    below, above = (below - own)[obj], (above - own)[obj]
    own = own[obj]
    # |zone(dec +- r) - zone(dec)| <= floor(r / h) + 1, and one more for the
    # rounding of dec +- r: a bound from scalars, not from reductions
    reach = min(int(radius / cfg.height_deg) + 2, cfg.zone_count - 1)
    step = max(1, JOIN_CHUNK_ROWS // len(obj))

    lead_parts: list[np.ndarray] = []
    cand_parts: list[np.ndarray] = []
    for k0 in range(-reach, reach + 1, step):
        offsets = np.arange(k0, min(k0 + step, reach + 1))[:, None]
        # needle positions in the (offset, segment) grid, row-major: by zone
        # offset, then segment and leading row
        flat = np.flatnonzero((below <= offsets) & (offsets <= above))
        if flat.size == 0:
            continue
        j = flat % len(obj) if len(offsets) > 1 else flat
        base = (own + offsets).ravel()[flat].astype(np.float64) * KEY_BAND
        li, ci = _expand(key, obj[j], base + seg_lo[j], base + seg_hi[j])
        lead_parts.append(li)
        cand_parts.append(ci)

    li = lead_parts[0] if len(lead_parts) == 1 else np.concatenate(lead_parts)
    ci = cand_parts[0] if len(cand_parts) == 1 else np.concatenate(cand_parts)
    del lead_parts, cand_parts  # free the passes' parts before filtering
    if candidate_sink is not None:
        candidate_sink(li, ci)
    return (*_exact_filter(li, ci, lead_ra, lead_dec, ra, dec, radius), int(li.size))


def _exact_filter(
    li: np.ndarray,
    ci: np.ndarray,
    lead_ra: np.ndarray,
    lead_dec: np.ndarray,
    ra: np.ndarray,
    dec: np.ndarray,
    radius: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate pairs (leading row ``li``, other row ``ci``) within
    ``radius``, as (lead_rows, other_rows, separations). A |delta dec| test
    first drops the pairs farther than radius + DEC_PAD_DEG in dec alone;
    the separation, computed on gathered full-length columns (numpy's
    vector loops, whatever the leading side's length), decides the rest."""
    lead_d, other_d = lead_dec[li], dec[ci]
    near = np.abs(lead_d - other_d) <= radius + DEC_PAD_DEG
    li, ci = li[near], ci[near]
    sep = separation_deg(lead_ra[li], lead_d[near], ra[ci], other_d[near])
    keep = sep <= radius
    return li[keep], ci[keep], sep[keep]


def _take(col: np.ndarray, ranges: Ranges) -> np.ndarray:
    """The rows of ``col`` in ``ranges``, in order; a view for one range."""
    if len(ranges) == 1:
        a, b = ranges[0]
        return col[a:b]
    return np.concatenate([col[a:b] for a, b in ranges])


def _chunks(ranges: Ranges, size: int) -> Iterator[list[tuple[int, int]]]:
    """``ranges`` regrouped, in order, into chunks of at most ``size`` rows,
    each a list of [start, stop) pieces; long ranges are split."""
    chunk: list[tuple[int, int]] = []
    room = size
    for a, b in ranges:
        while a < b:
            stop = min(b, a + room)
            chunk.append((a, stop))
            room -= stop - a
            a = stop
            if room == 0:
                yield chunk
                chunk, room = [], size
    if chunk:
        yield chunk


def _crossmatch_arrays(
    lead_ids: np.ndarray,
    lead_ra: np.ndarray,
    lead_dec: np.ndarray,
    other: ZoneIndex,
    radius: float,
    candidate_sink: CandidateSink | None = None,
    ranges: Ranges | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`_zone_join` of the leading rows in ``ranges`` (all of them by
    default) against an index, with rows mapped to ids: (leading_ids,
    other_ids, separations, candidates), unsorted. ``candidate_sink``
    receives the pre-filter stream as ids.

    The rows are joined JOIN_CHUNK_ROWS at a time, each chunk against the
    other index's rows in zones zone(min dec - r) to zone(max dec + r): one
    slice through ``zone_starts``, holding every zone a row of the chunk can
    reach, so the candidates are those of one whole-index join."""
    if ranges is None:
        ranges = [(0, len(lead_ids))]
    lead_parts, other_parts, sep_parts = [lead_ids[:0]], [other.ids[:0]], [np.empty(0)]
    candidates = 0
    for pieces in _chunks(ranges, JOIN_CHUNK_ROWS):
        ids, ra, dec = (_take(c, pieces) for c in (lead_ids, lead_ra, lead_dec))
        reach = np.array([dec.min() - radius, dec.max() + radius])
        z_lo, z_hi = zone_of_array(reach, other.cfg).tolist()
        o0, o1 = other.zone_starts[[z_lo, z_hi + 1]].tolist()
        other_ids = other.ids[o0:o1]
        sink = None if candidate_sink is None else (
            lambda li, ci: candidate_sink(ids[li], other_ids[ci])
        )
        a, b, sep, n = _zone_join(
            ra, dec, radius, other.ra_key[o0:o1], other.ra[o0:o1], other.dec[o0:o1],
            other.cfg, sink,
        )
        lead_parts.append(ids[a])
        other_parts.append(other_ids[b])
        sep_parts.append(sep)
        candidates += n
    a, b, sep = (np.concatenate(p) for p in (lead_parts, other_parts, sep_parts))
    return a, b, sep, candidates


def zone_crossmatch(
    leading_slices: Sequence[ZoneSlice],
    other: ZoneIndex,
    spec: MatchSpec,
) -> MatchTable:
    """All (leading, other) pairs within spec.radius, ascending by
    (leading_id, other_id).

    Each qualifying pair appears exactly once because every leading object
    lives in exactly one slice and its window segments are disjoint.
    """
    for zone_slice in leading_slices:
        check_same_zones(zone_slice.cfg, other.cfg)
    if not leading_slices:
        no_ids = np.empty(0, dtype=np.uint64)
        return MatchTable(no_ids, no_ids, np.empty(0))
    lead_ids = np.concatenate([s.ids for s in leading_slices])
    lead_ra = np.concatenate([s.ra for s in leading_slices])
    lead_dec = np.concatenate([s.dec for s in leading_slices])
    a, b, sep, _ = _crossmatch_arrays(lead_ids, lead_ra, lead_dec, other, spec.radius)
    return MatchTable.from_unsorted(a, b, sep)


def brute_force_crossmatch(a: ZoneIndex, b: ZoneIndex, radius: float) -> MatchTable:
    """O(n*m) oracle: every pair compared, no zones, no windows.

    Guarded to desk scale; refuses when n*m would exceed 1e8 comparisons.
    Leading rows are compared 512 at a time to bound the matrix size.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    n_pairs = a.total_count * b.total_count
    if n_pairs > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError(
            f"{a.total_count} x {b.total_count} = {n_pairs} comparisons "
            f"exceeds the brute-force guard ({BRUTE_FORCE_PAIR_LIMIT})"
        )
    lead_parts, other_parts, sep_parts = [a.ids[:0]], [b.ids[:0]], [np.empty(0)]
    for start in range(0, a.total_count, 512):
        rows = slice(start, start + 512)
        sep = separation_deg(a.ra[rows, None], a.dec[rows, None], b.ra[None, :], b.dec[None, :])
        ia, ib = np.nonzero(sep <= radius)
        lead_parts.append(a.ids[rows][ia])
        other_parts.append(b.ids[ib])
        sep_parts.append(sep[ia, ib])
    lead, other, sep = (np.concatenate(p) for p in (lead_parts, other_parts, sep_parts))
    # a two-key sort of its own, so the oracle does not share the join's sort
    order = np.lexsort((other, lead))
    return MatchTable(lead[order], other[order], sep[order])


def best_matches(pairs: MatchTable) -> MatchTable:
    """Keep, per leading id, the minimum-separation pair; ties go to the
    lower other_id. Input order does not matter."""
    order = np.lexsort((pairs.other_ids, pairs.separation, pairs.leading_ids))
    lead_sorted = pairs.leading_ids[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = lead_sorted[1:] != lead_sorted[:-1]
    return pairs.take(order[first])
