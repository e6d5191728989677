"""The three query kinds, plus the exhaustive oracle used to verify them.

* scan_filter: magnitude BETWEEN filter; visits every object (no index on
  magnitudes by design).
* zone_crossmatch: all-pairs radius join driven by the leading catalog's
  slices against a full replicated index of the other catalog.
* cone_search: the same zone join, with the cone's centre as a one-row
  leading catalog.
* brute_force_crossmatch: O(n*m) exhaustive comparison, the correctness
  oracle; zone_crossmatch must reproduce its output exactly.

Match semantics are all-pairs-within-radius with an inclusive boundary
(sep <= r); best-match is a post-filter, not a different join.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from .catalog import KEY_BAND, ZoneIndex, ZoneSlice
from .sphere import (
    SkyPoint,
    ZoneConfig,
    ra_halfwidth_array,
    separation_deg,
    zone_of_array,
)

__all__ = [
    "ScanFilter",
    "ConeQuery",
    "MatchSpec",
    "MatchPair",
    "MatchTable",
    "scan_filter",
    "cone_search",
    "zone_crossmatch",
    "brute_force_crossmatch",
    "best_matches",
]

# widen candidate windows by this many degrees: absorbs the quantization of
# the composite zone*512+ra sort key, which can shift an edge by ~1e-10 deg.
# Padding only adds false candidates; the exact filter removes them.
WINDOW_PAD_DEG = 1e-7

# sanity cap on a cross-match radius, degrees
MAX_MATCH_RADIUS_DEG = 10.0

# brute-force oracle refuses above this many pairwise comparisons
BRUTE_FORCE_PAIR_LIMIT = 10**8

CandidateSink = Callable[[np.ndarray, np.ndarray], None]

_NO_ROWS = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class ScanFilter:
    """Inclusive magnitude range on one band; missing magnitudes never pass."""

    band: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
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
    """Cross-match parameters. ``leading`` optionally names the catalog whose
    zones drive partitioning (binding is positional; the label is checked
    when set)."""

    radius: float
    leading: str | None = None

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
        """The pairs of three equal-length columns, sorted into canonical order."""
        order = np.lexsort((other_ids, leading_ids))
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
    """(id, value) rows in ascending id order."""
    order = np.argsort(ids)
    return [(int(i), float(v)) for i, v in zip(ids[order], values[order])]


def _mag_filter(
    ids: np.ndarray, col: np.ndarray, f: ScanFilter
) -> tuple[np.ndarray, np.ndarray]:
    """The ids and magnitudes of rows whose magnitude lies in [lo, hi]."""
    mask = (col >= f.lo) & (col <= f.hi)  # NaN (missing) compares False
    return ids[mask], col[mask]


def scan_filter(
    slices: Sequence[ZoneSlice], f: ScanFilter
) -> list[tuple[int, float]]:
    """Objects whose ``f.band`` magnitude lies in [lo, hi], ascending by id.

    Every object in the given slices is visited; there is deliberately no
    index over magnitudes.
    """
    for zone_slice in slices:
        if f.band not in zone_slice.bands:
            raise ValueError(
                f"unknown band {f.band!r}; catalog has {list(zone_slice.bands)}"
            )
    if not slices:
        return []
    ids = np.concatenate([s.ids for s in slices])
    col = np.concatenate([s.mags[:, s.bands.index(f.band)] for s in slices])
    return _by_id(*_mag_filter(ids, col, f))


def _cone_join(
    q: ConeQuery, key: np.ndarray, ra: np.ndarray, dec: np.ndarray, cfg: ZoneConfig
) -> tuple[np.ndarray, np.ndarray, int]:
    """A cone as a one-row zone join: (rows, separations, candidates)."""
    _, rows, sep, candidates = _zone_join(
        np.array([q.center.ra]), np.array([q.center.dec]), q.radius, key, ra, dec, cfg
    )
    return rows, sep, candidates


def cone_search(index: ZoneIndex, q: ConeQuery) -> list[tuple[int, float]]:
    """All objects within q.radius of q.center as (id, separation), by id."""
    rows, sep, _ = _cone_join(q, index.ra_key, index.ra, index.dec, index.cfg)
    return _by_id(index.ids[rows], sep)


def _window_segments(
    ra: np.ndarray, alpha: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split padded ra windows into half-open segments inside [0, 360).

    Returns up to three (object_index, lo, hi) groups: the main segment for
    every object, plus wrap segments for windows crossing 0/360. Segments of
    one object never overlap, so no candidate is produced twice.
    """
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
    half-width; an exact separation filter then decides. Candidate ranges are
    located with binary searches on the composite (zone, ra) sort key, so the
    whole batch runs as a handful of array passes. ``candidate_sink``, when
    given, receives the pre-filter (lead_rows, other_rows) stream.
    """
    if len(lead_ra) == 0 or len(key) == 0:
        return _NO_ROWS, _NO_ROWS, np.empty(0), 0
    # zone_of_array clamps to [0, zone_count), which covers dec +- r past a pole
    z_lo = zone_of_array(lead_dec - radius, cfg)
    z_hi = zone_of_array(lead_dec + radius, cfg)
    alpha = ra_halfwidth_array(radius, lead_dec)
    segments = _window_segments(lead_ra, alpha)

    lead_parts: list[np.ndarray] = []
    cand_parts: list[np.ndarray] = []
    for k in range(int((z_hi - z_lo).max()) + 1):
        zone_k = z_lo + k
        for obj_idx, seg_lo, seg_hi in segments:
            act = np.nonzero(zone_k[obj_idx] <= z_hi[obj_idx])[0]
            if act.size == 0:
                continue
            obj = obj_idx[act]
            base = zone_k[obj].astype(np.float64) * KEY_BAND
            i0 = np.searchsorted(key, base + seg_lo[act], side="left")
            # closed upper bound: a stored key for ra just under 360 can round
            # up to exactly zone*KEY_BAND + 360, and the gap to the next zone
            # band makes including equality safe (never pulls in another zone)
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
    sep = separation_deg(lead_ra[li], lead_dec[li], ra[ci], dec[ci])
    keep = sep <= radius
    return li[keep], ci[keep], sep[keep], int(li.size)


def _crossmatch_arrays(
    lead_ids: np.ndarray,
    lead_ra: np.ndarray,
    lead_dec: np.ndarray,
    other: ZoneIndex,
    radius: float,
    candidate_sink: CandidateSink | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`_zone_join` against a whole index, with rows mapped to ids:
    (leading_ids, other_ids, separations, candidates), unsorted.
    ``candidate_sink`` receives the pre-filter stream as ids."""
    sink = None
    if candidate_sink is not None:

        def sink(li: np.ndarray, ci: np.ndarray) -> None:
            candidate_sink(lead_ids[li], other.ids[ci])

    a, b, sep, candidates = _zone_join(
        lead_ra, lead_dec, radius, other.ra_key, other.ra, other.dec, other.cfg, sink
    )
    return lead_ids[a], other.ids[b], sep, candidates


def zone_crossmatch(
    leading_slices: Sequence[ZoneSlice],
    other: ZoneIndex,
    spec: MatchSpec,
    candidate_sink: CandidateSink | None = None,
) -> MatchTable:
    """All (leading, other) pairs within spec.radius, ascending by
    (leading_id, other_id).

    Each qualifying pair appears exactly once because every leading object
    lives in exactly one slice and its window segments are disjoint.
    ``candidate_sink``, when given, receives the pre-filter candidate id
    stream (for completeness instrumentation).
    """
    for zone_slice in leading_slices:
        if zone_slice.cfg != other.cfg:
            raise ValueError(
                "mismatched zone configuration between leading slices and "
                f"other catalog: {zone_slice.cfg} vs {other.cfg}"
            )
    if not leading_slices:
        no_ids = np.empty(0, dtype=np.uint64)
        return MatchTable(no_ids, no_ids, np.empty(0))
    lead_ids = np.concatenate([s.ids for s in leading_slices])
    lead_ra = np.concatenate([s.ra for s in leading_slices])
    lead_dec = np.concatenate([s.dec for s in leading_slices])
    a, b, sep, _ = _crossmatch_arrays(
        lead_ids, lead_ra, lead_dec, other, spec.radius, candidate_sink
    )
    return MatchTable.from_unsorted(a, b, sep)


def _brute_force_arrays(
    a: ZoneIndex, b: ZoneIndex, radius: float, chunk: int = 512
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive all-pairs comparison, chunked to bound the matrix size."""
    la_parts: list[np.ndarray] = []
    lb_parts: list[np.ndarray] = []
    sep_parts: list[np.ndarray] = []
    for start in range(0, a.total_count, chunk):
        stop = min(start + chunk, a.total_count)
        sep = separation_deg(
            a.ra[start:stop, None],
            a.dec[start:stop, None],
            b.ra[None, :],
            b.dec[None, :],
        )
        ia, ib = np.nonzero(sep <= radius)
        la_parts.append(a.ids[start:stop][ia])
        lb_parts.append(b.ids[ib])
        sep_parts.append(sep[ia, ib])
    return (
        np.concatenate(la_parts) if la_parts else np.empty(0, dtype=np.uint64),
        np.concatenate(lb_parts) if lb_parts else np.empty(0, dtype=np.uint64),
        np.concatenate(sep_parts) if sep_parts else np.empty(0),
    )


def brute_force_crossmatch(a: ZoneIndex, b: ZoneIndex, radius: float) -> MatchTable:
    """O(n*m) oracle: every pair compared, no zones, no windows.

    Guarded to desk scale; refuses when n*m would exceed 1e8 comparisons.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    n_pairs = a.total_count * b.total_count
    if n_pairs > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError(
            f"{a.total_count} x {b.total_count} = {n_pairs} comparisons "
            f"exceeds the brute-force guard ({BRUTE_FORCE_PAIR_LIMIT})"
        )
    return MatchTable.from_unsorted(*_brute_force_arrays(a, b, radius))


def best_matches(pairs: Sequence[MatchPair]) -> MatchTable:
    """Keep, per leading id, the minimum-separation pair; ties go to the
    lower other_id. Input order does not matter."""
    if not isinstance(pairs, MatchTable):  # converted once, at the API edge
        fields = attrgetter("leading_id", "other_id", "separation")
        lead, other, sep = zip(*map(fields, pairs)) if pairs else ((), (), ())
        ids = (np.array(c, dtype=np.uint64) for c in (lead, other))
        pairs = MatchTable.from_unsorted(*ids, np.array(sep, dtype=np.float64))
    order = np.lexsort((pairs.other_ids, pairs.separation, pairs.leading_ids))
    lead_sorted = pairs.leading_ids[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = lead_sorted[1:] != lead_sorted[:-1]
    return pairs.take(order[first])
