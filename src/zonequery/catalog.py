"""Catalog ingestion and the zone index.

A catalog is a flat CSV with header ``id,ra,dec,<band1>,<band2>,...``. The
index reorganizes it into declination zones, each zone's objects sorted by
(ra, id); that ordering is what lets every query replace full scans with a
zone range plus binary searches on ra.

The in-memory layout is struct-of-arrays: one contiguous array per column,
ordered by (zone, ra, id), plus a zone offset table. A ZoneSlice is a cheap
view into those arrays. ``ra_key`` interleaves the zone into the sort key
(zone * 512 + ra) so a window inside one zone becomes a single sorted-range
lookup over the whole catalog; 512 is a power of two wider than 360, which
keeps zone key bands exact and separated by a gap that absorbs rounding.
"""

from __future__ import annotations

import csv
import math
import sys
import zipfile
import zlib
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .sphere import ZoneConfig, ZoneId, normalize_ra_array, zone_of_array

__all__ = [
    "ZoneSlice",
    "ZoneIndex",
    "ZoneHistogram",
    "IngestError",
    "SnapshotFormatError",
    "ingest_csv",
    "build_index",
    "histogram",
    "save_index",
    "load_index",
]

# zone * KEY_BAND + ra; power of two > 360 so the product is exact and zones
# stay separated by a gap in key space
KEY_BAND = 512.0

SNAPSHOT_VERSION = 2

# v2 column members and their required dtypes; v2 also stores zone_starts
_V2_COLUMNS = {"ids": np.uint64, "ra": np.float64, "dec": np.float64, "mags": np.float64}
_V2_MEMBERS = frozenset(
    {"version", "name", "height_deg", "bands", "zone_starts", *_V2_COLUMNS}
)

# fraction of rejected rows above which ingestion fails outright
MAX_REJECT_FRACTION = 0.01

# CSV rows formatted per write: one format call per chunk, bounded memory
_CHUNK_ROWS = 8192


class IngestError(ValueError):
    """Raised when a catalog file cannot be ingested."""


class SnapshotFormatError(ValueError):
    """Raised when an index snapshot file is unreadable or wrong version."""


@dataclass(frozen=True)
class ZoneSlice:
    """All objects of one zone, sorted ascending by (ra, id). Array fields are
    views into the parent index; do not mutate."""

    zone: ZoneId
    cfg: ZoneConfig
    bands: tuple[str, ...]
    ids: np.ndarray
    ra: np.ndarray
    dec: np.ndarray
    mags: np.ndarray  # shape (len(ids), len(bands)), NaN = missing

    def __len__(self) -> int:
        return len(self.ids)


class ZoneIndex:
    """A catalog reorganized into declination zones.

    Immutable after construction; safe to read from any number of threads.
    """

    def __init__(
        self,
        name: str,
        cfg: ZoneConfig,
        bands: tuple[str, ...],
        ids: np.ndarray,
        ra: np.ndarray,
        dec: np.ndarray,
        mags: np.ndarray,
        zone_starts: np.ndarray,
    ) -> None:
        self.name = name
        self.cfg = cfg
        self.bands = bands
        self.ids = ids
        self.ra = ra
        self.dec = dec
        self.mags = mags
        self.zone_starts = zone_starts
        zone_base = np.arange(cfg.zone_count, dtype=np.float64) * KEY_BAND
        self.ra_key = np.repeat(zone_base, np.diff(zone_starts)) + ra

    @property
    def total_count(self) -> int:
        return len(self.ids)

    @property
    def row_bytes(self) -> int:
        """Approximate stored bytes per object, for I/O-style accounting."""
        return 8 * (3 + len(self.bands))

    def band_column(self, band: str) -> np.ndarray:
        if band not in self.bands:
            raise ValueError(f"unknown band {band!r}; catalog has {list(self.bands)}")
        return self.mags[:, self.bands.index(band)]

    def slices(self) -> Iterator[ZoneSlice]:
        """Non-empty slices in zone order."""
        for zone in np.flatnonzero(np.diff(self.zone_starts)).tolist():
            a, b = self.zone_starts[zone : zone + 2].tolist()
            yield ZoneSlice(
                zone=zone,
                cfg=self.cfg,
                bands=self.bands,
                ids=self.ids[a:b],
                ra=self.ra[a:b],
                dec=self.dec[a:b],
                mags=self.mags[a:b],
            )


@dataclass(frozen=True)
class ZoneHistogram:
    """Per-zone object counts; zones with no objects count zero."""

    counts: np.ndarray

    @property
    def total_count(self) -> int:
        return int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.counts)


def build_index(
    name: str,
    cfg: ZoneConfig,
    ids: np.ndarray,
    ra: np.ndarray,
    dec: np.ndarray,
    mags: np.ndarray | None = None,
    bands: Sequence[str] = (),
) -> ZoneIndex:
    """Build a ZoneIndex from raw column arrays.

    ra must be finite and is normalized into [0, 360); dec must already be
    within [-90, +90].
    Rows are ordered by (zone, ra, id); the id tie-break makes rebuilds
    byte-deterministic.
    """
    ids = np.ascontiguousarray(ids, dtype=np.uint64)
    ra = np.ascontiguousarray(ra, dtype=np.float64)
    dec = np.ascontiguousarray(dec, dtype=np.float64)
    bands = tuple(bands)
    if mags is None:
        mags = np.empty((len(ids), 0))
    mags = np.ascontiguousarray(mags, dtype=np.float64).reshape(len(ids), len(bands))
    if len(ids) != len(ra) or len(ids) != len(dec):
        raise ValueError("id/ra/dec arrays must have equal length")
    # written so that NaN fails too; a snapshot with NaN would not load
    if not np.all((dec >= -90.0) & (dec <= 90.0)):
        raise ValueError("dec not finite within [-90, +90]")
    if not np.all(np.isfinite(ra)):
        raise ValueError("ra not finite")
    ra = normalize_ra_array(ra)
    if _has_duplicates(ids):
        raise ValueError(f"duplicate object ids in catalog {name!r}")

    zone = zone_of_array(dec, cfg)
    order = np.lexsort((ids, ra, zone))
    ids, ra, dec, zone, mags = ids[order], ra[order], dec[order], zone[order], mags[order]
    zone_starts = np.searchsorted(zone, np.arange(cfg.zone_count + 1))
    return ZoneIndex(name, cfg, bands, ids, ra, dec, mags, zone_starts)


def _has_duplicates(ids: np.ndarray) -> bool:
    """True when some id occurs more than once: one sort, then adjacent equality."""
    s = np.sort(ids)
    return bool(np.any(s[1:] == s[:-1]))


def _rows_ordered(zone: np.ndarray, ra: np.ndarray, ids: np.ndarray) -> bool:
    """True when rows strictly increase by (zone, ra, id)."""
    z0, z1 = zone[:-1], zone[1:]
    r0, r1 = ra[:-1], ra[1:]
    later = (z1 > z0) | ((z1 == z0) & ((r1 > r0) | ((r1 == r0) & (ids[1:] > ids[:-1]))))
    return bool(np.all(later))


def _parse_header(row: list[str], bands: Sequence[str] | None) -> tuple[str, ...]:
    fixed = [c.strip() for c in row[:3]]
    if fixed != ["id", "ra", "dec"]:
        raise IngestError(f"malformed header: expected id,ra,dec,... got {row!r}")
    available = [c.strip() for c in row[3:]]
    if len(set(available)) != len(available):
        raise IngestError(f"malformed header: duplicate band names in {row!r}")
    if bands is None:
        return tuple(available)
    missing = [b for b in bands if b not in available]
    if missing:
        raise IngestError(f"requested bands {missing} not in header {row!r}")
    return tuple(bands)


def ingest_csv(
    path: str | Path,
    bands: Sequence[str] | None = None,
    cfg: ZoneConfig = ZoneConfig(),
    name: str | None = None,
    on_reject: Callable[[str], None] | None = None,
) -> ZoneIndex:
    """Ingest a catalog CSV and build its zone index.

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

    if total_rows and len(rejects) > MAX_REJECT_FRACTION * total_rows:
        shown = "; ".join(rejects[:5])
        raise IngestError(
            f"{path}: {len(rejects)}/{total_rows} rows rejected (> "
            f"{MAX_REJECT_FRACTION:.0%}): {shown}"
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


def _format_rows(row_format: str, columns: Sequence) -> Iterator[str]:
    """The rows of ``columns`` (equal-length arrays or tuples; none for no
    rows), each formatted by ``row_format``, one string per _CHUNK_ROWS rows."""
    for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
        chunk = [col[start : start + _CHUNK_ROWS] for col in columns]
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
        yield row_format * len(chunk[0]) % tuple(chain.from_iterable(rows))


def _write_csv(path: str | Path | None, header: str, row_format: str, columns) -> None:
    """Write a CSV: ``header``, then ``columns`` formatted row by row with
    ``row_format``; to stdout for a path of None or "-". Catalogs and query
    results are both written here."""
    to_stdout = path is None or path == "-"
    fh = sys.stdout if to_stdout else open(path, "w", encoding="utf-8", newline="\n")
    try:
        fh.write(header)
        fh.writelines(_format_rows(row_format, columns))
    finally:
        if not to_stdout:
            fh.close()


def histogram(index: ZoneIndex) -> ZoneHistogram:
    """Per-zone object counts for the whole index."""
    return ZoneHistogram(np.diff(index.zone_starts).astype(np.int64))


def save_index(index: ZoneIndex, path: str | Path) -> None:
    """Write a single-file binary snapshot of the built index.

    The columns are stored in (zone, ra, id) order together with
    ``zone_starts``, so loading checks the index instead of rebuilding it.
    """
    # write through a handle so the exact path is honored (np.savez would
    # append .npz to a bare filename)
    with Path(path).open("wb") as fh:
        np.savez(
            fh,
            version=np.array(SNAPSHOT_VERSION, dtype=np.int64),
            name=np.array(index.name),
            height_deg=np.array(index.cfg.height_deg),
            bands=np.array(index.bands, dtype="U"),
            ids=index.ids,
            ra=index.ra,
            dec=index.dec,
            mags=index.mags,
            zone_starts=index.zone_starts,
        )


def load_index(path: str | Path) -> ZoneIndex:
    """Load a snapshot.

    A v2 snapshot is checked in O(n), plus one sort of the ids, and used as
    stored; a v1 snapshot holds raw columns and is rebuilt with build_index.
    Any unreadable, corrupt or inconsistent file raises SnapshotFormatError.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotFormatError(f"no such file: {path}")
    try:
        # our own handle: np.load(path) leaves its file open when the
        # archive is unreadable
        with path.open("rb") as fh, np.load(fh, allow_pickle=False) as data:
            if "version" not in data:
                raise SnapshotFormatError(f"{path}: not a zonequery index snapshot")
            version = int(data["version"])
            if version not in (1, SNAPSHOT_VERSION):
                raise SnapshotFormatError(
                    f"{path}: snapshot version {version}, expected 1 or {SNAPSHOT_VERSION}"
                )
            name = str(data["name"])
            cfg = ZoneConfig(float(data["height_deg"]))
            bands = tuple(str(b) for b in data["bands"])
            if version == 1:
                return build_index(
                    name, cfg, data["ids"], data["ra"], data["dec"], data["mags"], bands
                )
            return _checked_v2(path, data, name, cfg, bands)
    except SnapshotFormatError:
        raise
    # a damaged archive surfaces as BadZipFile (also a bad member CRC-32),
    # EOFError (empty file) or zlib.error (a damaged compressed member); a
    # scalar member of the wrong shape as TypeError
    except (
        OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile, zlib.error
    ) as exc:
        raise SnapshotFormatError(f"{path}: unreadable snapshot ({exc})") from exc


def _checked_v2(
    path: Path, data, name: str, cfg: ZoneConfig, bands: tuple[str, ...]
) -> ZoneIndex:
    """Wrap a v2 snapshot's stored index after checking every invariant
    build_index establishes; the first broken one raises SnapshotFormatError."""

    def bad(reason: str) -> SnapshotFormatError:
        return SnapshotFormatError(f"{path}: corrupt snapshot: {reason}")

    members = set(data.files)
    if members != _V2_MEMBERS:
        raise bad(
            f"missing members {sorted(_V2_MEMBERS - members)}, "
            f"unexpected members {sorted(members - _V2_MEMBERS)}"
        )
    columns = {key: data[key] for key in _V2_COLUMNS}
    for key, dtype in _V2_COLUMNS.items():
        if columns[key].dtype != dtype:
            raise bad(f"{key} has dtype {columns[key].dtype}, expected {np.dtype(dtype)}")
    ids, ra, dec, mags = columns.values()
    if ids.ndim != 1 or ra.shape != ids.shape or dec.shape != ids.shape:
        raise bad(f"ids, ra, dec shapes {ids.shape}, {ra.shape}, {dec.shape} differ")
    n = len(ids)
    if mags.shape != (n, len(bands)):
        raise bad(f"mags has shape {mags.shape}, expected {(n, len(bands))}")
    stored_starts = data["zone_starts"]
    if stored_starts.dtype.kind not in "iu" or stored_starts.shape != (cfg.zone_count + 1,):
        raise bad(f"zone_starts must be {cfg.zone_count + 1} integers")
    if stored_starts[0] != 0 or stored_starts[-1] != n:
        raise bad(f"zone_starts must run from 0 to {n}")
    if not np.all((dec >= -90.0) & (dec <= 90.0)):
        raise bad("dec not finite within [-90, 90]")
    if not np.all((ra >= 0.0) & (ra < 360.0)):
        raise bad("ra not finite within [0, 360)")
    zone = zone_of_array(dec, cfg)
    if not _rows_ordered(zone, ra, ids):
        raise bad("rows not in strictly increasing (zone, ra, id) order")
    zone_starts = np.searchsorted(zone, np.arange(cfg.zone_count + 1))
    if not np.array_equal(zone_starts, stored_starts):
        raise bad("zone_starts disagree with the zones of dec")
    if _has_duplicates(ids):
        raise bad("duplicate object ids")
    return ZoneIndex(name, cfg, bands, ids, ra, dec, mags, zone_starts)
