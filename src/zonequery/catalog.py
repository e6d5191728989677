"""The zone index: its layout, the invariants ``build_index`` establishes,
and the snapshot file that ``load_index`` checks them on.

The index reorganizes a catalog (see ``ingest`` for its CSV form) into
declination zones, each zone's objects sorted by (ra, id); that ordering is
what lets every query replace full scans with a zone range plus binary
searches on ra.

The in-memory layout is struct-of-arrays: one contiguous array per column,
ordered by (zone, ra, id), plus a zone offset table. A ZoneSlice is a cheap
view into those arrays. ``ra_key`` interleaves the zone into the sort key
(zone * 512 + ra) so a window inside one zone becomes a single sorted-range
lookup over the whole catalog; 512 is a power of two wider than 360, which
keeps zone key bands exact and separated by a gap that absorbs rounding.
"""

from __future__ import annotations

import math
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.lib import format as npy

from .output import _open_output
from .sphere import ZoneConfig, ZoneId, normalize_ra_array, zone_of_array

__all__ = [
    "ZoneSlice",
    "ZoneIndex",
    "SnapshotFormatError",
    "build_index",
    "histogram",
    "save_index",
    "load_index",
]

# zone * KEY_BAND + ra; power of two > 360 so the product is exact and zones
# stay separated by a gap in key space
KEY_BAND = 512.0

SNAPSHOT_VERSION = 2

# snapshot column members and their required dtypes; zone_starts is stored too
_SNAPSHOT_COLUMNS = {"ids": np.uint64, "ra": np.float64, "dec": np.float64, "mags": np.float64}
_SNAPSHOT_MEMBERS = frozenset(
    {"version", "name", "height_deg", "bands", "zone_starts", *_SNAPSHOT_COLUMNS}
)
# the .npy header readers of the format versions load_index(mags=False) streams
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}


class SnapshotFormatError(ValueError):
    """Raised when an index snapshot file is unreadable or wrong version."""


@dataclass(frozen=True)
class ZoneSlice:
    """All objects of one zone, sorted ascending by (ra, id). Array fields are
    views into the parent index; do not mutate."""

    zone: ZoneId
    cfg: ZoneConfig
    ids: np.ndarray
    ra: np.ndarray
    dec: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False, repr=False)
class ZoneIndex:
    """A catalog reorganized into declination zones.

    Immutable after construction; safe to read from any number of threads.
    ``ra_key`` is built on first access; threads that race there may each
    build it, the same array, and one of them is kept.
    """

    name: str
    cfg: ZoneConfig
    bands: tuple[str, ...]
    ids: np.ndarray
    ra: np.ndarray
    dec: np.ndarray
    mags: np.ndarray
    zone_starts: np.ndarray

    @cached_property
    def ra_key(self) -> np.ndarray:
        """zone * KEY_BAND + ra per row: sorted, as the rows are, over the
        whole catalog. Only an index searched by a cone or as the other side
        of a cross-match needs it, so it is not built before."""
        zone_base = np.arange(self.cfg.zone_count, dtype=np.float64) * KEY_BAND
        return np.repeat(zone_base, np.diff(self.zone_starts)) + self.ra

    @property
    def total_count(self) -> int:
        return len(self.ids)

    def band_column(self, band: str) -> np.ndarray:
        if band not in self.bands:
            raise ValueError(f"unknown band {band!r}; catalog has {list(self.bands)}")
        return self.mags[:, self.bands.index(band)]

    def slices(self) -> Iterator[ZoneSlice]:
        """Non-empty slices in zone order."""
        for zone in np.flatnonzero(np.diff(self.zone_starts)).tolist():
            a, b = self.zone_starts[zone : zone + 2].tolist()
            yield ZoneSlice(zone, self.cfg, self.ids[a:b], self.ra[a:b], self.dec[a:b])


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
    Rows are ordered by (zone, ra, id), a total order since ids are unique,
    so the index does not depend on the input's row order. One in-place sort
    of uint64 words does the ordering. A row's word holds, from the top, its
    zone, its ra scaled to the bits left (``ra * 2**ra_bits / 360`` cut to
    an integer, clamped below ``2**ra_bits``) and its row number, which the
    sorted words give back as the permutation. Scaling, truncation and the
    clamp are monotone, so the words never fall along (zone, ra), and only
    rows with equal (zone, scaled ra) can be out of place. Those rows alone
    are then put in order by one lexsort on their sorted words' high bits,
    ra and id. Rows with equal high bits share a zone, and the high bits
    rise from one tie run to the next, so this is their (zone, ra, id) order
    and each run keeps its positions.
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
    zone_starts = np.concatenate(([0], np.cumsum(np.bincount(zone, minlength=cfg.zone_count))))
    row_bits = max(len(ids) - 1, 1).bit_length()
    ra_bits = 64 - row_bits - max(cfg.zone_count - 1, 1).bit_length()
    # the zones' buffer becomes the words; uint64 scalars only, as numpy 1.x
    # turns uint64 mixed with a Python int into float64
    words = zone.view(np.uint64)
    words <<= np.uint64(ra_bits)
    scaled = (ra * (2.0**ra_bits / 360.0)).astype(np.uint64)
    words |= np.minimum(scaled, np.uint64((1 << ra_bits) - 1), out=scaled)
    del scaled
    words <<= np.uint64(row_bits)
    words |= np.arange(len(ids), dtype=np.uint64)
    words.sort()
    cell = words >> np.uint64(row_bits)
    same = cell[1:] == cell[:-1]
    words &= np.uint64((1 << row_bits) - 1)
    order = words.view(np.intp)
    if same.any():
        tied = np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))
        rows = order[tied]
        order[tied] = rows[np.lexsort((ids[rows], ra[rows], cell[tied]))]
    del cell
    ids, ra, dec, mags = ids.take(order), ra.take(order), dec.take(order), mags.take(order, axis=0)
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


def histogram(index: ZoneIndex) -> np.ndarray:
    """Per-zone object counts for the whole index, as an int64 array with
    one entry per zone; zones with no objects count zero."""
    return np.diff(index.zone_starts).astype(np.int64)


def save_index(index: ZoneIndex, path: str | Path) -> None:
    """Write a single-file binary snapshot of the built index.

    The columns are stored in (zone, ra, id) order together with
    ``zone_starts``, so loading checks the index instead of rebuilding it.
    """
    # write through a handle so the exact path is honored (np.savez would
    # append .npz to a bare filename)
    with _open_output(path, "wb") as fh:
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


def load_index(path: str | Path, *, mags: bool = True) -> ZoneIndex:
    """Load a snapshot.

    The snapshot is checked in O(n), plus one sort of the ids, and used as
    stored. Any unreadable, corrupt or inconsistent file, or one of another
    version, raises SnapshotFormatError. With ``mags=False`` the magnitudes
    are read and checked as fully, with the same errors, but not kept: the
    index has no bands and an (n, 0) ``mags``, which is all a cone or a
    cross-match needs.
    """
    path = Path(path)
    if not path.exists():
        raise SnapshotFormatError(f"no such file: {path}")
    try:
        # our own handle: np.load(path) leaves its file open when the
        # archive is unreadable
        with path.open("rb") as fh:
            # np.load reads a file that is no zip archive (a CSV, a bare .npy)
            # as a pickle or an array; an empty file goes on to be unreadable
            if fh.read(4) not in (b"", b"PK\x03\x04"):
                raise SnapshotFormatError(f"{path}: not a zonequery index snapshot")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as data:
                if "version" not in data:
                    raise SnapshotFormatError(f"{path}: not a zonequery index snapshot")
                version = int(data["version"])
                if version != SNAPSHOT_VERSION:
                    raise SnapshotFormatError(
                        f"{path}: snapshot version {version}, expected {SNAPSHOT_VERSION}"
                    )
                name = str(data["name"])
                cfg = ZoneConfig(float(data["height_deg"]))
                bands = tuple(str(b) for b in data["bands"])
                return _checked_snapshot(path, data, name, cfg, bands, mags)
    except SnapshotFormatError:
        raise
    # a damaged archive surfaces as BadZipFile (also a bad member CRC-32),
    # EOFError (empty file) or zlib.error (a damaged compressed member); a
    # scalar member of the wrong shape as TypeError; a member header claiming
    # more elements than can be allocated as MemoryError
    except (
        OSError, ValueError, TypeError, KeyError, EOFError, MemoryError,
        zipfile.BadZipFile, zlib.error,
    ) as exc:
        raise SnapshotFormatError(f"{path}: unreadable snapshot ({exc})") from exc


def _checked_snapshot(
    path: Path, data, name: str, cfg: ZoneConfig, bands: tuple[str, ...], keep_mags: bool
) -> ZoneIndex:
    """Wrap a snapshot's stored index after checking every invariant
    build_index establishes; the first broken one raises SnapshotFormatError.
    Without ``keep_mags`` the index has no bands and no magnitudes."""

    def bad(reason: str) -> SnapshotFormatError:
        return SnapshotFormatError(f"{path}: corrupt snapshot: {reason}")

    members = set(data.files)
    if members != _SNAPSHOT_MEMBERS:
        raise bad(
            f"missing members {sorted(_SNAPSHOT_MEMBERS - members)}, "
            f"unexpected members {sorted(members - _SNAPSHOT_MEMBERS)}"
        )
    columns = {
        key: data[key] if keep_mags or key != "mags" else _read_through(data, key)
        for key in _SNAPSHOT_COLUMNS
    }
    for key, dtype in _SNAPSHOT_COLUMNS.items():
        if not isinstance(columns[key], np.ndarray):  # np.load's bytes for a non-.npy member
            raise bad(f"{key} is not a .npy array")
        if columns[key].dtype != dtype:
            raise bad(f"{key} has dtype {columns[key].dtype}, expected {np.dtype(dtype)}")
    ids, ra, dec, mags = columns.values()
    if ids.ndim != 1 or ra.shape != ids.shape or dec.shape != ids.shape:
        raise bad(f"ids, ra, dec shapes {ids.shape}, {ra.shape}, {dec.shape} differ")
    n = len(ids)
    if mags.shape != (n, len(bands)):
        raise bad(f"mags has shape {mags.shape}, expected {(n, len(bands))}")
    stored_starts = data["zone_starts"]
    if (
        not isinstance(stored_starts, np.ndarray)
        or stored_starts.dtype.kind not in "iu"
        or stored_starts.shape != (cfg.zone_count + 1,)
    ):
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
    if not keep_mags:
        bands, mags = (), np.empty((n, 0))
    return ZoneIndex(name, cfg, bands, ids, ra, dec, mags, zone_starts)


def _read_through(data, key: str) -> np.ndarray:
    """A float64 member of the archive ``data`` (an ``np.load`` NpzFile)
    read to its end without being kept: zipfile checks its CRC-32 and its
    decompression on the way, and a zero-stride array of the stored shape
    stands in for it. Pieces are read as ``np.load`` reads them, so a short
    member fails with its message; a member that is not a plain float64
    .npy array goes through ``np.load`` itself, errors and all."""
    name = key if key in data.zip.namelist() else key + ".npy"  # np.load's lookup
    info = data.zip.getinfo(name)
    with data.zip.open(info) as fp:
        magic = fp.read(len(npy.MAGIC_PREFIX)) == npy.MAGIC_PREFIX
        fp.seek(0)
        read_header = _NPY_HEADERS.get(npy.read_magic(fp) if magic else None)
        shape, _, dtype = read_header(fp) if read_header else ((), False, None)
        nbytes = 8 * math.prod(shape)
        plain = dtype == np.float64 and min(shape, default=0) >= 0 and nbytes <= info.file_size
        for start in range(0, nbytes if plain else 0, npy.BUFFER_SIZE):
            size = min(npy.BUFFER_SIZE, nbytes - start)
            got = len(fp.read(size))
            if got != size:
                raise ValueError(f"EOF: reading array data, expected {size} bytes got {got}")
    return np.broadcast_to(np.float64(0.0), shape) if plain else data[key]
