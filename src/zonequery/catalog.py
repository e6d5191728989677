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
import os
import stat
import sys
import zipfile
import zlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np
from numpy.lib import format as npy

from .sphere import ZoneConfig, ZoneId, normalize_ra_array, zone_of_array

__all__ = [
    "ZoneSlice",
    "ZoneIndex",
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

# snapshot column members and their required dtypes; zone_starts is stored too
_SNAPSHOT_COLUMNS = {"ids": np.uint64, "ra": np.float64, "dec": np.float64, "mags": np.float64}
_SNAPSHOT_MEMBERS = frozenset(
    {"version", "name", "height_deg", "bands", "zone_starts", *_SNAPSHOT_COLUMNS}
)
# the .npy header readers of the format versions load_index(mags=False) streams
_NPY_HEADERS = {(1, 0): npy.read_array_header_1_0, (2, 0): npy.read_array_header_2_0}

# fraction of rejected rows above which ingestion fails outright
MAX_REJECT_FRACTION = 0.01

# CSV rows formatted per write: one format call per chunk, bounded memory
_CHUNK_ROWS = 8192

# chunks of rows with a %r field from which _write_csv forks; with fewer,
# forking lost time on some formats (see CHANGES.md)
_FORK_CHUNKS = 4

# bytes of a catalog CSV read and bulk-parsed at a time (rounded to lines)
_BLOCK_BYTES = 1 << 20

# byte classes of _certify, as a bytes.translate table
_DIGIT, _NUMBER, _COMMA, _NEWLINE, _OTHER = range(5)
_BYTE_CLASS = bytes(
    _DIGIT if c in b"0123456789"
    else _NUMBER if c in b".eE+-"
    else _COMMA if c == ord(",")
    else _NEWLINE if c == ord("\n")
    else _OTHER
    for c in range(256)
)
# bytes of _DIGIT class after a block's classes: an id's 3 words reach 23
# bytes past the start of the last line
_ID_PAD = 24


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


def _parse_header(row: list[str], bands: Sequence[str] | None) -> tuple[str, ...]:
    fixed = [c.strip() for c in row[:3]]
    if fixed != ["id", "ra", "dec"]:
        raise IngestError(f"malformed header: expected id,ra,dec,... got {row!r}")
    available = [c.strip() for c in row[3:]]
    if "" in available:
        raise IngestError(f"malformed header: empty band name in {row!r}")
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
    on_reject: Callable[[str], None] | None = None,
) -> ZoneIndex:
    """Ingest a catalog CSV and build its zone index.

    ``bands`` selects a projection of the header's magnitude columns (all of
    them when None). Rows with unparseable or out-of-range values are
    rejected individually and reported as ``line <n>: <reason>`` through
    ``on_reject``, in line order; more than 1% rejected rows aborts with
    IngestError. Empty magnitude fields mean missing and are stored as NaN.

    A record is one line, ended by LF, CRLF or a lone CR, after a leading
    UTF-8 byte-order mark. Plain lines (see ``_certify``), empty magnitudes
    included, are parsed in bulk; every other line goes through
    ``_check_row``, which alone words the reject messages. The data of a
    regular file is parsed in one process per CPU, each on its own run of
    the reader's blocks, whatever its line ends (see ``_read``); the result,
    the messages and the errors are those of one process, and no process
    outlives the call.
    """
    path = Path(path)
    if bands is not None and len(set(bands)) != len(bands):
        raise IngestError(f"repeated band names in {list(bands)}")
    try:
        with path.open("rb") as fh:
            rows = _read(fh, path, bands)
    except FileNotFoundError:
        raise IngestError(f"no such file: {path}") from None
    except OSError as exc:
        raise IngestError(f"{path}: cannot read: {exc.strerror or exc}") from None

    ids, ra, dec, mags, rejects = rows.resolve()
    if on_reject is not None:
        for msg in rejects:
            on_reject(msg)
    if rows.total and len(rejects) > MAX_REJECT_FRACTION * rows.total:
        shown = "; ".join(rejects[:5])
        raise IngestError(
            f"{path}: {len(rejects)}/{rows.total} rows rejected (> "
            f"{MAX_REJECT_FRACTION:.0%}): {shown}"
        )
    return build_index(path.stem, cfg, ids, ra, dec, mags, rows.bands)


def _fields(text: bytes, line_nos: Sequence[int], path: Path) -> Iterator[list | None]:
    """The fields of each LF-separated line of ``text``, the k-th being line
    ``line_nos[k]``, by the csv module's rules; None for a line that ends
    inside a quoted field, as a record never spans lines. Bytes that are not
    UTF-8 text and csv errors, such as a field over the csv module's size
    limit, raise an IngestError naming their line."""
    try:
        lines = text.decode().split("\n") if line_nos else []
    except UnicodeDecodeError as exc:
        n, byte = line_nos[text.count(b"\n", 0, exc.start)], text[exc.start]
        raise IngestError(f"{path}: line {n}: not UTF-8 text (byte 0x{byte:02x})") from None
    quoted = [k for k, line in enumerate(lines) if '"' in line] if b'"' in text else []
    start = 0
    try:
        # a line without a quote is one record: one reader takes each run of them
        for k in [*quoted, len(lines)]:
            reader = csv.reader(lines[start:k])
            yield from reader
            start = k
            if k < len(lines):
                # this reader goes on to the empty line only from inside quotes
                reader = csv.reader((lines[k], ""))
                row = next(reader)
                yield row if reader.line_num == 1 else None
                start = k + 1
    except csv.Error as exc:
        raise IngestError(f"{path}: line {line_nos[start + reader.line_num - 1]}: {exc}") from None


def _check_row(
    row: list[str], n_cols: int, bands: Sequence[str], col_idx: Sequence[int]
) -> tuple[int | None, str | None, tuple | None]:
    """The per-row checks of one record, all but the duplicate test:
    ``(id, reason, values)``. A passing row has no reason and values
    ``(ra, dec, mags)``; a rejected row has no values, and no id when the id
    itself is bad."""
    if len(row) != n_cols:
        return None, f"expected {n_cols} fields, got {len(row)}", None
    try:
        obj_id = int(row[0])
    except ValueError:
        return None, f"bad id {row[0]!r}", None
    if not 0 <= obj_id < 2**64:
        return None, f"id {obj_id} outside unsigned 64-bit range", None
    try:
        ra = float(row[1])
        dec = float(row[2])
    except ValueError:
        return obj_id, f"unparseable coordinates {row[1]!r},{row[2]!r}", None
    if not (math.isfinite(ra) and math.isfinite(dec)):
        return obj_id, f"non-finite coordinates {row[1]!r},{row[2]!r}", None
    if not -90.0 <= dec <= 90.0:
        return obj_id, f"dec {dec} outside [-90, 90]", None
    mags = []
    for band, ci in zip(bands, col_idx):
        field = row[ci].strip()
        if field == "":
            mags.append(math.nan)
            continue
        try:
            value = float(field)
        except ValueError:
            return obj_id, f"bad magnitude {field!r} for band {band}", None
        if not math.isfinite(value):
            return obj_id, f"non-finite magnitude {field!r} for band {band}", None
        mags.append(value)
    return obj_id, None, (ra, dec, mags)


class _Rows:
    """The data rows of one catalog file as they are read: those that pass
    every check but the duplicate test, as column arrays, and the rejected
    ones with their reasons. ``resolve`` applies the duplicate rule."""

    def __init__(self, path: Path, header: list[str], bands: Sequence[str] | None) -> None:
        self.path = path
        self.bands = _parse_header(header, bands)
        self.col_idx = [header.index(b, 3) for b in self.bands]
        self.n_cols = len(header)
        # (line numbers, ids, ra, dec, mags) of passing rows, each part in line order
        self.parts: list[tuple[np.ndarray, ...]] = []
        # (line number, id or None, reason) of rejected rows
        self.rejected: list[tuple[int, int | None, str]] = []

    @property
    def total(self) -> int:
        """Non-empty data records read."""
        return sum(len(part[0]) for part in self.parts) + len(self.rejected)

    def check(self, text: bytes, line_nos: Sequence[int]) -> None:
        """Run the per-row checks on the LF-separated lines of ``text``, each
        one record (see ``_fields``), the k-th being line ``line_nos[k]``. A
        line that ends inside a quoted field is rejected and claims no id."""
        lines, ids, ras, decs, mags = [], [], [], [], []
        for line_no, row in zip(line_nos, _fields(text, line_nos, self.path)):
            if row is None:
                self.rejected.append((line_no, None, "line ends inside a quoted field"))
                continue
            if not row:
                continue
            obj_id, reason, values = _check_row(row, self.n_cols, self.bands, self.col_idx)
            if reason is None:
                lines.append(line_no)
                ids.append(obj_id)
                ras.append(values[0])
                decs.append(values[1])
                mags.append(values[2])
            else:
                self.rejected.append((line_no, obj_id, reason))
        self.parts.append((
            np.array(lines, np.int64), np.array(ids, np.uint64), np.array(ras, np.float64),
            np.array(decs, np.float64),
            np.array(mags, np.float64).reshape(len(lines), len(self.bands)),
        ))

    def resolve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[str]]:
        """``(ids, ra, dec, mags, reject messages)``, messages in line
        order; rows in no promised order, as build_index orders them by
        (zone, ra, id) whatever order they come in, so a dropped row's place
        is taken by a kept row from the end. Per id the first row
        that passes every other check wins, and every later row with that id
        is rejected as a duplicate, whatever else is wrong with it; a row
        rejected for another reason claims no id."""
        lines, ids, ra, dec, mags = (np.concatenate(c) for c in zip(*self.parts))
        claimed = [(line_no, obj_id) for line_no, obj_id, _ in self.rejected if obj_id is not None]
        n = len(lines)
        all_lines = np.concatenate((lines, np.array([c[0] for c in claimed], np.int64)))
        all_ids = np.concatenate((ids, np.array([c[1] for c in claimed], np.uint64)))
        # the ids that occur more than once, from one value sort; only rows
        # that carry one can be duplicates
        s = np.sort(all_ids)
        repeated = s[1:][s[1:] == s[:-1]]
        dup = np.empty(0, np.intp)
        if len(repeated):
            rows = np.flatnonzero(
                repeated.take(np.searchsorted(repeated, all_ids), mode="clip") == all_ids
            )
            rows = rows[np.argsort(all_ids[rows])]
            # per id, the line of its first passing row
            row_ids, row_lines = all_ids[rows], all_lines[rows]
            new_id = np.ones(len(rows), dtype=bool)
            new_id[1:] = row_ids[1:] != row_ids[:-1]
            passing_line = np.where(rows < n, row_lines, np.iinfo(np.int64).max)
            won = np.minimum.reduceat(passing_line, np.flatnonzero(new_id))[np.cumsum(new_id) - 1]
            dup = rows[row_lines > won]

        dup_lines = set(all_lines[dup[dup >= n]].tolist())
        rejects = [
            (line_no, f"duplicate id {obj_id}" if line_no in dup_lines else reason)
            for line_no, obj_id, reason in self.rejected
        ]
        dropped = dup[dup < n]
        rejects += [
            (line_no, f"duplicate id {obj_id}")
            for line_no, obj_id in zip(lines[dropped].tolist(), ids[dropped].tolist())
        ]
        rejects.sort()
        if len(dropped):
            # the kept rows after the first m fill the dropped rows' places
            m = n - len(dropped)
            holes, fill = dropped[dropped < m], np.setdiff1d(np.arange(m, n), dropped)
            for column in (ids, ra, dec, mags):
                column[holes] = column[fill]
            ids, ra, dec, mags = ids[:m], ra[:m], dec[:m], mags[:m]
        return ids, ra, dec, mags, [f"line {line_no}: {reason}" for line_no, reason in rejects]


def _read(fh, path: Path, bands: Sequence[str] | None) -> _Rows:
    """Read a binary catalog file's header and data lines (see ``_head``).

    A regular file's data is parsed in P parts, P being as many processes
    as ``_process_count`` allows but no more than the whole _BLOCK_BYTES
    blocks in the data: a block of ``_blocks`` that begins ``at`` bytes into
    the data's ``size`` belongs to part ``at * P // size``. Part 0 is parsed
    in this process and every other by a forked child (``_read_part``, run
    by ``_forked``), which walks the same blocks on a handle of its own. The
    results are added in part order, so the rows, the reject messages and
    the first error in file order do not depend on P."""
    line, data, blocks = _head(fh, path)
    header = next(_fields(line, [1], path))
    if header is None:
        raise IngestError(f"{path}: line 1: line ends inside a quoted field")
    rows = _Rows(path, [c.strip() for c in header], bands)
    info = os.fstat(fh.fileno())
    size = info.st_size - data
    # a FIFO is read once, in one part
    parts = (max(1, min(_process_count(), size // _BLOCK_BYTES))
             if stat.S_ISREG(info.st_mode) else 1)
    # part k: the blocks that begin from bounds[k] up to bounds[k + 1] bytes into the data
    bounds = [-(-k * size // parts) for k in range(parts)] + [math.inf]
    jobs = [partial(_read_part, path, a, b, rows) for a, b in zip(bounds[1:], bounds[2:])]
    with _forked(jobs, IngestError, f"{path}: a parse process") as results:
        _read_run(blocks, bounds[0], bounds[1], rows)
        for found, rejected in results:
            rows.parts += found
            rows.rejected += rejected
    return rows


def _head(fh, path: Path) -> tuple[bytes, int, Iterator[bytes]]:
    """``(header line, data offset, data blocks)`` of a binary catalog file:
    after a leading byte-order mark, its first line, the byte offset of the
    line after it, and the rest in the blocks of ``_blocks``, the first
    being the remainder of the header's block."""
    start = len(fh.read(3)) if fh.peek(3).startswith(b"\xef\xbb\xbf") else 0
    blocks = _blocks(fh)
    raw = next(blocks, None)
    if raw is None:
        raise IngestError(f"{path}: empty file, missing header")
    cut = _lf(raw).index(b"\n")
    data = cut + (2 if raw.startswith(b"\r\n", cut) else 1)
    return raw[:cut], start + data, chain([raw[data:]], blocks)


def _lf(buf: bytes) -> bytes:
    """``buf`` with each line end (CRLF or a lone CR) made an LF."""
    return buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in buf else buf


def _read_run(blocks: Iterable[bytes], lo: int, hi: float, rows: _Rows) -> None:
    """Add to ``rows`` the lines of the data ``blocks`` (see ``_head``) that
    begin from ``lo`` up to ``hi`` bytes into the data. The line ends of the
    blocks before are counted, by ``_blocks``' rule, so that line numbers,
    and the errors that name them, are those of the whole file."""
    at, line_no = 0, 2
    for buf in blocks:
        if at >= hi:
            break
        if at < lo:
            line_no += buf.count(b"\n") + buf.count(b"\r") - buf.count(b"\r\n")
        else:
            line_no = _read_block(_lf(buf), line_no, rows)
        at += len(buf)


def _read_part(path: Path, lo: int, hi: float, rows: _Rows) -> Iterator[tuple]:
    """Read the data blocks from ``lo`` up to ``hi`` (see ``_read_run``) of a
    catalog file into ``rows``, which holds no row yet, on a handle of its
    own; yield ``(rows.parts, rows.rejected)``."""
    with open(path, "rb") as fh:
        _read_run(_head(fh, path)[2], lo, hi, rows)
    yield rows.parts, rows.rejected


def _process_count() -> int:
    """The CPUs this process may run on; 1 without ``os.fork`` or while
    another thread runs (a forked child could wait forever on its locks)."""
    import threading

    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


@contextmanager
def _forked(jobs: Sequence[Callable[[], Iterable]], error: type[Exception], what: str
            ) -> Iterator[Iterator]:
    """Run each job in a forked child of its own (make ``_process_count``
    jobs at most); the ``with`` block gets their results in turn: each job's
    first in job order, then each job's second, and so on.

    A child pickles each result, or the error its job raised, to a pipe as
    soon as it has it, so a blocked pipe holds it to about one result. An
    error result is raised here in its turn; a child that dies raises
    ``error("<what> ended without a result (<how>)")``. Every child has been
    reaped and every pipe closed when the block is left, on any path. The
    standard streams are flushed before the forks, and a child leaves only
    through ``os._exit``, so no buffer it inherits is written twice."""
    import pickle

    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []  # children not yet reaped
    pipes: list[IO[bytes]] = []  # the read end of each child's pipe

    def results() -> Iterator:
        turn = list(zip(pids, pipes))
        while turn:
            for pid, pipe in list(turn):
                try:
                    result = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):  # the child has closed its pipe
                    status = os.waitpid(pid, 0)[1]
                    pids.remove(pid)
                    turn.remove((pid, pipe))
                    if status:
                        how = (f"killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
                               else f"exit status {os.waitstatus_to_exitcode(status)}")
                        raise error(f"{what} ended without a result ({how})") from None
                    continue
                if isinstance(result, BaseException):
                    raise result
                yield result

    try:
        for job in jobs:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    for pipe in pipes:  # with no reader left, a write fails at once
                        pipe.close()
                    _send(w, job)
            finally:
                os.close(w)
            pids.append(pid)
        yield results()
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal

            for pid in pids:
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)


def _send(w: int, job: Callable[[], Iterable]) -> NoReturn:
    """In a forked child: pickle each result of ``job``, or its error, to
    the pipe ``w``; exit with status 0 once all of it is written."""
    import pickle

    code = 1
    try:
        with open(w, "wb") as pipe:
            try:
                for result in job():
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            except BaseException as exc:  # an interrupt too: the parent raises it
                pickle.dump(exc, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _blocks(fh) -> Iterator[bytes]:
    """The rest of a binary file in blocks of about _BLOCK_BYTES that end on
    a line end (LF, CRLF or a lone CR); an LF is added after the last one.
    Each chunk read is searched once, so a file with few or no LFs takes
    linear time."""
    held: list[bytes] = []
    while chunk := fh.read(_BLOCK_BYTES):
        # a CR at the end of the chunk may be the first half of a CRLF
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield b"".join([*held, memoryview(chunk)[:cut]])
            held = []
        held.append(chunk[cut:])
    if rest := b"".join(held):
        yield rest + b"\n"


def _read_block(buf: bytes, first_line: int, rows: _Rows) -> int:
    """Add the lines of ``buf`` (ending with an LF, and holding no CR), the
    first being line ``first_line``, to ``rows``; the next line's number.

    Certified lines are parsed in place by ``_parse_plain`` and range-tested
    as arrays; the lines that fail either go through the per-row checks one
    line at a time."""
    starts, ends, plain, commas, first = _certify(buf, rows.n_cols, csv.field_size_limit())
    lines = np.flatnonzero(plain)
    if len(lines):
        ids, values, parsed = _parse_plain(buf, starts[lines], ends[lines], commas, first[lines],
                                           (1, 2, *rows.col_idx), rows.n_cols)
        ra, dec, mags = values[0], values[1], values[2:]
        # certified text spells no nan, so a NaN magnitude is an empty field
        good = parsed & (dec >= -90.0) & (dec <= 90.0) & np.isfinite(ra) & ~np.isinf(mags).any(0)
        plain[lines[~good]] = False
        rows.parts.append(
            (first_line + lines[good], ids[good], ra[good], dec[good], mags[:, good].T)
        )
    rest = np.flatnonzero(~plain)
    text = b"\n".join(buf[a:b] for a, b in zip(starts[rest].tolist(), ends[rest].tolist()))
    rows.check(text, (first_line + rest).tolist())
    return first_line + len(ends)


def _certify(
    buf: bytes, n_cols: int, max_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(starts, ends, plain, commas, first)``: per line of ``buf``, which
    ends with a newline, its byte span and whether it is certified for bulk
    parsing; the offsets of the commas of ``buf``, and per line the index
    into ``commas`` of its first one. A certified line has only bytes from
    ``0-9 . e E + - ,``, ``n_cols - 1`` commas, an id of 1 to 19 digits, no
    empty ra or dec (an empty magnitude is missing), and at most ``max_len``
    bytes, the csv module's field size limit."""
    # the classes, and _DIGIT (0) bytes past the end for the id words below
    cls = np.frombuffer(buf.translate(_BYTE_CLASS) + bytes(_ID_PAD), dtype=np.uint8)
    ends = np.flatnonzero(cls == _NEWLINE)
    starts = np.concatenate(([0], ends[:-1] + 1))[: len(ends)]
    commas = np.flatnonzero(cls == _COMMA)
    # each line's first comma, as an index into commas, gives its comma
    # count and the end of its id field
    first = np.searchsorted(commas, starts)
    id_end = np.minimum(np.append(commas, len(buf))[first], ends)
    id_len = id_end - starts
    plain = np.diff(first, append=len(commas)) == n_cols - 1
    plain &= (id_len >= 1) & (id_len <= 19) & (ends - starts <= max_len)
    # only digits in the id field: its classes, read as words from its
    # start with the bytes past its end masked off, are all zero; the
    # second and third words only for the ids that reach them
    words = np.ndarray((len(cls) - 7,), np.dtype("<u8"), cls, strides=(1,))
    plain &= words[starts] & _LOW_BYTES[np.minimum(id_len, 8)] == _U64(0)
    for k in (8, 16):
        more = np.flatnonzero(plain & (id_len > k))
        rest = _LOW_BYTES[np.minimum(id_len[more] - k, 8)]
        plain[more] = words[starts[more] + k] & rest == _U64(0)
    after = cls[commas + 1]
    empty = np.flatnonzero((after == _COMMA) | (after == _NEWLINE))  # commas before an empty field
    line = np.searchsorted(ends, commas[empty])
    # a line's k-th comma (from 0) begins field k + 1: 1 is ra, 2 dec
    plain[line[empty - first[line] < 2]] = False
    plain[np.searchsorted(ends, np.flatnonzero(cls == _OTHER))] = False
    return starts, ends, plain, commas, first


# Tables of _parse_plain. Bytes are read 8 at a time as little-endian uint64
# words, so a word's first byte is its lowest.
# zero bytes before and after a block: an id's words reach 7 bytes before
# its start, and a fraction's 20 bytes after a field's end
_PAD = 24
# lines of a block parsed in one pass: a pass's arrays, of about 100 kB,
# reuse the allocator's memory, where those of a whole block took fresh
# pages each time, and page faults were near half of the parse's time
_PARSE_LINES = 4096
# the low k bytes of a word, k in [0, 8]
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
# 10**(8 + j): I's 8-digit group is I * 10**(8 - j) when its digits end at
# byte j - 1 of their word, and times this it is I * 10**16
_POINT_SCALE = np.array([10 ** (8 + j) for j in range(5)], np.uint64)
# T = 2**165 / 5**16 rounded up, so 10**-16 is just below T * 2**-181; as
# 2**37 < 5**16 < 2**38, T has 128 bits: its high and low 64
_T_HI, _T_LO = (np.uint64(t) for t in divmod((1 << 165) // 5**16 + 1, 1 << 64))


def _parse_plain(buf: bytes, starts: np.ndarray, ends: np.ndarray, commas: np.ndarray,
                 first: np.ndarray, cols: Sequence[int], n_cols: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, values, parsed)`` of the certified lines of ``buf`` that span
    ``starts`` to ``ends``, their first comma being ``commas[first]``: the
    uint64 id of each, the float64 fields ``cols`` of each as a (len(cols),
    lines) array, and whether every such field is a number. An empty field
    is NaN.

    The fields are read in place, 8 bytes at a time (``_digit_groups``): an
    id, 1 to 19 digits, from the words that end at its end, and a field
    ``[-]I.F``, I of at most 3 digits and F of at most 16, as w * 10**-16
    for w = I * 10**16 + F * 10**(16 - len F) < 2**64, which
    ``_times_ten_to_minus_16`` rounds. Every other field, such as one with
    an exponent or more digits, goes through ``float``; ``parsed`` is False
    for a line with a field that ``float`` refuses, such as "--1"."""
    data = np.zeros(len(buf) + 2 * _PAD, np.uint8)
    data[_PAD:-_PAD] = np.frombuffer(buf, np.uint8)
    # the word of the 8 bytes from each offset of data
    words = np.ndarray((len(data) - 7,), np.dtype("<u8"), data, strides=(1,))
    ids = np.empty(len(first), np.uint64)
    values = np.empty((len(cols), len(first)))
    parsed = np.ones(len(first), bool)
    for at in range(0, len(first), _PARSE_LINES):
        part = slice(at, at + _PARSE_LINES)
        n = len(first[part])
        # field k of a line runs from after bounds[k] to bounds[k + 1]: its
        # commas, with the byte before the line and its end around them
        bounds = np.empty((n, n_cols + 1), np.intp)
        bounds[:, 0] = starts[part] - 1
        bounds[:, 1:-1] = commas[first[part, None] + np.arange(n_cols - 1)]
        bounds[:, -1] = ends[part]
        bounds += _PAD
        ids[part] = _id_values(words, bounds[:, 1] - bounds[:, 0] - 1, bounds[:, 1])
        lo = bounds[:, list(cols)].T.ravel() + 1
        hi = bounds[:, [k + 1 for k in cols]].T.ravel()
        got, decided = _float_values(words, lo, hi)
        rest = np.flatnonzero(~decided)
        for k, a, b in zip(rest.tolist(), (lo[rest] - _PAD).tolist(), (hi[rest] - _PAD).tolist()):
            try:
                got[k] = float(buf[a:b])
            except ValueError:
                parsed[at + k % n] = False
        values[:, part] = got.reshape(len(cols), n)
    return ids, values, parsed


def _digit_groups(word: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(groups, bad)``: the 8-digit number that the bytes of each word
    that ``keep`` holds spell, the others read as "0", and whether one of
    those bytes is no digit. The digits' values are joined into pairs,
    quads and the octet, each step one multiplication that adds the higher
    part, times 10, 100 or 10**4, to the lower one above it."""
    v = (word & keep) - (keep & _U64(0x3030303030303030))
    # a byte below "0" borrows, and one above "9" reaches 0x80 plus 0x76
    bad = ((v + _U64(0x7676767676767676)) | v) & _U64(0x8080808080808080) != _U64(0)
    v = (v * _U64(10 << 8 | 1)) >> _U64(8) & _U64(0x00FF00FF00FF00FF)
    v = (v * _U64(100 << 16 | 1)) >> _U64(16) & _U64(0x0000FFFF0000FFFF)
    return (v * _U64(10000 << 32 | 1)) >> _U64(32), bad


def _id_values(words: np.ndarray, length: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The uint64 values of the digit fields of 1 to 19 ``length`` bytes
    that end at ``end`` in the data of ``words``: the last 8 digits, plus
    10**8 times the value of those before them."""
    value = _digit_groups(words[end - 8], ~_LOW_BYTES[8 - np.minimum(length, 8)])[0]
    more = np.flatnonzero(length > 8)
    if len(more):
        value[more] += _id_values(words, length[more] - 8, end[more] - 8) * _U64(10**8)
    return value


def _float_values(words: np.ndarray, lo: np.ndarray, hi: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``(values, decided)`` of the number fields from ``lo`` to ``hi`` in
    the data whose 8-byte ``words`` are given: an empty field is NaN, and
    one of the form ``[-]I.F`` (see ``_parse_plain``) its double, where
    decided."""
    head = words[lo]
    neg = head & _U64(0xFF) == _U64(ord("-"))
    # the first "." of the field's first 5 bytes is a zero byte of x; the
    # lowest set bit of found marks it, bit 8j + 7 for byte j
    x = head ^ _U64(0x2E2E2E2E2E)
    found = (x - _U64(0x0101010101)) & ~x & _U64(0x8080808080)
    # 2**8j times bytes 4, 3, 2, 1, 0 (high to low) puts j in byte 4
    j = ((found & (~found + _U64(1))) >> _U64(7)) * _U64(0x0001020304) >> _U64(32) & _U64(0xFF)
    j = j.astype(np.intp)
    point = lo + j
    frac = hi - point - 1  # digits after the point
    # I in the bytes of head before the point and after a sign; F's first 8
    # and next 8 digits in the words after the point, left-aligned
    at = np.concatenate((lo, point + 1, point + 9))
    keep = np.concatenate((_LOW_BYTES[j] ^ _LOW_BYTES[neg.view(np.uint8)],
                           _LOW_BYTES[np.clip(frac, 0, 8)], _LOW_BYTES[np.clip(frac - 8, 0, 8)]))
    g, bad = _digit_groups(words[at], keep)
    g, bad = g.reshape(3, -1), bad.reshape(3, -1).any(0)
    w = g[0] * _POINT_SCALE[j] + g[1] * _U64(10**8) + g[2]
    bits = _times_ten_to_minus_16(w)
    bits |= neg.astype(np.uint64) << _U64(63)
    values = bits.view(np.float64)
    empty = lo == hi
    values[empty] = np.nan
    decided = (found != _U64(0)) & (frac >= 0) & (frac <= 16) & (j - neg + frac > 0) & ~bad
    decided &= j - neg <= 3
    return values, decided | empty


def _times_ten_to_minus_16(w: np.ndarray) -> np.ndarray:
    """The bits of the double nearest w * 10**-16 for the uint64 values
    ``w`` below 10**19; +0.0 for w = 0.

    This is the Eisel-Lemire method (Lemire, "Number Parsing at a Gigabyte
    per Second", 2021) for one power. W = w * 2**z, 2**63 <= W < 2**64,
    makes x = w * 10**-16 = E * 2**-(181 + z) for E = W * 2**165 / 5**16,
    and W * T - E = W * (T - 2**165 / 5**16) is in (0, 2**64), T as for
    _T_HI. The double nearest x, a normal one, is the top 54 bits of p =
    floor(E / 2**128), 2**62 <= p < 2**64, rounded half up: x is never
    halfway between two doubles, as w would then be 5**16 times an odd
    number above 2**53, over 10**19. E / 2**128 = W * 2**37 / 5**16 is a
    multiple of 1 / 5**16 > 2**-64, so if it is within 2**-64 of an
    integer k, it is k. The product W * _T_HI = (h, l) in 64-bit halves
    puts E / 2**128 in (h + (l - 1) / 2**64, h + l / 2**64 + 1), so p is h
    or h + 1, and the two differ from bit 9 up only if h ends in 9 one
    bits. For those few, l plus the high half of W * _T_LO makes (h, l)
    floor(W * T / 2**64) exactly, which puts E / 2**128 in (h + (l - 1) /
    2**64, h + (l + 1) / 2**64), so p is h."""
    zero = w == _U64(0)
    w = np.maximum(w, _U64(1))
    # the shift z, from the float exponent; a w that rounds up to a power of
    # two takes one more
    z = (64 - np.frexp(w.astype(np.float64))[1]).astype(np.uint64)
    w <<= z
    short = (w >> _U64(63)) ^ _U64(1)
    w <<= short
    z += short
    hi, lo = _mul_64(w, _T_HI)
    wide = np.flatnonzero(hi & _U64(0x1FF) == _U64(0x1FF))
    if len(wide):
        carried = lo[wide] + _mul_64(w[wide], _T_LO)[0]
        hi[wide] += carried < lo[wide]
    top = hi >> _U64(63)
    m = ((hi >> (top + _U64(9))) + _U64(1)) >> _U64(1)
    # x = m * 2**(top - z - 43), whose exponent field is 1032 + top - z for
    # m in [2**52, 2**53): m's 2**52 bit adds the 1, and m = 2**53 after a
    # carry adds 2 with a zero fraction
    bits = ((_U64(1031) + top - z) << _U64(52)) + m
    bits[zero] = 0
    return bits


def _mul_64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64 bits of the 128-bit products of the uint64
    values ``a`` and ``b``, from their 32-bit halves."""
    low32, half = _U64(2**32 - 1), _U64(32)
    al, ah = a & low32, a >> half
    bl, bh = b & low32, b >> half
    ll = al * bl
    hl = ah * bl
    cross = (ll >> half) + (hl & low32) + al * bh  # below 2**64
    return (hl >> half) + (cross >> half) + ah * bh, (cross << half) | (ll & low32)


def _format_rows(row_format: str, columns: Sequence, part: int = 0, parts: int = 1
                 ) -> Iterator[str]:
    """The rows of ``columns`` (equal-length arrays or tuples; none for no
    rows), each formatted by ``row_format``, one string per _CHUNK_ROWS rows:
    chunks ``part``, ``part + parts``, ... of them, so all by default.

    ``row_format`` is ``%d``, ``%.12g`` and ``%r`` fields joined by commas
    and ended by a newline, such as a cross-match's ``%d,%d,%.12g\\n`` or a
    catalog's ``%d,%r,%r,%r\\n``. Its ``%d`` columns must hold unsigned
    64-bit integers and its other columns floats. The rows are written by
    numpy digit arithmetic (``_format_numeric``) with the bytes of ``%``."""
    fields = row_format[:-1].split(",")
    n = len(columns[0]) if columns else 0
    for start in range(part * _CHUNK_ROWS, n, parts * _CHUNK_ROWS):
        yield _format_numeric(fields, [col[start : start + _CHUNK_ROWS] for col in columns])


# Tables of _format_numeric. A field is laid out in fixed-width machine words
# whose unused bytes are NUL, and the NULs are deleted from the chunk's bytes
# at the end, so a table entry is a whole word and no byte is ever shifted.
# A word built from bytes is read back as the same bytes on any byte order.


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The word tables of 4-digit groups, ``(_INT_WORDS, _SIG_WORDS)``."""
    group = np.arange(10000, dtype=np.int32)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int32)  # of each digit, left to right
    ascii_digits = (group // place % 10 + ord("0")).astype(np.uint8)
    int_words = np.zeros((3, 10000, 4), np.uint8)
    int_words[1] = ascii_digits * ((group >= place) | (place == 1))
    int_words[2] = ascii_digits
    sig_words = np.zeros((2, 10000, 8), np.uint8)
    sig_words[:, :, ::2] = ascii_digits
    sig_words[1, :, ::2] *= group % (10 * place) != 0  # a nonzero digit here or right of it
    return int_words.view(np.uint32).ravel(), sig_words.view(np.uint64).ravel()


# 4-digit groups of a %d field, as uint32 words, at 10000 * kind + group: kind 0
# for a group left of the first digit (all NUL), 1 for the group holding it
# (its leading zeros NUL; "0" for 0), 2 for any later group. 4 significant
# digits of a float field, as uint64 words: each digit followed by a NUL byte
# that may become the decimal point; at 10000 * kind + group, kind 1 with
# trailing zeros NUL.
_INT_WORDS, _SIG_WORDS = _digit_words()
# 10**k, exact as doubles for k <= 22
_POW10 = np.array([float(10**k) for k in range(23)])
# 5**p for the scales 10**p of %r's digits, p in [0, 27]: all below 2**63
_POW5 = np.array([5**p for p in range(28)], np.uint64)
_U64 = np.uint64


def _words(strings: Iterator[bytes], width: int, dtype) -> np.ndarray:
    """Byte strings, each NUL-padded to ``width`` bytes, as machine words."""
    return np.frombuffer(b"".join(s.ljust(width, b"\0") for s in strings), dtype)


def _g12_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, e + 11, decided)`` of ``%.12g`` for the float64 values ``x``:
    the 12-digit mantissa and decimal exponent e it prints, where decided.

    With e = floor(log10 |x|), |x| is scaled by the exact double 10**(11 - e)
    in one multiplication or division, so the scaled value s is within 1.2e-4
    of the exact product while s < 1e12. Where s is at least 1e-3 from a
    half-integer, rint(s) is the exact product rounded, as %g rounds it; where
    also 1e11 <= s and rint(s) < 1e12, that is the 12-digit mantissa and e the
    exponent %g prints (s just above 1e11 with the exact product just below
    is the carry of 99..9.5, which %g too prints as 1 and e). Every other
    value, NaN, an infinity, 0 and e outside [-11, 33] included, is
    undecided."""
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        ok = np.abs(11 - e) <= 22
        scale = 11 - np.where(ok, e, 11).astype(np.intp)
        p = _POW10[np.abs(scale)]
        s = a * p
        np.divide(a, p, out=s, where=scale < 0)
        m = np.rint(s)
        decided = ok & (s >= 1e11) & (m < 1e12) & (np.abs(s - np.floor(s) - 0.5) > 1e-3)
    return m, 22 - scale, decided


def _repr_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(m, e + 11, decided)`` of ``%r`` for the float64 values ``x``: the
    shortest round-trip digits, as a 17-digit mantissa with trailing zeros,
    and their decimal exponent e, where decided.

    For |x| = m2 * 2**b with 2**52 <= m2 < 2**53, e = floor(log10 |x|), p =
    16 - e and s = -(b + p), the product P = m2 * 5**p is exact in 128 bits
    and |x| * 10**p = P / 2**s, with Q = P >> s and r = P mod 2**s. A decimal
    D * 10**-p lies inside x's rounding interval, which is open, exactly when
    2 * |D * 2**s - P| < 5**p (5**p is odd, so the two never tie). ``repr``
    gives the fewest digits that lie inside, the nearest such value. The
    interval is at most 22 units of the 17th digit wide, so a value of 15 or
    fewer digits inside it is the nearest multiple of 100, D15; else the
    nearest multiple of 10, D16, if inside; else Q rounded, D17, which always
    is. A D more than 12 from Q is outside, as 5**p / 2**s = (P / 2**s) /
    m2 < 1e17 / 2**52 < 22.3 makes the half-width 5**p / 2**(s + 1) below
    12 units: |D * 2**s - P| > (|D - Q| - 1) * 2**s >= 12 * 2**s. So D15 - Q,
    at most 50 in size, is cut to [-13, 13], which leaves such a D outside
    and keeps |D - Q| * 2**s + r below 14 * 2**59 < 2**63 for s <= 59.
    Undecided: 0, subnormals, NaN and infinities; m2 = 2**52, whose interval
    is lopsided; p outside [0, 27] or s outside [1, 59]; Q outside [1e16,
    1e17) (a log10 off by one) or a D that carries to 1e17; and the ties r =
    2**(s - 1) and Q ending in 5 with r = 0, which ``repr`` breaks to even.
    The arithmetic stays in uint64 (see _format_int)."""
    bits = x.view(np.uint64)
    biased = (bits >> _U64(52)).astype(np.intp) & 0x7FF
    frac = bits & _U64(2**52 - 1)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(np.abs(x)))
        e = np.where(np.isfinite(e), e, 0).astype(np.intp)
    p = 16 - e
    s = 1075 - biased - p
    decided = (biased > 0) & (biased < 0x7FF) & (frac != 0)
    decided &= (p >= 0) & (p <= 27) & (s >= 1) & (s <= 59)
    f = _POW5[np.where(decided, p, 0)]
    s = np.where(decided, s, 1).astype(np.uint64)
    # P = hi * 2**64 + lo from the 32-bit halves of m2 and f; every partial
    # product and their middle sum fit in 64 bits. Q < 1e18 < 2**60 even
    # for a log10 off by one, so hi < 2**s and Q fits in 64 bits.
    m2 = frac | _U64(2**52)
    half32, low32 = _U64(32), _U64(2**32 - 1)
    ml, mh, fl, fh = m2 & low32, m2 >> half32, f & low32, f >> half32
    low = ml * fl
    mid = ml * fh + mh * fl
    lo = low + (mid << half32)
    hi = mh * fh + (mid >> half32) + (lo < low)
    q = (hi << (_U64(64) - s)) | (lo >> s)
    r = lo & ((_U64(1) << s) - _U64(1))
    tie = _U64(1) << (s - _U64(1))
    decided &= (q >= _U64(10**16)) & (q < _U64(10**17)) & (r != tie)
    # (D - Q) * 2**s - r, wrapped to 64 bits, read as signed; inside when
    # its size is at most (5**p - 1) / 2
    within = (f >> _U64(1)).view(np.int64)
    d15 = (q + _U64(50)) // _U64(100) * _U64(100)
    d16 = (q + _U64(5)) // _U64(10) * _U64(10)
    near15 = np.clip((d15 - q).view(np.int64), -13, 13).view(np.uint64)
    in15 = np.abs(((near15 << s) - r).view(np.int64)) <= within
    in16 = np.abs((((d16 - q) << s) - r).view(np.int64)) <= within
    decided &= (r != _U64(0)) | (d16 - q != _U64(5))
    m = np.where(in15, d15, np.where(in16, d16, q + (r > tie)))
    decided &= m < _U64(10**17)
    return m, e + 11, decided


class _Notation(NamedTuple):
    """A float format as _format_float writes it, in uint64 words per value:
    a lead (sign and fixed notation's "0.0..."), the significant digits 4 to
    a word, each followed by a slot for the point, and a suffix ("e+dd").
    Its tables cover the decimal exponents e in [-11, top], at e + 11."""

    fmt: bytes  # applied by % to each value ``digits_of`` leaves undecided
    digits_of: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    digits: int  # significant digits of the mantissa
    lead: np.ndarray  # at e + 11 without a sign, after those with "-"
    suffix: np.ndarray
    # (digit words, exponents): in fixed notation with e >= 0, "0" in each
    # digit byte left of the point; OR-ed in, it restores integer zeros a
    # strip removed. With ``repr``'s point it also holds the point and a "0"
    # after it, the ".0" of an integral value.
    zeros: np.ndarray
    # the digit after which the point goes when a nonzero digit follows it
    # (0 in exponent notation); -1 where the lead or ``zeros`` holds it
    point_after: np.ndarray

    @property
    def words(self) -> int:
        """uint64 words per value: lead, digits and suffix."""
        return -(-self.digits // 4) + 2


def _notation(fmt: bytes, digits_of, digits: int, fixed_below: int, top: int) -> _Notation:
    """The tables of a format that prints e in [-4, fixed_below) in fixed
    notation. ``%r`` always prints a point in fixed notation; ``%g`` only
    before a nonzero digit."""
    exponents = range(-11, top + 1)
    fixed = [-4 <= e < fixed_below for e in exponents]
    point = fmt == b"%r"
    words = -(-digits // 4)
    return _Notation(
        fmt, digits_of, digits,
        _words((sign + (b"0." + b"0" * (-e - 1) if f and e < 0 else b"") for sign in (b"", b"-")
                for e, f in zip(exponents, fixed)), 8, np.uint64),
        _words((b"" if f else b"e%+03d" % e for e, f in zip(exponents, fixed)), 8, np.uint64),
        np.ascontiguousarray(_words(
            (b"" if not f or e < 0 else b"0\0" * e + b"0.0" if point else b"0\0" * (e + 1)
             for e, f in zip(exponents, fixed)), 8 * words, np.uint64,
        ).reshape(-1, words).T),
        np.array([(-1 if e < 0 or point else e) if f else 0 for e, f in zip(exponents, fixed)]),
    )


_FLOAT_FIELDS = {
    "%.12g": _notation(b"%.12g", _g12_digits, 12, fixed_below=12, top=33),
    "%r": _notation(b"%r", _repr_digits, 17, fixed_below=16, top=15),
}
_COMMA_WORD, _NEWLINE_WORD = _words((b",", b"\n"), 4, np.uint32)


def _format_numeric(fields: Sequence[str], columns: Sequence) -> str:
    """One chunk of rows whose ``fields`` are each ``%d``, ``%.12g`` or
    ``%r``, separated by commas and ended by newlines, with the bytes ``%``
    gives. Each field becomes a block of uint32 words per row, followed by
    one separator word; the row matrix's NUL bytes are deleted at the end."""
    n = len(columns[0])
    values, widths = [], []
    for field, col in zip(fields, columns):
        if field == "%d":
            q = np.asarray(col, dtype=np.uint64)
            values.append(q)
            widths.append(-(-len(str(int(q.max()))) // 4))
        else:
            values.append(np.asarray(col, dtype=np.float64))
            widths.append(2 * _FLOAT_FIELDS[field].words)
    words = np.empty((n, sum(widths) + len(widths)), np.uint32)  # every word is written
    end = 0
    for field, v, width in zip(fields, values, widths):
        block = words[:, end : end + width]
        if field == "%d":
            _format_int(v, block)
        else:
            out = np.empty((n, width // 2), np.uint64)
            _format_float(v, out, _FLOAT_FIELDS[field])
            block[...] = out.view(np.uint32)
        words[:, end + width] = _COMMA_WORD
        end += width + 1
    words[:, -1] = _NEWLINE_WORD
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _format_int(q: np.ndarray, out: np.ndarray) -> None:
    """Write ``%d`` of the uint64 values ``q`` into the uint32 words ``out``,
    one per 4 digits (the widest value's count, rounded up), left to right.
    The arithmetic stays in uint64: numpy 1.x turns uint64 mixed with a
    signed integer into float64, which loses digits."""
    width = out.shape[1]
    rest = q
    for k in range(width - 1, -1, -1):
        above = rest // np.uint64(10000)
        group = (rest - above * np.uint64(10000)).astype(np.intp)
        # digits right of this group; a value of more holds digits in or left of it
        right = 10 ** (4 * (width - 1 - k))
        kind = (q >= np.uint64(right)).astype(np.intp) if k < width - 1 else 1
        if k > 0:
            kind += q >= np.uint64(right * 10000)
        out[:, k] = _INT_WORDS[group + 10000 * kind]
        rest = above


def _format_float(x: np.ndarray, out: np.ndarray, notation: _Notation) -> None:
    """Write the float64 values ``x`` in ``notation`` into the uint64 words
    ``out`` (n, notation.words): sign and lead, the significant digits with
    their point slots, and the exponent suffix. 0 is written as e = 0 with
    no significant digit ("0", "-0", "0.0", "-0.0"); each value
    ``notation.digits_of`` leaves undecided, by ``%``."""
    m, at, decided = notation.digits_of(x)
    zero = x == 0
    blank = zero | ~decided
    m[blank] = 0
    at[blank] = 11
    # the mantissa's 4-digit groups, left to right; the last is padded on
    # the right with the zeros that make it 4 digits
    groups = []
    words = notation.words - 2
    rest, size = m.astype(np.uint64), notation.digits - 4 * (words - 1)
    for _ in range(words - 1):
        above = rest // _U64(10**size)
        group = rest - above * _U64(10**size)
        groups.append(group * _U64(10 ** (4 - size)) if size < 4 else group)
        rest, size = above, 4
    groups.append(rest)
    out[:, 0] = notation.lead[at + len(notation.suffix) * np.signbit(x)]
    trailing = np.ones(len(x), bool)  # every group right of this one is zero
    for k, group in enumerate(groups):  # right to left
        word = words - k
        out[:, word] = _SIG_WORDS[group.astype(np.intp) + 10000 * trailing]
        out[:, word] |= notation.zeros[word - 1][at]
        trailing &= group == _U64(0)
    out[:, -1] = notation.suffix[at]
    # a point in the slot after digit d where a digit byte follows it
    slot = 9 + 2 * notation.point_after[at] + 8 * notation.words * np.arange(len(x))
    u8 = out.reshape(-1).view(np.uint8)
    rows = np.flatnonzero((notation.point_after[at] >= 0) & (u8[slot + 1] != 0))
    u8[slot[rows]] = ord(".")
    bad = np.flatnonzero(~(decided | zero))
    if len(bad):
        out[bad] = _words((notation.fmt % v for v in x[bad].tolist()), 8 * notation.words,
                          np.uint64).reshape(-1, notation.words)


@contextmanager
def _open_output(path: str | Path | None, mode: str = "w") -> Iterator[IO]:
    """A handle to write one output to, in text ("w", UTF-8 with "\\n" line
    ends) or binary ("wb") ``mode``: stdout for a path of None or "-", else
    the file, created if missing. Every file zonequery writes is opened here.

    An existing file is overwritten in place and, for a regular file, cut to
    the bytes written, so it ends up as a fresh write would leave it. A
    process killed before the cut (or a power loss) can leave the old file's
    tail after the new bytes. Opening with O_TRUNC, and also writing a
    temporary file and renaming it over the old one, cost far more on some
    filesystems (measured on ext4 mounted with discard; see CHANGES.md).
    Devices and FIFOs, such as /dev/null, are written but not cut. An OSError
    that names no file, such as a full disk on write, is raised again naming
    ``path``, or "<stdout>"; stdout is flushed here so that its errors are
    raised here too."""
    to_stdout = path is None or path == "-"
    text = {"encoding": "utf-8", "newline": "\n"} if mode == "w" else {}
    try:
        if to_stdout:
            out = sys.stdout if mode == "w" else sys.stdout.buffer
            yield out
            out.flush()
            return
        # O_BINARY (Windows only): no newline translation below Python's own
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, mode, **text) as fh:
            try:
                yield fh
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as exc:
        if exc.filename is not None or exc.errno is None:
            raise
        name = "<stdout>" if to_stdout else os.fspath(path)
        raise OSError(exc.errno, exc.strerror, name) from exc


def _write_csv(path: str | Path | None, header: str, row_format: str, columns) -> None:
    """Write a CSV: ``header``, then ``columns`` formatted row by row with
    ``row_format``; to stdout for a path of None or "-". Catalogs and query
    results are both written here.

    Rows with a ``%r`` field, such as a catalog's, in _FORK_CHUNKS chunks or
    more are formatted by forked processes (``_forked``), the chunks dealt
    to them in turn; this process writes each chunk in order as it comes, so
    the bytes are those of one process. Rows of only ``%d`` and ``%.12g``
    fields, whose digits cost less, are formatted here."""
    chunks = -(-len(columns[0]) // _CHUNK_ROWS) if columns else 0
    with _open_output(path) as fh:
        fh.write(header)
        forks = 1 if "%r" not in row_format or chunks < _FORK_CHUNKS else _process_count()
        if forks < 2:
            fh.writelines(_format_rows(row_format, columns))
            return
        forks = min(forks, chunks)
        jobs = [partial(_format_rows, row_format, columns, k, forks) for k in range(forks)]
        name = "<stdout>" if path is None or path == "-" else path
        with _forked(jobs, OSError, f"{name}: a format process") as results:
            fh.writelines(results)


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
