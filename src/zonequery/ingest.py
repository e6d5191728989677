"""Catalog CSV ingest: the input dialect, its per-row checks and the
duplicate rule.

A catalog is a flat CSV with header ``id,ra,dec,<band1>,<band2>,...``, one
record per line. Plain lines are parsed in bulk by the exact kernel of
``digits``; every other line goes through the per-row checks, which alone
word the reject messages. The rows that pass become a zone index through
``catalog.build_index``, called through its module so that a tracer that
replaces it there sees ingest's builds too.
"""

from __future__ import annotations

import csv
import math
import os
import stat
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import catalog
from .digits import _certify, _parse_plain
from .output import _forked, _process_count
from .sphere import ZoneConfig

__all__ = ["IngestError", "ingest_csv"]

# fraction of rejected rows above which ingestion fails outright
MAX_REJECT_FRACTION = 0.01

# bytes of a catalog CSV read and bulk-parsed at a time (rounded to lines)
_BLOCK_BYTES = 1 << 20


class IngestError(ValueError):
    """Raised when a catalog file cannot be ingested."""


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
) -> catalog.ZoneIndex:
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
    return catalog.build_index(path.stem, cfg, ids, ra, dec, mags, rows.bands)


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
