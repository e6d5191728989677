"""Ingestion, zone index structure, and snapshots."""

from __future__ import annotations

import csv
import dataclasses
import errno
import gc
import io
import math
import os
import re
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonequery import (
    IngestError,
    MatchSpec,
    SnapshotFormatError,
    ZoneConfig,
    build_index,
    histogram,
    ingest_csv,
    load_index,
    plan_contiguous,
    run_xmatch,
    save_index,
    zone_of,
)
from zonequery import catalog, cli, digits, ingest, output
from zonequery.ingest import _check_row
from zonequery.queries import WINDOW_PAD_DEG, _zone_join
from zonequery.sphere import normalize_ra_array, ra_halfwidth_array, zone_of_array

from conftest import ingest_csv_reference, random_sky

CFG = ZoneConfig()


def write_rows(path, rows, header="id,ra,dec,r,g"):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


class TestIngestBasics:
    def test_three_rows_at_extreme_decs(self, tmp_path):
        f = write_rows(
            tmp_path / "cat.csv",
            ["1,10.0,-90,9.5,", "2,20.0,0,10.5,11.0", "3,30.0,90,,12.0"],
        )
        index = ingest_csv(f, cfg=CFG)
        assert index.total_count == 3
        assert {s.zone: len(s) for s in index.slices()} == {0: 1, 1350: 1, 2699: 1}
        assert index.bands == ("r", "g")

    def test_header_only_file(self, tmp_path):
        f = write_rows(tmp_path / "empty.csv", [])
        index = ingest_csv(f, cfg=CFG)
        assert index.total_count == 0
        assert histogram(index).sum() == 0

    def test_missing_magnitudes_stored_as_nan(self, tmp_path):
        f = write_rows(tmp_path / "cat.csv", ["7,1.0,1.0,,13.5"])
        index = ingest_csv(f, cfg=CFG)
        assert index.ids.tolist() == [7]
        assert math.isnan(index.mags[0, 0]) and index.mags[0, 1] == 13.5
        assert math.isnan(index.band_column("r")[0])

    def test_band_projection(self, tmp_path):
        f = write_rows(tmp_path / "cat.csv", ["1,0,0,9.0,10.0"])
        index = ingest_csv(f, bands=["g"], cfg=CFG)
        assert index.bands == ("g",)
        assert index.band_column("g")[0] == 10.0

    def test_utf8_bom_accepted(self, tmp_path):
        f = tmp_path / "bom.csv"
        f.write_bytes("\ufeffid,ra,dec,r\n1,10.0,20.0,5.5\n".encode("utf-8"))
        index = ingest_csv(f)
        assert index.bands == ("r",)
        assert index.ids.tolist() == [1]

    def test_crlf_accepted(self, tmp_path):
        f = tmp_path / "crlf.csv"
        f.write_bytes(b"id,ra,dec,r\r\n1,5.0,5.0,9.0\r\n2,6.0,6.0,9.5\r\n")
        assert ingest_csv(f, cfg=CFG).total_count == 2

    def test_ra_normalized_on_ingest(self, tmp_path):
        f = write_rows(tmp_path / "cat.csv", ["1,370.5,0,9,9", "2,-10.0,0,9,9"])
        index = ingest_csv(f, cfg=CFG)
        assert sorted(index.ra.tolist()) == [10.5, 350.0]

    def test_tenk_generated_recount(self, tmp_path):
        rng = np.random.default_rng(20)
        ra, dec = random_sky(rng, 10_000)
        rows = [f"{i},{float(ra[i])!r},{float(dec[i])!r},{9.0 + i % 7}" for i in range(10_000)]
        f = write_rows(tmp_path / "big.csv", rows, header="id,ra,dec,r")
        index = ingest_csv(f, cfg=CFG)
        assert index.total_count == 10_000
        # independent recount straight from the file text
        counts = np.zeros(CFG.zone_count, dtype=int)
        with f.open() as fh:
            next(fh)
            for line in fh:
                d = float(line.split(",")[2])
                counts[min(int((d + 90.0) / CFG.height_deg), CFG.zone_count - 1)] += 1
        assert np.array_equal(histogram(index), counts)


class TestIngestRejection:
    def test_bad_rows_rejected_with_line_numbers(self, tmp_path):
        rows = [f"{i},{i % 360}.5,0.5,9.0" for i in range(996)]
        rows[10] = "bad_id,1.0,1.0,9.0"
        rows[20] = "1020,not_a_number,1.0,9.0"
        rows[30] = "1030,1.0,95.0,9.0"
        rows[40] = "1040,1.0,1.0,junk"
        f = write_rows(tmp_path / "messy.csv", rows, header="id,ra,dec,r")
        log: list[str] = []
        index = ingest_csv(f, cfg=CFG, on_reject=log.append)
        assert index.total_count == 992
        assert sorted(log) == sorted(
            [
                "line 12: bad id 'bad_id'",
                "line 22: unparseable coordinates 'not_a_number','1.0'",
                "line 32: dec 95.0 outside [-90, 90]",
                "line 42: bad magnitude 'junk' for band r",
            ]
        )

    def test_duplicate_id_rejected(self, tmp_path):
        rows = [f"{i},{i}.0,0.5,9.0" for i in range(300)]
        rows[200] = "5,200.0,0.5,9.0"  # id 5 already used
        f = write_rows(tmp_path / "dup.csv", rows, header="id,ra,dec,r")
        log: list[str] = []
        index = ingest_csv(f, cfg=CFG, on_reject=log.append)
        assert index.total_count == 299
        assert log == ["line 202: duplicate id 5"]

    def test_wrong_field_count_rejected(self, tmp_path):
        rows = [f"{i},1.0,1.0,9.0" for i in range(300)]
        rows[5] = "5,1.0"
        index = ingest_csv(write_rows(tmp_path / "c.csv", rows, header="id,ra,dec,r"), cfg=CFG)
        assert index.total_count == 299

    def test_over_one_percent_rejected_is_hard_error(self, tmp_path):
        f = write_rows(
            tmp_path / "bad.csv",
            ["1,0,0,9.0", "2,0,95.0,9.0", "3,0,0,9.0"],
            header="id,ra,dec,r",
        )
        with pytest.raises(IngestError, match="rejected"):
            ingest_csv(f, cfg=CFG)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no such file"):
            ingest_csv(tmp_path / "nope.csv")

    def test_malformed_header(self, tmp_path):
        f = (tmp_path / "h.csv")
        f.write_text("ra,dec,id\n", encoding="utf-8")
        with pytest.raises(IngestError, match="header"):
            ingest_csv(f)

    # a trailing comma, as some exports write; two empty names once failed
    # as repeats
    @pytest.mark.parametrize("header", ["id,ra,dec,", "id,ra,dec,,", "id,ra,dec,r, "])
    def test_empty_band_name(self, tmp_path, header):
        row = "1,0,0" + ",9.0" * (header.count(",") - 2)
        f = write_rows(tmp_path / "cat.csv", [row], header=header)
        with pytest.raises(IngestError, match=r"malformed header: empty band name in \["):
            ingest_csv(f)

    def test_requested_band_not_in_header(self, tmp_path):
        f = write_rows(tmp_path / "cat.csv", ["1,0,0,9.0"], header="id,ra,dec,r")
        with pytest.raises(IngestError, match="not in header"):
            ingest_csv(f, bands=["z"])

    def test_completely_empty_file(self, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("", encoding="utf-8")
        with pytest.raises(IngestError, match="missing header"):
            ingest_csv(f)


# Odd field texts for the bulk-parser equivalence test: the loose forms
# int() and float() accept (spaces, underscores, signs, nan, inf, overflow,
# 20-digit ids), forms only a parser would trip on ("--1", "1e"), and bad
# values.
_ODD_IDS = [
    "18446744073709551615", "18446744073709551616", "99999999999999999999",
    "9999999999999999999", "007", "-0", "+5", " 7", "1_0", "x5", "", "1.0", "1e3", "--1",
]
_ODD_COORDS = [
    "-0", "+5", " 12.5", "12.5 ", "1_000", "nan", "inf", "-inf", "1e999", "1e-400",
    "--1", "1e", ".", "north", "", "91.5", "-90.5", "-90", "90", "007.5", "1E+01",
]
_ODD_MAGS = ["", " ", "bright", "nan", "inf", "1e999", "--1", "+5", "-0", " 9.5", "1e"]
# the eight malformed rows that perfbench's ingest workload injects; {id}
# is a fresh id, {dup} one of an earlier row, {big} 2**64 or more
_PERFBENCH_BAD = (
    "{id},12.5", "x{id},12.5,3.25,10.0", "{big},12.5,3.25,10.0", "{dup},12.5,3.25,10.0",
    "{id},12.5,north,10.0", "{id},inf,3.25,10.0", "{id},12.5,91.5,10.0", "{id},12.5,3.25,bright",
)


@st.composite
def _catalog_text(draw):
    """(file bytes, bands argument) of a small catalog CSV mixing plain
    lines with every kind of bad or loose line. About two in five files
    also hold a byte-order mark, CRLF or CR-only line ends, a line of quoted
    fields or non-ASCII text; the last two send their lines through the
    per-row checks."""
    n_bands = draw(st.integers(0, 3))
    names = ["r", "g", "i"][:n_bands]
    header = ",".join(["id", "ra", "dec", *names])
    plain = st.tuples(
        st.integers(0, 60).map(str), st.floats(0.0, 360.0, exclude_max=True).map(repr),
        st.floats(-90.0, 90.0).map(repr), *[st.floats(0.0, 30.0).map(repr)] * n_bands,
    ).map(list)
    odd = [_ODD_IDS, _ODD_COORDS, _ODD_COORDS, *[_ODD_MAGS] * n_bands]
    # a plain line with one field replaced by an odd one
    one_off = st.tuples(plain, st.integers(0, 2 + n_bands)).flatmap(
        lambda t: st.sampled_from(odd[t[1]]).map(lambda v: t[0][: t[1]] + [v] + t[0][t[1] + 1 :])
    )
    # every field plain or odd
    loose = st.tuples(*(st.one_of(st.just(None), st.sampled_from(o)) for o in odd), plain).map(
        lambda t: [p if v is None else v for v, p in zip(t[:-1], t[-1])]
    )
    perfbench = st.tuples(st.sampled_from(_PERFBENCH_BAD), st.integers(0, 60)).map(
        lambda t: t[0].format(id=t[1], dup=t[1] // 2, big=2**64 + t[1])
    )
    # a plain line with every magnitude empty
    no_mags = plain.map(lambda f: ",".join(f[:3] + [""] * n_bands))
    other = st.sampled_from(["", "   ", "1,2", "1,2,3,4,5,6,7", ",,,", "9,1.5,2.5,3,4,,"])
    lines = draw(st.lists(st.one_of(
        plain.map(",".join), plain.map(",".join), one_off.map(",".join),
        one_off.map(",".join), loose.map(",".join), perfbench, no_mags, other,
    ), max_size=40))
    special = draw(st.sampled_from(
        ["", "", "", "", "", "", "", "bom", "crlf", "cr", "quote", "non-ascii"]
    ))
    if special == "quote" and lines:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = ",".join(f'"{f}"' for f in lines[at].split(","))
    elif special == "non-ascii":
        lines.append("\u00e9,1.5,2.5" + ",1.5" * n_bands)
    text = "\n".join([header, *lines]) + draw(st.sampled_from(["\n", ""]))
    if special == "crlf":
        text = text.replace("\n", "\r\n")
    elif special == "cr":
        text = text.replace("\n", "\r")
    elif special == "bom":
        text = "\ufeff" + text
    bands = draw(st.one_of(st.none(), st.permutations(names).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: p[:k])
    )))
    return text.encode("utf-8"), bands


def _outcome(ingest_fn, path, bands):
    """What an ingest function does with a file: its reject messages in
    order, and either the index columns as bytes or the error it raised."""
    log: list[str] = []
    try:
        index = ingest_fn(path, bands=bands, cfg=CFG, on_reject=log.append)
    except IngestError as exc:
        return log, f"IngestError: {exc}"
    columns = (index.ids, index.ra, index.dec, index.mags, index.zone_starts)
    return log, (index.name, index.bands, index.mags.shape, *(c.tobytes() for c in columns))


class TestBulkIngest:
    """The bulk parser against the per-row ingest it replaced
    (``conftest.ingest_csv_reference``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        case=_catalog_text(),
        block_bytes=st.sampled_from([1, 5, 64, ingest._BLOCK_BYTES]),
        max_reject=st.sampled_from([ingest.MAX_REJECT_FRACTION, 1.0]),
    )
    def test_same_outcome_as_per_row_reference(
        self, tmp_path_factory, case, block_bytes, max_reject
    ):
        data, bands = case
        path = tmp_path_factory.mktemp("bulk") / "cat.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            # blocks of a few bytes end in the middle of the file
            mp.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            mp.setattr(ingest, "MAX_REJECT_FRACTION", max_reject)
            assert _outcome(ingest_csv, path, bands) == _outcome(ingest_csv_reference, path, bands)

    # blocks of 7 bytes end mid-line; one of 4 MiB holds the whole file
    @pytest.mark.parametrize("block_bytes", [7, 4 << 20])
    @pytest.mark.parametrize(
        "field, value",
        [(0, v) for v in _ODD_IDS] + [(f, v) for f in (1, 2) for v in _ODD_COORDS]
        + [(3, v) for v in _ODD_MAGS],
    )
    def test_each_odd_field_among_plain_lines(self, tmp_path, monkeypatch, block_bytes,
                                               field, value):
        plain = [[str(i), f"{i * 7.25 % 360!r}", f"{i * 3.5 % 180 - 90!r}", f"{i % 9 + 5.5!r}"]
                 for i in range(100)]
        fresh = plain.pop()  # id 99, in no other row
        odd = ",".join(fresh[:field] + [value] + fresh[field + 1 :])
        rows = [",".join(r) for r in plain]
        # the odd row, a plain row with its id, then the odd row again
        rows = rows[:5] + [odd] + rows[5:50] + [",".join(fresh)] + rows[50:] + [odd]
        path = write_rows(tmp_path / "c.csv", rows, header="id,ra,dec,r")
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        assert _outcome(ingest_csv, path, None) == _outcome(ingest_csv_reference, path, None)

    @pytest.mark.parametrize("bom", [False, True], ids=["plain", "bom"])
    def test_field_over_csv_limit_names_its_line(self, tmp_path, bom):
        long_ra = "0" * csv.field_size_limit() + ".5"
        f = tmp_path / "long.csv"
        f.write_text(("\ufeff" if bom else "") + "id,ra,dec\n1,2,3\n2," + long_ra + ",3\n",
                     encoding="utf-8")
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert str(info.value) == f"{f}: line 3: field larger than field limit (131072)"

    def test_field_at_csv_limit_is_read(self, tmp_path):
        ra = "0" * (csv.field_size_limit() - 2) + ".5"
        f = write_rows(tmp_path / "c.csv", [f"1,{ra},3"], header="id,ra,dec")
        assert ingest_csv(f).ra.tolist() == [0.5]

    def test_directory_is_an_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read: Is a directory"):
            ingest_csv(tmp_path)

    def test_repeated_band_names_rejected(self, tmp_path):
        with pytest.raises(IngestError, match=r"repeated band names in \['r', 'r'\]"):
            ingest_csv(tmp_path / "not-read.csv", bands=["r", "r"])

    def test_empty_magnitudes_stay_on_the_bulk_path(self, tmp_path, monkeypatch):
        checked: list[str] = []  # the ids of the lines the per-row checks see

        def counted_check_row(row, *args):
            checked.append(row[0])
            return _check_row(row, *args)

        monkeypatch.setattr(ingest, "_check_row", counted_check_row)
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        rows = [f"{i},{i}.5,1.5,,{i}.25,," for i in range(300)]
        rows[100] = "100,100.5,1.5,1e999,,,"  # still a non-finite magnitude
        rows[200] = "200,,1.5,,1.0,,"  # an empty ra is not certified
        f = write_rows(tmp_path / "c.csv", rows, header="id,ra,dec,r,g,i,z")
        log: list[str] = []
        index = ingest_csv(f, on_reject=log.append)
        assert checked == ["100", "200"]
        assert log == ["line 102: non-finite magnitude '1e999' for band r",
                       "line 202: unparseable coordinates '','1.5'"]
        assert np.isnan(index.band_column("r")).all()
        assert index.band_column("g").tolist() == [i + 0.25 for i in range(300)
                                                   if i not in (100, 200)]
        assert np.isnan(index.mags[:, 2:]).all()

    def test_only_an_empty_magnitude_is_certified(self):
        buf = b",1,2,3,4\n1,,2,3,4\n1,2,,3,4\n1,2,3,,4\n1,2,3,4,\n1,2,3,,\n1,2,3,4,5\n"
        starts, ends, plain, commas, first = digits._certify(buf, 5, 1000)
        assert plain.tolist() == [False, False, False, True, True, True, True]
        lines = np.flatnonzero(plain)
        _, values, parsed = digits._parse_plain(buf, starts[lines], ends[lines], commas,
                                                 first[lines], (1, 2, 3, 4), 5)
        assert parsed.all()
        empty_r, empty_g = [True, False, True, False], [False, True, True, False]
        assert np.isnan(values).tolist() == [[False] * 4, [False] * 4, empty_r, empty_g]
        assert digits._certify(b"1,2,3,4,5\n1,,2,3,4\n", 5, 1000)[2].tolist() == [True, False]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.text("0123456789", max_size=22),
        # digits with one number byte put at, or just after, any position
        st.tuples(st.text("0123456789", min_size=1, max_size=22), st.integers(0, 21),
                  st.sampled_from(".eE+-")).map(lambda t: t[0][: t[1]] + t[2] + t[0][t[1] + 1 :]),
        st.text("0123456789.eE+-", max_size=22),
    ), min_size=1, max_size=40))
    def test_only_an_id_of_1_to_19_digits_is_certified(self, ids):
        """The id's class bytes are tested as words: a ``.eE+-`` byte at any
        of the 22 positions keeps its line off the bulk path, and so does a
        length of 0 or above 19. The last line ends the block, so its words
        reach into the padding after it."""
        buf = "".join(f"{i},1.5,2.5\n" for i in ids).encode()
        plain = digits._certify(buf, 3, 1000)[2]
        assert plain.tolist() == [1 <= len(i) <= 19 and i.isdigit() for i in ids]

    def test_malformed_certified_number_sends_its_line_to_row_checks(self, tmp_path,
                                                                     monkeypatch):
        """A certified line with a field that float() refuses goes to the
        per-row checks alone; the other lines of its block stay bulk-parsed."""
        checked: list[str] = []  # the ids of the lines the per-row checks see

        def counted_check_row(row, *args):
            checked.append(row[0])
            return _check_row(row, *args)

        monkeypatch.setattr(ingest, "_check_row", counted_check_row)
        rows = [f"{i},{i}.5,1.5" for i in range(300)]
        rows[150] = "150,--1,1.5"
        f = write_rows(tmp_path / "c.csv", rows, header="id,ra,dec")
        log: list[str] = []
        assert ingest_csv(f, on_reject=log.append).total_count == 299
        assert log == ["line 152: unparseable coordinates '--1','1.5'"]
        assert checked == ["150"]


def _bits_text(bits: int) -> str:
    """repr of the double with these bits, or "1.5" for NaN or an infinity."""
    value = float(np.array(bits, np.uint64).view(np.float64))
    return repr(value) if math.isfinite(value) else "1.5"


def _midpoint_text(value: float, digits: int) -> str:
    """The exact decimal halfway from ``value`` to the next double up, in
    fixed notation, cut to its first ``digits + 1`` characters."""
    from decimal import Decimal

    mid = (Decimal(value) + Decimal(float(np.nextafter(value, math.inf)))) / 2
    return format(mid, "f")[: digits + 1]


# number fields: repr of catalog-range and random-bit doubles, %.12g, exact
# binary midpoints in decimal, digit strings [-]I.F of 0 to 4 and 0 to 18
# digits, and signs and points alone or repeated
_NUMBER_TEXT = st.one_of(
    st.floats(-360.0, 360.0).map(repr),
    st.integers(0, 2**64 - 1).map(_bits_text),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.12g}"),
    st.tuples(st.floats(0.0, 1000.0), st.integers(2, 22)).map(lambda t: _midpoint_text(*t)),
    st.tuples(st.sampled_from(["", "-"]), st.text("0123456789", max_size=4),
              st.text("0123456789", max_size=18)).map(lambda t: f"{t[0]}{t[1]}.{t[2]}"),
    st.sampled_from(["0.", ".5", "-0", "-0.0", "--1", "1.2.3", "-", ".", "-.", "+1.5", "1e5",
                     "1.5e-3", "00.1", "1234.5", "5"]),
)
# ids of 1 to 19 digits, some with leading zeros
_ID_TEXT = st.tuples(st.integers(0, 10**19 - 1), st.integers(1, 19)).map(
    lambda t: f"{t[0]:0{t[1]}d}"
)


def _parse_block(buf: bytes, cols=(1, 2, 3), n_cols=4):
    """``(lines, _parse_plain of them)`` for the certified lines of ``buf``."""
    starts, ends, plain, commas, first = digits._certify(buf, n_cols, csv.field_size_limit())
    lines = np.flatnonzero(plain)
    return lines, digits._parse_plain(buf, starts[lines], ends[lines], commas, first[lines],
                                       cols, n_cols)


class TestParsePlain:
    """The in-place parse of certified lines against int() and float(), bit
    for bit."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(_ID_TEXT, _NUMBER_TEXT, _NUMBER_TEXT,
                              _NUMBER_TEXT | st.just("")), min_size=1, max_size=30))
    def test_fields_as_int_and_float(self, rows):
        # the first line's id begins the block and the last line's field
        # ends it, so their words reach into the zero bytes around it
        buf = "".join(",".join(r) + "\n" for r in rows).encode()
        lines, (ids, values, parsed) = _parse_block(buf)
        assert lines.tolist() == list(range(len(rows)))  # only certified bytes
        for k, row in enumerate(rows):
            assert int(ids[k]) == int(row[0])
            try:
                want = [float(t) if t else math.nan for t in row[1:]]
            except ValueError:
                assert not parsed[k]
                continue
            assert parsed[k]
            assert values[:, k].tobytes() == np.array(want).tobytes(), row

    def test_what_goes_through_float(self, monkeypatch):
        """Fields of the form [-]I.F with I of up to 3 digits and F of up
        to 16 are read in place; 17 fraction digits, 4-digit integer parts,
        exponents, a "+" and a missing point go through float()."""
        direct = ["-0.0", "0.0000000000000001", "999.9999999999999999", ".5", "0.", "-12.5",
                  "0.1234567890123456", "359.99999999999994", "-89.999999999999986"]
        through = ["0.12345678901234567", "1234.5", "-1234.5", "1e5", "1.5E-3", "2e+10",
                   "+1.5", "-0", "5", "1.2.3"]
        ids = ["1234567890123456789", "0000000000000000042", "0", "00000001", "99999999",
               "100000000", "9999999999999999999"]
        fields = direct + through
        rows = [f"{ids[k % len(ids)]},{v},1.5,2.5" for k, v in enumerate(fields)]
        seen: list[str] = []

        def counted_float(text):
            seen.append(text.decode())
            return float(text)

        monkeypatch.setattr(digits, "float", counted_float, raising=False)
        lines, (got, values, parsed) = _parse_block("".join(r + "\n" for r in rows).encode())
        assert seen == through
        assert parsed.tolist() == [v != "1.2.3" for v in fields]
        assert got.tolist() == [int(ids[k % len(ids)]) for k in range(len(fields))]
        want = np.array([float(v) for v in fields if v != "1.2.3"])
        assert values[0, parsed].tobytes() == want.tobytes()
        assert str(values[0, 0]) == "-0.0"

    def test_mantissas_below_powers_of_two(self):
        """Digits w = I * 10**16 + F just below 2**k, where the float of w
        rounds up to 2**k, so normalising w takes one more shift."""
        words = [f"{2**k - d:019d}" for k in range(54, 64) for d in (1, 2, 3, 2 ** (k - 54))]
        texts = [f"{w[:3]}.{w[3:]}" for w in words]
        _, (_, values, parsed) = _parse_block("".join(f"1,{t},0.5,\n" for t in texts).encode())
        assert parsed.all()
        assert values[0].tobytes() == np.array([float(t) for t in texts]).tobytes()

    def test_block_of_catalog_rows(self):
        """Every line of a generated catalog, as gen writes it, in one block."""
        rng = np.random.default_rng(5)
        n = 3000
        ra, dec, mag = rng.uniform(0, 360, n), rng.uniform(-90, 90, n), rng.uniform(5, 15, n)
        text = "".join(f"{i},{a!r},{d!r},{m!r}\n" for i, a, d, m in zip(
            range(n), ra.tolist(), dec.tolist(), mag.tolist()))
        lines, (ids, values, parsed) = _parse_block(text.encode())
        assert len(lines) == n and parsed.all()
        assert ids.tolist() == list(range(n))
        assert values.tobytes() == np.array([ra, dec, mag]).tobytes()


class TestOneRecordPerLine:
    """A record is one physical line, whatever its quotes or line end; the
    reference's csv records may span lines, so these cases are tested alone."""

    @staticmethod
    def _ingest(tmp_path, data: bytes):
        f = tmp_path / "c.csv"
        f.write_bytes(data)
        log: list[str] = []
        return ingest_csv(f, on_reject=log.append), log

    def test_reject_after_multi_line_quote_names_its_physical_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        index, log = self._ingest(tmp_path, b'id,ra,dec\n1,2,3\n"2\n",3,4\n5,6,95\n7,8,9\n')
        assert index.ids.tolist() == [1, 7]
        assert log == [
            "line 3: line ends inside a quoted field",
            "line 4: line ends inside a quoted field",
            "line 5: dec 95.0 outside [-90, 90]",
        ]

    def test_id_with_line_end_inside_quotes_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        index, log = self._ingest(tmp_path, b'id,ra,dec\n"1\n",2,3\n4,5,6\n')
        assert index.ids.tolist() == [4]
        assert log == [
            "line 2: line ends inside a quoted field",
            "line 3: line ends inside a quoted field",
        ]

    def test_open_quote_at_end_of_file_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)
        # the open line claims no id: a later row with its id is kept
        index, log = self._ingest(tmp_path, b'id,ra,dec\n1,2,3\n2,"3,4\n2,3,4\n5,"6,7')
        assert index.ids.tolist() == [1, 2]
        assert log == [
            "line 3: line ends inside a quoted field",
            "line 5: line ends inside a quoted field",
        ]

    def test_non_utf8_byte_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 64)
        rows = [f"{i},{i}.5,1.5" for i in range(100)]
        f = tmp_path / "c.csv"
        f.write_bytes(("id,ra,dec\n" + "\r\n".join(rows[:80])).encode()
                      + b"\r\n80,\xe9,1.5\r\n" + "\r\n".join(rows[81:]).encode())
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert str(info.value) == f"{f}: line 82: not UTF-8 text (byte 0xe9)"

    @pytest.mark.parametrize("data, error", [
        (b"\xef\xbb\xbf", "empty file, missing header"),
        (b'id,ra,"dec\n1,2,3\n', "line 1: line ends inside a quoted field"),
    ], ids=["bom-only", "open-quote"])
    def test_file_without_a_header(self, tmp_path, data, error):
        f = tmp_path / "c.csv"
        f.write_bytes(data)
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert str(info.value) == f"{f}: {error}"

    def test_cr_only_stream_is_split_into_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 16)
        data = b"1,2.5,3\r" * 20 + b"4,5,6"
        blocks = list(ingest._blocks(io.BytesIO(data)))
        assert len(blocks) > 1 and all(b.endswith((b"\r", b"\n")) for b in blocks)
        assert b"".join(blocks) == data + b"\n"

    def test_crlf_is_never_split_between_blocks(self, monkeypatch):
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 4)
        blocks = list(ingest._blocks(io.BytesIO(b"1,2\r\n3,4\r\n5,6\r")))
        assert blocks == [b"1,2\r\n", b"3,4\r\n", b"5,6\r\n"]


def _plain_rows(n: int) -> list[str]:
    return [f"{i},{i * 7.25 % 360!r},{i * 3.5 % 180 - 90!r},{i % 9 + 5.5!r}" for i in range(n)]


def _write_bytes(path, rows: list[str], header: str = "id,ra,dec,r"):
    """An LF-ended catalog. A row may hold the byte 0xe9, which is not
    UTF-8 text, written in it as an e with an acute accent."""
    text = header + "\n" + "".join(r + "\n" for r in rows)
    path.write_bytes(text.encode().replace("\u00e9".encode(), b"\xe9"))
    return path


# a field over the csv module's size limit
_LONG = "0" * (csv.field_size_limit() + 1)


class TestReadInParts:
    """A catalog's data read in P parts, one process each, part k being the
    run of the reader's blocks that ``ingest._read`` gives it, gives what
    one part gives: the same rows, reject messages and errors, with no
    process or pipe left behind."""

    @pytest.fixture()
    def parts(self, monkeypatch):
        """Sets the CPU count, and so the number of parts of a file of many
        small blocks, and the block size; the fork calls made are counted.
        Any share of rows may be rejected."""
        forks: list[int] = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(ingest, "MAX_REJECT_FRACTION", 1.0)

        def set_parts(p: int, block_bytes: int = 64) -> list[int]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(p)), raising=False)
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", block_bytes)
            forks.clear()
            return forks

        return set_parts

    @staticmethod
    def _bounds(path, p: int) -> list[int]:
        """The file offsets where each of the ``p`` parts of a catalog file
        begins, and its end. A block of ``ingest._blocks`` that begins
        ``at`` bytes into the data's ``size`` is in part ``at * p // size``,
        the first block being what follows the header in its block; a part
        with no block begins where the next one does."""
        data = path.read_bytes()
        start = 3 if data.startswith(b"\xef\xbb\xbf") else 0
        first = start + re.match(rb"[^\r\n]*(\r\n?|\n)", data[start:]).end()
        size = len(data) - first
        begins: dict[int, int] = {}
        at = start
        for block in ingest._blocks(io.BytesIO(data[start:])):
            begins.setdefault(max(at - first, 0) * p // size, max(at, first))
            at += len(block)
        bounds = [len(data)]
        for k in reversed(range(p)):
            bounds.insert(0, begins.get(k, bounds[0]))
        return bounds

    @staticmethod
    def _offset(path, line_no: int) -> int:
        """Where line ``line_no`` of an LF-ended file begins."""
        return sum(len(line) + 1 for line in path.read_bytes().split(b"\n")[: line_no - 1])

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_same_snapshot_and_rejects_as_one_part(self, tmp_path, parts, p):
        rows = _plain_rows(600)
        for at in range(7, 600, 41):
            rows[at] = _PERFBENCH_BAD[at % 8].format(id=at, dup=at // 2, big=2**64 + at)
        f = _write_bytes(tmp_path / "c.csv", rows)
        forks = parts(1)
        one_log: list[str] = []
        save_index(ingest_csv(f, on_reject=one_log.append), tmp_path / "one.npz")
        assert forks == []
        forks = parts(p)
        log: list[str] = []
        save_index(ingest_csv(f, on_reject=log.append), tmp_path / "p.npz")
        assert len(forks) == p - 1 and len(set(self._bounds(f, p))) == p + 1
        assert log == one_log and len(log) == 15
        with zipfile.ZipFile(tmp_path / "one.npz") as one, zipfile.ZipFile(tmp_path / "p.npz") as z:
            assert [(m, one.read(m)) for m in one.namelist()] == [
                (m, z.read(m)) for m in z.namelist()
            ]

    def test_duplicate_whose_first_passing_row_is_in_a_later_part(self, tmp_path, parts):
        rows = _plain_rows(600)
        rows[10] = "5000,1.5,95,10"  # the first row with id 5000 fails: it claims no id
        rows[300] = "5000,1.5,2.5,10"  # the first that passes
        rows[550] = "5000,2.5,3.5,10"
        f = _write_bytes(tmp_path / "c.csv", rows)
        forks = parts(3)
        bounds = self._bounds(f, 3)
        assert bounds[1] < self._offset(f, 302) < bounds[2] < self._offset(f, 552)
        log: list[str] = []
        index = ingest_csv(f, on_reject=log.append)
        assert len(forks) == 2
        assert log == ["line 12: dec 95.0 outside [-90, 90]", "line 552: duplicate id 5000"]
        assert index.ra[index.ids == 5000].tolist() == [1.5]

    @pytest.mark.parametrize("bad, reason", [
        ("\u00e9", "not UTF-8 text (byte 0xe9)"),
        (_LONG, "field larger than field limit (131072)"),
    ], ids=["non-utf8", "long-field"])
    def test_error_in_part_2_names_its_physical_line(self, tmp_path, parts, bad, reason):
        rows = _plain_rows(30000)
        rows[27000] = f"27000,{bad},1.5,2"
        f = _write_bytes(tmp_path / "c.csv", rows)
        forks = parts(3, 4096)
        bounds = self._bounds(f, 3)
        assert len(set(bounds)) == 4 and bounds[2] < self._offset(f, 27002)
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert len(forks) == 2
        assert str(info.value) == f"{f}: line 27002: {reason}"

    @pytest.mark.parametrize("early, late", [(3000, 15000), (15000, 27000)],
                             ids=["parts-0-and-1", "parts-1-and-2"])
    def test_first_error_in_file_order_wins(self, tmp_path, parts, early, late):
        rows = _plain_rows(30000)
        rows[early] = f"{early},\u00e9,1.5,2"
        rows[late] = f"{late},{_LONG},1.5,2"
        f = _write_bytes(tmp_path / "c.csv", rows)
        parts(3, 4096)
        bounds = self._bounds(f, 3)
        first = 0 if early == 3000 else 1
        assert bounds[first] < self._offset(f, early + 2) < bounds[first + 1]
        assert bounds[first + 1] < self._offset(f, late + 2)
        with pytest.raises(IngestError) as info:
            ingest_csv(f)
        assert str(info.value) == f"{f}: line {early + 2}: not UTF-8 text (byte 0xe9)"

    @pytest.mark.parametrize("ends", ["bom-crlf", "cr-lf-mixed", "cr-only"])
    @pytest.mark.parametrize("p", [2, 3])
    def test_line_ends_around_a_cut(self, tmp_path, parts, ends, p):
        rows = _plain_rows(400)
        for at in range(5, 400, 23):
            rows[at] = f"{at},1.5,95,10"
        if ends == "bom-crlf":
            data = "\ufeffid,ra,dec,r\r\n" + "".join(r + "\r\n" for r in rows)
        elif ends == "cr-lf-mixed":  # lone CRs, and an LF and a CRLF every 9 lines
            data = "id,ra,dec,r\r" + "".join(
                r + ("\n" if k % 9 == 4 else "\r\n" if k % 9 == 8 else "\r")
                for k, r in enumerate(rows)
            )
        else:  # no LF at all
            data = "id,ra,dec,r\r" + "".join(r + "\r" for r in rows)
        f = tmp_path / "c.csv"
        f.write_bytes(data.encode())
        parts(1)
        one = _outcome(ingest_csv, f, None)
        forks = parts(p)
        assert _outcome(ingest_csv, f, None) == one == _outcome(ingest_csv_reference, f, None)
        assert len(forks) == p - 1
        assert one[0][:2] == ["line 7: dec 95.0 outside [-90, 90]",
                              "line 30: dec 95.0 outside [-90, 90]"]

    def test_lines_longer_than_a_block_leave_a_part_without_one(self, tmp_path, parts):
        long_ra = "1." + "0" * 150 + "5"
        f = _write_bytes(tmp_path / "c.csv", [f"1,{long_ra},2.5,10", f"2,{long_ra},95,10"])
        parts(1)
        one = _outcome(ingest_csv, f, None)
        forks = parts(3)
        bounds = self._bounds(f, 3)
        assert bounds[0] < bounds[1] < bounds[2] == bounds[3]  # part 2 has no block
        assert _outcome(ingest_csv, f, None) == one == _outcome(ingest_csv_reference, f, None)
        assert len(forks) == 2
        assert one[0] == ["line 3: dec 95.0 outside [-90, 90]"]

    def test_child_killed_mid_parse_is_one_data_error(self, tmp_path, parts, monkeypatch,
                                                       capsys):
        f = _write_bytes(tmp_path / "c.csv", _plain_rows(600))
        parent = os.getpid()
        read_block = ingest._read_block

        def killed_in_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_block(*args)

        monkeypatch.setattr(ingest, "_read_block", killed_in_child)
        forks = parts(2)
        assert cli.main(["ingest", "--in", str(f), "--out", str(tmp_path / "c.npz")]) == 2
        assert len(forks) == 1
        assert capsys.readouterr().err == (
            f"zonequery: data error: {f}: a parse process ended without a result "
            f"(killed by signal {int(signal.SIGKILL)})\n"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_is_read_in_one_part(self, tmp_path, parts):
        f = _write_bytes(tmp_path / "c.csv", _plain_rows(600))
        fifo = tmp_path / "fifo" / "c.csv"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        forks = parts(2)
        writer = subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(f), str(fifo)])
        try:
            assert _outcome(ingest_csv, fifo, None) == _outcome(ingest_csv, f, None)
        finally:
            writer.wait()
        assert len(forks) == 1  # the regular file's read alone

    def test_children_of_a_killed_ingest_end_on_their_own(self, tmp_path):
        f = _write_bytes(tmp_path / "c.csv", _plain_rows(3000))
        # the parent kills itself once it has forked, before it reads a line
        script = """if True:
            import os, signal, sys
            from zonequery import ingest
            ingest._BLOCK_BYTES = 64
            os.sched_getaffinity = lambda pid: {0, 1, 2}
            parent, read_block = os.getpid(), ingest._read_block
            def read_block_or_die(*args):
                if os.getpid() == parent:
                    os.kill(parent, signal.SIGKILL)
                return read_block(*args)
            ingest._read_block = read_block_or_die
            ingest.ingest_csv(sys.argv[1])
        """
        proc = subprocess.Popen([sys.executable, "-c", script, str(f)], start_new_session=True,
                                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.wait(timeout=60) == -signal.SIGKILL
        deadline = time.monotonic() + 60
        with pytest.raises(ProcessLookupError):
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)  # the children are still in the group
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGKILL)

    def test_call_from_a_second_thread_does_not_fork(self, tmp_path, parts):
        f = _write_bytes(tmp_path / "c.csv", _plain_rows(600))
        forks = parts(2)
        outcome = {}
        thread = threading.Thread(target=lambda: outcome.update(got=_outcome(ingest_csv, f, None)))
        thread.start()
        thread.join()
        assert forks == []
        assert outcome["got"] == _outcome(ingest_csv, f, None)
        assert len(forks) == 1

    @pytest.mark.parametrize("end", ["return", "error", "interrupt", "killed"])
    def test_no_child_or_pipe_outlives_the_read(self, tmp_path, parts, monkeypatch, end):
        rows = _plain_rows(600)
        if end == "error":
            rows[450] = "450,\u00e9,1.5,2"
        f = _write_bytes(tmp_path / "c.csv", rows)
        parent = os.getpid()
        read_block = ingest._read_block

        def read_block_or_stop(*args):
            if os.getpid() == parent and end == "interrupt":
                raise KeyboardInterrupt
            if os.getpid() != parent and end == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return read_block(*args)

        monkeypatch.setattr(ingest, "_read_block", read_block_or_stop)
        forks = parts(3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                ingest_csv(f)
            except (IngestError, KeyboardInterrupt) as exc:
                assert end != "return", exc
            else:
                assert end == "return"
            gc.collect()
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def _rows_by_percent(header: str, row_format: str, columns) -> str:
    """What ``output._write_csv`` writes, one ``%`` per row: the reference."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return header + "".join(row_format % row for row in rows)


class TestWriteInParts:
    """A CSV with a ``%r`` field, written from many chunks, is formatted in
    one forked process per CPU (``output._write_csv`` on ``_forked``): the
    bytes are those of ``%`` in one process, errors name the output, and no
    process or pipe is left behind."""

    @pytest.fixture()
    def forks(self, monkeypatch):
        """Sets the CPU count and a chunk of 16 rows; the fork calls made
        are counted."""
        made: list[int] = []
        fork = os.fork

        def counted_fork():
            made.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(digits, "_CHUNK_ROWS", 16)

        def set_cpus(p: int) -> list[int]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(p)), raising=False)
            made.clear()
            return made

        return set_cpus

    @staticmethod
    def _env() -> dict[str, str]:
        """A Python child's environment: this package, and stdout buffered
        as it is by default when it is not a terminal."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return {**env, "PYTHONPATH": os.pathsep.join(sys.path)}

    # %r of each special value, and values around the chunk edges
    _SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 1e16, 1e-5, 0.1, 1 / 3, 5e-324]

    @classmethod
    def _columns(cls, n: int, kind: str):
        ids = np.arange(n, dtype=np.uint64) * np.uint64(2**40 + 7)
        ra = (np.resize(cls._SPECIAL, n) * np.arange(1, n + 1)).astype(np.float64)
        dec = np.resize(cls._SPECIAL[::-1], n)
        if kind == "arrays":  # as gen passes them
            return "%d,%r,%r,%r\n", (ids, ra, dec, -ra)
        # as scan passes them: tuples of Python ints and floats
        return "%d,%r\n", tuple(zip(*zip(ids.tolist(), dec.tolist())))

    @pytest.mark.parametrize("kind", ["arrays", "tuples"])
    @pytest.mark.parametrize("chunks", [0, 1, output._FORK_CHUNKS - 1, output._FORK_CHUNKS, 23])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_same_bytes_as_one_process(self, tmp_path, forks, capsys, p, chunks, kind):
        row_format, columns = self._columns(max(0, 16 * chunks - 5), kind)
        expected = _rows_by_percent("h,x\n", row_format, columns)
        made = forks(p)
        output._write_csv(tmp_path / "o.csv", "h,x\n", row_format, columns)
        assert (tmp_path / "o.csv").read_bytes() == expected.encode()
        capsys.readouterr()
        output._write_csv("-", "h,x\n", row_format, columns)
        assert capsys.readouterr().out == expected
        forked = chunks >= output._FORK_CHUNKS and p > 1
        assert len(made) == (2 * min(p, chunks) if forked else 0)

    def test_numeric_rows_are_formatted_here(self, tmp_path, forks):
        columns = (np.arange(500, dtype=np.uint64), np.arange(500) / 7)
        made = forks(2)
        output._write_csv(tmp_path / "o.csv", "", "%d,%.12g\n", columns)
        assert made == []
        assert (tmp_path / "o.csv").read_text() == _rows_by_percent("", "%d,%.12g\n", columns)

    def test_child_killed_mid_format_is_one_data_error(self, tmp_path, forks, monkeypatch,
                                                         capsys):
        parent = os.getpid()
        format_rows = digits._format_rows

        def killed_in_child(*args):
            for k, chunk in enumerate(format_rows(*args)):
                if os.getpid() != parent and k == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield chunk

        monkeypatch.setattr(digits, "_format_rows", killed_in_child)
        made = forks(2)
        out = tmp_path / "c.csv"
        assert cli.main(["gen", "--count", "200", "--out", str(out)]) == 2
        assert len(made) == 2
        assert capsys.readouterr().err == (
            f"zonequery: data error: {out}: a format process ended without a result "
            f"(killed by signal {int(signal.SIGKILL)})\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_names_its_path(self, forks, capsys):
        made = forks(2)
        assert cli.main(["gen", "--count", "200", "--out", "/dev/full"]) == 2
        assert len(made) == 2
        assert capsys.readouterr().err == (
            f"zonequery: data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            "'/dev/full'\n"
        )

    def test_closed_stdout_is_one_broken_pipe_error(self):
        # as `gen --out - | head -1` ends; three CPUs whatever the host has
        script = """if True:
            import os, sys
            os.sched_getaffinity = lambda pid: {0, 1, 2}
            from zonequery import cli
            sys.exit(cli.main(["gen", "--count", "200000", "--out", "-"]))
        """
        proc = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True, env=self._env(),
        )
        assert proc.stdout.readline() == b"id,ra,dec,r\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b"zonequery: data error: [Errno 32] Broken pipe: '<stdout>'\n"
        with pytest.raises(ProcessLookupError):  # no child outlived it
            os.killpg(proc.pid, 0)

    @pytest.mark.parametrize("end", ["return", "format-error", "write-error", "interrupt",
                                     "killed"])
    def test_no_child_or_pipe_outlives_the_write(self, forks, monkeypatch, end):
        parent = os.getpid()
        format_rows = digits._format_rows

        def format_rows_or_stop(*args):
            for k, chunk in enumerate(format_rows(*args)):
                if os.getpid() != parent and k == 2:
                    if end == "format-error":
                        raise ValueError("no format")
                    if end == "killed":
                        os.kill(os.getpid(), signal.SIGKILL)
                yield chunk

        class Stdout(io.StringIO):
            def write(self, text):
                if self.tell() and end == "write-error":  # after the header
                    raise OSError(errno.ENOSPC, "full")
                if self.tell() and end == "interrupt":
                    raise KeyboardInterrupt
                return super().write(text)

        monkeypatch.setattr(digits, "_format_rows", format_rows_or_stop)
        monkeypatch.setattr(sys, "stdout", Stdout())
        made = forks(3)
        row_format, columns = self._columns(400, "arrays")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                output._write_csv(None, "h\n", row_format, columns)
            except (OSError, ValueError, KeyboardInterrupt) as exc:
                assert end != "return", exc
            else:
                assert end == "return"
                assert sys.stdout.getvalue() == _rows_by_percent("h\n", row_format, columns)
            gc.collect()
        assert len(made) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_call_from_a_second_thread_does_not_fork(self, tmp_path, forks):
        row_format, columns = self._columns(400, "arrays")
        made = forks(2)
        thread = threading.Thread(
            target=output._write_csv, args=(tmp_path / "t.csv", "h\n", row_format, columns)
        )
        thread.start()
        thread.join()
        assert made == []
        output._write_csv(tmp_path / "o.csv", "h\n", row_format, columns)
        assert len(made) == 2
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "o.csv").read_bytes()

    def test_streams_flushed_before_fork_and_children_leave_by_exit(self, tmp_path):
        # stdout is a file, so block-buffered: "before;" waits in its buffer
        script = """if True:
            import atexit, os, sys
            from zonequery import output
            atexit.register(lambda: os.write(2, b"atexit ran\\n"))
            sys.stdout.write("before;")
            jobs = [lambda: iter(["a;", "c;"]), lambda: iter(["b;"])]
            with output._forked(jobs, OSError, "a job") as results:
                os.write(1, b"forked;")
                sys.stdout.write("".join(results))
        """
        out = tmp_path / "stdout.txt"
        with out.open("wb") as stdout:
            proc = subprocess.run(
                [sys.executable, "-c", script], stdout=stdout, stderr=subprocess.PIPE,
                env=self._env(), timeout=60,
            )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == b"before;forked;a;b;c;"
        assert proc.stderr == b"atexit ran\n"  # in the parent alone


class TestIndexStructure:
    def test_round_trip_id_multiset(self, tmp_path):
        rng = np.random.default_rng(21)
        ra, dec = random_sky(rng, 2000)
        ids = rng.permutation(np.arange(5000))[:2000]
        rows = [f"{ids[i]},{float(ra[i])!r},{float(dec[i])!r},9.0" for i in range(2000)]
        f = write_rows(tmp_path / "cat.csv", rows, header="id,ra,dec,r")
        index = ingest_csv(f, cfg=CFG)
        got = sorted(int(i) for s in index.slices() for i in s.ids)
        assert got == sorted(int(i) for i in ids)

    def test_slices_sorted_by_ra_then_id(self, tmp_path):
        # several objects sharing one ra value inside one zone
        rows = ["5,10.0,0.01,9", "3,10.0,0.02,9", "9,10.0,0.03,9", "1,9.0,0.015,9"]
        f = write_rows(tmp_path / "ties.csv", rows, header="id,ra,dec,r")
        index = ingest_csv(f, cfg=CFG)
        (s,) = [s for s in index.slices() if s.zone == zone_of(0.02, CFG)]
        assert s.ra.tolist() == [9.0, 10.0, 10.0, 10.0]
        assert s.ids.tolist() == [1, 3, 5, 9]

    def test_reingest_is_identical(self, tmp_path):
        rng = np.random.default_rng(22)
        ra, dec = random_sky(rng, 3000)
        rows = [
            f"{i},{float(ra[i])!r},{float(dec[i])!r},{float(rng.uniform(5, 15))!r}"
            for i in range(3000)
        ]
        f = write_rows(tmp_path / "cat.csv", rows, header="id,ra,dec,r")
        a, b = ingest_csv(f, cfg=CFG), ingest_csv(f, cfg=CFG)
        for attr in ("ids", "ra", "dec", "mags", "zone_starts", "ra_key"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))

    def test_every_object_in_its_zone(self, tmp_path):
        rng = np.random.default_rng(23)
        ra, dec = random_sky(rng, 5000)
        index = build_index("t", CFG, np.arange(5000, dtype=np.uint64), ra, dec)
        for s in index.slices():
            assert all(zone_of(float(d), CFG) == s.zone for d in s.dec)

    def test_ra_key_is_zone_key_band_plus_ra(self, tmp_path):
        rng = np.random.default_rng(24)
        ra, dec = random_sky(rng, 5000)
        ra[:50] = np.nextafter(360.0, 0.0)  # keys that round up to the band's end
        built = build_index("t", CFG, np.arange(5000, dtype=np.uint64), ra, dec)
        save_index(built, tmp_path / "t.idx")
        for index in (built, load_index(tmp_path / "t.idx")):
            zone = zone_of_array(index.dec, CFG)
            expected = zone.astype(np.float64) * catalog.KEY_BAND + index.ra
            assert index.ra_key.dtype == np.float64
            assert index.ra_key.tobytes() == expected.tobytes()

    def test_ra_key_built_on_first_use(self):
        """Only the searched side of a cross-match builds its ra_key."""
        rng = np.random.default_rng(25)
        lead, other = (
            build_index(name, CFG, np.arange(2000, dtype=np.uint64), *random_sky(rng, 2000))
            for name in ("lead", "other")
        )
        assert "ra_key" not in vars(lead) and "ra_key" not in vars(other)
        run_xmatch(lead, other, MatchSpec(radius=1.0), plan_contiguous(CFG.zone_count, 2))
        assert "ra_key" not in vars(lead) and "ra_key" in vars(other)

    def test_fields_cannot_be_assigned(self):
        ids = np.arange(3, dtype=np.uint64)
        index = build_index("t", CFG, ids, *random_sky(np.random.default_rng(26), 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            index.ids = ids

    def test_duplicate_ids_rejected_by_build(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index(
                "t", CFG, np.array([1, 1], dtype=np.uint64),
                np.array([0.0, 1.0]), np.array([0.0, 1.0]),
            )

    @pytest.mark.parametrize("ra, dec, reason", [
        (0.0, np.nan, "dec not finite"),
        (0.0, 90.5, "dec not finite"),
        (np.inf, 0.0, "ra not finite"),
        (np.nan, 0.0, "ra not finite"),
    ])
    def test_non_finite_coordinates_rejected_by_build(self, ra, dec, reason):
        with pytest.raises(ValueError, match=reason):
            build_index(
                "t", CFG, np.array([1, 2], dtype=np.uint64),
                np.array([ra, 1.0]), np.array([dec, 1.0]),
            )

    def test_total_count_equals_slice_sizes(self, tmp_path):
        rng = np.random.default_rng(24)
        ra, dec = random_sky(rng, 4000)
        index = build_index("t", CFG, np.arange(4000, dtype=np.uint64), ra, dec)
        assert sum(len(s) for s in index.slices()) == index.total_count == 4000


def _lexsort_index(name, cfg, ids, ra, dec, mags, bands) -> catalog.ZoneIndex:
    """The index as build_index defined it with one three-key lexsort: the
    oracle of its row order and zone offsets."""
    ids = np.asarray(ids, dtype=np.uint64)
    ra = normalize_ra_array(np.asarray(ra, dtype=np.float64))
    dec = np.asarray(dec, dtype=np.float64)
    mags = np.asarray(mags, dtype=np.float64).reshape(len(ids), len(bands))
    zone = zone_of_array(dec, cfg)
    order = np.lexsort((ids, ra, zone))
    zone_starts = np.searchsorted(zone[order], np.arange(cfg.zone_count + 1))
    return catalog.ZoneIndex(
        name, cfg, tuple(bands), ids[order], ra[order], dec[order], mags[order], zone_starts
    )


def _assert_lexsort_order(cfg, ids, ra, dec, mags=None):
    """Build the index and its lexsort oracle, assert their columns and zone
    offsets equal byte for byte, and return both."""
    mags = np.empty((len(ids), 0)) if mags is None else mags
    bands = ("r", "g")[: mags.shape[1]]
    built = build_index("o", cfg, ids, ra, dec, mags, bands)
    oracle = _lexsort_index("o", cfg, ids, ra, dec, mags, bands)
    for attr in ("ids", "ra", "dec", "mags", "zone_starts"):
        got, want = getattr(built, attr), getattr(oracle, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
    return built, oracle


def _build_recording_ties(monkeypatch, cfg, ids, ra, dec):
    """build_index, and the id key of each lexsort it ran: one per build
    with tied rows, none without."""
    tied = []
    lexsort = np.lexsort

    def recording(keys):
        tied.append(keys[0])
        return lexsort(keys)

    with monkeypatch.context() as m:
        m.setattr(np, "lexsort", recording)
        index = build_index("o", cfg, ids, ra, dec)
    return index, tied


_FINE = ZoneConfig(1 / 3600)
# declination at the middle of zone 600,001 of 1-arcsec zones
_HIGH_DEC = -90.0 + 600_001.5 / 3600


def _order_case(kind: str, rng: np.random.Generator):
    """(cfg, ids, ra, dec) of one row order case; ids unique and shuffled."""
    if kind == "empty":
        return CFG, np.empty(0), np.empty(0), np.empty(0)
    if kind == "one":
        return CFG, np.array([7]), np.array([123.5]), np.array([-12.0])
    if kind == "equal_ra":
        # one zone, one ra, so all rows are one tie run: only ids order them
        ra, dec = np.full(40, 10.0), np.full(40, 0.02)
    elif kind == "key_collision":
        # distinct ra 1e-9 deg apart, whose keys near 3e8 round together
        ra = 100.0 + np.arange(40) * 1e-9
        dec = np.full(40, _HIGH_DEC)
        return _FINE, rng.permutation(10_000)[:40], rng.permutation(ra), dec
    elif kind == "signed_zero":
        ra, dec = np.array([0.0, -0.0] * 10), np.full(20, 5.0)
    elif kind == "band_end":
        # keys of the last float below 360 round up to the band's end
        ra = np.array([np.nextafter(360.0, 0.0), 360.0 - 1e-9, 0.0, 359.0] * 10)
        return _FINE, rng.permutation(10_000)[:40], ra, np.full(40, _HIGH_DEC)
    elif kind == "ra_1e-12_apart":
        # distinct ra 1e-12 deg apart in one zone; 40 rows leave 46 bits for
        # ra in the sort words, a step of 5e-12 deg, so neighbours share one
        ra, dec = 100.0 + np.arange(40) * 1e-12, np.full(40, 10.0)
        return CFG, rng.permutation(10_000)[:40], rng.permutation(ra), dec
    elif kind == "runs":
        # ten tie runs of 2 to 11 rows at one position each, in several
        # zones, separated by untied rows
        ra, dec = random_sky(rng, 300)
        for k, size in enumerate(range(2, 12)):
            ra[30 * k : 30 * k + size] = ra[30 * k]
            dec[30 * k : 30 * k + size] = dec[30 * k]
    else:
        raise AssertionError(kind)
    return CFG, rng.permutation(10_000)[: len(ra)], ra, dec


class TestRowOrder:
    """build_index's order is the total (zone, ra, id) order that a
    three-key lexsort gives, whatever order its input rows come in."""

    KINDS = [
        "empty", "one", "equal_ra", "key_collision", "signed_zero", "band_end", "runs",
        "ra_1e-12_apart",
    ]

    @pytest.mark.parametrize("kind", KINDS)
    def test_order_equals_lexsort(self, kind, tmp_path):
        rng = np.random.default_rng(self.KINDS.index(kind))
        cfg, ids, ra, dec = _order_case(kind, rng)
        mags = rng.uniform(5, 15, (len(ids), 2))
        built, oracle = _assert_lexsort_order(cfg, ids, ra, dec, mags)
        save_index(built, tmp_path / "built.idx")
        save_index(oracle, tmp_path / "oracle.idx")
        assert _raw_members(tmp_path / "built.idx") == _raw_members(tmp_path / "oracle.idx")

    @pytest.mark.parametrize(
        "kind",
        ["equal_ra", "key_collision", "signed_zero", "band_end", "ra_1e-12_apart", "runs"],
    )
    def test_cases_tie_in_the_key(self, kind, monkeypatch):
        """Each of these cases has rows of equal (zone, scaled ra) in
        build_index's sort words, so it reaches the lexsort of tied rows. In
        key_collision and ra_1e-12_apart every ra is distinct: rows of
        distinct ra share a scaled ra there."""
        cfg, ids, ra, dec = _order_case(kind, np.random.default_rng(0))
        index, tied = _build_recording_ties(monkeypatch, cfg, ids, ra, dec)
        assert len(tied) == 1 and 2 <= len(tied[0]) <= len(ids)
        if kind in ("key_collision", "ra_1e-12_apart"):
            assert len(np.unique(ra)) == len(ra)
        # facts about the search key, which the order no longer uses
        if kind == "key_collision":
            # distinct ra whose keys near 3e8 round together
            assert len(np.unique(index.ra_key)) < len(np.unique(index.ra))
        if kind == "band_end":
            # keys of the last float below 360 round up to the band's end
            top = index.ra == np.nextafter(360.0, 0.0)
            base = zone_of(_HIGH_DEC, _FINE) * catalog.KEY_BAND
            assert top.any() and np.all(index.ra_key[top] == base + 360.0)

    def test_distinct_positions_skip_the_lexsort(self, monkeypatch):
        ra, dec = random_sky(np.random.default_rng(33), 2000)
        ids = np.arange(2000)
        _, tied = _build_recording_ties(monkeypatch, CFG, ids, ra, dec)
        assert tied == []

    def test_permuted_columns_give_the_same_snapshot(self, tmp_path):
        rng = np.random.default_rng(31)
        _, ids, ra, dec = _order_case("runs", rng)
        mags = rng.uniform(5, 15, (len(ids), 1))
        snapshots = []
        perms = [np.arange(len(ids)), *(rng.permutation(len(ids)) for _ in range(3))]
        for k, perm in enumerate(perms):
            index = build_index("p", CFG, ids[perm], ra[perm], dec[perm], mags[perm], ("r",))
            save_index(index, tmp_path / f"{k}.idx")
            snapshots.append(_raw_members(tmp_path / f"{k}.idx"))
        assert all(s == snapshots[0] for s in snapshots[1:])

    def test_shuffled_csv_lines_give_the_same_snapshot(self, tmp_path):
        rng = np.random.default_rng(32)
        ra, dec = random_sky(rng, 2000)
        # fifty positions shared by ten rows each, so ids break ties
        ra[:500], dec[:500] = np.repeat(ra[:50], 10), np.repeat(dec[:50], 10)
        ids = rng.permutation(10**6)[:2000]
        rows = [f"{ids[i]},{float(ra[i])!r},{float(dec[i])!r},{i % 13}.5" for i in range(2000)]
        rows[5] = "oops,1.0,2.0,3.0"  # one reject, well under the 1% limit
        snapshots = []
        for k in range(3):
            # each copy is cat.csv, in a directory of its own: the index is
            # named after the file's stem, and that name is in the snapshot
            (tmp_path / str(k)).mkdir()
            f = write_rows(tmp_path / str(k) / "cat.csv", rows, header="id,ra,dec,r")
            save_index(ingest_csv(f), tmp_path / f"{k}.idx")
            snapshots.append(_raw_members(tmp_path / f"{k}.idx"))
            rows = [rows[i] for i in rng.permutation(len(rows))]
        assert all(s == snapshots[0] for s in snapshots[1:])


# zone heights of 4' (12 zone bits), 1" (20), 90 deg (2 zones) and 200 deg (1)
_HEIGHTS = [4 / 60, 1 / 3600, 90.0, 200.0]
_ULP_BELOW_360 = math.nextafter(360.0, 0.0)
# ra values that tie or nearly tie: signed zero, the top of [0, 360) and
# values that wrap onto it or onto 0, neighbours 1e-12 deg apart
_NEAR_RA = [0.0, -0.0, 10.0, 10.0 + 1e-12, 180.0, _ULP_BELOW_360, 360.0, -1e-300, 725.5]
# zone edges and middles of several heights, and both poles
_NEAR_DEC = [-90.0, -45.0, -1e-9, 0.0, 1 / 60, 0.02, 45.0, 89.99, 90.0]


def _ulps(x: float, k: int) -> float:
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _near_tie_catalogs(draw):
    cfg = ZoneConfig(draw(st.sampled_from(_HEIGHTS)))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(_NEAR_RA), st.integers(-3, 3),
            st.sampled_from(_NEAR_DEC), st.integers(-2, 2),
        ),
        max_size=48,
    ))
    ids = draw(st.lists(
        st.integers(0, 2**64 - 1), min_size=len(rows), max_size=len(rows), unique=True
    ))
    ra = np.array([_ulps(r, k) for r, k, _, _ in rows])
    dec = np.clip([_ulps(d, k) for _, _, d, k in rows], -90.0, 90.0)
    return cfg, np.array(ids, dtype=np.uint64), ra, dec


class TestPackedOrder:
    """build_index sorts words of (zone, scaled ra, row). Where the packing
    could go wrong: near-ties, the row field's width, the top of the ra field,
    ids of all 64 bits, and the caller's arrays."""

    @given(_near_tie_catalogs())
    @settings(max_examples=300, deadline=None)
    def test_near_ties_equal_lexsort(self, case):
        _assert_lexsort_order(*case)

    @pytest.mark.parametrize("height", _HEIGHTS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 255, 256, 257, 65535, 65536, 65537])
    def test_row_field_widths(self, n, height):
        """Row counts at the edges of a row field width (2**k - 1, 2**k and
        2**k + 1 rows), with ties, near-ties and ids up to 2**64 - 1."""
        rng = np.random.default_rng(n)
        ra = np.where(
            rng.random(n) < 0.5, rng.choice(_NEAR_RA, n), rng.uniform(-360.0, 720.0, n)
        )
        ra += rng.integers(-2, 3, n) * np.spacing(ra)
        dec = np.where(rng.random(n) < 0.5, rng.choice(_NEAR_DEC, n), rng.uniform(-90, 90, n))
        ids = np.uint64(2**64 - 1) - rng.permutation(4 * n)[:n].astype(np.uint64)
        _assert_lexsort_order(ZoneConfig(height), ids, ra, dec, rng.uniform(5, 15, (n, 2)))

    @pytest.mark.parametrize("height", _HEIGHTS)
    @pytest.mark.parametrize("n", [2, 40, 65537])
    def test_top_of_ra_stays_in_its_zone(self, n, height):
        """The largest ra below 360 scales into the top of the ra field and
        no further, so its rows stay in their zone: before the next zone's
        rows at ra 0, and in the last zone, whose field is the word's top,
        after every other zone's rows."""
        cfg = ZoneConfig(height)
        decs = [-90.0, -90.0 + 1.5 * height, 90.0] if cfg.zone_count > 2 else [-90.0, 90.0]
        ras = [_ULP_BELOW_360, 0.0, _ulps(_ULP_BELOW_360, -1)]
        grid = [(r, d) for r in ras for d in decs]
        ra, dec = np.array([grid[k % len(grid)] for k in range(n)]).T
        _assert_lexsort_order(cfg, np.random.default_rng(n).permutation(n), ra, dec)

    def test_caller_arrays_are_not_written(self):
        ra = np.array([-0.0, 720.5, -1e-300, 360.0, 10.0, 10.0, _ULP_BELOW_360, -30.0])
        dec = np.array([0.0, 0.0, 89.0, -90.0, 5.0, 5.0, 5.0, 90.0])
        ids = np.array([8, 3, 2**64 - 1, 5, 1, 7, 6, 4], dtype=np.uint64)
        mags = np.arange(16.0).reshape(8, 2)
        columns = (ids, ra, dec, mags)
        before = [c.tobytes() for c in columns]
        built, _ = _assert_lexsort_order(CFG, *columns)
        assert [c.tobytes() for c in columns] == before
        assert not any(np.shares_memory(b, c) for b in (built.ids, built.ra) for c in columns)


class TestRaScan:
    """The ra scan inside a zone is the join kernel's candidate search: binary
    searches for a padded ra window on the index's (zone, ra) key."""

    DEC = 0.01

    def make_index(self, ra_values):
        ra = np.asarray(ra_values, dtype=float)
        dec = np.full(len(ra), self.DEC)
        return build_index("s", CFG, np.arange(len(ra), dtype=np.uint64), ra, dec)

    def candidates(self, index, center_ra, radius):
        """Candidate rows of a cone around (center_ra, DEC), in search order."""
        seen = []
        _zone_join(
            np.array([center_ra]), np.array([self.DEC]), radius,
            index.ra_key, index.ra, index.dec, index.cfg,
            candidate_sink=lambda lead, rows: seen.append(rows),
        )
        return np.concatenate(seen)

    def test_full_circle_returns_whole_slice(self):
        index = self.make_index([0.0, 10.0, 180.0, 359.9])
        assert sorted(self.candidates(index, 0.0, 180.0).tolist()) == [0, 1, 2, 3]

    def test_gap_between_objects_is_empty(self):
        index = self.make_index([10.0, 20.0])
        assert self.candidates(index, 15.0, 2.0).size == 0

    def test_randomized_against_linear_oracle(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            index = self.make_index(rng.uniform(0, 360, 200))
            radius = float(rng.uniform(0, 90))
            center = float(rng.uniform(0, 360))
            reach = ra_halfwidth_array(radius, np.array([self.DEC]))[0] + WINDOW_PAD_DEG
            dra = np.abs((index.ra - center + 180.0) % 360.0 - 180.0)
            oracle = np.nonzero((dra <= reach) | (reach >= 180.0))[0]
            got = np.sort(self.candidates(index, center, radius))
            assert got.tolist() == oracle.tolist()

    def test_uses_binary_search_bounds(self):
        index = self.make_index(np.linspace(0, 359, 1000))
        idx = self.candidates(index, 180.0, 1.0)
        assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))


class TestHistogram:
    def test_empty_index_all_zeros(self):
        index = build_index("e", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
        h = histogram(index)
        assert h.dtype == np.int64
        assert len(h) == CFG.zone_count and h.sum() == 0

    def test_three_object_fixture(self, tmp_path):
        f = write_rows(
            tmp_path / "cat.csv",
            ["1,10.0,-90,9.5,", "2,20.0,0,10.5,11.0", "3,30.0,90,,12.0"],
        )
        h = histogram(ingest_csv(f, cfg=CFG))
        nz = np.nonzero(h)[0].tolist()
        assert nz == [0, 1350, 2699]
        assert h[nz].tolist() == [1, 1, 1]


class TestSnapshot:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        ra, dec = random_sky(rng, 1500)
        mags = rng.uniform(5, 15, (1500, 2))
        mags[::7, 0] = np.nan
        index = build_index(
            "snap", CFG, np.arange(1500, dtype=np.uint64), ra, dec, mags, ("r", "g")
        )
        path = tmp_path / "snap.npz"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.name == "snap"
        assert loaded.cfg == index.cfg
        assert loaded.bands == ("r", "g")
        for attr in ("ids", "ra", "dec", "zone_starts", "ra_key"):
            assert np.array_equal(getattr(loaded, attr), getattr(index, attr))
        assert np.array_equal(loaded.mags, index.mags, equal_nan=True)

    def test_bare_filename_is_honored(self, tmp_path):
        index = build_index("x", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
        path = tmp_path / "plain_index"  # no .npz suffix
        save_index(index, path)
        assert path.exists()
        assert load_index(path).total_count == 0

    def test_not_a_snapshot(self, tmp_path):
        f = tmp_path / "junk.npz"
        f.write_text("not a zip", encoding="utf-8")
        with pytest.raises(SnapshotFormatError):
            load_index(f)

    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotFormatError, match="no such file"):
            load_index(tmp_path / "missing.npz")

    def test_wrong_version(self, tmp_path):
        f = tmp_path / "old.npz"
        with f.open("wb") as fh:
            np.savez(fh, version=np.array(99), name=np.array("x"))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_index(f)


def _members(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def _write_members(path, members: dict) -> None:
    with path.open("wb") as fh:
        np.savez(fh, **members)


def _swap_rows(m):
    for k in ("ids", "ra", "dec", "mags"):
        m[k][[10, 11]] = m[k][[11, 10]]


def _tied_ra_ids_reversed(m):
    m["ra"][11], m["dec"][11] = m["ra"][10], m["dec"][10]
    lo, hi = sorted(m["ids"][10:12])
    m["ids"][10:12] = hi, lo


def _shift_zone_start(m):
    zone = int(np.nonzero(np.diff(m["zone_starts"]))[0][5])
    m["zone_starts"][zone + 1] += 1


def _duplicate_id(m):
    m["ids"][-1] = m["ids"][0]


def _dec_out_of_range(m):
    m["dec"][0] = -90.5


def _dec_nan(m):
    m["dec"][0] = np.nan


def _ra_is_360(m):
    m["ra"][-1] = 360.0


def _ids_int64(m):
    m["ids"] = m["ids"].astype(np.int64)


def _drop_zone_starts(m):
    del m["zone_starts"]


def _mags_one_band_short(m):
    m["mags"] = m["mags"][:, :1]


class TestSnapshotV2:
    @pytest.fixture()
    def built(self):
        rng = np.random.default_rng(27)
        ra, dec = random_sky(rng, 800)
        mags = rng.uniform(5, 15, (800, 2))
        ids = rng.permutation(10_000)[:800].astype(np.uint64)
        return build_index("v2", CFG, ids, ra, dec, mags, ("r", "g"))

    def test_stores_built_index_and_loads_without_rebuild(self, built, tmp_path, monkeypatch):
        path = tmp_path / "v2.idx"
        save_index(built, path)
        members = _members(path)
        assert int(members["version"]) == 2
        assert set(members) == {
            "version", "name", "height_deg", "bands", "ids", "ra", "dec", "mags",
            "zone_starts",
        }
        assert np.array_equal(members["ids"], built.ids)
        assert np.array_equal(members["zone_starts"], built.zone_starts)

        def no_rebuild(*args, **kwargs):
            raise AssertionError("a v2 load must not rebuild")

        monkeypatch.setattr(catalog, "build_index", no_rebuild)
        loaded = load_index(path)
        for attr in ("ids", "ra", "dec", "mags", "zone_starts", "ra_key"):
            assert np.array_equal(getattr(loaded, attr), getattr(built, attr))
        assert (loaded.name, loaded.cfg, loaded.bands) == ("v2", CFG, ("r", "g"))

    def test_empty_index_round_trip(self, tmp_path):
        empty = build_index("e", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
        path = tmp_path / "empty.idx"
        save_index(empty, path)
        loaded = load_index(path)
        assert loaded.total_count == 0
        assert loaded.bands == ()
        assert loaded.mags.shape == (0, 0)
        assert np.array_equal(loaded.zone_starts, np.zeros(CFG.zone_count + 1))

    def test_v1_snapshot_is_rejected(self, tmp_path):
        # version 1 stored raw columns without zone_starts; it is not read
        rng = np.random.default_rng(28)
        ra, dec = random_sky(rng, 600)
        path = tmp_path / "v1.idx"
        _write_members(path, dict(
            version=np.array(1, dtype=np.int64), name=np.array("old"),
            height_deg=np.array(CFG.height_deg), bands=np.array(["r"]),
            ids=np.arange(600, dtype=np.uint64), ra=ra, dec=dec,
            mags=rng.uniform(5, 15, (600, 1)),
        ))
        with pytest.raises(SnapshotFormatError, match="snapshot version 1, expected 2$"):
            load_index(path)

    @pytest.mark.parametrize("breaker, reason", [
        (_swap_rows, "order"),
        (_tied_ra_ids_reversed, "order"),
        (_shift_zone_start, "zone_starts disagree"),
        (_duplicate_id, "duplicate"),
        (_dec_out_of_range, "dec not finite"),
        (_dec_nan, "dec not finite"),
        (_ra_is_360, "ra not finite"),
        (_ids_int64, "dtype"),
        (_drop_zone_starts, "missing members \\['zone_starts'\\]"),
        (_mags_one_band_short, "mags has shape"),
    ])
    def test_each_check_rejects_a_broken_file(self, built, tmp_path, breaker, reason):
        path = tmp_path / "broken.idx"
        save_index(built, path)
        members = _members(path)
        breaker(members)
        _write_members(path, members)
        with pytest.raises(SnapshotFormatError, match=f"corrupt snapshot: .*{reason}"):
            load_index(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(SnapshotFormatError, match="unreadable"):
            load_index(path)

    @pytest.mark.parametrize("kind", ["csv", "npy", "object npy", "one byte"])
    def test_other_file_is_not_a_snapshot(self, tmp_path, kind):
        path = tmp_path / "other"
        if kind == "csv":
            path.write_text("id,ra,dec\n1,10.0,20.0\n")
        elif kind == "npy":
            with path.open("wb") as fh:
                np.save(fh, np.arange(10.0))
        elif kind == "object npy":  # np.load would advise loading it unsafely
            with path.open("wb") as fh:
                np.save(fh, np.array([{"a": 1}], dtype=object), allow_pickle=True)
        else:
            path.write_bytes(b"x")
        with pytest.raises(SnapshotFormatError) as info:
            load_index(path)
        assert str(info.value) == f"{path}: not a zonequery index snapshot"

    def test_truncated_file(self, built, tmp_path):
        path = tmp_path / "cut.idx"
        save_index(built, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SnapshotFormatError, match="unreadable"):
            load_index(path)

    def test_truncated_file_is_closed(self, built, tmp_path):
        path = tmp_path / "cut.idx"
        save_index(built, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SnapshotFormatError):
                load_index(path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_flipped_byte_fails_member_crc(self, built, tmp_path):
        path = tmp_path / "flip.idx"
        save_index(built, path)
        raw = bytearray(path.read_bytes())
        at = raw.find(built.ra.tobytes()) + 8 * 100 + 3
        raw[at] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="CRC"):
            load_index(path)

    def test_damaged_compressed_member(self, built, tmp_path):
        path = tmp_path / "z.idx"
        save_index(built, path)
        members = _members(path)
        with path.open("wb") as fh:
            np.savez_compressed(fh, **members)
        assert load_index(path).total_count == built.total_count
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("ra.npy")
        # a local file header is 30 bytes, then the name and the extra field
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data_at = info.header_offset + 30 + name_len + extra_len
        raw[data_at + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="unreadable"):
            load_index(path)


def _load_error(path, **kwargs) -> str | None:
    try:
        load_index(path, **kwargs)
    except SnapshotFormatError as exc:
        return str(exc)
    return None


def _mags_float32(m):
    m["mags"] = m["mags"].astype(np.float32)


def _mags_big_endian(m):
    m["mags"] = m["mags"].astype(">f8")


def _mags_object(m):
    m["mags"] = m["mags"].astype(object)


def _mags_one_dimensional(m):
    m["mags"] = m["mags"][:, 0].copy()


def _write_raw_members(path, raw: dict, compression=zipfile.ZIP_STORED) -> None:
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, data in raw.items():
            zf.writestr(name, data)


def _raw_members(path) -> dict:
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def _npy_bytes(array, version) -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array, version=version)
    return buf.getvalue()


class TestLoadWithoutMags:
    """``load_index(path, mags=False)`` reads and checks the magnitudes but
    does not keep them; every broken file fails exactly as a full load."""

    @pytest.fixture()
    def built(self):
        rng = np.random.default_rng(29)
        ra, dec = random_sky(rng, 700)
        mags = rng.uniform(5, 15, (700, 3))
        ids = rng.permutation(10_000)[:700].astype(np.uint64)
        return build_index("nomags", CFG, ids, ra, dec, mags, ("r", "g", "i"))

    def assert_same_load(self, path, expect_error=True):
        full, lean = _load_error(path), _load_error(path, mags=False)
        assert lean == full
        assert (full is not None) == expect_error

    @pytest.mark.parametrize("compressed", [False, True])
    def test_good_snapshot_keeps_everything_but_mags(self, built, tmp_path, compressed):
        path = tmp_path / "good.idx"
        save_index(built, path)
        if compressed:
            members = _members(path)
            with path.open("wb") as fh:
                np.savez_compressed(fh, **members)
        lean = load_index(path, mags=False)
        for attr in ("ids", "ra", "dec", "zone_starts", "ra_key"):
            assert np.array_equal(getattr(lean, attr), getattr(built, attr))
        assert (lean.name, lean.cfg) == ("nomags", CFG)
        assert lean.bands == ()
        assert lean.mags.shape == (built.total_count, 0)
        assert lean.mags.dtype == np.float64
        with pytest.raises(ValueError, match="unknown band"):
            lean.band_column("r")

    def test_empty_index(self, tmp_path):
        empty = build_index("e", CFG, np.empty(0, dtype=np.uint64), np.empty(0), np.empty(0))
        path = tmp_path / "empty.idx"
        save_index(empty, path)
        lean = load_index(path, mags=False)
        assert lean.total_count == 0 and lean.bands == () and lean.mags.shape == (0, 0)

    @pytest.mark.parametrize("breaker", [
        _swap_rows, _tied_ra_ids_reversed, _shift_zone_start, _duplicate_id,
        _dec_out_of_range, _dec_nan, _ra_is_360, _ids_int64, _drop_zone_starts,
        _mags_one_band_short, _mags_float32, _mags_big_endian, _mags_object,
        _mags_one_dimensional,
    ])
    def test_each_broken_file_gives_the_full_load_message(self, built, tmp_path, breaker):
        path = tmp_path / "broken.idx"
        save_index(built, path)
        members = _members(path)
        breaker(members)
        _write_members(path, members)
        self.assert_same_load(path)

    @pytest.mark.parametrize("damage", ["empty", "half", "not a zip", "version", "ra crc"])
    def test_damaged_file(self, built, tmp_path, damage):
        path = tmp_path / "damaged.idx"
        save_index(built, path)
        raw = path.read_bytes()
        if damage == "version":
            members = _members(path)
            members["version"] = np.array(1, dtype=np.int64)
            _write_members(path, members)
            raw = path.read_bytes()
        elif damage == "ra crc":
            at = raw.find(built.ra.tobytes()) + 8 * 100 + 3
            raw = raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:]
        else:
            raw = {"empty": b"", "half": raw[: len(raw) // 2], "not a zip": b"not a zip"}[damage]
        path.write_bytes(raw)
        self.assert_same_load(path)

    @pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])
    @pytest.mark.parametrize("where", [0.0, 0.5, 0.999])
    def test_damaged_mags_member(self, built, tmp_path, compression, where):
        path = tmp_path / "damaged.idx"
        save_index(built, path)
        _write_raw_members(path, _raw_members(path), compression)
        raw = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("mags.npy")
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data_at = info.header_offset + 30 + name_len + extra_len
        # past the 128-byte .npy header when stored: a damaged magnitude
        skip = 128 if compression == zipfile.ZIP_STORED else 0
        at = skip + int((info.compress_size - skip - 1) * where)
        raw[data_at + at] ^= 0x20
        path.write_bytes(bytes(raw))
        self.assert_same_load(path)
        assert "unreadable" in _load_error(path, mags=False)

    @pytest.mark.parametrize("cut", [8, 100, 50_000])
    def test_short_mags_member(self, tmp_path, cut):
        # a well-formed archive whose mags member ends before its header
        # says; 288,000 bytes of magnitudes take two of np.load's pieces
        rng = np.random.default_rng(31)
        ra, dec = random_sky(rng, 12_000)
        wide = build_index(
            "wide", CFG, np.arange(12_000, dtype=np.uint64), ra, dec,
            rng.uniform(5, 15, (12_000, 3)), ("r", "g", "i"),
        )
        path = tmp_path / "short.idx"
        save_index(wide, path)
        raw = _raw_members(path)
        raw["mags.npy"] = raw["mags.npy"][:-cut]
        _write_raw_members(path, raw)
        self.assert_same_load(path)
        assert "EOF: reading array data" in _load_error(path, mags=False)

    @pytest.mark.parametrize("member, reason", [
        ("ids", "ids is not a .npy array"),
        ("mags", "mags is not a .npy array"),
        ("zone_starts", f"zone_starts must be {CFG.zone_count + 1} integers"),
    ])
    def test_member_not_npy(self, built, tmp_path, member, reason):
        # np.load hands back the raw bytes of a member without the .npy magic
        path = tmp_path / "raw.idx"
        save_index(built, path)
        raw = _raw_members(path)
        raw[f"{member}.npy"] = b"not an array"
        _write_raw_members(path, raw)
        self.assert_same_load(path)
        assert f"corrupt snapshot: {reason}" in _load_error(path)

    @pytest.mark.parametrize("version", [(2, 0), (3, 0)])
    def test_other_npy_versions(self, built, tmp_path, version):
        # 2.0 is streamed, 3.0 goes through np.load: both load, both checked
        path = tmp_path / "v.idx"
        save_index(built, path)
        raw = _raw_members(path)
        raw["mags.npy"] = _npy_bytes(built.mags, version)
        _write_raw_members(path, raw)
        self.assert_same_load(path, expect_error=False)
        assert load_index(path, mags=False).mags.shape == (built.total_count, 0)
        raw["mags.npy"] = _npy_bytes(built.mags[:, :2], version)
        _write_raw_members(path, raw)
        self.assert_same_load(path)

    @pytest.mark.parametrize("shape", [(-700, 3), (-700, -3), (10**15, 3)])
    def test_impossible_mags_shape(self, built, tmp_path, shape):
        # negative lengths, and one no allocation can hold, in the .npy
        # header of an otherwise intact member
        path = tmp_path / "shape.idx"
        save_index(built, path)
        raw = _raw_members(path)
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": shape}
        )
        raw["mags.npy"] = header.getvalue() + built.mags.tobytes()
        _write_raw_members(path, raw)
        self.assert_same_load(path)
        assert "unreadable snapshot" in _load_error(path, mags=False)

    def test_unsupported_npy_version(self, built, tmp_path):
        path = tmp_path / "v9.idx"
        save_index(built, path)
        raw = _raw_members(path)
        npy_bytes = bytearray(raw["mags.npy"])
        npy_bytes[6] = 9  # the major version byte after the magic prefix
        raw["mags.npy"] = bytes(npy_bytes)
        _write_raw_members(path, raw)
        self.assert_same_load(path)
        assert "format version" in _load_error(path, mags=False)

    def test_magnitudes_are_not_held(self, tmp_path):
        rng = np.random.default_rng(30)
        n = 50_000
        ra, dec = random_sky(rng, n)
        index = build_index(
            "wide", CFG, np.arange(n, dtype=np.uint64), ra, dec,
            rng.uniform(5, 15, (n, 8)), tuple("abcdefgh"),
        )
        path = tmp_path / "wide.idx"
        save_index(index, path)
        del index
        peaks = {}
        for mags in (True, False):
            tracemalloc.start()
            loaded = load_index(path, mags=mags)
            peaks[mags] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            del loaded
        # the 3.2 MB magnitude matrix is never allocated
        assert peaks[True] - peaks[False] > 3.0e6
