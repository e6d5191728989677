"""Ingestion, zone index structure, and snapshots."""

from __future__ import annotations

import csv
import gc
import io
import math
import struct
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
from zonequery import catalog
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
    other = st.sampled_from(["", "   ", "1,2", "1,2,3,4,5,6,7", ",,,", "9,1.5,2.5,3,4,,"])
    lines = draw(st.lists(st.one_of(
        plain.map(",".join), plain.map(",".join), one_off.map(",".join),
        one_off.map(",".join), loose.map(",".join), perfbench, other,
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


def _outcome(ingest, path, bands):
    """What an ingest function does with a file: its reject messages in
    order, and either the index columns as bytes or the error it raised."""
    log: list[str] = []
    try:
        index = ingest(path, bands=bands, cfg=CFG, on_reject=log.append)
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
        block_bytes=st.sampled_from([1, 5, 64, catalog._BLOCK_BYTES]),
        max_reject=st.sampled_from([catalog.MAX_REJECT_FRACTION, 1.0]),
    )
    def test_same_outcome_as_per_row_reference(
        self, tmp_path_factory, case, block_bytes, max_reject
    ):
        data, bands = case
        path = tmp_path_factory.mktemp("bulk") / "cat.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            # blocks of a few bytes end in the middle of the file
            mp.setattr(catalog, "_BLOCK_BYTES", block_bytes)
            mp.setattr(catalog, "MAX_REJECT_FRACTION", max_reject)
            assert _outcome(ingest_csv, path, bands) == _outcome(ingest_csv_reference, path, bands)

    @pytest.mark.parametrize("block_bytes", [7, catalog._BLOCK_BYTES])
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
        monkeypatch.setattr(catalog, "_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(catalog, "MAX_REJECT_FRACTION", 1.0)
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

    def test_malformed_certified_number_sends_block_to_row_checks(self, tmp_path):
        rows = [f"{i},{i}.5,1.5" for i in range(300)]
        rows[150] = "150,--1,1.5"
        f = write_rows(tmp_path / "c.csv", rows, header="id,ra,dec")
        log: list[str] = []
        assert ingest_csv(f, on_reject=log.append).total_count == 299
        assert log == ["line 152: unparseable coordinates '--1','1.5'"]


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
        monkeypatch.setattr(catalog, "MAX_REJECT_FRACTION", 1.0)
        index, log = self._ingest(tmp_path, b'id,ra,dec\n1,2,3\n"2\n",3,4\n5,6,95\n7,8,9\n')
        assert index.ids.tolist() == [1, 7]
        assert log == [
            "line 3: line ends inside a quoted field",
            "line 4: line ends inside a quoted field",
            "line 5: dec 95.0 outside [-90, 90]",
        ]

    def test_id_with_line_end_inside_quotes_is_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catalog, "MAX_REJECT_FRACTION", 1.0)
        index, log = self._ingest(tmp_path, b'id,ra,dec\n"1\n",2,3\n4,5,6\n')
        assert index.ids.tolist() == [4]
        assert log == [
            "line 2: line ends inside a quoted field",
            "line 3: line ends inside a quoted field",
        ]

    def test_open_quote_at_end_of_file_is_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catalog, "MAX_REJECT_FRACTION", 1.0)
        # the open line claims no id: a later row with its id is kept
        index, log = self._ingest(tmp_path, b'id,ra,dec\n1,2,3\n2,"3,4\n2,3,4\n5,"6,7')
        assert index.ids.tolist() == [1, 2]
        assert log == [
            "line 3: line ends inside a quoted field",
            "line 5: line ends inside a quoted field",
        ]

    def test_non_utf8_byte_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(catalog, "_BLOCK_BYTES", 64)
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
        monkeypatch.setattr(catalog, "_BLOCK_BYTES", 16)
        data = b"1,2.5,3\r" * 20 + b"4,5,6"
        blocks = list(catalog._blocks(io.BytesIO(data)))
        assert len(blocks) > 1 and all(b.endswith((b"\r", b"\n")) for b in blocks)
        assert b"".join(blocks) == data + b"\n"

    def test_crlf_is_never_split_between_blocks(self, monkeypatch):
        monkeypatch.setattr(catalog, "_BLOCK_BYTES", 4)
        blocks = list(catalog._blocks(io.BytesIO(b"1,2\r\n3,4\r\n5,6\r")))
        assert blocks == [b"1,2\r\n", b"3,4\r\n", b"5,6\r\n"]


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

    KINDS = ["empty", "one", "equal_ra", "key_collision", "signed_zero", "band_end", "runs"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_order_equals_lexsort(self, kind, tmp_path):
        rng = np.random.default_rng(self.KINDS.index(kind))
        cfg, ids, ra, dec = _order_case(kind, rng)
        mags = rng.uniform(5, 15, (len(ids), 2))
        built = build_index("o", cfg, ids, ra, dec, mags, ("r", "g"))
        oracle = _lexsort_index("o", cfg, ids, ra, dec, mags, ("r", "g"))
        for attr in ("ids", "ra", "dec", "mags", "zone_starts"):
            got, want = getattr(built, attr), getattr(oracle, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
        save_index(built, tmp_path / "built.idx")
        save_index(oracle, tmp_path / "oracle.idx")
        assert _raw_members(tmp_path / "built.idx") == _raw_members(tmp_path / "oracle.idx")

    @pytest.mark.parametrize("kind", ["equal_ra", "key_collision", "band_end", "runs"])
    def test_cases_tie_in_the_key(self, kind):
        """Each of these cases reaches the lexsort of tied rows."""
        cfg, ids, ra, dec = _order_case(kind, np.random.default_rng(0))
        base = zone_of_array(dec, cfg) * catalog.KEY_BAND
        key = np.sort(base + ra)
        assert np.any(key[1:] == key[:-1])
        if kind == "key_collision":
            assert len(np.unique(key)) < len(np.unique(ra))
        if kind == "band_end":
            assert np.all(base + np.nextafter(360.0, 0.0) == base + 360.0)

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
            f = write_rows(tmp_path / f"{k}.csv", rows, header="id,ra,dec,r")
            save_index(ingest_csv(f, name="cat"), tmp_path / f"{k}.idx")
            snapshots.append(_raw_members(tmp_path / f"{k}.idx"))
            rows = [rows[i] for i in rng.permutation(len(rows))]
        assert all(s == snapshots[0] for s in snapshots[1:])


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
