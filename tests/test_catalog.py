"""Ingestion, zone index structure, and snapshots."""

from __future__ import annotations

import csv
import gc
import math
import struct
import warnings
import zipfile

import numpy as np
import pytest

from zonequery import (
    IngestError,
    SnapshotFormatError,
    ZoneConfig,
    build_index,
    histogram,
    ingest_csv,
    load_index,
    save_index,
    zone_of,
)
from zonequery import catalog
from zonequery.queries import WINDOW_PAD_DEG, _zone_join
from zonequery.sphere import ra_halfwidth_array, zone_of_array

from conftest import random_sky

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
        assert histogram(index).counts.sum() == 0

    def test_missing_magnitudes_stored_as_nan(self, tmp_path):
        f = write_rows(tmp_path / "cat.csv", ["7,1.0,1.0,,13.5"])
        index = ingest_csv(f, cfg=CFG)
        s = next(index.slices())
        assert s.ids.tolist() == [7]
        assert math.isnan(s.mags[0, 0]) and s.mags[0, 1] == 13.5
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
        assert np.array_equal(histogram(index).counts, counts)


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
        assert len(h) == CFG.zone_count and h.total_count == 0

    def test_three_object_fixture(self, tmp_path):
        f = write_rows(
            tmp_path / "cat.csv",
            ["1,10.0,-90,9.5,", "2,20.0,0,10.5,11.0", "3,30.0,90,,12.0"],
        )
        h = histogram(ingest_csv(f, cfg=CFG))
        nz = np.nonzero(h.counts)[0].tolist()
        assert nz == [0, 1350, 2699]
        assert h.counts[nz].tolist() == [1, 1, 1]


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

    def test_v1_snapshot_is_rebuilt(self, tmp_path):
        rng = np.random.default_rng(28)
        ra, dec = random_sky(rng, 600)
        ra[:5] -= 360.0  # raw, not yet normalized
        ids = rng.permutation(600).astype(np.uint64)
        mags = rng.uniform(5, 15, (600, 1))
        path = tmp_path / "v1.idx"
        _write_members(path, dict(
            version=np.array(1, dtype=np.int64), name=np.array("old"),
            height_deg=np.array(CFG.height_deg), bands=np.array(["r"]),
            ids=ids, ra=ra, dec=dec, mags=mags,
        ))
        loaded = load_index(path)
        expected = build_index("old", CFG, ids, ra, dec, mags, ("r",))
        assert (loaded.name, loaded.cfg, loaded.bands) == ("old", CFG, ("r",))
        for attr in ("ids", "ra", "dec", "mags", "zone_starts", "ra_key"):
            assert np.array_equal(getattr(loaded, attr), getattr(expected, attr))

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
