"""Synthetic catalog generation: reproducibility and sky-uniformity."""

from __future__ import annotations

import numpy as np
import pytest

from zonequery import (
    BandSpec,
    Clustered,
    DecBand,
    FullSky,
    SyntheticSpec,
    ZoneConfig,
    generate_columns,
    generate_index,
    histogram,
    ingest_csv,
    write_csv,
    zone_of,
)
from zonequery.catalog import _CHUNK_ROWS

CFG = ZoneConfig()


class TestReproducibility:
    def test_same_spec_same_file_bytes(self, tmp_path):
        spec = SyntheticSpec(count=2000, seed=77)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(spec, a)
        write_csv(spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(SyntheticSpec(count=100, seed=1), a)
        write_csv(SyntheticSpec(count=100, seed=2), b)
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("count", [0, 1, _CHUNK_ROWS, _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("bands", [0, 1, 3])
    def test_bytes_equal_per_row_writer(self, tmp_path, count, bands):
        spec = SyntheticSpec(
            count=count,
            bands=tuple(BandSpec(f"b{k}", 5.0 + k, 15.0 + k) for k in range(bands)),
            seed=9,
        )
        got = tmp_path / "got.csv"
        write_csv(spec, got)
        assert got.read_bytes() == _write_csv_per_row(spec)

    def test_columns_deterministic(self):
        spec = SyntheticSpec(count=500, seed=3)
        for x, y in zip(generate_columns(spec), generate_columns(spec)):
            assert np.array_equal(x, y)


class TestFootprints:
    def test_count_zero_header_only(self, tmp_path):
        f = tmp_path / "zero.csv"
        write_csv(SyntheticSpec(count=0, seed=0), f)
        assert f.read_text() == "id,ra,dec,r\n"
        assert ingest_csv(f, cfg=CFG).total_count == 0

    def test_full_sky_cos_density(self):
        # uniform sphere: half the objects lie within |dec| < 30
        _, _, dec, _ = generate_columns(SyntheticSpec(count=1_000_000, seed=4))
        frac = np.mean(np.abs(dec) < 30.0)
        sigma = (0.5 * 0.5 / 1_000_000) ** 0.5
        assert abs(frac - 0.5) <= 3 * sigma

    def test_dec_band_respected_and_cos_weighted(self):
        spec = SyntheticSpec(
            count=200_000, footprint=DecBand(0.0, 60.0), seed=5
        )
        _, _, dec, _ = generate_columns(spec)
        assert dec.min() >= 0.0 and dec.max() <= 60.0
        # P(dec < 30 | band [0, 60]) = sin30/sin60
        expect = 0.5 / np.sin(np.radians(60.0))
        frac = np.mean(dec < 30.0)
        sigma = (expect * (1 - expect) / 200_000) ** 0.5
        assert abs(frac - expect) <= 3 * sigma

    def test_clustered_two_stripes_zone_occupancy(self):
        fp = Clustered((DecBand(-2.0, 2.0), DecBand(30.0, 34.0)))
        index = generate_index(SyntheticSpec(count=20_000, footprint=fp, seed=6))
        occupied = np.nonzero(histogram(index).counts)[0]
        lo1, hi1 = zone_of(-2.0, CFG), zone_of(2.0, CFG)
        lo2, hi2 = zone_of(30.0, CFG), zone_of(34.0, CFG)
        assert all(lo1 <= z <= hi1 or lo2 <= z <= hi2 for z in occupied)
        # both stripes hold an equal share
        in_first = int(histogram(index).counts[lo1 : hi1 + 1].sum())
        assert in_first == 10_000

    def test_mags_within_band_ranges(self):
        spec = SyntheticSpec(
            count=5000,
            bands=(BandSpec("r", 5.0, 15.0), BandSpec("g", 6.0, 16.0)),
            seed=7,
        )
        _, _, _, mags = generate_columns(spec)
        assert mags.shape == (5000, 2)
        assert mags[:, 0].min() >= 5.0 and mags[:, 0].max() <= 15.0
        assert mags[:, 1].min() >= 6.0 and mags[:, 1].max() <= 16.0

    def test_generated_csv_ingests_cleanly(self, tmp_path):
        f = tmp_path / "cat.csv"
        write_csv(SyntheticSpec(count=3000, seed=8), f)
        rejects: list[str] = []
        index = ingest_csv(f, cfg=CFG, on_reject=rejects.append)
        assert rejects == []
        assert index.total_count == 3000

    def test_full_sky_is_default(self):
        assert SyntheticSpec(count=1).footprint == FullSky()


def _write_csv_per_row(spec: SyntheticSpec) -> bytes:
    """The per-row catalog writer ``write_csv`` once was: the byte reference."""
    ids, ra, dec, mags = generate_columns(spec)
    lines = ["id,ra,dec" + "".join(f",{b.name}" for b in spec.bands)]
    for i in range(len(ids)):
        row = [str(int(ids[i])), repr(float(ra[i])), repr(float(dec[i]))]
        row.extend(repr(float(v)) for v in mags[i])
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")
