"""End-to-end CLI behavior: formats, exit codes, determinism."""

from __future__ import annotations

import errno
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonequery import (
    catalog, cli, ingest_csv, load_index, synth, plan_contiguous, run_xmatch, save_index,
)
from zonequery.catalog import SnapshotFormatError
from zonequery.digits import _CHUNK_ROWS, _format_rows, _repr_digits
from zonequery.output import _write_csv
from zonequery.cli import main, parse_angle, parse_footprint
from zonequery.cli import MAX_WORKERS, UsageError
from zonequery.executor import ExecutionReport, WorkerStats
from zonequery.queries import MatchSpec
from zonequery.synth import Clustered, DecBand, FullSky

from conftest import best_matches_reference, ingest_csv_reference


ARCSEC = 1.0 / 3600.0


def run_cli(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def small_setup(tmp_path):
    """Two small generated catalogs, ingested to snapshots."""
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_idx, b_idx = tmp_path / "a.npz", tmp_path / "b.npz"
    assert run_cli("gen", "--count", "3000", "--seed", "1", "--out", str(a_csv)) == 0
    assert run_cli("gen", "--count", "3000", "--seed", "2", "--out", str(b_csv)) == 0
    assert run_cli("ingest", "--in", str(a_csv), "--out", str(a_idx)) == 0
    assert run_cli("ingest", "--in", str(b_csv), "--out", str(b_idx)) == 0
    return a_csv, b_csv, a_idx, b_idx


class TestAngleParsing:
    def test_suffixes(self):
        assert parse_angle("1.5deg") == 1.5
        assert parse_angle("4arcmin") == pytest.approx(4 / 60)
        assert parse_angle("10arcsec") == pytest.approx(10 / 3600)
        assert parse_angle(" 2 deg ") == 2.0

    def test_bare_number_rejected(self):
        for bad in ("1.5", "10", "4 arcminutes", "deg", "1,5deg"):
            with pytest.raises(UsageError):
                parse_angle(bad)

    def test_footprints(self):
        assert parse_footprint("full_sky") == FullSky()
        assert parse_footprint("full-sky") == FullSky()
        assert parse_footprint("dec_band:-10deg:30deg") == DecBand(-10.0, 30.0)
        got = parse_footprint("clustered:-2deg:2deg,30deg:34deg")
        assert got == Clustered((DecBand(-2, 2), DecBand(30, 34)))
        with pytest.raises(UsageError):
            parse_footprint("dec_band:-10:30")  # bare numbers
        with pytest.raises(UsageError):
            parse_footprint("sphere")


class TestExitCodes:
    def test_usage_error_is_1(self, small_setup, tmp_path, capsys):
        _, _, a_idx, _ = small_setup
        code = run_cli(
            "cone", "--index", str(a_idx), "--ra", "10", "--dec", "5deg",
            "--radius", "1arcmin",
        )
        assert code == 1
        assert "deg|arcmin|arcsec" in capsys.readouterr().err

    def test_missing_index_is_2(self, tmp_path, capsys):
        code = run_cli(
            "scan", "--index", str(tmp_path / "nope.npz"), "--band", "r"
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_argparse_usage_is_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("scan")  # missing required --index
        assert exc.value.code == 1

    def test_bench_is_unknown_command(self, capsys):
        # scaling is measured by xmatch --workers N --stats (total_elapsed_s)
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "xmatch", "--workers", "1,2")
        assert exc.value.code == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_zero_workers_is_usage_error(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert run_cli("scan", "--index", str(a_idx), "--workers", "0") == 1

    @pytest.mark.parametrize("args", [
        ["--count", "-1"],
        ["--bands", "r=1e999:5"],
        ["--bands", "r=15:5"],
        ["--seed", "-1"],
        ["--bands", "r=5:15,r=1:2"],
    ], ids=["negative-count", "infinite-band", "inverted-band", "negative-seed",
            "repeated-band"])
    def test_bad_gen_spec_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "g.csv"
        code = run_cli("gen", "--count", "10", *args, "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("zonequery: error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_out_of_range_dec_is_usage_error(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        code = run_cli(
            "cone", "--index", str(a_idx), "--ra", "10deg", "--dec", "95deg",
            "--radius", "1arcmin",
        )
        assert code == 1

    def test_inverted_between_is_usage_error(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        code = run_cli(
            "scan", "--index", str(a_idx), "--between", "10.0", "9.0"
        )
        assert code == 1

    @pytest.mark.parametrize("between", [("nan", "5"), ("5", "nan")])
    def test_nan_between_names_the_bound(self, small_setup, capsys, between):
        _, _, a_idx, _ = small_setup
        capsys.readouterr()
        assert run_cli("scan", "--index", str(a_idx), "--between", *between) == 1
        bound = "lo" if between[0] == "nan" else "hi"
        assert capsys.readouterr().err == f"zonequery: error: {bound} nan is not a number\n"

    @pytest.mark.parametrize("argv", [
        ("gen", "--count", "10", "--out", "{dir}"),
        ("ingest", "--in", "{csv}", "--out", "{dir}"),
        ("scan", "--index", "{idx}", "--out", "{dir}"),
        ("scan", "--index", "{idx}", "--out", "{tmp}/o.csv", "--stats", "{dir}"),
        ("cone", "--index", "{idx}", "--ra", "1deg", "--dec", "1deg", "--radius", "1deg",
         "--out", "{dir}"),
        ("cone", "--index", "{idx}", "--ra", "1deg", "--dec", "1deg", "--radius", "1deg",
         "--out", "{tmp}/o.csv", "--stats", "{dir}"),
        ("xmatch", "--leading", "{idx}", "--other", "{idx}", "--radius", "1arcmin",
         "--out", "{dir}"),
        ("xmatch", "--leading", "{idx}", "--other", "{idx}", "--radius", "1arcmin",
         "--out", "{tmp}/o.csv", "--stats", "{dir}"),
    ], ids=["gen", "ingest", "scan", "scan-stats", "cone", "cone-stats", "xmatch",
            "xmatch-stats"])
    def test_unwritable_output_is_2(self, small_setup, tmp_path, capsys, argv):
        a_csv, _, a_idx, _ = small_setup
        directory = tmp_path / "a-directory"
        directory.mkdir()
        names = {"dir": directory, "csv": a_csv, "idx": a_idx, "tmp": tmp_path}
        capsys.readouterr()
        assert run_cli(*(arg.format(**names) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("zonequery: data error: ") and err.count("\n") == 1
        assert str(directory) in err and "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flag", ["--out", "--stats"])
    def test_write_error_names_the_path(self, small_setup, tmp_path, capsys, flag):
        _, _, a_idx, _ = small_setup
        outputs = {"--out": str(tmp_path / "o.csv"), "--stats": str(tmp_path / "s.json")}
        outputs[flag] = "/dev/full"
        argv = ["scan", "--index", str(a_idx)]
        for option, path in outputs.items():
            argv += [option, path]
        capsys.readouterr()
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            f"zonequery: data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            "'/dev/full'\n"
        )

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["--out", "-"],
        ["--out", os.devnull, "--stats", "-"],
    ], ids=["out", "stats"])
    def test_stdout_write_error_names_stdout(self, small_setup, argv):
        _, _, a_idx, _ = small_setup
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "zonequery.cli", "scan", "--index", str(a_idx), *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
            )
        assert proc.returncode == 2
        assert proc.stderr == (
            f"zonequery: data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
            "'<stdout>'\n"
        )

    def test_radius_over_cap_is_usage_error(self, small_setup, tmp_path, capsys):
        _, _, a_idx, b_idx = small_setup
        code = run_cli(
            "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
            "--radius", "15deg", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_mismatched_zone_heights_is_2(self, small_setup, tmp_path, capsys):
        a_csv, _, a_idx, _ = small_setup
        other = tmp_path / "coarse.npz"
        assert run_cli(
            "ingest", "--in", str(a_csv), "--zone-height", "1deg", "--out", str(other)
        ) == 0
        code = run_cli(
            "xmatch", "--leading", str(a_idx), "--other", str(other),
            "--radius", "10arcsec", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        code = run_cli(
            "plan", "--index", str(a_idx), "--workers", "2", "--report", "--other", str(other)
        )
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert "zone configurations" in err[-1] and err[-2] == err[-1]


    @pytest.mark.parametrize("height", ["0.001arcsec", "1e-9deg", "0arcmin", "0.5arcsec"])
    def test_zone_height_below_one_arcsec_is_usage_error(
        self, small_setup, tmp_path, capsys, height
    ):
        a_csv = small_setup[0]
        out = tmp_path / "tiny.npz"
        code = run_cli(
            "ingest", "--in", str(a_csv), "--zone-height", height, "--out", str(out)
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--zone-height" in err
        assert not out.exists()

    def test_one_arcsec_zone_height_accepted(self, small_setup, tmp_path):
        a_csv = small_setup[0]
        out = tmp_path / "fine.npz"
        assert run_cli(
            "ingest", "--in", str(a_csv), "--zone-height", "1arcsec", "--out", str(out)
        ) == 0
        assert run_cli("scan", "--index", str(out), "--out", str(tmp_path / "s.csv")) == 0

    def test_snapshot_with_tiny_zone_height_is_2(self, small_setup, tmp_path, capsys):
        a_idx = small_setup[2]
        with np.load(a_idx) as data:
            members = {key: data[key] for key in data.files}
        members["height_deg"] = np.array(1e-9)
        bad = tmp_path / "tiny.npz"
        with bad.open("wb") as fh:
            np.savez(fh, **members)
        code = run_cli("scan", "--index", str(bad), "--out", str(tmp_path / "s.csv"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "data error" in err

    def test_ingest_field_over_csv_limit_is_2(self, tmp_path, capsys):
        f = tmp_path / "long.csv"
        f.write_text("id,ra,dec\n1," + "1" * 200_000 + ",0\n", encoding="utf-8")
        code = run_cli("ingest", "--in", str(f), "--out", str(tmp_path / "i.npz"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == (
            f"zonequery: data error: {f}: line 2: field larger than field limit (131072)\n"
        )

    def test_ingest_directory_is_2(self, tmp_path, capsys):
        # an unreadable file takes the same path (an OSError on open), but
        # cannot be made unreadable to a test running as root
        code = run_cli("ingest", "--in", str(tmp_path), "--out", str(tmp_path / "i.npz"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"zonequery: data error: {tmp_path}: cannot read: Is a directory\n"

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_ingest_non_utf8_names_file_and_line(self, tmp_path, capsys, bom):
        f = tmp_path / "latin.csv"
        f.write_bytes(bom + b"id,ra,dec,r\n1,10.0,20.0,12.5\n2,11.0,2\xff.0,13.0\n")
        code = run_cli("ingest", "--in", str(f), "--out", str(tmp_path / "i.npz"))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"zonequery: data error: {f}: line 3: not UTF-8 text (byte 0xff)\n"

    def test_ingest_repeated_bands_is_usage_error(self, tmp_path, capsys):
        # the input does not exist: the flag is checked before it is read
        code = run_cli(
            "ingest", "--in", str(tmp_path / "nope.csv"), "--bands", "r,r",
            "--out", str(tmp_path / "i.npz"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "zonequery: error: --bands: repeated band names in 'r,r'\n"

    @pytest.mark.parametrize("bands", ["", ",", "r,,g", "r,"])
    def test_ingest_empty_band_name_is_usage_error(self, tmp_path, capsys, bands):
        # checked before the input, which does not exist, is read
        code = run_cli(
            "ingest", "--in", str(tmp_path / "nope.csv"), "--bands", bands,
            "--out", str(tmp_path / "i.npz"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"zonequery: error: --bands: empty band name in {bands!r}\n"
        assert not (tmp_path / "i.npz").exists()

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data "
         "type uint64", None),
        ("", "out of memory"),
    ])
    def test_gen_out_of_memory_is_2(self, tmp_path, capsys, monkeypatch, message, shown):
        # the allocation fails without being attempted: a real one this size
        # can succeed under overcommit and then exhaust the host
        def no_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr(synth, "generate_columns", no_memory)
        out = tmp_path / "g.csv"
        code = run_cli("gen", "--count", "1000000000000", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"zonequery: data error: {shown or message}\n"
        assert not out.exists()


def _corrupt(path, kind: str) -> None:
    raw = bytearray(path.read_bytes())
    if kind == "empty":
        raw = bytearray()
    elif kind == "truncated":
        raw = raw[: len(raw) // 2]
    elif kind == "mags_crc":  # one flipped byte in the middle of the magnitudes
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("mags.npy")
        # a local file header is 30 bytes, then the name and the extra field
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0x01
    else:  # one flipped byte in the middle of the column data
        raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _query_commands(idx, tmp_path):
    return {
        "plan": ["plan", "--index", idx, "--workers", "2"],
        "scan": ["scan", "--index", idx, "--out", str(tmp_path / "s.csv")],
        "cone": ["cone", "--index", idx, "--ra", "10deg", "--dec", "5deg",
                 "--radius", "1deg", "--out", str(tmp_path / "c.csv")],
        "xmatch": ["xmatch", "--leading", idx, "--other", idx, "--radius", "1arcmin",
                   "--out", str(tmp_path / "x.csv")],
    }


class TestCorruptSnapshot:
    @pytest.mark.parametrize("kind", ["empty", "truncated", "crc", "mags_crc"])
    @pytest.mark.parametrize("command", ["plan", "scan", "cone", "xmatch"])
    def test_query_exits_2_with_one_line(self, small_setup, tmp_path, capsys,
                                         command, kind):
        _, _, a_idx, _ = small_setup
        bad = tmp_path / "bad.npz"
        shutil.copyfile(a_idx, bad)
        _corrupt(bad, kind)
        capsys.readouterr()
        assert run_cli(*_query_commands(str(bad), tmp_path)[command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zonequery: data error: ")
        assert err.count("\n") == 1
        if kind == "mags_crc":
            assert err == (
                f"zonequery: data error: {bad}: unreadable snapshot "
                "(Bad CRC-32 for file 'mags.npy')\n"
            )

    @pytest.mark.parametrize("kind", ["csv", "npy"])
    @pytest.mark.parametrize("command", ["plan", "scan", "cone", "xmatch"])
    def test_not_a_snapshot_exits_2_with_one_line(self, small_setup, tmp_path, capsys,
                                                  command, kind):
        a_csv = small_setup[0]
        bad = tmp_path / f"bad.{kind}"
        if kind == "csv":
            shutil.copyfile(a_csv, bad)
        else:
            np.save(bad, np.arange(10.0))
        capsys.readouterr()
        assert run_cli(*_query_commands(str(bad), tmp_path)[command]) == 2
        err = capsys.readouterr().err
        assert err == f"zonequery: data error: {bad}: not a zonequery index snapshot\n"

    # flags that need no snapshot are checked before it is loaded; the last
    # of a repeated flag is the one argparse keeps
    @pytest.mark.parametrize("command, flag, shown", [
        ("cone", ["--dec", "95deg"], "95"),
        ("cone", ["--radius", "1"], "bad angle '1'"),
        ("xmatch", ["--radius", "5"], "bad angle '5'"),
        ("xmatch", ["--workers", "65"], "--workers 65"),
        ("scan", ["--strategy", "bogus"], "unknown strategy 'bogus'"),
        ("scan", ["--between", "2", "1"], "lo 2.0 > hi 1.0"),
        ("plan", ["--workers", "65"], "--workers 65"),
    ])
    def test_bad_flag_is_a_usage_error_before_the_load(self, small_setup, tmp_path, capsys,
                                                       command, flag, shown):
        bad = tmp_path / "bad.npz"
        shutil.copyfile(small_setup[2], bad)
        _corrupt(bad, "truncated")
        capsys.readouterr()
        assert run_cli(*_query_commands(str(bad), tmp_path)[command], *flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("zonequery: error: ") and shown in err
        assert err.count("\n") == 1

    def test_only_scan_keeps_magnitudes(self, small_setup, tmp_path, monkeypatch):
        _, _, a_idx, b_idx = small_setup
        commands = _query_commands(str(a_idx), tmp_path)
        commands["xmatch"][4] = str(b_idx)  # --other: two loads
        commands["plan --other"] = commands["plan"] + ["--report", "--other", str(b_idx)]
        keeps = []
        real_load = cli.load_index

        def recording_load(path, **kwargs):
            keeps.append(kwargs.get("mags", True))
            return real_load(path, **kwargs)

        monkeypatch.setattr(cli, "load_index", recording_load)
        for command, argv in commands.items():
            keeps.clear()
            assert run_cli(*argv) == 0
            expected = {"scan": [True], "xmatch": [False, False], "plan --other": [False] * 2}
            assert keeps == expected.get(command, [False]), command

    def test_v1_snapshot_exits_2_with_one_line(self, tmp_path, capsys):
        v1 = tmp_path / "v1.idx"
        with v1.open("wb") as fh:
            np.savez(fh, version=np.array(1, dtype=np.int64), name=np.array("old"),
                     height_deg=np.array(4 / 60), bands=np.array(["r"]),
                     ids=np.arange(3, dtype=np.uint64), ra=np.array([1.0, 2.0, 3.0]),
                     dec=np.zeros(3), mags=np.full((3, 1), 9.0))
        capsys.readouterr()
        assert run_cli("cone", "--index", str(v1), "--ra", "2deg", "--dec", "0deg",
                       "--radius", "1deg", "--out", str(tmp_path / "c.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"zonequery: data error: {v1}: snapshot version 1, expected 2\n"


class TestLoadPair:
    """xmatch loads --leading, then --other: a bad input exits 2 with the
    message of loading it alone, and when both are bad the leading file is
    named."""

    @staticmethod
    def load_error(path):
        with pytest.raises(SnapshotFormatError) as info:
            load_index(path)
        return f"zonequery: data error: {info.value}\n"

    def xmatch(self, capsys, tmp_path, leading, other):
        capsys.readouterr()
        code = run_cli("xmatch", "--leading", str(leading), "--other", str(other),
                       "--radius", "1arcmin", "--out", str(tmp_path / "x.csv"))
        return code, capsys.readouterr().err

    @pytest.fixture()
    def files(self, small_setup, tmp_path):
        _, _, a_idx, b_idx = small_setup
        bad = tmp_path / "bad.npz"
        shutil.copyfile(b_idx, bad)
        _corrupt(bad, "truncated")
        return {"good": a_idx, "other": b_idx, "bad": bad, "missing": tmp_path / "no.npz"}

    @pytest.mark.parametrize("leading, other, named", [
        ("missing", "other", "missing"),
        ("good", "bad", "bad"),
        ("good", "missing", "missing"),
        ("bad", "missing", "bad"),
        ("missing", "bad", "missing"),
    ], ids=["leading-missing", "other-corrupt", "other-missing", "both-bad", "both-bad-swapped"])
    def test_bad_input_exits_2_naming_it(self, files, capsys, tmp_path, leading, other,
                                         named):
        code, err = self.xmatch(capsys, tmp_path, files[leading], files[other])
        assert code == 2
        assert err == self.load_error(files[named])


class TestGenIngestScan:
    def test_scan_defaults_match_linear_oracle(self, small_setup, tmp_path):
        a_csv, _, a_idx, _ = small_setup
        out = tmp_path / "scan.csv"
        assert run_cli("scan", "--index", str(a_idx), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,mag"
        # oracle straight from the CSV text: default filter is r in [9, 10]
        expected = 0
        with a_csv.open() as fh:
            next(fh)
            for line in fh:
                mag = float(line.rsplit(",", 1)[1])
                if 9.0 <= mag <= 10.0:
                    expected += 1
        assert len(lines) - 1 == expected

    def test_scan_csv_round_trips(self, small_setup, tmp_path):
        _, _, a_idx, _ = small_setup
        out = tmp_path / "scan.csv"
        run_cli("scan", "--index", str(a_idx), "--out", str(out))
        text = out.read_text()
        rebuilt = ["id,mag"]
        for line in text.splitlines()[1:]:
            i, m = line.split(",")
            rebuilt.append(f"{int(i)},{float(m)!r}")
        assert "\n".join(rebuilt) + "\n" == text

    def test_infinite_between_bound(self, small_setup, tmp_path):
        _, _, a_idx, _ = small_setup
        inf, big = tmp_path / "inf.csv", tmp_path / "big.csv"
        for lo, out in (("-inf", inf), ("-1e308", big)):
            assert run_cli("scan", "--index", str(a_idx), "--between", lo, "6",
                           "--out", str(out)) == 0
        assert inf.read_bytes() == big.read_bytes()
        assert inf.read_text().count("\n") > 1

    def test_ingest_band_projection(self, tmp_path, capsys):
        f = tmp_path / "two.csv"
        f.write_text("id,ra,dec,r,g\n1,10.0,0.0,9.0,12.0\n")
        idx = tmp_path / "proj.npz"
        assert run_cli(
            "ingest", "--in", str(f), "--bands", "g", "--out", str(idx)
        ) == 0
        from zonequery import load_index

        assert load_index(idx).bands == ("g",)

    def test_ingest_reports_rejects_to_stderr(self, tmp_path, capsys):
        f = tmp_path / "messy.csv"
        rows = [f"{i},{i % 360}.0,0.0,9.0" for i in range(200)]
        rows[7] = "7,bad,0.0,9.0"
        f.write_text("id,ra,dec,r\n" + "".join(r + "\n" for r in rows))
        assert run_cli("ingest", "--in", str(f), "--out", str(tmp_path / "i.npz")) == 0
        err = capsys.readouterr().err
        assert "line 9:" in err
        assert "ingested 199 objects" in err


def _snapshot_members(path) -> dict[str, bytes]:
    with zipfile.ZipFile(path) as z:
        return {name: z.read(name) for name in z.namelist()}


class TestIngestMatchesReference:
    """``ingest`` writes the snapshot the per-row ingest it replaced
    (``conftest.ingest_csv_reference``) would, member for member."""

    @pytest.mark.parametrize("dirty", [False, True], ids=["clean", "dirty"])
    def test_snapshot_members_byte_identical(self, tmp_path, capsys, dirty):
        f = tmp_path / "cat.csv"
        assert run_cli("gen", "--count", "20000", "--seed", "3", "--bands", "r=5:15,g=6:16",
                       "--out", str(f)) == 0
        if dirty:
            lines = f.read_text().splitlines()
            # one bad row of each kind, a duplicate, loose forms and a blank
            lines[100:100] = [
                "20001,12.5", "x20002,1,2,3,4", "18446744073709551616,1,2,3,4", "7,1,2,3,4",
                "20003,north,2,3,4", "20004,inf,2,3,4", "20005,1,91.5,3,4", "20006,1,2,bright,4",
                "20007, 1.5,+2,1_0,", "20008,1e999,2,3,4", "20009,1,2,3,1e999", "",
                "0020010,-0,-0,-0,--1", "18446744073709551615,1,2,3,4",
            ]
            f.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        idx = tmp_path / "cat.idx"
        assert run_cli("ingest", "--in", str(f), "--out", str(idx)) == 0
        rejects = [l for l in capsys.readouterr().err.splitlines() if l.startswith("line ")]

        expected: list[str] = []
        ref = tmp_path / "ref.idx"
        save_index(ingest_csv_reference(f, on_reject=expected.append), ref)
        assert rejects == expected
        assert len(expected) == (11 if dirty else 0)
        assert _snapshot_members(idx) == _snapshot_members(ref)


class TestPlanCommand:
    def test_plan_json(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert run_cli("plan", "--index", str(a_idx), "--workers", "4") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["worker_count"] == 4
        assert payload["zone_count"] == 2700
        assert payload["strategy"] == "contiguous"

    def test_plan_report_round_trips(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert run_cli(
            "plan", "--index", str(a_idx), "--workers", "4",
            "--strategy", "density", "--report",
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert set(payload) == {"plan", "report"}
        assert sum(payload["report"]["counts"]) == 3000
        assert json.dumps(payload, sort_keys=True) + "\n" == out

    def test_plan_comparative_leading_choices(self, small_setup, capsys):
        _, _, a_idx, b_idx = small_setup
        assert run_cli(
            "plan", "--index", str(a_idx), "--workers", "4", "--report",
            "--other", str(b_idx),
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"leading", "other_leading"}
        assert payload["leading"]["catalog"] == "a"
        assert payload["other_leading"]["catalog"] == "b"

    def test_plan_table_format(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert run_cli(
            "plan", "--index", str(a_idx), "--workers", "2", "--report",
            "--format", "table",
        ) == 0
        out = capsys.readouterr().out
        assert "imbalance" in out and "MAX" in out

    def test_plan_table_without_report_is_usage_error(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        code = run_cli(
            "plan", "--index", str(a_idx), "--workers", "2", "--format", "table"
        )
        assert code == 1


_PLAN_A = (
    '{"runs": [[0, 3, 1], [3, 4, 0], [4, 5, 1], [5, 6, 0]], "strategy": "density", '
    '"worker_count": 2, "zone_count": 6}'
)
_REPORT_A = '{"avg_count": 2.5, "counts": [3, 2], "imbalance": 1.2, "max_count": 3}'
_PLAN_B = (
    '{"runs": [[0, 1, 1], [1, 2, 0], [2, 6, 1]], "strategy": "density", '
    '"worker_count": 2, "zone_count": 6}'
)
_REPORT_B = (
    '{"avg_count": 1.5, "counts": [2, 1], "imbalance": 1.3333333333333333, '
    '"max_count": 2}'
)
_TABLE_A = (
    "  worker       objects\n       0             3\n       1             2\n"
    "     MAX             3\n     AVG           2.5\nimbalance (max/avg): 1.200\n"
)
_TABLE_B = (
    "  worker       objects\n       0             2\n       1             1\n"
    "     MAX             2\n     AVG           1.5\nimbalance (max/avg): 1.333\n"
)


class TestPlanOutputBytes:
    """The exact stdout of ``plan --report`` in its four modes, on two tiny
    catalogs with 30deg zones (six zones)."""

    @pytest.fixture()
    def tiny(self, tmp_path):
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        a_csv.write_text(
            "id,ra,dec,r\n1,10.0,-80.0,9.5\n2,20.0,-10.0,9.0\n3,30.0,5.0,8.0\n"
            "4,40.0,5.5,\n5,350.0,75.0,12.0\n"
        )
        b_csv.write_text("id,ra,dec\n7,1.0,-45.0\n8,2.0,-44.0\n9,3.0,89.0\n")
        for name in ("a", "b"):
            assert run_cli(
                "ingest", "--in", str(tmp_path / f"{name}.csv"),
                "--zone-height", "30deg", "--out", str(tmp_path / f"{name}.idx"),
            ) == 0
        return str(tmp_path / "a.idx"), str(tmp_path / "b.idx")

    @pytest.mark.parametrize("fmt, other, expected", [
        ("json", False, f'{{"plan": {_PLAN_A}, "report": {_REPORT_A}}}\n'),
        ("json", True,
         f'{{"leading": {{"catalog": "a", "plan": {_PLAN_A}, "report": {_REPORT_A}}}, '
         f'"other_leading": {{"catalog": "b", "plan": {_PLAN_B}, '
         f'"report": {_REPORT_B}}}}}\n'),
        ("table", False, _TABLE_A),
        ("table", True, f"leading: a\n{_TABLE_A}\nleading: b\n{_TABLE_B}"),
    ])
    def test_report_bytes(self, tiny, capsys, fmt, other, expected):
        a_idx, b_idx = tiny
        argv = ["plan", "--index", a_idx, "--workers", "2", "--strategy", "density",
                "--report", "--format", fmt]
        if other:
            argv += ["--other", b_idx]
        capsys.readouterr()
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == expected


_STATS_COUNTERS = ("elapsed_s", "rows_scanned", "rows_returned")


class TestStatsJson:
    """``--stats`` JSON of the three query commands: its keys, and MAX / AVG
    rows holding the workers' maximum (ints stay ints) and mean (floats)."""

    @pytest.mark.parametrize("command", ["scan", "cone", "xmatch"])
    def test_shape_and_summary_rows(self, small_setup, tmp_path, command):
        _, _, a_idx, b_idx = small_setup
        stats = tmp_path / "stats.json"
        argv = {
            "scan": ["scan", "--index", str(a_idx)],
            "cone": ["cone", "--index", str(a_idx), "--ra", "10deg", "--dec", "5deg",
                     "--radius", "20deg"],
            "xmatch": ["xmatch", "--leading", str(a_idx), "--other", str(b_idx),
                       "--radius", "30arcmin"],
        }[command]
        assert run_cli(*argv, "--workers", "3", "--strategy", "round-robin",
                       "--out", str(tmp_path / "out.csv"), "--stats", str(stats)) == 0
        payload = json.loads(stats.read_text())
        assert set(payload) == {"worker_count", "total_elapsed_s", "workers", "max", "avg"}
        assert payload["worker_count"] == 3
        rows = payload["workers"]
        keys = {"worker", "cpu_s", *_STATS_COUNTERS}
        assert [r["worker"] for r in rows] == [0, 1, 2]
        assert all(set(r) == keys for r in (*rows, payload["max"], payload["avg"]))
        mx, avg = payload["max"], payload["avg"]
        assert (mx["worker"], avg["worker"]) == ("MAX", "AVG")
        assert sum(r["rows_returned"] for r in rows) > 0
        for name in _STATS_COUNTERS:
            values = [r[name] for r in rows]
            assert mx[name] == max(values)
            assert avg[name] == sum(values) / 3
            assert type(avg[name]) is float
        for name in ("rows_scanned", "rows_returned"):
            assert type(mx[name]) is int
        cpus = [r["cpu_s"] for r in rows]
        assert all(type(c) is float for c in (*cpus, mx["cpu_s"], avg["cpu_s"]))
        assert mx["cpu_s"] == max(cpus)
        assert avg["cpu_s"] == sum(cpus) / 3


class TestXmatchCommand:
    def test_one_vs_eight_workers_byte_identical(self, small_setup, tmp_path):
        _, _, a_idx, b_idx = small_setup
        outs = []
        for workers, name in ((1, "w1.csv"), (8, "w8.csv")):
            out = tmp_path / name
            assert run_cli(
                "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
                "--radius", "30arcmin", "--workers", str(workers),
                "--out", str(out),
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == b"leading_id,other_id,separation_deg"

    def test_stats_json_written_and_round_trips(self, small_setup, tmp_path):
        _, _, a_idx, b_idx = small_setup
        stats = tmp_path / "stats.json"
        assert run_cli(
            "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
            "--radius", "10arcmin", "--workers", "4",
            "--out", str(tmp_path / "m.csv"), "--stats", str(stats),
        ) == 0
        payload = json.loads(stats.read_text())
        assert payload["worker_count"] == 4
        assert len(payload["workers"]) == 4
        assert payload["max"]["worker"] == "MAX"
        assert json.dumps(payload, sort_keys=True) + "\n" == stats.read_text()

    def test_best_match_and_no_self(self, tmp_path):
        csv = tmp_path / "self.csv"
        csv.write_text(
            "id,ra,dec,r\n1,10.0,0.0,9.0\n2,10.0001,0.0,9.0\n3,50.0,0.0,9.0\n"
        )
        idx = tmp_path / "self.npz"
        assert run_cli("ingest", "--in", str(csv), "--out", str(idx)) == 0
        out = tmp_path / "m.csv"
        assert run_cli(
            "xmatch", "--leading", str(idx), "--other", str(idx),
            "--radius", "1arcmin", "--no-self", "--best-match", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()[1:]
        got = [tuple(l.split(",")[:2]) for l in lines]
        # identity pairs dropped; each leading keeps its closest neighbor
        assert got == [("1", "2"), ("2", "1")]

    def test_separation_printed_at_12_significant_digits(self, small_setup, tmp_path):
        _, _, a_idx, b_idx = small_setup
        out = tmp_path / "m.csv"
        run_cli(
            "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
            "--radius", "30arcmin", "--out", str(out),
        )
        for line in out.read_text().splitlines()[1:3]:
            sep = line.split(",")[2]
            digits = sep.replace(".", "").replace("-", "").lstrip("0")
            assert len(digits.split("e")[0]) <= 12
            # stable under parse/format cycle
            assert f"{float(sep):.12g}" == sep

    @pytest.mark.parametrize("command", ["xmatch"])
    def test_self_match_loads_file_once(self, small_setup, tmp_path, monkeypatch,
                                        command):
        _, _, a_idx, _ = small_setup
        twin = tmp_path / "twin.npz"
        shutil.copyfile(a_idx, twin)
        # two more paths to the same file: through "..", and a hard link
        (tmp_path / "sub").mkdir()
        linked = tmp_path / "linked.npz"
        os.link(a_idx, linked)
        loads = []
        real_load = cli.load_index

        def counting_load(path, **kwargs):
            loads.append(path)
            return real_load(path, **kwargs)

        monkeypatch.setattr(cli, "load_index", counting_load)
        outs = []
        for other in (a_idx, tmp_path / "sub" / ".." / a_idx.name, linked, twin):
            loads.clear()
            out = tmp_path / f"{command}.out"
            assert run_cli(command, "--leading", str(a_idx), "--other", str(other),
                           "--radius", "30arcmin", "--out", str(out)) == 0
            outs.append((len(loads), out.read_bytes()))
        assert [n for n, _ in outs] == [1, 1, 1, 2]
        assert len({data for _, data in outs}) == 1


class TestConeCommand:
    def test_negative_dec_with_suffix_parses(self, small_setup, tmp_path):
        _, _, a_idx, _ = small_setup
        out = tmp_path / "south.csv"
        code = run_cli(
            "cone", "--index", str(a_idx), "--ra", "45deg", "--dec", "-30deg",
            "--radius", "2deg", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("id,separation_deg\n")

    def test_cone_end_to_end(self, small_setup, tmp_path):
        _, _, a_idx, _ = small_setup
        out = tmp_path / "cone.csv"
        assert run_cli(
            "cone", "--index", str(a_idx), "--ra", "180deg", "--dec", "0deg",
            "--radius", "5deg", "--workers", "2", "--out", str(out),
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,separation_deg"
        assert all(float(l.split(",")[1]) <= 5.0 for l in lines[1:])


CHUNK = _CHUNK_ROWS
_U64 = st.sampled_from([0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1])
_U64 = _U64 | st.integers(0, 2**64 - 1)
# 0, subnormals, and values where %g switches between fixed and exponent form
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.99999999999e-06,
    9.999999999995e-06, 1.00000000000005e-05, 1e-04, 1e16, 9.9999999999995e15,
    1e12, 999999999999.5, 1e17, 123456789012.34567,
]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False)
_MAGS = _FLOATS | st.sampled_from([float("nan"), -float("nan")])
# row counts on and around the chunk boundaries, plus small ones
_LENGTHS = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
_LENGTHS = _LENGTHS | st.integers(0, 40)


def _tile(pool, n):
    return [pool[i % len(pool)] for i in range(n)]


def _rows_of(chunks) -> list[str]:
    """The rows of formatted chunks, so that a failure names the first wrong row."""
    return "".join(chunks).splitlines(keepends=True)


class TestCsvFormatter:
    """The chunked digit formatter writes what the per-row f-strings wrote.
    Rows are compared as lists, so a failure names the first wrong row
    instead of diffing two strings of up to ~700,000 characters."""

    @given(st.lists(st.tuples(_U64, _U64, _FLOATS), min_size=1, max_size=20), _LENGTHS)
    @settings(max_examples=100, deadline=None)
    def test_pair_rows(self, pool, n):
        rows = _tile(pool, n)
        columns = tuple(
            np.array([r[k] for r in rows], dtype=dtype)
            for k, dtype in enumerate((np.uint64, np.uint64, np.float64))
        )
        chunks = list(_format_rows("%d,%d,%.12g\n", columns))
        assert len(chunks) == -(-n // CHUNK)
        assert _rows_of(chunks) == [f"{i},{j},{x:.12g}\n" for i, j, x in rows]

    @given(st.lists(st.tuples(_U64, _MAGS), min_size=1, max_size=20), _LENGTHS)
    @settings(max_examples=100, deadline=None)
    def test_scan_and_cone_rows(self, pool, n):
        rows = _tile(pool, n)
        columns = tuple(zip(*rows))
        scan = _rows_of(_format_rows("%d,%r\n", columns))
        assert scan == [f"{i},{x!r}\n" for i, x in rows]
        cone = _rows_of(_format_rows("%d,%.12g\n", columns))
        assert cone == [f"{i},{x:.12g}\n" for i, x in rows]


def _float_of_bits(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


_TIES = st.builds(  # 13 significant digits ending in 5, from 1e-30 to 1e30
    lambda m, k, sign: sign * float(f"{m}5e{k}"),
    st.integers(10**11, 10**12 - 1), st.integers(-42, 18), st.sampled_from([1, -1]),
)
_POWERS = st.builds(  # powers of ten, their neighbours, and times 1 +- 5e-13
    lambda k, how: how(float(f"1e{k}")),
    st.integers(-30, 30),
    st.sampled_from([
        lambda p: p, lambda p: np.nextafter(p, 0.0), lambda p: np.nextafter(p, np.inf),
        lambda p: p * (1 + 5e-13), lambda p: p * (1 - 5e-13), lambda p: -p,
    ]),
)
_SPECIALS = st.builds(lambda k: float(f"9.999999999995e{k}"), st.integers(-30, 30))
_SPECIALS = _SPECIALS | st.sampled_from([
    5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0,
    float("nan"), -float("nan"), float("inf"), -float("inf"),
])
_ANY_FLOAT = st.integers(0, 2**64 - 1).map(_float_of_bits) | _TIES | _POWERS | _SPECIALS
# for %r: decimals of 1 to 17 significant digits, powers of two and their
# neighbours, integral values, and where repr switches notation (1e-4, 1e16)
_SHORT = st.builds(
    lambda m, k, sign: sign * float(f"{m}e{k}"),
    st.integers(1, 17).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    st.integers(-35, 20), st.sampled_from([1, -1]),
)
_TWOS = st.builds(
    lambda k, how: how(2.0**k), st.integers(-1074, 1023),
    st.sampled_from([lambda p: p, lambda p: np.nextafter(p, 0.0),
                     lambda p: np.nextafter(p, np.inf), lambda p: -p]),
)
_SWITCHES = st.sampled_from([
    v for p in (1e-4, 1e16, 1e-5, 1e15) for v in (p, np.nextafter(p, 0.0), np.nextafter(p, np.inf))
])
_REPR_FLOAT = (_ANY_FLOAT | _SHORT | _TWOS | _SWITCHES | st.integers(-(2**53), 2**53)).map(
    float  # %r of a numpy scalar is "np.float64(...)"
)


def _percent(row_format, columns) -> list[str]:
    """The rows formatted one at a time by ``%``: the byte reference."""
    return [row_format % row for row in zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns
    ))]


class TestNumericFormatter:
    """%d, %.12g and %r rows, written by digit arithmetic, equal %."""

    @given(
        st.lists(st.tuples(_U64, _U64, _ANY_FLOAT), min_size=1, max_size=30),
        _LENGTHS, st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_and_cone_rows(self, pool, n, as_arrays):
        rows = _tile(pool, n)
        ids, others, seps = ([r[k] for r in rows] for k in range(3))
        if as_arrays:  # as xmatch passes them; cone passes tuples
            ids, others, seps = np.array(ids, np.uint64), np.array(others, np.uint64), np.array(seps)
        else:
            ids, others, seps = tuple(ids), tuple(others), tuple(seps)
        for row_format, columns in (
            ("%d,%d,%.12g\n", (ids, others, seps)), ("%d,%.12g\n", (ids, seps)),
        ):
            chunks = list(_format_rows(row_format, columns))
            assert len(chunks) == -(-n // CHUNK)
            assert _rows_of(chunks) == _percent(row_format, columns)

    @given(
        st.lists(st.tuples(_U64, _REPR_FLOAT, _REPR_FLOAT, _REPR_FLOAT), min_size=1,
                 max_size=30),
        _LENGTHS,
    )
    @settings(max_examples=200, deadline=None)
    def test_scan_and_gen_rows(self, pool, n):
        rows = _tile(pool, n)
        ids, ra, dec, mag = ([r[k] for r in rows] for k in range(4))
        mags = np.array([dec, mag], ndmin=2).T.reshape(n, 2)
        for row_format, columns in (
            ("%d,%r\n", (tuple(ids), tuple(ra))),  # as scan passes them
            # as gen passes them, magnitudes as strided columns
            ("%d,%r,%r,%r\n", (np.array(ids, np.uint64), np.array(ra), *mags.T)),
        ):
            chunks = list(_format_rows(row_format, columns))
            assert len(chunks) == -(-n // CHUNK)
            assert _rows_of(chunks) == _percent(row_format, columns)

    @given(st.lists(st.floats(1e-11, 1e-9) | st.floats(-1e-9, -1e-11), min_size=1,
                    max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_repr_of_small_values(self, values):
        """%r from 1e-11, where its tables begin, to 1e-9."""
        columns = (np.arange(len(values), dtype=np.uint64), np.array(values))
        assert _rows_of(_format_rows("%d,%r\n", columns)) == _percent("%d,%r\n", columns)

    def test_small_values_are_decided(self):
        """Digit arithmetic decides %r down to 2**-33, about 1.16e-10, and
        in [2**-34, 1e-10); log-uniform values of [1e-11, 1e-9] equal %."""
        _, _, decided = _repr_digits(np.array([2e-10, 2.5e-10, 3e-10, 4.6e-10, 6e-11]))
        assert decided.all()
        values = np.exp(np.random.default_rng(3).uniform(math.log(1e-11), math.log(1e-9), 20000))
        columns = (np.arange(len(values), dtype=np.uint64), values)
        assert _rows_of(_format_rows("%d,%r\n", columns)) == _percent("%d,%r\n", columns)

    def test_adversarial_values(self):
        rng = np.random.default_rng(14)
        m = rng.integers(10**11, 10**12, 30000)
        k = rng.integers(-42, 19, 30000)
        powers = np.array([float(f"1e{e}") for e in range(-320, 309)])
        twos = 2.0 ** np.arange(-1074, 1024)
        values = np.concatenate([
            rng.integers(0, 2**64, 30000, dtype=np.uint64).view(np.float64),
            [float(f"{a}5e{b}") for a, b in zip(m.tolist(), k.tolist())],
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            powers * (1 + 5e-13), powers * (1 - 5e-13),
            [float(f"9.999999999995e{e}") for e in range(-320, 308)],
            [float(f"9.99999999999{d}e{e}") for d in (499, 501) for e in range(-30, 31)],
            rng.uniform(0.0, 1.0, 30000) ** 8, rng.integers(0, 10**14, 30000).astype(np.float64),
            [5e-324, 0.0, np.nan, np.inf],
            # for %r: 1 to 17 significant digits, powers of two, integral
            # values up to 2**53, gen-like columns, and subnormals
            [float(f"{a}e{b}") for a, b in zip(
                (rng.integers(1, 10**17, 30000) // 10 ** rng.integers(0, 17, 30000)).tolist(),
                rng.integers(-25, 20, 30000).tolist())],
            twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
            rng.integers(0, 2**53, 30000).astype(np.float64), rng.uniform(0.0, 360.0, 30000),
            rng.integers(1, 2**52, 3000, dtype=np.uint64).view(np.float64),
        ])
        values = np.concatenate([values, -values])
        ids = rng.integers(0, 2**64, len(values), dtype=np.uint64)
        ids[:3] = (0, 2**63, 2**64 - 1)
        for row_format, columns in (
            ("%d,%.12g\n", (ids, values)), ("%.12g,%d,%.12g\n", (values, ids, values[::-1])),
            ("%d,%r\n", (tuple(ids.tolist()), tuple(values.tolist()))),
            ("%d,%r,%r,%r\n", (ids, values, values[::-1], np.roll(values, 1))),
        ):
            assert _rows_of(_format_rows(row_format, columns)) == _percent(row_format, columns)


def _write_pairs_per_row(path, pairs) -> None:
    """The per-row xmatch writer the CLI once had: the byte reference."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("leading_id,other_id,separation_deg\n")
        for p in pairs:
            fh.write(f"{p.leading_id},{p.other_id},{p.separation:.12g}\n")


@pytest.fixture(scope="module")
def tied_catalogs(tmp_path_factory):
    """Two snapshots on a narrow dec band, dense enough at 30 arcmin for more
    than one output chunk; 300 rows of each repeat another row's position
    under a new id, so best-match sees exact separation ties."""
    tmp = tmp_path_factory.mktemp("tied")
    rng = np.random.default_rng(77)
    paths = []
    for name, n in (("a", 3000), ("b", 2000)):
        ra = rng.uniform(0.0, 360.0, n)
        dec = rng.uniform(0.0, 0.5, n)
        twin = rng.integers(0, n - 300, 300)
        ra[-300:], dec[-300:] = ra[twin], dec[twin]
        csv = tmp / f"{name}.csv"
        rows = enumerate(zip(ra.tolist(), dec.tolist()))
        body = "".join(f"{i},{x!r},{y!r},9.0\n" for i, (x, y) in rows)
        csv.write_text("id,ra,dec,r\n" + body)
        idx = tmp / f"{name}.npz"
        assert run_cli("ingest", "--in", str(csv), "--out", str(idx)) == 0
        paths.append(idx)
    return paths


class TestXmatchOutputBytes:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "flags", [(), ("--no-self",), ("--best-match",), ("--no-self", "--best-match")]
    )
    @pytest.mark.parametrize("other", [0, 1])
    def test_equal_to_per_row_writer(self, tied_catalogs, tmp_path, workers, flags,
                                     other):
        lead_idx, other_idx = tied_catalogs[0], tied_catalogs[other]
        out = tmp_path / "new.csv"
        assert run_cli(
            "xmatch", "--leading", str(lead_idx), "--other", str(other_idx),
            "--radius", "30arcmin", "--workers", str(workers), *flags,
            "--out", str(out),
        ) == 0
        leading, oth = load_index(str(lead_idx)), load_index(str(other_idx))
        plan = plan_contiguous(leading.cfg.zone_count, 1)
        table, _ = run_xmatch(leading, oth, MatchSpec(radius=0.5), plan)
        pairs = list(table)
        if "--no-self" in flags:
            pairs = [p for p in pairs if p.leading_id != p.other_id]
        if "--best-match" in flags:
            pairs = best_matches_reference(pairs)
        _write_pairs_per_row(tmp_path / "old.csv", pairs)
        assert out.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert len(pairs) > CHUNK or "--best-match" in flags


class TestOutputPaths:
    """Where outputs go: "-" is stdout, and an existing file is overwritten
    in place and cut to the bytes written."""

    @pytest.fixture()
    def writers(self, small_setup):
        index = load_index(small_setup[2])
        ids = np.arange(5000, dtype=np.uint64)
        report_json = ExecutionReport((WorkerStats(0, 0.5, 0.25, 5000, 12),), 0.75).to_json()
        return {
            "csv": lambda path: _write_csv(path, "id,mag\n", "%d,%r\n", (ids, ids * 0.5)),
            "stats": lambda path: cli._write_stats(str(path), report_json),
            "snapshot": lambda path: save_index(index, path),
        }

    @pytest.mark.parametrize("prior", ["longer", "shorter"])
    @pytest.mark.parametrize("kind", ["csv", "stats", "snapshot"])
    def test_rewrite_equals_fresh_write(self, writers, tmp_path, kind, prior):
        fresh, rewritten = tmp_path / "fresh", tmp_path / "rewritten"
        writers[kind](fresh)
        size = fresh.stat().st_size
        rewritten.write_bytes(b"x" * (2 * size + 1 if prior == "longer" else size // 2))
        writers[kind](rewritten)
        if kind == "snapshot":  # the archive also holds its write time
            assert rewritten.stat().st_size == size
            assert _snapshot_members(rewritten) == _snapshot_members(fresh)
            assert load_index(rewritten).ids.tolist() == load_index(fresh).ids.tolist()
        else:
            assert rewritten.read_bytes() == fresh.read_bytes()

    def test_stats_dash_is_stdout(self, small_setup, tmp_path, capsys, monkeypatch):
        _, _, a_idx, _ = small_setup
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        capsys.readouterr()
        assert run_cli("scan", "--index", str(a_idx), "--out", "s.csv", "--stats", "-") == 0
        assert json.loads(capsys.readouterr().out)["worker_count"] == 1
        assert os.listdir(cwd) == ["s.csv"]

    def test_snapshot_dash_is_stdout(self, small_setup, tmp_path, capsysbinary):
        a_csv, _, a_idx, _ = small_setup
        capsysbinary.readouterr()
        assert run_cli("ingest", "--in", str(a_csv), "--out", "-") == 0
        piped = tmp_path / "piped.idx"
        piped.write_bytes(capsysbinary.readouterr().out)
        assert _snapshot_members(piped) == _snapshot_members(a_idx)

    def test_snapshot_to_a_pipe_loads(self, small_setup, tmp_path):
        # a pipe is not seekable, so the archive is written another way
        # (data descriptors) than to a file or a redirected stdout
        a_csv, _, a_idx, _ = small_setup
        proc = subprocess.run(
            [sys.executable, "-m", "zonequery.cli", "ingest", "--in", str(a_csv), "--out", "-"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.returncode == 0, proc.stderr
        piped = tmp_path / "piped.idx"
        piped.write_bytes(proc.stdout)
        assert piped.read_bytes() != a_idx.read_bytes()
        loaded, stored = load_index(piped), load_index(a_idx)
        for column in ("ids", "ra", "dec", "mags", "zone_starts"):
            np.testing.assert_array_equal(getattr(loaded, column), getattr(stored, column))
        assert (loaded.name, loaded.cfg, loaded.bands) == (stored.name, stored.cfg, stored.bands)

    def test_dev_null_output(self, small_setup, capsys):
        _, _, a_idx, b_idx = small_setup
        capsys.readouterr()
        assert run_cli("xmatch", "--leading", str(a_idx), "--other", str(b_idx),
                       "--radius", "30arcmin", "--out", os.devnull, "--stats", os.devnull) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_output_is_not_cut(self, writers, tmp_path):
        fresh, fifo = tmp_path / "fresh", tmp_path / "fifo"
        writers["csv"](fresh)
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        writers["csv"](fifo)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [fresh.read_bytes()]


class TestWorkerLimit:
    @pytest.mark.parametrize("command", ["plan", "scan", "cone", "xmatch"])
    def test_65_workers_exit_1_before_planning(self, small_setup, tmp_path, capsys,
                                               monkeypatch, command):
        _, _, a_idx, _ = small_setup
        argv = _query_commands(str(a_idx), tmp_path)[command]
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "65"
        else:
            argv += ["--workers", "65"]
        planned = []
        monkeypatch.setattr(cli, "make_plan", lambda *a: planned.append(a))
        capsys.readouterr()
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        limit = f"--workers 65 is above the limit of {MAX_WORKERS}"
        assert err == f"zonequery: error: {limit}\n"
        assert planned == []

    def test_limit_itself_accepted(self, small_setup, tmp_path, capsys):
        _, _, a_idx, b_idx = small_setup
        assert MAX_WORKERS == 64
        assert run_cli("plan", "--index", str(a_idx), "--workers", "64") == 0
        assert json.loads(capsys.readouterr().out)["worker_count"] == 64
        stats = tmp_path / "stats.json"
        assert run_cli("xmatch", "--leading", str(a_idx), "--other", str(b_idx),
                       "--radius", "30arcmin", "--workers", "64",
                       "--out", str(tmp_path / "x.csv"), "--stats", str(stats)) == 0
        assert json.loads(stats.read_text())["worker_count"] == 64


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "g.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "zonequery.cli", "gen", "--count", "10",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.read_text().startswith("id,ra,dec,r\n")

    def test_bad_angle_via_subprocess_exit_1(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "zonequery.cli", "gen", "--count", "1",
             "--footprint", "dec_band:1:2", "--out", str(tmp_path / "x.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "deg|arcmin|arcsec" in proc.stderr


class TestTraceHooks:
    """The benchmark's tracer (``perfbench/layers.py``) replaces module
    attributes at run time. A name moved from where it is replaced would
    leave its per-layer metric reading 0 with no other test failing."""

    def test_cli_has_every_name_instrument_cli_wraps(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import layers

        class Names:
            """A recorder that only notes what it is asked to wrap."""

            def __init__(self) -> None:
                self.wrapped: list[tuple[object, str]] = []

            def wrap(self, module, attr, name, annotate=None) -> None:
                self.wrapped.append((module, attr))

        names = Names()
        layers.instrument_cli(names)
        assert {attr for module, attr in names.wrapped if module is cli} == {
            "load_index", "ingest_csv", "save_index", "histogram", "make_plan", "run_xmatch",
        }
        assert (catalog, "build_index") in names.wrapped
        for module, attr in names.wrapped:
            assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"

    def test_ingest_builds_through_the_catalog_module(self, tmp_path, monkeypatch):
        built: list[str] = []
        build_index = catalog.build_index

        def spy(*args, **kwargs):
            built.append(args[0])
            return build_index(*args, **kwargs)

        monkeypatch.setattr(catalog, "build_index", spy)
        path = tmp_path / "small.csv"
        path.write_text("id,ra,dec,r\n1,10.5,20.5,12.25\n2,11.5,-20.5,13.5\n", encoding="utf-8")
        assert ingest_csv(path).total_count == 2
        assert built == ["small"]
