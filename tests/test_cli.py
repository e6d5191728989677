"""End-to-end CLI behavior: formats, exit codes, determinism."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonequery import cli, load_index, plan_contiguous, run_xmatch
from zonequery.cli import main, parse_angle, parse_footprint, parse_worker_list
from zonequery.cli import MAX_WORKERS, UsageError
from zonequery.queries import MatchSpec
from zonequery.synth import Clustered, DecBand, FullSky

from conftest import best_matches_reference


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

    def test_worker_list(self):
        assert parse_worker_list("1,2,4,8") == [1, 2, 4, 8]
        with pytest.raises(UsageError):
            parse_worker_list("1,zero")
        with pytest.raises(UsageError):
            parse_worker_list("0,2")


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

    def test_zero_workers_is_usage_error(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert run_cli("scan", "--index", str(a_idx), "--workers", "0") == 1

    def test_zero_repeat_is_usage_error(self, small_setup, tmp_path, capsys):
        _, _, a_idx, b_idx = small_setup
        code = run_cli(
            "bench", "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
            "--radius", "1arcmin", "--workers", "1", "--repeat", "0",
            "--out", str(tmp_path / "b.json"),
        )
        assert code == 1

    def test_negative_count_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "--count", "-5", "--out", str(tmp_path / "g.csv"))
        assert code == 1

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


def _corrupt(path, kind: str) -> None:
    raw = bytearray(path.read_bytes())
    if kind == "empty":
        raw = bytearray()
    elif kind == "truncated":
        raw = raw[: len(raw) // 2]
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
        "bench": ["bench", "xmatch", "--leading", idx, "--other", idx,
                  "--radius", "1arcmin", "--workers", "1", "--repeat", "1",
                  "--out", str(tmp_path / "b.json")],
    }


class TestCorruptSnapshot:
    @pytest.mark.parametrize("kind", ["empty", "truncated", "crc"])
    @pytest.mark.parametrize("command", ["plan", "scan", "cone", "xmatch", "bench"])
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


_STATS_COUNTERS = ("elapsed_s", "rows_scanned", "rows_returned", "bytes_read")


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
        for name in ("rows_scanned", "rows_returned", "bytes_read"):
            assert type(mx[name]) is int
        cpus = [r["cpu_s"] for r in rows]
        if None in cpus:  # no per-thread CPU clock on this platform
            assert mx["cpu_s"] is None and avg["cpu_s"] is None
        else:
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

    @pytest.mark.parametrize("command", ["xmatch", "bench"])
    def test_self_match_loads_file_once(self, small_setup, tmp_path, monkeypatch,
                                        command):
        _, _, a_idx, _ = small_setup
        twin = tmp_path / "twin.npz"
        shutil.copyfile(a_idx, twin)
        loads = []
        real_load = cli.load_index

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(cli, "load_index", counting_load)
        outs = []
        for other in (a_idx, twin):
            loads.clear()
            out = tmp_path / f"{command}.out"
            argv = ["--leading", str(a_idx), "--other", str(other),
                    "--radius", "30arcmin", "--out", str(out)]
            if command == "bench":
                argv = ["bench", "xmatch", *argv, "--workers", "1", "--repeat", "1"]
            else:
                argv = ["xmatch", *argv]
            assert run_cli(*argv) == 0
            outs.append((len(loads), out.read_bytes()))
        assert [n for n, _ in outs] == [1, 2]
        if command == "xmatch":
            assert outs[0][1] == outs[1][1]


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


class TestBenchCommand:
    def test_bench_report_schema_and_speedup(self, small_setup, tmp_path):
        _, _, a_idx, b_idx = small_setup
        report = tmp_path / "bench.json"
        plot = tmp_path / "plot.csv"
        assert run_cli(
            "bench", "xmatch", "--leading", str(a_idx), "--other", str(b_idx),
            "--radius", "30arcmin", "--workers", "1,2", "--repeat", "3",
            "--out", str(report), "--plot-csv", str(plot),
        ) == 0
        payload = json.loads(report.read_text())
        assert set(payload) == {"radius", "worker_counts", "runs"}
        assert payload["worker_counts"] == [1, 2]
        for run, workers in zip(payload["runs"], (1, 2)):
            assert run["workers"] == workers
            assert len(run["elapsed_s"]) == 3
            assert run["median_s"] == sorted(run["elapsed_s"])[1]
        base = payload["runs"][0]["median_s"]
        for run in payload["runs"]:
            assert run["speedup"] == pytest.approx(base / run["median_s"])
        lines = plot.read_text().splitlines()
        assert lines[0] == "worker_count,elapsed,speedup"
        assert len(lines) == 3


CHUNK = cli._CHUNK_ROWS
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


class TestCsvFormatter:
    """The chunked %-formatter writes what the per-row f-strings wrote."""

    @given(st.lists(st.tuples(_U64, _U64, _FLOATS), min_size=1, max_size=20), _LENGTHS)
    @settings(max_examples=100, deadline=None)
    def test_pair_rows(self, pool, n):
        rows = _tile(pool, n)
        columns = tuple(
            np.array([r[k] for r in rows], dtype=dtype)
            for k, dtype in enumerate((np.uint64, np.uint64, np.float64))
        )
        chunks = list(cli._format_rows("%d,%d,%.12g\n", columns))
        assert len(chunks) == -(-n // CHUNK)
        assert "".join(chunks) == "".join(f"{i},{j},{x:.12g}\n" for i, j, x in rows)

    @given(st.lists(st.tuples(_U64, _MAGS), min_size=1, max_size=20), _LENGTHS)
    @settings(max_examples=100, deadline=None)
    def test_scan_and_cone_rows(self, pool, n):
        rows = _tile(pool, n)
        columns = tuple(zip(*rows))
        scan = "".join(cli._format_rows("%d,%r\n", columns))
        assert scan == "".join(f"{i},{x!r}\n" for i, x in rows)
        cone = "".join(cli._format_rows("%d,%.12g\n", columns))
        assert cone == "".join(f"{i},{x:.12g}\n" for i, x in rows)


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


class TestWorkerLimit:
    @pytest.mark.parametrize("command", ["plan", "scan", "cone", "xmatch", "bench"])
    def test_65_workers_exit_1_before_planning(self, small_setup, tmp_path, capsys,
                                               monkeypatch, command):
        _, _, a_idx, _ = small_setup
        argv = _query_commands(str(a_idx), tmp_path)[command]
        if "--workers" in argv:
            argv[argv.index("--workers") + 1] = "1,65" if command == "bench" else "65"
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

    def test_limit_itself_accepted(self, small_setup, capsys):
        _, _, a_idx, _ = small_setup
        assert MAX_WORKERS == 64
        assert parse_worker_list("1,64") == [1, 64]
        with pytest.raises(UsageError):
            parse_worker_list("65,1")
        assert run_cli("plan", "--index", str(a_idx), "--workers", "64") == 0
        assert json.loads(capsys.readouterr().out)["worker_count"] == 64


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
