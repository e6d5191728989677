"""Command-line front end: generate, ingest, plan, query, benchmark.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; machine-readable results (CSV/JSON) go to --out/--stats paths or
stdout. Every flag holding an angle requires an explicit unit suffix
(deg | arcmin | arcsec); bare numbers are rejected because a silently
misread unit is off by a factor of 60.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

from .catalog import (  # _CHUNK_ROWS and _format_rows stay reachable for tests
    _CHUNK_ROWS,
    _format_rows,
    _write_csv,
    IngestError,
    SnapshotFormatError,
    ZoneIndex,
    histogram,
    ingest_csv,
    load_index,
    save_index,
)
from .partition import STRATEGIES, make_plan, report
from .queries import ConeQuery, MatchSpec, ScanFilter, best_matches
from .executor import run_cone, run_scan, run_xmatch
from .sphere import SkyPoint, ZoneConfig
from .synth import BandSpec, Clustered, DecBand, FullSky, SyntheticSpec, write_csv

__all__ = ["main"]

# the most workers a command accepts: each busy worker is one thread
MAX_WORKERS = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # let "--dec -30deg" parse: treat suffixed negative angles as values,
        # not option tokens (half the sky has negative declination)
        self._negative_number_matcher = re.compile(
            r"^-\d+$|^-\d*\.\d+$|^-[\d.]+(?:[eE][-+]?\d+)?\s*(?:deg|arcmin|arcsec)$"
        )

    def error(self, message: str) -> None:  # exit 1 on usage errors, not 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_ANGLE_RE = re.compile(r"^\s*([-+]?[0-9.]+(?:[eE][-+]?[0-9]+)?)\s*(deg|arcmin|arcsec)\s*$")
_ANGLE_SCALE = {"deg": 1.0, "arcmin": 1.0 / 60.0, "arcsec": 1.0 / 3600.0}


def parse_angle(text: str) -> float:
    """'1.5deg' | '4arcmin' | '10arcsec' -> degrees. Bare numbers rejected."""
    m = _ANGLE_RE.match(text)
    if not m:
        raise UsageError(
            f"bad angle {text!r}: need <number><deg|arcmin|arcsec>, e.g. 4arcmin"
        )
    try:
        value = float(m.group(1))
    except ValueError:
        raise UsageError(f"bad angle {text!r}: unparseable number") from None
    return value * _ANGLE_SCALE[m.group(2)]


def parse_footprint(text: str):
    kind, _, rest = text.partition(":")
    kind = kind.strip().replace("-", "_")
    if kind == "full_sky":
        if rest:
            raise UsageError(f"full_sky takes no arguments, got {text!r}")
        return FullSky()
    if kind == "dec_band":
        parts = rest.split(":")
        if len(parts) != 2:
            raise UsageError(f"dec_band needs lo:hi, got {text!r}")
        try:
            return DecBand(parse_angle(parts[0]), parse_angle(parts[1]))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if kind == "clustered":
        stripes = []
        for stripe in rest.split(","):
            parts = stripe.split(":")
            if len(parts) != 2:
                raise UsageError(f"clustered stripe needs lo:hi, got {stripe!r}")
            try:
                stripes.append(DecBand(parse_angle(parts[0]), parse_angle(parts[1])))
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        return Clustered(tuple(stripes))
    raise UsageError(
        f"unknown footprint {text!r}: expected full_sky, dec_band:lo:hi, "
        "or clustered:lo:hi[,lo:hi...]"
    )


def parse_bands(text: str) -> tuple[BandSpec, ...]:
    out = []
    for part in text.split(","):
        m = re.match(r"^\s*(\w+)\s*=\s*([-+0-9.eE]+)\s*:\s*([-+0-9.eE]+)\s*$", part)
        if not m:
            raise UsageError(f"bad band spec {part!r}: need name=lo:hi, e.g. r=5:15")
        out.append(BandSpec(m.group(1), float(m.group(2)), float(m.group(3))))
    return tuple(out)


def _check_workers(workers: int) -> None:
    if workers > MAX_WORKERS:
        raise UsageError(f"--workers {workers} is above the limit of {MAX_WORKERS}")


def parse_worker_list(text: str) -> list[int]:
    try:
        workers = [int(p) for p in text.split(",")]
    except ValueError:
        raise UsageError(f"bad worker list {text!r}: need e.g. 1,2,4,8") from None
    if not workers or any(w < 1 for w in workers):
        raise UsageError(f"bad worker list {text!r}: counts must be >= 1")
    _check_workers(max(workers))
    return workers


def _normalize_strategy(text: str) -> str:
    strategy = text.replace("-", "_")
    if strategy not in STRATEGIES:
        raise UsageError(
            f"unknown strategy {text!r}; expected contiguous, round-robin, or density"
        )
    return strategy


def _load_pair(leading: str, other: str) -> tuple[ZoneIndex, ZoneIndex]:
    """Load the two indexes of a cross-match; a self-match loads its file once."""
    lead = load_index(leading)
    try:
        same = os.path.samefile(leading, other)
    except OSError:  # other is missing; its own load reports that
        same = False
    return lead, (lead if same else load_index(other))


def _plan_for(index: ZoneIndex, strategy: str, workers: int):
    _check_workers(workers)
    hist = histogram(index) if strategy == "density" else None
    try:
        return make_plan(strategy, index.cfg.zone_count, workers, hist)
    except ValueError as exc:  # bad worker count typed on the command line
        raise UsageError(str(exc)) from None


def _write_stats(path: str | None, report_json: str) -> None:
    if path:
        Path(path).write_text(report_json + "\n", encoding="utf-8")


def _cmd_gen(args) -> int:
    try:
        spec = SyntheticSpec(
            count=args.count,
            footprint=parse_footprint(args.footprint),
            bands=parse_bands(args.bands),
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    write_csv(spec, args.out)
    return 0


def _cmd_ingest(args) -> int:
    try:
        cfg = ZoneConfig(parse_angle(args.zone_height))
    except ValueError as exc:  # a bad --zone-height is a usage error
        raise UsageError(f"--zone-height: {exc}") from None
    bands = args.bands.split(",") if args.bands else None
    index = ingest_csv(
        args.infile,
        bands=bands,
        cfg=cfg,
        on_reject=lambda msg: print(msg, file=sys.stderr),
    )
    save_index(index, args.out)
    print(
        f"ingested {index.total_count} objects from {args.infile} "
        f"({index.cfg.zone_count} zones)",
        file=sys.stderr,
    )
    return 0


def _cmd_plan(args) -> int:
    strategy = _normalize_strategy(args.strategy)
    if args.format == "table" and not args.report:
        raise UsageError("--format table requires --report")
    index = load_index(args.index)
    plan = _plan_for(index, strategy, args.workers)
    if not args.report:
        print(plan.to_json())
        return 0
    # the leading choices: the index, and --other when given
    choices = [(index, plan)]
    if args.other:
        other = load_index(args.other)
        if other.cfg != index.cfg:
            raise ValueError(
                f"indexes use different zone configurations: {index.cfg} vs {other.cfg}"
            )
        choices.append((other, _plan_for(other, strategy, args.workers)))
    payload, tables = {}, []
    for key, (leading, leading_plan) in zip(("leading", "other_leading"), choices):
        rep = report(leading_plan, histogram(leading))
        entry = {
            "plan": json.loads(leading_plan.to_json()),
            "report": json.loads(rep.to_json()),
        }
        table = rep.to_text()
        if args.other:  # name each choice
            entry["catalog"] = leading.name
            table = f"leading: {leading.name}\n{table}"
        payload[key] = entry
        tables.append(table)
    if not args.other:
        payload = payload["leading"]
    if args.format == "table":
        print("\n\n".join(tables))
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_scan(args) -> int:
    index = load_index(args.index)
    strategy = _normalize_strategy(args.strategy)
    plan = _plan_for(index, strategy, args.workers)
    try:
        f = ScanFilter(args.band, args.between[0], args.between[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows, rep = run_scan(index, f, plan)
    _write_csv(args.out, "id,mag\n", "%d,%r\n", tuple(zip(*rows)))
    _write_stats(args.stats, rep.to_json())
    return 0


def _cmd_cone(args) -> int:
    index = load_index(args.index)
    strategy = _normalize_strategy(args.strategy)
    plan = _plan_for(index, strategy, args.workers)
    try:
        q = ConeQuery(
            SkyPoint(parse_angle(args.ra), parse_angle(args.dec)),
            parse_angle(args.radius),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows, rep = run_cone(index, q, plan)
    _write_csv(args.out, "id,separation_deg\n", "%d,%.12g\n", tuple(zip(*rows)))
    _write_stats(args.stats, rep.to_json())
    return 0


def _cmd_xmatch(args) -> int:
    leading, other = _load_pair(args.leading, args.other)
    strategy = _normalize_strategy(args.strategy)
    plan = _plan_for(leading, strategy, args.workers)
    try:
        spec = MatchSpec(radius=parse_angle(args.radius), leading=leading.name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    pairs, rep = run_xmatch(leading, other, spec, plan)
    if args.no_self:
        pairs = pairs.take(pairs.leading_ids != pairs.other_ids)
    if args.best_match:
        pairs = best_matches(pairs)
    columns = (pairs.leading_ids, pairs.other_ids, pairs.separation)
    header = "leading_id,other_id,separation_deg\n"
    _write_csv(args.out, header, "%d,%d,%.12g\n", columns)
    _write_stats(args.stats, rep.to_json())
    return 0


def _cmd_bench_xmatch(args) -> int:
    leading, other = _load_pair(args.leading, args.other)
    strategy = _normalize_strategy(args.strategy)
    radius = parse_angle(args.radius)
    worker_counts = parse_worker_list(args.workers)
    if args.repeat < 1:
        raise UsageError(f"--repeat must be >= 1, got {args.repeat}")
    try:
        spec = MatchSpec(radius=radius, leading=leading.name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    runs = []
    for workers in worker_counts:
        plan = _plan_for(leading, strategy, workers)
        elapsed = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            run_xmatch(leading, other, spec, plan)
            elapsed.append(time.perf_counter() - t0)
        runs.append({"workers": workers, "elapsed_s": elapsed,
                     "median_s": statistics.median(elapsed)})
    baseline = runs[0]["median_s"]
    for entry in runs:
        entry["speedup"] = baseline / entry["median_s"] if entry["median_s"] > 0 else 1.0
    payload = {"radius": radius, "worker_counts": worker_counts, "runs": runs}
    Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n",
                              encoding="utf-8")
    if args.plot_csv:
        columns = [[r[key] for r in runs] for key in ("workers", "median_s", "speedup")]
        _write_csv(args.plot_csv, "worker_count,elapsed,speedup\n", "%d,%r,%r\n", columns)
    for r in runs:
        print(
            f"workers={r['workers']} median={r['median_s']:.4f}s "
            f"speedup={r['speedup']:.2f}",
            file=sys.stderr,
        )
    return 0


def _add_query_flags(p: argparse.ArgumentParser) -> None:
    """The flags scan, cone and xmatch share: parallelism and outputs."""
    p.add_argument("--workers", type=int, default=1, help="worker count (default 1)")
    p.add_argument(
        "--strategy",
        default="contiguous",
        help="contiguous | round-robin | density (default contiguous)",
    )
    p.add_argument("--out", help="result CSV (default stdout)")
    p.add_argument("--stats", help="write per-worker stats JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zonequery", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic catalog CSV")
    p.add_argument("--count", type=int, required=True)
    p.add_argument(
        "--footprint",
        default="full_sky",
        help="full_sky | dec_band:lo:hi | clustered:lo:hi[,lo:hi...] "
        "(angles need unit suffixes)",
    )
    p.add_argument("--bands", default="r=5:15", help="name=lo:hi[,name=lo:hi...]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("ingest", help="ingest a CSV and write an index snapshot")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--zone-height", default="4arcmin")
    p.add_argument("--bands", help="comma list projecting the header's bands "
                   "(default: keep all)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_ingest)

    p = sub.add_parser("plan", help="plan zone assignment and report workload")
    p.add_argument("--index", required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--strategy", default="contiguous")
    p.add_argument("--report", action="store_true",
                   help="include per-worker workload report")
    p.add_argument("--other", help="second index: report both leading choices")
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("scan", help="full-scan magnitude filter")
    p.add_argument("--index", required=True)
    p.add_argument("--band", default="r")
    p.add_argument("--between", type=float, nargs=2, default=[9.0, 10.0],
                   metavar=("LO", "HI"))
    _add_query_flags(p)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("cone", help="cone search around a sky position")
    p.add_argument("--index", required=True)
    p.add_argument("--ra", required=True, help="e.g. 180deg")
    p.add_argument("--dec", required=True, help="e.g. -12.5deg")
    p.add_argument("--radius", required=True, help="e.g. 1arcmin")
    _add_query_flags(p)
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("xmatch", help="radius cross-match of two catalogs")
    p.add_argument("--leading", required=True, help="index whose zones drive partitioning")
    p.add_argument("--other", required=True, help="index replicated to all workers")
    p.add_argument("--radius", required=True, help="e.g. 10arcsec")
    _add_query_flags(p)
    p.add_argument("--best-match", action="store_true",
                   help="keep only the closest pair per leading object")
    p.add_argument("--no-self", action="store_true",
                   help="drop identity pairs (leading_id == other_id)")
    p.set_defaults(fn=_cmd_xmatch)

    p = sub.add_parser("bench", help="benchmark harness")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    b = bench_sub.add_parser("xmatch", help="cross-match scaling over worker counts")
    b.add_argument("--leading", required=True)
    b.add_argument("--other", required=True)
    b.add_argument("--radius", required=True)
    b.add_argument("--workers", required=True, help="comma list, e.g. 1,2,4,8")
    b.add_argument("--repeat", type=int, default=3)
    b.add_argument("--strategy", default="contiguous")
    b.add_argument("--out", required=True, help="benchmark report JSON")
    b.add_argument("--plot-csv", help="also write worker_count,elapsed,speedup CSV")
    b.set_defaults(fn=_cmd_bench_xmatch)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"zonequery: error: {exc}", file=sys.stderr)
        return 1
    except (IngestError, SnapshotFormatError, FileNotFoundError, ValueError) as exc:
        print(f"zonequery: data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
