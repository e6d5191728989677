"""The three workloads: set-up, closed timed loop, output checks, metrics.

Load model: one client in a closed loop; the next operation starts only when
the previous one has finished. CLI workloads run each operation as a fresh
``python -m zonequery.cli`` child, so every operation pays interpreter start
and imports, as a user does, and has its own peak RSS. The program gets at
most two workers. Inputs are generated from the workload seed; the program
only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import zipfile
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from layers import instrument_library, layer_metrics
from spans import Recorder, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

XMATCH_RADIUS = "60arcsec"
XMATCH_RADIUS_DEG = 60.0 / 3600.0
WORKERS = 2
BAD_ROW_FRACTION = 0.005
# a single operation that runs longer than this is killed and counted failed
OP_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts; the defaults are the benchmark."""

    xmatch_rows: int = 1_000_000
    cone_rows: int = 1_000_000
    ingest_rows: int = 500_000
    setup_reps: int = 3
    # leading objects of an xmatch output checked exhaustively
    check_samples: int = 48
    # cones checked exhaustively, three quarters of them non-empty
    cone_checks: int = 256


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list[str]
    # metric name -> (value, sample count)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    # spans of a traced run, written out when the run ends
    spans: list[dict] = field(default_factory=list)


# tamper(op_index, output_path): lets the smoke test corrupt an output
Tamper = Callable[[int, Path], None]


def derive_seed(seed: int, *keys: int) -> int:
    """Independent, reproducible seeds for the inputs of one workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(cmd: list[str], stderr_path: Path | None = None) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS MiB).

    ``os.wait4`` gives the child's own resource usage, so peak RSS is that
    process's high-water mark and nothing else's.
    """
    err = stderr_path.open("wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0
    finally:
        if stderr_path:
            err.close()


def digest(path: Path) -> str | None:
    """Content digest; for a snapshot, of its members, since the archive
    itself carries write timestamps."""
    if not path.is_file():
        return None
    h = hashlib.sha256()
    try:
        with zipfile.ZipFile(path) as z:
            for name in sorted(z.namelist()):
                h.update(name.encode() + b"\0" + z.read(name))
    except (zipfile.BadZipFile, OSError, EOFError, zlib.error):
        h = hashlib.sha256(path.read_bytes())
    return h.hexdigest()


def latency_metrics(walls: list[float], setup: list[float], rss_mb: float) -> dict:
    n = len(walls)
    return {
        "latency_p50_s": (statistics.median(walls), n),
        "latency_p99_s": (float(np.percentile(walls, 99)), n),
        "ops_per_s": (n / sum(walls), n),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_mb, n),
    }


class TimedLoop:
    """The closed loop's clock, with the set-up repeated across the run.

    ``make`` (the set-up) runs ``reps`` times, each timed; ``setup_s`` is the
    median. The first repetition runs before the loop, which needs its
    output; the others run once the loop has used 1/reps, 2/reps, ... of its
    ``seconds``, and their time is not counted against the loop. A shared
    machine's speed drifts over seconds, so repetitions spread over the run
    agree better from run to run than back-to-back ones. Spans recorded
    during repetition r carry operation id ``setup<r>``.
    """

    def __init__(self, rec: Recorder, reps: int, make: Callable[[], None],
                 seconds: float, trace: bool) -> None:
        self.rec = rec
        self.reps = reps
        self.make = make
        self.seconds = seconds
        self.trace = trace
        self.setup: list[float] = []
        self._set_up()
        self._paused = 0.0
        self._t_start = time.perf_counter()

    def _set_up(self) -> float:
        op, self.rec.op = self.rec.op, f"setup{len(self.setup)}"
        t0 = time.perf_counter()
        self.make()
        self.setup.append(time.perf_counter() - t0)
        self.rec.op = op
        return self.setup[-1]

    def keep_going(self, done: int) -> bool:
        """Whether to start another operation, after a set-up repetition if
        one is due: at least one operation, and in a traced run at least one
        traced and one untraced, then until ``seconds`` have passed."""
        elapsed = time.perf_counter() - self._t_start - self._paused
        if len(self.setup) < self.reps and elapsed >= self.seconds * len(self.setup) / self.reps:
            self._paused += self._set_up()
        return done < (2 if self.trace else 1) or elapsed < self.seconds

    def finish(self) -> list[float]:
        """Run the repetitions the loop did not reach; the set-up times."""
        while len(self.setup) < self.reps:
            self._set_up()
        return self.setup


def overhead(traced: list[float], plain: list[float]) -> float:
    return statistics.median(traced) / statistics.median(plain) - 1.0


@dataclass
class _Op:
    wall: float
    code: int
    rss_mb: float
    traced: bool
    digest: str | None


class _CliLoop:
    """Runs CLI operations back to back; traced runs alternate a traced
    child (``traced_cli.py``, spans per operation) with a plain one."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.ops: list[_Op] = []
        self.spans: list[dict] = []

    def run(self, args: list[str], output: Path, stderr_path: Path | None,
            tamper: Tamper | None) -> None:
        i = len(self.ops)
        traced = self.trace and i % 2 == 0
        if traced:
            spans_path = self.work / f"spans-{i}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(i), "--", *args]
        else:
            cmd = [sys.executable, "-m", "zonequery.cli", *args]
        wall, code, rss = run_child(cmd, stderr_path)
        if tamper is not None:
            tamper(i, output)
        if traced and code == 0:
            self.spans.extend(read_spans(spans_path))
        self.ops.append(_Op(wall, code, rss, traced, digest(output)))

    def traced_ops(self) -> list[int]:
        return [i for i, op in enumerate(self.ops) if op.traced]

    def walls(self, traced: bool | None = None) -> list[float]:
        return [op.wall for op in self.ops if traced is None or op.traced == traced]

    def modal(self, problems_by_digest: dict[str | None, list[str]]) -> str | None:
        """The most common output among those that passed their check."""
        passing = Counter(
            op.digest for op in self.ops
            if op.code == 0 and op.digest is not None and not problems_by_digest.get(op.digest)
        )
        return passing.most_common(1)[0][0] if passing else None

    def failed(self, problems_by_digest: dict[str | None, list[str]],
               op_problems: list[list[str]]) -> int:
        """Operations that exited non-zero, failed a check of their output,
        or whose output differs from the run's most common correct one."""
        modal = self.modal(problems_by_digest)
        return sum(
            1 for op, problems in zip(self.ops, op_problems)
            if op.code != 0 or op.digest != modal or problems
        )

    def startup(self) -> float:
        main = {s["op"]: s["end"] - s["start"] for s in self.spans if s["name"] == "cli.main"}
        values = [op.wall - main[i] for i, op in enumerate(self.ops) if i in main]
        return statistics.median(values) if values else 0.0


def _keep_distinct(loop: _CliLoop, output: Path, kept: dict[str | None, Path]) -> None:
    """Keep one copy of each distinct output for checking."""
    d = loop.ops[-1].digest
    if d is not None and d not in kept:
        kept[d] = output.rename(output.with_name(f"{output.stem}-{d[:16]}{output.suffix}"))
    elif output.exists():
        output.unlink()


def _cli_result(loop: _CliLoop, rec: Recorder, setup: list[float],
                problems_by_digest: dict[str | None, list[str]],
                op_problems: list[list[str]], counters: dict[str, float]) -> Result:
    """Failures, then end-to-end metrics (plain run) or layer metrics
    (traced run: span-derived, plus the workload's own ``counters``)."""
    problems = {p for ps in problems_by_digest.values() for p in ps}
    problems.update(p for ps in op_problems for p in ps)
    result = Result(
        attempted=len(loop.ops),
        failed=loop.failed(problems_by_digest, op_problems),
        problems=sorted(problems),
    )
    if not loop.trace:
        result.metrics = latency_metrics(loop.walls(), setup, max(op.rss_mb for op in loop.ops))
        return result
    result.spans = rec.finished() + loop.spans
    phases = [loop.traced_ops(), [f"setup{r}" for r in range(len(setup))], ["check"]]
    n_traced = len(loop.traced_ops())
    counters["cli.startup_s"] = loop.startup()
    counters["trace_overhead_frac"] = overhead(loop.walls(True), loop.walls(False))
    result.metrics = layer_metrics(result.spans, phases)
    result.metrics.update({k: (v, n_traced) for k, v in counters.items()})
    return result


def _size(path: Path | None) -> float:
    return float(path.stat().st_size) if path is not None else 0.0


def xmatch_cli(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path,
               rec: Recorder, tamper: Tamper | None = None) -> Result:
    from zonequery import catalog, synth
    from zonequery.synth import Clustered, DecBand, SyntheticSpec

    # two distinct catalogs sharing the same two dense 4-degree stripes
    stripes = Clustered((DecBand(-2.0, 2.0), DecBand(30.0, 34.0)))
    specs = {
        "lead": SyntheticSpec(sizes.xmatch_rows, stripes, seed=derive_seed(seed, 1, 1)),
        "other": SyntheticSpec(sizes.xmatch_rows, stripes, seed=derive_seed(seed, 1, 2)),
    }
    paths = {name: work / f"{name}.idx" for name in specs}

    def make() -> None:
        for name, spec in specs.items():
            catalog.save_index(synth.generate_index(spec, name=name), paths[name])

    clock = TimedLoop(rec, sizes.setup_reps, make, seconds, trace)
    loop = _CliLoop(work, trace)
    out = work / "pairs.csv"
    args = [
        "xmatch", "--leading", str(paths["lead"]), "--other", str(paths["other"]),
        "--radius", XMATCH_RADIUS, "--workers", str(WORKERS), "--strategy", "density",
        "--out", str(out), "--stats", str(work / "stats.json"),
    ]
    kept: dict[str | None, Path] = {}
    while clock.keep_going(len(loop.ops)):
        loop.run(args, out, None, tamper)
        _keep_distinct(loop, out, kept)
    setup = clock.finish()

    # ground truth, generated apart from the program's index
    truth = {name: checks.Catalog(*synth.generate_columns(spec)[:3])
             for name, spec in specs.items()}
    rng = np.random.default_rng(derive_seed(seed, 1, 3))
    problems_by_digest = {
        d: checks.check_xmatch_csv(
            path, truth["lead"], truth["other"], XMATCH_RADIUS_DEG, rng, sizes.check_samples
        )
        for d, path in kept.items()
    }
    return _cli_result(loop, rec, setup, problems_by_digest, [[] for _ in loop.ops], {
        "catalog.snapshot_bytes_per_row": _size(paths["lead"]) / sizes.xmatch_rows,
        "catalog.rows_rejected": 0.0,
        "cli.out_bytes": _size(kept.get(loop.modal(problems_by_digest))),
    })


# Malformed rows injected into the ingest CSV: (row text, reason prefix the
# CLI must report). ``{id}`` is a fresh id, ``{dup}`` an id already seen.
_BAD_ROWS = (
    ("{id},12.5", "expected 4 fields, got 2"),
    ("x{id},12.5,3.25,10.0", "bad id "),
    ("{big},12.5,3.25,10.0", "id {big} outside unsigned 64-bit range"),
    ("{dup},12.5,3.25,10.0", "duplicate id {dup}"),
    ("{id},12.5,north,10.0", "unparseable coordinates "),
    ("{id},inf,3.25,10.0", "non-finite coordinates "),
    ("{id},12.5,91.5,10.0", "dec 91.5 outside [-90, 90]"),
    ("{id},12.5,3.25,bright", "bad magnitude 'bright' for band r"),
)


def inject_bad_rows(path: Path, ids: np.ndarray, rng: np.random.Generator) -> dict[int, str]:
    """Insert seeded malformed rows into a generated CSV, in place.

    Returns {line number: reason prefix}. Fresh ids start above every good
    id; a duplicate always repeats an id from an earlier line, so the
    original row is kept and the copy rejected. The file is spliced as bytes
    at its newline offsets, so injecting costs little next to writing it.
    """
    data = path.read_bytes()
    # ends[k]: offset just past line k + 1 (line 1 is the header)
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
    n_rows = len(ends) - 1
    n_bad = max(1, int(n_rows * BAD_ROW_FRACTION))
    # bad row j goes right after good row slots[j] (slot >= 1)
    slots = np.sort(rng.integers(1, n_rows + 1, n_bad))
    kinds = rng.integers(0, len(_BAD_ROWS), n_bad)
    fresh = int(ids.max()) + 1
    pieces = []
    injected: dict[int, str] = {}
    prev = 0
    for j, (slot, kind) in enumerate(zip(slots, kinds)):
        pieces.append(data[prev:ends[slot]])
        prev = ends[slot]
        text, reason = _BAD_ROWS[kind]
        fmt = {"id": fresh + j, "dup": int(ids[rng.integers(0, slot)]), "big": 2**64 + j}
        pieces.append(text.format(**fmt).encode() + b"\n")
        injected[int(slot) + j + 2] = reason.format(**fmt)
    pieces.append(data[prev:])
    path.write_bytes(b"".join(pieces))
    return injected


def ingest_cli(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path,
               rec: Recorder, tamper: Tamper | None = None) -> Result:
    from zonequery import catalog, synth
    from zonequery.synth import BandSpec, FullSky, SyntheticSpec

    spec = SyntheticSpec(
        sizes.ingest_rows, FullSky(), (BandSpec("r", 5.0, 15.0),), seed=derive_seed(seed, 3, 1)
    )
    csv_path = work / "catalog.csv"
    # ground truth, also the ids that injected duplicates repeat; generated
    # once, outside the timed set-up
    ids, ra, dec, _ = synth.generate_columns(spec)
    truth = checks.Catalog(ids, ra, dec)
    state: dict = {}

    def make() -> None:
        synth.write_csv(spec, csv_path)
        rng = np.random.default_rng(derive_seed(seed, 3, 2))
        state["injected"] = inject_bad_rows(csv_path, ids, rng)

    clock = TimedLoop(rec, sizes.setup_reps, make, seconds, trace)
    loop = _CliLoop(work, trace)
    out = work / "catalog.idx"
    err = work / "stderr.txt"
    args = ["ingest", "--in", str(csv_path), "--out", str(out)]
    kept: dict[str | None, Path] = {}
    op_problems: list[list[str]] = []
    while clock.keep_going(len(loop.ops)):
        loop.run(args, out, err, tamper)
        rejects = checks.reject_lines(err.read_text(encoding="utf-8"))
        op_problems.append(checks.check_rejects(rejects, state["injected"]))
        _keep_distinct(loop, out, kept)
    setup = clock.finish()

    rec.op = "check"
    problems_by_digest = {
        d: checks.check_snapshot(path, truth, catalog.load_index) for d, path in kept.items()
    }
    snapshot = kept.get(loop.modal(problems_by_digest))
    return _cli_result(loop, rec, setup, problems_by_digest, op_problems, {
        "catalog.snapshot_bytes_per_row": _size(snapshot) / sizes.ingest_rows,
        "catalog.rows_rejected": float(len(state["injected"])),
        "cli.out_bytes": _size(snapshot),
    })


def cone_batch(seed: int, seconds: float, trace: bool, sizes: Sizes, work: Path,
               rec: Recorder, tamper: Tamper | None = None) -> Result:
    """One child process sets up, runs the cone stream and checks a sample
    (see ``cone_child.py``); this side launches it and reads its result.

    ``attempted`` counts the sampled cones whose rows were checked. The
    results stay in the child, so ``tamper`` is not called; given one, the
    child drops a row from one sampled cone instead. The child records its
    own spans; ``rec`` is unused.
    """
    config = work / "cone-config.json"
    result_path = work / "cone-result.json"
    config.write_text(json.dumps({
        "seed": seed, "seconds": seconds, "trace": trace, "rows": sizes.cone_rows,
        "setup_reps": sizes.setup_reps, "cone_checks": sizes.cone_checks,
        "drop_row": tamper is not None,
    }), encoding="utf-8")
    err = work / "cone-stderr.txt"
    _, code, _ = run_child(
        [sys.executable, str(HERE / "cone_child.py"), str(config), str(result_path)], err
    )
    if code != 0 or not result_path.is_file():
        sys.stderr.write(err.read_text(encoding="utf-8", errors="replace")[-4000:])
        raise RuntimeError(f"cone_batch child exited with code {code}")
    payload = json.loads(result_path.read_text(encoding="utf-8"))
    return Result(
        attempted=payload["attempted"],
        failed=payload["failed"],
        problems=payload["problems"],
        metrics={k: tuple(v) for k, v in payload["metrics"].items()},
        spans=payload["spans"],
    )


WORKLOADS = {"xmatch_cli": xmatch_cli, "cone_batch": cone_batch, "ingest_cli": ingest_cli}


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes(),
        tamper: Tamper | None = None) -> Result:
    """Run one workload in a scratch directory inside the checkout, removed
    afterwards; a traced run records spans around the library calls this
    process makes and leaves all spans in ``.perfbench_work``."""
    base = ROOT / ".perfbench_work"
    work = base / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    if trace:
        instrument_library(rec)
    try:
        result = WORKLOADS[name](seed, seconds, trace, sizes, work, rec, tamper)
    finally:
        rec.restore()
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        (base / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps(result.spans), encoding="utf-8"
        )
    return result
