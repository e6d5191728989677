"""The cone_batch process: build and load a full-sky index, then run a seeded
stream of cones, one ``executor.run_cone`` call each, for a fixed time.

Usage: python cone_child.py CONFIG_JSON RESULT_JSON

Only a fixed-size, seeded sample of cone results is kept (reservoir
sampling, separately for non-empty and empty cones, since most small cones
are empty); every other result is dropped as soon as the call returns. So
the memory the loop holds does not grow with the number of cones run, and
peak RSS, read before the sampled cones are checked, is the program's.
"""

from __future__ import annotations

import json
import math
import random
import resource
import sys
import time
from array import array
from pathlib import Path
from typing import Iterator

import numpy as np

import checks
from layers import instrument_library, layer_metrics
from spans import Recorder
from workloads import WORKERS, TimedLoop, derive_seed, latency_metrics, overhead

MIN_RADIUS_DEG = 10.0 / 3600.0
MAX_RADIUS_DEG = 1.0
CHUNK = 4096
# share of the check sample reserved for cones that returned rows
NON_EMPTY_SHARE = 0.75


class Reservoir:
    """A uniform random sample of at most ``size`` items from a stream of
    unknown length (Algorithm R)."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.size = size
        self.rng = rng
        self.seen = 0
        self.items: list = []

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        else:
            k = self.rng.randrange(self.seen)
            if k < self.size:
                self.items[k] = item


def cone_stream(seed: int) -> Iterator[tuple[float, float, float]]:
    """Centres uniform on the sphere, radii log-uniform in [10", 1 deg]."""
    rng = np.random.default_rng(seed)
    while True:
        ra = rng.uniform(0.0, 360.0, CHUNK)
        dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, CHUNK)))
        radius = np.exp(rng.uniform(math.log(MIN_RADIUS_DEG), math.log(MAX_RADIUS_DEG), CHUNK))
        yield from zip(ra.tolist(), dec.tolist(), radius.tolist())


def main(config_path: str, result_path: str) -> int:
    from zonequery import catalog, executor, partition, synth
    from zonequery.queries import ConeQuery
    from zonequery.sphere import SkyPoint
    from zonequery.synth import FullSky, SyntheticSpec

    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    seed, trace = cfg["seed"], cfg["trace"]
    spec = SyntheticSpec(cfg["rows"], FullSky(), seed=derive_seed(seed, 2, 1))
    snapshot = Path(result_path).with_name("sky.idx")
    state: dict = {}

    def make() -> None:
        state.clear()  # release the previous repetition's index first
        catalog.save_index(synth.generate_index(spec, name="sky"), snapshot)
        index = catalog.load_index(snapshot)
        hist = catalog.histogram(index)
        state["plan"] = partition.make_plan("contiguous", index.cfg.zone_count, WORKERS, hist)
        state["index"] = index

    rec = Recorder()
    plain = executor.run_cone
    if trace:
        instrument_library(rec)
    rng = random.Random(derive_seed(seed, 2, 3))
    n_full = max(1, round(cfg["cone_checks"] * NON_EMPTY_SHARE))
    sample = {
        True: Reservoir(n_full, rng),  # cones that returned rows
        False: Reservoir(max(1, cfg["cone_checks"] - n_full), rng),
    }
    lat = array("d")
    stream = cone_stream(derive_seed(seed, 2, 2))
    try:
        clock = TimedLoop(rec, cfg["setup_reps"], make, cfg["seconds"], trace)
        while clock.keep_going(len(lat)):
            ra, dec, radius = next(stream)
            q = ConeQuery(SkyPoint(ra, dec), radius)
            run_cone = executor.run_cone if trace and len(lat) % 2 == 0 else plain
            rec.op = len(lat)
            t0 = time.perf_counter()
            rows, _ = run_cone(state["index"], q, state["plan"])
            lat.append(time.perf_counter() - t0)
            sample[bool(rows)].offer((ra, dec, radius, rows))
        setup = clock.finish()
    finally:
        rec.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if cfg["drop_row"] and sample[True].items:
        # the smoke test's corruption: one sampled cone loses its last row
        sample[True].items[0][3].pop()
    checked = sample[True].items + sample[False].items
    truth = checks.Catalog(*synth.generate_columns(spec)[:3])
    problems = [checks.check_cone(rows, truth, ra, dec, r) for ra, dec, r, rows in checked]
    payload = {
        "attempted": len(checked),
        "failed": sum(1 for p in problems if p),
        "problems": sorted({p for ps in problems for p in ps}),
        "spans": [],
    }
    if not trace:
        payload["metrics"] = latency_metrics(lat, setup, rss_mb)
    else:
        traced_ops = list(range(0, len(lat), 2))
        payload["spans"] = rec.finished()
        metrics = layer_metrics(
            payload["spans"], [traced_ops, [f"setup{r}" for r in range(len(setup))]]
        )
        metrics.update({k: (v, len(traced_ops)) for k, v in {
            "catalog.snapshot_bytes_per_row": snapshot.stat().st_size / cfg["rows"],
            "catalog.rows_rejected": 0.0,
            "cli.out_bytes": 0.0,
            "cli.startup_s": 0.0,
            "trace_overhead_frac": overhead(lat[0::2], lat[1::2]),
        }.items()})
        payload["metrics"] = metrics
    Path(result_path).write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
