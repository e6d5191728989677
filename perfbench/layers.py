"""Which zonequery functions are traced, and how spans become layer metrics.

Span names are ``<module>.<function>``; the module is the layer. The CLI
binds its own names at import (``from .catalog import load_index``), so a
traced CLI process patches ``zonequery.cli``'s attributes, while code that
calls the library directly patches the defining modules.
"""

from __future__ import annotations

import statistics

from spans import Recorder, per_op


def plan_counter(result, args, kwargs) -> dict:
    from zonequery import partition

    hist = args[3] if len(args) > 3 else kwargs.get("hist")
    if hist is None:
        return {}
    return {"object_imbalance": partition.report(result, hist).imbalance}


def executor_counters(result, args, kwargs) -> dict:
    """Worker counters from the ExecutionReport the executor returns."""
    workers = result[1].workers
    elapsed = [w.elapsed_s for w in workers]
    mean = sum(elapsed) / len(elapsed)
    return {
        "worker_max_s": max(elapsed),
        "worker_elapsed_s": sum(elapsed),
        "worker_cpu_s": sum(w.cpu_s or 0.0 for w in workers),
        "elapsed_imbalance": max(elapsed) / mean if mean > 0 else 1.0,
        "candidates": sum(w.rows_scanned for w in workers),
        "rows_returned": sum(w.rows_returned for w in workers),
    }


def instrument_cli(rec: Recorder) -> None:
    """Spans around what ``zonequery.cli.main`` calls, plus index builds."""
    from zonequery import catalog, cli

    rec.wrap(cli, "load_index", "catalog.load_index")
    rec.wrap(cli, "ingest_csv", "catalog.ingest_csv")
    rec.wrap(cli, "save_index", "catalog.save_index")
    rec.wrap(cli, "histogram", "catalog.histogram")
    rec.wrap(cli, "make_plan", "partition.make_plan", plan_counter)
    rec.wrap(cli, "run_xmatch", "executor.run_xmatch", executor_counters)
    rec.wrap(catalog, "build_index", "catalog.build_index")


def instrument_library(rec: Recorder) -> None:
    """Spans around the library calls the benchmark itself makes."""
    from zonequery import catalog, executor, partition, synth

    rec.wrap(synth, "generate_index", "synth.generate_index")
    rec.wrap(synth, "write_csv", "synth.write_csv")
    rec.wrap(catalog, "load_index", "catalog.load_index")
    rec.wrap(catalog, "save_index", "catalog.save_index")
    rec.wrap(catalog, "build_index", "catalog.build_index")
    rec.wrap(partition, "make_plan", "partition.make_plan", plan_counter)
    rec.wrap(executor, "run_cone", "executor.run_cone", executor_counters)


# metric -> (span name, field); field "total_s" or "self_s"
_TIMED = {
    "catalog.load_index.self_s": ("catalog.load_index", "self_s"),
    "catalog.build_index_s": ("catalog.build_index", "total_s"),
    "catalog.ingest_csv.self_s": ("catalog.ingest_csv", "self_s"),
    "catalog.save_index_s": ("catalog.save_index", "total_s"),
    "partition.make_plan_s": ("partition.make_plan", "total_s"),
    "executor.run_xmatch_s": ("executor.run_xmatch", "total_s"),
    "executor.run_cone_s": ("executor.run_cone", "total_s"),
    "cli.main_s": ("cli.main", "total_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "synth.generate_index_s": ("synth.generate_index", "total_s"),
    "synth.write_csv_s": ("synth.write_csv", "total_s"),
}

_EXECUTORS = ("executor.run_xmatch", "executor.run_cone")


def layer_metrics(spans: list[dict], phases: list[list]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from merged spans, as {name: (value, samples)}.

    ``phases`` lists operation-id groups in order of preference, e.g. traced
    operations, then set-up repetitions, then checks. A timed metric is the
    median over the operations of the first group in which its span occurs,
    of the span's per-operation total (or self) time; a layer that is not on
    the workload's path reads 0. Executor and query counters come from the
    first group: times are medians per operation, counts means per
    operation, ratios are taken over all calls.
    """
    tables = [per_op(spans, set(ops)) for ops in phases]
    out: dict[str, tuple[float, int]] = {}
    for metric, (name, field) in _TIMED.items():
        out[metric] = (0.0, 0)
        for table in tables:
            values = [t[name][field] for t in table.values() if name in t]
            if values:
                out[metric] = (statistics.median(values), len(values))
                break

    ops = set(phases[0]) if phases else set()
    calls = [s for s in spans if s["name"] in _EXECUTORS and s["op"] in ops]
    per_op_max: dict = {}
    per_op_coord: dict = {}
    cand: dict = {}
    returned: dict = {}
    for s in calls:
        a = s["attrs"]
        op = s["op"]
        per_op_max[op] = per_op_max.get(op, 0.0) + a["worker_max_s"]
        per_op_coord[op] = per_op_coord.get(op, 0.0) + (
            s["end"] - s["start"] - a["worker_max_s"]
        )
        cand[op] = cand.get(op, 0) + a["candidates"]
        returned[op] = returned.get(op, 0) + a["rows_returned"]
    n = len(per_op_max)
    if calls:
        elapsed = sum(s["attrs"]["worker_elapsed_s"] for s in calls)
        total_cand = sum(cand.values())
        out.update({
            "executor.worker_max_s": (statistics.median(per_op_max.values()), n),
            "executor.coord_s": (statistics.median(per_op_coord.values()), n),
            "executor.elapsed_imbalance": (
                statistics.median(s["attrs"]["elapsed_imbalance"] for s in calls), len(calls)
            ),
            "executor.worker_cpu_per_wall": (
                sum(s["attrs"]["worker_cpu_s"] for s in calls) / elapsed if elapsed > 0 else 0.0,
                len(calls),
            ),
            "queries.candidates": (statistics.fmean(cand.values()), n),
            "queries.rows_returned": (statistics.fmean(returned.values()), n),
            "queries.window_efficiency": (
                sum(returned.values()) / total_cand if total_cand else 0.0, n
            ),
        })
    else:
        out.update(dict.fromkeys((
            "executor.worker_max_s", "executor.coord_s",
            "executor.elapsed_imbalance", "executor.worker_cpu_per_wall",
            "queries.candidates", "queries.rows_returned",
            "queries.window_efficiency",
        ), (0.0, 0)))

    imbalance = [
        s["attrs"]["object_imbalance"] for s in spans
        if s["name"] == "partition.make_plan" and "object_imbalance" in s["attrs"]
    ]
    out["partition.object_imbalance"] = (
        statistics.median(imbalance) if imbalance else 0.0, len(imbalance)
    )
    return out
