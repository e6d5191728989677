"""Seconds-long smoke test of the benchmark at tiny input sizes.

    python -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json declares is printed, with its unit,
in both modes, and that the output checks catch a corrupted output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    xmatch_rows=4000, cone_rows=4000, ingest_rows=4000, setup_reps=2, check_samples=8,
    cone_checks=16,
)
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_metric_printed_with_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, sizes=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if line[0] != "#"}
    for m in declared:
        assert isinstance(result["metrics"][m["name"]]["value"], float)
        value, unit, samples = table[m["name"]]
        # a layer the workload does not reach reads 0 from 0 samples
        assert unit == m["unit"] and int(samples) >= (0 if trace else 1)
    if not trace:
        for name in run.PRINTED_ONLY:
            assert table[name][1] == run.PRINTED_ONLY[name]
    assert table["failed_frac"][0] == "0"


def _corrupt_second(i: int, path: Path) -> None:
    """Damage operation 1's output: repeat the CSV's last line, or cut the
    snapshot in half."""
    if i != 1:
        return
    data = path.read_bytes()
    if path.suffix == ".csv":
        path.write_bytes(data + data.splitlines(keepends=True)[-1])
    else:
        path.write_bytes(data[: len(data) // 2])


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_corrupted_output_counts_as_failed(workload):
    # a traced run makes at least two operations; cone_batch drops a row
    # from one sampled cone instead (4000 rows: most cones are empty, so a
    # long enough run is needed to sample non-empty ones)
    seconds = 1.0 if workload == "cone_batch" else 0.0
    result = workloads.run(workload, seed=7, seconds=seconds, trace=True, sizes=TINY,
                           tamper=_corrupt_second)
    assert result.attempted >= 2
    assert result.failed == 1
    assert result.problems
