"""zonequery benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src/``. Prints
the machine facts, a table of every metric with its unit and sample count,
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics named in BENCHMARK.json, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics printed in the table but left out of BENCHMARK.json:
# their run-to-run spread on a shared 2-vCPU machine (IQR/median over ten
# seeds: ops_per_s up to 0.26, latency_p99_s up to 0.36) is wider than any
# regression bound worth having, so they inform but do not gate.
PRINTED_ONLY = {"latency_p99_s": "s", "ops_per_s": "1/s"}


def _first_line(path: str, prefix: str = "") -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" :\t\n") or None
    except OSError:
        return None
    return None


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "cgroup_cpu_max": _first_line("/sys/fs/cgroup/cpu.max"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "psutil": importlib.util.find_spec("psutil") is not None,
        "seed": seed,
    }


def main(argv: list[str] | None = None, sizes=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zonequery" / "__init__.py").is_file():
        print(f"perfbench: no zonequery sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           sizes or workloads.Sizes())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    shown = dict(units, **{k: v for k, v in PRINTED_ONLY.items() if k in result.metrics})
    if set(shown) != set(result.metrics):
        raise RuntimeError(
            f"metrics measured {sorted(result.metrics)} differ from declared {sorted(shown)}"
        )

    print("# machine " + json.dumps(machine_facts(args.seed), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"{'metric':<32} {'value':>16} {'unit':<8} samples")
    for name in shown:
        value, samples = result.metrics[name]
        print(f"{name:<32} {value:>16.6g} {shown[name]:<8} {samples}")
    failed_frac = result.failed / result.attempted
    print(f"{'failed_frac':<32} {failed_frac:>16.6g} {'ratio':<8} {result.attempted}")
    for problem in result.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": result.failed == 0 and not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name][0], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
