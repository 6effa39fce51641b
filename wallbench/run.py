"""Wall-clock benchmark of the federated XQuery system.

Run from the repository root::

    python3 wallbench/run.py --workload fig9-single --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ones. ``--workload all`` (the default) runs every workload,
each in its own process so that ``peak_rss_mb`` is that workload's.
Every line but the last is a readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is non-zero when any answer is wrong or the
source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _report(outcome) -> None:
    print(f"== {outcome.workload} ({'traced' if outcome.trace else 'untraced'}"
          f" run)")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<44} {value:>14.4f} {unit}")
    for note in outcome.notes:
        print(f"  {note}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")


def _run_all(args: argparse.Namespace) -> int:
    from wallbench.testbeds import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
            check=False)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode not in (0, 1) or not lines:
            print(f"  FAILED: {name} exited with {completed.returncode}")
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"wallbench: no source tree at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.workload == "all":
        return _run_all(args)

    from wallbench.bench import run_traced, run_untraced
    from wallbench.testbeds import make_workload

    workload = make_workload(args.workload, args.seed)
    workdir = ROOT / ".wallbench"
    workdir.mkdir(exist_ok=True)
    if args.trace:
        outcome = run_traced(
            workload, args.seconds, workdir,
            spans_path=workdir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        outcome = run_untraced(workload, args.seconds, workdir)
    _report(outcome)
    print(json.dumps(outcome.result()))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
