"""Run the benchmark in alternating pairs on two checkouts and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload chain_pulse --pairs 10 --seed 7

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, one run at a time, from the checkout's root; the
parent goes first in even pairs and the change in odd ones, so a drift of
the machine's speed favours neither.  T is ``run_seconds`` of this tree's
``BENCHMARK.json`` unless ``--seconds`` is given.  The last line of a
run's standard output is its JSON record, ``{"correct", "attempted",
"failed", "metrics": {name: {"value", "unit"}}}``; a run that prints none
counts as one failed of one attempted operation and adds no metric.

For each end-to-end metric of ``BENCHMARK.json`` the script prints each
side's runs, their median and quartiles (``statistics.quantiles``,
inclusive), the pairs in which the change is better, and two verdicts:

- claim: the change is better in at least nine of ten pairs (the same
  share of any count) and its median differs from the parent's by more
  than the parent's interquartile range;
- bound: the change's median is not worse than the parent's by more than
  the metric's ``bound``, a fraction of the parent's median.

Then it prints each side's failed and attempted operations.  Only the
standard library is used.  The exit status is 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in ``checkout``: its JSON record, or None."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {checkout}: no JSON record (exit {proc.returncode}): "
              f"{proc.stderr.strip()[-300:]}", file=sys.stderr)
        return None
    return record if isinstance(record, dict) and "metrics" in record else None


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of one side's runs."""
    if len(values) < 2:
        v = values[0] if values else math.nan
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(change: float, parent: float, lower: bool) -> bool:
    return change < parent if lower else change > parent


def report(metric: dict, runs: dict[str, list[dict | None]]) -> None:
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    values = {side: [r["metrics"][name]["value"] if r and name in r["metrics"] else math.nan
                     for r in runs[side]] for side in SIDES}
    print(f"{name} ({metric['unit']}, {metric['better']} is better, bound {bound:g})")
    stats = {}
    for side in SIDES:
        kept = [v for v in values[side] if not math.isnan(v)]
        stats[side] = spread(kept)
        q1, med, q3 = stats[side]
        print(f"  {side}: " + " ".join(f"{v:.6g}" for v in values[side]))
        print(f"  {side}: median {med:.6g}, quartiles {q1:.6g} .. {q3:.6g}")
    pairs = list(zip(values["parent"], values["change"]))
    wins = sum(better(c, p, lower) for p, c in pairs)
    p_med, c_med = stats["parent"][1], stats["change"][1]
    iqr = stats["parent"][2] - stats["parent"][0]
    change = (c_med - p_med) / p_med if p_med else math.nan
    print(f"  change better in {wins}/{len(pairs)} pairs; median {change:+.2%}, "
          f"gap {abs(c_med - p_med):.6g} against a parent IQR of {iqr:.6g}")
    claim = (wins >= math.ceil(0.9 * len(pairs)) and better(c_med, p_med, lower)
             and abs(c_med - p_med) > iqr)
    worse = -change if not lower else change
    print(f"  claim: {'holds' if claim else 'does not hold'}; bound: "
          f"{'within' if worse <= bound else 'EXCEEDED'} (median {worse:+.2%} in the worse "
          f"direction, at most {bound:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: run_seconds of BENCHMARK.json)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")

    runs: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload, args.seed, seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    for metric in bench["end_to_end"]:
        report(metric, runs)
    for side in SIDES:
        attempted = sum(r["attempted"] if r else 1 for r in runs[side])
        failed = sum(r["failed"] if r else 1 for r in runs[side])
        print(f"{side}: {failed} failed of {attempted} attempted operations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
