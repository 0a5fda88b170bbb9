"""Compare a change against its parent with one copy of the benchmark.

    python3 perfbench/compare.py --parent PARENT_TREE --change CHANGE_TREE

Both trees are source checkouts holding ``src/thetagraph``. Every run uses
this copy of ``run.py`` and ``expected.json``, with the tree as working
directory, so the two sides differ only in the program. For every
workload of ``BENCHMARK.json`` it makes ten pairs of untraced runs of
``run_seconds`` each, one seed per pair and the side that runs first
alternating, then one traced run per side.

For each end-to-end metric it prints each side's median and quartiles, the
pairs the change won and a verdict:

- worse (fails ops): the change failed more ops, summed over its runs, than
  the parent; no gain counts then, so every metric of the workload reads so;
- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
- unresolved: the parent's quartile distance, as a share of its median, is
  wider than the metric's bound, unless every change run beats every parent
  run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- unchanged: otherwise.

The traced runs give per-layer self-time and count deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PAIRS = 10  # the least the verdict rule accepts


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            parent_failed: int = 0, change_failed: int = 0) -> tuple[str, int]:
    """The verdict on paired runs (parent[i] and change[i] share a seed) and
    the number of pairs the change won. ``*_failed`` are the ops each side
    failed over all its runs."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if change_failed > parent_failed:
        return "worse (fails ops)", wins
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > q3 - q1:
        return "improved", wins
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) > bound * abs(pm) and not all_better:
        return "unresolved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    return "unchanged", wins


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: run failed in {tree} ({workload}, seed {seed}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"  note: {tree} failed {result['failed']}/{result['attempted']} ops on {workload}")
    return result


def _quartiles(xs: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = spec["run_seconds"]

    for workload in names:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], workload, i, seconds, 0))
        failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
        print(f"\n== {workload}: {PAIRS} pairs of {seconds} s runs; "
              f"failed ops: parent {failed['parent']}, change {failed['change']}")
        print(f"  {'metric':<16} {'parent median [q1, q3]':<38} {'change median [q1, q3]':<38} won   verdict")
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            word, wins = verdict(p, c, m["better"], m["bound"], failed["parent"], failed["change"])
            print(f"  {m['name']:<16} {_quartiles(p):<38} {_quartiles(c):<38} "
                  f"{wins}/{PAIRS}  {word}  ({m['unit']}, {m['better']} is better, bound {m['bound']})")

        traced = {side: run_once(sides[side], workload, 0, seconds, 1)["metrics"]
                  for side in ("parent", "change")}
        print("  per layer (one traced run per side; times are self time)")
        for m in spec["per_layer"]:
            p = traced["parent"][m["name"]]["value"]
            c = traced["change"][m["name"]]["value"]
            share = f"{(c - p) / p:+.1%}" if p else "n/a"
            print(f"    {m['name']:<38} {p:>14.6g} -> {c:<14.6g} {m['unit']:<6} delta {c - p:+.6g} ({share})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
