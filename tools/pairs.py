"""Measure a change against its parent in alternating pairs of benchmark runs.

Usage, from the repository root::

    python3 tools/pairs.py --parent ../parent --change . --workload all \\
        --pairs 10 --seed 2029 --out BENCH_N.json

Each side is a checkout of the repository. A run is the side's own
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``,
started with the side as its working directory and without ``PYTHONPATH``,
so each side measures its own sources. The sides alternate, the parent
first in even pairs (counting from 0), and only one run is in flight at a
time. ``T`` defaults to the change side's ``BENCHMARK.json`` ``run_seconds``.

A run that exits non-zero, or whose last line does not report
``"correct": true``, stops the driver with exit status 2 and a message
naming the side, the pair and the workload; no file is written then.

The BENCH file holds, for each workload and each end-to-end metric of
``BENCHMARK.json``, both sides' values in pair order, their medians, the
parent's interquartile range (``statistics.quantiles(method="inclusive")``),
``change_worse_by`` (the signed relative change of the median, positive is
worse), how many pairs the change won, and the median of the per-pair
change/parent ratios with a bootstrap 95% interval.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

SIDES = ("parent", "change")
BOOTSTRAP_RESAMPLES = 10_000
BOOTSTRAP_SEED = 20240229
MACHINE_KEYS = ("nproc", "cpu", "python", "numpy")


class PairsError(Exception):
    """A run failed or the sides cannot be measured; the message says which."""


def ratio_interval(parent: Sequence[float], change: Sequence[float]) -> Tuple[float, List[float]]:
    """Median of the per-pair change/parent ratios, and its bootstrap 95% interval.

    The interval is the 2.5th and 97.5th percentile of the medians of
    ``BOOTSTRAP_RESAMPLES`` resamples of the pairs, drawn with replacement
    from a stream of fixed seed, so the same values give the same interval.
    """
    ratios = np.asarray(change, dtype=np.float64) / np.asarray(parent, dtype=np.float64)
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    picks = rng.integers(0, len(ratios), size=(BOOTSTRAP_RESAMPLES, len(ratios)))
    medians = np.median(ratios[picks], axis=1)
    low, high = np.percentile(medians, [2.5, 97.5])
    return float(np.median(ratios)), [float(low), float(high)]


def summarise(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, object]:
    """One metric's entry of a BENCH file; ``better`` is ``"lower"`` or ``"higher"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("a metric needs the same number of values, at least one, on each side")
    sign = 1.0 if better == "lower" else -1.0
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ratio, interval = ratio_interval(parent, change)
    return {
        "parent": list(parent),
        "change": list(change),
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_iqr": q3 - q1,
        "change_worse_by": round(sign * (change_median - parent_median) / parent_median, 4),
        "pairs_change_better": f"{wins}/{len(parent)}",
        "ratio_median": ratio,
        "ratio_ci95": interval,
    }


def run_side(side: str, root: Path, workload: str, seed: int, seconds: float,
             pair: int) -> Dict[str, object]:
    """Run one side's benchmark on one workload; return its context and metrics."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    where = f"{side} side, pair {pair}, workload {workload}"
    try:
        done = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                              timeout=20 * seconds + 600, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise PairsError(f"{where}: {exc}") from None
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode != 0 or result.get("correct") is not True:
        detail = (done.stderr.strip().splitlines() or lines or ["no output"])[-1]
        raise PairsError(f"{where}: exit {done.returncode}, correct: "
                         f"{json.dumps(result.get('correct'))}: {detail}")
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), {})
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return {"context": context, "metrics": metrics}


def describe(root: Path) -> str:
    """The side's git revision, marked when its tracked files differ from it."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root, text=True,
                             capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=root, text=True, capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "a tree outside git"
    return f"{rev} with uncommitted changes" if dirty.strip() else rev


Values = Dict[str, Dict[str, Dict[str, List[float]]]]  # workload -> side -> metric -> values


def measure(roots: Dict[str, Path], workloads: Sequence[str], pairs: int, seed: int,
            seconds: float, log=print) -> Tuple[Values, Dict[str, Dict[str, object]]]:
    """Every metric's values, per workload and side, in pair order; and each side's context."""
    values: Values = {}
    contexts: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        per_side: Dict[str, Dict[str, List[float]]] = {side: {} for side in SIDES}
        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_side(side, roots[side], workload, seed, seconds, pair)
                contexts.setdefault(side, run["context"])
                for name, value in run["metrics"].items():
                    per_side[side].setdefault(name, []).append(value)
                log(f"{workload} pair {pair} {side}: " + " ".join(
                    f"{name}={value:.6g}" for name, value in run["metrics"].items()))
        values[workload] = per_side
    return values, contexts


def bench_document(values: Values, contexts: Dict[str, Dict[str, object]],
                   benchmark: Dict[str, object], *, note: str, claim: str, seed: int,
                   seconds: float, pairs: int, sides: Dict[str, str]) -> Dict[str, object]:
    """The BENCH file of the measured ``values``, in BENCH_26's shape plus the ratios."""
    context = contexts.get("change") or contexts.get("parent") or {}
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE")
    protocol = (
        f"parent ({sides['parent']}) and change ({sides['change']}) each run their own "
        "unchanged perfbench/run.py from their own directory, with no PYTHONPATH and "
        + (f"PYTHONDONTWRITEBYTECODE={bytecode}" if bytecode else "PYTHONDONTWRITEBYTECODE unset")
        + f"; {pairs} pairs per workload, alternating which side runs first (parent first in "
        "even pairs, counting from 0); one run at a time; each run "
        f"{seconds:g} s. Quartiles are statistics.quantiles(method='inclusive'); "
        "change_worse_by is the signed relative median change (positive is worse); "
        "ratio_median is the median per-pair change/parent ratio, and ratio_ci95 its "
        f"bootstrap 95% interval ({BOOTSTRAP_RESAMPLES} resamples, numpy seed {BOOTSTRAP_SEED})."
    )
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = {
        workload: {
            name: summarise(per_side["parent"][name], per_side["change"][name], direction)
            for name, direction in better.items()
        }
        for workload, per_side in values.items()
    }
    return {
        "change": note,
        "command": f"python3 perfbench/run.py --workload <name> --seed {seed} "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": protocol,
        "machine": {**{key: context.get(key) for key in MACHINE_KEYS}, "platform": sys.platform},
        "src_lines": {side: contexts.get(side, {}).get("src_lines") for side in SIDES},
        "claim": claim,
        "workloads": workloads,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--pairs", type=int, required=True, help="pairs of runs per workload")
    parser.add_argument("--seed", type=int, required=True, help="the benchmark's --seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of each run; default BENCHMARK.json's run_seconds")
    parser.add_argument("--out", type=Path, required=True, help="path of the BENCH file to write")
    parser.add_argument("--note", default="", help="what the change does, for the BENCH file")
    parser.add_argument("--claim", default="none", help="the gain the change claims, if any")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in benchmark["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise PairsError(f"--workload must be all or one of {', '.join(names)}")
        if args.pairs < 1:
            raise PairsError("--pairs must be at least 1")
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        workloads = names if args.workload == "all" else [args.workload]
        values, contexts = measure(roots, workloads, args.pairs, args.seed, seconds,
                         log=lambda line: print(line, file=sys.stderr, flush=True))
    except (OSError, ValueError, KeyError, PairsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    document = bench_document(values, contexts, benchmark, note=args.note, claim=args.claim,
                              seed=args.seed, seconds=seconds, pairs=args.pairs,
                              sides={side: describe(root) for side, root in roots.items()})
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
