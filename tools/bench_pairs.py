"""Alternating benchmark pairs: a parent checkout against a changed one.

    python3 tools/bench_pairs.py PARENT CHANGE --workload adaptive_tree \\
        --seed 53 --pairs 10 --seconds 30

Each pair runs `perfbench/run.py --trace 0` once in each checkout, the
order swapping from pair to pair so that a drift of the host's speed
falls on both sides alike.  For every end-to-end metric that PARENT's
BENCHMARK.json declares, the summary gives both medians, the relative
change of the medians, each side's interquartile range (the parent's also
over its median), the pairs the change won, the exact two-sided sign-test
p-value of those wins (binomial(n, 1/2) over the n pairs that were not
ties) and the metric's bound.  A metric is flagged PAST BOUND when the
change's median is worse than the parent's by more than the bound, and
UNRESOLVED when the parent's own spread (its interquartile range over its
median) exceeds the bound and not every change run beats every parent
run: such pairs can tell neither a gain nor a regression within the
bound.  The exit code is 1 when any
run was incorrect or any campaign failed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One benchmark run in `checkout`; its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"perfbench/run.py exited {proc.returncode} "
                           f"in {checkout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def iqr(values: list[float]) -> float:
    """Distance between the quartiles, inclusive method; 0 below two
    values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def sign_test(wins: int, losses: int) -> float:
    """Exact two-sided p-value of `wins` against `losses` under a fair
    coin, ties already dropped: twice the binomial(n, 1/2) tail of the
    rarer side, at most 1; 1 when no pair decided."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def summarize(declared: list[dict], pairs: list[tuple[dict, dict]]
              ) -> list[dict]:
    """One row per declared end-to-end metric from (parent result, change
    result) pairs, as `perfbench/run.py` prints them."""
    rows = []
    for spec in declared:
        name = spec["name"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        lower = spec["better"] == "lower"
        p50, c50 = statistics.median(parent), statistics.median(change)
        relative = c50 / p50 - 1.0 if p50 else 0.0
        spread = iqr(parent) / p50 if p50 else 0.0
        beats_all = max(change) < min(parent) if lower \
            else min(change) > max(parent)
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p)
                     for p, c in zip(parent, change))
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "parent_median": p50,
            "change_median": c50,
            "relative": relative,
            "parent_iqr": iqr(parent),
            "parent_spread": spread,
            "change_iqr": iqr(change),
            "wins": wins,
            "pairs": len(pairs),
            "sign_p": sign_test(wins, losses),
            "bound": spec["bound"],
            "past_bound": (relative if lower else -relative) > spec["bound"],
            "unresolved": spread > spec["bound"] and not beats_all,
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [f"{'metric':<18} {'parent':>10} {'change':>10} {'rel':>8} "
             f"{'p_iqr':>9} {'p_iqr/p50':>9} {'c_iqr':>9} {'wins':>6} "
             f"{'sign_p':>8} bound"]
    for r in rows:
        flag = ("  PAST BOUND" if r["past_bound"] else "") \
            + ("  UNRESOLVED" if r["unresolved"] else "")
        lines.append(
            f"{r['name']:<18} {r['parent_median']:>10.4g} "
            f"{r['change_median']:>10.4g} {r['relative']:>+8.2%} "
            f"{r['parent_iqr']:>9.3g} {r['parent_spread']:>9.2%} "
            f"{r['change_iqr']:>9.3g} {r['wins']:>3}/{r['pairs']:<2} "
            f"{r['sign_p']:>8.3g} {r['bound']}{flag}")
    return "\n".join(lines)


def faults(label: str, result: dict) -> list[str]:
    """Why a run does not count: incorrect, or some campaign failed."""
    out = []
    if not result["correct"]:
        out.append(f"{label}: incorrect run")
    if result["failed"]:
        out.append(f"{label}: {result['failed']} of {result['attempted']} "
                   "campaigns failed")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    declared = json.loads((args.parent / "BENCHMARK.json").read_text(
        "utf-8"))["end_to_end"]
    pairs, problems = [], []
    for i in range(args.pairs):
        order = (("parent", args.parent), ("change", args.change))
        results = {}
        for label, checkout in order if i % 2 == 0 else order[::-1]:
            results[label] = run_once(checkout, args.workload, args.seed,
                                      args.seconds)
            problems += faults(f"pair {i} {label}", results[label])
        pairs.append((results["parent"], results["change"]))
        print(f"pair {i}: " + "  ".join(
            f"{name} {results['parent']['metrics'][name]['value']:.4g} -> "
            f"{results['change']['metrics'][name]['value']:.4g}"
            for name in (spec["name"] for spec in declared)), flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    print(format_rows(summarize(declared, pairs)))
    for line in problems:
        print(f"FAILED {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
