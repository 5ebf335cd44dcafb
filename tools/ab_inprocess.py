"""In-process A/B of whole campaigns: a parent checkout against a changed one.

    python3 tools/ab_inprocess.py PARENT CHANGE --workload adaptive_tree \\
        --seed 11 --rounds 12

Both checkouts' `cliffcert` packages are imported side by side into one
interpreter, each from its own `src/`, so both sides share the host's
speed, the heap and numpy, and a difference of a few percent shows where
separate benchmark processes cannot resolve it.  The library workloads
(every workload but `cli_configs`) are built by PARENT's
`perfbench/workloads.py`, which only reads its `--seed`.

Each round runs every campaign of a workload once on each side, parent
first in even rounds and change first in odd ones, and checks each
verdict against the workload's `Expected`.  A campaign's time on a side is
its minimum over the rounds.  One line per workload gives the median over
campaigns of the change / parent ratio of those minima, its quartiles,
and each side's median minimum in ms.  The exit code is 1 when any verdict
differs from its expectation.
"""

from __future__ import annotations

import os

# the benchmark is single-threaded; pin numpy's BLAS before it loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402


def load_package(checkout: Path) -> dict:
    """Every `cliffcert` module of `checkout`, imported afresh, by name.

    Whatever `cliffcert` modules were loaded before are put back after, so
    the next import makes new module objects.  Each module binds its
    siblings when it is imported (src/ has no function-level imports), so a
    package keeps calling its own code whichever is loaded later."""
    def ours(name):
        return name == "cliffcert" or name.startswith("cliffcert.")

    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if ours(name)}
    sys.path.insert(0, str(checkout / "src"))
    try:
        importlib.import_module("cliffcert.protocol")
        return {name: sys.modules[name] for name in list(sys.modules)
                if ours(name)}
    finally:
        sys.path.remove(str(checkout / "src"))
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def load_workloads(checkout: Path):
    """`perfbench/workloads.py` of `checkout`, which imports no program."""
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", checkout / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's package with a workload's circuits and devices."""

    def __init__(self, modules: dict, wl):
        cc = modules["cliffcert"]
        self.verify = modules["cliffcert.protocol"].verify_campaign
        self.wl = wl
        self.prepared = [(cc.gadgetize(cc.parse_circuit(c.circuit_text)),
                          cc.SimulatedDevice(cc.parse_fault(c.fault)))
                         for c in wl.campaigns]

    def run(self, index: int) -> tuple[float, str | None]:
        """(seconds to verdict, how the verdict differs or None)."""
        c, wl = self.wl.campaigns[index], self.wl
        circuit, device = self.prepared[index]
        start = perf_counter()
        report = self.verify(device, circuit, wl.epsilon, wl.eta, wl.delta,
                             c.seed, wl.extra_check_lines)
        elapsed = perf_counter() - start
        reason = c.expected.mismatch(
            report.decision, [(f.kind, f.stage) for f in report.failures])
        return elapsed, reason and f"{c.name}: {reason}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: Side, change: Side, rounds: int
            ) -> tuple[dict, list[str]]:
    """Alternating rounds of every campaign on both sides: the summary
    numbers of the per-campaign minima, and every verdict mismatch."""
    size = len(parent.wl.campaigns)
    best = {side: [float("inf")] * size for side in ("parent", "change")}
    problems = []
    for number in range(rounds):
        order = (("parent", parent), ("change", change))
        for index in range(size):
            for name, side in order[::-1] if number % 2 else order:
                elapsed, reason = side.run(index)
                best[name][index] = min(best[name][index], elapsed)
                if reason:
                    problems.append(f"{name} {reason}")
    q1, median, q3 = quartiles([c / p for p, c in zip(best["parent"],
                                                       best["change"])])
    return {"campaigns": size, "rounds": rounds, "ratio": median,
            "q1": q1, "q3": q3,
            "parent_ms": 1e3 * statistics.median(best["parent"]),
            "change_ms": 1e3 * statistics.median(best["change"])}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload",
                        help="one library workload (default: every one)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    workloads = load_workloads(args.parent.resolve())
    library = tuple(workloads.BUILDERS)
    if args.workload not in (None, *library):
        parser.error(f"--workload must be one of {', '.join(library)}")
    packages = [load_package(path.resolve())
                for path in (args.parent, args.change)]
    for path, modules in zip((args.parent, args.change), packages):
        assert Path(modules["cliffcert"].__file__).is_relative_to(
            path.resolve() / "src"), modules["cliffcert"].__file__
    assert packages[0].keys() & packages[1].keys(), "no common modules"
    for name in packages[0].keys() & packages[1].keys():
        assert packages[0][name] is not packages[1][name], name
    failed = False
    for name in [args.workload] if args.workload else library:
        wl = workloads.build(name, args.seed, args.parent.resolve())
        row, problems = compare(Side(packages[0], wl),
                                Side(packages[1], wl), args.rounds)
        print(f"{name}: change/parent {row['ratio']:.4f} "
              f"[{row['q1']:.4f}, {row['q3']:.4f}] "
              f"parent {row['parent_ms']:.3f} ms change "
              f"{row['change_ms']:.3f} ms ({row['campaigns']} campaigns, "
              f"{row['rounds']} rounds, seed {args.seed})", flush=True)
        for problem in problems:
            sys.stderr.write(f"{name}: {problem}\n")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
