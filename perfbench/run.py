"""Verification-campaign benchmark for cliffcert.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adaptive_tree --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --smoke      # tiny sizes, checks every metric

Each workload is a seeded list of campaigns (see workloads.py).  Campaigns
run in a closed loop with one client: each starts when the previous verdict
returns.  Every verdict is checked against the workload's expectation, and
a few p_classical values are cross-checked against a dense statevector
(oracle.py) outside the timed loop.

Campaign times are reported in units of a fixed reference task timed just
before and just after each campaign (reference.py), because the host's CPU
speed swings far more than the bounds allow; the plain seconds are on the
notes line and in the result file.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics of a traced run (tracing.py), in
which every campaign also runs untraced to give the tracing overhead.
Spans, the environment and the results are written to .perfbench_out/.
"""

import os

# numpy's OpenBLAS starts one thread per core when it loads; the benchmark
# is single-threaded by design, so pin it before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

SETUP_LAUNCHES = 9
CROSS_CHECKS = 3
CROSS_CHECK_TOL = 1e-9
MIN_CAMPAIGNS = 20

# A campaign's time in "ref" units is its wall time divided by the mean
# time of the reference task (reference.py) run just before and just after
# it.  On a shared 2-core host the CPU switches between speeds up to 1.8x
# apart for seconds to minutes at a time; wall-time medians of 30 s runs
# moved by 25-35% between runs of the same code, the ratios by a few
# percent.
END_TO_END = {
    "setup_s": "s",
    "campaign_p50_ref": "ref",
    "campaign_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "circuit.validate_calls": "count",
    "circuit.validate_s": "s",
    "circuit.parse_s": "s",
    "circuit.share": "share",
    "pauli.joint_calls": "count",
    "pauli.joint_s": "s",
    "pauli.backprop_calls": "count",
    "pauli.conjugations": "count",
    "pauli.backprop_useful_ratio": "ratio",
    "pauli.share": "share",
    "statevector.amplitude_updates": "count",
    "statevector.computed_bytes": "B",
    "statevector.busy_s": "s",
    "statevector.share": "share",
    "prover.batch_s": "s",
    "prover.adaptive_s": "s",
    "prover.device_runs": "count",
    "prover.record_slots": "count",
    "prover.distinct_records": "count",
    "prover.runs_per_busy_s": "1/s",
    "prover.share": "share",
    "protocol.gate_test_s": "s",
    "protocol.measurement_tests_s": "s",
    "protocol.stage_self_s": "s",
    "protocol.r_gate": "count",
    "protocol.r_meas_total": "count",
    "protocol.share": "share",
    "cli.parse_config_s": "s",
    "cli.report_write_s": "s",
    "cli.report_bytes": "B",
    "cli.share": "share",
    "trace.overhead_ratio": "ratio",
}


def load_program():
    """Import cliffcert from the checkout's src/; exit 1 when absent."""
    src = ROOT / "src"
    if not (src / "cliffcert" / "__init__.py").is_file():
        sys.exit(f"error: no cliffcert sources under {src}; run from the "
                 "root of a cliffcert checkout")
    sys.path.insert(0, str(src))
    import cliffcert
    import cliffcert.cli
    return cliffcert


def environment(cc, args) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cliffcert": cc.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- inputs and set-up ----------------------------------------------------

def write_inputs(wl, work: Path) -> None:
    """Write the workload's circuit and config texts and the set-up spec
    that setup_probe.py reads."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "circuits").mkdir(parents=True)
    circuits = []
    for c in wl.campaigns:
        path = work / "circuits" / f"{c.name}.circ"
        path.write_text(c.circuit_text, encoding="utf-8")
        circuits.append(str(path))
    configs = []
    if wl.configs:
        (work / "configs").mkdir()
        for name, text in wl.configs.items():
            path = work / "configs" / name
            path.write_text(text, encoding="utf-8")
            configs.append(str(path))
    spec = {"circuits": circuits, "faults": [c.fault for c in wl.campaigns],
            "configs": configs}
    (work / "setup.json").write_text(json.dumps(spec), encoding="utf-8")


def measure_setup(work: Path, launches: int) -> float:
    """Median wall time from launching a fresh interpreter to its "ready"
    line (import, parse, gadgetize, device construction)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, str(HERE / "setup_probe.py"),
               str(work / "setup.json")]
    times = []
    for _ in range(launches):
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return statistics.median(times)


def prepare(cc, wl) -> tuple[list, float]:
    """Parse and gadgetize every circuit and build every device; returns
    them with the mean parse_circuit + gadgetize seconds per circuit."""
    out = []
    parse_s = 0.0
    for c in wl.campaigns:
        start = perf_counter()
        circuit = cc.gadgetize(cc.parse_circuit(c.circuit_text))
        parse_s += perf_counter() - start
        out.append((c, circuit, cc.SimulatedDevice(cc.parse_fault(c.fault))))
    return out, parse_s / len(out)


# -- campaigns ------------------------------------------------------------

class Runner:
    """Runs one campaign of a workload and checks its verdict.

    A cli_configs campaign is one sweep of the five bundled configs: their
    costs differ threefold, and a median over single configs would sit on
    the edge between two cost groups.
    """

    def __init__(self, cc, wl, prepared, work: Path):
        self.cc = cc
        self.wl = wl
        self.prepared = prepared
        self.work = work
        self.size = 1 if wl.configs else len(prepared)  # campaigns a pass
        self.reports: dict[int, object] = {}  # list entry -> report

    def run(self, index: int, tracer=None) -> tuple[float, str | None]:
        """(seconds to verdict, failure reason or None); with `tracer`,
        whose wrappers must be installed, the campaign is traced."""
        entry = index % self.size
        c, circuit, device = self.prepared[entry]
        frame = tracer.begin_campaign(index) if tracer else None
        if tracer and not self.wl.configs:
            device = tracing.TimedDevice(device, tracer)
        start = perf_counter()
        try:
            if self.wl.configs:
                result = [self.cc.cli.main(["verify", f"configs/{p.name}.cfg"])
                          for p, _, _ in self.prepared]
            else:
                result = self.cc.protocol.verify_campaign(
                    device, circuit, self.wl.epsilon, self.wl.eta,
                    self.wl.delta, c.seed, self.wl.extra_check_lines)
            error = None
        except Exception as exc:  # a raising campaign counts as failed
            error = f"{c.name}: raised {exc!r}"
        elapsed = perf_counter() - start
        if tracer:
            tracer.end_campaign(frame)
        return elapsed, error or self._check(entry, result)

    def _check(self, entry: int, result) -> str | None:
        if self.wl.configs:
            return "; ".join(
                f"{p.name}: exit code {code}, expected {p.exit_code}"
                for (p, _, _), code in zip(self.prepared, result)
                if code != p.exit_code) or None
        c = self.prepared[entry][0]
        if len(self.reports) < CROSS_CHECKS:
            self.reports.setdefault(entry, result)
        reason = c.expected.mismatch(
            result.decision, [(f.kind, f.stage) for f in result.failures])
        return f"{c.name}: {reason}" if reason else None

    def cross_check(self) -> list[str]:
        """Compare p_classical with the dense oracle outside the timed
        loop; return the discrepancies."""
        problems = []
        if self.wl.configs:
            checks = []
            for c, circuit, _ in self.prepared:
                report = json.loads((self.work / "out" / c.name /
                                     "report.json").read_text("utf-8"))
                if report["decision"] != c.expected.decision:
                    problems.append(f"{c.name}: report decision "
                                    f"{report['decision']}")
                checks.append((c.name, circuit,
                               report["transcript"]["gadget_outcomes"],
                               report["p_classical"]))
        else:
            checks = [(self.prepared[i][0].name, self.prepared[i][1],
                       r.transcript.gadget_outcomes, r.p_classical)
                      for i, r in self.reports.items()]
        if not checks:
            problems.append("no campaign to cross-check")
        for name, circuit, outcomes, p_classical in checks:
            dense = oracle.output_zero_probability(circuit, outcomes)
            if abs(dense - p_classical) > CROSS_CHECK_TOL:
                problems.append(f"{name}: p_classical {p_classical!r}, "
                                f"dense statevector {dense!r}")
        return problems


def closed_loop(runner: Runner, seconds: float):
    """Run campaigns back to back for `seconds`, and at least
    MIN_CAMPAIGNS, with a reference task before each and after the last.
    Returns (per-campaign seconds, reference seconds, wall seconds, failure
    reasons)."""
    times, failures = [], []
    refs = [timed_reference()]
    start = perf_counter()
    deadline = start + seconds
    while perf_counter() < deadline or len(times) < MIN_CAMPAIGNS:
        elapsed, reason = runner.run(len(times))
        times.append(elapsed)
        refs.append(timed_reference())
        if reason:
            failures.append(reason)
    return times, refs, perf_counter() - start, failures


def timed_reference() -> float:
    start = perf_counter()
    reference.reference()
    return perf_counter() - start


def in_ref_units(times, refs):
    """Each campaign's seconds over the mean of the reference timings just
    before and just after it."""
    return [t * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def tail(times):
    """(value, percentile, campaigns beyond it): the highest whole
    percentile with at least ten campaigns beyond it, nearest rank."""
    n = len(times)
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return sorted(times)[rank - 1], pct, n - rank


# -- the two kinds of run -------------------------------------------------

def end_to_end(runner: Runner, seconds: float, setup_s: float):
    reference.reference()  # warm-up
    times, refs, wall, failures = closed_loop(runner, seconds)
    ratios = in_ref_units(times, refs)
    value, pct, beyond = tail(ratios)
    metrics = {
        "setup_s": setup_s,
        "campaign_p50_ref": statistics.median(ratios),
        "campaign_tail_ref": value,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {"campaign_tail_percentile": pct, "campaigns": len(times),
             "campaigns_beyond_tail": beyond,
             "reference_s": statistics.median(refs),
             "campaign_p50_s": statistics.median(times),
             "campaign_tail_s": tail(times)[0],
             "campaigns_per_s": len(times) / (wall - sum(refs[1:]))}
    return metrics, notes, times, refs, failures


def per_layer(cc, runner: Runner, seconds: float, parse_s: float):
    """Each campaign runs untraced, then traced, so the tracing overhead
    compares the same campaigns at nearly the same moment.  Only whole
    passes over the list run, so the per-campaign counts repeat exactly;
    a pass starts only when it should end within `seconds`."""
    tracer = tracing.Tracer()
    plain, traced, failures = [], [], []
    start = perf_counter()
    passes = 0
    while passes == 0 or (perf_counter() - start) * (passes + 1) / passes \
            <= seconds:
        for _ in range(runner.size):
            index = len(traced)
            for times, active in ((plain, None), (traced, tracer)):
                with (tracer.installed(cc) if active
                      else contextlib.nullcontext()):
                    elapsed, reason = runner.run(index, active)
                times.append(elapsed)
                if reason:
                    failures.append(reason)
        passes += 1
    n = len(traced)
    calls, name_s, count = tracer.calls, tracer.name_s, tracer.count
    campaign_s = name_s["campaign"]
    batch_s = name_s["prover.run_fixed_batch"]
    stage_self = (tracer.self_s["protocol.run_gate_tests"]
                  + tracer.self_s["protocol.run_measurement_stage"])
    metrics = {
        "circuit.validate_calls": calls["circuit.validate"] / n,
        "circuit.validate_s": name_s["circuit.validate"] / n,
        "circuit.parse_s": parse_s,
        "pauli.joint_calls": calls["pauli.joint_output_probability"] / n,
        "pauli.joint_s": name_s["pauli.joint_output_probability"] / n,
        "pauli.backprop_calls": count["pauli.backprop_calls"] / n,
        "pauli.conjugations": count["pauli.conjugations"] / n,
        "pauli.backprop_useful_ratio": (
            count["pauli.backprop_distinct"]
            / max(1, count["pauli.backprop_calls"])),
        "statevector.amplitude_updates": count["statevector.amplitudes"] / n,
        "statevector.computed_bytes": 16 * count["statevector.amplitudes"]
        / n,
        "statevector.busy_s": tracer.layer_s["statevector"] / n,
        "prover.batch_s": batch_s / n,
        "prover.adaptive_s": name_s["prover.run_adaptive"] / n,
        "prover.device_runs": count["prover.device_runs"] / n,
        "prover.record_slots": (count["prover.record_slots"]
                                / max(1, count["prover.batches"])),
        "prover.distinct_records": count["prover.distinct_records"] / n,
        "prover.runs_per_busy_s": (count["prover.device_runs"] / batch_s
                                   if batch_s else 0.0),
        "protocol.gate_test_s": name_s["protocol.run_gate_tests"] / n,
        "protocol.measurement_tests_s":
            name_s["protocol.run_measurement_tests"] / n,
        "protocol.stage_self_s": stage_self / n,
        "protocol.r_gate": count["protocol.r_gate"] / n,
        "protocol.r_meas_total": count["protocol.r_meas_total"] / n,
        "cli.parse_config_s": name_s["cli.parse_config"] / n,
        "cli.report_write_s": name_s["cli.report_write"] / n,
        "cli.report_bytes": count["cli.report_bytes"] / n,
        "trace.overhead_ratio": sum(traced) / sum(plain),
    }
    for layer in ("circuit", "pauli", "statevector", "prover", "protocol",
                  "cli"):
        metrics[f"{layer}.share"] = tracer.layer_s[layer] / campaign_s
    notes = {"traced_campaigns": n, "untraced_campaigns": len(plain),
             "spans": sum(1 for s in tracer.spans if s is not None)}
    return metrics, notes, plain + traced, failures, tracer


def run(args, smoke: bool = False) -> dict:
    """One benchmark run; returns the result object printed last."""
    cc = load_program()
    wl = workloads.build(args.workload, args.seed, ROOT, smoke=smoke)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    work = OUT / tag
    write_inputs(wl, work)
    setup_s = measure_setup(work, 2 if smoke else SETUP_LAUNCHES)

    prepared, parse_s = prepare(cc, wl)
    runner = Runner(cc, wl, prepared, work)
    tracer = refs = None

    cwd = os.getcwd()
    os.chdir(work)  # the cli writes its reports under out/ here
    try:
        with open(os.devnull, "w") as sink, \
                contextlib.redirect_stdout(sink):
            _, reason = runner.run(0)  # warm-up
            warmup_failures = [reason] if reason else []
            gc.collect()
            if args.trace:
                metrics, notes, times, failures, tracer = per_layer(
                    cc, runner, args.seconds, parse_s)
            else:
                metrics, notes, times, refs, failures = end_to_end(
                    runner, args.seconds, setup_s)
    finally:
        os.chdir(cwd)
    problems = warmup_failures + runner.cross_check()

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures and not problems,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"environment": environment(cc, args), "notes": notes,
              "failures": failures, "problems": problems, "result": result,
              "campaign_s": times, "reference_s": refs}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2),
                                            encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans-{tag}.jsonl")
    for line in failures[:10] + problems:
        print(f"# FAILED {line}")
    print(f"# env {json.dumps(record['environment'])}")
    print(f"# notes {json.dumps(notes)}")
    print(f"# failed_share {len(failures) / len(times)}")
    return result


# -- smoke mode -----------------------------------------------------------

def smoke() -> int:
    """Tiny sizes, one second per run, both trace modes: every metric of
    BENCHMARK.json must print with its unit and no campaign may fail."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    bad = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=1, seconds=1.0,
                                      trace=trace)
            result = run(args, smoke=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                bad.append(f"{name} trace {trace}: metrics {units}")
            if result["failed"] or not result["correct"]:
                bad.append(f"{name} trace {trace}: {result['failed']} of "
                           f"{result['attempted']} campaigns failed")
            print(f"# smoke {name} trace {trace}: "
                  f"{result['attempted']} campaigns, "
                  f"failed_share {result['failed'] / result['attempted']}")
    for line in bad:
        print(f"# SMOKE FAILED {line}")
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="quick self-check of every workload and metric")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
