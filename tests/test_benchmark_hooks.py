"""The program surface the benchmark's traced run patches.

`perfbench/tracing.py` wraps module attributes of the program (for example
`circuit.validate`, `cli.validate`, `protocol.joint_output_probability`)
and proxies the device.  A rename or a dropped import breaks
`perfbench/run.py --trace 1` and `--smoke`; this test breaks first, and
the smoke run itself is one of its tests.
"""

import subprocess
import sys

import pytest

import cliffcert
from cliffcert import circuit, statevector
from cliffcert.circuit import gadgetize, parse_circuit
from cliffcert.prover import (IDEAL, Depolarizing, GadgetCoinBias, Liar,
                              MagicMiscalibration, SimulatedDevice)

from helpers import CIRCUITS, REPO_ROOT, stage_prefixes

PROBE = gadgetize(parse_circuit((CIRCUITS / "phase_probe.circ").read_text()))
DET3 = gadgetize(parse_circuit(
    (CIRCUITS / "deterministic_t3.circ").read_text()))


def test_tracer_installs_and_counts_one_validate_per_circuit(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import tracing

    original = circuit.validate
    tracer = tracing.Tracer()
    with tracer.installed(cliffcert):
        frame = tracer.begin_campaign(0)
        report = cliffcert.protocol.verify_campaign(
            tracing.TimedDevice(SimulatedDevice(IDEAL), tracer), PROBE,
            0.05, 0.05, 0.01, 3)
        tracer.end_campaign(frame)
    assert circuit.validate is original
    assert report.accepted
    assert PROBE.gadget_count == 1
    # one walk per circuit built: the device's resolved sequence and the
    # verifier's own; a stage is sent as the verifier's with its cut and
    # probes, no prefix built
    assert tracer.calls["circuit.validate"] == 2
    assert tracer.calls["prover.run_adaptive"] == 1
    assert tracer.calls["prover.run_fixed_batch"] == 2
    # the traced r_meas_total counter sums these stages' repetitions
    assert tracer.calls["protocol.run_measurement_stage"] == \
        PROBE.gadget_count
    assert tracer.count["protocol.r_meas_total"] == \
        report.plan.r_meas * PROBE.gadget_count
    # the gate test's classical probability serves the report as well
    assert tracer.calls["pauli.single_output_probability"] == 1
    # the device runs on the Pauli engine, not the statevector
    assert tracer.count["statevector.calls"] == 0


def test_traced_stages_share_one_joint_table_call(monkeypatch):
    # the traced pauli.joint_* spans see the one call that builds every
    # stage's theory table, and each stage is still its own span
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed(cliffcert):
        frame = tracer.begin_campaign(0)
        report = cliffcert.protocol.verify_campaign(
            tracing.TimedDevice(SimulatedDevice(IDEAL), tracer), DET3,
            0.05, 0.05, 0.01, 3)
        tracer.end_campaign(frame)
    assert report.accepted
    assert DET3.gadget_count == 3
    assert tracer.calls["pauli.joint_output_probability"] == 1
    assert tracer.calls["protocol.run_measurement_stage"] == 3
    assert tracer.count["protocol.r_meas_total"] == 3 * report.plan.r_meas
    # the device still takes one batch per stage, each its own span, and a
    # stage batch's events stay its record layout: the stage's slots and
    # its probes
    assert tracer.calls["prover.run_fixed_batch"] == 1 + DET3.gadget_count
    resolved = report.transcript.resolved
    prefixes = stage_prefixes(resolved, report.plan.extra_check_lines)
    assert [len(extras) for _, _, extras in prefixes] == [2, 2, 2]
    assert tracer.count["prover.record_slots"] == len(resolved.events) + sum(
        len(prefix.events) for prefix, _, _ in prefixes)


@pytest.mark.parametrize("fault", [
    IDEAL, MagicMiscalibration(0.3), GadgetCoinBias(0.1), Depolarizing(0.05),
    Liar(0.3)], ids=lambda fault: type(fault).__name__)
def test_campaign_never_touches_the_statevector(monkeypatch, fault):
    def refuse(*args, **kwargs):
        raise AssertionError("statevector called during a campaign")
    for attr in ("apply_gate", "apply_pauli", "collapse",
                 "probability_of_one"):
        monkeypatch.setattr(statevector, attr, refuse)
    report = cliffcert.protocol.verify_campaign(
        SimulatedDevice(fault), PROBE, 0.05, 0.05, 0.01, 3)
    assert report.gate is not None


def test_smoke_run_prints_smoke_ok():
    # every workload in both trace modes at tiny sizes, run from the repo
    # root as `python3 perfbench/run.py --smoke`; it writes only the
    # git-ignored .perfbench_out/
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                          cwd=REPO_ROOT, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke ok"
