"""The program surface the benchmark's traced run patches.

`perfbench/tracing.py` wraps module attributes of the program (for example
`circuit.validate`, `cli.validate`, `protocol.joint_output_probability`)
and proxies the device.  A rename or a dropped import breaks
`perfbench/run.py --trace 1` and `--smoke`; this test breaks first.
"""

import cliffcert
from cliffcert import circuit
from cliffcert.circuit import gadgetize, parse_circuit
from cliffcert.prover import IDEAL, SimulatedDevice

from helpers import CIRCUITS, REPO_ROOT

PROBE = gadgetize(parse_circuit((CIRCUITS / "phase_probe.circ").read_text()))


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
    # one walk per circuit built: the resolved sequence and one stage prefix
    assert tracer.calls["circuit.validate"] == 2
    assert tracer.calls["prover.run_adaptive"] == 1
    assert tracer.calls["prover.run_fixed_batch"] == 2
