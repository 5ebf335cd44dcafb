"""Classical verification of adaptive Clifford computations.

A quantum device (simulated in-process) runs adaptive Clifford circuits with
magic-state gadgets; a purely classical verifier certifies its output by
re-running the recorded gate sequence non-adaptively, comparing observed
frequencies against probabilities it computes itself in polynomial time via
Pauli back-propagation, and checking every gadget measurement against the
ideal fair coin.
"""

from .circuit import (AdaptiveCircuit, CircuitParseError, FixedSequence,
                      InputState, Instruction, InvalidCircuitError, Violation,
                      gadgetize, parse_circuit, resolve, serialize, validate)
from .pauli import (backpropagate, joint_output_probability,
                    single_output_probability)
from .prover import (Depolarizing, FaultModel, GadgetCoinBias, IDEAL, Ideal,
                     Liar, MagicMiscalibration, SimulatedDevice, parse_fault)
from .protocol import (TestPlan, Transcript, VerdictReport, compose_error,
                       plan, report_summary, report_to_json_dict,
                       run_computational, run_gate_tests,
                       run_measurement_tests, verdict, verify_campaign)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveCircuit", "CircuitParseError", "FixedSequence", "InputState",
    "Instruction", "InvalidCircuitError", "Violation", "gadgetize",
    "parse_circuit", "resolve", "serialize", "validate",
    "backpropagate", "joint_output_probability", "single_output_probability",
    "Depolarizing", "FaultModel", "GadgetCoinBias",
    "IDEAL", "Ideal", "Liar", "MagicMiscalibration", "SimulatedDevice",
    "Transcript", "parse_fault",
    "TestPlan", "VerdictReport", "compose_error", "plan", "report_summary",
    "report_to_json_dict", "run_computational", "run_gate_tests",
    "run_measurement_tests", "verdict", "verify_campaign",
    "__version__",
]
