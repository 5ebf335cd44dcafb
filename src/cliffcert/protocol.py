"""The classical verifier: test planning, test batches, and the verdict.

One verification campaign runs, in order:

1. the computational run (one adaptive execution, fully recorded),
2. gate test runs: the recorded sequence re-run non-adaptively, its output-0
   frequency compared against the classically computed probability,
3. measurement test runs: for each gadget stage, the circuit prefix up to
   that gadget's ancilla measurement (earlier gadgets frozen to the recorded
   outcomes) re-run to check the ancilla outcome frequency against 1/2 and
   the joint distribution of a few extra probe lines against classically
   computed values,
4. error composition and an accept/reject verdict.

Repetition counts come from the Hoeffding bound; gadget-frequency batches
target half the decision tolerance so statistical noise and systematic
deviation keep separate budgets.  The verifier consumes only classical data:
bits, counts, and probabilities it computed itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .circuit import AdaptiveCircuit, FixedSequence, Instruction, expand_gadget
from .pauli import joint_output_probability, single_output_probability
from .prover import PROB_TOL, Transcript, derive_seed

OUTPUT_DEVIATION = "OUTPUT_DEVIATION"
GADGET_BIAS = "GADGET_BIAS"
EXTRA_LINE_DEVIATION = "EXTRA_LINE_DEVIATION"
IMPOSSIBLE_OUTCOME = "IMPOSSIBLE_OUTCOME"
INCOMPLETE = "INCOMPLETE"

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass(frozen=True)
class TestPlan:
    """Tolerances and repetition counts for one campaign.

    d_gadget solves (1/2 + d)^t * 2^t = 1 + epsilon exactly, so passing all
    t gadget checks certifies the resolved sequence's selection probability
    to within epsilon * 2^-t.  Gate-test repetitions estimate the output
    probability to eta; measurement-test repetitions estimate each gadget
    frequency to half of d_gadget, keeping statistical noise well inside the
    decision tolerance.  Both carry per-batch failure probability delta.
    """

    t: int
    eta: float
    epsilon: float
    delta: float
    d_gadget: float
    r_gate: int
    r_meas: int
    extra_check_lines: int


def hoeffding_repetitions(tolerance: float, delta: float) -> int:
    """Smallest R with 2*exp(-2*R*tolerance^2) <= delta."""
    return math.ceil(math.log(2.0 / delta) / (2.0 * tolerance ** 2))


def hoeffding_halfwidth(repetitions: int, delta: float) -> float:
    """Two-sided confidence-interval half width at failure probability
    delta for R repetitions."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * repetitions))


def plan(t: int, epsilon: float, eta: float, delta: float,
         extra_check_lines: int = 2) -> TestPlan:
    """Build the test plan for a circuit with t gadgets."""
    if t < 0:
        raise ValueError("t must be non-negative")
    for name, value in (("epsilon", epsilon), ("eta", eta), ("delta", delta)):
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    if extra_check_lines < 0:
        raise ValueError("extra_check_lines must be non-negative")
    if t == 0:
        d_gadget = 0.0
        r_meas = 0
    else:
        d_gadget = ((1.0 + epsilon) ** (1.0 / t) - 1.0) / 2.0
        r_meas = hoeffding_repetitions(d_gadget / 2.0, delta)
    return TestPlan(
        t=t, eta=eta, epsilon=epsilon, delta=delta, d_gadget=d_gadget,
        r_gate=hoeffding_repetitions(eta, delta),
        r_meas=r_meas, extra_check_lines=extra_check_lines,
    )


@dataclass(frozen=True)
class GateTestResult:
    repetitions: int
    p_hat: float
    p_classical: float
    eta: float
    ci_halfwidth: float
    impossible_observed: bool

    @property
    def passed(self) -> bool:
        return (not self.impossible_observed
                and abs(self.p_hat - self.p_classical) <= self.eta)


@dataclass(frozen=True)
class MeasurementStageResult:
    stage: int  # 1-based gadget index
    ancilla_line: int
    repetitions: int
    p_hat: float
    d_gadget: float
    ci_halfwidth: float
    extra_lines: tuple[int, ...]
    tv_distance: Optional[float]
    eta: float
    impossible_observed: bool

    @property
    def gadget_passed(self) -> bool:
        return abs(self.p_hat - 0.5) <= self.d_gadget

    @property
    def extras_passed(self) -> bool:
        return self.tv_distance is None or self.tv_distance <= self.eta

    @property
    def passed(self) -> bool:
        return (not self.impossible_observed and self.gadget_passed
                and self.extras_passed)


@dataclass(frozen=True)
class FailedCheck:
    kind: str
    stage: Optional[int]
    observed: Optional[float]
    expected: Optional[float]
    tolerance: Optional[float]
    message: str


@dataclass(frozen=True)
class VerdictReport:
    transcript: Transcript
    plan: TestPlan
    p_classical: float
    gate: Optional[GateTestResult]
    stages: tuple[MeasurementStageResult, ...]
    failures: tuple[FailedCheck, ...]
    decision: str
    pi_bound: Optional[tuple[float, float]]
    epsilon_prime: Optional[float]
    confidence_lower_bound: Optional[float]

    @property
    def accepted(self) -> bool:
        return self.decision == ACCEPT


def run_computational(device, circuit: AdaptiveCircuit,
                      seed: int) -> Transcript:
    """The single adaptive run whose output is to be certified."""
    if circuit.t_count:
        raise ValueError("circuit contains raw T gates; gadgetize it first")
    return device.run_adaptive(circuit, seed)


def run_gate_tests(device, transcript: Transcript, test_plan: TestPlan,
                   seed: int) -> GateTestResult:
    """Re-run the recorded sequence non-adaptively and compare the output-0
    frequency with the classically computed value."""
    resolved = transcript.resolved
    p_classical = single_output_probability(resolved, 0)
    batch = device.run_fixed_batch(resolved, test_plan.r_gate, seed)
    final_index = len(batch.events) - 1
    zeros = sum(c for rec, c in batch.counts.items()
                if rec[final_index] == 0)
    p_hat = zeros / batch.repetitions
    impossible = ((p_classical < PROB_TOL and zeros > 0)
                  or (p_classical > 1.0 - PROB_TOL
                      and zeros < batch.repetitions))
    return GateTestResult(
        repetitions=batch.repetitions,
        p_hat=p_hat,
        p_classical=p_classical,
        eta=test_plan.eta,
        ci_halfwidth=hoeffding_halfwidth(batch.repetitions, test_plan.delta),
        impossible_observed=impossible,
    )


def build_stage_prefix(circuit: AdaptiveCircuit, outcomes, stage: int,
                       extra_check_lines: int
                       ) -> tuple[FixedSequence, int, tuple[int, ...]]:
    """Prefix sequence for measurement-test stage `stage` (1-based).

    Gadgets before the stage are frozen to the recorded outcomes; the stage
    gadget ends with its ancilla measurement, followed by terminal probe
    measurements on the lowest-index still-unmeasured lines.  Every
    gadget's ancilla MEASURE is a gadget slot of the prefix, the stage's
    last.
    """
    if not (1 <= stage <= circuit.gadget_count):
        raise ValueError(f"stage {stage} outside 1..{circuit.gadget_count}")
    instructions: list[Instruction] = []
    slots: list[int] = []
    measured: set[int] = set()
    ancilla = -1
    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            slots.append(len(instructions) + 1)
            g = len(slots)
            measured.add(ins.ancilla)
            if g < stage:
                instructions.extend(expand_gadget(ins, g, outcomes[g - 1]))
            else:
                instructions.extend(expand_gadget(ins, g, None))
                ancilla = ins.ancilla
                break
        else:
            if ins.op == "MEASURE":
                measured.add(ins.targets[0])
            instructions.append(ins)
    extras = tuple(line for line in range(circuit.n_lines)
                   if line not in measured)[:extra_check_lines]
    for j, line in enumerate(extras):
        instructions.append(Instruction("MEASURE", (line,), label=f"chk{j}"))
    prefix = FixedSequence(
        n_lines=circuit.n_lines,
        inputs=circuit.inputs,
        instructions=tuple(instructions),
        frozen_outcomes=tuple(outcomes[:stage - 1]),
        gadget_slots=tuple(slots),
    )
    return prefix, ancilla, extras


def run_measurement_stage(device, circuit: AdaptiveCircuit,
                          transcript: Transcript, test_plan: TestPlan,
                          stage: int, seed: int) -> MeasurementStageResult:
    """One gadget stage: ancilla frequency versus 1/2 plus the joint
    distribution of the probe lines versus classical values."""
    prefix, ancilla, extras = build_stage_prefix(
        circuit, transcript.gadget_outcomes, stage,
        test_plan.extra_check_lines)
    batch = device.run_fixed_batch(prefix, test_plan.r_meas, seed)
    # the prefix ends with the stage's ancilla readout, then the probes
    joint_lines = (ancilla,) + extras
    indices = tuple(range(len(batch.events) - len(joint_lines),
                          len(batch.events)))

    table = joint_output_probability(prefix, joint_lines)
    theory = dict(zip(itertools.product((0, 1), repeat=len(joint_lines)),
                      table.tolist()))
    empirical = batch.marginal(indices)

    impossible = any(theory[bits] < PROB_TOL
                     for bits, count in empirical.items() if count > 0)
    p_hat = sum(count for bits, count in empirical.items()
                if bits[0] == 1) / batch.repetitions
    tv_distance = None
    if extras:
        tv_distance = 0.5 * sum(
            abs(empirical.get(bits, 0) / batch.repetitions - prob)
            for bits, prob in theory.items())
    return MeasurementStageResult(
        stage=stage,
        ancilla_line=ancilla,
        repetitions=batch.repetitions,
        p_hat=p_hat,
        d_gadget=test_plan.d_gadget,
        ci_halfwidth=hoeffding_halfwidth(batch.repetitions, test_plan.delta),
        extra_lines=extras,
        tv_distance=tv_distance,
        eta=test_plan.eta,
        impossible_observed=impossible,
    )


def run_measurement_tests(device, circuit: AdaptiveCircuit,
                          transcript: Transcript, test_plan: TestPlan,
                          seed: int) -> list[MeasurementStageResult]:
    """All gadget stages in order, stopping early only on an outcome the
    classical computation assigns probability zero."""
    results: list[MeasurementStageResult] = []
    for stage in range(1, test_plan.t + 1):
        result = run_measurement_stage(device, circuit, transcript, test_plan,
                                       stage, derive_seed(seed, 1 + stage))
        results.append(result)
        if result.impossible_observed:
            break
    return results


def compose_error(test_plan: TestPlan, gate: GateTestResult,
                  stages) -> tuple[tuple[float, float], float]:
    """Certified sequence-probability interval and composed output error.

    Only meaningful when every check passed.  The composed error adds the
    gate-test tolerance to the sequence-selection tolerance, using the fact
    that all resolved branches implement the same overall map.
    """
    if not gate.passed or any(not s.passed for s in stages):
        raise ValueError("compose_error requires all checks to have passed")
    if len(stages) != test_plan.t:
        raise ValueError("compose_error requires results for every stage")
    d = test_plan.d_gadget
    pi_bound = ((0.5 - d) ** test_plan.t, (0.5 + d) ** test_plan.t)
    epsilon_prime = test_plan.eta if test_plan.t == 0 \
        else test_plan.eta + test_plan.epsilon
    return pi_bound, epsilon_prime


def _collect_failures(test_plan: TestPlan, gate: Optional[GateTestResult],
                      stages) -> list[FailedCheck]:
    failures: list[FailedCheck] = []
    if gate is not None:
        if gate.impossible_observed:
            failures.append(FailedCheck(
                IMPOSSIBLE_OUTCOME, None, gate.p_hat, gate.p_classical, 0.0,
                f"observed output frequency {gate.p_hat:.6f} for an outcome "
                f"of classical probability {gate.p_classical:.12f}"))
        elif abs(gate.p_hat - gate.p_classical) > gate.eta:
            failures.append(FailedCheck(
                OUTPUT_DEVIATION, None, gate.p_hat, gate.p_classical,
                gate.eta,
                f"output-0 frequency {gate.p_hat:.6f} deviates from the "
                f"classical value {gate.p_classical:.6f} by "
                f"{abs(gate.p_hat - gate.p_classical):.6f} > {gate.eta}"))
    for s in stages:
        if s.impossible_observed:
            failures.append(FailedCheck(
                IMPOSSIBLE_OUTCOME, s.stage, None, None, 0.0,
                f"stage {s.stage} observed a joint outcome of classical "
                "probability zero"))
            continue
        if not s.gadget_passed:
            failures.append(FailedCheck(
                GADGET_BIAS, s.stage, s.p_hat, 0.5, s.d_gadget,
                f"gadget {s.stage} outcome frequency {s.p_hat:.6f} deviates "
                f"from 1/2 by {abs(s.p_hat - 0.5):.6f} > {s.d_gadget:.6f}"))
        if not s.extras_passed:
            failures.append(FailedCheck(
                EXTRA_LINE_DEVIATION, s.stage, s.tv_distance, 0.0, s.eta,
                f"stage {s.stage} probe-line distribution is "
                f"{s.tv_distance:.6f} from the classical one in total "
                f"variation > {s.eta}"))
    return failures


def verdict(transcript: Transcript, test_plan: TestPlan, p_classical: float,
            gate: Optional[GateTestResult], stages) -> VerdictReport:
    """Combine all test results into the final report."""
    failures = _collect_failures(test_plan, gate, stages)
    complete = gate is not None and len(stages) == test_plan.t
    if not failures and not complete:
        failures.append(FailedCheck(
            INCOMPLETE, None, None, None, None,
            "not every test batch was executed"))
    stages = tuple(stages)
    if failures:
        return VerdictReport(
            transcript=transcript, plan=test_plan, p_classical=p_classical,
            gate=gate, stages=stages, failures=tuple(failures),
            decision=REJECT, pi_bound=None, epsilon_prime=None,
            confidence_lower_bound=None)
    pi_bound, epsilon_prime = compose_error(test_plan, gate, stages)
    margin = abs(p_classical - 0.5)
    confidence = max(0.0, min(1.0, 0.5 + margin - epsilon_prime))
    return VerdictReport(
        transcript=transcript, plan=test_plan, p_classical=p_classical,
        gate=gate, stages=stages, failures=(), decision=ACCEPT,
        pi_bound=pi_bound, epsilon_prime=epsilon_prime,
        confidence_lower_bound=confidence)


def report_to_json_dict(report: VerdictReport) -> dict:
    """Report as a JSON-ready dict with deterministic field ordering."""
    p = report.plan
    out = {
        "decision": report.decision,
        "confidence_lower_bound": report.confidence_lower_bound,
        "epsilon_prime": report.epsilon_prime,
        "pi_bound": list(report.pi_bound) if report.pi_bound else None,
        "p_classical": report.p_classical,
        "plan": {
            "t": p.t, "eta": p.eta, "epsilon": p.epsilon, "delta": p.delta,
            "d_gadget": p.d_gadget, "r_gate": p.r_gate, "r_meas": p.r_meas,
            "extra_check_lines": p.extra_check_lines,
        },
        "transcript": report.transcript.to_json_dict(),
        "gate_test": None,
        "measurement_tests": [],
        "failures": [],
    }
    if report.gate is not None:
        g = report.gate
        out["gate_test"] = {
            "repetitions": g.repetitions, "p_hat": g.p_hat,
            "p_classical": g.p_classical, "eta": g.eta,
            "ci_halfwidth": g.ci_halfwidth,
            "impossible_observed": g.impossible_observed,
            "passed": g.passed,
        }
    for s in report.stages:
        out["measurement_tests"].append({
            "stage": s.stage, "ancilla_line": s.ancilla_line,
            "repetitions": s.repetitions, "p_hat": s.p_hat,
            "d_gadget": s.d_gadget, "ci_halfwidth": s.ci_halfwidth,
            "extra_lines": list(s.extra_lines),
            "tv_distance": s.tv_distance, "eta": s.eta,
            "impossible_observed": s.impossible_observed,
            "passed": s.passed,
        })
    for f in report.failures:
        out["failures"].append({
            "kind": f.kind, "stage": f.stage, "observed": f.observed,
            "expected": f.expected, "tolerance": f.tolerance,
            "message": f.message,
        })
    return out


def report_summary(report: VerdictReport) -> str:
    """Human-readable campaign summary."""
    lines = [
        f"decision: {report.decision}",
        f"circuit:  {report.transcript.circuit_id}",
        f"seed:     {report.transcript.seed}",
        f"recorded gadget outcomes: "
        f"{''.join(str(b) for b in report.transcript.gadget_outcomes) or '-'}"
        f", final output: {report.transcript.final_output}",
        f"classical output-0 probability: {report.p_classical:.12f}",
    ]
    if report.gate is not None:
        g = report.gate
        lines.append(
            f"gate test: p_hat={g.p_hat:.6f} vs {g.p_classical:.6f} "
            f"(eta={g.eta}, R={g.repetitions}) -> "
            f"{'pass' if g.passed else 'FAIL'}")
    for s in report.stages:
        probe = f", probe TV={s.tv_distance:.6f}" if s.tv_distance is not None \
            else ""
        lines.append(
            f"gadget {s.stage}: p_hat={s.p_hat:.6f} "
            f"(d={s.d_gadget:.6f}, R={s.repetitions}){probe} -> "
            f"{'pass' if s.passed else 'FAIL'}")
    if report.accepted:
        lo, hi = report.pi_bound
        lines.append(f"sequence probability certified in "
                     f"[{lo:.3e}, {hi:.3e}]")
        lines.append(f"output distribution within epsilon' = "
                     f"{report.epsilon_prime} of the ideal one")
        lines.append(f"confidence the reported output answers the decision "
                     f"problem: >= {report.confidence_lower_bound:.4f}")
    else:
        for f in report.failures:
            lines.append(f"failure: {f.kind}" +
                         (f" (stage {f.stage})" if f.stage else "") +
                         f": {f.message}")
    return "\n".join(lines) + "\n"


def verify_campaign(device, circuit: AdaptiveCircuit, epsilon: float,
                    eta: float, delta: float, seed: int,
                    extra_check_lines: int = 2) -> VerdictReport:
    """Run one full verification campaign against `device`.

    All randomness derives from `seed`; identical inputs give an identical
    report.
    """
    test_plan = plan(circuit.gadget_count, epsilon, eta, delta,
                     extra_check_lines)
    transcript = run_computational(device, circuit, derive_seed(seed, 0))
    p_classical = single_output_probability(transcript.resolved, 0)

    gate = run_gate_tests(device, transcript, test_plan, derive_seed(seed, 1))
    stages: list[MeasurementStageResult] = []
    if not gate.impossible_observed:
        stages = run_measurement_tests(device, circuit, transcript, test_plan,
                                       seed)
    return verdict(transcript, test_plan, p_classical, gate, stages)
