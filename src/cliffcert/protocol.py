"""The classical verifier: test planning, test batches, and the verdict.

One verification campaign runs, in order:

1. the computational run: one record cell, its bits read and resolved here,
2. gate test runs: the recorded sequence re-run non-adaptively, its output-0
   frequency compared against the classically computed probability,
3. measurement test runs: for each gadget stage, the recorded sequence cut
   after that gadget's ancilla measurement (earlier gadgets frozen to the
   recorded outcomes) re-run to check the ancilla outcome frequency against
   1/2 and the joint distribution of a few extra probe lines against
   classically computed values; a stage is sent as the recorded sequence
   with the campaign's (slots, probes) cuts (`circuit.Stage`), from which
   one sweep and table pass compute every stage's table up front,
4. error composition and an accept/reject verdict.

Repetition counts come from the Hoeffding bound at failure probability
delta per batch: the gate batch for half-width eta, each gadget batch for
half-width d/2.  Every check fails unless |observed - expected| <= its
tolerance: eta for the output frequency and the probe-line total variation,
d for a gadget frequency against 1/2.  One reader takes every batch: its
R is the counts' total, one off the plan fails BATCH_SIZE, a record past
its table or a malformed entry RECORD_OUT_OF_RANGE, and an empty batch's
frequencies are NaN.  The per-batch failure budgets are not yet composed
into one campaign bound (ROADMAP item 1).  The verifier consumes only
classical data: bits, counts, and probabilities it computed itself.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .circuit import (AdaptiveCircuit, Circuit, FixedSequence, Stage,
                      resolve, serialize)
from .pauli import joint_output_probability, single_output_probability
from .prover import PROB_TOL, derive_seed

OUTPUT_DEVIATION = "OUTPUT_DEVIATION"
GADGET_BIAS = "GADGET_BIAS"
EXTRA_LINE_DEVIATION = "EXTRA_LINE_DEVIATION"
IMPOSSIBLE_OUTCOME = "IMPOSSIBLE_OUTCOME"
BATCH_SIZE = "BATCH_SIZE"
RECORD_OUT_OF_RANGE = "RECORD_OUT_OF_RANGE"
INCOMPLETE = "INCOMPLETE"

# numpy's multinomial draws at most 2^63 - 1 runs in one batch
MAX_REPETITIONS = (1 << 63) - 1

INTEGER = (int, np.integer)  # a record cell's types, as `_read` reads them

# probe lines per measurement-test stage when a campaign names no number
EXTRA_CHECK_LINES = 2

ACCEPT = "ACCEPT"
REJECT = "REJECT"


@dataclass(frozen=True)
class TestPlan:
    """Tolerances and repetition counts for one campaign.

    d_gadget solves (1/2 + d)^t * 2^t = 1 + epsilon exactly: a sequence
    whose t gadget coins each lie within d of 1/2 has selection probability
    within a factor 1 + epsilon of 2^-t.  r_gate is the Hoeffding R for
    half-width eta and r_meas the one for half-width d/2, each at failure
    probability delta per batch; a stage accepts when |p_hat - 1/2| <= d.
    These per-batch budgets are not yet composed, and a coin biased beyond
    d still passes with non-negligible probability (ROADMAP item 1).
    """

    t: int
    eta: float
    epsilon: float
    delta: float
    d_gadget: float
    r_gate: int
    r_meas: int
    extra_check_lines: int


def hoeffding_repetitions(tolerance: float, delta: float, key: str) -> int:
    """Smallest R with 2*exp(-2*R*tolerance^2) <= delta; a ValueError
    naming `key`, the setting behind the tolerance, when no batch can draw
    that many runs."""
    square = tolerance ** 2
    runs = math.log(2.0 / delta) / (2.0 * square) if square else math.inf
    if runs > MAX_REPETITIONS:
        raise ValueError(f"{key} asks for {runs:.3g} repetitions in one "
                         f"batch; a batch draws at most {MAX_REPETITIONS}")
    return math.ceil(runs)


def hoeffding_halfwidth(repetitions: int, delta: float) -> float:
    """Two-sided confidence-interval half width at failure probability
    delta for R repetitions; no runs bound nothing."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * repetitions)) \
        if repetitions else math.inf


def plan(t: int, epsilon: float, eta: float, delta: float,
         extra_check_lines: int = EXTRA_CHECK_LINES) -> TestPlan:
    """Build the test plan for a circuit with t gadgets."""
    if t < 0:
        raise ValueError("t must be non-negative")
    for name, value in (("epsilon", epsilon), ("eta", eta), ("delta", delta)):
        if not (0.0 < value < 1.0):
            raise ValueError(f"{name} must lie strictly between 0 and 1")
    if extra_check_lines < 0:
        raise ValueError("extra_check_lines must be non-negative")
    r_gate = hoeffding_repetitions(eta, delta, f"eta = {eta!r}")
    if t == 0:
        d_gadget = 0.0
        r_meas = 0
    else:
        d_gadget = ((1.0 + epsilon) ** (1.0 / t) - 1.0) / 2.0
        r_meas = hoeffding_repetitions(d_gadget / 2.0, delta,
                                       f"epsilon = {epsilon!r}")
    return TestPlan(
        t=t, eta=eta, epsilon=epsilon, delta=delta, d_gadget=d_gadget,
        r_gate=r_gate, r_meas=r_meas, extra_check_lines=extra_check_lines,
    )


@dataclass(frozen=True)
class FailedCheck:
    kind: str
    stage: Optional[int]
    observed: Optional[float]
    expected: Optional[float]
    tolerance: Optional[float]
    message: str


def _check(kind: str, stage: Optional[int], observed: float,
           expected: float, tolerance: float,
           message: str) -> tuple[FailedCheck, ...]:
    """The one rule of every statistical check: it fails unless
    |observed - expected| <= tolerance."""
    if abs(observed - expected) <= tolerance:
        return ()
    return (FailedCheck(kind, stage, observed, expected, tolerance,
                        message),)


@dataclass(frozen=True)
class GateTestResult:
    repetitions: int
    p_hat: float
    p_classical: float
    eta: float
    ci_halfwidth: float
    impossible_observed: bool
    out_of_range_runs: int = 0  # its failure carries it; the report does not

    @property
    def failures(self) -> tuple[FailedCheck, ...]:
        """An impossible outcome alone, else the output-frequency check."""
        if self.impossible_observed:
            return (FailedCheck(
                IMPOSSIBLE_OUTCOME, None, self.p_hat, self.p_classical, 0.0,
                f"observed output frequency {self.p_hat:.6f} for an outcome "
                f"of classical probability {self.p_classical:.12f}"),)
        return _check(
            OUTPUT_DEVIATION, None, self.p_hat, self.p_classical, self.eta,
            f"output-0 frequency {self.p_hat:.6f} deviates from the "
            f"classical value {self.p_classical:.6f} by "
            f"{abs(self.p_hat - self.p_classical):.6f} > {self.eta}")

    @property
    def passed(self) -> bool:
        return not self.failures


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
    out_of_range_runs: int = 0  # its failure carries it; the report does not

    @property
    def failures(self) -> tuple[FailedCheck, ...]:
        """An impossible outcome alone, else the gadget-frequency check and,
        with probes, the probe-line total-variation check."""
        if self.impossible_observed:
            return (FailedCheck(
                IMPOSSIBLE_OUTCOME, self.stage, None, None, 0.0,
                f"stage {self.stage} observed a joint outcome of classical "
                "probability zero"),)
        failures = _check(
            GADGET_BIAS, self.stage, self.p_hat, 0.5, self.d_gadget,
            f"gadget {self.stage} outcome frequency {self.p_hat:.6f} "
            f"deviates from 1/2 by {abs(self.p_hat - 0.5):.6f} > "
            f"{self.d_gadget:.6f}")
        if self.tv_distance is not None:
            failures += _check(
                EXTRA_LINE_DEVIATION, self.stage, self.tv_distance, 0.0,
                self.eta,
                f"stage {self.stage} probe-line distribution is "
                f"{self.tv_distance:.6f} from the classical one in total "
                f"variation > {self.eta}")
        return failures

    @property
    def passed(self) -> bool:
        return not self.failures


def circuit_id(circuit: Circuit) -> str:
    """SHA-256 of the canonical circuit text."""
    return hashlib.sha256(serialize(circuit).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Transcript:
    """The computational run's bits and what the verifier derived from
    them; a record outside the table leaves no bits and no `resolved`."""

    circuit_id: str
    seed: int
    gadget_outcomes: tuple[int, ...]
    final_output: Optional[int]
    resolved: Optional[FixedSequence]  # the report does not carry it


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
    """The single adaptive run to be certified: a record cell (slot i is bit
    m-1-i) whose gadget bits resolve the circuit, and bit 0 the output."""
    if circuit.t_count:
        raise ValueError("circuit contains raw T gates; gadgetize it first")
    cell, m = device.run_adaptive(circuit, seed), len(circuit.events)
    if not (isinstance(cell, INTEGER) and 0 <= cell < 1 << m):
        return Transcript(circuit_id(circuit), seed, (), None, None)
    bits = tuple(int(cell) >> (m - 1 - slot) & 1 for slot, event
                 in enumerate(circuit.events) if event.is_gadget)
    return Transcript(circuit_id(circuit), seed, bits, int(cell) & 1,
                      resolve(circuit, bits))


def run_gate_tests(device, transcript: Transcript, test_plan: TestPlan,
                   seed: int) -> GateTestResult:
    """Re-run the recorded sequence non-adaptively and compare the output-0
    frequency with the classically computed value."""
    resolved = transcript.resolved
    p_classical = single_output_probability(resolved, 0)
    batch = device.run_fixed_batch(resolved, test_plan.r_gate, seed)
    theory = np.array([p_classical, 1.0 - p_classical])  # the last slot's
    runs, stray, tail, impossible = _read(batch, len(resolved.events), theory)
    return GateTestResult(
        repetitions=runs,
        p_hat=int(tail[0]) / (runs or math.nan),
        p_classical=p_classical,
        eta=test_plan.eta,
        ci_halfwidth=hoeffding_halfwidth(runs, test_plan.delta),
        impossible_observed=impossible,
        out_of_range_runs=stray,
    )


def _read(batch, slots: int, theory: np.ndarray) -> tuple:
    """(runs, runs outside the 2^slots cells of the sent table, the rest's
    counts by the value of their last log2(len(theory)) slots, whether a
    value drawn has classical probability in `theory` below PROB_TOL).  Any
    entry but an integer cell of the table below 2^63 with an integer count
    in [0, 2^64) is outside, as one run when its count is not such."""
    counts = batch.counts
    try:  # a float or numpy value turns a sum's type; fromiter would cast it
        cells = np.fromiter(counts, np.uint64, len(counts))
        tallies = np.fromiter(counts.values(), np.uint64, len(counts))
        runs = sum(counts.values())
        if type(runs) is not int or type(sum(counts)) is not int:
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        outside = 1 << 63
        cells, tallies = np.array([
            (c if isinstance(c, INTEGER) and 0 <= c < outside else outside, n)
            if isinstance(n, INTEGER) and 0 <= n < 1 << 64
            else (outside, 1) for c, n in counts.items()], np.uint64).T
        runs = sum(tallies.tolist())
    stray, bits = 0, min(slots, 63)
    if np.bitwise_or.reduce(cells) >> bits:
        inside = cells >> bits == 0
        stray = sum(tallies[~inside].tolist())
        cells, tallies = cells[inside], tallies[inside]
    tail = np.zeros(len(theory), np.uint64)
    np.add.at(tail, cells & (len(theory) - 1), tallies)
    return runs, stray, tail, bool(tail.dot(theory < PROB_TOL))


def _stage_layouts(circuit: Circuit, extra_check_lines: int
                   ) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(record slots up to its gadget, probe lines) of each stage, the
    probes being the lowest-index lines those slots leave unmeasured."""
    measured: set[int] = set()
    stages = []
    for slots, (line, is_gadget) in enumerate(circuit.events, 1):
        measured.add(line)
        if is_gadget:
            stages.append((slots, tuple(islice(
                (free for free in range(circuit.n_lines)
                 if free not in measured), extra_check_lines))))
    return tuple(stages)


def campaign_table_sizes(circuit: AdaptiveCircuit,
                         extra_check_lines: int) -> tuple[int, int]:
    """(slots of the largest record table, lines of the largest probe table)
    of a campaign: a stage of s slots has n_lines - s lines left to probe."""
    events = circuit.events
    probes = [(slots, min(extra_check_lines, circuit.n_lines - slots))
              for slots, (_, is_gadget) in enumerate(events, 1) if is_gadget]
    return (max([len(events)] + [s + p for s, p in probes]),
            max([0] + [1 + p for _, p in probes]))


def run_measurement_stage(device, stage: Stage, theory: np.ndarray,
                          test_plan: TestPlan,
                          seed: int) -> MeasurementStageResult:
    """One stage of a campaign: its ancilla frequency versus 1/2 plus the
    joint distribution of its probe lines versus `theory`, the classical
    table of the ancilla and the probes."""
    batch = device.run_fixed_batch(stage, test_plan.r_meas, seed)
    slots, extras = stage.cuts[stage.index]
    # the ancilla readout and the probes are a record's last slots
    runs, stray, empirical, impossible = _read(batch, slots + len(extras),
                                               theory)
    # the ancilla is the leading bit of both tables
    p_hat = int(empirical.reshape(2, -1)[1].sum()) / (runs or math.nan)
    tv_distance = None if not extras else 0.5 * sum(
        abs(count / (runs or math.nan) - prob)
        for count, prob in zip(empirical.tolist(), theory.tolist()))
    return MeasurementStageResult(
        stage=stage.index + 1,
        ancilla_line=stage.sequence.events[slots - 1].line,
        repetitions=runs,
        p_hat=p_hat,
        d_gadget=test_plan.d_gadget,
        ci_halfwidth=hoeffding_halfwidth(runs, test_plan.delta),
        extra_lines=extras,
        tv_distance=tv_distance,
        eta=test_plan.eta,
        impossible_observed=impossible,
        out_of_range_runs=stray,
    )


def run_measurement_tests(device, transcript: Transcript,
                          test_plan: TestPlan,
                          seed: int) -> list[MeasurementStageResult]:
    """All gadget stages in order, stopping early only on an outcome the
    classical computation assigns probability zero.  No prefix is built;
    one joint-table call computes every stage's theory table first."""
    resolved = transcript.resolved
    cuts = _stage_layouts(resolved, test_plan.extra_check_lines)
    results: list[MeasurementStageResult] = []
    for number, theory in enumerate(
            joint_output_probability(resolved, cuts), 1):
        result = run_measurement_stage(
            device, Stage(resolved, cuts, number - 1), theory, test_plan,
            derive_seed(seed, 1 + number))
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


def _batch_checks(stage: Optional[int], result,
                  planned: int) -> tuple[FailedCheck, ...]:
    """A batch's size, then that each record is a cell of its table."""
    name = "gate" if stage is None else f"stage {stage}"
    runs, stray = result.repetitions, result.out_of_range_runs
    return _check(BATCH_SIZE, stage, runs, planned, 0.0,
                  f"{name} batch counts {runs} runs where the plan asks "
                  f"for {planned}") + _check(
        RECORD_OUT_OF_RANGE, stage, stray, 0, 0.0,
        f"{name} batch records {stray} runs outside its record table")


def verdict(transcript: Transcript, test_plan: TestPlan, p_classical: float,
            gate: Optional[GateTestResult], stages) -> VerdictReport:
    """Combine all test results into the final report: each batch's checks
    of its counts, then its own checks, in batch order."""
    stages = tuple(stages)
    failures = () if gate is None else (
        _batch_checks(None, gate, test_plan.r_gate) + gate.failures)
    for s in stages:
        failures += _batch_checks(s.stage, s, test_plan.r_meas) + s.failures
    if gate is None and transcript.resolved is None:
        failures = _check(RECORD_OUT_OF_RANGE, None, 1, 0, 0.0, "computational"
                          " run records a cell outside its record table")
    elif not failures and (gate is None or len(stages) != test_plan.t):
        failures = (FailedCheck(INCOMPLETE, None, None, None, None,
                                "not every test batch was executed"),)
    pi_bound = epsilon_prime = confidence = None
    if not failures:
        pi_bound, epsilon_prime = compose_error(test_plan, gate, stages)
        margin = abs(p_classical - 0.5)
        confidence = max(0.0, min(1.0, 0.5 + margin - epsilon_prime))
    return VerdictReport(
        transcript=transcript, plan=test_plan, p_classical=p_classical,
        gate=gate, stages=stages, failures=failures,
        decision=REJECT if failures else ACCEPT, pi_bound=pi_bound,
        epsilon_prime=epsilon_prime, confidence_lower_bound=confidence)


def report_to_json_dict(report: VerdictReport) -> dict:
    """Report as a strict-JSON-ready dict with deterministic field ordering:
    each result section's fields in declaration order, gate and stage
    results followed by `passed`, and a non-finite float written as None."""
    def fields(result, **extra) -> dict:
        return {k: None if isinstance(v, float) and not math.isfinite(v)
                else v for k, v in dict(vars(result), **extra).items()
                if k not in ("out_of_range_runs", "resolved")}

    gate = report.gate
    return {
        "decision": report.decision,
        "confidence_lower_bound": report.confidence_lower_bound,
        "epsilon_prime": report.epsilon_prime,
        "pi_bound": list(report.pi_bound) if report.pi_bound else None,
        "p_classical": None if math.isnan(report.p_classical)
        else report.p_classical,
        "plan": fields(report.plan),
        "transcript": fields(report.transcript),
        "gate_test": None if gate is None
        else fields(gate, passed=gate.passed),
        "measurement_tests": [fields(s, passed=s.passed)
                              for s in report.stages],
        "failures": [fields(f) for f in report.failures],
    }


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
                    extra_check_lines: int = EXTRA_CHECK_LINES
                    ) -> VerdictReport:
    """Run one full verification campaign against `device`.

    All randomness derives from `seed`; identical inputs give an identical
    report.
    """
    test_plan = plan(circuit.gadget_count, epsilon, eta, delta,
                     extra_check_lines)
    transcript = run_computational(device, circuit, derive_seed(seed, 0))
    if transcript.resolved is None:
        return verdict(transcript, test_plan, math.nan, None, ())
    gate = run_gate_tests(device, transcript, test_plan, derive_seed(seed, 1))
    stages: list[MeasurementStageResult] = []
    if not gate.impossible_observed:
        stages = run_measurement_tests(device, transcript, test_plan, seed)
    return verdict(transcript, test_plan, gate.p_classical, gate, stages)
