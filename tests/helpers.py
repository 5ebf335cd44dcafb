"""Shared test utilities: seeded circuit generators, dense oracles, and the
test-only device and statevector API."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cliffcert import statevector as sv
from cliffcert.circuit import (GENERAL, MAGIC, ONE, ZERO, AdaptiveCircuit,
                               Circuit, FixedSequence, InputState, Instruction)
from cliffcert.pauli import PauliOperator
from cliffcert.prover import (IDEAL, PROB_TOL, BatchResult, Depolarizing,
                              FaultModel, MagicMiscalibration,
                              SimulatedDevice, _effective_probs, _plan_events,
                              _run_single, _sample_table, derive_seed,
                              fault_to_text, record_table)
from cliffcert.statevector import GATES_1Q, GATES_2Q

REPO_ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = REPO_ROOT / "circuits"
CONFIGS = REPO_ROOT / "configs"

CLIFFORD_1Q = ("H", "S", "SDG", "X", "Y", "Z")
CLIFFORD_2Q = ("CX", "CZ", "SWAP")


def random_input(rng: random.Random) -> InputState:
    kind = rng.choice((ZERO, ONE, MAGIC, GENERAL))
    if kind != GENERAL:
        return InputState(kind)
    theta = math.acos(rng.uniform(-1.0, 1.0))
    phi = rng.uniform(0.0, 2.0 * math.pi * (1.0 - 1e-12))
    return InputState(GENERAL, theta, phi)


def random_inputs(rng: random.Random, n: int) -> tuple[InputState, ...]:
    return tuple(random_input(rng) for _ in range(n))


def random_fixed_sequence(rng: random.Random, n: int, depth: int,
                          intermediate: int = 0) -> FixedSequence:
    """Random non-adaptive Clifford sequence ending in MEASURE <line> out.

    Up to `intermediate` lines are measured mid-sequence and discarded, so
    the measured-line no-reuse invariant always holds.
    """
    alive = list(range(n))
    instructions: list[Instruction] = []
    budget = intermediate
    for _ in range(depth):
        if len(alive) >= 2 and rng.random() < 0.4:
            a, b = rng.sample(alive, 2)
            instructions.append(Instruction(rng.choice(CLIFFORD_2Q), (a, b)))
        else:
            instructions.append(Instruction(rng.choice(CLIFFORD_1Q),
                                            (rng.choice(alive),)))
        if budget and len(alive) > 1 and rng.random() < 0.15:
            line = rng.choice(alive)
            alive.remove(line)
            instructions.append(Instruction("MEASURE", (line,),
                                            label=f"x{line}"))
            budget -= 1
    instructions.append(Instruction("MEASURE", (rng.choice(alive),),
                                    label="out"))
    return FixedSequence(n, random_inputs(rng, n), tuple(instructions), ())


def random_t_circuit(rng: random.Random, n: int, depth: int,
                     n_t: int) -> AdaptiveCircuit:
    """Random Clifford circuit with `n_t` raw T gates, ready to gadgetize."""
    instructions: list[Instruction] = []
    t_slots = sorted(rng.sample(range(depth), min(n_t, depth)))
    for d in range(depth):
        if t_slots and d == t_slots[0]:
            t_slots.pop(0)
            instructions.append(Instruction("T", (rng.randrange(n),)))
        elif n >= 2 and rng.random() < 0.4:
            a, b = rng.sample(range(n), 2)
            instructions.append(Instruction(rng.choice(CLIFFORD_2Q), (a, b)))
        else:
            instructions.append(Instruction(rng.choice(CLIFFORD_1Q),
                                            (rng.randrange(n),)))
    instructions.append(Instruction("MEASURE", (rng.randrange(n),),
                                    label="out"))
    return AdaptiveCircuit(n, random_inputs(rng, n), tuple(instructions))


def random_pauli(rng: random.Random, n: int) -> PauliOperator:
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n),
                         rng.choice((1, -1)))


_SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": GATES_1Q["X"],
    "Y": GATES_1Q["Y"],
    "Z": GATES_1Q["Z"],
}


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a signed Pauli (line 0 = leftmost factor)."""
    out = np.array([[p.sign]], dtype=complex)
    for line in range(p.n):
        xb, zb = p.bit(line)
        ch = "I" if not (xb or zb) else ("X" if not zb else
                                         ("Z" if not xb else "Y"))
        out = np.kron(out, _SINGLE[ch])
    return out


def gate_matrix(ins: Instruction, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a unitary instruction on n lines."""
    if ins.op in GATES_1Q:
        mats = [np.eye(2, dtype=complex)] * n
        mats[ins.targets[0]] = GATES_1Q[ins.op]
        out = np.array([[1.0]], dtype=complex)
        for m in mats:
            out = np.kron(out, m)
        return out
    # embed a 4x4 gate acting on (a, b) into n lines
    a, b = ins.targets
    g = GATES_2Q[ins.op]
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - i)) & 1 for i in range(n)]
        sub = (bits[a] << 1) | bits[b]
        for row_sub in range(4):
            amp = g[row_sub, sub]
            if amp == 0:
                continue
            new_bits = list(bits)
            new_bits[a] = (row_sub >> 1) & 1
            new_bits[b] = row_sub & 1
            row = 0
            for bit in new_bits:
                row = (row << 1) | bit
            out[row, col] += amp
    return out


def outcome_distribution(circuit, fault: FaultModel,
                         collect_gadget_probs: bool = False):
    """Exact joint record distribution with measurements made in place.

    Branches a full statevector at every measurement (2^m passes), applying
    each gadget correction right after its ancilla readout, so it shares no
    deferral with the device's record table and serves as its oracle.
    Returns (events, {record: probability}) and, when requested, the Born
    P(1) of every gadget measurement in every branch as a third element.
    Depolarizing noise has no fixed per-run tree and is rejected.  A fault
    that forces a non-terminal readout onto a bit of probability zero fails
    with AssertionError: a gadget readout is a fair coin, so no fault model
    can do that.
    """
    if isinstance(fault, Depolarizing):
        raise ValueError(f"{fault_to_text(fault)} has no fixed per-run "
                         "distribution")
    shift = fault.delta_theta if isinstance(fault, MagicMiscalibration) \
        else 0.0
    events = _plan_events(circuit)
    final_index = len(events) - 1
    branches: list[tuple[object, float, tuple[int, ...]]] = \
        [(sv.init_state(circuit.inputs, magic_phase_shift=shift), 1.0, ())]
    gadget_probs: list[float] = []
    ev = 0

    def branch_measure(event, correction_target=None):
        nonlocal branches, ev
        is_final = ev == final_index
        children = []
        for state, prob, record in branches:
            p_one = sv.probability_of_one(state, event.line)
            if event.is_gadget and collect_gadget_probs:
                gadget_probs.append(p_one)
            p0, p1, overridden = _effective_probs(p_one, event, is_final,
                                                  fault)
            for outcome, p_eff in ((0, p0), (1, p1)):
                if p_eff <= 0.0:
                    continue
                true_p = p_one if outcome else 1.0 - p_one
                if true_p < PROB_TOL:
                    if not overridden:
                        continue
                    if not is_final:
                        raise AssertionError(
                            f"fault model forces outcome {outcome} of "
                            f"probability zero on line {event.line}")
                    child_state = state  # terminal lie, state unused
                else:
                    child_state = sv.collapse(state, event.line, outcome)
                if outcome and correction_target is not None:
                    child_state = sv.apply_gate(
                        child_state, Instruction("S", (correction_target,)))
                children.append((child_state, prob * p_eff,
                                 record + (outcome,)))
        branches = children
        ev += 1

    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            cx = Instruction("CX", (ins.targets[0], ins.ancilla))
            branches = [(sv.apply_gate(state, cx), prob, record)
                        for state, prob, record in branches]
            branch_measure(events[ev], correction_target=ins.targets[0])
        elif ins.op == "MEASURE":
            branch_measure(events[ev])
        elif ins.op != "ID":
            branches = [(sv.apply_gate(state, ins), prob, record)
                        for state, prob, record in branches]

    dist = {record: prob for _, prob, record in branches}
    total = sum(dist.values())
    if not abs(total - 1.0) <= 1e-9:
        raise AssertionError(f"branch probabilities sum to {total}")
    if collect_gadget_probs:
        return tuple(events), dist, tuple(gadget_probs)
    return tuple(events), dist


def distribution_table(dist: dict, slots: int) -> np.ndarray:
    """The oracle's {record: probability} as a 2^slots table with slot 0 as
    the most significant index bit (the device's record-table layout)."""
    table = np.zeros(1 << slots)
    for record, prob in dist.items():
        table[int("".join(map(str, record)), 2)] = prob
    return table


def gadget_born_probabilities(circuit: AdaptiveCircuit,
                              fault: FaultModel = IDEAL) -> tuple[float, ...]:
    """Born P(1) of every gadget measurement in every branch of the adaptive
    execution tree (computed, not sampled)."""
    _, _, probs = outcome_distribution(circuit, fault,
                                       collect_gadget_probs=True)
    return probs


def final_output_probability_inplace(seq: FixedSequence,
                                     fault: FaultModel = IDEAL) -> float:
    """P(final output = 0) with every intermediate measurement simulated in
    place, from the branch-tree oracle."""
    _, dist = outcome_distribution(seq, fault)
    return sum(p for record, p in dist.items() if record[-1] == 0)


def final_output_probability_unitary_only(seq: FixedSequence) -> float:
    """P(final output = 0) with intermediate measurements omitted entirely."""
    state = sv.init_state(seq.inputs)
    for ins in seq.instructions:
        if ins.op not in ("MEASURE", "ID"):
            state = sv.apply_gate(state, ins)
    return 1.0 - sv.probability_of_one(state, seq.output_line)


def depolarized_distribution(seq: FixedSequence, p_err: float) -> dict:
    """Exact {record: probability} of a fixed sequence when every non-ID
    gate is followed by a uniformly random non-identity Pauli on its lines
    with probability p_err.  Density matrices, one per record prefix, are
    evolved gate by gate and projected in place at each measurement."""
    n = seq.n_lines
    psi = sv.init_state(seq.inputs).reshape(-1)
    branches = {(): np.outer(psi, psi.conj())}
    for ins in seq.instructions:
        if ins.op == "ID":
            continue
        if ins.op == "MEASURE":
            bits = (np.arange(1 << n) >> (n - 1 - ins.targets[0])) & 1
            projectors = [np.diag((bits == b).astype(float)) for b in (0, 1)]
            branches = {record + (b,): projectors[b] @ rho @ projectors[b]
                        for record, rho in branches.items() for b in (0, 1)}
            continue
        gate = gate_matrix(ins, n)
        per_line = [[np.eye(1 << n)] + [gate_matrix(Instruction(p, (line,)), n)
                                        for p in ("X", "Y", "Z")]
                    for line in ins.targets]
        if len(per_line) == 1:
            errors = per_line[0][1:]
        else:
            errors = [a @ b for a in per_line[0] for b in per_line[1]][1:]
        for record, rho in branches.items():
            rho = gate @ rho @ gate.conj().T
            noise = sum(e @ rho @ e.conj().T for e in errors)
            branches[record] = ((1.0 - p_err) * rho
                                + (p_err / len(errors)) * noise)
    return {record: float(np.trace(rho).real)
            for record, rho in branches.items()}


def loop_counts(device, seq: FixedSequence, repetitions: int,
                seed: int) -> dict[tuple[int, ...], int]:
    """Record counts of `repetitions` single runs of `seq`, run r seeded
    with derive_seed(seed, r): the per-run reference for a batch."""
    counts: dict[tuple[int, ...], int] = {}
    for rep in range(repetitions):
        run = run_fixed(device, seq, derive_seed(seed, rep))
        record = run.outcomes + (run.final_output,)
        counts[record] = counts.get(record, 0) + 1
    return counts


def structurally_equal(a: Circuit, b: Circuit) -> bool:
    """Field-wise equality ignoring the AdaptiveCircuit/FixedSequence split."""
    return (a.n_lines == b.n_lines and a.inputs == b.inputs
            and a.instructions == b.instructions)


# -- device runs the verifier never makes --------------------------------


@dataclass(frozen=True)
class FixedRunResult:
    """All measurement outcomes of one non-adaptive run, in order."""

    outcomes: tuple[int, ...]
    final_output: int


def run_fixed(device: SimulatedDevice, seq: FixedSequence,
              seed: int) -> FixedRunResult:
    """One non-adaptive run of a frozen sequence on `device`; corrections
    are applied positionally regardless of the fresh measurement
    outcomes."""
    record, _ = _run_single(seq, device.fault, seed, device.max_lines)
    return FixedRunResult(outcomes=record[:-1], final_output=record[-1])


def run_adaptive_batch(device: SimulatedDevice, circuit: AdaptiveCircuit,
                       repetitions: int, seed: int) -> BatchResult:
    """A batch of adaptive runs on `device`, drawn from its record table."""
    events, table = record_table(circuit, device.fault, device.max_lines)
    return _sample_table(events, table, repetitions, seed)


def final_output_probability(seq: FixedSequence,
                             fault: FaultModel = IDEAL) -> float:
    """P(final output = 0) of the fixed sequence under `fault`: the
    final-bit marginal of the device's record table."""
    _, table = record_table(seq, fault)
    return float(table[0::2].sum())


# -- statevector operations only the tests use ----------------------------


def sv_measure(state: np.ndarray, line: int, rng) -> tuple[int, np.ndarray]:
    """Born-sample a computational-basis measurement of `line`.

    Returns the outcome bit and the collapsed, renormalised state.
    """
    p_one = sv.probability_of_one(state, line)
    outcome = 1 if rng.random() < p_one else 0
    true_p = p_one if outcome else 1.0 - p_one
    if true_p < 1e-15:
        outcome = 1 - outcome  # guard against float roundoff at 0/1
    return outcome, sv.collapse(state, line, outcome)


def sv_norm(state: np.ndarray) -> float:
    return math.sqrt(float(np.sum(np.abs(state) ** 2)))


def sv_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 for normalised states (global phase irrelevant)."""
    return float(abs(np.vdot(a, b)) ** 2)


def sv_remove_line(state: np.ndarray, line: int, outcome: int) -> np.ndarray:
    """Collapse `line` onto `outcome`, then drop that axis entirely."""
    collapsed = sv.collapse(state, line, outcome)
    return np.moveaxis(collapsed, line, 0)[outcome]
