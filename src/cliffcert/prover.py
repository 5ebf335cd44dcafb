"""Simulated quantum device: honest and faulty execution of circuits.

The device executes adaptive circuits (gadget corrections fed back from
ancilla measurements) and fixed sequences (corrections frozen, fresh
measurement outcomes recorded but never used).  Everything the verifier may
see crosses this module as classical data: bits, counts, hashes, seeds.

A single run samples one trajectory with an explicit RNG, measuring in place;
it is the reference semantics.  A batch instead draws one multinomial sample
from the exact joint distribution over measurement records, the record
table, built in one pass for every fault model.  Because a measured line is
never reused, every measurement can be deferred to the end of the unitary
part (a gadget's "S if the ancilla reads 1" becomes a controlled-S), so one
statevector pass gives the honest table.  Each fault model then acts as a
channel on that table: miscalibration changes the inputs of the pass, a liar
replaces the final bit, a biased coin reweights gadget slots by
coin(b) / P(b | earlier bits), and depolarizing noise XOR-shifts the table by
the flip mask each gate error leaves on the record (Pauli-frame propagation,
as in Stim, Gidney arXiv:2103.02202).  This is what makes
10^5..10^7-repetition test batches affordable for every fault model.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import statevector as sv
from .circuit import (AdaptiveCircuit, Circuit, FixedSequence, Instruction,
                      resolve, serialize)
from .pauli import PauliOperator, conjugate

PROB_TOL = 1e-12

_PAULIS_1Q = ("X", "Y", "Z")
_PAULIS_2Q = tuple((a, b)
                   for a in ("ID", "X", "Y", "Z")
                   for b in ("ID", "X", "Y", "Z")
                   if (a, b) != ("ID", "ID"))

# controlled-S on (control, target): the deferred form of a gadget correction
_CS = np.diag([1, 1, 1, 1j]).astype(complex)


@dataclass(frozen=True)
class Ideal:
    pass


@dataclass(frozen=True)
class MagicMiscalibration:
    """Magic-state source prepares phase pi/4 + delta_theta instead of pi/4."""

    delta_theta: float

    def __post_init__(self):
        if not math.isfinite(self.delta_theta):
            raise ValueError("delta_theta must be finite")


@dataclass(frozen=True)
class GadgetCoinBias:
    """Gadget-ancilla measurements report Bernoulli(1/2 + bias) outcomes,
    collapsing the state onto whatever the coin said."""

    bias: float

    def __post_init__(self):
        if not abs(self.bias) <= 0.5:
            raise ValueError("|bias| must be at most 0.5")


@dataclass(frozen=True)
class Depolarizing:
    """After each gate, with probability p_err, a uniformly random
    non-identity Pauli is appended on the gate's lines."""

    p_err: float

    def __post_init__(self):
        if not (0.0 <= self.p_err <= 1.0):
            raise ValueError("p_err must be a probability")


@dataclass(frozen=True)
class Liar:
    """Reports output 0 with fixed probability q, ignoring the actual state."""

    q: float

    def __post_init__(self):
        if not (0.0 <= self.q <= 1.0):
            raise ValueError("q must be a probability")


FaultModel = Union[Ideal, MagicMiscalibration, GadgetCoinBias, Depolarizing,
                   Liar]
IDEAL = Ideal()

_FAULT_NAMES = {
    Ideal: "ideal",
    MagicMiscalibration: "magic_miscalibration",
    GadgetCoinBias: "gadget_coin_bias",
    Depolarizing: "depolarizing",
    Liar: "liar",
}


def fault_to_text(fault: FaultModel) -> str:
    name = _FAULT_NAMES[type(fault)]
    if isinstance(fault, Ideal):
        return name
    value = next(iter(vars(fault).values()))
    return f"{name} {value!r}"


def parse_fault(text: str) -> FaultModel:
    """Parse a fault spec like "ideal" or "gadget_coin_bias 0.1"."""
    parts = text.split()
    if not parts:
        raise ValueError("empty fault spec")
    name, args = parts[0].lower(), parts[1:]
    table = {
        "ideal": (Ideal, 0),
        "magic_miscalibration": (MagicMiscalibration, 1),
        "gadget_coin_bias": (GadgetCoinBias, 1),
        "depolarizing": (Depolarizing, 1),
        "liar": (Liar, 1),
    }
    if name not in table:
        raise ValueError(f"unknown fault model {name!r}")
    cls, arity = table[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(args)}")
    return cls(*(float(a) for a in args))


def derive_seed(master: int, *key: int) -> int:
    """Independent 64-bit child seed for a named sub-stream of `master`."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def circuit_id(circuit: Circuit) -> str:
    """SHA-256 of the canonical circuit text."""
    return hashlib.sha256(serialize(circuit).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Transcript:
    """Record of one adaptive computational run."""

    circuit_id: str
    gadget_outcomes: tuple[int, ...]
    final_output: int
    seed: int
    resolved: FixedSequence

    def to_json_dict(self) -> dict:
        return {
            "circuit_id": self.circuit_id,
            "seed": self.seed,
            "gadget_outcomes": list(self.gadget_outcomes),
            "final_output": self.final_output,
        }


@dataclass(frozen=True)
class MeasurementEvent:
    """One measurement slot of a sequence, in execution order."""

    line: int
    is_gadget: bool


@dataclass(frozen=True)
class BatchResult:
    """Outcome-record counts for a batch of identically prepared runs."""

    events: tuple[MeasurementEvent, ...]
    counts: dict[tuple[int, ...], int]
    repetitions: int

    def marginal(self, indices: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        out: dict[tuple[int, ...], int] = {}
        for record, count in self.counts.items():
            key = tuple(record[i] for i in indices)
            out[key] = out.get(key, 0) + count
        return out

    def frequency_of_one(self, index: int) -> float:
        ones = sum(c for rec, c in self.counts.items() if rec[index] == 1)
        return ones / self.repetitions


def _plan_events(circuit: Circuit) -> list[MeasurementEvent]:
    """Measurement slots of a circuit in execution order.

    The gadget readouts are the TGADGET ancilla readouts of an adaptive
    circuit and the `gadget_slots` of a fixed sequence.
    """
    slots = () if isinstance(circuit, AdaptiveCircuit) \
        else circuit.gadget_slots
    events = []
    for idx, ins in enumerate(circuit.instructions):
        if ins.op == "TGADGET":
            events.append(MeasurementEvent(ins.ancilla, True))
        elif ins.op == "MEASURE":
            events.append(MeasurementEvent(ins.targets[0], idx in slots))
    return events


def _effective_probs(p_one: float, event: MeasurementEvent, is_final: bool,
                     fault: FaultModel) -> tuple[float, float, bool]:
    """(P(0), P(1), overridden) for one measurement under the fault model."""
    if isinstance(fault, GadgetCoinBias) and event.is_gadget:
        return 0.5 - fault.bias, 0.5 + fault.bias, True
    if isinstance(fault, Liar) and is_final:
        return fault.q, 1.0 - fault.q, True
    return 1.0 - p_one, p_one, False


class _Executor:
    """Gate/measurement mechanics of one run that measures in place."""

    def __init__(self, inputs, fault: FaultModel, max_lines: int):
        self.fault = fault
        shift = fault.delta_theta if isinstance(fault, MagicMiscalibration) \
            else 0.0
        self.initial = sv.init_state(inputs, magic_phase_shift=shift,
                                     max_lines=max_lines)

    def apply_unitary(self, state, ins: Instruction, rng):
        if ins.op == "ID":
            return state
        state = sv.apply_gate(state, ins)
        fault = self.fault
        if isinstance(fault, Depolarizing) and rng.random() < fault.p_err:
            if len(ins.targets) == 1:
                pauli = _PAULIS_1Q[rng.integers(3)]
                state = sv.apply_pauli(state, ins.targets[0], pauli)
            else:
                pa, pb = _PAULIS_2Q[rng.integers(15)]
                if pa != "ID":
                    state = sv.apply_pauli(state, ins.targets[0], pa)
                if pb != "ID":
                    state = sv.apply_pauli(state, ins.targets[1], pb)
        return state

    def sample_measure(self, state, event: MeasurementEvent, is_final: bool,
                       rng) -> tuple[int, object]:
        """Sample one outcome; returns (outcome, collapsed state)."""
        p_one = sv.probability_of_one(state, event.line)
        p0, p1, overridden = _effective_probs(p_one, event, is_final,
                                              self.fault)
        outcome = 1 if rng.random() < p1 else 0
        true_p = p_one if outcome else 1.0 - p_one
        if true_p < PROB_TOL:
            # a gadget readout is a fair coin, so only a terminal readout
            # can be forced onto an impossible bit: a lie, state unused
            if overridden:
                return outcome, state
            outcome = 1 - outcome  # numerical guard for honest sampling
        return outcome, sv.collapse(state, event.line, outcome)


def _run_single(circuit: Circuit, fault: FaultModel, seed: int,
                max_lines: int):
    """One trajectory; returns (record bits, events)."""
    rng = np.random.default_rng(seed)
    ex = _Executor(circuit.inputs, fault, max_lines)
    events = _plan_events(circuit)
    final_index = len(events) - 1
    state = ex.initial
    record: list[int] = []
    ev = 0
    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            state = ex.apply_unitary(
                state, Instruction("CX", (ins.targets[0], ins.ancilla)), rng)
            outcome, state = ex.sample_measure(
                state, events[ev], ev == final_index, rng)
            record.append(outcome)
            ev += 1
            if outcome:
                state = ex.apply_unitary(state, Instruction("S", ins.targets),
                                         rng)
        elif ins.op == "MEASURE":
            outcome, state = ex.sample_measure(
                state, events[ev], ev == final_index, rng)
            record.append(outcome)
            ev += 1
        else:
            state = ex.apply_unitary(state, ins, rng)
    return tuple(record), tuple(events)


def record_table(circuit: Circuit, fault: FaultModel,
                 max_lines: int = sv.DEFAULT_MAX_LINES
                 ) -> tuple[tuple[MeasurementEvent, ...], np.ndarray]:
    """Exact joint distribution over measurement records under `fault`.

    Returns the measurement slots and a table of 2^m probabilities; bit
    m-1-i of a cell's index is slot i's outcome, so slot 0 is the most
    significant bit and cells run in lexicographic record order.  Adaptive
    circuits (gadget corrections applied) are recognised by type.  A
    circuit never reuses a measured line, so every measurement defers.
    """
    if isinstance(circuit, AdaptiveCircuit) \
            and isinstance(fault, Depolarizing):
        raise ValueError("depolarizing noise has no record table for "
                         "adaptive circuits (controlled-S is not Clifford)")
    events = tuple(_plan_events(circuit))
    table = _honest_table(circuit, events, fault, max_lines)
    final = len(events) - 1
    if isinstance(fault, GadgetCoinBias):
        coin = np.array([0.5 - fault.bias, 0.5 + fault.bias])
        for slot, event in enumerate(events):
            if event.is_gadget:
                table = _force_slot(table, slot, final, coin)
    elif isinstance(fault, Liar):
        table = _force_slot(table, final, final,
                            np.array([fault.q, 1.0 - fault.q]))
    elif isinstance(fault, Depolarizing) and fault.p_err:
        table = _depolarize(table, circuit, events, fault.p_err)
    return events, table


def _honest_table(circuit: Circuit, events, fault: FaultModel,
                  max_lines: int) -> np.ndarray:
    """One unitary pass with every measurement deferred to the end."""
    shift = fault.delta_theta if isinstance(fault, MagicMiscalibration) \
        else 0.0
    state = sv.init_state(circuit.inputs, magic_phase_shift=shift,
                          max_lines=max_lines)
    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            target = ins.targets[0]
            state = sv.apply_gate(state, Instruction("CX",
                                                     (target, ins.ancilla)))
            state = sv.apply_matrix_2q(state, _CS, ins.ancilla, target)
        elif ins.op not in ("MEASURE", "ID"):
            state = sv.apply_gate(state, ins)
    m = len(events)
    probs = np.moveaxis(np.abs(state) ** 2, [ev.line for ev in events],
                        list(range(m)))
    table = probs.reshape(1 << m, -1).sum(axis=1)
    total = float(table.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise AssertionError(f"record probabilities sum to {total}")
    table[table < PROB_TOL] = 0.0
    return table


def _force_slot(table: np.ndarray, slot: int, final: int,
                coin: np.ndarray) -> np.ndarray:
    """Replace slot `slot`'s conditional distribution by `coin`, keeping the
    distribution of earlier bits and of later bits given this one.  Only a
    terminal readout can be forced onto an impossible bit; a gadget readout
    is a fair coin given any earlier record."""
    view = table.reshape(1 << slot, 2, -1)
    joint = view.sum(axis=2)
    prefix = joint.sum(axis=1, keepdims=True)
    if slot == final:
        return (prefix * coin).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(joint > 0, coin / (joint / prefix), 0.0)
    return (view * scale[:, :, None]).reshape(-1)


def _depolarize(table: np.ndarray, circuit: Circuit, events,
                p_err: float) -> np.ndarray:
    """Fold every gate's depolarizing channel into the table.

    Walking backwards, each slot's Z measurement is carried to just after
    the current gate; an error Pauli there flips slot i exactly when it
    anticommutes with slot i's carried operator.  Errors at different gates
    are independent, so their flip-mask distributions XOR-convolve.
    """
    m = len(events)
    operators = [PauliOperator.z_on(circuit.n_lines, ev.line)
                 for ev in events]
    cells = np.arange(1 << m)
    for ins in reversed(circuit.instructions):
        if ins.op in ("MEASURE", "ID"):
            continue
        # per line: the masks flipped by an X error and by a Z error
        per_line = []
        for line in ins.targets:
            x_mask = z_mask = 0
            for slot, op in enumerate(operators):
                bit = 1 << (m - 1 - slot)
                if (op.z >> line) & 1:
                    x_mask |= bit
                if (op.x >> line) & 1:
                    z_mask |= bit
            per_line.append((x_mask, x_mask ^ z_mask, z_mask))  # X, Y, Z
        if len(per_line) == 1:
            masks = list(per_line[0])
        else:
            masks = [a ^ b for a in (0,) + per_line[0]
                     for b in (0,) + per_line[1]][1:]
        if any(masks):
            shifted = sum(count * (table[cells ^ mask] if mask else table)
                          for mask, count in Counter(masks).items())
            table = (1.0 - p_err) * table + (p_err / len(masks)) * shifted
        operators = [conjugate(op, ins) for op in operators]
    return table


def _sample_table(events, table: np.ndarray, repetitions: int,
                  seed: int) -> BatchResult:
    rng = np.random.default_rng(seed)
    cells = np.flatnonzero(table > 0)
    probs = table[cells]
    draws = rng.multinomial(repetitions, probs / probs.sum())
    m = len(events)
    drawn = draws > 0
    counts = {tuple((cell >> (m - 1 - i)) & 1 for i in range(m)): int(c)
              for cell, c in zip(cells[drawn].tolist(), draws[drawn])}
    return BatchResult(events=events, counts=counts, repetitions=repetitions)


class SimulatedDevice:
    """In-process prover.  The constructor fixes the hardware's fault model;
    the verifier only ever sees classical run records."""

    def __init__(self, fault: FaultModel = IDEAL,
                 max_lines: int = sv.DEFAULT_MAX_LINES):
        self.fault = fault
        self.max_lines = max_lines

    def run_adaptive(self, circuit: AdaptiveCircuit, seed: int) -> Transcript:
        """One adaptive run: gadget corrections applied immediately after
        their ancilla measurements, everything recorded."""
        record, events = _run_single(circuit, self.fault, seed,
                                     self.max_lines)
        gadget_bits = tuple(bit for bit, ev in zip(record, events)
                            if ev.is_gadget)
        return Transcript(
            circuit_id=circuit_id(circuit),
            gadget_outcomes=gadget_bits,
            final_output=record[-1],
            seed=seed,
            resolved=resolve(circuit, gadget_bits),
        )

    def run_fixed_batch(self, seq: FixedSequence, repetitions: int,
                        seed: int) -> BatchResult:
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        events, table = record_table(seq, self.fault, self.max_lines)
        return _sample_table(events, table, repetitions, seed)
