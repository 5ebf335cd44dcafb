"""Shared test utilities: seeded circuit generators, the dense statevector
oracles (the branch tree, the one-pass deferred table and the reference
trajectory), the scalar Pauli references (one `PauliOperator` at a time,
with its `expectation` and the read-out of a `PauliFrame`), and the
test-only device, statevector and Pauli-algebra API.

The device runs on the Pauli engine, so every oracle here that a device
result is checked against is computed with `cliffcert.statevector` or
dense matrices, never with `cliffcert.pauli`.  The one exception checks a
fault channel alone: `renormalised_record_table` applies the biased-coin
and lying devices' sequential renormalisation to the device's own honest
table.  `measured_lines_table` is no oracle: it reads the table of a set
of measured lines off `cliffcert.pauli`'s one-stage cut."""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cliffcert import statevector as sv
from cliffcert.circuit import (GENERAL, MAGIC, ONE, ZERO, AdaptiveCircuit,
                               Circuit, FixedSequence, InputState, Instruction,
                               MeasurementEvent, Stage, gadgetize,
                               parse_circuit, resolve)
from cliffcert.pauli import PauliFrame, joint_output_probability
from cliffcert.protocol import Transcript, circuit_id
from cliffcert.prover import (IDEAL, PROB_TOL, BatchResult, Depolarizing,
                              FaultModel, GadgetCoinBias, Ideal, Liar,
                              MagicMiscalibration, SimulatedDevice,
                              _FAULT_NAMES, _sample_table, derive_seed,
                              record_table)
from cliffcert.statevector import GATES_1Q, GATES_2Q

REPO_ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = REPO_ROOT / "circuits"
CONFIGS = REPO_ROOT / "configs"

CLIFFORD_1Q = ("H", "S", "SDG", "X", "Y", "Z")
CLIFFORD_2Q = ("CX", "CZ", "SWAP")
# every gate kind with a Clifford conjugation rule
ALL_CLIFFORD = CLIFFORD_1Q + ("ID",) + CLIFFORD_2Q


def fault_to_text(fault: FaultModel) -> str:
    """The spec `prover.parse_fault` reads back as `fault`."""
    name = _FAULT_NAMES[type(fault)]
    if isinstance(fault, Ideal):
        return name
    value = next(iter(vars(fault).values()))
    return f"{name} {value!r}"


def plan_events(circuit: Circuit) -> list[MeasurementEvent]:
    """Reference for a circuit's `events` layout, walked afresh: its
    record slots in execution order, the gadget readouts being the TGADGET
    ancilla readouts of an adaptive circuit and the `gadget_slots` of a
    fixed sequence."""
    slots = () if isinstance(circuit, AdaptiveCircuit) \
        else circuit.gadget_slots
    events: list[MeasurementEvent] = []
    for idx, ins in enumerate(circuit.instructions):
        if ins.op == "TGADGET":
            events.append(MeasurementEvent(ins.ancilla, True))
        elif ins.op == "MEASURE":
            events.append(MeasurementEvent(ins.targets[0], idx in slots))
    return events


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
    return FixedSequence(n, random_inputs(rng, n), tuple(instructions))


def random_clifford_sequence(rng: random.Random, n: int, depth: int,
                             intermediate: int = 20) -> FixedSequence:
    """Random sequence over all ten Clifford gate kinds in which about one
    instruction in eight measures a live line (at most `intermediate`
    times), so pulled-back operators start at many positions; it ends with
    the output MEASURE."""
    alive = list(range(n))
    instructions: list[Instruction] = []
    for _ in range(depth):
        if len(alive) > 1 and intermediate and rng.random() < 0.15:
            intermediate -= 1
            line = alive.pop(rng.randrange(len(alive)))
            instructions.append(Instruction("MEASURE", (line,),
                                            label=f"x{line}"))
        op = rng.choice(ALL_CLIFFORD)
        if op in CLIFFORD_2Q and len(alive) < 2:
            op = "H"
        targets = rng.sample(alive, 2 if op in CLIFFORD_2Q else 1)
        instructions.append(Instruction(op, tuple(targets)))
    instructions.append(Instruction("MEASURE", (rng.choice(alive),),
                                    label="out"))
    return FixedSequence(n, random_inputs(rng, n), tuple(instructions))


def random_t_circuit(rng: random.Random, n: int, depth: int, n_t: int,
                     intermediate: int = 0) -> AdaptiveCircuit:
    """Random Clifford circuit with `n_t` raw T gates, ready to gadgetize.

    Up to `intermediate` lines are measured mid-circuit and never used
    again, as in `random_fixed_sequence`.
    """
    alive = list(range(n))
    instructions: list[Instruction] = []
    t_slots = sorted(rng.sample(range(depth), min(n_t, depth)))
    budget = intermediate
    for d in range(depth):
        if t_slots and d == t_slots[0]:
            t_slots.pop(0)
            instructions.append(Instruction("T", (rng.choice(alive),)))
        elif len(alive) >= 2 and rng.random() < 0.4:
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
    return AdaptiveCircuit(n, random_inputs(rng, n), tuple(instructions))


@dataclass(frozen=True)
class PauliOperator:
    """sign * tensor product of I/X/Y/Z over n lines, Hermitian (sign +/-1):
    the scalar form of one frame operator, bit i of x/z its factor on line
    i via (x, z) -> {00: I, 10: X, 11: Y, 01: Z}."""

    n: int
    x: int
    z: int
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("x/z bits outside the first n lines")

    @classmethod
    def z_on(cls, n: int, line: int) -> "PauliOperator":
        return cls(n, 0, 1 << line, 1)

    def bit(self, line: int) -> tuple[int, int]:
        return ((self.x >> line) & 1, (self.z >> line) & 1)

    @property
    def support(self) -> int:
        return self.x | self.z


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def frame_operators(frame: PauliFrame, count: int) -> list[PauliOperator]:
    """Operators 0..count-1 of `frame` as PauliOperators."""
    x, z = [0] * count, [0] * count
    for slices, out in ((frame.xs, x), (frame.zs, z)):
        for line in frame.touched:
            for j in _bits(slices[line]):
                out[j] |= 1 << line
    return [PauliOperator(frame.n_lines, x[j], z[j],
                          -1 if (frame.signs >> j) & 1 else 1)
            for j in range(count)]


def pull_back(p: PauliOperator, instructions) -> PauliOperator:
    """U^dagger p U for the unitary part U of `instructions` by one frame
    sweep; MEASURE and ID are skipped."""
    frame = frame_holding([p])
    for _ in frame.sweep(instructions, {}):
        pass
    return frame_operators(frame, 1)[0]


def expectation(p: PauliOperator, inputs) -> float:
    """<p> on the product state `inputs`, reading `inputs[line].bloch()`
    on p's support lines only, in increasing line order; identity lines
    give 1."""
    if p.n != len(inputs):
        raise ValueError("operator and input sizes differ")
    value = float(p.sign)
    for line in _bits(p.support):
        xb, zb = p.bit(line)
        ex, ey, ez = inputs[line].bloch()
        value *= ey if (xb and zb) else (ex if xb else ez)
    return value


def random_pauli(rng: random.Random, n: int) -> PauliOperator:
    return PauliOperator(n, rng.getrandbits(n), rng.getrandbits(n),
                         rng.choice((1, -1)))


_PAULI_CHARS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_CHAR_BITS = {v: k for k, v in _PAULI_CHARS.items()}


def from_label(label: str, sign: int = 1) -> PauliOperator:
    """Pauli from a string like "XIZ" (character i = line i)."""
    x = z = 0
    for i, ch in enumerate(label):
        xb, zb = _CHAR_BITS[ch]
        x |= xb << i
        z |= zb << i
    return PauliOperator(len(label), x, z, sign)


def label(p: PauliOperator) -> str:
    """Sign and one character per line, e.g. "-XIZ"."""
    chars = [_PAULI_CHARS[p.bit(i)] for i in range(p.n)]
    return ("+" if p.sign > 0 else "-") + "".join(chars)


def commutes(p: PauliOperator, q: PauliOperator) -> bool:
    if p.n != q.n:
        raise ValueError("operator sizes differ")
    overlap = (p.x & q.z) ^ (p.z & q.x)
    return bin(overlap).count("1") % 2 == 0


def multiply(p: PauliOperator,
             q: PauliOperator) -> tuple[complex, PauliOperator]:
    """p * q as (phase, sign-normalised Pauli), phase in {1, -1, i, -i}."""
    if p.n != q.n:
        raise ValueError("operator sizes differ")
    # exponent of i per line: XY=iZ, YZ=iX, ZX=iY, reversed orders give -i
    exponent = 0
    for line in _bits((p.x | p.z) & (q.x | q.z)):
        x1, z1 = p.bit(line)
        x2, z2 = q.bit(line)
        if x1 and z1:
            exponent += z2 - x2
        elif x1:
            exponent += z2 * (2 * x2 - 1)
        elif z1:
            exponent += x2 * (1 - 2 * z2)
    phase = (1j) ** (exponent % 4) * p.sign * q.sign
    return phase, PauliOperator(p.n, p.x ^ q.x, p.z ^ q.z, 1)


def _conjugate_bits(x: int, z: int, sign: int,
                    gate: Instruction) -> tuple[int, int, int]:
    """gate^dagger P gate on the (x, z, sign) of one Pauli: the scalar
    rule table the bit-sliced `pauli.PauliFrame` is checked against."""
    op = gate.op
    if op in ("MEASURE", "TGADGET"):
        raise ValueError(f"{op} is not unitary")

    if op in ("ID", "T"):
        if op == "T":
            raise ValueError("T is not a Clifford gate")
        return x, z, sign

    if op in ("CX", "CZ", "SWAP"):
        a, b = gate.targets
        ma, mb = 1 << a, 1 << b
        xa, za = (x >> a) & 1, (z >> a) & 1
        xb, zb = (x >> b) & 1, (z >> b) & 1
        if op == "CX":
            if xa & zb & (xb ^ za ^ 1):
                sign = -sign
            x ^= xa << b
            z ^= zb << a
        elif op == "CZ":
            if xa & xb & (za ^ zb):
                sign = -sign
            z ^= (xb << a) | (xa << b)
        else:  # SWAP
            x = (x & ~(ma | mb)) | (xa << b) | (xb << a)
            z = (z & ~(ma | mb)) | (za << b) | (zb << a)
        return x, z, sign

    t = gate.targets[0]
    m = 1 << t
    xt, zt = (x >> t) & 1, (z >> t) & 1
    if op == "H":
        if xt & zt:
            sign = -sign
        x = (x & ~m) | (zt << t)
        z = (z & ~m) | (xt << t)
    elif op == "S":
        # S^dagger X S = -Y, S^dagger Y S = +X
        if xt & (zt ^ 1):
            sign = -sign
        z ^= xt << t
    elif op == "SDG":
        # S X S^dagger = +Y, S Y S^dagger = -X
        if xt & zt:
            sign = -sign
        z ^= xt << t
    elif op == "X":
        if zt:
            sign = -sign
    elif op == "Y":
        if xt ^ zt:
            sign = -sign
    elif op == "Z":
        if xt:
            sign = -sign
    else:
        raise ValueError(f"no conjugation rule for {op}")
    return x, z, sign


def scalar_conjugate(p: PauliOperator, gate: Instruction) -> PauliOperator:
    """gate^dagger p gate by the scalar rules, one operator and one gate."""
    return PauliOperator(p.n, *_conjugate_bits(p.x, p.z, p.sign, gate))


def scalar_pull_back(p: PauliOperator, instructions) -> PauliOperator:
    """Reference for `pull_back`: the scalar rules gate by gate,
    backwards, MEASURE and ID skipped."""
    for ins in reversed(instructions):
        if ins.op not in ("MEASURE", "ID"):
            p = scalar_conjugate(p, ins)
    return p


def measured_operators(seq: Circuit, lines) -> list[PauliOperator]:
    """U^dagger Z_line U for each of `lines`, U the unitary part of the
    instructions before that line's MEASURE (a measured line is never
    reused, so later gates leave it as it is), all from one sweep."""
    frame = PauliFrame(seq.n_lines)
    for _ in frame.sweep(seq.instructions,
                         {line: ((line, i),) for i, line in enumerate(lines)}):
        pass
    return frame_operators(frame, len(lines))


def frame_holding(operators) -> PauliFrame:
    """A frame holding operators[j] as its operator j."""
    frame = PauliFrame(operators[0].n if operators else 0)
    for j, p in enumerate(operators):
        for line in _bits(p.support):
            xb, zb = p.bit(line)
            frame.xs[line] |= xb << j
            frame.zs[line] |= zb << j
            frame.touched.add(line)
        frame.signs |= (p.sign < 0) << j
    return frame


def scalar_measured_operators(seq: FixedSequence,
                              lines) -> list[PauliOperator]:
    """Reference for `measured_operators`: each line's Z pulled back on its
    own from its MEASURE."""
    at = {ins.targets[0]: idx for idx, ins in enumerate(seq.instructions)
          if ins.op == "MEASURE"}
    return [scalar_pull_back(PauliOperator.z_on(seq.n_lines, line),
                             seq.instructions[:at[line]]) for line in lines]


def loop_depolarize(table: np.ndarray, seq: FixedSequence, events,
                    p_err: float) -> np.ndarray:
    """Reference for the depolarizing channel of `prover.record_table`:
    every slot's operator carried on its own from the end of the sequence,
    its flip masks assembled slot by slot at each gate, and each gate's
    channel applied to the table as a mixture of XOR shifts."""
    m = len(events)
    operators = [PauliOperator.z_on(seq.n_lines, ev.line) for ev in events]
    cells = np.arange(1 << m)
    for ins in reversed(seq.instructions):
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
        operators = [scalar_conjugate(op, ins) for op in operators]
    return table


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
    events = plan_events(circuit)
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


def cell_of(record) -> int:
    """A tuple record as a record-table cell: slot 0 is the most
    significant bit."""
    cell = 0
    for bit in record:
        cell = 2 * cell + bit
    return cell


def distribution_table(dist: dict, slots: int) -> np.ndarray:
    """The oracle's {record: probability}, records as tuples, as a 2^slots
    table in the device's record-table layout."""
    table = np.zeros(1 << slots)
    for record, prob in dist.items():
        table[cell_of(record)] = prob
    return table


def assert_records_follow(counts: dict, table: np.ndarray) -> None:
    """Chi-squared at 0.001 of sampled {cell: count} against an exact
    record table; a record of probability zero fails outright."""
    from scipy.stats import chi2
    observed = np.zeros(table.size)
    for cell, count in counts.items():
        observed[cell] += count
    possible = table > 0
    assert not observed[~possible].any()
    expected = observed.sum() * table[possible]
    stat = np.sum((observed[possible] - expected) ** 2 / expected)
    assert stat < chi2.isf(0.001, df=possible.sum() - 1)


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
                seed: int) -> Counter:
    """Record-cell counts of `repetitions` single runs of `seq`, run r
    seeded with derive_seed(seed, r): the per-run reference for a batch."""
    counts = Counter()
    for rep in range(repetitions):
        run = run_fixed(device, seq, derive_seed(seed, rep))
        counts[cell_of(run.outcomes + (run.final_output,))] += 1
    return counts


def structurally_equal(a: Circuit, b: Circuit) -> bool:
    """Field-wise equality ignoring the AdaptiveCircuit/FixedSequence split."""
    return (a.n_lines == b.n_lines and a.inputs == b.inputs
            and a.instructions == b.instructions)


# -- resolution oracles ---------------------------------------------------


def frozen_outcomes(seq: FixedSequence) -> tuple[int, ...]:
    """Each gadget's frozen bit, read back off its correction (S for 1, ID
    for 0); a gadget with none (a stage prefix's last) has no bit."""
    ins = seq.instructions
    return tuple(int(ins[s + 1].op == "S") for s in seq.gadget_slots
                 if s + 1 < len(ins) and ins[s + 1].op in ("S", "ID")
                 and ins[s + 1].targets == ins[s - 1].targets[:1])


def resolve_oracle(circuit: AdaptiveCircuit, outcomes) -> FixedSequence:
    """`resolve` walked afresh: every gadget expanded in one loop, each of
    its instructions built anew."""
    outcomes = tuple(outcomes)
    assert len(outcomes) == circuit.gadget_count and not circuit.t_count
    instructions: list[Instruction] = []
    slots: list[int] = []
    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            target, ancilla = ins.targets[0], ins.ancilla
            slots.append(len(instructions) + 1)
            instructions += [
                Instruction("CX", (target, ancilla)),
                Instruction("MEASURE", (ancilla,), label=f"m{len(slots)}"),
                Instruction("S" if outcomes[len(slots) - 1] else "ID",
                            (target,))]
        else:
            instructions.append(ins)
    return FixedSequence(circuit.n_lines, circuit.inputs,
                         tuple(instructions), tuple(slots))


# -- device runs the verifier never makes --------------------------------


@dataclass(frozen=True)
class FixedRunResult:
    """All measurement outcomes of one non-adaptive run, in order."""

    outcomes: tuple[int, ...]
    final_output: int


def run_fixed(device: SimulatedDevice, seq: FixedSequence,
              seed: int) -> FixedRunResult:
    """One non-adaptive run of a frozen sequence under `device`'s fault
    model, as the statevector trajectory `reference_run`; corrections are
    applied positionally regardless of the fresh measurement outcomes."""
    record, _ = reference_run(seq, device.fault, seed)
    return FixedRunResult(outcomes=record[:-1], final_output=record[-1])


def frequency_of_one(batch: BatchResult, index: int) -> float:
    """Share of a batch's runs whose record reads 1 at slot `index`."""
    bit = len(batch.events) - 1 - index
    ones = sum(c for cell, c in batch.counts.items() if (cell >> bit) & 1)
    return ones / batch.repetitions


def record_counts(batch: BatchResult, slots) -> Counter:
    """A batch's counts of the tuple of its record bits at `slots`, slot i
    being bit m-1-i of an m-slot cell."""
    m = len(batch.events)
    counts = Counter()
    for cell, count in batch.counts.items():
        counts[tuple((cell >> (m - 1 - i)) & 1 for i in slots)] += count
    return counts


def adaptive_record_table(circuit: AdaptiveCircuit,
                          fault: FaultModel) -> np.ndarray:
    """Joint record table of an adaptive circuit on the device, composed
    from the device's tables of its resolved sequences.

    A record whose gadget bits read g gets the probability the device gives
    it in resolve(circuit, g): there the frozen corrections (and, under
    depolarizing noise, their gate errors) are exactly the ones the
    adaptive run applies after reading g.
    """
    events = circuit.events
    m = len(events)
    cells = np.arange(1 << m)
    gadget_bits = [(cells >> (m - 1 - slot)) & 1
                   for slot, ev in enumerate(events) if ev.is_gadget]
    table = np.zeros(1 << m)
    for outcomes in itertools.product((0, 1), repeat=len(gadget_bits)):
        resolved = record_table(resolve(circuit, outcomes), fault)
        mask = np.ones(1 << m, dtype=bool)
        for bits, bit in zip(gadget_bits, outcomes):
            mask &= bits == bit
        table[mask] = resolved[mask]
    return table


def measured_lines_table(seq: FixedSequence, lines) -> np.ndarray:
    """The joint outcome table of measured `lines` of a gadget-free `seq`,
    bit k-1-i of a cell being lines[i]'s outcome: the cut at the
    last-measured of them, (its slot + 1, the other lines), of `seq` with
    the others' MEASUREs left out, which no later instruction touches, so
    they are probes read at that readout; the readout's bit, the cut
    table's leading one, is moved back to its place."""
    assert not seq.gadget_slots
    lines = tuple(lines)
    slot = {event.line: i for i, event in enumerate(seq.events)}
    last = max(lines, key=slot.__getitem__)
    others = tuple(line for line in lines if line != last)
    probed = FixedSequence(seq.n_lines, seq.inputs, tuple(
        ins for ins in seq.instructions
        if not (ins.op == "MEASURE" and ins.targets[0] in others)))
    slots = [event.line for event in probed.events].index(last) + 1
    table, = joint_output_probability(probed, [(slots, others)])
    return np.moveaxis(table.reshape((2,) * len(lines)), 0,
                       lines.index(last)).reshape(-1)


def stage_prefixes(resolved: FixedSequence, extra_check_lines: int
                   ) -> list[tuple[FixedSequence, int, tuple[int, ...]]]:
    """The literal-prefix oracle of the measurement-test stages: (prefix
    sequence, ancilla, probe lines) of every stage, in order, walked afresh
    from the recorded sequence's instructions.

    Stage s's prefix is the recorded sequence cut after gadget s's ancilla
    readout, so earlier gadgets stay frozen to the recorded outcomes,
    followed by terminal probe measurements on the lowest-index lines
    still unmeasured there; it is built, so validated, as a sequence of its
    own.  Every gadget's ancilla MEASURE is a gadget slot of the prefix,
    the stage's last.
    """
    stages = []
    for stage, slot in enumerate(resolved.gadget_slots, 1):
        measured = {ins.targets[0] for ins in resolved.instructions[:slot + 1]
                    if ins.op == "MEASURE"}
        extras = tuple(itertools.islice(
            (line for line in range(resolved.n_lines)
             if line not in measured), extra_check_lines))
        stages.append((_cut(resolved, slot, extras),
                       resolved.instructions[slot].targets[0], extras))
    return stages


def stage_prefix(stage: Stage) -> FixedSequence:
    """The literal prefix a `circuit.Stage` describes: its sequence cut
    after the MEASURE of its last slot, then its probes measured."""
    slots, probes = stage.cuts[stage.index]
    measures = [idx for idx, ins in enumerate(stage.sequence.instructions)
                if ins.op == "MEASURE"]
    return _cut(stage.sequence, measures[slots - 1], probes)


def _cut(resolved: FixedSequence, slot: int,
         probes: tuple[int, ...]) -> FixedSequence:
    return FixedSequence(
        n_lines=resolved.n_lines,
        inputs=resolved.inputs,
        instructions=resolved.instructions[:slot + 1] + tuple(
            Instruction("MEASURE", (line,), label=f"chk{j}")
            for j, line in enumerate(probes)),
        gadget_slots=tuple(s for s in resolved.gadget_slots if s <= slot))


class PrefixDevice(SimulatedDevice):
    """The simulated device with every stage batch drawn from the table of
    the stage's literal prefix, built alone: the oracle for the stacked
    stage tables of `SimulatedDevice`."""

    def run_fixed_batch(self, seq, repetitions, seed):
        if not isinstance(seq, Stage):
            return super().run_fixed_batch(seq, repetitions, seed)
        prefix = stage_prefix(seq)
        assert prefix.events == seq.events
        return _sample_table(prefix, record_table(prefix, self.fault),
                             repetitions, seed)


def random_gadget_circuits(rng: random.Random, count: int
                           ) -> list[tuple[AdaptiveCircuit, list[int]]]:
    """`count` random gadgetized circuits, each with random gadget bits."""
    drawn = []
    for _ in range(count):
        circuit = gadgetize(random_t_circuit(
            rng, rng.randint(1, 4), rng.randint(4, 20), rng.randint(1, 4),
            intermediate=2))
        drawn.append((circuit, [rng.randrange(2) for _ in
                                range(circuit.gadget_count)]))
    return drawn


def gadget_sequences(count: int, seed: int) -> list[FixedSequence]:
    """Resolved sequences and their stage prefixes: of `count` random
    gadgetized circuits on random gadget bits, then of both bundled
    campaign circuits on every gadget outcome."""
    rng = random.Random(seed)
    resolved = [resolve(circuit, bits)
                for circuit, bits in random_gadget_circuits(rng, count)]
    for name in ("deterministic_t3.circ", "phase_probe.circ"):
        circuit = gadgetize(parse_circuit((CIRCUITS / name).read_text()))
        resolved += [resolve(circuit, bits) for bits in itertools.product(
            (0, 1), repeat=circuit.gadget_count)]
    return [seq for r in resolved for seq in
            [r] + [prefix for prefix, _, _ in
                   stage_prefixes(r, rng.randint(0, 3))]]


def force_slot(table: np.ndarray, slot: int, final: int,
               coin: np.ndarray) -> np.ndarray:
    """Replace slot `slot`'s conditional distribution by `coin`, keeping the
    distribution of earlier bits and of later bits given this one: the
    conditional is read off the table and divided out."""
    view = table.reshape(1 << slot, 2, -1)
    joint = view.sum(axis=2)
    prefix = joint.sum(axis=1, keepdims=True)
    if slot == final:
        return (prefix * coin).reshape(-1)
    # an impossible record prefix keeps its zero cells and divides nothing
    prefix[prefix == 0] = 1.0
    scale = np.divide(coin, joint / prefix, out=np.zeros_like(joint),
                      where=joint > 0)
    return (view * scale[:, :, None]).reshape(-1)


def renormalised_record_table(seq: FixedSequence,
                              fault: FaultModel) -> np.ndarray:
    """The record table of a biased-coin or lying device by sequential
    renormalisation: the honest table with each gadget slot, in order, or
    the final slot forced onto the fault's coin by `force_slot`."""
    table = record_table(seq, IDEAL)
    final = len(seq.events) - 1
    if isinstance(fault, GadgetCoinBias):
        coin = np.array([0.5 - fault.bias, 0.5 + fault.bias])
        for slot, event in enumerate(seq.events):
            if event.is_gadget:
                table = force_slot(table, slot, final, coin)
    elif isinstance(fault, Liar):
        table = force_slot(table, final, final,
                           np.array([fault.q, 1.0 - fault.q]))
    return table


def run_adaptive_batch(device: SimulatedDevice, circuit: AdaptiveCircuit,
                       repetitions: int, seed: int) -> BatchResult:
    """A batch of adaptive runs on `device`, drawn from its composed record
    table."""
    return _sample_table(circuit, adaptive_record_table(circuit, device.fault),
                         repetitions, seed)


# -- statevector oracles ---------------------------------------------------


# controlled-S on (control, target): the deferred form of a gadget correction
_CS = np.diag([1, 1, 1, 1j]).astype(complex)


def dense_record_table(circuit: Circuit,
                       fault: FaultModel = IDEAL) -> np.ndarray:
    """Honest joint record table from one statevector pass with every
    measurement deferred to the end (a gadget correction becomes a
    controlled-S from ancilla to target), in the device's record-table
    layout.  Of the fault models only miscalibration acts here, on the
    inputs of the pass; the others are channels on the table."""
    if not isinstance(fault, (Ideal, MagicMiscalibration)):
        raise ValueError(f"{fault_to_text(fault)} is a channel on the table, "
                         "not an input of the pass")
    shift = fault.delta_theta if isinstance(fault, MagicMiscalibration) \
        else 0.0
    state = sv.init_state(circuit.inputs, magic_phase_shift=shift)
    for ins in circuit.instructions:
        if ins.op == "TGADGET":
            target = ins.targets[0]
            state = sv.apply_gate(state, Instruction("CX",
                                                     (target, ins.ancilla)))
            state = sv.apply_matrix_2q(state, _CS, ins.ancilla, target)
        elif ins.op not in ("MEASURE", "ID"):
            state = sv.apply_gate(state, ins)
    events = plan_events(circuit)
    m = len(events)
    probs = np.moveaxis(np.abs(state) ** 2, [ev.line for ev in events],
                        list(range(m)))
    table = probs.reshape(1 << m, -1).sum(axis=1)
    total = float(table.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise AssertionError(f"record probabilities sum to {total}")
    table[table < PROB_TOL] = 0.0
    return table


def final_output_probability(seq: FixedSequence,
                             fault: FaultModel = IDEAL) -> float:
    """P(final output = 0) of the fixed sequence under an input fault: the
    final-bit marginal of the dense one-pass table."""
    return float(dense_record_table(seq, fault)[0::2].sum())


_PAULIS_1Q = ("X", "Y", "Z")
_PAULIS_2Q = tuple((a, b)
                   for a in ("ID", "X", "Y", "Z")
                   for b in ("ID", "X", "Y", "Z")
                   if (a, b) != ("ID", "ID"))


def _effective_probs(p_one: float, event: MeasurementEvent, is_final: bool,
                     fault: FaultModel) -> tuple[float, float, bool]:
    """(P(0), P(1), overridden) for one measurement under the fault model."""
    if isinstance(fault, GadgetCoinBias) and event.is_gadget:
        return 0.5 - fault.bias, 0.5 + fault.bias, True
    if isinstance(fault, Liar) and is_final:
        return fault.q, 1.0 - fault.q, True
    return 1.0 - p_one, p_one, False


class _Executor:
    """Gate/measurement mechanics of one statevector run that measures in
    place."""

    def __init__(self, inputs, fault: FaultModel):
        self.fault = fault
        shift = fault.delta_theta if isinstance(fault, MagicMiscalibration) \
            else 0.0
        self.initial = sv.init_state(inputs, magic_phase_shift=shift)

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


def reference_run(circuit: Circuit, fault: FaultModel, seed: int):
    """One statevector trajectory measured in place; returns (record bits,
    events).  It draws one uniform per measurement, as the device does, so
    the device's adaptive run must match it bit for bit.  Under
    depolarizing noise it also draws each gate's error as the gate runs
    (one draw per non-ID gate, then the error Pauli), where the device
    reads the noise off its record table: those runs agree in distribution
    only."""
    rng = np.random.default_rng(seed)
    ex = _Executor(circuit.inputs, fault)
    events = plan_events(circuit)
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


def reference_transcript(circuit: AdaptiveCircuit, fault: FaultModel,
                         seed: int) -> Transcript:
    """The transcript of `reference_run`, built from its record as the
    verifier builds its own from the device's record cell."""
    record, events = reference_run(circuit, fault, seed)
    gadget_bits = tuple(bit for bit, ev in zip(record, events)
                        if ev.is_gadget)
    return Transcript(circuit_id=circuit_id(circuit), seed=seed,
                      gadget_outcomes=gadget_bits, final_output=record[-1],
                      resolved=resolve(circuit, gadget_bits))


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
