"""Simulated quantum device: honest and faulty execution of circuits.

The device executes adaptive circuits (gadget corrections fed back from
ancilla measurements) and fixed sequences (corrections frozen, fresh
measurement outcomes recorded but never used).  Everything the verifier may
see crosses this module as classical data: record cells and their counts.

The device holds no amplitudes.  A measured line is never reused and every
gadget ancilla is fresh, so the measurements of a run are commuting Z
operators on a product input, each pulled back alike from any MEASURE at
or after its own.  One backward sweep of a `pauli.PauliFrame` enters all
m at the last MEASURE, N gate updates for N gates, and
`pauli.outcome_table` reads their exact joint distribution off the swept
frame in O(|U| * 2^m) for |U| support lines (at most MAX_RECORD_SLOTS).

A record is a cell of that table, one layout from the frame to the
verdict: the slots are the circuit's cached `events`, and bit m-1-i is
slot i's outcome (slot i is frame operator m-1-i), so slot 0 is the most
significant bit.  A batch counts the cells of one multinomial sample from
the record table of a fixed sequence or of a `circuit.Stage` of one (a
(slots, probes) cut, checked by `pauli.stage_lines`); a
campaign's first stage builds all its stages' tables from one sweep and
one table pass.  Each fault model acts row by row as a channel on that
table: miscalibration changes the prepared inputs, a liar replaces the
final bit, a biased coin scales gadget slots by 2 coin(b) (P(b | earlier
bits) is 1/2), and a gate error XOR-shifts it by a flip mask read off the
frame's slices as the sweep passes the gate (as in Stim, Gidney
arXiv:2103.02202): depolarizing noise is one factor per subset
expectation before the table's inverse transform.  This makes
10^5..10^7-repetition test batches affordable for every fault model.

The one adaptive run returns one cell of one such table, built once.  It
takes one uniform draw per slot in execution order.  A gadget readout is
a coin of 1/2 (1/2 + bias under a biased coin) given any earlier record,
so every gadget bit is known from its draw alone; the circuit resolved on
them is the run's sequence, and each other slot draws from P(1 | record so
far) in that sequence's record table.  A correction, its gate errors and a
lie on the final bit act on later slots only, so the table's marginal on
the slots so far is the adaptive run's, and every fault model acts on the
record in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .circuit import (AdaptiveCircuit, Circuit, FixedSequence,
                      MeasurementEvent, Stage, resolve)
from .pauli import (PauliFrame, outcome_table, stage_entry, stage_lines,
                    walsh_hadamard)

PROB_TOL = 1e-12

# widest record table the device builds: 2^20 cells
MAX_RECORD_SLOTS = 20


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


def parse_fault(text: str) -> FaultModel:
    """Parse a fault spec like "ideal" or "gadget_coin_bias 0.1"."""
    parts = text.split()
    if not parts:
        raise ValueError("empty fault spec")
    name, args = parts[0].lower(), parts[1:]
    classes = {label: cls for cls, label in _FAULT_NAMES.items()}
    if name not in classes:
        raise ValueError(f"unknown fault model {name!r}")
    cls = classes[name]
    arity = 0 if cls is Ideal else 1
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} parameter(s), got {len(args)}")
    return cls(*(float(a) for a in args))


def derive_seed(master: int, *key: int) -> int:
    """Independent 64-bit child seed for a named sub-stream of `master`."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class BatchResult:
    """Outcome-record counts for a batch of identically prepared runs, as
    plain counts: the verifier reads nothing else.

    A record is a cell of the record table: bit m-1-i of the integer is
    slot i's outcome, so slot 0 is the most significant bit and the final
    output is bit 0.  `counts` maps each record drawn to its count, in
    increasing cell order.  `events`, the sent sequence's own layout, and
    `repetitions` are kept for the benchmark tracer alone."""

    events: tuple[MeasurementEvent, ...]
    counts: dict[int, int]
    repetitions: int


def _sample_run(circuit: AdaptiveCircuit, fault: FaultModel, seed: int):
    """One adaptive run: its record cell, resolved sequence and its table.

    One uniform draw per slot, in order.  The gadget bits are coins, so
    they resolve the circuit before any other slot is read; every other
    slot reads P(1 | record so far) off that sequence's one record table.
    """
    events = circuit.events
    draws = np.random.default_rng(seed).random(len(events)).tolist()
    coin = 0.5 + fault.bias if isinstance(fault, GadgetCoinBias) else 0.5
    resolved = resolve(circuit, [int(u < coin) for u, event
                                 in zip(draws, events) if event.is_gadget])
    table = record_table(resolved, fault)
    cell = 0  # the record so far as a table prefix
    for slot, (u, event) in enumerate(zip(draws, events)):
        if event.is_gadget:
            bit = int(u < coin)
        else:
            zero, one = table.reshape(1 << slot, 2, -1)[cell].sum(axis=1)
            bit = int(u < one / (zero + one))
        cell = 2 * cell + bit
    return cell, resolved, table


def record_table(seq: FixedSequence, fault: FaultModel) -> np.ndarray:
    """The one-stage case of :func:`record_tables`: all of `seq.events`."""
    return record_tables(seq, ((len(seq.events), ()),), fault)[0]


def record_tables(seq: FixedSequence, cuts, fault: FaultModel
                  ) -> list[np.ndarray]:
    """Record tables under `fault` of the stages (slots, probes) of `seq` in
    `cuts`, each its literal prefix's bit for bit (2^w cells, slot i being
    bit w-1-i): one sweep enters all of a stage's slots and probes at its
    cut, reading each gate's flip masks, then one outcome table pass
    (depolarizing noise folded in), a coin bias and a liar."""
    events = seq.events
    enter, starts, widths = stage_entry(
        (lines[slots - 1], lines)
        for slots, lines in [stage_lines(seq, cut) for cut in cuts])
    if max(widths, default=0) > MAX_RECORD_SLOTS:
        raise ValueError(f"{max(widths)} measurement slots exceed the "
                         f"device's maximum {MAX_RECORD_SLOTS}")
    depolarizing = isinstance(fault, Depolarizing) and fault.p_err
    frame = PauliFrame(seq.n_lines)
    flips = ([], [])  # the flip masks of the one- and the two-line gates
    for ins in frame.sweep(seq.instructions, enter):
        if depolarizing:
            flips[len(ins.targets) - 1].extend(_flip_masks(frame, ins))
    magic = None
    if isinstance(fault, MagicMiscalibration) and fault.delta_theta:
        # the miscalibrated source prepares MAGIC lines at pi/4 + delta_theta
        phase = math.pi / 4 + fault.delta_theta
        magic = (math.cos(phase), math.sin(phase), 0.0)
    # a lone stage holds every operator; others read their own bits
    factor = [_depolarizing_factor(flips if len(cuts) == 1 else tuple(
        [(mask >> start) & ((1 << width) - 1) for mask in masks]
        for masks in flips), width, fault.p_err)
        for start, width in zip(starts, widths)] if depolarizing else None
    tables = outcome_table(frame, starts, widths, seq.inputs, magic, factor)
    for t, ((slots, _), table) in enumerate(zip(cuts, tables)):
        total = float(table.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise AssertionError(f"record probabilities sum to {total}")
        table[table < PROB_TOL] = 0.0
        if isinstance(fault, GadgetCoinBias):
            # exact: P(b | earlier record) is 1/2 at a gadget slot, so 2
            # coin(b) times it is coin(b), and every other one is kept
            weight = np.array([[1 - 2 * fault.bias], [1 + 2 * fault.bias]])
            for slot, event in enumerate(events[:slots]):
                if event.is_gadget:
                    table.reshape(1 << slot, 2, -1)[...] *= weight
        elif isinstance(fault, Liar):
            # the final output is bit 0: keep the earlier bits' distribution
            tables[t] = (table.reshape(-1, 2).sum(axis=1, keepdims=True)
                         * [fault.q, 1.0 - fault.q]).reshape(-1)
    return tables


def _flip_masks(frame: PauliFrame, gate) -> list[int]:
    """The record bits each Pauli on `gate`'s lines flips, identity first,
    or none if none flips any; the frame stands just after the gate, and an
    error flips bit j when it anticommutes with frame operator j: a line's
    z slice is an X error's flip mask on it and its x slice a Z error's."""
    masks = [0]
    for line in gate.targets:
        x, z = frame.xs[line], frame.zs[line]
        # with no error, an X, a Y and a Z error on this line
        masks = [a ^ b for a in masks for b in (0, z, z ^ x, x)]
    return masks if any(masks) else []


def _depolarizing_factor(flips, m: int, p_err: float) -> np.ndarray:
    """Every gate's depolarizing channel as one factor on the expectations
    <P_S> that `pauli.outcome_table` transforms.  A flip mask f multiplies
    <P_S> by (-1)^|S & f|, and on k lines Pauli -> flip mask is a group
    homomorphism, so sum_P (-1)^|S & mask(P)| is 4^k if P_S acts trivially
    on the gate's lines, else 0: the gate multiplies <P_S> by 1 or by 1 -
    lambda_k = 1 - p_err 4^k / (4^k - 1), which is <= 0 from p_err = 3/4.
    With h_k the histogram of `flips[k-1]` (a gate flipping nothing is
    trivial on every S), n_k(S) = (WHT(h_k)[0] - WHT(h_k)[S]) / 4^k gates,
    an exact integer, act non-trivially: prod_k (1 - lambda_k)^n_k(S)."""
    spectrum = walsh_hadamard(np.array(
        [np.bincount(masks, minlength=1 << m) for masks in flips], float),
        [1 << m] * 2)
    weight = np.array([[4.0], [16.0]])
    nontrivial = ((spectrum[:, :1] - spectrum) / weight).astype(np.int64)
    return np.prod((1 - p_err * weight / (weight - 1)) ** nontrivial, axis=0)


def _sample_table(seq: Union[Circuit, Stage], table: np.ndarray,
                  repetitions: int, seed: int) -> BatchResult:
    rng = np.random.default_rng(seed)
    cells = np.flatnonzero(table > 0)
    probs = table[cells]
    draws = rng.multinomial(repetitions, probs / probs.sum())
    drawn = draws > 0
    counts = dict(zip(cells[drawn].tolist(), draws[drawn].tolist()))
    return BatchResult(events=seq.events, counts=counts,
                       repetitions=repetitions)


class SimulatedDevice:
    """In-process prover.  The constructor fixes the hardware's fault model;
    the verifier only ever sees classical run records."""

    def __init__(self, fault: FaultModel = IDEAL):
        self.fault = fault
        # (sequence, {(slots, probes): table}) built ahead, or None
        self._memo = None

    def run_adaptive(self, circuit: AdaptiveCircuit, seed: int) -> int:
        """One adaptive run: gadget corrections applied immediately after
        their ancilla measurements, the record returned as one cell."""
        cell, resolved, table = _sample_run(circuit, self.fault, seed)
        self._memo = (resolved, {(len(resolved.events), ()): table})
        return cell

    def run_fixed_batch(self, seq: Union[FixedSequence, Stage],
                        repetitions: int, seed: int) -> BatchResult:
        """A batch of a fixed sequence or of a stage of one; a stage not in
        the memo (of an equal sequence) builds its and later stages' tables."""
        if repetitions <= 0:
            raise ValueError("repetitions must be positive")
        sequence, cuts = (seq.sequence, seq.cuts[seq.index:]) \
            if isinstance(seq, Stage) else (seq, ((len(seq.events), ()),))
        memo = self._memo
        if memo is None or memo[0] != sequence or cuts[0] not in memo[1]:
            memo = (sequence, dict(zip(cuts, record_tables(
                sequence, cuts, self.fault))))
        table = memo[1].pop(cuts[0])
        self._memo = memo if memo[1] else None
        return _sample_table(seq, table, repetitions, seed)
