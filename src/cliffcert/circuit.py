"""Circuit representation, text format, validation, and T-gadget compilation.

Circuits are lists of instructions over `n_lines` qubit lines, each line
carrying a 1-qubit product input.  Non-Clifford T gates are compiled into
TGADGET macro instructions (CX onto a magic-state ancilla, ancilla
measurement, outcome-conditioned S correction).  An adaptive circuit plus a
recorded outcome vector resolves into a fixed, fully non-adaptive sequence.

Text format (UTF-8, line oriented, '#' starts a comment):

    qubits <n>
    input <line> <ZERO|ONE|MAGIC|GENERAL theta phi>     # default ZERO
    <H|S|SDG|X|Y|Z|ID|T> <line>
    <CX|CZ|SWAP> <a> <b>
    TGADGET <target> <ancilla>
    MEASURE <line> <label>

A circuit is valid by construction: both circuit types run :func:`validate`
once when built and raise InvalidCircuitError on any violation.  The output
is the line of the last instruction, which must be a MEASURE; the text
format also wants that MEASURE labelled `out`.  A line is dead once
measured, and a gadget's ancilla is fresh: no instruction touches it before
its TGADGET, so each gadget readout is a fair coin whatever the target
holds.  Gadget identity lives in the structure (a TGADGET, or a fixed
sequence's `gadget_slots`), never in a label.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

ZERO = "ZERO"
ONE = "ONE"
MAGIC = "MAGIC"
GENERAL = "GENERAL"
INPUT_KINDS = frozenset({ZERO, ONE, MAGIC, GENERAL})

ONE_LINE_OPS = frozenset({"H", "S", "SDG", "X", "Y", "Z", "ID", "T"})
TWO_LINE_OPS = frozenset({"CX", "CZ", "SWAP"})
ALL_OPS = ONE_LINE_OPS | TWO_LINE_OPS | {"MEASURE", "TGADGET"}

OUTPUT_LABEL = "out"

# widest circuit: `validate` refuses a wider one, and the parser refuses a
# wider `qubits` before it allocates any per-line state
MAX_DECLARED_LINES = 1 << 16


class CircuitParseError(ValueError):
    """Malformed circuit text, with 1-based line/column of the offence."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class InputState:
    """1-qubit product input for one line.

    MAGIC is the equatorial state with relative phase pi/4 on |1>; it is
    numerically identical to GENERAL(pi/2, pi/4) but kept as its own kind so
    the prover can model magic-state preparation separately.
    """

    kind: str = ZERO
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.kind == GENERAL:
            if not (0.0 <= self.theta <= math.pi):
                raise ValueError(f"theta {self.theta} outside [0, pi]")
            if not (0.0 <= self.phi < 2.0 * math.pi):
                raise ValueError(f"phi {self.phi} outside [0, 2*pi)")
        elif self.theta or self.phi:
            raise ValueError(f"{self.kind} input takes no angles")

    def bloch(self) -> tuple[float, float, float]:
        """(<X>, <Y>, <Z>) of this 1-qubit state."""
        if self.kind == ZERO:
            return (0.0, 0.0, 1.0)
        if self.kind == ONE:
            return (0.0, 0.0, -1.0)
        if self.kind == MAGIC:
            r = math.sqrt(0.5)
            return (r, r, 0.0)
        st = math.sin(self.theta)
        return (st * math.cos(self.phi), st * math.sin(self.phi),
                math.cos(self.theta))


@dataclass(frozen=True)
class Instruction:
    """One circuit instruction.

    `ancilla` is set only for TGADGET, `label` only for MEASURE.  ID is the
    explicit no-op marker used for frozen S^0 gadget corrections, so resolved
    sequences are positionally identical across outcome vectors.
    """

    op: str
    targets: tuple[int, ...]
    ancilla: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self):
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown op {self.op!r}")
        if self.op in ONE_LINE_OPS and len(self.targets) != 1:
            raise ValueError(f"{self.op} takes exactly one target")
        if self.op in TWO_LINE_OPS:
            if len(self.targets) != 2 or self.targets[0] == self.targets[1]:
                raise ValueError(f"{self.op} takes two distinct targets")
        if self.op == "MEASURE":
            if len(self.targets) != 1:
                raise ValueError("MEASURE takes exactly one target")
            if not self.label:
                raise ValueError("MEASURE requires a label")
        if self.op == "TGADGET":
            if len(self.targets) != 1 or self.ancilla is None:
                raise ValueError("TGADGET takes one target and one ancilla")
            if self.ancilla == self.targets[0]:
                raise ValueError("TGADGET target and ancilla must differ")
        if self.op != "TGADGET" and self.ancilla is not None:
            raise ValueError(f"{self.op} takes no ancilla")
        if self.op != "MEASURE" and self.label is not None:
            raise ValueError(f"{self.op} takes no label")


class MeasurementEvent(NamedTuple):
    """One record slot: the line it reads and whether it is a gadget coin."""

    line: int
    is_gadget: bool


class _ValidCircuit:
    """What both circuit types share: validated once, when built."""

    def __post_init__(self):
        violations = validate(self)
        if violations:
            raise InvalidCircuitError(violations)

    @cached_property
    def events(self) -> tuple[MeasurementEvent, ...]:
        """The record slots in execution order, computed once; the gadget
        ones are TGADGET readouts and a fixed sequence's `gadget_slots`."""
        slots = set(getattr(self, "gadget_slots", ()))
        # from a list: tuple() of a generator resizes it, raising peak RSS
        return tuple([
            MeasurementEvent(ins.ancilla, True) if ins.op == "TGADGET"
            else MeasurementEvent(ins.targets[0], idx in slots)
            for idx, ins in enumerate(self.instructions)
            if ins.op in ("MEASURE", "TGADGET")])

    @property
    def output_line(self) -> int:
        """The line read by the final MEASURE."""
        return self.instructions[-1].targets[0]


@dataclass(frozen=True)
class AdaptiveCircuit(_ValidCircuit):
    """Circuit that may contain TGADGET (and, pre-compilation, raw T) ops."""

    n_lines: int
    inputs: tuple[InputState, ...]
    instructions: tuple[Instruction, ...]

    @cached_property
    def gadget_count(self) -> int:
        return sum(1 for ins in self.instructions if ins.op == "TGADGET")

    @cached_property
    def t_count(self) -> int:
        return sum(1 for ins in self.instructions if ins.op == "T")

    @cached_property
    def _expansion(self) -> tuple:
        """What :func:`resolve` copies, built once: gadget i as CX, MEASURE
        m<i> and ID, the MEASUREs' positions, and each gadget's S."""
        instructions, slots = [], []
        for ins in self.instructions:
            if ins.op != "TGADGET":
                instructions.append(ins)
                continue
            slots.append(len(instructions) + 1)
            instructions += [
                Instruction("CX", (ins.targets[0], ins.ancilla)),
                Instruction("MEASURE", (ins.ancilla,), label=f"m{len(slots)}"),
                Instruction("ID", (ins.targets[0],))]
        return tuple(instructions), tuple(slots), [
            Instruction("S", instructions[slot + 1].targets) for slot in slots]


@dataclass(frozen=True)
class FixedSequence(_ValidCircuit):
    """Fully resolved non-adaptive sequence: Clifford gates + measurements.

    `gadget_slots` holds the instruction index of each gadget's ancilla
    MEASURE, in increasing order; each must directly follow CX(target,
    ancilla) on a MAGIC line that no earlier instruction touches.  A
    gadget's frozen outcome is its correction, the instruction right after
    its slot: S on the target for 1, ID for 0.  Every gadget but the last
    must have one; a stage prefix's last gadget has none.
    """

    n_lines: int
    inputs: tuple[InputState, ...]
    instructions: tuple[Instruction, ...]
    gadget_slots: tuple[int, ...] = ()


Circuit = Union[AdaptiveCircuit, FixedSequence]


class Stage(NamedTuple):
    """A measurement-test stage, no prefix built: `sequence` cut after its
    slots-th record slot, a gadget readout, then MEASUREs of the unmeasured
    `probes`, for (slots, probes) = cuts[index]; a campaign shares `cuts`,
    the one stage format of `pauli` and `prover` alike."""

    sequence: FixedSequence
    cuts: tuple[tuple[int, tuple[int, ...]], ...]
    index: int

    @property
    def events(self) -> tuple[MeasurementEvent, ...]:
        """The sequence's first slots, then one per probe."""
        slots, probes = self.cuts[self.index]
        return self.sequence.events[:slots] + tuple(
            MeasurementEvent(line, False) for line in probes)


@dataclass(frozen=True)
class Violation:
    """One structural-invariant violation found by :func:`validate`."""

    code: str
    index: Optional[int]  # instruction index, None for circuit-level issues
    message: str


class InvalidCircuitError(ValueError):
    """A circuit broke structural rules; `violations` lists every one."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid circuit: " +
                         "; ".join(v.message for v in self.violations))


BAD_WIDTH = "BAD_WIDTH"
BAD_INPUTS = "BAD_INPUTS"
MEASURED_LINE_REUSED = "MEASURED_LINE_REUSED"
ANCILLA_NOT_MAGIC = "ANCILLA_NOT_MAGIC"
ANCILLA_NOT_FRESH = "ANCILLA_NOT_FRESH"
OUTPUT_NOT_FINAL_MEASUREMENT = "OUTPUT_NOT_FINAL_MEASUREMENT"
LINE_OUT_OF_RANGE = "LINE_OUT_OF_RANGE"
UNRESOLVED_GADGET = "UNRESOLVED_GADGET"
BAD_GADGET_SLOT = "BAD_GADGET_SLOT"


def _width_error(n_lines: int) -> Optional[str]:
    """Why no circuit has `n_lines` lines, or None if one may."""
    if 0 < n_lines <= MAX_DECLARED_LINES:
        return None
    return f"line count {n_lines} outside 1..{MAX_DECLARED_LINES}"


def validate(circuit: Circuit) -> list[Violation]:
    """Every structural violation of a circuit; an empty list means valid.

    One pass checks: 1..MAX_DECLARED_LINES lines with one input each; line
    indices in range; no line used after being measured (gadget ancillas
    count as measured); every gadget ancilla prepared in MAGIC and
    untouched before its gadget; and a MEASURE as the last instruction (its
    line is the output).  A fixed sequence also holds no T or TGADGET, and
    each of its `gadget_slots` is, in increasing order, a MEASURE right
    after CX(target, ancilla) on a MAGIC line that no earlier instruction
    touches, and each but the last is directly followed by its correction,
    S or ID on its target.  Both circuit types call this once at
    construction, so code holding a circuit never validates it again.
    """
    n = circuit.n_lines
    width = _width_error(n)
    if width:
        return [Violation(BAD_WIDTH, None, width)]
    if len(circuit.inputs) != n:
        return [Violation(BAD_INPUTS, None,
                          f"{len(circuit.inputs)} input states for "
                          f"{n} lines; need one per line")]
    out: list[Violation] = []
    fixed = isinstance(circuit, FixedSequence)
    slots: set[int] = set()
    previous = 0
    for slot in circuit.gadget_slots if fixed else ():
        if previous < slot < len(circuit.instructions):
            slots.add(slot)
            previous = slot
        else:
            out.append(Violation(BAD_GADGET_SLOT, None, f"gadget slot {slot} "
                                 "out of order or range"))
    measured: set[int] = set()
    first_touch: dict[int, int] = {}
    for idx, ins in enumerate(circuit.instructions):
        op = ins.op
        lines = (ins.targets[0], ins.ancilla) if op == "TGADGET" \
            else ins.targets
        for line in lines:
            if not 0 <= line < n:
                out.append(Violation(
                    LINE_OUT_OF_RANGE, idx,
                    f"line {line} not declared (lines 0..{n - 1})"))
            elif line in measured:
                out.append(Violation(
                    MEASURED_LINE_REUSED, idx,
                    f"line {line} used after its measurement"))
        if fixed and op in ("T", "TGADGET"):
            out.append(Violation(UNRESOLVED_GADGET, idx,
                                 f"fixed sequence may not contain {op}"))
        if idx in slots:
            out.extend(_slot_violations(circuit, idx, first_touch))
        if op == "MEASURE":
            measured.add(ins.targets[0])
        elif op == "TGADGET":
            anc = ins.ancilla
            if 0 <= anc < n and circuit.inputs[anc].kind != MAGIC:
                out.append(Violation(
                    ANCILLA_NOT_MAGIC, idx,
                    f"gadget ancilla {anc} has input "
                    f"{circuit.inputs[anc].kind}, expected MAGIC"))
            if anc in first_touch:
                out.append(Violation(
                    ANCILLA_NOT_FRESH, idx,
                    f"gadget ancilla {anc} used before its gadget"))
            measured.add(anc)
        for line in lines:
            first_touch.setdefault(line, idx)

    count = len(circuit.instructions)
    if not count or circuit.instructions[-1].op != "MEASURE":
        out.append(Violation(
            OUTPUT_NOT_FINAL_MEASUREMENT, count - 1 if count else None,
            "the final instruction must be a MEASURE of the output line"))
    return out


def _slot_violations(seq: FixedSequence, slot: int,
                     first_touch: dict[int, int]) -> list[Violation]:
    """The gadget-slot rules of :func:`validate` at instruction `slot`."""
    ins, cx = seq.instructions[slot], seq.instructions[slot - 1]
    if ins.op != "MEASURE" or cx.op != "CX" \
            or cx.targets[1] != ins.targets[0]:
        message = (f"gadget slot {slot} is not a MEASURE of the line its "
                   "preceding CX targets")
    elif not (0 <= ins.targets[0] < seq.n_lines
              and seq.inputs[ins.targets[0]].kind == MAGIC):
        message = (f"gadget slot {slot} measures line {ins.targets[0]}, "
                   "which is not a MAGIC line")
    elif first_touch[ins.targets[0]] != slot - 1:
        message = (f"gadget ancilla {ins.targets[0]} used before its "
                   f"gadget at slot {slot}")
    elif slot != seq.gadget_slots[-1] and not (
            slot + 1 < len(seq.instructions)
            and seq.instructions[slot + 1].op in ("S", "ID")
            and seq.instructions[slot + 1].targets == cx.targets[:1]):
        message = (f"gadget slot {slot} is not followed by its correction, "
                   f"S or ID on line {cx.targets[0]}")
    else:
        return []
    return [Violation(BAD_GADGET_SLOT, slot, message)]


def gadgetize(circuit: AdaptiveCircuit) -> AdaptiveCircuit:
    """Replace every raw T gate by a TGADGET onto a fresh MAGIC ancilla.

    Ancilla lines are appended after the existing lines, in T-gate order, so
    original line indices are stable.  T-free circuits are returned
    unchanged.
    """
    t_count = circuit.t_count
    if t_count == 0:
        return circuit
    if any(ins.op == "TGADGET" for ins in circuit.instructions):
        raise ValueError("circuit mixes raw T gates with existing TGADGETs")
    next_ancilla = circuit.n_lines
    new_instructions = []
    for ins in circuit.instructions:
        if ins.op == "T":
            new_instructions.append(Instruction(
                "TGADGET", ins.targets, ancilla=next_ancilla))
            next_ancilla += 1
        else:
            new_instructions.append(ins)
    return AdaptiveCircuit(
        n_lines=circuit.n_lines + t_count,
        inputs=circuit.inputs + (InputState(MAGIC),) * t_count,
        instructions=tuple(new_instructions),
    )


def resolve(circuit: AdaptiveCircuit,
            outcomes: Iterable[int]) -> FixedSequence:
    """Freeze an adaptive circuit to the fixed sequence for given outcomes.

    The i-th gadget becomes CX(target, ancilla), MEASURE(ancilla, m<i>),
    then S on the target if outcomes[i] else an explicit ID marker, keeping
    instruction positions identical for every outcome vector.  The MEASURE
    positions become the sequence's `gadget_slots`.  An outcome is 0 or 1.
    """
    try:
        outcomes = [operator.index(b) for b in outcomes]
    except TypeError:
        raise ValueError("outcomes must be bits") from None
    if any(b not in (0, 1) for b in outcomes):
        raise ValueError("outcomes must be bits")
    if len(outcomes) != circuit.gadget_count:
        raise ValueError(
            f"got {len(outcomes)} outcomes for {circuit.gadget_count} gadgets")
    if circuit.t_count:
        raise ValueError("gadgetize the circuit before resolving")
    template, slots, corrections = circuit._expansion
    instructions = list(template)
    for slot, correction, bit in zip(slots, corrections, outcomes):
        if bit:
            instructions[slot + 1] = correction
    return FixedSequence(
        n_lines=circuit.n_lines,
        inputs=circuit.inputs,
        instructions=tuple(instructions),
        gadget_slots=slots,
    )


def _format_input(line: int, state: InputState) -> str:
    if state.kind == GENERAL:
        return f"input {line} GENERAL {state.theta!r} {state.phi!r}"
    return f"input {line} {state.kind}"


def serialize(circuit: Circuit) -> str:
    """Canonical text form; ZERO inputs are omitted as the default."""
    lines = [f"qubits {circuit.n_lines}"]
    for i, state in enumerate(circuit.inputs):
        if state.kind != ZERO:
            lines.append(_format_input(i, state))
    for ins in circuit.instructions:
        if ins.op == "MEASURE":
            lines.append(f"MEASURE {ins.targets[0]} {ins.label}")
        elif ins.op == "TGADGET":
            lines.append(f"TGADGET {ins.targets[0]} {ins.ancilla}")
        elif len(ins.targets) == 1:
            lines.append(f"{ins.op} {ins.targets[0]}")
        else:
            lines.append(f"{ins.op} {ins.targets[0]} {ins.targets[1]}")
    return "\n".join(lines) + "\n"


class _LineParser:
    """Tokenised view of one source line with positioned errors."""

    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.tokens = [(m.group(0), m.start() + 1)
                       for m in re.finditer(r"\S+", text)]
        self.pos = 0

    def error(self, message: str, column: int = 1) -> CircuitParseError:
        return CircuitParseError(message, self.line_no, column)

    def end(self) -> int:
        """Column just past the last token."""
        return self.tokens[-1][1] + len(self.tokens[-1][0]) if self.tokens \
            else 1

    def take(self, what: str) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise self.error(f"expected {what}", self.end())
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def take_number(self, what: str, cast) -> tuple:
        """The next token read by `cast` (int or float), and its column."""
        tok, col = self.take(what)
        try:
            return cast(tok), col
        except ValueError:
            raise self.error(f"expected {what}, got {tok!r}", col) from None

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise self.error(f"unexpected trailing token {tok!r}", col)


def parse_circuit(text: str) -> AdaptiveCircuit:
    """Parse circuit text into an AdaptiveCircuit.

    The parser checks syntax only: tokens and numbers, directive order,
    input declarations, and the text format's `out` label on the final
    MEASURE; it applies `validate`'s width rule to `qubits` before it
    allocates the lines.  Every structural rule (operand count and
    distinctness, line range, reuse, fresh MAGIC ancillas, the final
    measurement) comes from building the circuit; the first violation is
    raised at its instruction's source line, or at the end of the text when
    there is no instruction.  Every error is a CircuitParseError with a
    1-based line and column.
    """
    n_lines: Optional[int] = None
    inputs: list[InputState] = []
    instructions: list[Instruction] = []
    positions: list[tuple[int, int]] = []
    declared_inputs: set[int] = set()
    label_at = (1, 1)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        lp = _LineParser(line_no, body)
        word, col0 = lp.take("a directive or instruction")

        if n_lines is None:
            if word != "qubits":
                raise lp.error("circuit must start with 'qubits <n>'", col0)
            count, col = lp.take_number("line count", int)
            width = _width_error(count)
            if width:
                raise lp.error(width, col)
            lp.finish()
            n_lines = count
            inputs = [InputState(ZERO)] * n_lines
            continue

        if word == "qubits":
            raise lp.error("duplicate 'qubits' directive", col0)

        if word == "input":
            if instructions:
                raise lp.error("input declarations must precede instructions",
                               col0)
            idx, col = lp.take_number("line index", int)
            if not 0 <= idx < n_lines:
                raise lp.error(f"line {idx} not declared (qubits {n_lines})",
                               col)
            if idx in declared_inputs:
                raise lp.error(f"duplicate input declaration for line {idx}",
                               col)
            kind, kcol = lp.take("input kind")
            if kind not in INPUT_KINDS:
                raise lp.error(f"unknown input kind {kind!r}", kcol)
            if kind == GENERAL:
                theta, tcol = lp.take_number("theta", float)
                phi, pcol = lp.take_number("phi", float)
                try:
                    state = InputState(GENERAL, theta, phi)
                except ValueError as exc:
                    raise lp.error(str(exc), tcol) from None
            else:
                state = InputState(kind)
            lp.finish()
            declared_inputs.add(idx)
            inputs[idx] = state
            continue

        if word not in ALL_OPS:
            raise lp.error(f"unknown instruction {word!r}", col0)
        names = ("target line", "ancilla line") if word == "TGADGET" \
            else ("first line", "second line") if word in TWO_LINE_OPS \
            else ("target line",)
        operands = tuple(lp.take_number(name, int)[0] for name in names)
        label = None
        if word == "MEASURE":
            label, label_col = lp.take("outcome label")
            label_at = (line_no, label_col)
        lp.finish()
        try:
            if word == "TGADGET":
                ins = Instruction(word, operands[:1], ancilla=operands[1])
            else:
                ins = Instruction(word, operands, label=label)
        except ValueError as exc:
            raise lp.error(str(exc), col0) from None
        instructions.append(ins)
        positions.append((line_no, col0))

    if n_lines is None:
        raise CircuitParseError("empty circuit text", 1, 1)
    try:
        circuit = AdaptiveCircuit(n_lines, tuple(inputs), tuple(instructions))
    except InvalidCircuitError as exc:
        first = next((v for v in exc.violations if v.index is not None),
                     exc.violations[0])
        where = (lp.line_no, lp.end()) if first.index is None \
            else positions[first.index]
        raise CircuitParseError(first.message, *where) from None
    if instructions[-1].label != OUTPUT_LABEL:
        raise CircuitParseError(
            f"the final MEASURE must be labelled {OUTPUT_LABEL!r}", *label_at)
    return circuit
