"""Parser, serializer, validation, gadgetization, and resolution tests."""

import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcert.circuit import (ANCILLA_NOT_FRESH, BAD_WIDTH,
                               MAX_DECLARED_LINES,
                               AdaptiveCircuit, CircuitParseError,
                               FixedSequence, GENERAL, InputState,
                               Instruction, InvalidCircuitError, MAGIC,
                               MEASURED_LINE_REUSED,
                               OUTPUT_NOT_FINAL_MEASUREMENT, ZERO, gadgetize,
                               parse_circuit, resolve, serialize, validate)

from helpers import (CIRCUITS, frozen_outcomes, random_gadget_circuits,
                     random_t_circuit, resolve_oracle, structurally_equal)


def simple(text):
    return parse_circuit(text)


class TestParser:
    def test_minimal_circuit(self):
        c = simple("qubits 1\ninput 0 ZERO\nH 0\nMEASURE 0 out\n")
        assert c.n_lines == 1
        assert len(c.instructions) == 2
        assert c.instructions[0] == Instruction("H", (0,))
        assert c.output_line == 0

    def test_default_input_is_zero(self):
        c = simple("qubits 2\nH 0\nMEASURE 0 out\n")
        assert c.inputs == (InputState(ZERO), InputState(ZERO))

    def test_comments_and_blank_lines(self):
        c = simple("# header\n\nqubits 1\nH 0  # gate\n\nMEASURE 0 out\n")
        assert len(c.instructions) == 2

    def test_general_input_angles(self):
        c = simple("qubits 1\ninput 0 GENERAL 1.0 2.0\nMEASURE 0 out\n")
        assert c.inputs[0] == InputState(GENERAL, 1.0, 2.0)

    def test_non_magic_gadget_ancilla_rejected(self):
        text = ("qubits 5\ninput 2 MAGIC\nTGADGET 2 4\nMEASURE 0 out\n")
        with pytest.raises(CircuitParseError) as err:
            simple(text)
        assert "MAGIC" in str(err.value)
        assert err.value.line == 3

    def test_undeclared_line_rejected(self):
        with pytest.raises(CircuitParseError) as err:
            simple("qubits 2\nH 5\nMEASURE 0 out\n")
        assert err.value.line == 2
        assert "not declared" in err.value.reason

    def test_header_only_text_rejected(self):
        # no instruction, so no final MEASURE: the error sits at the end
        with pytest.raises(CircuitParseError) as err:
            simple("qubits 2\ninput 1 MAGIC\n")
        assert (err.value.line, err.value.column) == (2, 14)
        assert "final instruction must be a MEASURE" in err.value.reason

    @pytest.mark.parametrize("text, line, column, reason", [
        ("qubits 1\nH 0\n", 2, 1, "final instruction must be a MEASURE"),
        ("qubits 2\nMEASURE 0 a\nMEASURE 1 result\n", 3, 11,
         "labelled 'out'"),
        ("qubits 2\nCX 1 1\nMEASURE 0 out\n", 2, 1, "distinct"),
        ("qubits 3\ninput 2 MAGIC\nTGADGET 2 2\nMEASURE 0 out\n", 3, 1,
         "must differ"),
        ("qubits 2\nMEASURE 0 a\nH 0\nH 5\nH 1\n", 3, 1,
         "used after its measurement"),
    ], ids=["final_not_measure", "final_label", "cx_repeated_line",
            "gadget_on_itself", "first_of_several"])
    def test_structural_errors_positioned(self, text, line, column, reason):
        with pytest.raises(CircuitParseError) as err:
            simple(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert reason in err.value.reason

    def test_declared_width_capped(self):
        assert simple(f"qubits {MAX_DECLARED_LINES}\n"
                      "MEASURE 0 out\n").n_lines == MAX_DECLARED_LINES
        for count in (MAX_DECLARED_LINES + 1, 100_000_000_000):
            with pytest.raises(CircuitParseError) as err:
                simple(f"qubits {count}\nMEASURE 0 out\n")
            assert (err.value.line, err.value.column) == (1, 8)
            assert str(MAX_DECLARED_LINES) in err.value.reason

    def test_arity_mismatch_rejected(self):
        with pytest.raises(CircuitParseError):
            simple("qubits 2\nCX 0\nMEASURE 0 out\n")
        with pytest.raises(CircuitParseError):
            simple("qubits 2\nH 0 1\nMEASURE 0 out\n")

    def test_measured_line_reuse_rejected(self):
        with pytest.raises(CircuitParseError) as err:
            simple("qubits 2\nMEASURE 0 a\nH 0\nMEASURE 1 out\n")
        assert "used after its measurement" in err.value.reason
        assert err.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("qubits 3\ninput 1 MAGIC\nCX 1 2\nMEASURE 2 a\nTGADGET 0 1\n"
         "MEASURE 0 out\n", 5),
        ("qubits 3\ninput 1 MAGIC\nH 1\nTGADGET 0 1\nMEASURE 0 out\n", 4),
    ], ids=["measured", "gate"])
    def test_used_gadget_ancilla_rejected(self, text, line):
        with pytest.raises(CircuitParseError) as err:
            simple(text)
        assert err.value.line == line
        assert "used before its gadget" in err.value.reason

    def test_error_positions_are_one_based(self):
        with pytest.raises(CircuitParseError) as err:
            simple("qubits 1\nBOGUS 0\n")
        assert err.value.line == 2
        assert err.value.column == 1

    def test_angle_out_of_range(self):
        with pytest.raises(CircuitParseError):
            simple("qubits 1\ninput 0 GENERAL 4.0 0.0\nMEASURE 0 out\n")

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_parser_totality(self, text):
        # every string either parses or raises a positioned error
        try:
            parse_circuit(text)
        except CircuitParseError as exc:
            assert exc.line >= 1
            assert exc.column >= 1


class TestSerialize:
    def test_corpus_file_round_trip(self):
        source = (CIRCUITS / "roundtrip_corpus.circ").read_text()
        c = parse_circuit(source)
        assert len(c.instructions) == 20
        canonical = serialize(c)
        assert parse_circuit(canonical) == c
        assert serialize(parse_circuit(canonical)) == canonical

    def test_gadgetized_circuit_contains_tgadget_line(self):
        c = simple("qubits 1\nT 0\nMEASURE 0 out\n")
        assert "TGADGET 0 1" in serialize(gadgetize(c))

    def test_random_circuits_round_trip(self):
        rng = random.Random(20240)
        for _ in range(100):
            c = random_t_circuit(rng, rng.randint(1, 6), rng.randint(0, 25),
                                 rng.randint(0, 3))
            assert parse_circuit(serialize(c)) == c

    def test_fixed_sequence_round_trips_structurally(self):
        c = gadgetize(simple("qubits 1\nT 0\nH 0\nMEASURE 0 out\n"))
        seq = resolve(c, (1,))
        parsed = parse_circuit(serialize(seq))
        assert structurally_equal(parsed, seq)


def violations_at_construction(*args):
    """(code, index) of each violation that stops AdaptiveCircuit(*args)."""
    with pytest.raises(InvalidCircuitError) as err:
        AdaptiveCircuit(*args)
    return [(v.code, v.index) for v in err.value.violations]


class TestValidate:
    def test_well_formed_gadgetized_circuit(self):
        c = gadgetize(simple("qubits 2\nT 0\nCX 0 1\nMEASURE 1 out\n"))
        assert validate(c) == []

    def test_measured_line_reuse_detected(self):
        found = violations_at_construction(
            2, (InputState(ZERO), InputState(MAGIC)),
            (Instruction("TGADGET", (0,), ancilla=1),
             Instruction("CX", (0, 1)),
             Instruction("MEASURE", (0,), label="out")))
        assert (MEASURED_LINE_REUSED, 1) in found

    def test_gadget_ancilla_touched_before_its_gadget(self):
        assert violations_at_construction(
            3, (InputState(ZERO), InputState(MAGIC), InputState(ZERO)),
            (Instruction("CX", (1, 2)),
             Instruction("MEASURE", (2,), label="a"),
             Instruction("TGADGET", (0,), ancilla=1),
             Instruction("MEASURE", (0,), label="out"))) == \
            [(ANCILLA_NOT_FRESH, 2)]

    def test_missing_output_measurement(self):
        assert violations_at_construction(
            1, (InputState(ZERO),), (Instruction("H", (0,)),)) == \
            [(OUTPUT_NOT_FINAL_MEASUREMENT, 0)]

    def test_no_line_use_after_measurement_scan(self):
        rng = random.Random(5)
        for _ in range(50):
            c = random_t_circuit(rng, rng.randint(1, 5), 20, 2)
            g = gadgetize(c)
            assert validate(g) == []
            seen = set()
            for ins in g.instructions:
                lines = (ins.targets[0], ins.ancilla) \
                    if ins.op == "TGADGET" else ins.targets
                assert not (set(lines) & seen)
                if ins.op == "MEASURE":
                    seen.add(ins.targets[0])
                elif ins.op == "TGADGET":
                    seen.add(ins.ancilla)


def _slotted(ops, slots):
    """Fixed sequence on lines (ZERO, MAGIC, ZERO) running `ops`, then
    MEASURE 0 out, with the given gadget slots."""
    instructions = tuple(
        Instruction(op, lines, label="g" if op == "MEASURE" else None)
        for op, *lines in ops) + (Instruction("MEASURE", (0,), label="out"),)
    inputs = (InputState(ZERO), InputState(MAGIC), InputState(ZERO))
    return FixedSequence(3, inputs, instructions, slots)


class TestGadgetSlots:
    def test_well_formed_slot_accepted(self):
        seq = _slotted((("H", 0), ("CX", 0, 1), ("MEASURE", 1)), (2,))
        assert seq.gadget_slots == (2,)

    @pytest.mark.parametrize("ops, slots, reason", [
        ((("H", 0), ("CX", 0, 1), ("MEASURE", 1)), (4,), "order or range"),
        ((("H", 0), ("CX", 0, 1), ("MEASURE", 1)), (1,), "not a MEASURE"),
        ((("CX", 0, 1), ("MEASURE", 1)), (1, 1), "order or range"),
        ((("CX", 0, 2), ("MEASURE", 2)), (1,), "not a MAGIC line"),
        ((("H", 1), ("CX", 0, 1), ("MEASURE", 1)), (2,),
         "used before its gadget"),
    ], ids=["out_of_range", "not_measure", "repeated", "not_magic",
            "ancilla_touched_earlier"])
    def test_malformed_slots_rejected(self, ops, slots, reason):
        with pytest.raises(ValueError, match=reason):
            _slotted(ops, slots)

    def test_gadget_without_correction_rejected(self):
        # every gadget but the last carries its frozen bit as S or ID on
        # its target; without the first ID the first gadget would have no
        # bit, and frozen_outcomes would read (1,) for two gadgets
        r = resolve(gadgetize(parse_circuit(
            "qubits 1\nH 0\nT 0\nT 0\nMEASURE 0 out\n")), (0, 1))
        assert r.instructions[3] == Instruction("ID", (0,))
        assert frozen_outcomes(r) == (0, 1)
        with pytest.raises(InvalidCircuitError, match="not followed by its "
                           "correction, S or ID on line 0"):
            FixedSequence(r.n_lines, r.inputs,
                          r.instructions[:3] + r.instructions[4:], (2, 4))
        # a stage prefix: the last gadget has no correction, and builds
        prefix = FixedSequence(r.n_lines, r.inputs, r.instructions[:6],
                               (2, 5))
        assert frozen_outcomes(prefix) == (0,)
        # a gadget readout ending the sequence before a later (here out of
        # range) slot has no correction either
        with pytest.raises(InvalidCircuitError, match="not followed"):
            FixedSequence(2, (InputState(ZERO), InputState(MAGIC)),
                          (Instruction("CX", (0, 1)),
                           Instruction("MEASURE", (1,), label="out")),
                          (1, 5))


class TestGadgetize:
    def test_t_free_circuit_unchanged(self):
        c = simple("qubits 1\nH 0\nMEASURE 0 out\n")
        assert gadgetize(c) == c

    def test_idempotent(self):
        c = simple("qubits 1\nT 0\nMEASURE 0 out\n")
        g = gadgetize(c)
        assert gadgetize(g) == g

    def test_single_t(self):
        c = simple("qubits 1\nT 0\nMEASURE 0 out\n")
        g = gadgetize(c)
        assert g.n_lines == 2
        assert g.instructions[0] == Instruction("TGADGET", (0,), ancilla=1)
        assert g.inputs[1].kind == MAGIC

    def test_three_t_gates_three_magic_lines(self):
        c = simple("qubits 2\nT 0\nH 0\nT 1\nT 0\nMEASURE 0 out\n")
        g = gadgetize(c)
        assert g.n_lines == 5
        assert [i.kind for i in g.inputs[2:]] == [MAGIC] * 3
        ancillas = [i.ancilla for i in g.instructions if i.op == "TGADGET"]
        assert ancillas == [2, 3, 4]  # gadget order follows T-gate order
        assert validate(g) == []

    def test_result_wider_than_cap_rejected(self):
        # the width cap is a circuit rule, so gadgetize cannot build a
        # circuit the parser would refuse
        c = simple(f"qubits {MAX_DECLARED_LINES}\nT 0\nMEASURE 0 out\n")
        with pytest.raises(InvalidCircuitError) as err:
            gadgetize(c)
        assert [(v.code, v.index) for v in err.value.violations] == \
            [(BAD_WIDTH, None)]
        assert str(MAX_DECLARED_LINES) in str(err.value)

    def test_mixed_t_and_tgadget_rejected(self):
        c = AdaptiveCircuit(
            2, (InputState(ZERO), InputState(MAGIC)),
            (Instruction("T", (0,)),
             Instruction("TGADGET", (0,), ancilla=1),
             Instruction("MEASURE", (0,), label="out")))
        with pytest.raises(ValueError):
            gadgetize(c)


class TestResolve:
    @pytest.fixture
    def two_gadget(self):
        return gadgetize(simple("qubits 1\nH 0\nT 0\nT 0\nMEASURE 0 out\n"))

    def test_all_zero_outcomes_emit_id_markers(self, two_gadget):
        seq = resolve(two_gadget, (0, 0))
        ops = [i.op for i in seq.instructions]
        assert ops.count("ID") == 2
        assert ops.count("S") == 0

    def test_all_one_outcomes_emit_s_corrections(self, two_gadget):
        seq = resolve(two_gadget, (1, 1))
        ops = [i.op for i in seq.instructions]
        assert ops.count("S") == 2
        assert ops.count("ID") == 0

    def test_positionally_comparable_across_outcomes(self, two_gadget):
        seqs = [resolve(two_gadget, bits)
                for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
        length = {len(s.instructions) for s in seqs}
        assert len(length) == 1
        for pos in range(len(seqs[0].instructions)):
            ops = {s.instructions[pos].op for s in seqs}
            assert ops <= {"S", "ID"} or len(ops) == 1

    def test_frozen_outcomes_read_off_the_corrections(self, two_gadget):
        # the bits are the S/ID gates themselves, so no sequence carries
        # bits that disagree with its corrections
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            seq = resolve(two_gadget, bits)
            assert frozen_outcomes(seq) == bits
            at = seq.gadget_slots[0] + 1
            flipped = Instruction("ID" if bits[0] else "S",
                                  seq.instructions[at].targets)
            assert frozen_outcomes(dataclasses.replace(seq, instructions=(
                seq.instructions[:at] + (flipped,)
                + seq.instructions[at + 1:]))) == (1 - bits[0], bits[1])

    def test_deterministic_byte_identical(self, two_gadget):
        a = serialize(resolve(two_gadget, (1, 0)))
        b = serialize(resolve(two_gadget, (1, 0)))
        assert a == b

    def test_gadget_measure_labels(self, two_gadget):
        seq = resolve(two_gadget, (0, 1))
        labels = [i.label for i in seq.instructions if i.op == "MEASURE"]
        assert labels == ["m1", "m2", "out"]

    def test_gadget_slots_mark_ancilla_measurements(self, two_gadget):
        seq = resolve(two_gadget, (0, 1))
        ancillas = [i.ancilla for i in two_gadget.instructions
                    if i.op == "TGADGET"]
        assert [seq.instructions[s].targets for s in seq.gadget_slots] == \
            [(a,) for a in ancillas]
        assert resolve(simple("qubits 1\nH 0\nMEASURE 0 out\n"),
                       ()).gadget_slots == ()

    def test_outcome_length_mismatch(self, two_gadget):
        with pytest.raises(ValueError):
            resolve(two_gadget, (0,))

    @pytest.mark.parametrize("bad", [0.9, 1.0, "1", "0", 2, -1, None, b"\x01"],
                             ids=repr)
    def test_non_bit_outcomes_rejected(self, two_gadget, bad):
        # nothing is truncated or parsed into a bit: int(0.9) would freeze
        # 0, and int("1") would freeze 1
        with pytest.raises(ValueError, match="outcomes must be bits"):
            resolve(two_gadget, (0, bad))

    def test_integer_outcomes_accepted(self, two_gadget):
        assert resolve(two_gadget, (np.int64(1), True)) == \
            resolve(two_gadget, (1, 1))

    def test_resolve_equals_oracle_on_every_outcome(self):
        # the cached expansion against the loop that builds every gadget
        # afresh: the bundled circuits and the random circuits of the
        # prover tests' corpus, gadget_sequences(200, 97), each on every
        # outcome vector
        circuits = [gadgetize(simple((CIRCUITS / name).read_text()))
                    for name in ("deterministic_t3.circ", "phase_probe.circ")]
        # the parser corpus, its raw T dropped: two TGADGETs around a user
        # measurement
        corpus = simple((CIRCUITS / "roundtrip_corpus.circ").read_text())
        circuits.append(dataclasses.replace(corpus, instructions=tuple(
            ins for ins in corpus.instructions if ins.op != "T")))
        circuits += [c for c, _ in random_gadget_circuits(
            random.Random(97), 200)]
        compared = 0
        for circuit in circuits:
            for bits in itertools.product((0, 1),
                                          repeat=circuit.gadget_count):
                seq, want = resolve(circuit, bits), resolve_oracle(
                    circuit, bits)
                assert seq == want
                assert seq.instructions == want.instructions
                assert [i.label for i in seq.instructions] == \
                    [i.label for i in want.instructions]
                assert seq.gadget_slots == want.gadget_slots
                assert validate(seq) == []
                compared += 1
        assert compared > 1000

    def test_no_gadgets_left(self, two_gadget):
        seq = resolve(two_gadget, (0, 1))
        assert all(i.op not in ("T", "TGADGET") for i in seq.instructions)
        assert frozen_outcomes(seq) == (0, 1)

    def test_raw_t_rejected(self):
        c = simple("qubits 1\nT 0\nMEASURE 0 out\n")
        with pytest.raises(ValueError):
            resolve(c, ())


class TestInputState:
    def test_magic_matches_general_representation(self):
        magic = InputState(MAGIC).bloch()
        general = InputState(GENERAL, math.pi / 2, math.pi / 4).bloch()
        assert max(abs(a - b) for a, b in zip(magic, general)) < 1e-15

    def test_bloch_vectors_are_unit(self):
        rng = random.Random(3)
        for _ in range(50):
            theta = math.acos(rng.uniform(-1, 1))
            phi = rng.uniform(0, 6.28)
            x, y, z = InputState(GENERAL, theta, phi).bloch()
            assert abs(x * x + y * y + z * z - 1.0) < 1e-12

    def test_angle_ranges_enforced(self):
        with pytest.raises(ValueError):
            InputState(GENERAL, -0.1, 0.0)
        with pytest.raises(ValueError):
            InputState(GENERAL, 1.0, 7.0)
