"""Pauli algebra against dense-matrix oracles, and probability engines."""

import itertools
import math
import random

import numpy as np
import pytest

from cliffcert.circuit import (FixedSequence, InputState, Instruction, MAGIC,
                               ZERO, gadgetize, resolve)
from cliffcert.pauli import (K_MAX, PauliFrame, backpropagate,
                             joint_output_probability, outcome_table,
                             single_output_probability)
from cliffcert import protocol
from cliffcert.prover import IDEAL, _flip_masks

from helpers import (CLIFFORD_1Q, PauliOperator, commutes,
                     dense_record_table, expectation, frame_holding,
                     frame_operators, from_label, gadget_sequences,
                     gate_matrix, label,
                     measured_lines_table, measured_operators, multiply,
                     outcome_distribution, pauli_matrix, pull_back,
                     random_clifford_sequence, random_fixed_sequence,
                     random_inputs, random_pauli, random_t_circuit,
                     stage_prefixes,
                     scalar_conjugate, scalar_measured_operators,
                     scalar_pull_back)

ALL_1Q = [from_label(l, s)
          for l in ("I", "X", "Y", "Z") for s in (1, -1)]
ALL_2Q = [from_label(a + b, s)
          for a in "IXYZ" for b in "IXYZ" for s in (1, -1)]


class TestConjugate:
    def test_h_swaps_x_and_z(self):
        h = Instruction("H", (0,))
        assert label(pull_back(from_label("Z"), (h,))) == "+X"
        assert label(pull_back(from_label("X"), (h,))) == "+Z"
        assert label(pull_back(from_label("Y"), (h,))) == "-Y"

    def test_s_inverse_image(self):
        # S^dagger X S = -Y and S^dagger Y S = +X (2x2 matrix oracle below
        # pins every case; these two document the orientation)
        s = Instruction("S", (0,))
        assert label(pull_back(from_label("X"), (s,))) == "-Y"
        assert label(pull_back(from_label("Y"), (s,))) == "+X"

    def test_cx_grows_z_support(self):
        cx = Instruction("CX", (0, 1))
        got = pull_back(from_label("IZ"), (cx,))
        assert label(got) == "+ZZ"

    def test_exhaustive_1q_matrix_oracle(self):
        for op in ("H", "S", "SDG", "X", "Y", "Z", "ID"):
            ins = Instruction(op, (0,))
            g = gate_matrix(ins, 1)
            for p in ALL_1Q:
                want = g.conj().T @ pauli_matrix(p) @ g
                got = pauli_matrix(pull_back(p, (ins,)))
                assert np.allclose(got, want, atol=1e-12), (op, label(p))

    def test_exhaustive_2q_matrix_oracle(self):
        for op in ("CX", "CZ", "SWAP"):
            for targets in ((0, 1), (1, 0)):
                ins = Instruction(op, targets)
                g = gate_matrix(ins, 2)
                for p in ALL_2Q:
                    want = g.conj().T @ pauli_matrix(p) @ g
                    got = pauli_matrix(pull_back(p, (ins,)))
                    assert np.allclose(got, want, atol=1e-12), \
                        (op, targets, label(p))

    def test_group_action_composition(self):
        rng = random.Random(11)
        gates = [Instruction(op, (0,)) for op in ("H", "S", "SDG", "X")] + \
                [Instruction(op, (0, 1)) for op in ("CX", "CZ")] + \
                [Instruction(op, (1, 0)) for op in ("CX", "SWAP")]
        for _ in range(200):
            g1, g2 = rng.choice(gates), rng.choice(gates)
            p = random_pauli(rng, 2)
            got = pauli_matrix(pull_back(p, (g2, g1)))
            u = gate_matrix(g1, 2) @ gate_matrix(g2, 2)
            want = u.conj().T @ pauli_matrix(p) @ u
            assert np.allclose(got, want, atol=1e-12)

    def test_commutation_preserved(self):
        rng = random.Random(13)
        gates = [Instruction("H", (0,)), Instruction("S", (1,)),
                 Instruction("CX", (0, 1)), Instruction("CZ", (1, 2)),
                 Instruction("SWAP", (0, 2))]
        for _ in range(200):
            p, q = random_pauli(rng, 3), random_pauli(rng, 3)
            g = rng.choice(gates)
            assert commutes(p, q) == \
                commutes(pull_back(p, (g,)), pull_back(q, (g,)))

    def test_t_rejected(self):
        with pytest.raises(ValueError):
            pull_back(PauliOperator(1, 0, 0), (Instruction("T", (0,)),))


class TestPauliFrame:
    WIDTHS = (3, 9, 70, 130)  # 70 and 130 lines span two and three words

    def test_sweep_matches_scalar_reference(self):
        # every measured operator from one sweep equals its own scalar
        # pull-back from its MEASURE, signs included, for any line order
        rng = random.Random(71)
        for _ in range(40):
            n = rng.choice(self.WIDTHS)
            seq = random_clifford_sequence(rng, n, rng.randint(n, 4 * n))
            lines = [ins.targets[0] for ins in seq.instructions
                     if ins.op == "MEASURE"]
            rng.shuffle(lines)
            lines = lines[:rng.randint(1, len(lines))]
            assert measured_operators(seq, lines) == \
                scalar_measured_operators(seq, lines)

    def test_frame_at_each_gate_matches_reference(self):
        # what the sweep yields: just after each gate, operator i is slot
        # i's Z carried back from its MEASURE by the scalar rules, or the
        # identity while the walk has not reached that MEASURE
        rng = random.Random(73)
        for _ in range(20):
            n = rng.choice(self.WIDTHS)
            seq = random_clifford_sequence(rng, n, rng.randint(n, 2 * n))
            lines = [ins.targets[0] for ins in seq.instructions
                     if ins.op == "MEASURE"]
            frame = PauliFrame(n)
            walk = frame.sweep(seq.instructions,
                               {line: ((line, i),)
                                for i, line in enumerate(lines)})
            carried = dict.fromkeys(lines, PauliOperator(n, 0, 0))
            for ins in reversed(seq.instructions):
                if ins.op == "MEASURE":
                    carried[ins.targets[0]] = PauliOperator.z_on(
                        n, ins.targets[0])
                elif ins.op != "ID":
                    assert next(walk) is ins
                    assert frame_operators(frame, len(lines)) == \
                        [carried[line] for line in lines]
                    carried = {line: scalar_conjugate(op, ins)
                               for line, op in carried.items()}
            assert next(walk, None) is None
            assert frame_operators(frame, len(lines)) == \
                [carried[line] for line in lines]

    def test_pull_back_matches_scalar_for_any_pauli(self):
        # one operator with X, Y and Z factors and either sign
        rng = random.Random(79)
        for _ in range(100):
            n = rng.choice(self.WIDTHS)
            seq = random_clifford_sequence(rng, n, rng.randint(1, 3 * n))
            p = random_pauli(rng, n)
            assert pull_back(p, seq.instructions) == \
                scalar_pull_back(p, seq.instructions)

    def test_tgadget_rejected_in_a_sweep(self):
        with pytest.raises(ValueError, match="not unitary"):
            pull_back(PauliOperator.z_on(2, 0),
                      (Instruction("TGADGET", (0,), ancilla=1),))


class TestEntryRule:
    """A measured line is never touched again, so its Z entered at any
    MEASURE at or after its own is swept to the same frame bits: the one
    entry rule of the record and theory tables."""

    def test_entering_at_a_later_measure_changes_no_frame_bit(self):
        # every measured line's Z enters at its own MEASURE, at a random
        # later one, or at the final one, slot i as operator i.  At every
        # gate the frames differ only by the bare Z of each operator
        # entered late whose own MEASURE the walk has not reached, a line
        # no gate there touches: the same xs and signs, the same flip
        # masks, and zs and touched equal once those Z are added; after
        # the walk, everything is equal
        rng = random.Random(89)
        checked = 0
        for seq in gadget_sequences(40, 89):
            lines = [ins.targets[0] for ins in seq.instructions
                     if ins.op == "MEASURE"]
            own = {line: [(line, op)] for op, line in enumerate(lines)}
            for cuts in ([rng.choice(lines[op:]) for op in range(len(lines))],
                         [lines[-1]] * len(lines)):
                late: dict = {}
                for op, (line, cut) in enumerate(zip(lines, cuts)):
                    late.setdefault(cut, []).append((line, op))
                early, exact = PauliFrame(seq.n_lines), PauliFrame(seq.n_lines)
                walks = (early.sweep(seq.instructions, late),
                         exact.sweep(seq.instructions, own))
                entered, reached = set(), set()
                for ins in reversed(seq.instructions):
                    if ins.op == "MEASURE":
                        entered.update(line for line, _ in
                                       late.get(ins.targets[0], ()))
                        reached.add(ins.targets[0])
                    elif ins.op != "ID":
                        assert [next(walk) for walk in walks] == [ins, ins]
                        pending = entered - reached
                        zs = list(exact.zs)
                        for op, line in enumerate(lines):
                            if line in pending:
                                zs[line] |= 1 << op
                        assert (early.xs, early.zs, early.signs) == \
                            (exact.xs, zs, exact.signs)
                        assert early.touched == exact.touched | pending
                        assert _flip_masks(early, ins) == \
                            _flip_masks(exact, ins)
                        checked += bool(pending)
                assert [next(walk, None) for walk in walks] == [None, None]
                assert (early.xs, early.zs, early.signs, early.touched) == \
                    (exact.xs, exact.zs, exact.signs, exact.touched)
        # the late entry was in force at some gates, not only at the end
        assert checked > 100


class TestMultiply:
    def test_self_product_is_identity(self):
        phase, res = multiply(from_label("X"), from_label("X"))
        assert phase == 1
        assert res == PauliOperator(1, 0, 0)

    def test_xz_gives_minus_i_y(self):
        phase, res = multiply(from_label("X"), from_label("Z"))
        assert phase == -1j
        assert label(res) == "+Y"

    def test_overlapping_z_strings(self):
        phase, res = multiply(from_label("ZZI"), from_label("IZZ"))
        assert phase == 1
        assert label(res) == "+ZIZ"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(PauliOperator(1, 0, 0), PauliOperator(2, 0, 0))

    def test_matrix_oracle_random(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 3)
            p, q = random_pauli(rng, n), random_pauli(rng, n)
            phase, res = multiply(p, q)
            assert res.sign == 1
            got = phase * pauli_matrix(res)
            want = pauli_matrix(p) @ pauli_matrix(q)
            assert np.allclose(got, want, atol=1e-12)

    def test_commuting_hermitian_pairs_have_real_phase(self):
        rng = random.Random(19)
        seen = 0
        while seen < 100:
            p, q = random_pauli(rng, 3), random_pauli(rng, 3)
            if not commutes(p, q):
                continue
            seen += 1
            phase, _ = multiply(p, q)
            assert phase in (1, -1)


class TestExpectation:
    def test_z_on_zero(self):
        assert expectation(from_label("Z"), (InputState(ZERO),)) == 1.0

    def test_z_on_magic_is_zero(self):
        assert expectation(from_label("Z"), (InputState(MAGIC),)) == 0.0

    def test_xx_on_two_magic(self):
        got = expectation(from_label("XX"),
                          (InputState(MAGIC), InputState(MAGIC)))
        assert abs(got - 0.5) < 1e-15

    def test_in_unit_interval(self):
        rng = random.Random(23)
        from helpers import random_inputs
        for _ in range(200):
            n = rng.randint(1, 5)
            value = expectation(random_pauli(rng, n), random_inputs(rng, n))
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def backpropagated(seq, line: int, at=None) -> PauliOperator:
    """`backpropagate`'s operator, read off its one-operator frame."""
    return frame_operators(backpropagate(seq, line, at), 1)[0]


class TestBackpropagate:
    def setup_method(self):
        self.empty = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("MEASURE", (1,), label="out"),))

    def test_identity_circuit(self):
        assert backpropagated(self.empty, 1, 0) == PauliOperator.z_on(2, 1)

    def test_single_h(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")))
        assert label(backpropagated(seq, 0)) == "+X"

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            backpropagate(self.empty, 0, 5)

    def test_random_sequences_match_dense_oracle(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(1, 4)
            seq = random_fixed_sequence(rng, n, rng.randint(0, 15))
            u = np.eye(1 << n, dtype=complex)
            for ins in seq.instructions:
                if ins.op not in ("MEASURE", "ID"):
                    u = gate_matrix(ins, n) @ u
            z = PauliOperator.z_on(n, seq.output_line)
            want = u.conj().T @ pauli_matrix(z) @ u
            got = pauli_matrix(backpropagated(seq, seq.output_line))
            assert np.allclose(got, want, atol=1e-10)

    def test_every_position_matches_scalar_reference(self):
        # any line's Z pulled back from any position, past mid-circuit
        # MEASUREs, on widths whose slices span one to three words
        rng = random.Random(83)
        for _ in range(100):
            n = rng.choice(TestPauliFrame.WIDTHS)
            seq = random_clifford_sequence(rng, n, rng.randint(20, 80))
            for at in range(len(seq.instructions) + 1):
                line = rng.randrange(n)
                assert backpropagated(seq, line, at) == scalar_pull_back(
                    PauliOperator.z_on(n, line), seq.instructions[:at])


class TestProbabilities:
    def test_measure_zero_input(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("MEASURE", (0,), label="out"),))
        assert single_output_probability(seq, 0) == 1.0
        assert single_output_probability(seq, 1) == 0.0

    def test_h_then_measure(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")))
        assert abs(single_output_probability(seq, 0) - 0.5) < 1e-15

    def test_gadget_shape_prefix_is_fair_coin(self):
        # CX onto a magic ancilla makes the ancilla readout a fair coin for
        # any target input state
        rng = random.Random(31)
        for _ in range(20):
            theta = math.acos(rng.uniform(-1, 1))
            phi = rng.uniform(0, 6.2)
            seq = FixedSequence(
                2, (InputState("GENERAL", theta, phi), InputState(MAGIC)),
                (Instruction("CX", (0, 1)),
                 Instruction("MEASURE", (1,), label="out")))
            for outcome in (0, 1):
                assert abs(single_output_probability(seq, outcome) - 0.5) \
                    < 1e-12

    def test_equals_scalar_expectation_exactly(self):
        # the sign, then one Bloch factor per support line in increasing
        # line order: the arithmetic that fixes p_classical's bytes
        rng = random.Random(89)
        for i in range(300):
            n = rng.choice((2, 5, 9, 70, 130))
            seq = random_fixed_sequence(rng, n, rng.randint(n, 3 * n),
                                        intermediate=3) if i % 2 else \
                random_clifford_sequence(rng, n, rng.randint(n, 3 * n))
            value = expectation(scalar_pull_back(
                PauliOperator.z_on(n, seq.output_line), seq.instructions),
                seq.inputs)
            assert single_output_probability(seq, 0) == (1.0 + value) / 2.0
            assert single_output_probability(seq, 1) == (1.0 - value) / 2.0

    def test_outcomes_sum_to_one(self):
        rng = random.Random(37)
        for _ in range(50):
            seq = random_fixed_sequence(rng, rng.randint(1, 5),
                                        rng.randint(0, 20))
            total = single_output_probability(seq, 0) + \
                single_output_probability(seq, 1)
            assert abs(total - 1.0) < 1e-12


class TestJointProbability:
    two_measured = FixedSequence(
        2, (InputState(ZERO), InputState(ZERO)),
        (Instruction("MEASURE", (0,), label="a"),
         Instruction("MEASURE", (1,), label="out")))

    def test_single_line_reduces_to_single_output(self):
        rng = random.Random(41)
        for _ in range(30):
            seq = random_fixed_sequence(rng, rng.randint(1, 4),
                                        rng.randint(0, 15))
            table = measured_lines_table(seq, (seq.output_line,))
            for outcome in (0, 1):
                single = single_output_probability(seq, outcome)
                assert abs(table[outcome] - single) < 1e-12

    def test_bell_pair_correlations(self):
        seq = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("H", (0,)),
             Instruction("CX", (0, 1)),
             Instruction("MEASURE", (0,), label="a"),
             Instruction("MEASURE", (1,), label="out")))
        table = measured_lines_table(seq, (0, 1))
        for a, b in itertools.product((0, 1), repeat=2):
            want = 0.5 if a == b else 0.0
            assert abs(table[2 * a + b] - want) < 1e-12

    def test_empty_cut_list_gives_no_tables(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")))
        for cuts in ([], ()):
            assert joint_output_probability(seq, cuts) == []
            assert type(joint_output_probability(seq, cuts)) is list

    def test_no_lines_gives_unit_table(self):
        # a cut with no probes tables its readout alone; summing the
        # readout out leaves the unit table of no lines
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")))
        table, = joint_output_probability(seq, [(1, ())])
        assert np.allclose(table, [0.5, 0.5], atol=1e-12)
        assert np.allclose(table.reshape(2, -1).sum(axis=0), [1.0],
                           atol=1e-12)

    def test_empty_stage_query_rejected(self):
        # a cut has no stage without its readout slot
        for cuts in ([()], [(2, ()), ()], [(1, ()), []]):
            with pytest.raises(ValueError, match="cuts are .slots, probes"):
                joint_output_probability(self.two_measured, cuts)

    def test_unmeasured_line_rejected(self):
        # a readout is a record slot: a cut outside 1..m names no measured
        # line
        seq = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("MEASURE", (1,), label="out"),))
        for slots in (0, 2):
            with pytest.raises(ValueError, match="outside 1..1"):
                joint_output_probability(seq, [(slots, ())])

    def test_duplicate_line_rejected(self):
        # a probe on a line measured up to the readout is one too
        for cut in ((1, (0,)), (1, (1, 1)), (2, (0,))):
            with pytest.raises(ValueError, match="duplicate"):
                joint_output_probability(self.two_measured, [cut])

    def test_k_max_enforced(self):
        seq = FixedSequence(
            K_MAX + 1, (InputState(ZERO),) * (K_MAX + 1),
            tuple(Instruction("MEASURE", (line,), label=f"m{line}")
                  for line in range(K_MAX + 1)))
        assert len(measured_lines_table(seq, range(K_MAX))) == 1 << K_MAX
        with pytest.raises(ValueError, match="11 lines exceed k_max=10"):
            measured_lines_table(seq, range(K_MAX + 1))

    def test_normalization_and_tree_oracle(self):
        rng = random.Random(47)
        for _ in range(25):
            n = rng.randint(2, 5)
            seq = random_fixed_sequence(rng, n, rng.randint(5, 25),
                                        intermediate=2)
            measured = [i.targets[0] for i in seq.instructions
                        if i.op == "MEASURE"]
            lines = tuple(measured[:min(3, len(measured))])
            events, dist = outcome_distribution(seq, IDEAL)
            positions = {ev.line: i for i, ev in enumerate(events)}
            table = measured_lines_table(seq, lines)
            total = 0.0
            for p, bits in zip(table,
                               itertools.product((0, 1), repeat=len(lines))):
                want = sum(prob for record, prob in dist.items()
                           if all(record[positions[line]] == bit
                                  for line, bit in zip(lines, bits)))
                assert abs(p - want) < 1e-10
                total += p
            assert abs(total - 1.0) < 1e-12

    def test_table_matches_record_table(self):
        # every measured line in slot order: the Pauli table and the dense
        # one-pass statevector record table share one layout and one answer
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            seq = random_fixed_sequence(rng, rng.randint(2, 6),
                                        rng.randint(5, 30), intermediate=3)
            lines = tuple(i.targets[0] for i in seq.instructions
                          if i.op == "MEASURE")
            if len(lines) < 2:
                continue
            want = dense_record_table(seq)
            got = measured_lines_table(seq, lines)
            assert np.max(np.abs(got - want)) <= 1e-10
            checked += 1

    def test_stage_queries_match_their_prefixes_exactly(self):
        # every stage table of one call on the campaign's cuts, read off
        # the recorded sequence, equals the table of that stage's own
        # prefix at the prefix's own cut bit for bit: 1-130 lines (frames
        # past 64 lines), up to 3 mid-circuit measurements, and late stages
        # with fewer probes than asked, so one call mixes stage widths
        rng = random.Random(83)
        mixed = 0
        for i in range(60):
            n = rng.randint(1, 4) if i % 2 else rng.randint(1, 126)
            circuit = gadgetize(random_t_circuit(
                rng, n, rng.randint(1, 3 * n), rng.randint(1, 4),
                intermediate=3))
            resolved = resolve(circuit, [rng.randint(0, 1) for _ in range(
                circuit.gadget_count)])
            extra = rng.randint(0, 5)
            cuts = protocol._stage_layouts(resolved, extra)
            stages = stage_prefixes(resolved, extra)
            tables = joint_output_probability(resolved, cuts)
            assert len(tables) == len(stages)
            for (prefix, ancilla, extras), table in zip(stages, tables):
                own = len(prefix.events) - len(extras)
                assert prefix.events[own - 1].line == ancilla
                assert np.array_equal(table, joint_output_probability(
                    prefix, [(own, extras)])[0])
            mixed += len({len(probes) for _, probes in cuts}) > 1
        assert mixed >= 5

    def test_stage_query_checks(self):
        # a cut's readout is its slots-th record slot; its probes need not
        # be measured, but must be lines of the sequence
        seq = FixedSequence(
            2, (InputState(ZERO),) * 2,
            (Instruction("H", (0,)),
             Instruction("MEASURE", (1,), label="out")))
        assert [t.tolist() for t in joint_output_probability(
            seq, [(1, ()), (1, (0,))])] == [[1.0, 0.0], [0.5, 0.5, 0.0, 0.0]]
        with pytest.raises(ValueError, match="slot 2 outside 1..1"):
            joint_output_probability(seq, [(1, ()), (2, (1,))])
        with pytest.raises(ValueError, match="line 2 out of range"):
            joint_output_probability(seq, [(1, (2,))])
        with pytest.raises(ValueError, match="duplicate"):
            joint_output_probability(seq, [(1, (1,))])

    def test_malformed_cuts_raise_value_error(self):
        # library input: a malformed cut, first or not, is a ValueError;
        # list-valued cuts read as tuples, and every call returns a list
        seq = FixedSequence(
            K_MAX + 1, random_inputs(random.Random(61), K_MAX + 1),
            (Instruction("H", (0,)), Instruction("CX", (0, 2)),
             Instruction("MEASURE", (1,), label="a"),
             Instruction("MEASURE", (0,), label="out")))
        m, n = len(seq.events), seq.n_lines
        free = tuple(line for line in range(n) if line != 1)
        assert len(free) == K_MAX
        malformed = [(slots, ()) for slots in (0, m + 1, 1.5, "1")] + [
            (1, (probe,)) for probe in (-1, n, 1.5)] + [
            (1, (2, 2)), (1, (1,)), (2, (0,)), (2, (1,)), (1, free),
            1, (1,), (1, 2), (1, (2,), ())]
        for cut in malformed:
            for cuts in ([cut], [(1, ()), cut]):
                with pytest.raises(ValueError):
                    joint_output_probability(seq, cuts)
        cuts = ((1, (0,)), (2, (2,)), (1, free[:-1]))
        tables = joint_output_probability(seq, cuts)
        listed = joint_output_probability(
            seq, [[slots, list(probes)] for slots, probes in cuts])
        assert type(tables) is list and type(listed) is list
        assert len(tables) == 3 and len(tables[2]) == 1 << K_MAX
        assert [t.tolist() for t in listed] == [t.tolist() for t in tables]
        one = joint_output_probability(seq, [[1, [0]]])
        assert type(one) is list and one[0].tolist() == tables[0].tolist()


def scalar_outcome_table(operators, inputs):
    """The expansion one subset at a time, cell bit j selecting
    operators[j]: each product from a smaller subset by `multiply`, then
    `expectation`; the reference for the vectorised `outcome_table`, with
    the same arithmetic order."""
    k = len(operators)
    size = 1 << k
    products = [PauliOperator(operators[0].n if k else 0, 0, 0)] * size
    values = np.ones(size)
    for subset in range(1, size):
        low = subset & -subset
        phase, product = multiply(products[subset ^ low],
                                  operators[low.bit_length() - 1])
        assert phase.imag == 0
        products[subset] = PauliOperator(product.n, product.x, product.z,
                                         1 if phase.real > 0 else -1)
        values[subset] = expectation(products[subset], inputs)
    half = 1
    while half < size:
        pairs = values.reshape(-1, 2, half)
        first = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = first - pairs[:, 1]
        half <<= 1
    return values / size


def chain_sequence(rng, n: int, measured: int) -> FixedSequence:
    """Three layers of random one-line gates, each followed by a CX or CZ
    chain over all lines, then `measured` terminal measurements: pulled
    back, the measured Z operators spread over most lines."""
    instructions = []
    for op in ("CX", "CZ", "CX"):
        instructions += [Instruction(rng.choice(CLIFFORD_1Q), (line,))
                         for line in range(n)]
        instructions += [Instruction(op, (line, line + 1))
                         for line in range(n - 1)]
    lines = rng.sample(range(n), measured)
    instructions += [Instruction("MEASURE", (line,), label=f"x{line}")
                     for line in lines[:-1]]
    instructions.append(Instruction("MEASURE", (lines[-1],), label="out"))
    return FixedSequence(n, random_inputs(rng, n), tuple(instructions))


def measured_with_random_signs(rng, seq: FixedSequence):
    """Every measured Z of `seq` pulled back from its MEASURE, each with a
    random sign: a commuting set with X, Y and Z factors."""
    operators = [backpropagated(seq, ins.targets[0], at=idx)
                 for idx, ins in enumerate(seq.instructions)
                 if ins.op == "MEASURE"]
    return [PauliOperator(p.n, p.x, p.z, rng.choice((1, -1)))
            for p in operators]


class TestOutcomeTable:
    def test_matches_scalar_expansion_exactly(self):
        # commuting sets pulled back through random Clifford sequences; the
        # chains spread them over up to 200 lines
        rng = random.Random(61)
        for i in range(40):
            n = rng.choice((2, 5, 70, 200))
            if i % 2:
                seq = chain_sequence(rng, n, min(n, 7))
            else:
                seq = random_fixed_sequence(rng, n, rng.randint(n, 4 * n),
                                            intermediate=6)
            operators = measured_with_random_signs(rng, seq)
            assert np.array_equal(
                outcome_table(frame_holding(operators), (0,),
                              [len(operators)], seq.inputs)[0],
                scalar_outcome_table(operators, seq.inputs))

    def test_table_spanning_several_blocks_matches_scalar(self):
        # 11 operators over more than 128 of 200 lines: 2^11 cells times
        # the support passes 2^18 entries, so the table takes several blocks
        rng = random.Random(67)
        seq = chain_sequence(rng, 200, 11)
        operators = measured_with_random_signs(rng, seq)
        support = 0
        for p in operators:
            support |= p.support
        assert len(operators) == 11 and support.bit_count() > 128
        assert np.array_equal(outcome_table(frame_holding(operators), (0,),
                                            [11], seq.inputs)[0],
                              scalar_outcome_table(operators, seq.inputs))

    def test_stacked_groups_match_scalar_expansion_exactly(self):
        # groups of commuting operators stacked on one frame, past 64
        # operator bits and at uneven starts, of one width or of mixed
        # widths packed in one buffer: each row is its group's table alone,
        # bit for bit
        rng = random.Random(89)
        for i in range(24):
            n = rng.choice((3, 9, 70))
            seq = chain_sequence(rng, n, min(n, 6)) if i % 2 else \
                random_fixed_sequence(rng, n, rng.randint(n, 4 * n),
                                      intermediate=5)
            measured = measured_with_random_signs(rng, seq)
            k = rng.randint(1, len(measured))
            groups = [rng.sample(measured, k if i % 4 < 2 else rng.randint(
                1, len(measured))) for _ in range(rng.randint(1, 12))]
            starts, operators = [], []
            for group in groups:
                operators += [PauliOperator(seq.n_lines, 0, 0)] * \
                    rng.randint(0, 3)
                starts.append(len(operators))
                operators += group
            rows = outcome_table(frame_holding(operators), starts,
                                 [len(group) for group in groups], seq.inputs)
            assert [row.size for row in rows] == \
                [1 << len(group) for group in groups]
            for group, row in zip(groups, rows):
                assert np.array_equal(
                    row, scalar_outcome_table(group, seq.inputs))

    def test_non_hermitian_term_raises(self):
        # X and Z on one line anticommute: XZ = -iY is no observable
        with pytest.raises(AssertionError, match="non-Hermitian"):
            outcome_table(frame_holding([from_label("X"), from_label("Z")]),
                          (0,), [2], (InputState(ZERO),))


class TestPauliOperator:
    def test_label_round_trip(self):
        rng = random.Random(53)
        for _ in range(50):
            p = random_pauli(rng, 4)
            assert from_label(label(p)[1:],
                              1 if label(p)[0] == "+" else -1) == p

    def test_bit_masks_bounded(self):
        with pytest.raises(ValueError):
            PauliOperator(1, 2, 0, 1)

    def test_sign_restricted(self):
        with pytest.raises(ValueError):
            PauliOperator(1, 0, 0, 2)
