"""Pauli algebra against dense-matrix oracles, and probability engines."""

import itertools
import math
import random

import numpy as np
import pytest

from cliffcert.circuit import (FixedSequence, InputState, Instruction, MAGIC,
                               ZERO)
from cliffcert.pauli import (PauliOperator, backpropagate, conjugate,
                             expectation, input_expectations,
                             joint_output_probability, multiply,
                             single_output_probability)
from cliffcert.prover import IDEAL, record_table

from helpers import (gate_matrix, outcome_distribution, pauli_matrix,
                     random_fixed_sequence, random_pauli)

ALL_1Q = [PauliOperator.from_label(l, s)
          for l in ("I", "X", "Y", "Z") for s in (1, -1)]
ALL_2Q = [PauliOperator.from_label(a + b, s)
          for a in "IXYZ" for b in "IXYZ" for s in (1, -1)]


class TestConjugate:
    def test_h_swaps_x_and_z(self):
        h = Instruction("H", (0,))
        assert conjugate(PauliOperator.from_label("Z"), h).label() == "+X"
        assert conjugate(PauliOperator.from_label("X"), h).label() == "+Z"
        assert conjugate(PauliOperator.from_label("Y"), h).label() == "-Y"

    def test_s_inverse_image(self):
        # S^dagger X S = -Y and S^dagger Y S = +X (2x2 matrix oracle below
        # pins every case; these two document the orientation)
        s = Instruction("S", (0,))
        assert conjugate(PauliOperator.from_label("X"), s).label() == "-Y"
        assert conjugate(PauliOperator.from_label("Y"), s).label() == "+X"

    def test_cx_grows_z_support(self):
        cx = Instruction("CX", (0, 1))
        got = conjugate(PauliOperator.from_label("IZ"), cx)
        assert got.label() == "+ZZ"

    def test_exhaustive_1q_matrix_oracle(self):
        for op in ("H", "S", "SDG", "X", "Y", "Z", "ID"):
            ins = Instruction(op, (0,))
            g = gate_matrix(ins, 1)
            for p in ALL_1Q:
                want = g.conj().T @ pauli_matrix(p) @ g
                got = pauli_matrix(conjugate(p, ins))
                assert np.allclose(got, want, atol=1e-12), (op, p.label())

    def test_exhaustive_2q_matrix_oracle(self):
        for op in ("CX", "CZ", "SWAP"):
            for targets in ((0, 1), (1, 0)):
                ins = Instruction(op, targets)
                g = gate_matrix(ins, 2)
                for p in ALL_2Q:
                    want = g.conj().T @ pauli_matrix(p) @ g
                    got = pauli_matrix(conjugate(p, ins))
                    assert np.allclose(got, want, atol=1e-12), \
                        (op, targets, p.label())

    def test_group_action_composition(self):
        rng = random.Random(11)
        gates = [Instruction(op, (0,)) for op in ("H", "S", "SDG", "X")] + \
                [Instruction(op, (0, 1)) for op in ("CX", "CZ")] + \
                [Instruction(op, (1, 0)) for op in ("CX", "SWAP")]
        for _ in range(200):
            g1, g2 = rng.choice(gates), rng.choice(gates)
            p = random_pauli(rng, 2)
            got = pauli_matrix(conjugate(conjugate(p, g1), g2))
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
            assert p.commutes_with(q) == \
                conjugate(p, g).commutes_with(conjugate(q, g))

    def test_measure_rejected(self):
        with pytest.raises(ValueError):
            conjugate(PauliOperator.identity(1),
                      Instruction("MEASURE", (0,), label="out"))

    def test_t_rejected(self):
        with pytest.raises(ValueError):
            conjugate(PauliOperator.identity(1), Instruction("T", (0,)))


class TestMultiply:
    def test_self_product_is_identity(self):
        phase, res = multiply(PauliOperator.from_label("X"),
                              PauliOperator.from_label("X"))
        assert phase == 1
        assert res == PauliOperator.identity(1)

    def test_xz_gives_minus_i_y(self):
        phase, res = multiply(PauliOperator.from_label("X"),
                              PauliOperator.from_label("Z"))
        assert phase == -1j
        assert res.label() == "+Y"

    def test_overlapping_z_strings(self):
        phase, res = multiply(PauliOperator.from_label("ZZI"),
                              PauliOperator.from_label("IZZ"))
        assert phase == 1
        assert res.label() == "+ZIZ"

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            multiply(PauliOperator.identity(1), PauliOperator.identity(2))

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
            if not p.commutes_with(q):
                continue
            seen += 1
            phase, _ = multiply(p, q)
            assert phase in (1, -1)


class TestExpectation:
    def test_z_on_zero(self):
        table = input_expectations((InputState(ZERO),))
        assert expectation(PauliOperator.from_label("Z"), table) == 1.0

    def test_z_on_magic_is_zero(self):
        table = input_expectations((InputState(MAGIC),))
        assert expectation(PauliOperator.from_label("Z"), table) == 0.0

    def test_xx_on_two_magic(self):
        table = input_expectations((InputState(MAGIC), InputState(MAGIC)))
        got = expectation(PauliOperator.from_label("XX"), table)
        assert abs(got - 0.5) < 1e-15

    def test_in_unit_interval(self):
        rng = random.Random(23)
        from helpers import random_inputs
        for _ in range(200):
            n = rng.randint(1, 5)
            table = input_expectations(random_inputs(rng, n))
            value = expectation(random_pauli(rng, n), table)
            assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestBackpropagate:
    def setup_method(self):
        self.empty = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("MEASURE", (1,), label="out"),), ())

    def test_identity_circuit(self):
        assert backpropagate(self.empty, 1, 0) == PauliOperator.z_on(2, 1)

    def test_single_h(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")), ())
        assert backpropagate(seq, 0).label() == "+X"

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
            got = pauli_matrix(backpropagate(seq, seq.output_line))
            assert np.allclose(got, want, atol=1e-10)


class TestProbabilities:
    def test_measure_zero_input(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("MEASURE", (0,), label="out"),), ())
        assert single_output_probability(seq, 0) == 1.0
        assert single_output_probability(seq, 1) == 0.0

    def test_h_then_measure(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")), ())
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
                 Instruction("MEASURE", (1,), label="out")), ())
            for outcome in (0, 1):
                assert abs(single_output_probability(seq, outcome) - 0.5) \
                    < 1e-12

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
         Instruction("MEASURE", (1,), label="out")), ())

    def test_single_line_reduces_to_single_output(self):
        rng = random.Random(41)
        for _ in range(30):
            seq = random_fixed_sequence(rng, rng.randint(1, 4),
                                        rng.randint(0, 15))
            table = joint_output_probability(seq, (seq.output_line,))
            for outcome in (0, 1):
                single = single_output_probability(seq, outcome)
                assert abs(table[outcome] - single) < 1e-12

    def test_bell_pair_correlations(self):
        seq = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("H", (0,)),
             Instruction("CX", (0, 1)),
             Instruction("MEASURE", (0,), label="a"),
             Instruction("MEASURE", (1,), label="out")), ())
        table = joint_output_probability(seq, (0, 1))
        for a, b in itertools.product((0, 1), repeat=2):
            want = 0.5 if a == b else 0.0
            assert abs(table[2 * a + b] - want) < 1e-12

    def test_no_lines_gives_unit_table(self):
        seq = FixedSequence(
            1, (InputState(ZERO),),
            (Instruction("H", (0,)),
             Instruction("MEASURE", (0,), label="out")), ())
        assert joint_output_probability(seq, ()).tolist() == [1.0]

    def test_unmeasured_line_rejected(self):
        seq = FixedSequence(
            2, (InputState(ZERO), InputState(ZERO)),
            (Instruction("MEASURE", (1,), label="out"),), ())
        with pytest.raises(ValueError):
            joint_output_probability(seq, (0,))

    def test_duplicate_line_rejected(self):
        with pytest.raises(ValueError):
            joint_output_probability(self.two_measured, (0, 0))

    def test_k_max_enforced(self):
        seq = self.two_measured
        assert len(joint_output_probability(seq, (0, 1), k_max=2)) == 4
        with pytest.raises(ValueError):
            joint_output_probability(seq, (0, 1), k_max=1)

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
            table = joint_output_probability(seq, lines)
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
        # every measured line in slot order: the verifier's Pauli table and
        # the device's statevector table share one layout and one answer
        rng = random.Random(59)
        checked = 0
        while checked < 60:
            seq = random_fixed_sequence(rng, rng.randint(2, 6),
                                        rng.randint(5, 30), intermediate=3)
            lines = tuple(i.targets[0] for i in seq.instructions
                          if i.op == "MEASURE")
            if len(lines) < 2:
                continue
            events, want = record_table(seq, IDEAL)
            assert tuple(ev.line for ev in events) == lines
            got = joint_output_probability(seq, lines)
            assert np.max(np.abs(got - want)) <= 1e-10
            checked += 1


class TestPauliOperator:
    def test_label_round_trip(self):
        rng = random.Random(53)
        for _ in range(50):
            p = random_pauli(rng, 4)
            assert PauliOperator.from_label(p.label()[1:],
                                            1 if p.label()[0] == "+" else -1) \
                == p

    def test_bit_masks_bounded(self):
        with pytest.raises(ValueError):
            PauliOperator(1, 2, 0, 1)

    def test_sign_restricted(self):
        with pytest.raises(ValueError):
            PauliOperator(1, 0, 0, 2)
