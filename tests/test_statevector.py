"""Dense simulator checks: preparation, gates, norms, measurement."""

import math
import random

import numpy as np
import pytest

from cliffcert.circuit import (GENERAL, InputState, Instruction, MAGIC, ONE,
                               ZERO)
from cliffcert import statevector as sv

from helpers import random_fixed_sequence, random_inputs, sv_measure, sv_norm


class TestInitState:
    def test_all_zero(self):
        state = sv.init_state((InputState(ZERO),) * 3)
        flat = state.reshape(-1)
        assert flat[0] == 1.0
        assert np.allclose(flat[1:], 0.0)

    def test_single_magic(self):
        state = sv.init_state((InputState(MAGIC),)).reshape(-1)
        r = math.sqrt(0.5)
        assert np.allclose(state, [r, r * np.exp(1j * math.pi / 4)])

    def test_magic_phase_shift(self):
        state = sv.init_state((InputState(MAGIC),),
                              magic_phase_shift=0.3).reshape(-1)
        r = math.sqrt(0.5)
        assert np.allclose(state, [r, r * np.exp(1j * (math.pi / 4 + 0.3))])

    def test_phase_shift_leaves_general_inputs_alone(self):
        inp = InputState(GENERAL, math.pi / 2, math.pi / 4)
        a = sv.init_state((inp,), magic_phase_shift=0.0)
        b = sv.init_state((inp,), magic_phase_shift=0.3)
        assert np.allclose(a, b)

    def test_line_limit(self):
        with pytest.raises(ValueError):
            sv.init_state((InputState(ZERO),) * 4, max_lines=3)


class TestApplyGate:
    def test_h_on_zero(self):
        state = sv.init_state((InputState(ZERO),))
        got = sv.apply_gate(state, Instruction("H", (0,))).reshape(-1)
        r = math.sqrt(0.5)
        assert np.allclose(got, [r, r])

    def test_s_squared_equals_z(self):
        state = sv.apply_gate(sv.init_state((InputState(ZERO),)),
                              Instruction("H", (0,)))
        twice = sv.apply_gate(sv.apply_gate(state, Instruction("S", (0,))),
                              Instruction("S", (0,)))
        z = sv.apply_gate(state, Instruction("Z", (0,)))
        assert np.allclose(twice, z)

    def test_measure_rejected(self):
        with pytest.raises(ValueError):
            sv.apply_gate(sv.init_state((InputState(ZERO),)),
                          Instruction("MEASURE", (0,), label="out"))

    def test_norm_preserved_over_long_circuits(self):
        rng = random.Random(61)
        state = sv.init_state(random_inputs(rng, 6))
        seq = random_fixed_sequence(rng, 6, 100)
        for ins in seq.instructions:
            if ins.op != "MEASURE":
                state = sv.apply_gate(state, ins)
        assert abs(sv_norm(state) - 1.0) < 1e-12

    def test_gate_matrices_unitary(self):
        for name, g in {**sv.GATES_1Q, **sv.GATES_2Q}.items():
            assert np.allclose(g.conj().T @ g, np.eye(g.shape[0]),
                               atol=1e-15), name


class TestMeasurement:
    def test_deterministic_one(self):
        state = sv.init_state((InputState(ONE),))
        assert sv.probability_of_one(state, 0) == 1.0

    def test_collapse_renormalises(self):
        state = sv.init_state((InputState(MAGIC), InputState(ZERO)))
        state = sv.apply_gate(state, Instruction("CX", (0, 1)))
        collapsed = sv.collapse(state, 1, 1)
        assert abs(sv_norm(collapsed) - 1.0) < 1e-12
        assert sv.probability_of_one(collapsed, 0) == pytest.approx(1.0)

    def test_collapse_impossible_branch_raises(self):
        state = sv.init_state((InputState(ZERO),))
        with pytest.raises(ValueError):
            sv.collapse(state, 0, 1)

    def test_measure_deterministic_state(self):
        import numpy as np
        rng = np.random.default_rng(1)
        outcome, post = sv_measure(sv.init_state((InputState(ONE),)), 0, rng)
        assert outcome == 1
        assert sv.probability_of_one(post, 0) == pytest.approx(1.0)

    def test_measure_superposition_statistics(self):
        import numpy as np
        rng = np.random.default_rng(2)
        state = sv.apply_gate(sv.init_state((InputState(ZERO),)),
                              Instruction("H", (0,)))
        ones = sum(sv_measure(state, 0, rng)[0] for _ in range(4000))
        assert abs(ones / 4000 - 0.5) < 0.03

    def test_measure_collapses(self):
        import numpy as np
        rng = np.random.default_rng(3)
        state = sv.apply_gate(sv.init_state((InputState(ZERO),) * 2),
                              Instruction("H", (0,)))
        state = sv.apply_gate(state, Instruction("CX", (0, 1)))
        outcome, post = sv_measure(state, 0, rng)
        assert sv.probability_of_one(post, 1) == pytest.approx(outcome)

    def test_probabilities_sum_to_one(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(1, 5)
            state = sv.init_state(random_inputs(rng, n))
            seq = random_fixed_sequence(rng, n, 15)
            for ins in seq.instructions:
                if ins.op != "MEASURE":
                    state = sv.apply_gate(state, ins)
            line = rng.randrange(n)
            p1 = sv.probability_of_one(state, line)
            assert 0.0 <= p1 <= 1.0 + 1e-12
