"""Device behaviour: transcripts, determinism, fault models, batches."""

import dataclasses
import random

import numpy as np
import pytest

from cliffcert.circuit import (MEASURED_LINE_REUSED, FixedSequence,
                               InputState, Instruction, InvalidCircuitError,
                               MAGIC, ZERO, gadgetize, parse_circuit, resolve,
                               serialize)
from cliffcert import prover
from cliffcert.prover import (Depolarizing, GadgetCoinBias, IDEAL, Liar,
                              MagicMiscalibration, SimulatedDevice,
                              derive_seed, parse_fault)
from cliffcert import statevector as sv
from cliffcert.pauli import single_output_probability

from helpers import (depolarized_distribution, distribution_table,
                     final_output_probability,
                     final_output_probability_inplace,
                     final_output_probability_unitary_only,
                     gadget_born_probabilities, loop_counts,
                     random_fixed_sequence, random_inputs, run_adaptive_batch,
                     run_fixed, sv_fidelity, sv_norm, sv_remove_line)


def circuit_from(text):
    return parse_circuit(text)


ONE_GADGET = """qubits 1
H 0
T 0
H 0
MEASURE 0 out
"""

THREE_GADGET = """qubits 2
H 0
T 0
CX 0 1
T 1
H 0
T 0
MEASURE 0 out
"""


@pytest.fixture
def one_gadget():
    return gadgetize(circuit_from(ONE_GADGET))


@pytest.fixture
def three_gadget():
    return gadgetize(circuit_from(THREE_GADGET))


class TestTranscripts:
    def test_deterministic_given_seed(self, three_gadget):
        dev = SimulatedDevice(IDEAL)
        a = dev.run_adaptive(three_gadget, 123)
        b = dev.run_adaptive(three_gadget, 123)
        assert a == b
        c = dev.run_adaptive(three_gadget, 124)
        assert a != c or a.gadget_outcomes == c.gadget_outcomes

    def test_resolved_matches_resolve(self, three_gadget):
        tr = SimulatedDevice(IDEAL).run_adaptive(three_gadget, 5)
        assert tr.resolved == resolve(three_gadget, tr.gadget_outcomes)

    def test_circuit_id_is_content_hash(self, one_gadget):
        import hashlib
        tr = SimulatedDevice(IDEAL).run_adaptive(one_gadget, 5)
        want = hashlib.sha256(serialize(one_gadget).encode()).hexdigest()
        assert tr.circuit_id == want

    def test_json_fields(self, one_gadget):
        tr = SimulatedDevice(IDEAL).run_adaptive(one_gadget, 5)
        d = tr.to_json_dict()
        assert set(d) == {"circuit_id", "seed", "gadget_outcomes",
                          "final_output"}

    def test_zero_gadget_circuit(self):
        c = circuit_from("qubits 1\nH 0\nMEASURE 0 out\n")
        tr = SimulatedDevice(IDEAL).run_adaptive(c, 9)
        assert tr.gadget_outcomes == ()
        assert tr.final_output in (0, 1)


class TestGadgetPhysics:
    def test_post_gadget_state_equals_t_applied(self):
        # both outcome branches, random pre-gadget product states
        rng = random.Random(71)
        for _ in range(30):
            inputs = random_inputs(rng, 2)
            pre = sv.init_state(inputs)
            want = sv.apply_matrix_1q(pre, sv.GATES_1Q["T"], 0)
            joint = np.tensordot(pre,
                                 sv.single_qubit_state(InputState(MAGIC)),
                                 axes=0)
            joint = sv.apply_gate(joint, Instruction("CX", (0, 2)))
            for m in (0, 1):
                post = sv_remove_line(joint, 2, m)
                post = post / sv_norm(post)
                if m:
                    post = sv.apply_gate(post, Instruction("S", (0,)))
                assert 1.0 - sv_fidelity(want, post) < 1e-12

    def test_gadget_born_probability_exactly_half(self, three_gadget):
        probs = gadget_born_probabilities(three_gadget)
        assert probs  # one entry per gadget per branch
        assert all(abs(p - 0.5) < 1e-12 for p in probs)

    def test_gadget_outcomes_independent_fair_bits(self, three_gadget):
        # chi-squared over the 8 outcome patterns of 3 gadgets
        from scipy.stats import chi2
        reps = 100_000
        batch = run_adaptive_batch(SimulatedDevice(IDEAL), three_gadget,
                                   reps, 777)
        idx = [i for i, ev in enumerate(batch.events) if ev.is_gadget]
        counts = batch.marginal(tuple(idx))
        expected = reps / 8.0
        stat = sum((counts.get(bits, 0) - expected) ** 2 / expected
                   for bits in np.ndindex(2, 2, 2))
        assert stat < chi2.isf(0.001, df=7)

    def test_empirical_gadget_frequency(self, one_gadget):
        batch = run_adaptive_batch(SimulatedDevice(IDEAL), one_gadget,
                                   100_000, 31)
        assert [ev.is_gadget for ev in batch.events] == [True, False]
        assert abs(batch.frequency_of_one(0) - 0.5) < 0.005


class TestRunFixed:
    def test_matches_adaptive_for_gadget_free(self):
        c = circuit_from("qubits 2\nH 0\nCX 0 1\nMEASURE 1 out\n")
        seq = resolve(c, ())
        dev = SimulatedDevice(IDEAL)
        for seed in range(5):
            assert dev.run_adaptive(c, seed).final_output == \
                run_fixed(dev, seq, seed).final_output

    def test_frozen_corrections_applied_positionally(self, one_gadget):
        # frozen outcome 1: S applied no matter what the fresh outcome is
        seq = resolve(one_gadget, (1,))
        dev = SimulatedDevice(IDEAL)
        seen_fresh = set()
        for seed in range(40):
            res = run_fixed(dev, seq, seed)
            seen_fresh.add(res.outcomes[0])
        assert seen_fresh == {0, 1}
        ops = [i.op for i in seq.instructions]
        assert "S" in ops and "ID" not in ops

    def test_output_frequency_matches_classical_value(self, one_gadget):
        seq = resolve(one_gadget, (0,))
        p = single_output_probability(seq, 0)
        batch = SimulatedDevice(IDEAL).run_fixed_batch(seq, 10_000, 99)
        freq = sum(c for rec, c in batch.counts.items() if rec[-1] == 0) \
            / batch.repetitions
        assert abs(freq - p) < 0.02

    def test_batch_deterministic(self, one_gadget):
        seq = resolve(one_gadget, (0,))
        dev = SimulatedDevice(IDEAL)
        assert dev.run_fixed_batch(seq, 1000, 5).counts == \
            dev.run_fixed_batch(seq, 1000, 5).counts


class TestFaultModels:
    def test_parse_round_trip(self):
        for text in ("ideal", "magic_miscalibration 0.3",
                      "gadget_coin_bias 0.1", "depolarizing 0.01",
                      "liar 0.25"):
            fm = parse_fault(text)
            assert parse_fault(prover.fault_to_text(fm)) == fm

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault("gremlins 3")
        with pytest.raises(ValueError):
            parse_fault("liar")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            GadgetCoinBias(0.6)
        with pytest.raises(ValueError):
            Depolarizing(1.5)
        with pytest.raises(ValueError):
            Liar(-0.1)

    def test_non_finite_parameters_rejected(self):
        for make, value in ((GadgetCoinBias, float("nan")),
                            (GadgetCoinBias, float("inf")),
                            (MagicMiscalibration, float("nan")),
                            (MagicMiscalibration, float("inf")),
                            (MagicMiscalibration, float("-inf")),
                            (Depolarizing, float("nan")),
                            (Liar, float("nan"))):
            with pytest.raises(ValueError):
                make(value)

    def test_coin_bias_frequency(self, one_gadget):
        dev = SimulatedDevice(GadgetCoinBias(0.1))
        batch = run_adaptive_batch(dev, one_gadget, 100_000, 13)
        assert batch.events[0].is_gadget
        assert abs(batch.frequency_of_one(0) - 0.6) < 0.005

    def test_coin_bias_only_touches_gadget_measures(self):
        # a user's intermediate measurement keeps its Born statistics, also
        # under a label that looks like a gadget readout's
        for text, ones in (
                ("qubits 2\nX 0\nMEASURE 0 syndrome\nH 1\n"
                 "MEASURE 1 out\n", 1.0),
                ("qubits 2\ninput 1 ZERO\nCX 0 1\nMEASURE 1 m1\nH 0\n"
                 "MEASURE 0 out\n", 0.0)):
            seq = resolve(circuit_from(text), ())
            assert seq.gadget_slots == ()
            for fault in (GadgetCoinBias(0.4), GadgetCoinBias(0.0)):
                batch = SimulatedDevice(fault).run_fixed_batch(seq, 2000, 3)
                assert not batch.events[0].is_gadget
                assert batch.frequency_of_one(0) == ones

    def test_coin_bias_impossible_outcome_raises(self):
        # ancilla deterministically |0>: the coin would demand 1 half the
        # time, so the sequence refuses to call that readout a gadget slot
        c = parse_circuit(
            "qubits 2\ninput 1 ZERO\nCX 0 1\nMEASURE 1 m1\nH 0\n"
            "MEASURE 0 out\n")
        seq = resolve(c, ())
        with pytest.raises(ValueError, match="not a MAGIC line"):
            dataclasses.replace(seq, gadget_slots=(1,))

    def test_liar_forces_final_output(self, one_gadget):
        dev = SimulatedDevice(Liar(1.0))
        for seed in range(10):
            assert dev.run_adaptive(one_gadget, seed).final_output == 0
        dev = SimulatedDevice(Liar(0.0))
        for seed in range(10):
            assert dev.run_adaptive(one_gadget, seed).final_output == 1

    def test_miscalibration_shifts_magic_phase(self):
        c = gadgetize(circuit_from(ONE_GADGET))
        seq = resolve(c, (0,))
        honest = final_output_probability(seq, IDEAL)
        shifted = final_output_probability(seq, MagicMiscalibration(0.3))
        assert abs(honest - shifted) > 0.05

    def test_depolarizing_flips_deterministic_readout(self):
        c = circuit_from("qubits 1\nX 0\nMEASURE 0 out\n")
        seq = resolve(c, ())
        dev = SimulatedDevice(Depolarizing(0.5))
        batch = dev.run_fixed_batch(seq, 400, 21)
        zeros = sum(cnt for rec, cnt in batch.counts.items() if rec[0] == 0)
        # X noise flips the deterministic |1> readout in 1/3 of noisy runs
        assert 0.05 < zeros / 400 < 0.35

    def test_depolarizing_table_matches_loop(self):
        # chi-squared of per-run records against the exact record table
        from scipy.stats import chi2
        c = circuit_from("qubits 3\nH 0\nCX 0 1\nMEASURE 1 x1\nS 0\n"
                         "CZ 0 2\nH 2\nMEASURE 2 x2\nH 0\nMEASURE 0 out\n")
        seq = resolve(c, ())
        dev = SimulatedDevice(Depolarizing(0.2))
        _, table = prover.record_table(seq, dev.fault)
        reps = 2000
        observed = distribution_table(loop_counts(dev, seq, reps, 41), 3)
        possible = table > 0
        assert not observed[~possible].any()
        expected = reps * table[possible]
        stat = np.sum((observed[possible] - expected) ** 2 / expected)
        assert stat < chi2.isf(0.001, df=possible.sum() - 1)

    def test_depolarizing_table_matches_density_matrix_oracle(self):
        rng = random.Random(97)
        for _ in range(25):
            seq = random_fixed_sequence(rng, rng.randint(2, 4),
                                        rng.randint(3, 20), intermediate=2)
            p_err = rng.uniform(0.0, 1.0)
            events, table = prover.record_table(seq, Depolarizing(p_err))
            want = distribution_table(depolarized_distribution(seq, p_err),
                                      len(events))
            assert np.max(np.abs(table - want)) < 1e-10

    def test_depolarizing_adaptive_batch_rejected(self, one_gadget):
        dev = SimulatedDevice(Depolarizing(0.1))
        with pytest.raises(ValueError):
            run_adaptive_batch(dev, one_gadget, 100, 1)

    def test_reused_measured_line_rejected(self):
        # refused when built, so no device batch can be asked to defer it
        zero = InputState(ZERO)
        with pytest.raises(InvalidCircuitError, match="used after") as err:
            FixedSequence(2, (zero, zero), (
                Instruction("MEASURE", (0,), label="a"),
                Instruction("H", (0,)),
                Instruction("MEASURE", (1,), label="out")), ())
        assert [(v.code, v.index) for v in err.value.violations] == \
            [(MEASURED_LINE_REUSED, 1)]


class TestSeedDerivation:
    def test_distinct_streams(self):
        seeds = {derive_seed(1, i) for i in range(100)}
        assert len(seeds) == 100

    def test_stable(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)


class TestDistributionEngine:
    def test_leaf_probabilities_sum_to_one(self):
        rng = random.Random(83)
        for _ in range(20):
            seq = random_fixed_sequence(rng, rng.randint(1, 5),
                                        rng.randint(0, 20), intermediate=2)
            _, table = prover.record_table(seq, IDEAL)
            assert abs(table.sum() - 1.0) < 1e-12

    def test_roundoff_records_have_probability_zero(self):
        # the unitary pass leaves ~1e-33 on the impossible records 00, 11
        c = circuit_from("qubits 2\nH 0\nS 0\nH 0\nCX 0 1\nS 1\nH 1\n"
                         "S 1\nH 1\nMEASURE 1 x\nH 0\nS 0\nH 0\n"
                         "MEASURE 0 out\n")
        _, table = prover.record_table(resolve(c, ()), IDEAL)
        assert table[0] == 0.0 and table[3] == 0.0
        assert abs(table[1] - 0.5) < 1e-12

    def test_batch_agrees_with_loop(self, one_gadget):
        # same distribution whichever execution path produced the counts
        seq = resolve(one_gadget, (1,))
        tree = SimulatedDevice(IDEAL).run_fixed_batch(seq, 4000, 11)
        loop = loop_counts(SimulatedDevice(IDEAL), seq, 4000, 11)
        for record in set(tree.counts) | set(loop):
            a = tree.counts.get(record, 0) / 4000
            b = loop.get(record, 0) / 4000
            assert abs(a - b) < 0.05

    def test_intermediate_measurements_do_not_shift_output(self):
        rng = random.Random(89)
        for _ in range(30):
            seq = random_fixed_sequence(rng, rng.randint(2, 5),
                                        rng.randint(5, 25), intermediate=2)
            inplace = final_output_probability_inplace(seq, IDEAL)
            omitted = final_output_probability_unitary_only(seq)
            assert abs(inplace - omitted) < 1e-10
