"""Device behaviour: transcripts, determinism, fault models, batches."""

import dataclasses
import random
from collections import Counter

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
from cliffcert.protocol import verify_campaign
from cliffcert import statevector as sv
from cliffcert.pauli import single_output_probability

from helpers import (CIRCUITS, adaptive_record_table, assert_records_follow,
                     cell_of, depolarized_distribution, distribution_table,
                     fault_to_text, final_output_probability,
                     final_output_probability_inplace,
                     final_output_probability_unitary_only,
                     frequency_of_one, gadget_born_probabilities,
                     gadget_sequences, loop_counts,
                     loop_depolarize, plan_events, random_clifford_sequence,
                     random_fixed_sequence, random_inputs, random_t_circuit,
                     record_counts, reference_run, reference_transcript,
                     renormalised_record_table, run_adaptive_batch,
                     run_fixed, sv_fidelity, sv_norm, sv_remove_line)


def circuit_from(text):
    return parse_circuit(text)


def assert_depolarized_like_loop(seq, p_err):
    ideal = prover.record_table(seq, IDEAL)
    table = prover.record_table(seq, Depolarizing(p_err))
    want = loop_depolarize(ideal, seq, seq.events, p_err)
    assert np.max(np.abs(table - want)) <= 1e-12
    assert np.all(table[want == 0] == 0)


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

# a user's measurement between two gadgets
MID_MEASURE = """qubits 2
H 0
T 0
CX 0 1
MEASURE 1 x
H 0
T 0
H 0
MEASURE 0 out
"""


PROBE = gadgetize(parse_circuit((CIRCUITS / "phase_probe.circ").read_text()))


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
        counts = record_counts(batch, idx)
        expected = reps / 8.0
        stat = sum((counts.get(bits, 0) - expected) ** 2 / expected
                   for bits in np.ndindex(2, 2, 2))
        assert stat < chi2.isf(0.001, df=7)

    def test_empirical_gadget_frequency(self, one_gadget):
        batch = run_adaptive_batch(SimulatedDevice(IDEAL), one_gadget,
                                   100_000, 31)
        assert [ev.is_gadget for ev in batch.events] == [True, False]
        assert abs(frequency_of_one(batch, 0) - 0.5) < 0.005


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
        freq = sum(c for cell, c in batch.counts.items() if not cell & 1) \
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
            assert parse_fault(fault_to_text(fm)) == fm

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
        assert abs(frequency_of_one(batch, 0) - 0.6) < 0.005

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
                assert frequency_of_one(batch, 0) == ones

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
        zeros = batch.counts.get(0, 0)
        # X noise flips the deterministic |1> readout in 1/3 of noisy runs
        assert 0.05 < zeros / 400 < 0.35

    def test_depolarizing_table_matches_loop(self):
        # chi-squared of per-run records against the exact record table
        c = circuit_from("qubits 3\nH 0\nCX 0 1\nMEASURE 1 x1\nS 0\n"
                         "CZ 0 2\nH 2\nMEASURE 2 x2\nH 0\nMEASURE 0 out\n")
        seq = resolve(c, ())
        dev = SimulatedDevice(Depolarizing(0.2))
        table = prover.record_table(seq, dev.fault)
        assert_records_follow(loop_counts(dev, seq, 2000, 41), table)

    def test_depolarizing_table_matches_density_matrix_oracle(self):
        rng = random.Random(97)
        for _ in range(25):
            seq = random_fixed_sequence(rng, rng.randint(2, 4),
                                        rng.randint(3, 20), intermediate=2)
            p_err = rng.uniform(0.0, 1.0)
            table = prover.record_table(seq, Depolarizing(p_err))
            want = distribution_table(depolarized_distribution(seq, p_err),
                                      len(seq.events))
            assert np.max(np.abs(table - want)) < 1e-10

    def test_depolarizing_table_equals_per_slot_loop(self):
        # the channel folded in as one factor per subset expectation gives
        # the table that XOR-shifting it by each slot's operator, carried
        # on its own, gives: to roundoff, and zero wherever the loop is
        rng = random.Random(101)
        for _ in range(30):
            n = rng.choice((3, 6, 70))
            seq = random_clifford_sequence(rng, n, rng.randint(n, 3 * n),
                                           intermediate=6)
            assert_depolarized_like_loop(seq, rng.uniform(0.0, 1.0))

    @pytest.mark.parametrize("p_err", [0.75, 1.0])
    def test_depolarizing_factor_with_zero_or_negative_base(self, p_err):
        # the one-line base 1 - 4p/3 is 0 at p = 3/4; at p = 1 both bases,
        # -1/3 and -1/15, are negative
        rng = random.Random(int(p_err * 100))
        for _ in range(10):
            n = rng.choice((2, 5, 9))
            seq = random_clifford_sequence(rng, n, rng.randint(n, 3 * n),
                                           intermediate=4)
            assert_depolarized_like_loop(seq, p_err)

    def test_depolarizing_table_with_many_slots(self):
        seq = random_clifford_sequence(random.Random(103), 20, 140,
                                       intermediate=14)
        assert len(seq.events) >= 12
        assert_depolarized_like_loop(seq, 0.1)

    def test_depolarized_table_checked_to_sum_to_one(self, monkeypatch):
        # a factor that moves <P_0> = 1 moves the total
        monkeypatch.setattr(prover, "_depolarizing_factor",
                            lambda flips, m, p_err: np.full(1 << m, 2.0))
        seq = resolve(circuit_from("qubits 1\nH 0\nMEASURE 0 out\n"), ())
        with pytest.raises(AssertionError, match="sum to 2"):
            prover.record_table(seq, Depolarizing(0.1))

    def test_depolarizing_adaptive_table_matches_reference_runs(
            self, three_gadget):
        # the adaptive table composed from resolved sequences' noisy tables
        # against statevector trajectories that draw each error as it runs
        fault = Depolarizing(0.2)
        table = adaptive_record_table(three_gadget, fault)
        counts = Counter(cell_of(reference_run(three_gadget, fault,
                                               derive_seed(43, rep))[0])
                         for rep in range(1500))
        assert_records_follow(counts, table)

    def test_reused_measured_line_rejected(self):
        # refused when built, so no device batch can be asked to defer it
        zero = InputState(ZERO)
        with pytest.raises(InvalidCircuitError, match="used after") as err:
            FixedSequence(2, (zero, zero), (
                Instruction("MEASURE", (0,), label="a"),
                Instruction("H", (0,)),
                Instruction("MEASURE", (1,), label="out")))
        assert [(v.code, v.index) for v in err.value.violations] == \
            [(MEASURED_LINE_REUSED, 1)]


@pytest.fixture(scope="module")
def gadget_corpus():
    return gadget_sequences(200, 97)


class TestSlotLayout:
    """Every circuit computes its record-slot layout once, as `events`,
    and the device reads that one layout."""

    def test_events_match_reference_walk(self, gadget_corpus):
        rng = random.Random(137)
        circuits = [gadgetize(parse_circuit((CIRCUITS / name).read_text()))
                    for name in ("deterministic_t3.circ", "phase_probe.circ")]
        for _ in range(100):
            circuit = gadgetize(random_t_circuit(
                rng, rng.randint(1, 5), rng.randint(1, 20),
                rng.randint(0, 3), intermediate=3))
            circuits += [circuit, resolve(circuit, [
                rng.randrange(2) for _ in range(circuit.gadget_count)])]
        assert sum(not ev.is_gadget for c in circuits
                   for ev in c.events[:-1]) > 50
        for circuit in circuits + gadget_corpus:
            assert circuit.events == tuple(plan_events(circuit))

    def test_layout_built_once(self, three_gadget):
        seq = resolve(three_gadget, (1, 0, 1))
        assert seq.events is seq.events
        assert three_gadget.events is three_gadget.events
        batch = SimulatedDevice(IDEAL).run_fixed_batch(seq, 100, 3)
        assert batch.events is seq.events

    def test_device_slot_limit(self):
        # the device's own check, apart from the command line's pre-check
        circuit = circuit_from("qubits 21\n" + "".join(
            f"MEASURE {line} x{line}\n" for line in range(20))
            + "MEASURE 20 out\n")
        message = "21 measurement slots exceed the device's maximum 20"
        with pytest.raises(ValueError, match=message):
            prover.record_table(resolve(circuit, ()), IDEAL)
        with pytest.raises(ValueError, match=message):
            SimulatedDevice(IDEAL).run_adaptive(circuit, 1)


class TestCoinChannel:
    """A gadget readout is an exact fair coin given any earlier record, so
    a biased coin weights each gadget slot's halves by 2 coin(b) without
    reading a marginal; the sequential renormalisation is its oracle."""

    @pytest.mark.parametrize("fault", [IDEAL, MagicMiscalibration(0.3)])
    def test_gadget_readout_is_a_fair_coin(self, fault, gadget_corpus):
        checked = 0
        for seq in gadget_corpus:
            table = prover.record_table(seq, fault)
            for slot, event in enumerate(seq.events):
                if not event.is_gadget:
                    continue
                zero, one = table.reshape(1 << slot, 2, -1).sum(axis=2).T
                possible = zero + one > 0
                conditional = one[possible] / (zero + one)[possible]
                assert np.all(np.abs(conditional - 0.5) <= 1e-14)
                checked += int(possible.sum())
        assert checked > 1000

    @pytest.mark.parametrize("bias", [-0.5, -0.2, 0.1, 0.37, 0.5])
    def test_coin_bias_matches_renormalisation(self, bias, gadget_corpus):
        fault = GadgetCoinBias(bias)
        for seq in gadget_corpus:
            table = prover.record_table(seq, fault)
            want = renormalised_record_table(seq, fault)
            assert np.array_equal(table == 0, want == 0)
            cells = want != 0
            assert np.all(np.abs(table[cells] - want[cells])
                          <= 4e-15 * want[cells])

    @pytest.mark.parametrize("q", [0.0, 0.3, 0.9, 1.0])
    def test_liar_matches_renormalisation_bit_for_bit(self, q,
                                                      gadget_corpus):
        for seq in gadget_corpus:
            table = prover.record_table(seq, Liar(q))
            assert np.array_equal(table,
                                  renormalised_record_table(seq, Liar(q)))


class TestReferenceRun:
    def test_transcripts_match_reference_run(self):
        # the device's run against the statevector trajectory measured in
        # place: same seed, same draws, same transcript
        rng = random.Random(113)
        faults = (IDEAL, MagicMiscalibration(0.3), GadgetCoinBias(0.2),
                  Liar(0.3))
        compared = 0
        for _ in range(100):
            circuit = gadgetize(random_t_circuit(
                rng, rng.randint(1, 5), rng.randint(1, 16),
                rng.randint(1, 3), intermediate=2))
            assert circuit.gadget_count
            for fault in faults:
                seed = rng.getrandbits(32)
                assert SimulatedDevice(fault).run_adaptive(circuit, seed) \
                    == reference_transcript(circuit, fault, seed)
                compared += 1
        assert compared == 400

    @pytest.mark.parametrize("fault", [Depolarizing(0.2),
                                       GadgetCoinBias(0.2)],
                             ids=["depolarizing", "coin_bias"])
    def test_adaptive_records_follow_adaptive_table(self, fault):
        # a user's measurement between two gadgets is read off the table of
        # the sequence resolved on both gadget bits, the later one included;
        # the records of many runs against the exact adaptive table
        # composed from every resolved sequence's table
        circuit = gadgetize(circuit_from(MID_MEASURE))
        table = adaptive_record_table(circuit, fault)
        assert [ev.is_gadget for ev in circuit.events] == \
            [True, False, True, False]
        counts = Counter()
        for rep in range(1500):
            record, resolved, _ = prover._sample_run(circuit, fault,
                                                     derive_seed(47, rep))
            assert resolved.frozen_outcomes == (record[0], record[2])
            counts[cell_of(record)] += 1
        assert_records_follow(counts, table)


FIVE_FAULTS = (IDEAL, MagicMiscalibration(0.3), GadgetCoinBias(0.2),
               Depolarizing(0.2), Liar(0.3))


@pytest.fixture
def count_tables(monkeypatch):
    """The list of sequences `prover.record_table` builds tables for."""
    built = []
    real = prover.record_table

    def counted(seq, fault):
        built.append(seq)
        return real(seq, fault)
    monkeypatch.setattr(prover, "record_table", counted)
    return built


class TestTableReuse:
    @pytest.mark.parametrize("fault", FIVE_FAULTS, ids=fault_to_text)
    def test_adaptive_run_builds_one_table(self, fault, count_tables):
        # the gadget bits resolve the circuit first, so a user's
        # measurement between two gadgets needs no second table
        circuit = gadgetize(circuit_from(MID_MEASURE))
        for seed in range(8):
            del count_tables[:]
            tr = SimulatedDevice(fault).run_adaptive(circuit, seed)
            assert len(count_tables) == 1
            assert count_tables[0] is tr.resolved

    def test_probe_campaign_builds_two_tables(self, count_tables):
        # the adaptive run's table serves the gate test; the one gadget
        # test builds the second
        report = verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05,
                                 0.01, 3)
        assert report.accepted
        assert len(count_tables) == 2

    @pytest.mark.parametrize("fault", FIVE_FAULTS, ids=fault_to_text)
    def test_gate_batch_equals_fresh_device(self, fault, three_gadget,
                                            count_tables):
        dev = SimulatedDevice(fault)
        for seed in range(4):
            resolved = dev.run_adaptive(three_gadget, seed).resolved
            built = len(count_tables)
            batch = dev.run_fixed_batch(resolved, 3000, seed)
            assert len(count_tables) == built
            assert dev._last_table is None
            assert batch == SimulatedDevice(fault).run_fixed_batch(
                resolved, 3000, seed)

    def test_other_sequences_build_their_own_tables(self, three_gadget,
                                                    count_tables):
        dev = SimulatedDevice(Depolarizing(0.2))
        resolved = dev.run_adaptive(three_gadget, 5).resolved
        twin = dataclasses.replace(resolved)
        assert twin == resolved and twin is not resolved
        dev.run_fixed_batch(twin, 100, 1)
        assert count_tables[-1] is twin
        other = resolve(three_gadget, (1 - resolved.frozen_outcomes[0],)
                        + resolved.frozen_outcomes[1:])
        dev.run_adaptive(three_gadget, 5)
        dev.run_fixed_batch(other, 100, 1)
        assert count_tables[-1] is other
        assert dev._last_table is None


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
            table = prover.record_table(seq, IDEAL)
            assert abs(table.sum() - 1.0) < 1e-12

    def test_roundoff_records_have_probability_zero(self):
        # the unitary pass leaves ~1e-33 on the impossible records 00, 11
        c = circuit_from("qubits 2\nH 0\nS 0\nH 0\nCX 0 1\nS 1\nH 1\n"
                         "S 1\nH 1\nMEASURE 1 x\nH 0\nS 0\nH 0\n"
                         "MEASURE 0 out\n")
        table = prover.record_table(resolve(c, ()), IDEAL)
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
