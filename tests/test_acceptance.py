"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import random
import sys
import time

import numpy as np
import pytest

from cliffcert.circuit import (AdaptiveCircuit, InputState, Instruction,
                               MAGIC, gadgetize, parse_circuit, resolve)
from cliffcert.pauli import single_output_probability
from cliffcert import prover
from cliffcert.prover import (Depolarizing, GadgetCoinBias, IDEAL, Liar,
                              MagicMiscalibration, SimulatedDevice)
from cliffcert.protocol import (GADGET_BIAS, IMPOSSIBLE_OUTCOME,
                                OUTPUT_DEVIATION, plan, verify_campaign)
from cliffcert import statevector as sv

from helpers import (CIRCUITS, adaptive_record_table, distribution_table,
                     final_output_probability,
                     final_output_probability_inplace,
                     final_output_probability_unitary_only,
                     frequency_of_one, gadget_born_probabilities,
                     measured_lines_table, outcome_distribution,
                     random_fixed_sequence, random_inputs, random_t_circuit,
                     run_adaptive_batch, stage_prefixes, sv_fidelity, sv_norm,
                     sv_remove_line)

DET3 = gadgetize(parse_circuit(
    (CIRCUITS / "deterministic_t3.circ").read_text()))
PROBE = gadgetize(parse_circuit((CIRCUITS / "phase_probe.circ").read_text()))


def report(number, name, detail=""):
    # written to the real stdout so the line survives pytest's capture
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}", file=sys.__stdout__)


def test_criterion_1_cross_engine_equivalence():
    rng = random.Random(1001)
    start = time.time()
    worst = 0.0
    for i in range(500):
        n = rng.randint(1, 8)
        seq = random_fixed_sequence(rng, n, rng.randint(0, 40),
                                    intermediate=3 if i % 2 else 0)
        p_poly = single_output_probability(seq, 0)
        p_dense = final_output_probability(seq)
        worst = max(worst, abs(p_poly - p_dense))
    elapsed = time.time() - start
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(1, "cross-engine equivalence",
           f"max deviation {worst:.2e} over 500 circuits in {elapsed:.1f}s")


def test_criterion_2_gadget_identity():
    rng = random.Random(1002)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 3)
        state = sv.init_state(random_inputs(rng, n))
        for _ in range(rng.randint(0, 12)):
            if n >= 2 and rng.random() < 0.4:
                a, b = rng.sample(range(n), 2)
                state = sv.apply_gate(state, Instruction("CX", (a, b)))
            else:
                op = rng.choice(("H", "S", "SDG", "X", "Z"))
                state = sv.apply_gate(state, Instruction(op,
                                                         (rng.randrange(n),)))
        target = rng.randrange(n)
        want = sv.apply_matrix_1q(state, sv.GATES_1Q["T"], target)
        joint = np.tensordot(state, sv.single_qubit_state(InputState(MAGIC)),
                             axes=0)
        joint = sv.apply_gate(joint, Instruction("CX", (target, n)))
        for branch in (0, 1):
            post = sv_remove_line(joint, n, branch)
            post = post / sv_norm(post)
            if branch:
                post = sv.apply_gate(post, Instruction("S", (target,)))
            worst = max(worst, 1.0 - sv_fidelity(want, post))
    assert worst <= 1e-12
    report(2, "T-gadget identity", f"max infidelity {worst:.2e}")


def test_criterion_3_gadget_outcome_probability():
    rng = random.Random(1003)
    worst = 0.0
    for _ in range(100):
        circuit = gadgetize(random_t_circuit(rng, rng.randint(1, 4),
                                             rng.randint(1, 12),
                                             rng.randint(1, 3)))
        for p in gadget_born_probabilities(circuit):
            worst = max(worst, abs(p - 0.5))
    assert worst <= 1e-12

    reps = 100_000
    batch = run_adaptive_batch(SimulatedDevice(IDEAL), DET3, reps, 4242)
    gadget_slots = [i for i, ev in enumerate(batch.events) if ev.is_gadget]
    assert len(gadget_slots) == 3
    worst_emp = 0.0
    for slot in gadget_slots:
        freq = frequency_of_one(batch, slot)
        worst_emp = max(worst_emp, abs(freq - 0.5))
    assert worst_emp <= 0.005
    report(3, "gadget outcome probability",
           f"max Born deviation {worst:.2e}, empirical {worst_emp:.4f} "
           f"over {reps} runs")


def test_criterion_4_planner_formulas():
    p = plan(0, epsilon=0.5, eta=0.05, delta=0.01)
    assert p.r_gate == 1060

    p3 = plan(3, epsilon=0.05, eta=0.05, delta=0.01)
    exact = ((1.05) ** (1.0 / 3.0) - 1.0) / 2.0
    assert abs(p3.d_gadget - exact) < 1e-15
    assert abs(p3.d_gadget - 0.00819817840742676) < 1e-15

    worst = 0.0
    for t in range(1, 21):
        pt = plan(t, epsilon=0.05, eta=0.05, delta=0.01)
        worst = max(worst,
                    abs((0.5 + pt.d_gadget) ** t * 2 ** t - 1.05))
    assert worst <= 1e-12
    report(4, "planner formulas",
           f"R_gate=1060, d_gadget(0.05,3)={p3.d_gadget:.7f}, "
           f"identity residual {worst:.2e}")


def test_criterion_5_honest_acceptance():
    margin = abs(single_output_probability(resolve(
        DET3, (0,) * 3), 0) - 0.5)
    assert margin > 0.49
    assert DET3.gadget_count <= 3
    assert DET3.n_lines <= 10

    device = SimulatedDevice(IDEAL)
    accepted = 0
    start = time.time()
    for i in range(100):
        rep = verify_campaign(device, DET3, epsilon=0.005, eta=0.005,
                              delta=0.0125, seed=5000 + i)
        if rep.accepted:
            assert rep.epsilon_prime == pytest.approx(0.01)
            assert abs(rep.p_classical - 0.5) > 0.49
            assert rep.confidence_lower_bound >= 0.98
            accepted += 1
    elapsed = time.time() - start
    assert accepted >= 95
    report(5, "honest end-to-end acceptance",
           f"{accepted}/100 campaigns accepted, confidence >= 0.98, "
           f"{elapsed:.0f}s")


def test_criterion_6_soundness_gadget_coin_bias():
    test_plan = plan(DET3.gadget_count, 0.005, 0.005, 0.0125)
    assert test_plan.d_gadget <= 0.05
    device = SimulatedDevice(GadgetCoinBias(0.1))
    rejected = 0
    for i in range(100):
        rep = verify_campaign(device, DET3, epsilon=0.005, eta=0.005,
                              delta=0.0125, seed=6000 + i)
        if not rep.accepted and any(f.kind == GADGET_BIAS
                                    for f in rep.failures):
            rejected += 1
    assert rejected >= 99
    report(6, "soundness: gadget coin bias",
           f"{rejected}/100 campaigns rejected via measurement tests")


def test_criterion_6_soundness_magic_miscalibration():
    eta = 0.005
    fault = MagicMiscalibration(0.3)
    device = SimulatedDevice(fault)
    rejected = 0
    for i in range(100):
        rep = verify_campaign(device, PROBE, epsilon=0.005, eta=eta,
                              delta=0.025, seed=7000 + i)
        # admission precondition: the fault must shift this transcript's
        # output probability by at least 3*eta per the dense oracle
        shifted = final_output_probability(rep.transcript.resolved, fault)
        assert abs(shifted - rep.p_classical) >= 3 * eta
        if not rep.accepted and any(f.kind == OUTPUT_DEVIATION
                                    for f in rep.failures):
            rejected += 1
    assert rejected >= 99
    report(6, "soundness: magic-state miscalibration",
           f"{rejected}/100 campaigns rejected via gate tests")


def test_criterion_6_soundness_liar():
    p_honest = single_output_probability(resolve(DET3, (0,) * 3), 0)
    q = 0.3
    assert abs(q - p_honest) >= 0.3
    device = SimulatedDevice(Liar(q))
    rejected = 0
    for i in range(100):
        rep = verify_campaign(device, DET3, epsilon=0.005, eta=0.005,
                              delta=0.0125, seed=8000 + i)
        if not rep.accepted:
            rejected += 1
    assert rejected >= 99
    report(6, "soundness: lying device", f"{rejected}/100 campaigns rejected")


def _table_vs_oracle(circuit, fault):
    """(max |table - oracle|, |sum of table - 1|) for one circuit; an
    adaptive circuit's table is composed from its resolved sequences'."""
    events, dist = outcome_distribution(circuit, fault)
    if isinstance(circuit, AdaptiveCircuit):
        table = adaptive_record_table(circuit, fault)
    else:
        table = prover.record_table(circuit, fault)
    assert circuit.events == events
    return (float(np.max(np.abs(table - distribution_table(
        dist, len(events))))), abs(float(table.sum()) - 1.0))


def test_criterion_7_deferred_measurements():
    rng = random.Random(1007)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 6)
        seq = random_fixed_sequence(rng, n, rng.randint(5, 30),
                                    intermediate=3)
        inplace = final_output_probability_inplace(seq)
        omitted = final_output_probability_unitary_only(seq)
        worst = max(worst, abs(inplace - omitted))
    assert worst <= 1e-10

    faults = (IDEAL, Liar(0.3), MagicMiscalibration(0.3),
              GadgetCoinBias(0.2), GadgetCoinBias(-0.5))
    # PROBE's output depends on every gadget correction, so it fails at
    # once if the controlled-S deferral is wrong
    subjects = [PROBE, DET3]
    for i in range(60):
        n = rng.randint(2, 6)
        seq = random_fixed_sequence(rng, n, rng.randint(5, 30),
                                    intermediate=3)
        circuit = gadgetize(random_t_circuit(rng, rng.randint(1, 4),
                                             rng.randint(1, 12),
                                             rng.randint(1, 3)))
        # fixed sequences whose gadget slots a biased coin acts on
        outcomes = tuple(rng.randint(0, 1)
                         for _ in range(circuit.gadget_count))
        if i % 2:
            gadgeted, _, _ = stage_prefixes(
                resolve(circuit, outcomes),
                2)[rng.randint(1, circuit.gadget_count) - 1]
        else:
            gadgeted = resolve(circuit, outcomes)
        assert gadgeted.gadget_slots
        subjects += [seq, circuit, gadgeted]
    worst_joint = 0.0
    worst_sum = 0.0
    cases = 0
    for subject in subjects:
        for fault in faults:
            dev, off_one = _table_vs_oracle(subject, fault)
            worst_joint = max(worst_joint, dev)
            worst_sum = max(worst_sum, off_one)
            cases += 1
    assert worst_joint <= 1e-10
    assert worst_sum <= 1e-12  # no fault model dropped or forced mass
    report(7, "deferred-measurement equivalence",
           f"output bit {worst:.2e} over 100 sequences; joint record "
           f"{worst_joint:.2e} over {cases} device tables, each summing to "
           f"1 within {worst_sum:.2e}")


def test_criterion_8_joint_outcome_normalisation():
    rng = random.Random(1008)
    worst_sum = 0.0
    worst_dev = 0.0
    for _ in range(60):
        n = rng.randint(2, 6)
        seq = random_fixed_sequence(rng, n, rng.randint(5, 30),
                                    intermediate=3)
        measured = [i.targets[0] for i in seq.instructions
                    if i.op == "MEASURE"]
        k = min(4, len(measured))
        lines = tuple(measured[:k])
        events, dist = outcome_distribution(seq, IDEAL)
        positions = {ev.line: j for j, ev in enumerate(events)}
        table = measured_lines_table(seq, lines)
        total = 0.0
        for p, bits in zip(table, itertools.product((0, 1), repeat=k)):
            oracle = sum(prob for record, prob in dist.items()
                         if all(record[positions[line]] == bit
                                for line, bit in zip(lines, bits)))
            worst_dev = max(worst_dev, abs(p - oracle))
            total += p
        worst_sum = max(worst_sum, abs(total - 1.0))
    assert worst_sum <= 1e-12
    assert worst_dev <= 1e-10
    report(8, "joint-outcome normalisation",
           f"max |sum-1| {worst_sum:.2e}, max oracle deviation "
           f"{worst_dev:.2e}")


def test_criterion_9_depolarizing_rejected_at_gate_test():
    test_plan = plan(DET3.gadget_count, 0.005, 0.005, 0.0125)
    assert test_plan.r_gate == 101_504
    device = SimulatedDevice(Depolarizing(0.01))
    rejected = 0
    start = time.time()
    for i in range(100):
        rep = verify_campaign(device, DET3, epsilon=0.005, eta=0.005,
                              delta=0.0125, seed=9000 + i)
        if (not rep.accepted and rep.gate.impossible_observed
                and any(f.kind == IMPOSSIBLE_OUTCOME and f.stage is None
                        for f in rep.failures)):
            rejected += 1
    elapsed = time.time() - start
    assert rejected == 100
    assert elapsed < 30.0
    report(9, "soundness: depolarizing device",
           f"{rejected}/100 campaigns rejected via impossible outcomes in "
           f"the gate test, {elapsed:.1f}s")
