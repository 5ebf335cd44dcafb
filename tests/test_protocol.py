"""Verifier tests: planner, test batches, verdicts, reports."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from cliffcert.circuit import gadgetize, parse_circuit, resolve
from cliffcert.prover import (Depolarizing, GadgetCoinBias, IDEAL, Liar,
                              MagicMiscalibration, SimulatedDevice)
from cliffcert import pauli, protocol
from cliffcert.protocol import (ACCEPT, GADGET_BIAS, IMPOSSIBLE_OUTCOME,
                                OUTPUT_DEVIATION, REJECT, build_stage_prefix,
                                compose_error, plan, report_summary,
                                report_to_json_dict, run_computational,
                                run_gate_tests, run_measurement_tests,
                                verify_campaign)

from helpers import CIRCUITS, run_adaptive_batch, run_fixed


PROBE = gadgetize(parse_circuit((CIRCUITS / "phase_probe.circ").read_text()))
DET3 = gadgetize(parse_circuit(
    (CIRCUITS / "deterministic_t3.circ").read_text()))


class TestPlanner:
    def test_example_repetition_count(self):
        p = plan(0, epsilon=0.5, eta=0.05, delta=0.01)
        assert p.r_gate == 1060  # ceil(ln(200) / 0.005)
        assert p.r_meas == 0
        assert p.d_gadget == 0.0

    def test_d_gadget_exact_form(self):
        p = plan(3, epsilon=0.05, eta=0.05, delta=0.01)
        want = ((1.05) ** (1.0 / 3.0) - 1.0) / 2.0
        assert p.d_gadget == pytest.approx(want, abs=1e-15)
        assert p.d_gadget == pytest.approx(0.0081982, abs=1e-7)

    def test_planner_identity(self):
        for t in range(1, 21):
            for epsilon in (0.005, 0.05, 0.3):
                p = plan(t, epsilon=epsilon, eta=0.05, delta=0.01)
                lhs = (0.5 + p.d_gadget) ** t * 2 ** t
                assert abs(lhs - (1.0 + epsilon)) < 1e-12

    def test_pi_bound_within_epsilon(self):
        for t in (1, 2, 5, 10):
            p = plan(t, epsilon=0.05, eta=0.05, delta=0.01)
            lo = (0.5 - p.d_gadget) ** t * 2 ** t
            hi = (0.5 + p.d_gadget) ** t * 2 ** t
            assert 1 - p.epsilon <= lo <= hi <= 1 + p.epsilon + 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            plan(-1, 0.1, 0.1, 0.1)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                plan(1, bad, 0.1, 0.1)
            with pytest.raises(ValueError):
                plan(1, 0.1, bad, 0.1)
            with pytest.raises(ValueError):
                plan(1, 0.1, 0.1, bad)

    def test_ci_monotone_in_repetitions(self):
        widths = [protocol.hoeffding_halfwidth(r, 0.01)
                  for r in (100, 1000, 10_000, 100_000)]
        assert widths == sorted(widths, reverse=True)


class TestGateTests:
    def test_ideal_device_passes(self):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, PROBE, 3)
        p = plan(PROBE.gadget_count, 0.05, 0.05, 0.01)
        result = run_gate_tests(dev, tr, p, 5)
        assert result.passed
        assert abs(result.p_hat - result.p_classical) <= 0.05

    def test_liar_fails(self):
        dev = SimulatedDevice(Liar(0.5))
        tr = run_computational(dev, PROBE, 3)
        p = plan(PROBE.gadget_count, 0.05, 0.05, 0.01)
        result = run_gate_tests(dev, tr, p, 4)
        assert not result.passed

    def test_deterministic_circuit_exact_frequency(self):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, DET3, 3)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        result = run_gate_tests(dev, tr, p, 4)
        assert result.p_classical == 0.0
        assert result.p_hat == 0.0
        assert result.passed

    def test_impossible_outcome_flagged(self):
        dev = SimulatedDevice(Liar(0.4))  # emits 0s although P(0) = 0
        tr = run_computational(dev, DET3, 3)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        result = run_gate_tests(dev, tr, p, 4)
        assert result.impossible_observed
        assert not result.passed


class TestStagePrefix:
    def test_prefix_structure(self):
        tr = SimulatedDevice(IDEAL).run_adaptive(DET3, 7)
        prefix, ancilla, extras = build_stage_prefix(
            DET3, tr.gadget_outcomes, 2, 2)
        labels = [i.label for i in prefix.instructions if i.op == "MEASURE"]
        assert labels == ["m1", "m2", "chk0", "chk1"]
        assert [prefix.instructions[s].label
                for s in prefix.gadget_slots] == ["m1", "m2"]
        assert prefix.frozen_outcomes == tr.gadget_outcomes[:1]
        # second gadget of the bundled circuit sits on line 1, ancilla 6
        assert ancilla == 6
        # nothing from beyond the stage gadget leaks into the prefix
        assert all(ins.op != "TGADGET" for ins in prefix.instructions)

    def test_extras_are_lowest_unmeasured_lines(self):
        # the stage gadget's target (line 0) is unmeasured, so it is probed
        tr = SimulatedDevice(IDEAL).run_adaptive(DET3, 7)
        _, _, extras = build_stage_prefix(DET3, tr.gadget_outcomes, 1, 2)
        assert extras == (0, 1)

    def test_extras_capped_by_available_lines(self):
        tr = SimulatedDevice(IDEAL).run_adaptive(PROBE, 7)
        _, _, extras = build_stage_prefix(PROBE, tr.gadget_outcomes, 1, 5)
        assert extras == (0,)

    def test_stage_bounds(self):
        with pytest.raises(ValueError):
            build_stage_prefix(DET3, (0, 0, 0), 4, 2)


class TestMeasurementTests:
    def test_ideal_device_all_stages_pass(self):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, DET3, tr, p, 11)
        assert len(results) == 3
        assert all(r.passed for r in results)
        assert all(abs(r.p_hat - 0.5) <= p.d_gadget for r in results)
        assert all(r.tv_distance <= p.eta for r in results)

    def test_biased_coin_fails_first_stage(self):
        dev = SimulatedDevice(GadgetCoinBias(0.1))
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, DET3, tr, p, 11)
        assert not results[0].gadget_passed
        assert abs(results[0].p_hat - 0.6) < 0.01

    def test_zero_gadgets_no_stages(self):
        c = parse_circuit("qubits 1\nH 0\nMEASURE 0 out\n")
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, c, 1)
        p = plan(0, 0.05, 0.05, 0.01)
        assert run_measurement_tests(dev, c, tr, p, 1) == []

    def test_impossible_probe_outcome_stops_later_stages(self):
        # DET3's stage-1 probe on line 1 (input ONE) can classically never
        # read 0; a liar corrupting the terminal probe readout must trip the
        # impossible-outcome check and abort the remaining stages
        dev = SimulatedDevice(Liar(0.5))
        honest = SimulatedDevice(IDEAL)
        tr = run_computational(honest, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, DET3, tr, p, 11)
        assert results[-1].impossible_observed
        assert len(results) < DET3.gadget_count

    def test_stage_builds_its_theory_table_in_one_pass(self, monkeypatch):
        # one joint-table call and one back-propagation per stage line; a
        # per-cell theory table would make 2^(k+1) and (k+1) * 2^(k+1)
        calls = Counter()

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        count(pauli, "backpropagate")
        count(protocol, "joint_output_probability")
        result = protocol.run_measurement_stage(dev, DET3, tr, p, 1, 11)
        assert len(result.extra_lines) == 2
        assert calls["joint_output_probability"] == 1
        assert calls["backpropagate"] == 1 + len(result.extra_lines)


class TestComposeError:
    def _passing(self, seed=5):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, PROBE, seed)
        p = plan(PROBE.gadget_count, 0.05, 0.05, 0.01)
        gate = run_gate_tests(dev, tr, p, seed)
        stages = run_measurement_tests(dev, PROBE, tr, p, seed)
        return p, gate, stages

    def test_epsilon_prime_sum(self):
        p, gate, stages = self._passing()
        pi_bound, eps_prime = compose_error(p, gate, stages)
        assert eps_prime == pytest.approx(0.1)
        assert pi_bound[0] <= 0.5 <= pi_bound[1]

    def test_requires_all_passed(self):
        p, gate, stages = self._passing()
        bad = dataclasses.replace(stages[0], p_hat=0.9)
        with pytest.raises(ValueError):
            compose_error(p, gate, [bad])

    def test_t_zero_epsilon_prime_is_eta(self):
        c = parse_circuit("qubits 1\nH 0\nMEASURE 0 out\n")
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, c, 1)
        p = plan(0, epsilon=0.5, eta=0.05, delta=0.01)
        gate = run_gate_tests(dev, tr, p, 2)
        pi_bound, eps_prime = compose_error(p, gate, [])
        assert eps_prime == 0.05
        assert pi_bound == (1.0, 1.0)


class TestVerdict:
    def test_accept_report_fields(self):
        report = verify_campaign(SimulatedDevice(IDEAL), DET3, 0.05, 0.05,
                                 0.01, seed=21)
        assert report.decision == ACCEPT
        assert report.failures == ()
        assert report.epsilon_prime == pytest.approx(0.1)
        assert report.confidence_lower_bound == pytest.approx(0.9)
        assert report.pi_bound[0] < 0.125 < report.pi_bound[1]

    def test_reject_lists_gadget_bias_with_values(self):
        report = verify_campaign(SimulatedDevice(GadgetCoinBias(0.1)), DET3,
                                 0.05, 0.05, 0.01, seed=21)
        assert report.decision == REJECT
        kinds = [f.kind for f in report.failures]
        assert GADGET_BIAS in kinds
        bias = next(f for f in report.failures if f.kind == GADGET_BIAS)
        assert bias.stage == 1
        assert abs(bias.observed - 0.6) < 0.01
        assert bias.tolerance == report.plan.d_gadget
        assert report.epsilon_prime is None

    def test_reject_lists_output_deviation_with_values(self):
        report = verify_campaign(SimulatedDevice(Liar(0.5)), PROBE,
                                 0.05, 0.05, 0.01, seed=3)
        assert report.decision == REJECT
        dev_f = next(f for f in report.failures
                     if f.kind == OUTPUT_DEVIATION)
        assert dev_f.observed == pytest.approx(report.gate.p_hat)
        assert dev_f.expected == pytest.approx(report.gate.p_classical)
        assert dev_f.tolerance == 0.05

    def test_impossible_outcome_aborts_stages(self):
        report = verify_campaign(SimulatedDevice(Liar(0.4)), DET3,
                                 0.05, 0.05, 0.01, seed=21)
        assert report.decision == REJECT
        assert report.gate.impossible_observed
        assert report.stages == ()  # batches after the event never ran
        assert [f.kind for f in report.failures] == [IMPOSSIBLE_OUTCOME]

    def test_gadgetize_required(self):
        raw = parse_circuit("qubits 1\nT 0\nMEASURE 0 out\n")
        with pytest.raises(ValueError):
            verify_campaign(SimulatedDevice(IDEAL), raw, 0.05, 0.05, 0.01,
                            seed=1)

    def test_user_m1_label_is_not_a_gadget_readout(self):
        # a user measurement labelled m1 keeps its Born statistics, so the
        # coin acts only on the gadget and the stage catches it
        c = gadgetize(parse_circuit(
            "qubits 3\nX 1\nMEASURE 1 m1\nH 0\nT 0\nH 0\n"
            "MEASURE 0 out\n"))
        report = verify_campaign(SimulatedDevice(GadgetCoinBias(-0.5)), c,
                                 0.05, 0.05, 0.01, seed=2)
        assert report.decision == REJECT
        assert (GADGET_BIAS, 1) in [(f.kind, f.stage)
                                    for f in report.failures]
        assert all(f.kind != protocol.INCOMPLETE for f in report.failures)


class TestStatisticalProperties:
    def test_completeness_loose_tolerances(self):
        accepted = sum(
            verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05, 0.01,
                            seed=s).accepted
            for s in range(20))
        assert accepted >= 19

    def test_soundness_coin_bias_at_twice_tolerance(self):
        # d_gadget(0.05, t=1) = 0.025; bias 0.05 = 2x the tolerance
        rejected = sum(
            not verify_campaign(SimulatedDevice(GadgetCoinBias(0.05)), PROBE,
                                0.05, 0.05, 0.01, seed=s).accepted
            for s in range(20))
        assert rejected == 20

    def test_soundness_miscalibration(self):
        # output shift ~0.085 against eta = 0.02
        rejected = sum(
            not verify_campaign(SimulatedDevice(MagicMiscalibration(0.3)),
                                PROBE, 0.05, 0.02, 0.01, seed=s).accepted
            for s in range(20))
        assert rejected == 20

    def test_soundness_liar(self):
        rejected = sum(
            not verify_campaign(SimulatedDevice(Liar(0.5)), PROBE,
                                0.05, 0.05, 0.01, seed=s).accepted
            for s in range(20))
        assert rejected == 20

    def test_soundness_depolarizing_per_run(self):
        c = parse_circuit("qubits 1\nX 0\nMEASURE 0 out\n")
        report = verify_campaign(SimulatedDevice(Depolarizing(0.5)), c,
                                 0.5, 0.1, 0.05, seed=2)
        assert report.decision == REJECT


class TestReports:
    def test_json_deterministic(self):
        a = verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05, 0.01,
                            seed=8)
        b = verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05, 0.01,
                            seed=8)
        assert json.dumps(report_to_json_dict(a)) == \
            json.dumps(report_to_json_dict(b))

    def test_json_structure(self):
        report = verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05,
                                 0.01, seed=8)
        d = report_to_json_dict(report)
        assert list(d) == ["decision", "confidence_lower_bound",
                           "epsilon_prime", "pi_bound", "p_classical",
                           "plan", "transcript", "gate_test",
                           "measurement_tests", "failures"]
        json.dumps(d)  # must be serialisable

    def test_summary_mentions_decision(self):
        report = verify_campaign(SimulatedDevice(IDEAL), PROBE, 0.05, 0.05,
                                 0.01, seed=8)
        text = report_summary(report)
        assert "decision: ACCEPT" in text
        assert "gate test" in text


def _audit_classical(value, path="root"):
    """Assert nothing amplitude-like crosses the verifier interface."""
    assert not isinstance(value, (complex, np.ndarray)), path
    assert not isinstance(value, np.generic), path
    if isinstance(value, dict):
        for k, v in value.items():
            _audit_classical(k, f"{path}[{k!r}]")
            _audit_classical(v, f"{path}[{k!r}]")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _audit_classical(v, f"{path}[{i}]")
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _audit_classical(getattr(value, f.name), f"{path}.{f.name}")


class TestVerifierClassicality:
    def test_device_interface_returns_classical_data_only(self):
        dev = SimulatedDevice(IDEAL)
        tr = dev.run_adaptive(PROBE, 1)
        _audit_classical(tr)
        seq = resolve(PROBE, tr.gadget_outcomes)
        _audit_classical(run_fixed(dev, seq, 2))
        _audit_classical(dev.run_fixed_batch(seq, 50, 3))
        _audit_classical(run_adaptive_batch(dev, PROBE, 50, 4))
