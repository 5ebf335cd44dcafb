"""Verifier tests: planner, test batches, verdicts, reports."""

import dataclasses
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from cliffcert.circuit import (InputState, Stage, gadgetize, parse_circuit,
                               resolve)
from cliffcert.prover import (Depolarizing, GadgetCoinBias, IDEAL, Liar,
                              MagicMiscalibration, SimulatedDevice)
from cliffcert import protocol, prover
from cliffcert.pauli import PauliFrame
from cliffcert.protocol import (ACCEPT, BATCH_SIZE, EXTRA_LINE_DEVIATION,
                                GADGET_BIAS, IMPOSSIBLE_OUTCOME,
                                OUTPUT_DEVIATION, RECORD_OUT_OF_RANGE, REJECT,
                                GateTestResult, MeasurementStageResult,
                                campaign_table_sizes, compose_error, plan,
                                report_summary, report_to_json_dict,
                                run_computational, run_gate_tests,
                                run_measurement_tests, verdict,
                                verify_campaign)

from helpers import (CIRCUITS, random_fixed_sequence, random_t_circuit,
                     record_counts, run_adaptive_batch, run_fixed,
                     stage_prefix, stage_prefixes)


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

    @pytest.mark.parametrize("t, epsilon, eta, key", [
        (1, 0.05, 1e-10, "eta"), (3, 1e-9, 0.2, "epsilon"),
        (3, 1e-17, 0.2, "epsilon"), (0, 0.5, 1e-200, "eta"),
    ], ids=["eta", "epsilon", "epsilon_d_gadget_zero", "eta_square_zero"])
    def test_batch_too_large_names_tolerance(self, t, epsilon, eta, key):
        # past 2^63 - 1 runs numpy's multinomial cannot draw a batch
        with pytest.raises(ValueError, match=f"^{key} = .* repetitions"):
            plan(t, epsilon, eta, 0.01)

    def test_largest_drawable_batch_planned(self):
        # eta = 1e-9 needs about 2.6e18 runs: planned, and one device batch
        # draws them all
        p = plan(0, 0.5, 1e-9, 0.01)
        assert 2.6e18 < p.r_gate < protocol.MAX_REPETITIONS
        batch = SimulatedDevice(IDEAL).run_fixed_batch(
            resolve(PROBE, (0,)), p.r_gate, 3)
        assert sum(batch.counts.values()) == p.r_gate

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

    def test_impossible_outcome_flagged_at_certain_zero(self):
        # the other end of the gate table: P(0) = 1, and the liar's 1s are
        # the impossible outcome
        circuit = parse_circuit("qubits 1\nMEASURE 0 out\n")
        dev = SimulatedDevice(Liar(0.4))
        tr = run_computational(dev, circuit, 3)
        result = run_gate_tests(dev, tr, plan(0, 0.05, 0.05, 0.01), 4)
        assert result.p_classical == 1.0
        assert result.impossible_observed
        assert [f.kind for f in result.failures] == [IMPOSSIBLE_OUTCOME]


def campaign_stages(resolved, extra):
    """The stages a campaign sends for `resolved`, each as (the literal
    prefix its `Stage` describes, ancilla, probe lines)."""
    cuts = protocol._stage_layouts(resolved, extra)
    return [(stage_prefix(Stage(resolved, cuts, index)),
             resolved.events[slots - 1].line, probes)
            for index, (slots, probes) in enumerate(cuts)]


class TestStagePrefix:
    def test_prefix_structure(self):
        tr = SimulatedDevice(IDEAL).run_adaptive(DET3, 7)
        prefix, ancilla, extras = campaign_stages(tr.resolved, 2)[1]
        labels = [i.label for i in prefix.instructions if i.op == "MEASURE"]
        assert labels == ["m1", "m2", "chk0", "chk1"]
        assert [prefix.instructions[s].label
                for s in prefix.gadget_slots] == ["m1", "m2"]
        assert prefix.frozen_outcomes == tr.gadget_outcomes[:1]
        # second gadget of the bundled circuit sits on line 1, ancilla 6
        assert ancilla == 6
        # nothing from beyond the stage gadget leaks into the prefix: it is
        # the recorded sequence cut after the stage's readout, then probes
        assert all(ins.op != "TGADGET" for ins in prefix.instructions)
        assert prefix.instructions[:-2] == \
            tr.resolved.instructions[:prefix.gadget_slots[-1] + 1]

    def test_extras_are_lowest_unmeasured_lines(self):
        # the stage gadget's target (line 0) is unmeasured, so it is probed
        tr = SimulatedDevice(IDEAL).run_adaptive(DET3, 7)
        _, _, extras = campaign_stages(tr.resolved, 2)[0]
        assert extras == (0, 1)

    def test_extras_capped_by_available_lines(self):
        tr = SimulatedDevice(IDEAL).run_adaptive(PROBE, 7)
        _, _, extras = campaign_stages(tr.resolved, 5)[0]
        assert extras == (0,)

    def test_widest_sequence_probes_next_unmeasured_lines(self):
        # 65,536 lines, the lowest two measured before the gadget: the
        # probes are the next unmeasured lines, wherever the scan stops
        c = gadgetize(parse_circuit(
            "qubits 65535\nMEASURE 0 a\nMEASURE 1 b\nT 2\n"
            "MEASURE 2 out\n"))
        assert c.n_lines == 65536
        _, ancilla, extras = campaign_stages(resolve(c, (0,)), 3)[0]
        assert ancilla == 65535
        assert extras == (2, 3, 4)

    def test_stage_bounds(self):
        # one prefix per gadget, the s-th ending on gadget s, none beyond
        stages = campaign_stages(resolve(DET3, (0, 0, 0)), 2)
        assert [len(prefix.gadget_slots) for prefix, _, _ in stages] == \
            [1, 2, 3]
        assert campaign_stages(resolve(parse_circuit(
            "qubits 1\nH 0\nMEASURE 0 out\n"), ()), 2) == []

    def test_stages_describe_the_literal_prefixes(self):
        # the campaign's stages, read as prefixes, are the oracle's walk of
        # the recorded instructions, and a stage's events its prefix's
        rng = random.Random(137)
        for _ in range(60):
            circuit = gadgetize(random_t_circuit(
                rng, rng.randint(1, 6), rng.randint(1, 16),
                rng.randint(1, 4), intermediate=3))
            resolved = resolve(circuit, [rng.randint(0, 1) for _ in range(
                circuit.gadget_count)])
            extra = rng.randint(0, 5)
            assert campaign_stages(resolved, extra) == \
                stage_prefixes(resolved, extra)
            cuts = protocol._stage_layouts(resolved, extra)
            for index, (prefix, _, _) in enumerate(
                    stage_prefixes(resolved, extra)):
                assert Stage(resolved, cuts, index).events == prefix.events

    def test_table_sizes_match_built_tables(self):
        # the pre-campaign size check counts what the campaign builds: on
        # random circuits, and on both bundled campaign circuits with 0..4
        # probes
        rng = random.Random(131)
        cases = [(circuit, extra) for circuit in (DET3, PROBE)
                 for extra in range(5)]
        for _ in range(60):
            cases.append((gadgetize(random_t_circuit(
                rng, rng.randint(1, 6), rng.randint(1, 16),
                rng.randint(0, 3), intermediate=3)), rng.randint(0, 6)))
        for circuit, extra in cases:
            resolved = resolve(circuit, (0,) * circuit.gadget_count)
            slots = [_measures(resolved)]
            probe_lines = 0
            for prefix, _, extras in stage_prefixes(resolved, extra):
                slots.append(_measures(prefix))
                probe_lines = max(probe_lines, 1 + len(extras))
            assert campaign_table_sizes(circuit, extra) == \
                (max(slots), probe_lines)


def _measures(seq):
    return sum(1 for ins in seq.instructions if ins.op == "MEASURE")


class TestMeasurementTests:
    def test_ideal_device_all_stages_pass(self):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, tr, p, 11)
        assert len(results) == 3
        assert all(r.passed for r in results)
        assert all(abs(r.p_hat - 0.5) <= p.d_gadget for r in results)
        assert all(r.tv_distance <= p.eta for r in results)

    def test_biased_coin_fails_first_stage(self):
        dev = SimulatedDevice(GadgetCoinBias(0.1))
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, tr, p, 11)
        assert results[0].failures[0].kind == GADGET_BIAS
        assert abs(results[0].p_hat - 0.6) < 0.01

    def test_zero_gadgets_no_stages(self):
        c = parse_circuit("qubits 1\nH 0\nMEASURE 0 out\n")
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, c, 1)
        p = plan(0, 0.05, 0.05, 0.01)
        assert run_measurement_tests(dev, tr, p, 1) == []

    def test_impossible_probe_outcome_stops_later_stages(self):
        # DET3's stage-1 probe on line 1 (input ONE) can classically never
        # read 0; a liar corrupting the terminal probe readout must trip the
        # impossible-outcome check and abort the remaining stages
        dev = SimulatedDevice(Liar(0.5))
        honest = SimulatedDevice(IDEAL)
        tr = run_computational(honest, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        results = run_measurement_tests(dev, tr, p, 11)
        assert results[-1].impossible_observed
        assert len(results) < DET3.gadget_count

    def test_cell_marginal_matches_tuple_marginal(self):
        # the verifier's reading of the low bits of the record cells
        # against the tuple records' last slots, on seeded batches of
        # several fault models
        rng = random.Random(131)
        faults = (IDEAL, Depolarizing(0.1), Liar(0.3))
        for i in range(30):
            seq = random_fixed_sequence(rng, rng.randint(2, 6),
                                        rng.randint(3, 25), intermediate=4)
            batch = SimulatedDevice(faults[i % 3]).run_fixed_batch(
                seq, rng.randint(1, 5000), rng.getrandbits(32))
            m = len(batch.events)
            for width in range(1, m + 1):
                tuples = record_counts(batch, range(m - width, m))
                _, _, cells, _ = protocol._read(
                    batch, m, np.full(1 << width, 0.5))
                assert cells.tolist() == [
                    tuples.get(bits, 0)
                    for bits in np.ndindex(*(2,) * width)]

    def test_stage_builds_its_theory_table_in_one_pass(self, monkeypatch):
        # one joint-table call and one verifier sweep serve every stage: the
        # t theory tables come from one walk of the recorded sequence, not
        # one prefix sweep and one table per stage; so do the device's t
        # record tables, on the first stage batch
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, DET3, 11)
        p = plan(DET3.gadget_count, 0.05, 0.05, 0.01)
        count(protocol, "joint_output_probability")
        count(protocol, "run_measurement_stage")
        count(prover, "record_tables")
        count(PauliFrame, "sweep")
        results = protocol.run_measurement_tests(dev, tr, p, 11)
        assert [len(r.extra_lines) for r in results] == [2, 2, 2]
        assert calls["run_measurement_stage"] == DET3.gadget_count == 3
        assert calls["joint_output_probability"] == 1
        # one device sweep for every stage's record table, and one for
        # every theory table
        assert calls["record_tables"] == 1
        assert calls["sweep"] == 2


def _parent_kinds(result) -> list[str]:
    """The failure kinds of a gate or stage result by the rules as first
    written: an impossible outcome alone, else each statistic outside its
    tolerance, gadget before probes."""
    if result.impossible_observed:
        return [IMPOSSIBLE_OUTCOME]
    if isinstance(result, GateTestResult):
        return [OUTPUT_DEVIATION] * (
            abs(result.p_hat - result.p_classical) > result.eta)
    kinds = [GADGET_BIAS] * (abs(result.p_hat - 0.5) > result.d_gadget)
    if result.tv_distance is not None and result.tv_distance > result.eta:
        kinds.append(EXTRA_LINE_DEVIATION)
    return kinds


class TestDecisionRule:
    """One rule for every statistical check: it fails unless
    |observed - expected| <= tolerance.  Binary-exact values put a statistic
    exactly on its tolerance and one float beyond it."""

    ABOVE = math.nextafter(0.75, 1.0)  # 0.75 + 2^-53, deviation > 0.25
    TV_OVER = math.nextafter(0.25, 1.0)

    GATE = GateTestResult(repetitions=4, p_hat=0.75, p_classical=0.5,
                          eta=0.25, ci_halfwidth=0.1,
                          impossible_observed=False)
    STAGE = MeasurementStageResult(
        stage=2, ancilla_line=3, repetitions=4, p_hat=0.75, d_gadget=0.25,
        ci_halfwidth=0.1, extra_lines=(0,), tv_distance=0.25, eta=0.25,
        impossible_observed=False)

    def _cases(self):
        for p_hat in (0.25, 0.5, 0.75, self.ABOVE):
            for impossible in (False, True):
                yield dataclasses.replace(self.GATE, p_hat=p_hat,
                                          impossible_observed=impossible)
                for tv in (None, 0.0, 0.25, self.TV_OVER):
                    yield dataclasses.replace(
                        self.STAGE, p_hat=p_hat, tv_distance=tv,
                        impossible_observed=impossible)

    def test_boundary_passes_and_next_float_fails(self):
        assert self.GATE.passed and self.STAGE.passed
        gate = dataclasses.replace(self.GATE, p_hat=self.ABOVE)
        assert [f.kind for f in gate.failures] == [OUTPUT_DEVIATION]
        stage = dataclasses.replace(self.STAGE, p_hat=self.ABOVE)
        assert [f.kind for f in stage.failures] == [GADGET_BIAS]
        probes = dataclasses.replace(self.STAGE, tv_distance=self.TV_OVER)
        assert [f.kind for f in probes.failures] == [EXTRA_LINE_DEVIATION]

    def test_no_probes_no_probe_check(self):
        stage = dataclasses.replace(self.STAGE, tv_distance=None, eta=0.0)
        assert stage.failures == ()

    def test_impossible_outcome_is_its_batch_only_failure(self):
        stage = dataclasses.replace(self.STAGE, p_hat=self.ABOVE,
                                    tv_distance=self.TV_OVER,
                                    impossible_observed=True)
        assert [(f.kind, f.stage) for f in stage.failures] == \
            [(IMPOSSIBLE_OUTCOME, 2)]
        gate = dataclasses.replace(self.GATE, p_hat=self.ABOVE,
                                   impossible_observed=True)
        assert [f.kind for f in gate.failures] == [IMPOSSIBLE_OUTCOME]

    def test_failures_follow_the_one_rule(self):
        for result in self._cases():
            failures = result.failures
            assert result.passed == (failures == ())
            assert [f.kind for f in failures] == _parent_kinds(result)
            for f in failures:
                if f.kind != IMPOSSIBLE_OUTCOME:
                    assert abs(f.observed - f.expected) > f.tolerance

    def _failing_batches(self, test_plan, gate_runs, stage_runs):
        gate = dataclasses.replace(self.GATE, p_hat=self.ABOVE,
                                   repetitions=gate_runs)
        stages = [dataclasses.replace(self.STAGE, stage=1,
                                      tv_distance=self.TV_OVER,
                                      repetitions=stage_runs),
                  dataclasses.replace(self.STAGE, p_hat=self.ABOVE,
                                      tv_distance=self.TV_OVER,
                                      repetitions=stage_runs)]
        return verdict(None, test_plan, 0.5, gate, stages)

    def test_verdict_joins_failures_in_order(self):
        test_plan = plan(2, 0.05, 0.25, 0.01)
        report = self._failing_batches(test_plan, test_plan.r_gate,
                                       test_plan.r_meas)
        assert report.decision == REJECT
        assert [(f.kind, f.stage) for f in report.failures] == [
            (OUTPUT_DEVIATION, None), (EXTRA_LINE_DEVIATION, 1),
            (GADGET_BIAS, 2), (EXTRA_LINE_DEVIATION, 2)]
        assert report.pi_bound is None and report.epsilon_prime is None
        assert report.confidence_lower_bound is None

    def test_verdict_checks_each_batch_size_first(self):
        test_plan = plan(2, 0.05, 0.25, 0.01)
        report = self._failing_batches(test_plan, 4, test_plan.r_meas + 1)
        assert [(f.kind, f.stage) for f in report.failures] == [
            (BATCH_SIZE, None), (OUTPUT_DEVIATION, None),
            (BATCH_SIZE, 1), (EXTRA_LINE_DEVIATION, 1),
            (BATCH_SIZE, 2), (GADGET_BIAS, 2), (EXTRA_LINE_DEVIATION, 2)]
        size = report.failures[0]
        assert (size.observed, size.expected, size.tolerance) == \
            (4, test_plan.r_gate, 0.0)
        assert size.message == (f"gate batch counts 4 runs where the plan "
                                f"asks for {test_plan.r_gate}")

    def test_verdict_checks_record_range_right_after_size(self):
        test_plan = plan(2, 0.05, 0.25, 0.01)
        report = self._failing_batches(test_plan, 4, test_plan.r_meas)
        gate = dataclasses.replace(report.gate, out_of_range_runs=3)
        stages = [report.stages[0],
                  dataclasses.replace(report.stages[1], out_of_range_runs=1)]
        report = verdict(None, test_plan, 0.5, gate, stages)
        assert [(f.kind, f.stage) for f in report.failures] == [
            (BATCH_SIZE, None), (RECORD_OUT_OF_RANGE, None),
            (OUTPUT_DEVIATION, None), (EXTRA_LINE_DEVIATION, 1),
            (RECORD_OUT_OF_RANGE, 2), (GADGET_BIAS, 2),
            (EXTRA_LINE_DEVIATION, 2)]
        stray = report.failures[1]
        assert (stray.observed, stray.expected, stray.tolerance) == \
            (3, 0, 0.0)
        assert stray.message == \
            "gate batch records 3 runs outside its record table"


class TestComposeError:
    def _passing(self, seed=5):
        dev = SimulatedDevice(IDEAL)
        tr = run_computational(dev, PROBE, seed)
        p = plan(PROBE.gadget_count, 0.05, 0.05, 0.01)
        gate = run_gate_tests(dev, tr, p, seed)
        stages = run_measurement_tests(dev, tr, p, seed)
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

    def test_classical_probability_computed_once(self, monkeypatch):
        # the gate test's p_classical is the report's: one pull-back of the
        # output operator per campaign
        calls = []
        original = protocol.single_output_probability

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(protocol, "single_output_probability", counted)
        report = verify_campaign(SimulatedDevice(IDEAL), DET3, 0.05, 0.05,
                                 0.01, seed=21)
        assert len(calls) == 1
        assert report.p_classical == report.gate.p_classical

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


class EditedDevice:
    """A simulated device whose fixed batches pass through
    `edit(device, index, seq, repetitions, seed)`, index 0 being the gate
    batch and index s stage s's."""

    def __init__(self, fault, edit):
        self.inner = SimulatedDevice(fault)
        self.edit = edit
        self.batches = 0

    def run_adaptive(self, circuit, seed):
        return self.inner.run_adaptive(circuit, seed)

    def run_fixed_batch(self, seq, repetitions, seed):
        index, self.batches = self.batches, self.batches + 1
        return self.edit(self.inner, index, seq, repetitions, seed)


# gadget-free, P(output 0) = cos^2(pi/6) = 0.75
THREE_QUARTERS = parse_circuit(
    "qubits 1\ninput 0 GENERAL 1.0471975511965976 0\nMEASURE 0 out\n")


class TestBatchSize:
    """R is what a batch's counts hold, and every batch must hold the
    planned R."""

    def test_short_gate_batch_rejected(self):
        # the planned 1060 runs tell Liar(0.9) from p_cl = 0.75; twenty
        # runs pass the output check now and then
        def short(device, index, seq, repetitions, seed):
            return device.run_fixed_batch(
                seq, 20 if index == 0 else repetitions, seed)

        assert plan(0, 0.05, 0.05, 0.01).r_gate == 1060
        statistic_passed = 0
        for seed in range(400):
            report = verify_campaign(EditedDevice(Liar(0.9), short),
                                     THREE_QUARTERS, 0.05, 0.05, 0.01, seed)
            assert report.decision == REJECT
            assert (report.failures[0].kind, report.failures[0].stage) == \
                (BATCH_SIZE, None)
            assert report.gate.repetitions == 20
            statistic_passed += report.gate.passed
        assert statistic_passed > 0

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("shift", [-1, 1])
    def test_counts_that_do_not_sum_rejected(self, index, shift):
        def miscount(device, i, seq, repetitions, seed):
            batch = device.run_fixed_batch(seq, repetitions, seed)
            if i != index:
                return batch
            counts = dict(batch.counts)
            counts[max(counts, key=counts.get)] += shift
            return dataclasses.replace(batch, counts=counts)

        report = verify_campaign(EditedDevice(IDEAL, miscount), DET3, 0.05,
                                 0.05, 0.01, seed=21)
        stage = index or None
        assert [(f.kind, f.stage) for f in report.failures] == \
            [(BATCH_SIZE, stage)]
        result, planned = (report.gate, report.plan.r_gate) if index == 0 \
            else (report.stages[index - 1], report.plan.r_meas)
        assert result.repetitions == planned + shift
        assert report.failures[0].observed == planned + shift

    @pytest.mark.parametrize("index", [0, 1])
    def test_empty_batch_rejected(self, index):
        def empty(device, i, seq, repetitions, seed):
            batch = device.run_fixed_batch(seq, repetitions, seed)
            return dataclasses.replace(batch, counts={}) if i == index \
                else batch

        report = verify_campaign(EditedDevice(IDEAL, empty), DET3, 0.05,
                                 0.05, 0.01, seed=21)
        stage = index or None
        assert report.decision == REJECT
        assert (report.failures[0].kind, report.failures[0].stage) == \
            (BATCH_SIZE, stage)
        assert {f.stage for f in report.failures} == {stage}
        result = report.gate if index == 0 else report.stages[index - 1]
        assert result.repetitions == 0 and math.isnan(result.p_hat)
        assert result.ci_halfwidth == math.inf
        assert len(report.stages) == DET3.gadget_count
        assert "REJECT" in report_summary(report)
        # strict JSON: an empty batch's NaN and infinity are written null
        written = json.loads(json.dumps(report_to_json_dict(report),
                                        allow_nan=False))
        section = written["gate_test"] if index == 0 \
            else written["measurement_tests"][index - 1]
        assert section["p_hat"] is None and section["ci_halfwidth"] is None
        assert section["repetitions"] == 0


def _replace_entry(index, edit):
    """An `EditedDevice` edit: in batch `index`, or in every batch when it
    is None, the entry (c, n) of the most frequent cell c gives way to the
    entries edit(m, c, n) returns, m the slots of what the batch was sent,
    each added to what its cell holds; the edit's `replaced` lists each n."""
    def edited(device, i, seq, repetitions, seed):
        batch = device.run_fixed_batch(seq, repetitions, seed)
        if index is not None and i != index:
            return batch
        counts = dict(batch.counts)
        cell = max(counts, key=counts.get)
        edited.replaced.append(counts.pop(cell))
        for c, n in edit(len(seq.events), cell, edited.replaced[-1]).items():
            counts[c] = counts.get(c, 0) + n
        return dataclasses.replace(batch, counts=counts)
    edited.replaced = []
    return edited


class TestRecordRange:
    """Every record of a batch is a cell of the table of what it was sent:
    below 2^m for the m slots of the recorded sequence, or of the stage."""

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("move", [
        lambda m, cell: cell | 1 << (m + 3), lambda m, cell: cell | 1 << m,
        lambda m, cell: cell - (1 << 40), lambda m, cell: cell | 1 << 70],
        ids=["bit m+3", "bit m", "negative", "past int64"])
    def test_a_run_outside_the_table_rejected(self, index, move):
        # the moved run keeps its low bits, all that the statistics used
        # to read, so only the range check sees it; a cell past 64 bits is
        # a REJECT too, not a traceback
        stage = index or None
        for seed in range(20):
            # one run of the most frequent cell c moves to move(m, c)
            report = verify_campaign(
                EditedDevice(IDEAL, _replace_entry(
                    index, lambda m, c, n: {c: n - 1, move(m, c): 1})),
                DET3, 0.05, 0.05, 0.01, seed)
            assert report.decision == REJECT
            assert [(f.kind, f.stage) for f in report.failures] == \
                [(RECORD_OUT_OF_RANGE, stage)]
            assert report.failures[0].observed == 1
            result = report.gate if index == 0 else report.stages[index - 1]
            assert result.out_of_range_runs == 1
            assert len(report.stages) == DET3.gadget_count
            # the count is its failure's alone: no report section gains a
            # field
            written = report_to_json_dict(report)
            section = written["gate_test"] if index == 0 \
                else written["measurement_tests"][index - 1]
            assert "out_of_range_runs" not in section
            assert written["failures"][0]["observed"] == 1

    def test_honest_batches_lie_inside_their_tables(self):
        report = verify_campaign(SimulatedDevice(IDEAL), DET3, 0.05, 0.05,
                                 0.01, 3)
        assert report.accepted
        assert report.gate.out_of_range_runs == 0
        assert [s.out_of_range_runs for s in report.stages] == [0, 0, 0]


class TestMalformedEntries:
    """An entry whose cell or count is no integer, or whose count is
    negative, is read into no statistic and fails RECORD_OUT_OF_RANGE; it
    counts its runs there, a count that is no non-negative integer as one
    run."""

    @pytest.mark.parametrize("index", [0, 2])
    @pytest.mark.parametrize("edit, count_kept", [
        (lambda m, c, n: {float(c): n}, True),
        (lambda m, c, n: {str(c): n}, True),
        (lambda m, c, n: {c: float(n)}, False),
        (lambda m, c, n: {c: np.float64(n)}, False)],
        ids=["float cell", "text cell", "float count", "numpy float count"])
    def test_a_malformed_entry_rejected(self, index, edit, count_kept):
        # a float cell was a TypeError; the entry's runs leave every
        # statistic, so its batch may fail other checks too, but no other
        # batch fails
        stage = index or None
        for seed in (3, 4):
            replace = _replace_entry(index, edit)
            report = verify_campaign(EditedDevice(IDEAL, replace), DET3,
                                     0.05, 0.05, 0.01, seed)
            assert report.decision == REJECT
            kinds = [(f.kind, f.stage) for f in report.failures]
            checks = [(RECORD_OUT_OF_RANGE, stage)] if count_kept else \
                [(BATCH_SIZE, stage), (RECORD_OUT_OF_RANGE, stage)]
            assert kinds[:len(checks)] == checks
            assert {stage for _, stage in kinds} == {stage}
            assert report.failures[len(checks) - 1].observed == (
                replace.replaced[0] if count_kept else 1)
            json.dumps(report_to_json_dict(report), allow_nan=False)

    def test_a_negative_count_cannot_hide_an_impossible_output(self):
        # 5 runs more on a drawn cell and 5 fewer on that cell with its
        # final bit flipped, in every batch, keeps every total at the plan;
        # in the gate batch the -5 sat on an output of classical
        # probability 0 and hid it
        report = verify_campaign(
            EditedDevice(IDEAL, _replace_entry(
                None, lambda m, c, n: {c: n + 5, c ^ 1: -5})),
            DET3, 0.05, 0.05, 0.01, 3)
        assert report.decision == REJECT
        assert report.gate.p_classical in (0.0, 1.0)
        gate = [(f.kind, f.observed) for f in report.failures
                if f.stage is None]
        assert gate[:2] == [(BATCH_SIZE, report.plan.r_gate + 6),
                            (RECORD_OUT_OF_RANGE, 1)]


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


class TestWideCircuit:
    """1004 lines, far past any statevector, at the quick tolerances."""

    WIDE = gadgetize(random_t_circuit(random.Random(1000), 1000, 1000, 4))

    def test_honest_device_accepts(self):
        assert self.WIDE.n_lines == 1004 and self.WIDE.gadget_count == 4
        report = verify_campaign(SimulatedDevice(IDEAL), self.WIDE,
                                 0.05, 0.05, 0.01, seed=7)
        assert report.accepted

    def test_reads_inputs_only_on_support_lines(self, monkeypatch):
        # every table reads the Bloch vectors of its operators' support
        # lines, never a vector per line of the circuit
        calls = []
        original = InputState.bloch

        def counted(state):
            calls.append(state)
            return original(state)
        monkeypatch.setattr(InputState, "bloch", counted)
        verify_campaign(SimulatedDevice(IDEAL), self.WIDE, 0.05, 0.05, 0.01,
                        seed=7)
        assert 0 < len(calls) < self.WIDE.n_lines

    def test_coin_bias_rejected_at_every_stage(self):
        report = verify_campaign(SimulatedDevice(GadgetCoinBias(0.1)),
                                 self.WIDE, 0.05, 0.05, 0.01, seed=7)
        assert report.decision == REJECT
        assert {f.stage for f in report.failures
                if f.kind == GADGET_BIAS} == {1, 2, 3, 4}


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
