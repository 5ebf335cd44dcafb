"""Spans and counters for the traced run, recorded from outside the program.

The program has no tracing of its own, so the traced run installs wrappers
on the public module attributes through which the layers call each other
(`cliffcert.protocol.joint_output_probability`, `cliffcert.statevector.
apply_gate`, ...) and passes verify_campaign a proxy device that times the
prover.  `Tracer.installed()` restores every attribute on exit.

A span records its name, start, end, parent span, campaign id and self
time (its duration minus the time of its child spans).  Statevector calls
run hundreds of thousands of times per run, so they add their time and
amplitude count to the enclosing span instead of making spans of their own.
"""

from __future__ import annotations

import contextlib
import json
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

# Index of the accumulated child time in an open frame.
_CHILD = 3


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.campaign = None
        self.layer_s = Counter()   # time with the layer on the stack
        self.name_s = Counter()    # span time by name
        self.self_s = Counter()    # span self time by name
        self.calls = Counter()     # spans by name
        self.count = Counter()     # work counters
        self._stack: list[list] = []
        self._depth = Counter()
        self._backprops: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str, layer: str | None) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [len(self.spans), name, layer, 0.0, parent,
                 self._depth[layer] == 0, perf_counter()]
        self.spans.append(None)  # reserve the id; filled on close
        self._depth[layer] += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = perf_counter()
        span_id, name, layer, child, parent, outermost, start = frame
        self._stack.pop()
        self._depth[layer] -= 1
        duration = end - start
        if outermost and layer is not None:
            self.layer_s[layer] += duration
        if self._stack:
            self._stack[-1][_CHILD] += duration
        self.name_s[name] += duration
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self.spans[span_id] = (span_id, name, start, end, parent,
                               self.campaign, duration - child)
        return duration

    def wrap(self, name: str, layer: str, fn, counter: str | None = None):
        """`fn` as a span; with `counter`, the repetitions of each test
        result it returns are added to that counter."""
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if counter:
                tracer.count[counter] += result.repetitions
            return result
        return traced

    def leaf(self, fn):
        """Statevector call: time and amplitudes, credited to the
        enclosing span."""
        tracer = self

        def traced(state, *args, **kwargs):
            start = perf_counter()
            try:
                return fn(state, *args, **kwargs)
            finally:
                duration = perf_counter() - start
                tracer.layer_s["statevector"] += duration
                tracer.count["statevector.calls"] += 1
                tracer.count["statevector.amplitudes"] += state.size
                if tracer._stack:
                    tracer._stack[-1][_CHILD] += duration
        return traced

    # -- campaigns -------------------------------------------------------

    def begin_campaign(self, campaign_id) -> list:
        self.campaign = campaign_id
        return self.open("campaign", None)

    def end_campaign(self, frame: list) -> None:
        self.close(frame)
        self.campaign = None
        self._settle_backprops()

    def _settle_backprops(self) -> None:
        """Turn this campaign's backpropagate calls into counts: calls,
        distinct (sequence, line, prefix) operators, and Pauli
        conjugations (one per unitary gate of the prefix).  Equal
        sequences built as separate objects count as one sequence."""
        calls = self._backprops
        self._backprops = []
        canon: dict[int, int] = {}
        seen: dict = {}
        for seq, _, _ in calls:
            if id(seq) not in canon:
                canon[id(seq)] = seen.setdefault(seq, len(seen))
        conjugations: dict[tuple, int] = {}
        for seq, _, at in calls:
            key = (canon[id(seq)], at)
            if key not in conjugations:
                conjugations[key] = sum(
                    1 for ins in seq.instructions[:at]
                    if ins.op not in ("MEASURE", "ID"))
            self.count["pauli.conjugations"] += conjugations[key]
        self.count["pauli.backprop_calls"] += len(calls)
        self.count["pauli.backprop_distinct"] += len(
            {(canon[id(seq)], line, at) for seq, line, at in calls})

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, cc):
        """Wrap the program's layer boundaries for the duration of the
        block; `cc` is the imported cliffcert package."""
        from cliffcert import circuit, cli, pauli, protocol, statevector
        tracer = self
        patches = []

        def patch(module, attr, value):
            patches.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        validate = self.wrap("circuit.validate", "circuit", circuit.validate)
        patch(circuit, "validate", validate)
        patch(cli, "validate", validate)
        patch(cli, "parse_circuit", self.wrap(
            "circuit.parse_circuit", "circuit", circuit.parse_circuit))
        patch(cli, "gadgetize", self.wrap(
            "circuit.gadgetize", "circuit", circuit.gadgetize))

        original_backprop = pauli.backpropagate

        def backpropagate(seq, line, at=None):
            tracer._backprops.append(
                (seq, line, len(seq.instructions) if at is None else at))
            return original_backprop(seq, line, at)
        patch(pauli, "backpropagate",
              self.wrap("pauli.backpropagate", "pauli", backpropagate))
        for attr in ("joint_output_probability", "single_output_probability"):
            patch(protocol, attr,
                  self.wrap(f"pauli.{attr}", "pauli", getattr(pauli, attr)))

        for attr in ("apply_gate", "apply_pauli", "collapse",
                     "probability_of_one"):
            patch(statevector, attr, self.leaf(getattr(statevector, attr)))

        verify = self.wrap("protocol.verify_campaign", "protocol",
                           protocol.verify_campaign)
        patch(protocol, "verify_campaign", verify)
        patch(cli, "verify_campaign", verify)
        for attr, counter in (("run_gate_tests", "protocol.r_gate"),
                              ("run_measurement_tests", None),
                              ("run_measurement_stage",
                               "protocol.r_meas_total")):
            patch(protocol, attr, self.wrap(f"protocol.{attr}", "protocol",
                                            getattr(protocol, attr), counter))

        patch(cli, "parse_config", self.wrap("cli.parse_config", "cli",
                                             cli.parse_config))
        for attr in ("report_to_json_dict", "report_summary"):
            patch(cli, attr, self.wrap("cli.report_write", "cli",
                                       getattr(cli, attr)))
        patch(cli, "json", types.SimpleNamespace(
            dumps=self.wrap("cli.report_write", "cli", json.dumps)))
        patch(cli, "Path", self._report_path_class(cli.Path))
        patch(cli, "SimulatedDevice",
              lambda *a, **kw: TimedDevice(cc.SimulatedDevice(*a, **kw),
                                           tracer))
        try:
            yield self
        finally:
            for module, attr, value in reversed(patches):
                setattr(module, attr, value)

    def _report_path_class(self, path_class):
        """Path subclass whose write_text is a report-writing span."""
        tracer = self

        class ReportPath(type(path_class())):
            def write_text(self, data, *args, **kwargs):
                frame = tracer.open("cli.report_write", "cli")
                try:
                    return super().write_text(data, *args, **kwargs)
                finally:
                    tracer.close(frame)
                    tracer.count["cli.report_bytes"] += len(
                        data.encode("utf-8"))
        return ReportPath

    def write_spans(self, path: Path) -> None:
        fields = ("id", "name", "start", "end", "parent", "campaign",
                  "self_s")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(dict(zip(fields, span))) + "\n")


class TimedDevice:
    """Proxy device: times the prover's two entry points and counts runs,
    measurement slots and distinct records."""

    def __init__(self, device, tracer: Tracer):
        self.device = device
        self.tracer = tracer

    def run_adaptive(self, circuit, seed):
        frame = self.tracer.open("prover.run_adaptive", "prover")
        try:
            return self.device.run_adaptive(circuit, seed)
        finally:
            self.tracer.close(frame)
            self.tracer.count["prover.device_runs"] += 1

    def run_fixed_batch(self, seq, repetitions, seed):
        frame = self.tracer.open("prover.run_fixed_batch", "prover")
        try:
            batch = self.device.run_fixed_batch(seq, repetitions, seed)
        finally:
            self.tracer.close(frame)
        count = self.tracer.count
        count["prover.batches"] += 1
        count["prover.device_runs"] += batch.repetitions
        count["prover.record_slots"] += len(batch.events)
        count["prover.distinct_records"] += len(batch.counts)
        return batch
