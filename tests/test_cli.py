"""Command-line interface: exit codes, output files, reproducibility."""

import io
import json
import os
import stat
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffcert.circuit import (MAX_DECLARED_LINES, gadgetize, parse_circuit,
                               serialize)
from cliffcert.cli import main

from helpers import CIRCUITS


GOOD_CIRCUIT = """qubits 1
H 0
T 0
H 0
MEASURE 0 out
"""

BAD_CIRCUIT = """qubits 1
H 0
WOBBLE 0
MEASURE 0 out
"""


# not UTF-8 at byte offset 11, as the undecodable config below
UNDECODABLE = b"qubits 1\nH \xff0\nMEASURE 0 out\n"


def assert_names_undecodable(code, capsys, path):
    err = capsys.readouterr().err
    assert code == 2
    assert str(path) in err and "position 11" in err
    assert "Traceback" not in err


def write_config(path, circuit, seed=7, fault="ideal", out="out",
                 epsilon=0.05, eta=0.05, delta=0.01, extra_check_lines=2):
    path.write_text(
        f"circuit = {circuit}\n"
        f"seed = {seed}\n"
        f"epsilon = {epsilon}\n"
        f"eta = {eta}\n"
        f"delta = {delta}\n"
        f"fault = {fault}\n"
        f"extra_check_lines = {extra_check_lines}\n"
        f"output_dir = {out}\n")


class TestGadgetize:
    def test_happy_path(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        dst = tmp_path / "g.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["gadgetize", str(src), str(dst)]) == 0
        assert "t=1" in capsys.readouterr().out
        assert "TGADGET 0 1" in dst.read_text()

    def test_t_free_circuit_reports_zero(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text("qubits 1\nH 0\nMEASURE 0 out\n")
        assert main(["gadgetize", str(src), str(tmp_path / "g.circ")]) == 0
        assert "t=0" in capsys.readouterr().out

    def test_invalid_file_exits_2_with_position(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text(BAD_CIRCUIT)
        assert main(["gadgetize", str(src), str(tmp_path / "g.circ")]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["gadgetize", str(tmp_path / "nope.circ"),
                     str(tmp_path / "g.circ")]) == 2

    def test_unwritable_output_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        dst = tmp_path / "missing" / "g.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["gadgetize", str(src), str(dst)]) == 2
        captured = capsys.readouterr()
        assert str(dst) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_too_wide_result_exits_2_naming_input(self, tmp_path, capsys):
        # one ancilla past the width cap: refused, nothing written
        src = tmp_path / "c.circ"
        dst = tmp_path / "g.circ"
        src.write_text(f"qubits {MAX_DECLARED_LINES}\nT 0\nMEASURE 0 out\n")
        assert main(["gadgetize", str(src), str(dst)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: " in err and str(MAX_DECLARED_LINES) in err
        assert not dst.exists()


class TestProbability:
    def test_undecodable_circuit_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_bytes(UNDECODABLE)
        assert_names_undecodable(main(["probability", str(src)]), capsys,
                                 src)

    def test_identity_circuit(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text("qubits 1\nMEASURE 0 out\n")
        assert main(["probability", str(src)]) == 0
        out = capsys.readouterr().out
        assert "P(0)=1.000000000000" in out
        assert "P(1)=0.000000000000" in out

    def test_h_circuit(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text("qubits 1\nH 0\nMEASURE 0 out\n")
        assert main(["probability", str(src)]) == 0
        assert "P(0)=0.500000000000" in capsys.readouterr().out

    def test_t_circuit_with_outcomes(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["probability", str(src), "0"]) == 0
        out = capsys.readouterr().out
        assert "P(0)=0.853553390593" in out

    def test_outcome_length_mismatch(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["probability", str(src), "01"]) == 2
        assert f"error: {src}: got 2 outcomes for 1 gadgets" in \
            capsys.readouterr().err

    def test_non_bit_outcomes(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["probability", str(src), "2"]) == 2
        assert f"error: {src}: outcomes must be a bit string" in \
            capsys.readouterr().err


class TestVerify:
    def test_undecodable_config_exits_2_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 3\n# \xff\n")
        assert_names_undecodable(main(["verify", str(cfg)]), capsys, cfg)

    def test_undecodable_circuit_exits_2_naming_it(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_bytes(UNDECODABLE)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, src, out=tmp_path / "out")
        assert_names_undecodable(main(["verify", str(cfg)]), capsys, src)

    def test_honest_campaign_accepts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                     out=tmp_path / "out")
        assert main(["verify", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "decision: ACCEPT" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["decision"] == "ACCEPT"
        assert (tmp_path / "out" / "report.txt").exists()

    def test_faulty_campaign_rejects_exit_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                     fault="gadget_coin_bias 0.1", out=tmp_path / "out")
        assert main(["verify", str(cfg)]) == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        kinds = [f["kind"] for f in report["failures"]]
        assert "GADGET_BIAS" in kinds

    def test_reports_byte_identical_across_runs(self, tmp_path):
        for name in ("a", "b"):
            cfg = tmp_path / f"{name}.cfg"
            write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                         out=tmp_path / name)
            main(["verify", str(cfg)])
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "report.txt").read_bytes() == \
            (tmp_path / "b" / "report.txt").read_bytes()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("circuit = x.circ\nwibble = 3\n")
        assert main(["verify", str(cfg)]) == 2

    def test_missing_circuit_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        assert main(["verify", str(cfg)]) == 2

    def test_bad_fault_spec_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                     fault="gremlin 1")
        assert main(["verify", str(cfg)]) == 2

    def test_non_finite_fault_parameter_exits_2(self, tmp_path, capsys):
        for fault in ("gadget_coin_bias nan", "magic_miscalibration inf",
                      "magic_miscalibration nan"):
            cfg = tmp_path / "run.cfg"
            write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                         fault=fault, out=tmp_path / "out")
            assert main(["verify", str(cfg)]) == 2
            assert str(cfg) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, line, fault", [
        ("CX 1 2\nMEASURE 2 a\n", 5, "gadget_coin_bias 0.1"),
        ("H 1\n", 4, "ideal"),
    ], ids=["measured_coin_bias", "gate_ideal"])
    def test_used_gadget_ancilla_exits_2_with_position(
            self, tmp_path, capsys, body, line, fault):
        src = tmp_path / "c.circ"
        src.write_text("qubits 3\ninput 1 MAGIC\n" + body +
                       "TGADGET 0 1\nMEASURE 0 out\n")
        cfg = tmp_path / "run.cfg"
        write_config(cfg, src, fault=fault, out=tmp_path / "out")
        assert main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: line {line}, column 1: gadget ancilla 1 used " \
               "before its gadget" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", "-1"), ("epsilon", "0"), ("eta", "1.5"), ("delta", "nan"),
        ("extra_check_lines", "-1"),
    ])
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys,
                                                key, value):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                     out=tmp_path / "out", **{key: value})
        assert main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: bad value for {key!r}: {value!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, position", [
        ("qubits 100000000000\nMEASURE 0 out\n", "line 1, column 8"),
        ("qubits 2\ninput 1 MAGIC\n", "line 2, column 14"),
        ("qubits 1\nH 0\nMEASURE 0 result\n", "line 3, column 11"),
    ], ids=["width_over_cap", "header_only", "final_label_not_out"])
    def test_circuit_error_exits_2_with_position(self, tmp_path, capsys,
                                                 text, position):
        src = tmp_path / "c.circ"
        src.write_text(text)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, src, out=tmp_path / "out")
        assert main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{src}: {position}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("values, key", [
        (dict(eta="1e-10"), "eta"),
        (dict(epsilon="1e-9", eta="0.2"), "epsilon"),
    ], ids=["eta", "epsilon"])
    def test_batch_too_large_exits_2_before_campaign(self, tmp_path, capsys,
                                                     values, key):
        # more runs than one multinomial draw holds: refused up front
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ",
                     out=tmp_path / "out", **values)
        assert main(["verify", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"error: {cfg}: {key} = {float(values[key])!r} asks for " \
            in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("under", [True, False],
                             ids=["under_a_file", "is_a_file"])
    def test_unusable_output_dir_exits_2_before_campaign(
            self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        cfg = tmp_path / "run.cfg"
        write_config(cfg, CIRCUITS / "deterministic_t3.circ", out=out)
        assert main(["verify", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert str(out) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    def test_wide_circuit_runs(self, tmp_path, capsys):
        src = tmp_path / "c.circ"
        src.write_text("qubits 21\nH 0\nMEASURE 0 out\n")
        cfg = tmp_path / "run.cfg"
        write_config(cfg, src, out=tmp_path / "out")
        assert main(["verify", str(cfg)]) == 0

    @pytest.mark.parametrize("text, extra, message", [
        ("qubits 13\nT 0\nMEASURE 0 out\n", 12,
         "bad value for 'extra_check_lines': 12 probes make a 13-line probe "
         "table"),
        ("qubits 21\n" + "".join(f"MEASURE {i} x\n" for i in range(20))
         + "MEASURE 20 out\n", 2, "needs a 21-slot record table"),
        ("qubits 21\n" + "".join(f"MEASURE {i} x\n" for i in range(16))
         + "T 16\nMEASURE 16 out\n", 4, "needs a 21-slot record table"),
    ], ids=["probe_table", "gate_test", "stage_prefix"])
    def test_table_over_limit_exits_2_before_campaign(
            self, tmp_path, capsys, text, extra, message):
        src = tmp_path / "c.circ"
        src.write_text(text)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, src, out=tmp_path / "out",
                     extra_check_lines=extra)
        assert main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"error: {cfg}: " in err and message in err
        assert not (tmp_path / "out").exists()

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CLIFFCERT_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"circuit = {CIRCUITS / 'phase_probe.circ'}\n"
            "seed = 3\nepsilon = 0.05\neta = 0.05\ndelta = 0.01\n")
        code = main(["verify", str(cfg)])
        assert code in (0, 1)
        assert (tmp_path / "envout" / "report.json").exists()


REPORTS = ("report.json", "report.txt")


def verify_into(tmp_path, out):
    """An honest deterministic_t3 campaign written into `out`; its exit
    code."""
    cfg = tmp_path / "run.cfg"
    write_config(cfg, CIRCUITS / "deterministic_t3.circ", out=out)
    return main(["verify", str(cfg)])


def fresh_reports(tmp_path):
    out = tmp_path / "fresh"
    assert verify_into(tmp_path, out) == 0
    return {name: (out / name).read_bytes() for name in REPORTS}


class TestReportFiles:
    """A report path that already exists is overwritten with the bytes a
    fresh directory gets, whatever it held, and keeps what it is: a link
    stays a link, a device a device, and a file its mode."""

    def test_used_output_dir_gets_fresh_bytes(self, tmp_path):
        fresh = fresh_reports(tmp_path)
        used = tmp_path / "used"
        assert verify_into(tmp_path, used) == 0
        for junk in (bytes(range(256)) * 256, b"x"):
            for name in REPORTS:
                (used / name).write_bytes(junk)
            assert verify_into(tmp_path, used) == 0
            for name in REPORTS:
                assert (used / name).read_bytes() == fresh[name]

    def test_symlinked_report_writes_its_target(self, tmp_path):
        fresh = fresh_reports(tmp_path)
        out, target = tmp_path / "out", tmp_path / "elsewhere.json"
        out.mkdir()
        target.write_text("old")
        (out / "report.json").symlink_to(target)
        assert verify_into(tmp_path, out) == 0
        assert (out / "report.json").is_symlink()
        assert target.read_bytes() == fresh["report.json"]

    def test_report_linked_to_devnull(self, tmp_path):
        fresh = fresh_reports(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "report.json").symlink_to(os.devnull)
        assert verify_into(tmp_path, out) == 0
        assert (out / "report.txt").read_bytes() == fresh["report.txt"]

    def test_report_path_a_directory_exits_2_naming_it(self, tmp_path,
                                                        capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert verify_into(tmp_path, out) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(out / "report.json") in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_existing_report_keeps_its_mode(self, tmp_path):
        # a new report is 0o666 under the umask, as `Path.write_text` makes
        umask = os.umask(0o022)
        os.umask(umask)
        fresh_reports(tmp_path)
        for name in REPORTS:
            assert stat.S_IMODE((tmp_path / "fresh" / name).stat().st_mode) \
                == 0o666 & ~umask
        out = tmp_path / "out"
        out.mkdir()
        for name in REPORTS:
            (out / name).write_text("old")
            (out / name).chmod(0o600)
        assert verify_into(tmp_path, out) == 0
        for name in REPORTS:
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o600

    def reports_under(self, tmp_path, old):
        """tmp_path/out holding `old` in both reports, and a test of
        whether an fd is one of them."""
        out = tmp_path / "out"
        out.mkdir()
        for name in REPORTS:
            (out / name).write_bytes(old)
        held = [(out / name).stat() for name in REPORTS]
        return out, lambda fd: any(os.path.samestat(os.fstat(fd), info)
                                   for info in held)

    def test_short_writes_write_every_byte(self, tmp_path, monkeypatch):
        fresh = fresh_reports(tmp_path)
        out, is_report = self.reports_under(tmp_path, b"old" * 9000)
        real = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real(
            fd, data[:7] if is_report(fd) else data))
        assert verify_into(tmp_path, out) == 0
        for name in REPORTS:
            assert (out / name).read_bytes() == fresh[name]

    @pytest.mark.parametrize("old_size", [500, 1 << 16])
    def test_failed_write_leaves_no_old_bytes(self, tmp_path, monkeypatch,
                                              capsys, old_size):
        # a report shorter than the new text but longer than what was
        # written before a write failed, and one longer than the text:
        # either holds the written bytes and nothing of the old report
        fresh = fresh_reports(tmp_path)
        assert len(fresh["report.json"]) > old_size or old_size > 5000
        out, is_report = self.reports_under(tmp_path, b"o" * old_size)
        real, calls = os.write, []

        def failing(fd, data):
            if not is_report(fd):
                return real(fd, data)
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(28, "No space left on device")
            return real(fd, data[:100])
        monkeypatch.setattr(os, "write", failing)
        assert verify_into(tmp_path, out) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out / "report.json").read_bytes() == \
            fresh["report.json"][:100]
        assert (out / "report.txt").read_bytes() == b"o" * old_size

    def test_gadgetize_to_devnull_and_over_a_longer_file(self, tmp_path,
                                                         capsys):
        src = tmp_path / "c.circ"
        src.write_text(GOOD_CIRCUIT)
        text = serialize(gadgetize(parse_circuit(GOOD_CIRCUIT)))
        assert main(["gadgetize", str(src), os.devnull]) == 0
        dst = tmp_path / "g.circ"
        dst.write_text(text * 3)
        assert main(["gadgetize", str(src), str(dst)]) == 0
        assert dst.read_bytes() == text.encode("utf-8")


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bundled_configs_parse(self):
        from cliffcert.cli import parse_config
        from helpers import CONFIGS
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            parsed = parse_config(cfg)
            assert parsed.circuit_path.exists()


# -- property: malformed input never escapes as a traceback ----------------

FUZZ_TOKENS = ("qubits", "input", "MAGIC", "ONE", "GENERAL", "H", "T", "CX",
               "SWAP", "TGADGET", "MEASURE", "out", "x", "0", "1", "2", "4",
               "-1", "65537", "1.5", "nan", "#", "")
FUZZ_VALUES = {
    "seed": ("0", "-1", "x", "1e3", str(2 ** 70)),
    "epsilon": ("0.05", "0", "1", "1e-9", "1e-300", "nan", "-0.1"),
    "eta": ("0.05", "0", "1.5", "1e-9", "1e-10", "inf", "x"),
    "delta": ("0.01", "0", "1", "1e-300", "nan"),
    "fault": ("ideal", "liar 0.3", "liar 2", "gadget_coin_bias 0.1",
              "gadget_coin_bias nan", "depolarizing 0.05",
              "magic_miscalibration 1e300", "gremlin", "liar"),
    "extra_check_lines": ("0", "2", "11", "-1", "x", str(10 ** 30)),
}
# (kind, line, other line, token): drop, duplicate or move a line, or put
# the token in place of one of its words
circuit_edits = st.lists(st.tuples(
    st.sampled_from(("drop", "copy", "move", "token")),
    st.integers(0, 40), st.integers(0, 40), st.sampled_from(FUZZ_TOKENS)),
    max_size=3)


def mutated(text: str, edits) -> str:
    lines = text.splitlines()
    for kind, i, j, token in edits:
        if not lines:
            break
        i %= len(lines)
        if kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(j % (len(lines) + 1), lines[i])
        elif kind == "move":
            lines.insert(j % len(lines), lines.pop(i))
        else:
            words = lines[i].split() or [""]
            words[j % len(words)] = token
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(("verify", "probability", "gadgetize")),
       edits=circuit_edits,
       values=st.fixed_dictionaries({}, optional={
           key: st.sampled_from(choices)
           for key, choices in FUZZ_VALUES.items()}),
       outcomes=st.sampled_from(("", "0", "101", "000", "2")))
def test_mutated_input_exits_cleanly(command, edits, values, outcomes):
    with tempfile.TemporaryDirectory() as tmp:
        circuit = Path(tmp) / "c.circ"
        circuit.write_text(mutated(
            (CIRCUITS / "deterministic_t3.circ").read_text(), edits))
        cfg = Path(tmp) / "run.cfg"
        write_config(cfg, circuit, out=Path(tmp) / "out", **values)
        argv = {"verify": ["verify", str(cfg)],
                "probability": ["probability", str(circuit), outcomes],
                "gadgetize": ["gadgetize", str(circuit),
                              str(Path(tmp) / "g.circ")]}[command]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert str(circuit) in err.getvalue() or str(cfg) in err.getvalue()
    if code == 1:
        assert command == "verify"
