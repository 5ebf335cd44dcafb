"""Command-line interface: exit codes, output files, reproducibility."""

import json

import pytest

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


class TestProbability:
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

    def test_non_bit_outcomes(self, tmp_path):
        src = tmp_path / "c.circ"
        src.write_text(GOOD_CIRCUIT)
        assert main(["probability", str(src), "2"]) == 2


class TestVerify:
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
