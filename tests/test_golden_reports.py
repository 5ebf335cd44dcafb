"""The bundled configs' reports, byte for byte.

`tests/golden/<config>/` holds the `report.json` and `report.txt` that
`cliffcert verify configs/<config>.cfg` writes.  A change to the program
that keeps every verdict and every sampled count keeps these bytes; one
that moves a random draw or a float's last digit shows up here.
"""

import pytest

from cliffcert.cli import main, parse_config

from helpers import CONFIGS, REPO_ROOT

GOLDEN = REPO_ROOT / "tests" / "golden"
NAMES = sorted(cfg.stem for cfg in CONFIGS.glob("*.cfg"))


def test_every_bundled_config_has_golden_reports():
    assert NAMES == sorted(d.name for d in GOLDEN.iterdir())
    assert len(NAMES) == 5


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_golden_bytes(name, tmp_path, monkeypatch, capsys):
    config = CONFIGS / f"{name}.cfg"
    monkeypatch.chdir(tmp_path)  # the configs' output_dir is relative
    code = main(["verify", str(config)])
    out_dir = parse_config(config).output_dir
    for report in ("report.json", "report.txt"):
        assert (out_dir / report).read_bytes() == \
            (GOLDEN / name / report).read_bytes(), report
    summary = (GOLDEN / name / "report.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == summary
    assert code == (0 if summary.startswith("decision: ACCEPT") else 1)
