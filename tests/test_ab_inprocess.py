"""tools/ab_inprocess.py: one round of the repository against itself, its
output format only (no timing is asserted)."""

import re
import subprocess
import sys

from helpers import REPO_ROOT

ROW = re.compile(
    r"(adaptive_tree|probe_table|depolarizing_loop|cli_configs): "
    r"change/parent \d+\.\d{4} \[\d+\.\d{4}, \d+\.\d{4}\] parent "
    r"\d+\.\d{3} ms change \d+\.\d{3} ms \((\d+) campaigns, 1 rounds, "
    r"seed 3\)")


def run_tool(*args):
    return subprocess.run(
        [sys.executable, "tools/ab_inprocess.py", str(REPO_ROOT),
         str(REPO_ROOT), *args],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        timeout=300)


def test_one_round_against_itself():
    proc = run_tool("--seed", "3", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = [ROW.fullmatch(line) for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [row[1] for row in rows] == ["adaptive_tree", "probe_table",
                                        "depolarizing_loop", "cli_configs"]
    assert all(int(row[2]) > 0 for row in rows)


def test_cli_configs_sweep_is_one_campaign(tmp_path):
    # the sweep runs in its own temporary directory: nothing is written
    # where the tool is started
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "ab_inprocess.py"),
         str(REPO_ROOT), str(REPO_ROOT), "--workload", "cli_configs",
         "--seed", "3", "--rounds", "1"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    row = ROW.fullmatch(proc.stdout.strip())
    assert row and row[1] == "cli_configs" and row[2] == "1", proc.stdout
    assert list(tmp_path.iterdir()) == []


def test_unknown_workload_refused():
    proc = run_tool("--workload", "no_such_workload")
    assert proc.returncode == 2
    assert "--workload must be one of" in proc.stderr
    assert "cli_configs" in proc.stderr


def test_fresh_sweeps_write_new_reports(tmp_path):
    # every sweep deletes the reports' directories first, in the sweep's
    # own temporary directory
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "ab_inprocess.py"),
         str(REPO_ROOT), str(REPO_ROOT), "--workload", "cli_configs",
         "--seed", "3", "--rounds", "2", "--fresh"],
        cwd=tmp_path, capture_output=True, text=True, check=False,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("cli_configs: change/parent ")
    assert proc.stdout.endswith("(1 campaigns, 2 rounds, seed 3, fresh)\n")
    assert list(tmp_path.iterdir()) == []
