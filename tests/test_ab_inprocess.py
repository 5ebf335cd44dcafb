"""tools/ab_inprocess.py: one round of the repository against itself, its
output format only (no timing is asserted)."""

import re
import subprocess
import sys

from helpers import REPO_ROOT

ROW = re.compile(
    r"(adaptive_tree|probe_table|depolarizing_loop): change/parent "
    r"\d+\.\d{4} \[\d+\.\d{4}, \d+\.\d{4}\] parent \d+\.\d{3} ms change "
    r"\d+\.\d{3} ms \((\d+) campaigns, 1 rounds, seed 3\)")


def test_one_round_against_itself():
    proc = subprocess.run(
        [sys.executable, "tools/ab_inprocess.py", str(REPO_ROOT),
         str(REPO_ROOT), "--seed", "3", "--rounds", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = [ROW.fullmatch(line) for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [row[1] for row in rows] == ["adaptive_tree", "probe_table",
                                        "depolarizing_loop"]
    assert all(int(row[2]) > 0 for row in rows)


def test_unknown_workload_refused():
    proc = subprocess.run(
        [sys.executable, "tools/ab_inprocess.py", str(REPO_ROOT),
         str(REPO_ROOT), "--workload", "cli_configs"],
        cwd=REPO_ROOT, capture_output=True, text=True, check=False,
        timeout=300)
    assert proc.returncode == 2
    assert "--workload must be one of" in proc.stderr
