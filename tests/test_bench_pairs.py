"""tools/bench_pairs.py: its summary of alternating benchmark pairs, on
canned `perfbench/run.py` results."""

import importlib.util
import json

import pytest

from helpers import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "campaign_p50_ref", "unit": "ref", "better": "lower",
     "bound": 0.15},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def result(p50, rate, correct=True, failed=0):
    return {"correct": correct, "attempted": 40, "failed": failed,
            "metrics": {"campaign_p50_ref": {"value": p50, "unit": "ref"},
                        "rate": {"value": rate, "unit": "1/s"}}}


PAIRS = [(result(1.0, 10.0), result(0.8, 9.0)),
         (result(0.9, 10.0), result(0.85, 8.0)),
         (result(1.1, 10.0), result(1.2, 8.5)),
         (result(1.2, 10.0), result(0.9, 11.0))]


def test_summary_medians_spread_and_wins():
    p50, rate = bench_pairs.summarize(DECLARED, PAIRS)
    assert p50["parent_median"] == pytest.approx(1.05)
    assert p50["change_median"] == pytest.approx(0.875)
    assert p50["relative"] == pytest.approx(0.875 / 1.05 - 1.0)
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2 are 0.975 and 1.125
    assert p50["parent_iqr"] == pytest.approx(0.15)
    # 0.8, 0.85, 0.9, 1.2: 0.8375 and 0.975
    assert p50["change_iqr"] == pytest.approx(0.1375)
    assert (p50["wins"], p50["pairs"]) == (3, 4)
    assert not p50["past_bound"]
    # higher is better: one win, and a 13.8 % drop is past a 0.1 bound
    assert rate["change_median"] == pytest.approx(8.75)
    assert rate["parent_iqr"] == 0.0
    assert rate["wins"] == 1
    assert rate["past_bound"]


def test_sign_test_is_the_exact_binomial_tail():
    # two-sided, ties dropped: 9 of 10 is 2 * 11 / 1024
    assert bench_pairs.sign_test(9, 1) == pytest.approx(22 / 1024)
    assert bench_pairs.sign_test(1, 9) == bench_pairs.sign_test(9, 1)
    assert bench_pairs.sign_test(10, 0) == pytest.approx(2 / 1024)
    assert bench_pairs.sign_test(5, 5) == 1.0
    assert bench_pairs.sign_test(0, 0) == 1.0
    # against scipy's exact binomial test
    from scipy.stats import binomtest
    for wins, losses in ((9, 1), (7, 3), (12, 2), (3, 0)):
        assert bench_pairs.sign_test(wins, losses) == pytest.approx(
            binomtest(wins, wins + losses).pvalue)


def test_summary_sign_test_drops_ties():
    # p50 wins 3 of 4 pairs; rate wins 1 and loses 3
    p50, rate = bench_pairs.summarize(DECLARED, PAIRS)
    assert p50["sign_p"] == pytest.approx(2 * 5 / 16)
    assert rate["sign_p"] == pytest.approx(2 * 5 / 16)
    # a tied pair counts for neither side: 2 wins, 1 loss, 1 tie
    tied = PAIRS[:3] + [(result(1.2, 10.0), result(1.2, 10.0))]
    row = bench_pairs.summarize(DECLARED, tied)[0]
    assert (row["wins"], row["sign_p"]) == (2, 1.0)
    text = bench_pairs.format_rows([p50, rate]).splitlines()
    assert "sign_p" in text[0] and " 0.625 " in text[1]


def test_one_pair_has_no_spread():
    (row, _) = bench_pairs.summarize(DECLARED, PAIRS[:1])
    assert row["parent_iqr"] == 0.0 and row["wins"] == 1


def test_table_flags_a_metric_past_its_bound():
    text = bench_pairs.format_rows(bench_pairs.summarize(DECLARED, PAIRS))
    lines = text.splitlines()
    assert len(lines) == 3
    assert "PAST BOUND" not in lines[1] and "-16.67%" in lines[1]
    assert lines[2].endswith("PAST BOUND")


def test_a_spread_past_the_bound_is_unresolved():
    # parent p50 runs 1.0, 1.4, 0.8, 1.2: an IQR of 0.3 is 27 % of their
    # median 1.1, past the 0.15 bound; rates spread 14 % against 0.1
    wide = [(result(p, r), result(c, s)) for p, c, r, s in (
        (1.0, 0.95, 10.0, 13.0), (1.4, 1.3, 12.0, 13.5),
        (0.8, 0.9, 9.0, 12.5), (1.2, 1.1, 11.0, 13.0))]
    p50, rate = bench_pairs.summarize(DECLARED, wide)
    assert p50["parent_spread"] == pytest.approx(0.3 / 1.1)
    assert p50["unresolved"] and not p50["past_bound"]
    # every change rate beats every parent rate: resolved despite spread
    assert rate["parent_spread"] > rate["bound"]
    assert not rate["unresolved"]
    lines = bench_pairs.format_rows([p50, rate]).splitlines()
    assert lines[1].endswith("UNRESOLVED") and "UNRESOLVED" not in lines[2]
    # a narrow parent spread resolves, whatever the change runs read
    assert not any(row["unresolved"]
                   for row in bench_pairs.summarize(DECLARED, PAIRS))
    # every change run beating every parent run resolves a lower metric
    faster = [(p, result(c["metrics"]["campaign_p50_ref"]["value"] - 0.7,
                         10.0)) for p, c in wide]
    assert not bench_pairs.summarize(DECLARED, faster)[0]["unresolved"]


@pytest.mark.parametrize("bad, code", [
    (None, 0), (dict(correct=False), 1), (dict(failed=2), 1)])
def test_runs_alternate_and_failures_set_the_exit_code(
        tmp_path, monkeypatch, capsys, bad, code):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(
            json.dumps({"end_to_end": DECLARED}))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        fails = bad if bad and len(calls) == 3 else {}
        return result(1.0, 10.0, **fails)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(tmp_path / "parent"),
                             str(tmp_path / "change"), "--workload", "w",
                             "--seed", "5", "--pairs", "3"]) == code
    assert calls == ["parent", "change", "change", "parent", "parent",
                     "change"]
    out = capsys.readouterr().out
    assert ("FAILED pair 1 change" in out) == bool(bad)
