"""The summary of ``scripts/ab_pairs.py`` on fixed numbers; no benchmark
runs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [{"name": "verify_ms_p50", "better": "lower"}, {"name": "certs_per_s", "better": "higher"}]


def _run(verify_ms, certs, digest="d", correct=True):
    return {"metrics": {"verify_ms_p50": verify_ms, "certs_per_s": certs}, "digest": digest, "correct": correct}


def test_summarize_medians_quartiles_wins_and_ties():
    parent = [_run(v, c) for v, c in [(10, 40), (12, 41), (11, 40), (13, 42), (14, 39)]]
    change = [_run(v, c) for v, c in [(9, 44), (12, 40), (12, 41), (11, 42), (10, 45)]]
    verify, certs = ab_pairs.summarize(parent, change, END_TO_END)
    # parent 10..14: median 12, inclusive quartiles 11 and 13
    assert verify == {
        "metric": "verify_ms_p50",
        "parent_median": 12,
        "parent_iqr": 2,
        "change_median": 11,
        "change_pct": pytest.approx(-100 / 12),
        "wins": 3,  # lower is better: pairs 1, 4 and 5
        "ties": 1,
        "pairs": 5,
    }
    # higher is better: 44 > 40, 41 > 40 and 45 > 39 win, 42 = 42 ties
    assert (certs["parent_median"], certs["change_median"]) == (40, 42)
    assert (certs["wins"], certs["ties"]) == (3, 1)


def test_flags_name_differing_digests_and_incorrect_runs():
    parent, change = [_run(1, 1), _run(1, 1)], [_run(1, 1), _run(1, 1)]
    assert ab_pairs.flags(parent, change) == []
    change[1] = _run(1, 1, digest="e")
    assert ab_pairs.flags(parent, change) == ["DIGESTS DIFFER"]
    parent[0] = _run(1, 1, correct=False)
    assert ab_pairs.flags(parent, change) == ["DIGESTS DIFFER", "A RUN WAS NOT CORRECT"]
