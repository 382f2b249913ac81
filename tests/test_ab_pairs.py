"""The summary of ``scripts/ab_pairs.py`` on fixed numbers; no benchmark
runs."""

import importlib.util
import json
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


def _bench_run(verify_ms, certs, attempted, digest="d"):
    run = _run(verify_ms, certs, digest=digest)
    run["result"] = {"attempted": attempted, "failed": 0, "correct": True}
    run["detail"] = {"digest": digest, "mutation_rejected": True}
    return run


def test_json_summary_and_document_on_synthetic_runs(tmp_path):
    parent = [_bench_run(v, 40, n) for v, n in [(10, 30), (12, 31), (14, 29)]]
    change = [_bench_run(v, 44, n) for v, n in [(9, 33), (13, 32), (11, 34)]]
    summary = ab_pairs.json_summary(parent, change, END_TO_END)
    assert summary["verify_ms_p50"] == {
        "parent_median": 12,
        "parent_iqr": 2,
        "parent_range": [10, 14],
        "change_median": 11,
        "change_range": [9, 13],
        "relative_change": pytest.approx(-1 / 12),
        "wins": 2,
        "ties": 0,
    }
    assert summary["verify_ms_p50_pairs_parent_change"] == [[10, 9], [12, 13], [14, 11]]
    assert summary["certs_per_s_pairs_parent_change"] == [[40, 44]] * 3
    assert summary["attempted"] == {"parent": [30, 31, 29], "change": [33, 32, 34]}
    assert summary["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    assert (summary["pairs"], summary["digest"]) == (3, "d")
    assert summary["all_correct"] and summary["digests_equal"] and summary["mutation_rejected_all"]
    change[2] = _bench_run(11, 44, 34, digest="e")
    assert not ab_pairs.json_summary(parent, change, END_TO_END)["digests_equal"]

    runs = [{"workload": "w", "seed": 1, "pair": 0, "side": "parent", "order": "first",
             "result": parent[0]["result"], "detail": parent[0]["detail"]}]
    doc = ab_pairs.json_document(Path("a"), Path("b"), 8, runs, {"w seed 1": summary})
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc))
    back = json.loads(path.read_text())
    assert set(back) == {"about", "parent", "change", "machine", "runs", "summary"}
    assert (back["parent"], back["change"], back["runs"]) == ("a", "b", runs)
    assert back["summary"]["w seed 1"]["verify_ms_p50"]["parent_range"] == [10, 14]
    assert "--seconds 8 " in back["about"]
