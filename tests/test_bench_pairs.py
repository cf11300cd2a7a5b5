import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"ops_per_s": "higher", "op_ms_p50": "lower"}


def _side(ops_per_s, correct=True, failed=0, returncode=0, line=None):
    result = {"correct": correct, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                          "op_ms_p50": {"value": 1000.0 / ops_per_s, "unit": "ms"}}}
    return {"returncode": returncode, "line": json.dumps(result) if line is None else line}


def _doc(*pairs):
    return {"invocations": [{"paths": {"base": "a", "change": "b"}}],
            "pairs": [{"workload": "w", "seed": 1, "invocation": 0, "base": base, "change": change}
                      for base, change in pairs]}


def test_tabulate_counts_wins_in_the_declared_direction():
    table, excluded = bench_pairs.tabulate(
        _doc((_side(100), _side(120)), (_side(110), _side(105)), (_side(90), _side(130))), BETTER)
    rows = table["w seed 1, a vs b"]
    assert excluded == []
    assert rows["ops_per_s"]["wins"] == 2 and rows["op_ms_p50"]["wins"] == 2
    assert rows["ops_per_s"]["pairs"] == 3
    assert rows["ops_per_s"]["base"]["median"] == 100 and rows["ops_per_s"]["change"]["median"] == 120


def test_tabulate_excludes_wrong_failing_or_broken_runs():
    good = (_side(100), _side(120))
    doc = _doc(good,
               (_side(100), _side(500, correct=False)),
               (_side(100, correct=False), _side(500)),
               (_side(100, failed=1), _side(500, failed=2)),
               (_side(100), _side(500, returncode=1)),
               (_side(100, line="Traceback"), _side(500)),
               (_side(100, failed=2), _side(120, failed=1)))
    table, excluded = bench_pairs.tabulate(doc, BETTER)
    assert [e["pair"] for e in excluded] == [1, 2, 3, 4, 5]
    assert "correct" in excluded[0]["reason"] and "failed more" in excluded[2]["reason"]
    row = table["w seed 1, a vs b"]["ops_per_s"]
    assert row["pairs"] == 2 and row["wins"] == 2
