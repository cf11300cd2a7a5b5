import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

DECLARED = {"ops_per_s": {"better": "higher", "bound": 0.25},
            "op_ms_p50": {"better": "lower", "bound": 0.25}}


def _side(ops_per_s, correct=True, failed=0, returncode=0, line=None):
    result = {"correct": correct, "failed": failed,
              "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                          "op_ms_p50": {"value": 1000.0 / ops_per_s, "unit": "ms"}}}
    return {"returncode": returncode, "line": json.dumps(result) if line is None else line}


def _doc(*pairs, seed=1):
    return {"invocations": [{"paths": {"base": "a", "change": "b"}}],
            "pairs": [{"workload": "w", "seed": seed, "invocation": 0,
                       "base": base, "change": change} for base, change in pairs]}


def test_tabulate_counts_wins_in_the_declared_direction():
    table, excluded = bench_pairs.tabulate(
        _doc((_side(100), _side(120)), (_side(110), _side(105)), (_side(90), _side(130))), DECLARED)
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
    table, excluded = bench_pairs.tabulate(doc, DECLARED)
    assert [e["pair"] for e in excluded] == [1, 2, 3, 4, 5]
    assert "correct" in excluded[0]["reason"] and "failed more" in excluded[2]["reason"]
    row = table["w seed 1, a vs b"]["ops_per_s"]
    assert row["pairs"] == 2 and row["wins"] == 2


def test_rows_read_the_bound_as_the_no_regression_gate_does():
    rows = {}
    for seed, (base, change) in enumerate([
            ((100, 102, 98), (95, 97, 96)),     # 4% worse, base spread 2%: within the bound
            ((100, 101, 99), (70, 72, 71)),     # 29% worse: past the 25% bound
            ((60, 100, 140), (90, 100, 110)),   # base spread 40%: unresolved
            ((60, 100, 140), (150, 160, 170))]):  # as wide, but every change run is better
        doc = _doc(*((_side(b), _side(c)) for b, c in zip(base, change)), seed=seed)
        table, _ = bench_pairs.tabulate(doc, DECLARED)
        rows[seed] = table[f"w seed {seed}, a vs b"]
    readings = [(row["ops_per_s"]["worse_past_bound"], row["ops_per_s"]["unresolved"])
                for row in rows.values()]
    assert readings == [(False, False), (True, False), (False, True), (False, False)]
    # op_ms_p50 = 1000 / ops_per_s is lower-better: 41% worse in the second row
    p50_worse = [row["op_ms_p50"]["worse_past_bound"] for row in rows.values()]
    assert p50_worse == [False, True, False, False]
    assert rows[0]["ops_per_s"]["bound"] == 0.25

    undeclared, _ = bench_pairs.tabulate(_doc((_side(100), _side(50))), {})
    row = undeclared["w seed 1, a vs b"]["ops_per_s"]
    assert row["bound"] is None and "worse_past_bound" not in row and "unresolved" not in row
