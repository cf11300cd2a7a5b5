import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "oracle_layers.py"
spec = importlib.util.spec_from_file_location("oracle_layers", SCRIPT)
oracle_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracle_layers)

KEYS = ["maxcut_ms_per_Mmask", "minima_cut_ms_per_Mmask", "minima_ms_per_Mmask",
        "enumerate_ms_per_Mmask", "enumerate_peak_mb"]


def test_oracle_layers_prints_one_json_line_per_run(capsys):
    assert oracle_layers.main(["--sizes", "4", "8", "--repeat", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["repeat"] == 2 and list(doc["sizes"]) == ["4", "8"]
    for row in doc["sizes"].values():
        assert list(row) == KEYS
        assert all(value > 0 for value in row.values())
