"""Unit tests for the count pin (tools/wire_counts.py).

CI runs the tool against the real benchmark; these tests drive its
compare / re-pin logic with the measurement stubbed out.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "wire_counts", ROOT / "tools" / "wire_counts.py"
)
tool = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(tool)

COUNTS = {
    "steady": {"msgs_per_op": 2.5, "wire_bytes_per_op": 450.25,
               "storage_overhead": 0.67},
}


@pytest.fixture
def pinned(tmp_path, monkeypatch):
    monkeypatch.setattr(tool, "PIN", tmp_path / "pin.json")
    monkeypatch.setattr(tool, "measure", lambda: COUNTS)
    assert tool.main(["--update"]) == 0
    return tool.PIN


def test_equal_counts_pass(pinned, capsys):
    assert tool.main([]) == 0
    assert "3 of 3 counts equal" in capsys.readouterr().out


def test_a_count_off_in_the_last_digit_fails(pinned, monkeypatch, capsys):
    moved = {"steady": dict(COUNTS["steady"], wire_bytes_per_op=450.2500001)}
    monkeypatch.setattr(tool, "measure", lambda: moved)
    assert tool.main([]) == 1
    assert "MOVED  steady/wire_bytes_per_op" in capsys.readouterr().err


def test_a_pin_from_other_settings_is_refused(pinned):
    stale = json.loads(pinned.read_text())
    stale["settings"] = ["--seed", "8"]
    pinned.write_text(json.dumps(stale))
    with pytest.raises(SystemExit, match="re-pin"):
        tool.main([])


def test_the_committed_pin_covers_every_workload_at_the_tools_settings():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin = json.loads((ROOT / "tools" / "wire_counts.json").read_text())
    assert pin["settings"] == tool.SETTINGS
    assert list(pin["counts"]) == [w["name"] for w in spec["workloads"]]
    assert all(set(c) == set(tool.METRICS) for c in pin["counts"].values())
