"""Unit tests for the stdlib coverage-floor gate (tools/coverage_gate.py).

The gate runs in CI against a pytest-cov JSON report; these tests drive
it against synthetic reports so the gating logic itself is covered by
the tier-1 suite even where pytest-cov is not installed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "coverage_gate",
    Path(__file__).resolve().parents[1] / "tools" / "coverage_gate.py",
)
gate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(gate)


def report(files):
    return {
        "files": {
            path: {"summary": {"num_statements": total, "covered_lines": hit}}
            for path, (total, hit) in files.items()
        }
    }


class TestPackageMatching:
    def test_matches_by_path_segment(self):
        packages = ["repro/gf", "repro/core"]
        assert gate.package_of("src/repro/gf/field.py", packages) == "repro/gf"
        assert gate.package_of("src/repro/core/file.py", packages) == "repro/core"
        assert gate.package_of("src/repro/sim/network.py", packages) is None

    def test_windows_separators_normalized(self):
        assert gate.package_of(
            r"src\repro\gf\field.py", ["repro/gf"]
        ) == "repro/gf"

    def test_longest_match_wins(self):
        assert gate.package_of(
            "src/repro/core/file.py", ["repro", "repro/core"]
        ) == "repro/core"

    def test_no_substring_false_positives(self):
        # "repro/gf" must not claim files from a sibling "repro/gfx".
        assert gate.package_of("src/repro/gfx/x.py", ["repro/gf"]) is None

    def test_file_floor_outranks_package(self):
        packages = ["repro/core", "repro/core/journal.py"]
        assert gate.package_of(
            "src/repro/core/journal.py", packages
        ) == "repro/core/journal.py"
        assert gate.package_of(
            "src/repro/core/file.py", packages
        ) == "repro/core"

    def test_file_entry_requires_exact_suffix(self):
        # "journal.py" the file, not any path merely containing it.
        assert gate.package_of(
            "src/repro/core/journal.pyc", ["repro/core/journal.py"]
        ) is None
        assert gate.package_of(
            "src/other/core/journal.py", ["repro/core/journal.py"]
        ) is None


class TestEvaluate:
    def test_all_floors_held(self):
        status, lines = gate.evaluate(
            report({
                "src/repro/gf/field.py": (100, 95),
                "src/repro/rs/codec.py": (50, 50),
                "src/repro/core/file.py": (200, 180),
            }),
            {"repro/gf": 90, "repro/rs": 90, "repro/core": 85},
        )
        assert status == 0
        assert all(line.startswith("ok") for line in lines)
        assert any("repro/gf: 95.0%" in line for line in lines)

    def test_breach_fails_with_status_1(self):
        status, lines = gate.evaluate(
            report({"src/repro/gf/field.py": (100, 50)}),
            {"repro/gf": 90},
        )
        assert status == 1
        assert lines == [
            "FAIL repro/gf: 50.0% line coverage (50/100 lines, floor 90%)"
        ]

    def test_aggregation_is_line_weighted(self):
        # 90/100 + 0/10 = 90/110 ≈ 81.8% — a per-file average would say 45%.
        status, lines = gate.evaluate(
            report({
                "src/repro/gf/field.py": (100, 90),
                "src/repro/gf/tables.py": (10, 0),
            }),
            {"repro/gf": 80},
        )
        assert status == 0
        assert "81.8%" in lines[0]

    def test_unmeasured_package_is_a_config_error(self):
        status, lines = gate.evaluate(
            report({"src/repro/gf/field.py": (10, 10)}),
            {"repro/gf": 90, "repro/core": 85},
        )
        assert status == 2
        assert any("no measured files" in line for line in lines)


class TestCli:
    def test_main_reads_report_and_gates(self, tmp_path, capsys):
        path = tmp_path / "coverage.json"
        path.write_text(json.dumps(report({
            "src/repro/gf/field.py": (10, 10),
        })))
        assert gate.main([str(path), "--floor", "repro/gf=90"]) == 0
        assert "ok   repro/gf: 100.0%" in capsys.readouterr().out

    def test_main_missing_report_is_status_2(self, tmp_path, capsys):
        assert gate.main([str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_default_floors_cover_issue_packages(self):
        assert set(gate.DEFAULT_FLOORS) == {
            "repro/gf",
            "repro/rs",
            "repro/core",
            "repro/core/journal.py",
            "repro/core/coordinator.py",
            "repro/sdds",
            "repro/sdds/client.py",
            "repro/core/data_bucket.py",
            "repro/core/recovery.py",
            "repro/core/stripe_store.py",
            "repro/core/durable.py",
            "repro/core/parity_bucket.py",
            "repro/check",
            "repro/store",
            "repro/store/codec.py",
            "repro/store/wal.py",
            "repro/lint",
            "repro/proto",
            "repro/proto/wire.py",
        }

    def test_recovery_and_store_answer_to_their_own_floors(self):
        """The rebuild and the store image are gated file by file: a
        dip in either fails even while ``repro/core`` holds its floor."""
        floors = gate.DEFAULT_FLOORS
        assert floors["repro/core/recovery.py"] > floors["repro/core"]
        assert floors["repro/core/stripe_store.py"] > floors["repro/core"]
        status, lines = gate.evaluate(
            report({
                "src/repro/core/file.py": (1000, 990),
                "src/repro/core/recovery.py": (500, 460),
                "src/repro/core/stripe_store.py": (140, 139),
            }),
            {k: floors[k] for k in
             ("repro/core", "repro/core/recovery.py", "repro/core/stripe_store.py")},
        )
        assert status == 1
        assert [line.split(":")[0] for line in lines] == [
            "ok   repro/core", "FAIL repro/core/recovery.py",
            "ok   repro/core/stripe_store.py",
        ]

    def test_the_delta_path_answers_to_its_own_floors(self):
        """The parity bucket and the WAL frame layer are gated file by
        file: a dip in either fails while their packages hold."""
        floors = gate.DEFAULT_FLOORS
        assert floors["repro/core/parity_bucket.py"] > floors["repro/core"]
        assert floors["repro/store/wal.py"] > floors["repro/store"]
        watched = ("repro/core", "repro/core/parity_bucket.py",
                   "repro/store", "repro/store/wal.py")
        status, lines = gate.evaluate(
            report({
                "src/repro/core/file.py": (1000, 990),
                "src/repro/core/parity_bucket.py": (300, 270),
                "src/repro/store/simdisk.py": (100, 99),
                "src/repro/store/wal.py": (100, 100),
            }),
            {k: floors[k] for k in watched},
        )
        assert status == 1
        assert [line.split(":")[0] for line in lines] == [
            "ok   repro/core", "FAIL repro/core/parity_bucket.py",
            "ok   repro/store", "ok   repro/store/wal.py",
        ]

    def test_floor_spec_validation(self):
        with pytest.raises(Exception):
            gate.parse_floor("garbage")
        assert gate.parse_floor("repro/gf=92.5") == ("repro/gf", 92.5)
