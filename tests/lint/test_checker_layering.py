"""Layering checker: product packages never import the tooling
(``repro.check``, ``repro.lint``) that is built on top of them."""

import pytest


class TestUpwardImport:
    @pytest.mark.parametrize("statement", [
        "from repro.check import mutants",
        "from repro.check.mutants import ACTIVE",
        "import repro.check.mutants",
        "from repro import lint",
        "from ..check import mutants",
    ])
    def test_product_importing_tooling_fires(self, lint, statement):
        code = f"{statement}\n\ndef fold():\n    pass\n"
        result = lint({"src/repro/core/x.py": code}, checks=["layering"])
        assert [(f.check, f.line) for f in result.findings] == [
            ("layering.upward-import", 1)
        ]

    def test_function_level_import_fires_too(self, lint):
        code = "def fold():\n    from repro.lint import run_lint\n"
        result = lint({"src/repro/gf/x.py": code}, checks=["layering"])
        assert [f.symbol for f in result.findings] == [
            "repro.lint.run_lint"
        ]

    def test_downward_and_sideways_imports_are_clean(self, lint):
        product = (
            "import repro.checkpoint\n"
            "from repro.gf.field import GF\n"
            "from repro.core import records\n"
            "from . import checker\n"
        )
        tooling = "from repro.core.parity_bucket import ParityServer\n"
        result = lint(
            {
                "src/repro/core/x.py": product,
                "src/repro/check/mutants.py": tooling,
                "src/repro/obs/audit.py": "from repro.check import history\n",
            },
            checks=["layering"],
        )
        assert result.findings == []

    def test_pragma_suppresses(self, lint):
        code = (
            "# lint: allow[layering.upward-import]\n"
            "from repro.check import mutants\n"
        )
        result = lint({"src/repro/sim/x.py": code}, checks=["layering"])
        assert result.findings == [] and result.suppressed == 1
