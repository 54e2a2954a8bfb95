"""The ``python -m repro lint`` subcommand."""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable

from repro.lint.baseline import Baseline
from repro.lint.engine import CHECKS, default_root, run_lint

DEFAULT_BASELINE = "tools/lint_baseline.json"


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict", action="store_true",
        help="also fail on stale baseline entries (the CI mode)",
    )
    parser.add_argument(
        "--root", default=None,
        help="repo root (default: derived from the package location)",
    )
    parser.add_argument(
        "--check", action="append", default=None, metavar="NAME",
        choices=sorted(CHECKS),
        help="run only this checker (repeatable); default: all",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="grandfather every current finding into the baseline",
    )
    parser.add_argument(
        "--protocol-table", action="store_true",
        help="print the generated docs/protocol.md kind index and exit",
    )
    parser.add_argument(
        "--event-table", action="store_true",
        help="print the generated docs/observability.md taxonomy and exit",
    )


def run(
    args: argparse.Namespace, out: Callable[[str], None]
) -> tuple[int, dict]:
    if args.protocol_table:
        from repro.proto.schema import render_protocol_table

        table = render_protocol_table()
        out(table.rstrip("\n"))
        return 0, {"protocol_table": table}

    root = Path(args.root) if args.root else default_root()
    if args.event_table:
        from repro.lint.checkers.taxonomy import render_event_table
        from repro.lint.sources import load_sources

        table = render_event_table(load_sources(root))
        out(table.rstrip("\n"))
        return 0, {"event_table": table}

    baseline_path = (
        Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE
    )
    baseline = Baseline.load(baseline_path)
    result = run_lint(root=root, checks=args.check, baseline=baseline)

    if args.write_baseline:
        count = Baseline.write(
            baseline_path,
            result.findings + result.baselined,
            baseline,
        )
        out(f"baseline written: {count} entry(ies) -> {baseline_path}")
        return 0, {"baseline_entries": count}

    for finding in result.findings:
        out(finding.format())
    for entry in result.stale_baseline:
        out(
            f"stale baseline entry: {entry.get('check')} "
            f"{entry.get('path')} {entry.get('message')!r} — fixed? "
            "remove it (python -m repro lint --write-baseline)"
        )
    checked = ", ".join(result.checks)
    out(
        f"lint: {len(result.findings)} finding(s), "
        f"{len(result.baselined)} baselined, "
        f"{len(result.stale_baseline)} stale baseline entry(ies), "
        f"{result.suppressed} pragma-suppressed [{checked}]"
    )
    status = 0 if result.ok(strict=args.strict) else 1
    return status, result.to_json()
