#!/usr/bin/env python3
"""Enforce per-package line-coverage floors from a coverage.json report.

CI runs the tier-1 suite under ``pytest --cov ... --cov-report=json`` and
then gates on this script: each watched package must keep its aggregate
line coverage at or above its floor, so coverage regressions in the
codec/core layers fail the build instead of rotting silently.

Stdlib-only on purpose — the gate itself needs no third-party packages,
so it can be unit-tested (and run against a saved report) in
environments where ``pytest-cov`` is not installed.

Usage::

    python tools/coverage_gate.py coverage.json \
        --floor repro/gf=90 --floor repro/rs=90 --floor repro/core=85

With no ``--floor`` arguments the defaults in :data:`DEFAULT_FLOORS`
apply.  Exit status 0 = every floor held, 1 = at least one breach,
2 = report unreadable or a watched package has no measured files.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Default floors (percent) for the packages the ISSUE gates on.  Keys
#: ending in ``.py`` gate a single file (its lines leave the enclosing
#: package's aggregate — the file answers to its own, stricter floor).
DEFAULT_FLOORS: dict[str, float] = {
    "repro/gf": 90.0,
    "repro/rs": 90.0,
    "repro/core": 85.0,
    "repro/core/journal.py": 90.0,
    # The structural commands are their own takeover roll-forward: a
    # branch of the coordinator no test reaches is a step nobody has
    # shown to be safe to run twice.
    "repro/core/coordinator.py": 85.0,
    # Batch data plane: the client scatter-gather loop and the data
    # bucket's Δ-run holding, logging and shipping must stay exercised.
    "repro/sdds": 75.0,
    "repro/sdds/client.py": 72.0,
    "repro/core/data_bucket.py": 82.0,
    # Bucket recovery and the parity store: every branch of the columnar
    # rebuild (loss patterns, survivors in other row orders, a group
    # short of members, a disagreeing survivor) and of the store image
    # a dump ships — 2 points under the tier-1 suite's coverage.
    "repro/core/recovery.py": 94.0,
    "repro/core/stripe_store.py": 97.0,
    # The durability shell both bucket kinds own: every branch of it is
    # a crash, disk-error or rejoin outcome (tests/core/test_durable.py).
    "repro/core/durable.py": 90.0,
    # The one Δ path: every Δ-run is folded by the parity bucket and
    # logged through the WAL frame layer — 2 points under coverage
    # measured over the core, store, check, obs and integration suites.
    "repro/core/parity_bucket.py": 96.0,
    "repro/store/wal.py": 98.0,
    # Model-checking harness (this PR): the linearizability checker,
    # schedulers and shrinker must stay exercised end to end.
    "repro/check": 85.0,
    # Durable storage plane (this PR): the simulated disk and WAL codec
    # underpin every restart-recovery claim — keep them pinned.
    "repro/store": 85.0,
    # The one encoding of every frame and image on disk: a branch of it
    # no test reaches is a value shape that may not survive a restart.
    "repro/store/codec.py": 90.0,
    # Static-analysis suite (this PR): the checkers enforce the wire
    # contract; an unexercised rule is a rule that silently stopped
    # firing.  The registry is data-heavy, hence the higher floor.
    "repro/lint": 85.0,
    "repro/proto": 90.0,
    # The size-function compiler: a branch of the emitter no test
    # reaches is a declared shape whose size nothing ever compared with
    # the walker's.
    "repro/proto/wire.py": 90.0,
}


def package_of(path: str, packages: list[str]) -> str | None:
    """Which watched entry a measured file belongs to (None = ignore).

    Entries are package path segments (``repro/core``) or single files
    (``repro/core/journal.py``).  Longest match wins, so ``repro/core``
    files are never claimed by a hypothetical ``repro`` entry and a
    file floor outranks its package.
    """
    normalized = f"/{path.replace(chr(92), '/')}"
    best = None
    for package in packages:
        if package.endswith(".py"):
            matched = normalized.endswith(f"/{package}")
        else:
            matched = f"/{package}/" in normalized
        if matched and (best is None or len(package) > len(best)):
            best = package
    return best


def aggregate(report: dict, floors: dict[str, float]) -> dict[str, dict]:
    """Per-package ``{statements, covered, percent, floor}`` rollup."""
    packages = sorted(floors)
    totals = {
        package: {"statements": 0, "covered": 0} for package in packages
    }
    for path, entry in report.get("files", {}).items():
        package = package_of(path, packages)
        if package is None:
            continue
        summary = entry.get("summary", {})
        totals[package]["statements"] += int(summary.get("num_statements", 0))
        totals[package]["covered"] += int(summary.get("covered_lines", 0))
    out = {}
    for package, counts in totals.items():
        statements = counts["statements"]
        percent = 100.0 * counts["covered"] / statements if statements else 0.0
        out[package] = {
            "statements": statements,
            "covered": counts["covered"],
            "percent": percent,
            "floor": floors[package],
        }
    return out


def evaluate(report: dict, floors: dict[str, float]) -> tuple[int, list[str]]:
    """Gate a parsed coverage.json; returns ``(exit_status, lines)``."""
    rollup = aggregate(report, floors)
    lines = []
    status = 0
    for package, row in sorted(rollup.items()):
        if row["statements"] == 0:
            lines.append(
                f"FAIL {package}: no measured files in the report "
                "(wrong --cov targets?)"
            )
            status = 2
            continue
        verdict = "ok  " if row["percent"] >= row["floor"] else "FAIL"
        if verdict == "FAIL" and status == 0:
            status = 1
        lines.append(
            f"{verdict} {package}: {row['percent']:.1f}% line coverage "
            f"({row['covered']}/{row['statements']} lines, "
            f"floor {row['floor']:.0f}%)"
        )
    return status, lines


def parse_floor(spec: str) -> tuple[str, float]:
    package, _, value = spec.partition("=")
    if not package or not value:
        raise argparse.ArgumentTypeError(
            f"floor spec {spec!r} is not of the form package=percent"
        )
    return package.strip("/"), float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="path to a coverage.json report")
    parser.add_argument(
        "--floor", action="append", type=parse_floor, default=[],
        metavar="PKG=PCT", help="override/add one package floor",
    )
    args = parser.parse_args(argv)
    floors = dict(DEFAULT_FLOORS) if not args.floor else dict(args.floor)

    try:
        with open(args.report) as handle:
            report = json.load(handle)
    except (OSError, ValueError) as err:
        print(f"coverage gate: cannot read {args.report}: {err}")
        return 2

    status, lines = evaluate(report, floors)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
