"""The lint runner: sources in, findings out, pragmas honored."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.findings import Finding
from repro.lint.pragmas import code_matches
from repro.lint.sources import SourceFile, load_sources


def default_root() -> Path:
    """The repo root, derived from the installed package location
    (``src/repro/lint/engine.py`` -> three parents up)."""
    return Path(__file__).resolve().parents[3]


class LintContext:
    """Shared state all checkers write findings through.

    :meth:`report` applies pragma suppression centrally: a finding on
    line *L* is dropped when a matching ``# lint: allow[...]`` pragma
    sits on *L* or *L-1*, and the pragma is marked used (the pragma
    checker flags the rest).
    """

    def __init__(
        self,
        root: Path,
        sources: list[SourceFile],
        registry: dict | None = None,
        event_types: frozenset[str] | dict[str, tuple[str, ...]] | None = None,
    ):
        if registry is None:
            from repro.proto.schema import REGISTRY
            registry = REGISTRY
        if event_types is None:
            from repro.obs.trace import EVENTS
            event_types = EVENTS
        self.root = root
        self.sources = sources
        self.registry = registry
        self.event_types = event_types
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        #: pragmas that suppressed at least one finding: (rel, line, code)
        self.used_pragmas: set[tuple[str, int, str]] = set()
        #: free-form counters checkers expose (dynamic send sites, ...)
        self.stats: dict[str, int] = {}

    def bump(self, stat: str, amount: int = 1) -> None:
        self.stats[stat] = self.stats.get(stat, 0) + amount

    def report(
        self,
        check: str,
        source: SourceFile | None,
        line: int,
        message: str,
        symbol: str = "",
    ) -> None:
        path = source.rel if source is not None else "docs/protocol.md"
        finding = Finding(check, path, line, message, symbol)
        if source is not None:
            for pragma_line in (line, line - 1):
                codes = source.pragmas.get(pragma_line)
                if not codes:
                    continue
                for code in sorted(codes):
                    if code_matches(code, check):
                        self.used_pragmas.add(
                            (source.rel, pragma_line, code)
                        )
                        self.suppressed.append(finding)
                        return
        self.findings.append(finding)

    def report_global(
        self, check: str, path: str, message: str, symbol: str = ""
    ) -> None:
        """A finding with no source line to hang a pragma on (registry
        gaps, docs drift) — baseline-suppressable only."""
        self.findings.append(Finding(check, path, 0, message, symbol))


def _build_checks() -> dict:
    # Imported lazily so the checker modules can import engine types.
    from repro.lint.checkers import determinism, docs_sync, layering
    from repro.lint.checkers import pragma_hygiene, protocol, seqguard, taxonomy

    # Order matters only for the pragma checker, which audits what the
    # others used — it must run last.
    return {
        "proto": protocol.check,
        "determinism": determinism.check,
        "taxonomy": taxonomy.check,
        "seq-guard": seqguard.check,
        "layering": layering.check,
        "docs": docs_sync.check,
        "pragma": pragma_hygiene.check,
    }


#: Checker registry: name -> fn(ctx).  Names double as rule-id roots.
CHECKS = _build_checks()


def all_rules() -> frozenset[str]:
    """Every rule id any checker can emit (pragma validation)."""
    from repro.lint.checkers import determinism, docs_sync, layering
    from repro.lint.checkers import pragma_hygiene, protocol, seqguard, taxonomy

    rules: set[str] = set()
    for module in (
        protocol, determinism, taxonomy, seqguard, layering, docs_sync,
        pragma_hygiene,
    ):
        rules.update(module.RULES)
    return frozenset(rules)


@dataclass
class LintResult:
    """One lint run's outcome."""

    findings: list[Finding]          #: new findings (not baselined)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)
    suppressed: int = 0
    stats: dict[str, int] = field(default_factory=dict)
    checks: tuple[str, ...] = ()

    def ok(self, strict: bool = False) -> bool:
        if self.findings:
            return False
        return not (strict and self.stale_baseline)

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "baselined": [f.to_json() for f in self.baselined],
            "stale_baseline": self.stale_baseline,
            "suppressed": self.suppressed,
            "stats": dict(sorted(self.stats.items())),
            "checks": list(self.checks),
        }


def run_lint(
    root: Path | None = None,
    sources: list[SourceFile] | None = None,
    checks: list[str] | None = None,
    baseline: Baseline | None = None,
    registry: dict | None = None,
    event_types: frozenset[str] | dict[str, tuple[str, ...]] | None = None,
) -> LintResult:
    """Run the selected checkers (default: all) and apply the baseline.

    Fixture tests inject synthetic ``sources`` / ``registry`` /
    ``event_types``; the CLI passes only ``root`` and a baseline.
    """
    if root is None:
        root = default_root()
    if sources is None:
        sources = load_sources(root)
    selected = list(CHECKS) if checks is None else list(checks)
    unknown = [name for name in selected if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}")
    if "pragma" in selected:  # always audits last
        selected = [n for n in selected if n != "pragma"] + ["pragma"]
    ctx = LintContext(root, sources, registry, event_types)
    for name in selected:
        CHECKS[name](ctx)
    findings = sorted(
        ctx.findings, key=lambda f: (f.path, f.line, f.check, f.message)
    )
    new, baselined, stale = (
        (findings, [], [])
        if baseline is None
        else baseline.partition(findings)
    )
    return LintResult(
        findings=new,
        baselined=baselined,
        stale_baseline=stale,
        suppressed=len(ctx.suppressed),
        stats=ctx.stats,
        checks=tuple(selected),
    )
