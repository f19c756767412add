"""The static-analysis engine: rules, suppressions, reporters, self-check."""

import json
from pathlib import Path

import pytest

import repro

from repro.analysis import (
    all_rules,
    lint_paths,
    lint_source,
    render_human,
    render_json,
    resolve_rules,
)
from repro.analysis.engine import LintReport, discover_files
from repro.cache.geometry import CacheGeometry, geometry_violations
from repro.errors import GeometryError, LintError

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

RULE_FIXTURES = {
    "REP001": FIXTURES / "src" / "repro" / "study",
    "REP002": FIXTURES / "src" / "repro" / "cache",
    "REP003": FIXTURES / "src" / "repro" / "core",
    "REP004": FIXTURES / "src" / "repro" / "core",
    "REP005": FIXTURES / "benchmarks",
    "REP006": FIXTURES / "src" / "repro" / "traces",
    "REP012": FIXTURES / "src" / "repro" / "obs",
    "REP013": FIXTURES / "src" / "repro" / "runner",
}


def lint_fixture(name: str, rule: str) -> LintReport:
    directory = RULE_FIXTURES[rule]
    return lint_paths([directory / name], select=[rule])


class TestRegistry:
    def test_all_rules_catalogued(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        for expected in (
            "REP000",
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
            "REP010",
            "REP011",
        ):
            assert expected in ids

    def test_program_rules_are_program_scoped(self):
        by_id = {rule.rule_id: rule for rule in all_rules()}
        for rule_id in ("REP007", "REP008", "REP009", "REP010", "REP011"):
            assert by_id[rule_id].scope == "program"
        for rule_id in ("REP000", "REP001", "REP005"):
            assert by_id[rule_id].scope == "file"

    def test_every_rule_has_rationale(self):
        for rule in all_rules():
            assert rule.rationale
            assert rule.severity == "error"

    def test_select_and_ignore(self):
        assert [r.rule_id for r in resolve_rules(select=["REP001"])] == ["REP001"]
        remaining = [r.rule_id for r in resolve_rules(ignore=["REP001", "REP000"])]
        assert "REP001" not in remaining and "REP000" not in remaining

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(LintError):
            resolve_rules(select=["REP999"])
        with pytest.raises(LintError):
            resolve_rules(ignore=["bogus"])

    def test_filters_are_case_insensitive(self):
        assert [r.rule_id for r in resolve_rules(select=["rep001"])] == ["REP001"]


@pytest.mark.parametrize(
    "rule,n_bad",
    [
        ("REP001", 4),
        ("REP002", 5),
        ("REP003", 3),
        ("REP004", 5),
        ("REP005", 6),
        ("REP006", 4),
        ("REP012", 6),
        ("REP013", 4),
    ],
)
class TestRuleFixtures:
    def test_fires_on_violations(self, rule, n_bad):
        stem = f"{rule.lower()}_bad.py"
        report = lint_fixture(stem, rule)
        assert len(report.findings) == n_bad
        assert all(f.rule == rule for f in report.findings)
        assert all(f.line > 0 and f.col > 0 for f in report.findings)

    def test_silent_on_fixed_form(self, rule, n_bad):
        report = lint_fixture(f"{rule.lower()}_good.py", rule)
        assert report.clean

    def test_suppressed_with_reason(self, rule, n_bad):
        # REP000 active too: a reasoned suppression must not re-surface.
        directory = RULE_FIXTURES[rule]
        report = lint_paths(
            [directory / f"{rule.lower()}_suppressed.py"],
            select=[rule, "REP000"],
        )
        assert report.clean
        assert report.suppressed
        for finding in report.suppressed:
            assert finding.rule == rule
            assert finding.suppressed
            assert finding.suppression_reason


class TestSuppressionAudit:
    def test_reasonless_suppression_reported(self):
        findings, suppressed = lint_source(
            'open("artefact.json", "w")  # repro: lint-ok[REP001]\n',
            "src/repro/study/example.py",
        )
        rules = {f.rule for f in findings}
        assert rules == {"REP000", "REP001"}  # not suppressed, plus audit
        assert not suppressed

    def test_unknown_rule_in_suppression_reported(self):
        findings, _ = lint_source(
            "x = 1  # repro: lint-ok[REP999] not a rule\n",
            "src/repro/study/example.py",
        )
        assert [f.rule for f in findings] == ["REP000"]
        assert "unknown rule" in findings[0].message

    def test_unused_suppression_reported(self):
        findings, _ = lint_source(
            "x = 1  # repro: lint-ok[REP001] nothing to mask here\n",
            "src/repro/study/example.py",
        )
        assert [f.rule for f in findings] == ["REP000"]
        assert "masks nothing" in findings[0].message

    def test_suppression_examples_in_docstrings_are_inert(self):
        findings, _ = lint_source(
            '"""Docs: write # repro: lint-ok[REP001] reason on the line."""\n',
            "src/repro/study/example.py",
        )
        assert not findings

    def test_multiline_statement_trailing_suppression(self):
        # Regression: the comment sits on the closing-paren line but the
        # finding is reported at the call's first line; the suppression
        # covers the whole logical statement.
        findings, suppressed = lint_source(
            "open(\n"
            '    "artefact.json",\n'
            '    "w",\n'
            ")  # repro: lint-ok[REP001] trailing comment on a multiline call\n",
            "src/repro/study/example.py",
        )
        assert not findings
        assert [f.rule for f in suppressed] == ["REP001"]
        assert suppressed[0].line == 1

    def test_multiline_suppression_fixture(self):
        report = lint_paths(
            [RULE_FIXTURES["REP001"] / "rep000_multiline.py"],
            select=["REP000", "REP001"],
        )
        assert report.clean
        assert [f.rule for f in report.suppressed] == ["REP001"]

    def test_standalone_comment_masks_next_line(self):
        findings, suppressed = lint_source(
            "# repro: lint-ok[REP001] explained standalone form\n"
            'open("artefact.json", "w")\n',
            "src/repro/study/example.py",
        )
        assert not findings
        assert [f.rule for f in suppressed] == ["REP001"]


class TestEngine:
    def test_missing_target_is_lint_error(self):
        with pytest.raises(LintError):
            lint_paths([FIXTURES / "does_not_exist"])

    def test_unparsable_file_is_lint_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        with pytest.raises(LintError) as excinfo:
            lint_paths([bad])
        assert "broken.py" in str(excinfo.value)

    def test_discovery_skips_caches_and_output(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "output").mkdir()
        (tmp_path / "pkg" / "output" / "gen.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "real.py").write_text("x = 1\n")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["real.py"]

    def test_findings_are_sorted_and_deterministic(self):
        report = lint_paths([FIXTURES])
        keys = [f.sort_key() for f in report.findings]
        assert keys == sorted(keys)
        again = lint_paths([FIXTURES])
        assert report.findings == again.findings

    def test_parallel_matches_serial(self):
        serial = lint_paths([FIXTURES])
        parallel = lint_paths([FIXTURES], workers=2)
        assert serial.findings == parallel.findings
        assert serial.suppressed == parallel.suppressed
        assert serial.n_files == parallel.n_files


class TestReporters:
    def test_json_schema(self):
        report = lint_paths([RULE_FIXTURES["REP001"]], select=["REP001", "REP000"])
        payload = json.loads(render_json(report))
        assert payload["schema_version"] == 2
        assert payload["version"] == repro.__version__
        assert payload["cached"] == 0
        assert payload["clean"] is False
        assert payload["files"] == 4
        assert isinstance(payload["findings"], list)
        for row in payload["findings"]:
            assert set(row) == {"rule", "severity", "path", "line", "col", "message"}
        for row in payload["suppressed"]:
            assert "reason" in row and row["reason"]

    def test_human_rendering(self):
        report = lint_paths([RULE_FIXTURES["REP001"]], select=["REP001"])
        text = render_human(report)
        assert "REP001" in text
        assert "finding(s)" in text
        clean = lint_paths([RULE_FIXTURES["REP001"] / "rep001_good.py"])
        assert "clean" in render_human(clean)


class TestSharedGeometryPredicate:
    """REP005 and the runtime validator must agree exactly."""

    SHAPES = [
        (8192, 16, 1),
        (65536, 16, 4),
        (3000, 16, 1),
        (4096, 24, 1),
        (16, 32, 1),
        (4096, 16, 0),
        (64, 16, 8),
        (4096, 16, -1),
        (0, 16, 1),
        (-4096, 16, 1),
        (True, 16, 1),
        (4096, True, 1),
        (4096, 16, True),
        (4096.0, 16, 1),
    ]

    @pytest.mark.parametrize("size,line,assoc", SHAPES)
    def test_validator_raises_iff_predicate_flags(self, size, line, assoc):
        problems = geometry_violations(size, line, assoc)
        if problems:
            with pytest.raises(GeometryError):
                CacheGeometry(size, line_size=line, associativity=assoc)
        else:
            CacheGeometry(size, line_size=line, associativity=assoc)


class TestSelfCheck:
    def test_repo_is_lint_clean(self):
        """The contract the CI lint job enforces, enforced from pytest too."""
        targets = [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"]
        report = lint_paths(targets)
        assert report.clean, render_human(report)
        # every suppression in the tree carries a reason (REP000 is on)
        for finding in report.suppressed:
            assert finding.suppression_reason
