"""Committed golden output of ``repro lint`` over every lint fixture.

``tests/golden/lint_findings.json`` maps each fixture to the
:func:`~repro.analysis.render_json` report it produces, with the
repository root stripped from every path:

* every per-file fixture under ``tests/fixtures/lint/src`` and
  ``tests/fixtures/lint/benchmarks``, linted alone with all rules;
* every ``tests/fixtures/lint/program/<rule>/<variant>`` directory,
  linted with ``program=True``.

The rule tests elsewhere count findings; this file pins their lines,
columns, messages and suppressions, so a refactor of a rule cannot
change what it reports without showing up here.

Regenerate (only when a rule's findings are meant to change)::

    PYTHONPATH=src python tests/test_lint_golden.py
"""

import json
from pathlib import Path

from repro.analysis import lint_paths, render_json

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"
GOLDEN = Path(__file__).parent / "golden" / "lint_findings.json"


def _targets():
    """(key, path, program) for every fixture, in a stable order."""
    for subtree in ("src", "benchmarks"):
        for path in sorted((FIXTURES / subtree).rglob("*.py")):
            yield path.relative_to(REPO_ROOT).as_posix(), path, False
    for variant in sorted((FIXTURES / "program").glob("*/*")):
        if variant.is_dir():
            key = variant.relative_to(REPO_ROOT).as_posix() + " --program"
            yield key, variant, True


def _render(path, program):
    rendered = render_json(lint_paths([path], program=program))
    return json.loads(rendered.replace(REPO_ROOT.as_posix() + "/", ""))


def golden_reports():
    return {key: _render(path, program) for key, path, program in _targets()}


def test_lint_findings_match_committed_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = golden_reports()
    assert sorted(actual) == sorted(expected)
    differing = [key for key in expected if expected[key] != actual[key]]
    assert not differing, f"{len(differing)} report(s) differ: {differing}"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_reports(), indent=2, sort_keys=True) + "\n")
