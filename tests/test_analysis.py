"""Tests for repro.analysis: the AST-based invariant linter.

Each rule is exercised against a paired good/bad fixture under
``tests/fixtures/analysis/``; the bad fixture must trip exactly the rule
named in its filename and the good fixture must lint clean under every
rule.  On top of the per-rule tests: the JSON report schema, exit codes,
and the meta-test asserting that the live ``src/repro`` + ``examples``
trees stay clean (the property CI enforces).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    JSON_SCHEMA_VERSION,
    RULES,
    lint_paths,
    lint_source,
    render_github,
    render_json,
    resolve_rules,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
REPO_ROOT = Path(__file__).parent.parent

RULE_IDS = (
    "async-blocking",
    "async-state",
)

#: fixture stem -> the single rule its findings must all carry.
BAD_FIXTURES = {
    "bad_async_blocking": "async-blocking",
    "bad_async_state": "async-state",
}

GOOD_FIXTURES = (
    "good_async_blocking",
    "good_async_state",
)


def lint_fixture(stem: str):
    path = FIXTURES / f"{stem}.py"
    return lint_source(path.read_text(), path=str(path))


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULE_IDS) == set(RULES)

    def test_resolve_rules_rejects_unknown(self):
        with pytest.raises(KeyError):
            resolve_rules(["no-such-rule"])

    def test_resolve_subset(self):
        rules = resolve_rules(["async-state"])
        assert [rule.id for rule in rules] == ["async-state"]


class TestRuleFixtures:
    @pytest.mark.parametrize("stem,rule", sorted(BAD_FIXTURES.items()))
    def test_bad_fixture_trips_its_rule(self, stem, rule):
        findings = lint_fixture(stem)
        assert findings, f"{stem} produced no findings"
        assert {finding.rule for finding in findings} == {rule}

    @pytest.mark.parametrize("stem", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, stem):
        assert lint_fixture(stem) == []


class TestReporters:
    def test_json_schema(self):
        findings = lint_fixture("bad_async_blocking")
        report = json.loads(render_json(findings, num_files=1))
        assert report["version"] == JSON_SCHEMA_VERSION == 2
        summary = report["summary"]
        assert summary["files"] == 1
        assert summary["findings"] == len(findings)
        assert summary["clean"] is False
        entry = report["findings"][0]
        assert set(entry) == {"rule", "path", "line", "col", "message"}

    def test_json_clean_report(self):
        report = json.loads(render_json([], num_files=3))
        assert report["summary"] == {
            "files": 3, "findings": 0, "clean": True,
        }
        assert report["findings"] == []

    def test_github_format_emits_workflow_commands(self):
        finding = Finding(
            rule="async-blocking", path="src/a.py", line=7, col=2,
            message="bad, very: 100% wrong\nsecond line",
        )
        report = render_github([finding], num_files=1)
        command = report.splitlines()[0]
        assert command.startswith(
            "::error file=src/a.py,line=7,col=2,title=async-blocking::"
        )
        # Workflow-command escaping: %, newline in data; the summary line
        # stays plain text.
        assert "100%25 wrong%0Asecond line" in command
        assert report.splitlines()[-1].startswith("repro lint: 1 finding")

    def test_github_format_exit_code_still_one(self, tmp_path, capsys):
        exit_code = run(
            paths=[str(FIXTURES / "bad_async_blocking.py")],
            output_format="github",
        )
        assert exit_code == 1
        assert "::error file=" in capsys.readouterr().out


class TestEncoding:
    def test_latin1_file_is_an_exit2_diagnostic(self, tmp_path, capsys):
        """The documented exit-2 path, not a raw UnicodeDecodeError."""
        target = tmp_path / "latin1.py"
        target.write_bytes('# caf\xe9\nx = 1\n'.encode("latin-1"))
        exit_code = run(paths=[str(target)])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "repro lint: error:" in captured.err
        assert "not valid UTF-8" in captured.err

    def test_utf8_file_still_lints(self, tmp_path):
        target = tmp_path / "utf8.py"
        target.write_text("# café\nx = 1\n", encoding="utf-8")
        findings, num_files = lint_paths([str(target)])
        assert findings == []
        assert num_files == 1


class TestLiveTree:
    def test_src_and_examples_are_clean(self):
        """The CI gate: the real tree has zero findings."""
        findings, num_files = lint_paths(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "examples")]
        )
        assert findings == [], "\n".join(
            finding.format() for finding in findings
        )
        assert num_files > 80

    def test_full_tree_with_tests_and_benchmarks_is_clean(self):
        """The widened CI scope: tests/ and benchmarks/ lint clean too
        (fixtures excluded — they are deliberately in violation)."""
        findings, num_files = lint_paths(
            [
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "examples"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
            ],
            exclude=("fixtures",),
        )
        assert findings == [], "\n".join(
            finding.format() for finding in findings
        )
        assert num_files > 150

    def test_exclude_keeps_fixtures_out(self):
        files, _ = lint_paths([str(REPO_ROOT / "tests")],
                              exclude=("fixtures",))
        assert all("fixtures" not in finding.path for finding in files)

    def test_parse_error_is_a_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def incomplete(:\n")
        findings, _ = lint_paths([str(broken)])
        assert [finding.rule for finding in findings] == ["parse-error"]

    def test_parse_error_fails_the_run(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def incomplete(:\n")
        assert run(paths=[str(broken)]) == 1
        assert "parse-error:" in capsys.readouterr().out
