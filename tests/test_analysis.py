"""Tests for repro.analysis: the AST-based invariant linter.

Each rule is exercised against a paired good/bad fixture under
``tests/fixtures/analysis/``; the bad fixture must trip exactly the rule
named in its filename and the good fixture must lint clean under every
rule.  On top of the per-rule tests: suppression comments, the JSON
report schema, the baseline mechanism, exit codes, and the meta-test
asserting that the live ``src/repro`` + ``examples`` trees stay clean
(the property CI enforces).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
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
    "determinism",
    "cache-key",
    "async-blocking",
    "async-state",
    "repr-hygiene",
)

#: fixture stem -> the single rule its findings must all carry.
BAD_FIXTURES = {
    "bad_determinism": "determinism",
    "bad_cachekey": "cache-key",
    "bad_async_blocking": "async-blocking",
    "bad_async_state": "async-state",
    "bad_repr": "repr-hygiene",
}

GOOD_FIXTURES = (
    "good_determinism",
    "good_cachekey",
    "good_async_blocking",
    "good_async_state",
    "good_repr",
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
        rules = resolve_rules(["determinism"])
        assert [rule.id for rule in rules] == ["determinism"]


class TestRuleFixtures:
    @pytest.mark.parametrize("stem,rule", sorted(BAD_FIXTURES.items()))
    def test_bad_fixture_trips_its_rule(self, stem, rule):
        findings = lint_fixture(stem)
        assert findings, f"{stem} produced no findings"
        assert {finding.rule for finding in findings} == {rule}

    @pytest.mark.parametrize("stem", GOOD_FIXTURES)
    def test_good_fixture_is_clean(self, stem):
        assert lint_fixture(stem) == []

    def test_determinism_counts_and_lines(self):
        findings = lint_fixture("bad_determinism")
        assert len(findings) == 7
        assert [finding.line for finding in findings] == list(range(7, 14))

    def test_dropping_level_from_frame_key_fails(self):
        """The PR-4 regression: a frame key without ``level`` must fail."""
        messages = [finding.message for finding in lint_fixture("bad_cachekey")]
        assert any(
            "_frame_key" in message and "'level'" in message
            for message in messages
        )

    def test_coalesce_key_has_no_exemptions(self):
        messages = [finding.message for finding in lint_fixture("bad_cachekey")]
        assert any(
            "_coalesce_key" in message and "'backend'" in message
            for message in messages
        )

    def test_frame_key_backend_exemption_holds(self):
        """good_cachekey's frame key omits backend yet lints clean."""
        assert lint_fixture("good_cachekey") == []

    def test_unseeded_default_rng_fails(self):
        findings = lint_source(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert [finding.rule for finding in findings] == ["determinism"]

    def test_seeded_default_rng_is_clean(self):
        assert lint_source(
            "import numpy as np\nrng = np.random.default_rng(123)\n"
        ) == []

    def test_future_request_dimension_fails_everywhere(self):
        """Adding a request field (epoch) breaks every key site at once."""
        source = (FIXTURES / "good_cachekey.py").read_text().replace(
            "    level: int", "    level: int\n    epoch: int"
        )
        findings = lint_source(source)
        missing = [
            finding.message
            for finding in findings
            if "'epoch'" in finding.message
        ]
        # Both the frame key and the coalesce key must now be incomplete.
        assert len(missing) == 2


class TestSuppressions:
    def test_line_suppression(self):
        path = FIXTURES / "suppressed.py"
        assert lint_source(path.read_text(), path=str(path)) == []

    def test_file_suppression(self):
        path = FIXTURES / "suppressed_file.py"
        assert lint_source(path.read_text(), path=str(path)) == []

    def test_suppression_is_rule_scoped(self):
        source = "import time\nasync def f():\n    time.sleep(1)  # repro: ignore[determinism]\n"
        findings = lint_source(source)
        assert [finding.rule for finding in findings] == ["async-blocking"]

    def test_bare_suppression_silences_all_rules(self):
        source = "import time\nasync def f():\n    time.sleep(1)  # repro: ignore\n"
        assert lint_source(source) == []


class TestReporters:
    def test_json_schema(self):
        findings = lint_fixture("bad_determinism")
        report = json.loads(render_json(findings, num_files=1))
        assert report["version"] == JSON_SCHEMA_VERSION
        summary = report["summary"]
        assert summary["files"] == 1
        assert summary["findings"] == len(findings)
        assert summary["baselined"] == 0
        assert summary["clean"] is False
        entry = report["findings"][0]
        assert set(entry) == {
            "rule", "path", "line", "col", "message", "fingerprint",
            "baselined",
        }
        assert len(entry["fingerprint"]) == 16

    def test_json_clean_report(self):
        report = json.loads(render_json([], num_files=3))
        assert report["summary"] == {
            "files": 3, "findings": 0, "baselined": 0, "clean": True,
        }
        assert report["findings"] == []

    def test_fingerprint_is_stable_across_line_moves(self):
        first = Finding(rule="r", path="p.py", line=3, col=0, message="m")
        moved = Finding(rule="r", path="p.py", line=9, col=4, message="m")
        other = Finding(rule="r", path="p.py", line=3, col=0, message="n")
        assert first.fingerprint == moved.fingerprint
        assert first.fingerprint != other.fingerprint

    def test_github_format_emits_workflow_commands(self):
        finding = Finding(
            rule="cache-key", path="src/a.py", line=7, col=2,
            message="bad, very: 100% wrong\nsecond line",
        )
        report = render_github([finding], num_files=1)
        command = report.splitlines()[0]
        assert command.startswith(
            "::error file=src/a.py,line=7,col=2,title=cache-key::"
        )
        # Workflow-command escaping: %, newline in data; the summary line
        # stays plain text.
        assert "100%25 wrong%0Asecond line" in command
        assert report.splitlines()[-1].startswith("repro lint: 1 finding")

    def test_github_format_baselined_downgrades_to_warning(self):
        finding = Finding(
            rule="r", path="p.py", line=1, col=0, message="m", baselined=True,
        )
        report = render_github([finding], num_files=1)
        assert report.splitlines()[0].startswith("::warning ")
        assert report.splitlines()[-1].startswith("repro lint: clean")

    def test_github_format_exit_code_still_one(self, tmp_path, capsys):
        exit_code = run(
            paths=[str(FIXTURES / "bad_determinism.py")],
            output_format="github",
        )
        assert exit_code == 1
        assert "::error file=" in capsys.readouterr().out


class TestBaseline:
    def test_baselined_findings_do_not_fail(self, tmp_path):
        bad = FIXTURES / "bad_determinism.py"
        findings, _ = lint_paths([str(bad)])
        baseline_path = tmp_path / "baseline.json"
        Baseline(
            fingerprints={finding.fingerprint for finding in findings}
        ).save(baseline_path)

        exit_code = run(
            paths=[str(bad)], baseline=str(baseline_path),
            stream=io.StringIO(),
        )
        assert exit_code == 0

    def test_new_finding_beats_baseline(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        Baseline(fingerprints=set()).save(baseline_path)
        exit_code = run(
            paths=[str(FIXTURES / "bad_determinism.py")],
            baseline=str(baseline_path),
            stream=io.StringIO(),
        )
        assert exit_code == 1

    def test_repo_baseline_is_empty(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert baseline.fingerprints == set()


class TestUpdateBaseline:
    def test_update_writes_current_findings_sorted(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        exit_code = run(
            paths=[str(FIXTURES / "bad_determinism.py")],
            baseline=str(baseline_path),
            update_baseline=True,
        )
        assert exit_code == 0
        data = json.loads(baseline_path.read_text())
        assert data["version"] == 1
        assert data["fingerprints"] == sorted(data["fingerprints"])
        assert len(data["fingerprints"]) > 0
        # A follow-up run against the refreshed baseline is green.
        assert run(
            paths=[str(FIXTURES / "bad_determinism.py")],
            baseline=str(baseline_path),
            stream=io.StringIO(),
        ) == 0

    def test_update_prunes_stale_entries_and_warns(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        Baseline(fingerprints={"deadbeefdeadbeef"}).save(baseline_path)
        exit_code = run(
            paths=[str(FIXTURES / "good_determinism.py")],
            baseline=str(baseline_path),
            update_baseline=True,
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "pruned stale baseline entry deadbeefdeadbeef" in captured.err
        assert json.loads(baseline_path.read_text())["fingerprints"] == []

    def test_update_defaults_to_repo_baseline_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert run(paths=["clean.py"], update_baseline=True,
                   stream=io.StringIO()) == 0
        assert json.loads(
            (tmp_path / "lint-baseline.json").read_text()
        )["fingerprints"] == []

    def test_suppression_prunes_baselined_fingerprint(self, tmp_path, capsys):
        """Silencing a finding with # repro: ignore[...] prunes its entry."""
        target = tmp_path / "module.py"
        target.write_text("import random\nrandom.random()\n")
        baseline_path = tmp_path / "baseline.json"
        run(paths=[str(target)], baseline=str(baseline_path),
            update_baseline=True)
        stale = set(json.loads(baseline_path.read_text())["fingerprints"])
        assert stale
        target.write_text(
            "import random\nrandom.random()  # repro: ignore[determinism]\n"
        )
        exit_code = run(paths=[str(target)], baseline=str(baseline_path),
                        update_baseline=True)
        assert exit_code == 0
        assert "pruned stale baseline entry" in capsys.readouterr().err
        assert json.loads(baseline_path.read_text())["fingerprints"] == []

    def test_parse_errors_are_never_baselined(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def incomplete(:\n")
        baseline_path = tmp_path / "baseline.json"
        assert run(paths=[str(broken)], baseline=str(baseline_path),
                   update_baseline=True,
                   stream=io.StringIO()) == 0
        assert json.loads(baseline_path.read_text())["fingerprints"] == []
        # The broken file keeps failing the build despite the refresh.
        assert run(paths=[str(broken)], baseline=str(baseline_path),
                   stream=io.StringIO()) == 1


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
        """The CI gate: the real tree has zero findings, no baseline needed."""
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
