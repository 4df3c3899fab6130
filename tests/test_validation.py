"""Tests for the one-shot validation report."""

import pytest

from repro.bench import ValidationReport, validate_against_paper


class TestReportStructure:
    def test_add_and_count(self):
        report = ValidationReport()
        report.add("a", "x", True)
        report.add("b", "y", False)
        assert report.n_passed == 1
        assert not report.all_passed

    def test_render_contains_marks(self):
        report = ValidationReport()
        report.add("good claim", "value", True)
        report.add("bad claim", "value", False)
        text = report.render()
        assert "[PASS] good claim" in text
        assert "[FAIL] bad claim" in text
        assert "1/2 checks passed" in text


class TestFullValidation:
    @pytest.fixture(scope="class")
    def report(self):
        # Reduced particle count keeps this under a couple of minutes;
        # the working set still exceeds the simulated caches.
        return validate_against_paper(n=2_000_000)

    def test_all_claims_pass(self, report):
        failed = [c.claim for c in report.checks if not c.passed]
        assert report.all_passed, f"failed claims: {failed}"

    def test_covers_all_artefacts(self, report):
        text = report.render()
        assert "Table 2" in text
        assert "Table 3" in text
        assert "Fig. 1" in text
        assert "First iteration" in text
        assert "Hyperthreading" in text

    def test_check_count(self, report):
        assert len(report.checks) == 20


class TestCliValidate:
    def test_exit_code_zero_on_pass(self, capsys):
        from repro.cli import main
        assert main(["--particles", "1000000", "validate"]) == 0
        assert "checks passed" in capsys.readouterr().out
