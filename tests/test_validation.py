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
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "Chaos self-check" in out
        assert "18/18 cells completed all steps" in out

    def test_escaped_chaos_cell_exits_one(self, capsys, monkeypatch):
        import repro.resilience
        from repro.cli import main

        check = repro.resilience.chaos_self_check

        def escaping(seeds, steps, plans):
            if plans == ("transient",) and seeds == (1,):
                raise RuntimeError("escaped the taxonomy")
            return check(seeds=seeds, steps=steps, plans=plans)

        monkeypatch.setattr(repro.resilience, "chaos_self_check", escaping)
        with pytest.raises(SystemExit) as exc_info:
            main(["--particles", "1000000", "validate",
                  "--no-differential", "--no-pic"])
        assert exc_info.value.code == 1
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "FAIL RuntimeError" in out
        assert "1 cells escaped the documented error taxonomy" in out
