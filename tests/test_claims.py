"""Tests for the claim-validation harness."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.claims import CLAIMS, ClaimResult, validate_all


class TestClaimRegistry:
    def test_ids_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_claim_has_source_and_statement(self):
        for claim in CLAIMS:
            assert claim.source
            assert len(claim.statement) > 10

    def test_core_figures_covered(self):
        sources = {c.source for c in CLAIMS}
        for figure in ("Fig 3", "Fig 5", "Fig 7", "Fig 8", "Fig 9", "Fig 10", "Fig 11"):
            assert figure in sources


class TestValidation:
    def test_all_claims_pass_at_reduced_scale(self):
        """The whole claim suite must hold even at 0.3x scale."""
        results = validate_all(scale=0.3, seeds=3)
        failures = [
            f"{c.id}: {r.detail}" for c, r in results if not r.passed
        ]
        assert not failures, failures

    def test_results_are_claim_result_objects(self):
        claim = CLAIMS[0]
        result = claim.evaluate(scale=0.2, seeds=1)
        assert isinstance(result, ClaimResult)
        assert result.detail


class TestOneCampaign:
    @pytest.fixture
    def campaigns(self, monkeypatch):
        """The unit lists of every campaign run, in call order."""
        from repro.experiments.parallel import ParallelRunner

        calls = []
        run_campaign = ParallelRunner.run_campaign

        def spy(runner, configs):
            calls.append(list(configs))
            return run_campaign(runner, configs)

        monkeypatch.setattr(ParallelRunner, "run_campaign", spy)
        return calls

    def test_validate_all_runs_fig2_points_as_one_campaign(self, campaigns):
        """9 WAN + 3 LAN + 6 study (csdp, hand, cong) distinct points
        x 3 seeds, each simulated once."""
        validate_all(scale=0.3, seeds=3)
        assert [len(units) for units in campaigns] == [54]
        assert len({repr(unit) for unit in campaigns[0]}) == 54

    def test_evaluate_runs_only_its_own_points(self, campaigns):
        fig9 = next(c for c in CLAIMS if c.id == "fig9")
        fig9.evaluate(scale=0.1, seeds=2)
        assert [len(units) for units in campaigns] == [4]


class TestCliValidate:
    def test_cli_reports(self, capsys):
        from repro.cli import main

        code = main(["validate", "--scale", "0.2", "--seeds", "2"])
        out = capsys.readouterr().out
        assert "claims validated" in out
        # The quick scale may miss a marginal claim; exit code reflects it.
        assert code in (0, 1)

    def test_quick_validation_prints_the_golden(self, capsys):
        """``repro validate --scale 0.2 --seeds 2`` (CI's quick claim
        validation) prints ``tests/data/golden_validate.txt`` byte for
        byte: every claim's configs, checks and details are pinned."""
        from repro.cli import main

        golden = Path(__file__).parent / "data" / "golden_validate.txt"
        code = main(["validate", "--scale", "0.2", "--seeds", "2"])
        assert capsys.readouterr().out == golden.read_text()
        assert code == 0
