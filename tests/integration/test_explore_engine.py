"""End-to-end tests for the exploration engine and its CLI.

The expensive guarantees live here: the engine finds and shrinks the
paper's impossibility counterexamples, never disagrees with the
definition-grade checkers on the possibility spaces, and produces
byte-identical artifacts regardless of worker parallelism.
"""

import pytest

from repro.explore.artifacts import (
    Artifact,
    load_artifact,
    render_artifact,
    replay,
    save_artifact,
)
from repro.explore.engine import explore
from repro.explore.targets import TARGETS, get_target
from tests.conftest import run_cache_at


@pytest.fixture(scope="module")
def thm1_result(tmp_path_factory):
    with run_cache_at(tmp_path_factory.mktemp("thm1-run-cache")):
        return explore("thm1", budget=96, mode="enumerate", jobs=1)


class TestThm1:
    def test_finds_and_confirms_violations(self, thm1_result):
        assert thm1_result.exhaustive
        assert thm1_result.findings
        assert not thm1_result.mismatches

    def test_shrinks_to_papers_minimal_shape(self, thm1_result):
        minimal = thm1_result.findings[0].minimal
        # Theorem 1's adversary: one hidden-channel campaign plus one
        # clock skew, nothing else.
        assert minimal.crashes == ()
        assert len(minimal.omissions) == 1
        assert len(minimal.clock_skews) == 1
        assert not minimal.random_corruption
        assert minimal.corruption_rounds == ()

    def test_ftss_survives_the_same_history(self, thm1_result):
        # The Thm 1 dichotomy: the tentative definition fails where
        # Definition 2.4 at stabilization time 1 holds.
        verdict = thm1_result.findings[0].verdict
        details = dict(verdict.details)
        assert details.get("ftss_at_1_holds") is True


class TestThm2:
    def test_finds_uniformity_dichotomy(self):
        result = explore("thm2", budget=40, mode="enumerate", jobs=1)
        assert result.exhaustive
        assert result.findings
        assert not result.mismatches
        minimal = result.findings[0].minimal
        assert len(minimal.omissions) == 1


class TestPossibilityTargets:
    @pytest.mark.parametrize("name,budget", [("fig1", 24), ("fig3", 16)])
    def test_no_violations_no_mismatches(self, name, budget):
        result = explore(name, budget=budget, jobs=1)
        assert result.examined > 0
        assert not result.findings, [
            f.verdict.violations for f in result.findings
        ]
        assert not result.mismatches

    @pytest.mark.slow
    def test_fig4_detector_properties_hold(self):
        result = explore("fig4", budget=4, jobs=1)
        assert result.examined > 0
        assert not result.findings
        assert not result.mismatches

    def test_fig3_smoke_space_is_all_corruption(self):
        space = get_target("fig3").smoke_space
        specs = list(space.enumerate_plans())
        assert specs and all(spec.random_corruption for spec in specs)


class TestDeterminismAcrossJobs:
    def test_thm1_artifacts_byte_identical(self):
        renders = []
        for jobs in (1, 4):
            result = explore("thm1", budget=96, mode="enumerate", jobs=jobs)
            finding = result.findings[0]
            artifact = Artifact(
                target="thm1",
                spec=finding.minimal,
                expect_violation=True,
                verdict_holds=finding.verdict.holds,
                violations=tuple(finding.verdict.violations),
                shrunk_from=finding.original,
                shrink_oracle_calls=finding.shrink_oracle_calls,
            )
            renders.append(render_artifact(artifact))
        assert renders[0] == renders[1]


class TestArtifacts:
    def test_save_load_replay_round_trip(self, tmp_path, thm1_result):
        finding = thm1_result.findings[0]
        artifact = Artifact(
            target="thm1",
            spec=finding.minimal,
            expect_violation=True,
            verdict_holds=finding.verdict.holds,
            violations=tuple(finding.verdict.violations),
            shrunk_from=finding.original,
            shrink_oracle_calls=finding.shrink_oracle_calls,
        )
        path = save_artifact(tmp_path / "ce.json", artifact)
        loaded = load_artifact(path)
        assert loaded == artifact
        outcome = replay(loaded)
        assert outcome.reproduced
        assert not outcome.verdict.holds

    def test_schema_version_mismatch_rejected(self, tmp_path, thm1_result):
        finding = thm1_result.findings[0]
        artifact = Artifact(
            target="thm1",
            spec=finding.minimal,
            expect_violation=True,
            verdict_holds=False,
        )
        data = artifact.to_jsonable()
        data["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            Artifact.from_jsonable(data)


class TestCli:
    def test_list(self, capsys):
        from repro.explore.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in TARGETS:
            assert name in out

    def test_run_and_replay(self, capsys, tmp_path):
        from repro.explore.__main__ import main

        code = main(
            [
                "run",
                "thm1",
                "--budget",
                "96",
                "--mode",
                "enumerate",
                "--jobs",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        artifact_path = tmp_path / "thm1-finding-0.json"
        assert artifact_path.exists()
        assert main(["replay", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out

    @pytest.mark.slow
    def test_smoke_mode(self, tmp_path):
        from repro.explore.__main__ import main

        code = main(["--smoke", "--jobs", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "thm1-counterexample.json").exists()
        assert (tmp_path / "fig3-witness.json").exists()
        witness = load_artifact(tmp_path / "fig3-witness.json")
        assert witness.verdict_holds and not witness.expect_violation
