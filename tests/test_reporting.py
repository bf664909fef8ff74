"""Tests for the paper-artifact pipeline (:mod:`repro.reporting`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, ReportingError
from repro.experiments import ExperimentSpec, RuntimeSpec, run_experiment
from repro.reporting import (
    Artifact,
    ArtifactSpec,
    PaperPipeline,
    paper_artifact_names,
    paper_artifacts,
    register_renderer,
    renderer_names,
)
from repro.reporting.pipeline import select_artifacts


def _smoke_campaign(**overrides) -> ExperimentSpec:
    payload = {
        "kind": "campaign",
        "benchmarks": ["dotproduct:length=8"],
        "agents": ["q-learning"],
        "seeds": [0],
        "max_steps": 10,
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


@pytest.fixture(scope="module")
def campaign_report():
    """One tiny finished campaign report shared by the renderer tests."""
    return run_experiment(_smoke_campaign())


class TestArtifact:
    def test_rejects_bad_kind_and_empty_markdown(self):
        with pytest.raises(ConfigurationError):
            Artifact(name="t", title="T", kind="poster", markdown="x")
        with pytest.raises(ConfigurationError):
            Artifact(name="t", title="T", kind="table", markdown="")

    def test_rejects_non_json_data(self):
        with pytest.raises(ConfigurationError):
            Artifact(name="t", title="T", kind="table", markdown="x",
                     data={"bad": object()})

    def test_write_is_byte_stable(self, tmp_path):
        artifact = Artifact(name="t1", title="T", kind="table",
                            markdown="# T\n\nbody", data={"b": 2, "a": 1})
        files = artifact.write(tmp_path)
        assert files == ["t1.md", "t1.json"]
        first = [(tmp_path / name).read_bytes() for name in files]
        artifact.write(tmp_path)
        assert [(tmp_path / name).read_bytes() for name in files] == first
        payload = json.loads((tmp_path / "t1.json").read_text())
        assert payload == {"a": 1, "b": 2}
        assert (tmp_path / "t1.md").read_text().endswith("\n")

    def test_write_unwritable_directory_raises_reporting_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        artifact = Artifact(name="t1", title="T", kind="table", markdown="x")
        with pytest.raises(ReportingError):
            artifact.write(blocker / "nested")


class TestArtifactSpec:
    def test_unknown_renderer_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown renderer"):
            ArtifactSpec(name="t", title="T", kind="table", renderer="nope")

    def test_experiments_must_be_specs(self):
        with pytest.raises(ConfigurationError, match="ExperimentSpec"):
            ArtifactSpec(name="t", title="T", kind="table", renderer="table3",
                         experiments={"explorations": {"kind": "campaign"}})

    def test_fingerprint_tracks_content(self):
        base = ArtifactSpec(name="t", title="T", kind="table",
                            renderer="operator-table",
                            params={"operator_kind": "adder", "samples": 100})
        same = ArtifactSpec(name="t", title="T", kind="table",
                            renderer="operator-table",
                            params={"samples": 100, "operator_kind": "adder"})
        other = ArtifactSpec(name="t", title="T", kind="table",
                             renderer="operator-table",
                             params={"operator_kind": "adder", "samples": 101})
        assert base.fingerprint() == same.fingerprint()
        assert base.fingerprint() != other.fingerprint()

    def test_fingerprint_tracks_experiments(self):
        spec_a = ArtifactSpec(name="t", title="T", kind="table", renderer="table3",
                              experiments={"explorations": _smoke_campaign()})
        spec_b = ArtifactSpec(name="t", title="T", kind="table", renderer="table3",
                              experiments={"explorations":
                                           _smoke_campaign(max_steps=11)})
        assert spec_a.fingerprint() != spec_b.fingerprint()

    def test_render_requires_all_reports(self):
        spec = ArtifactSpec(name="t", title="T", kind="table", renderer="table3",
                            experiments={"explorations": _smoke_campaign()})
        with pytest.raises(ReportingError, match="missing report"):
            spec.render({})

    def test_renderer_output_identity_checked(self, campaign_report):
        @register_renderer("test-wrong-name")
        def _wrong(spec, reports):
            return Artifact(name="other", title="T", kind="table", markdown="x")

        spec = ArtifactSpec(name="t", title="T", kind="table",
                            renderer="test-wrong-name")
        with pytest.raises(ReportingError, match="produced artifact"):
            spec.render({})


class TestRenderers:
    def test_builtin_renderers_registered(self):
        names = renderer_names()
        for name in ("operator-table", "table3", "trace-trends", "reward-curves"):
            assert name in names

    def test_operator_table_artifact(self):
        spec = ArtifactSpec(name="table1", title="Table I", kind="table",
                            renderer="operator-table",
                            params={"operator_kind": "adder", "samples": 200})
        artifact = spec.render({})
        assert "add8_00M" in artifact.markdown
        assert "MRED % (measured)" in artifact.markdown
        names = [op["name"] for op in artifact.data["operators"]]
        assert "add8_00M" in names
        exact = [op for op in artifact.data["operators"]
                 if op["published"]["mred_percent"] == 0.0]
        assert all(op["measured"]["mred_percent"] == 0.0 for op in exact)

    def test_operator_table_without_measurement(self):
        spec = ArtifactSpec(name="table2", title="Table II", kind="table",
                            renderer="operator-table",
                            params={"operator_kind": "multiplier",
                                    "measure": False})
        artifact = spec.render({})
        assert "MRED % (measured)" not in artifact.markdown
        assert all("measured" not in op for op in artifact.data["operators"])

    def test_table3_artifact(self, campaign_report):
        spec = ArtifactSpec(name="table3", title="Table III", kind="table",
                            renderer="table3",
                            experiments={"explorations": _smoke_campaign()})
        artifact = spec.render({"explorations": campaign_report})
        assert "Δpower sol" in artifact.markdown
        (row,) = artifact.data["rows"]
        assert row["benchmark_label"] == "dotproduct:length=8"
        assert row["steps"] == campaign_report.entries[0].result.num_steps
        assert set(row["power_mw"]) == {"minimum", "solution", "maximum"}

    def test_trace_trends_artifact(self, campaign_report):
        spec = ArtifactSpec(name="fig2", title="Fig 2", kind="figure",
                            renderer="trace-trends",
                            experiments={"explorations": _smoke_campaign()},
                            params={"benchmarks": ["dotproduct:length=8"]})
        artifact = spec.render({"explorations": campaign_report})
        payload = artifact.data["benchmarks"]["dotproduct:length=8"]
        assert set(payload["trends"]) == {"power_mw", "time_ns", "accuracy"}
        steps = campaign_report.entries[0].result.num_steps
        assert len(payload["series"]["power_mw"]) == steps

    def test_trace_trends_missing_label_raises(self, campaign_report):
        spec = ArtifactSpec(name="fig2", title="Fig 2", kind="figure",
                            renderer="trace-trends",
                            experiments={"explorations": _smoke_campaign()},
                            params={"benchmarks": ["fir_100"]})
        with pytest.raises(ReportingError, match="absent from its experiment"):
            spec.render({"explorations": campaign_report})

    def test_multi_seed_campaign_rejected_by_exploration_renderers(self):
        report = run_experiment(_smoke_campaign(seeds=[0, 1]))
        spec = ArtifactSpec(name="table3", title="Table III", kind="table",
                            renderer="table3",
                            experiments={"explorations":
                                         _smoke_campaign(seeds=[0, 1])})
        with pytest.raises(ReportingError, match="exactly one exploration"):
            spec.render({"explorations": report})

    def test_operator_table_rejects_unknown_kind(self):
        spec = ArtifactSpec(name="table1", title="T", kind="table",
                            renderer="operator-table",
                            params={"operator_kind": "divider"})
        with pytest.raises(ConfigurationError, match="operator_kind"):
            spec.render({})

    def test_reward_curves_artifact(self, campaign_report):
        spec = ArtifactSpec(name="fig4", title="Fig 4", kind="figure",
                            renderer="reward-curves",
                            experiments={"explorations": _smoke_campaign()},
                            params={"benchmarks": ["dotproduct:length=8"],
                                    "window": 5})
        artifact = spec.render({"explorations": campaign_report})
        payload = artifact.data["benchmarks"]["dotproduct:length=8"]
        assert len(payload["averages"]) == len(payload["window_centers"])
        assert payload["window"] == 5


class TestPaperArtifacts:
    def test_declared_names_and_order(self):
        specs = paper_artifacts("smoke")
        assert tuple(spec.name for spec in specs) == paper_artifact_names()

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown paper scale"):
            paper_artifacts("huge")

    def test_exploration_artifacts_share_one_campaign(self):
        specs = {spec.name: spec for spec in paper_artifacts("smoke")}
        fingerprints = {
            spec.experiments["explorations"].fingerprint()
            for spec in (specs["table3"], specs["fig2"], specs["fig3"],
                         specs["fig4"])
        }
        assert len(fingerprints) == 1

    def test_scales_change_fingerprints(self):
        smoke = {s.name: s.fingerprint() for s in paper_artifacts("smoke")}
        default = {s.name: s.fingerprint() for s in paper_artifacts("default")}
        assert all(smoke[name] != default[name] for name in smoke)

    def test_select_artifacts(self):
        specs = paper_artifacts("smoke")
        subset = select_artifacts(specs, ["fig4", "table1"])
        assert tuple(s.name for s in subset) == ("table1", "fig4")
        assert select_artifacts(specs, None) == tuple(specs)
        with pytest.raises(ConfigurationError, match="unknown artifact"):
            select_artifacts(specs, ["table9"])


class TestPaperPipeline:
    @pytest.fixture(scope="class")
    def first_run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("artifacts")
        pipeline = PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir)
        return out_dir, pipeline.run()

    def test_every_artifact_built_with_files(self, first_run):
        out_dir, result = first_run
        assert tuple(s.name for s in result.statuses) == paper_artifact_names()
        assert all(status.state == "built" for status in result.statuses)
        for status in result.statuses:
            for name in status.files:
                assert (out_dir / name).exists()

    def test_manifest_complete_and_keyed_by_fingerprints(self, first_run):
        out_dir, result = first_run
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == set(paper_artifact_names())
        for spec in paper_artifacts("smoke"):
            entry = manifest["artifacts"][spec.name]
            assert entry["fingerprint"] == spec.fingerprint()
            assert entry["experiments"] == spec.experiment_fingerprints()

    def test_second_run_is_cached_and_manifest_stable(self, first_run):
        out_dir, result = first_run
        before = {f.name: f.read_bytes() for f in Path(out_dir).iterdir()}
        second = PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir).run()
        assert all(status.state == "cached" for status in second.statuses)
        assert not second.reports
        after = {f.name: f.read_bytes() for f in Path(out_dir).iterdir()}
        assert before == after
        # The store summary keeps the same shape whether anything ran or not.
        assert set(second.store) >= {"size", "hits", "misses", "lookups",
                                     "hit_rate", "path"}

    def test_deleted_file_marks_artifact_stale(self, first_run):
        out_dir, _ = first_run
        (out_dir / "fig4.json").unlink()
        rerun = PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir).run()
        states = {status.name: status.state for status in rerun.statuses}
        assert states["fig4"] == "built"
        assert states["table1"] == "cached"
        assert (out_dir / "fig4.json").exists()

    def test_parallel_run_is_bit_identical(self, first_run, tmp_path):
        out_dir, _ = first_run
        parallel = PaperPipeline(paper_artifacts("smoke"), out_dir=tmp_path,
                                 runtime=RuntimeSpec(jobs=2)).run()
        assert all(status.state == "built" for status in parallel.statuses)
        for name in [f.name for f in Path(out_dir).iterdir()]:
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()

    def test_selective_run_preserves_other_manifest_entries(self, first_run,
                                                            tmp_path):
        full = PaperPipeline(paper_artifacts("smoke"), out_dir=tmp_path).run()
        assert len(full.statuses) == 6
        subset = select_artifacts(paper_artifacts("smoke"), ["table1"])
        again = PaperPipeline(subset, out_dir=tmp_path, force=True).run()
        manifest = again.manifest["artifacts"]
        assert set(manifest) == set(paper_artifact_names())

    def test_persistent_store_serves_forced_rerun(self, tmp_path):
        store = tmp_path / "paper.sqlite"
        out_dir = tmp_path / "arts"
        runtime = RuntimeSpec(store_path=str(store))
        PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir, runtime=runtime).run()
        assert store.exists()
        forced = PaperPipeline(paper_artifacts("smoke"), out_dir=out_dir,
                               runtime=runtime, force=True).run()
        assert all(status.state == "built" for status in forced.statuses)
        assert forced.store["hits"] > 0
        assert forced.store["hits"] == forced.store["lookups"]

    def test_corrupt_manifest_triggers_rebuild(self, tmp_path):
        pipeline = PaperPipeline(
            select_artifacts(paper_artifacts("smoke"), ["table1"]),
            out_dir=tmp_path)
        pipeline.run()
        (tmp_path / "manifest.json").write_text("not json {")
        rerun = PaperPipeline(
            select_artifacts(paper_artifacts("smoke"), ["table1"]),
            out_dir=tmp_path).run()
        assert rerun.statuses[0].state == "built"

    def test_duplicate_artifact_names_rejected(self):
        spec = paper_artifacts("smoke")[0]
        with pytest.raises(ConfigurationError, match="duplicate artifact"):
            PaperPipeline([spec, spec], out_dir="unused")

    def test_empty_artifact_set_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one artifact"):
            PaperPipeline([], out_dir="unused")
