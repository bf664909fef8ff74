"""Tests for the command-line interface."""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments import RuntimeSpec


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explore_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.benchmark == "matmul"
        assert args.steps == 2000
        assert args.agent == "q-learning"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--benchmark", "nothing"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.benchmarks == ["dotproduct"]
        assert args.jobs == 1
        assert args.chunk_size == 256
        assert args.store_path is None and args.out is None


class TestCommands:
    def test_list_benchmarks(self, capsys):
        assert main(["list-benchmarks"]) == 0
        output = capsys.readouterr().out
        assert "matmul" in output
        assert "fir" in output

    def test_characterize_without_measurement(self, capsys):
        assert main(["characterize", "--no-measure"]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "add8_00M" in output
        assert "mul32_043" in output

    def test_explore_prints_table3_row(self, capsys):
        assert main(["explore", "--benchmark", "dotproduct", "--steps", "40", "--figures"]) == 0
        output = capsys.readouterr().out
        assert "Δpower sol" in output
        assert "Trend lines" in output
        assert "Average reward" in output

    def test_explore_with_random_agent(self, capsys):
        assert main(["explore", "--benchmark", "dotproduct", "--steps", "20",
                     "--agent", "random"]) == 0
        assert "Exploration of" in capsys.readouterr().out

    def test_compare_runs_all_explorers(self, capsys):
        assert main(["compare", "--benchmark", "dotproduct", "--steps", "30"]) == 0
        output = capsys.readouterr().out
        assert "q-learning" in output
        assert "simulated-annealing" in output
        assert "genetic" in output

    def test_sweep_prints_true_front_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "fronts.json"
        store = tmp_path / "sweep.sqlite"
        assert main(["sweep", "--benchmarks", "dotproduct", "--chunk-size", "96",
                     "--store", str(store), "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "true front:" in output
        assert "288 evaluated" in output
        assert store.exists() and out.exists()

        import json
        payload = json.loads(out.read_text())
        assert payload[0]["space_size"] == 288
        assert payload[0]["front_size"] == len(payload[0]["front"])

        # Re-sweeping against the persisted store serves everything cached.
        assert main(["sweep", "--benchmarks", "dotproduct", "--chunk-size", "96",
                     "--store", str(store)]) == 0
        assert "(100 % hit rate)" in capsys.readouterr().out


class TestDeclarativeCli:
    """The spec-first surface: `run`, parameterized benchmarks, friendly errors."""

    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_executes_a_campaign_spec(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, {
            "kind": "campaign",
            "benchmarks": ["dotproduct:length=12"],
            "agents": ["q-learning", "hill-climbing"],
            "seeds": [0],
            "max_steps": 20,
        })
        report_path = tmp_path / "report.json"
        assert main(["run", str(spec_path), "--out", str(report_path)]) == 0
        output = capsys.readouterr().out
        assert "Experiment campaign" in output
        assert "Agent q-learning" in output
        assert "Agent hill-climbing" in output
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert len(report["entries"]) == 2
        assert report["provenance"]["fingerprint"] in output

    def test_run_applies_dotted_overrides(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, {
            "kind": "explore",
            "benchmarks": ["dotproduct:length=12"],
            "agents": ["q-learning"],
            "seeds": [0],
            "max_steps": 500,
        })
        assert main(["run", str(spec_path), "--set", "max_steps=20",
                     "--set", "seeds=[2]"]) == 0
        assert "Exploration of dotproduct_12" in capsys.readouterr().out

    def test_run_matches_legacy_subcommand(self, capsys, tmp_path):
        assert main(["explore", "--benchmark", "dotproduct:length=12",
                     "--steps", "30", "--seed", "1"]) == 0
        legacy = capsys.readouterr().out
        spec_path = self._write_spec(tmp_path, {
            "kind": "explore",
            "benchmarks": ["dotproduct:length=12"],
            "agents": ["q-learning"],
            "seeds": [1],
            "max_steps": 30,
        })
        assert main(["run", str(spec_path)]) == 0
        spec_output = capsys.readouterr().out
        # The exploration summary (header + Table-III row) is identical;
        # `run` adds its own header and store/wall-clock trailer around it.
        assert legacy.strip() in spec_output

    def test_run_rejects_invalid_spec_with_exit_2(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, {
            "kind": "campaign",
            "benchmarks": ["dotproduct"],
            "agents": ["gradient-descent"],
        })
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "q-learning" in err  # names the valid choices

    def test_run_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_unknown_benchmark_in_spec_names_choices(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, {
            "kind": "campaign",
            "benchmarks": ["nothing"],
            "agents": ["q-learning"],
        })
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'nothing'" in err
        assert "matmul" in err and "dotproduct" in err

    def test_checked_in_example_spec_is_valid(self, capsys):
        example = Path(__file__).resolve().parent.parent / "examples" / \
            "experiment_campaign.json"
        payload = json.loads(example.read_text())
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec.from_dict(payload)
        assert spec.kind == "campaign"
        assert spec.fingerprint()

    def test_explore_accepts_parameterized_benchmark(self, capsys):
        assert main(["explore", "--benchmark", "dotproduct:length=12",
                     "--steps", "20"]) == 0
        assert "Exploration of dotproduct_12" in capsys.readouterr().out

    def test_explore_accepts_paper_label(self, capsys):
        assert main(["explore", "--benchmark", "matmul_10x10", "--steps", "5"]) == 0
        assert "Exploration of matmul_10x10" in capsys.readouterr().out

    def test_explore_runs_baseline_agents(self, capsys):
        assert main(["explore", "--benchmark", "dotproduct:length=12",
                     "--steps", "20", "--agent", "hill-climbing"]) == 0
        assert "with hill-climbing" in capsys.readouterr().out

    def test_campaign_runs_baselines_by_name(self, capsys):
        assert main(["campaign", "--benchmarks", "dotproduct:length=12",
                     "--agents", "q-learning", "hill-climbing", "genetic",
                     "--steps", "20"]) == 0
        output = capsys.readouterr().out
        assert "Agent q-learning" in output
        assert "Agent hill-climbing" in output
        assert "Agent genetic" in output

    def test_compare_honours_agent_selection(self, capsys):
        assert main(["compare", "--benchmark", "dotproduct:length=12",
                     "--steps", "20", "--agents", "q-learning", "exhaustive"]) == 0
        output = capsys.readouterr().out
        assert "q-learning" in output
        assert "exhaustive" in output

    def test_invalid_benchmark_parameter_value_exits_2(self, capsys):
        # Parses fine (rows is an int) but the constructor rejects it at
        # build time: friendly one-liner, not a traceback.
        assert main(["explore", "--benchmark", "matmul:rows=0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_agents(self, capsys):
        assert main(["list-agents"]) == 0
        output = capsys.readouterr().out
        assert "q-learning" in output
        assert "simulated-annealing" in output
        assert "[baseline]" in output


class TestOutputPaths:
    """--out destinations: parents are created, unwritable paths exit 2."""

    def test_run_out_creates_missing_parents(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "kind": "explore",
            "benchmarks": ["dotproduct:length=12"],
            "agents": ["q-learning"],
            "seeds": [0],
            "max_steps": 10,
        }))
        out = tmp_path / "deeply" / "nested" / "report.json"
        assert main(["run", str(spec_path), "--out", str(out)]) == 0
        assert out.exists()
        assert json.loads(out.read_text())["ok"] is True

    def test_sweep_out_creates_missing_parents(self, capsys, tmp_path):
        out = tmp_path / "fronts" / "dir" / "fronts.json"
        assert main(["sweep", "--benchmarks", "dotproduct:length=8",
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_unwritable_out_exits_2_with_one_line_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory is needed")
        out = blocker / "sub" / "fronts.json"
        assert main(["sweep", "--benchmarks", "dotproduct:length=8",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write")
        assert "Traceback" not in err

    def test_unwritable_paper_out_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["paper", "--smoke", "--out", str(blocker / "arts")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create artifact directory")
        assert "Traceback" not in err


class TestPaperCommand:
    """The artifact-pipeline front end: `repro-axc paper`."""

    def test_smoke_builds_all_artifacts(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["paper", "--smoke", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        for name in ("table1", "table2", "table3", "fig2", "fig3", "fig4"):
            assert f"{name}" in output
            assert (out / f"{name}.md").exists()
            assert (out / f"{name}.json").exists()
        assert "built" in output
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 6

    def test_second_invocation_is_cached(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["paper", "--smoke", "--out", str(out)]) == 0
        manifest_before = (out / "manifest.json").read_bytes()
        capsys.readouterr()
        assert main(["paper", "--smoke", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "cached" in output and "built" not in output
        assert (out / "manifest.json").read_bytes() == manifest_before

    def test_artifact_selection(self, capsys, tmp_path):
        out = tmp_path / "artifacts"
        assert main(["paper", "--smoke", "--artifacts", "table1",
                     "--out", str(out)]) == 0
        assert (out / "table1.md").exists()
        assert not (out / "fig4.md").exists()

    def test_unknown_artifact_exits_2(self, capsys, tmp_path):
        assert main(["paper", "--smoke", "--artifacts", "table9",
                     "--out", str(tmp_path / "a")]) == 2
        err = capsys.readouterr().err
        assert "unknown artifact" in err and "table1" in err

    def test_list_artifacts(self, capsys):
        assert main(["paper", "--smoke", "--list"]) == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig4" in output
        assert "Table I" in output

    def test_scale_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["paper", "--smoke", "--paper-scale"])


class TestPlanAndStore:
    """The `plan` and `store stats` subcommands plus `run --store/--explain`."""

    SWEEP = {
        "kind": "sweep",
        "benchmarks": ["dotproduct:length=4"],
        "seeds": [0],
        "runtime": {"chunk_size": 64},
    }
    COMPARE = {
        "kind": "compare",
        "benchmarks": ["dotproduct:length=4"],
        "agents": ["q-learning", "random"],
        "seeds": [0],
        "max_steps": 12,
    }

    def _write_spec(self, tmp_path, payload, name="spec.json"):
        spec_path = tmp_path / name
        spec_path.write_text(json.dumps(payload))
        return spec_path

    def _warm_store(self, tmp_path):
        """A sqlite store materializing the full dotproduct_4 seed-0 context."""
        from repro.experiments import ExperimentSpec, run_experiment
        from repro.runtime.store import EvaluationStore

        store = EvaluationStore(path=tmp_path / "evals.sqlite")
        run_experiment(ExperimentSpec.from_dict(self.SWEEP), store=store)
        return store.path

    def test_plan_summary_on_cold_batch(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["plan", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "plan " in output
        assert "2 unit(s)" in output and "2 to evaluate" in output
        assert "merge compare" in output

    def test_plan_explain_against_warm_store(self, capsys, tmp_path):
        store_path = self._warm_store(tmp_path)
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["plan", str(spec_path), "--store", str(store_path),
                     "--explain"]) == 0
        output = capsys.readouterr().out
        assert "2 answered by the store" in output
        assert "0 to evaluate" in output
        assert "replay" in output
        assert "dotproduct[seed=0" in output

    def test_plan_format_json(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["plan", str(spec_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["specs"] and payload["nodes"]
        kinds = {node["kind"] for node in payload["nodes"]}
        assert kinds == {"EvaluateJobs", "MergeReports"}

    @pytest.mark.parametrize("key, kept", [("compiled", True), ("store_outputs", False)],
                             ids=["compiled", "store_outputs"])
    def test_plan_of_legacy_spec_matches_current_form(self, capsys, tmp_path, key, kept):
        for payload in (self.SWEEP, self.COMPARE):
            current = self._write_spec(tmp_path, payload)
            legacy = self._write_spec(
                tmp_path, {**payload, "runtime": {**payload.get("runtime", {}), key: kept}},
                name="legacy.json",
            )
            assert main(["plan", str(current), "--format", "json"]) == 0
            expected = json.loads(capsys.readouterr().out)
            assert main(["plan", str(legacy), "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == expected

    @pytest.mark.parametrize("key, refused", [("compiled", False), ("store_outputs", True)],
                             ids=["compiled", "store_outputs"])
    def test_run_refuses_other_legacy_values_in_spec_file(self, capsys, tmp_path, key,
                                                          refused):
        spec_path = self._write_spec(
            tmp_path, {**self.SWEEP, "runtime": {"chunk_size": 64, key: refused}}
        )
        assert main(["run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime {key} is no longer an option")
        assert err.count("\n") == 1

    def test_plan_missing_store_exits_2(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["plan", str(spec_path), "--store",
                     str(tmp_path / "nope.sqlite")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "does not exist" in err

    def test_plan_corrupt_store_exits_2(self, capsys, tmp_path):
        corrupt = tmp_path / "evals.sqlite"
        corrupt.write_bytes(b"this is not a sqlite database at all")
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["plan", str(spec_path), "--store", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err

    def test_run_with_store_replays(self, capsys, tmp_path):
        store_path = self._warm_store(tmp_path)
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["run", str(spec_path), "--store", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "Experiment compare" in output
        assert "Explorer comparison on dotproduct_4" in output
        assert "100 % hit rate" in output  # everything replayed

    def test_run_with_store_batches_like_plain_run(self, capsys, tmp_path,
                                                   monkeypatch):
        from repro.runtime.executor import SerialExecutor
        from repro.runtime.store import EvaluationStore

        dispatched = []
        original_run = SerialExecutor.run

        def recording_run(self, jobs, **kwargs):
            dispatched.append([type(job).__name__ for job in jobs])
            return original_run(self, jobs, **kwargs)

        monkeypatch.setattr(SerialExecutor, "run", recording_run)
        spec_path = self._write_spec(tmp_path, {
            "kind": "campaign", "benchmarks": ["dotproduct:length=4"],
            "agents": ["q-learning"], "seeds": [0, 1], "max_steps": 12,
        })
        store_path = tmp_path / "empty.sqlite"
        EvaluationStore(path=store_path).flush()
        plain, stored = tmp_path / "plain.json", tmp_path / "stored.json"
        assert main(["run", str(spec_path), "--out", str(plain)]) == 0
        assert main(["run", str(spec_path), "--store", str(store_path),
                     "--out", str(stored)]) == 0

        assert capsys.readouterr().out.count("batched 2 seeds/job") == 2
        assert dispatched == [["BatchedExplorationJob"]] * 2  # ... and it did
        def entries(path):
            return [{key: value for key, value in entry.items()
                     if key != "duration_s"}
                    for entry in json.loads(path.read_text())["entries"]]

        assert entries(stored) == entries(plain)

    def test_run_explain_prints_the_plan(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["run", str(spec_path), "--explain"]) == 0
        output = capsys.readouterr().out
        assert "plan " in output and "to evaluate" in output
        assert "Experiment compare" in output  # the report still prints

    def test_run_missing_store_exits_2(self, capsys, tmp_path):
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["run", str(spec_path), "--store",
                     str(tmp_path / "nope.sqlite")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_run_corrupt_store_exits_2(self, capsys, tmp_path):
        corrupt = tmp_path / "evals.sqlite"
        corrupt.write_bytes(b"\x00" * 64)
        spec_path = self._write_spec(tmp_path, self.COMPARE)
        assert main(["run", str(spec_path), "--store", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err

    def test_store_stats_human(self, capsys, tmp_path):
        store_path = self._warm_store(tmp_path)
        assert main(["store", "stats", str(store_path)]) == 0
        output = capsys.readouterr().out
        assert "Evaluation store" in output
        assert "288 record(s)" in output
        assert "seed=0 unsigned: 288 record(s)" in output
        assert "lifetime:" in output

    def test_store_stats_json(self, capsys, tmp_path):
        store_path = self._warm_store(tmp_path)
        assert main(["store", "stats", str(store_path), "--format", "json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["records"] == 288
        assert len(info["contexts"]) == 1
        assert info["contexts"][0]["records"] == 288
        assert info["lifetime"]["misses"] == 288

    def test_store_stats_missing_path_exits_2(self, capsys, tmp_path):
        assert main(["store", "stats", str(tmp_path / "nope.sqlite")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "does not exist" in err

    def test_store_stats_corrupt_file_exits_2(self, capsys, tmp_path):
        corrupt = tmp_path / "evals.sqlite"
        corrupt.write_bytes(b"garbage bytes, definitely not sqlite")
        assert main(["store", "stats", str(corrupt)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err


# ------------------------------------------------------------ runtime flags

REPO_ROOT = Path(__file__).resolve().parent.parent
CAMPAIGN_EXAMPLE = REPO_ROOT / "examples" / "experiment_campaign.json"

#: One invalid value per RuntimeSpec field (NaN goes through the spec file
#: as a literal, which Python's json reads).
INVALID_RUNTIME = {
    "executor": "threads", "jobs": 0, "store_path": "", "chunk_size": 0,
    "batch_size": -1, "retries": 0, "job_timeout_s": float("nan"),
    "checkpoint_interval": -1, "resume": "yes", "remote": "",
}


def _subcommand(name):
    subparsers = next(action for action in build_parser()._actions
                      if action.__class__.__name__ == "_SubParsersAction")
    return subparsers.choices[name]


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestRuntimeFlags:
    """Every executing subcommand takes the runtime flags the table declares."""

    def test_copies_of_the_runtime_are_gone(self):
        import repro.cli as cli
        from repro.reporting import PaperPipeline
        from repro.service import EvaluationDaemon

        assert not hasattr(RuntimeSpec, "from_jobs")
        assert not hasattr(cli, "_resilient_runtime")
        assert not hasattr(cli, "_add_resilience_arguments")
        names = {item.name for item in dataclasses.fields(RuntimeSpec)}
        for front_door in (PaperPipeline, EvaluationDaemon):
            parameters = set(inspect.signature(front_door).parameters)
            assert "runtime" in parameters
            assert not parameters & names, front_door

    @pytest.mark.parametrize("command", ["run", "serve", "campaign", "sweep", "paper"])
    def test_runtime_options_equal_the_table_flag_rows(self, command):
        expected = {
            item.name: ((item.metadata["flag"],), item.default, item.metadata["help"])
            for item in dataclasses.fields(RuntimeSpec) if item.metadata["flag"] is not None
        }
        assert set(expected) == set(INVALID_RUNTIME) - {"executor", "remote"}
        options = {
            action.dest: (tuple(action.option_strings), action.default, action.help)
            for action in _subcommand(command)._actions if action.dest in expected
        }
        assert options == expected

    @pytest.mark.parametrize("name", sorted(INVALID_RUNTIME))
    def test_run_refuses_a_mutated_runtime_field(self, capsys, tmp_path, name):
        assert {item.name for item in dataclasses.fields(RuntimeSpec)} == set(INVALID_RUNTIME)
        payload = json.loads(CAMPAIGN_EXAMPLE.read_text())
        payload["runtime"][name] = INVALID_RUNTIME[name]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        assert main(["run", str(spec_path)]) == 2
        assert _assert_one_error_line(capsys).startswith(f"error: runtime {name} ")

    def test_nan_threshold_override_exits_2(self, capsys):
        assert main(["run", str(CAMPAIGN_EXAMPLE),
                     "--set", "thresholds.accuracy_factor=NaN"]) == 2
        err = _assert_one_error_line(capsys)
        assert "accuracy_factor" in err and "nan" in err

    def test_negative_seed_exits_2(self, capsys):
        assert main(["explore", "--benchmark", "dotproduct", "--seed", "-1"]) == 2
        assert "-1" in _assert_one_error_line(capsys)

    def test_jobs_below_one_exits_2(self, capsys):
        assert main(["campaign", "--benchmarks", "dotproduct", "--jobs", "0"]) == 2
        assert "runtime jobs must be a positive integer, got 0" in \
            _assert_one_error_line(capsys)

    def test_remote_run_checks_the_runtime_flags_first(self, capsys, tmp_path):
        # The daemon's runtime governs a remote ticket, but a refused flag
        # still ends the command before it contacts any daemon.
        assert main(["run", str(CAMPAIGN_EXAMPLE), "--remote", str(tmp_path / "none.sock"),
                     "--jobs", "0", "--job-timeout", "nan"]) == 2
        captured = capsys.readouterr()
        assert "submitting" not in captured.out
        assert captured.err.startswith("error: runtime jobs ") and \
            captured.err.count("\n") == 1, captured.err

    def test_readme_override_form_runs_on_a_pool(self, capsys):
        assert main(["run", str(CAMPAIGN_EXAMPLE), "--set", "runtime.jobs=2",
                     "--set", "seeds=[0,1]", "--set", "max_steps=40"]) == 0
        assert "on 2 worker processes" in capsys.readouterr().out

    def test_run_store_flag_sets_the_journal_location(self, capsys, tmp_path):
        from repro.runtime.store import EvaluationStore

        given, named = tmp_path / "X.sqlite", tmp_path / "Y.sqlite"
        EvaluationStore(path=given).flush()
        payload = json.loads(CAMPAIGN_EXAMPLE.read_text())
        payload.update(seeds=[0], max_steps=20)
        payload["runtime"]["store_path"] = str(named)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        assert main(["run", str(spec_path), "--store", str(given),
                     "--checkpoint-interval", "1"]) == 0
        assert Path(f"{given}.checkpoint.jsonl").exists()
        assert not Path(f"{named}.checkpoint.jsonl").exists()
        assert not named.exists()
