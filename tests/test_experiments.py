"""Tests for the declarative experiment API (specs, registry, runner, report)."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import DotProductBenchmark
from repro.dse import AxcDseEnv
from repro.errors import ConfigurationError, UnknownBenchmarkError
from repro.experiments import (
    BenchmarkSpec,
    ExperimentAgentSpec,
    ExperimentSpec,
    RuntimeSpec,
    ThresholdSpec,
    agent_names,
    apply_overrides,
    baseline_agent_names,
    rl_agent_names,
    run_experiment,
)
from repro.experiments.registry import register_agent
from repro.experiments.spec import EXECUTOR_KINDS
from repro.runtime import AgentSpec, ProcessExecutor, execute_job
from repro.runtime.jobs import ExplorationJob

#: Runtime keys of removed options, each with the one value old specs may
#: still carry (the behaviour that remains).
LEGACY_RUNTIME_KEYS = [("compiled", True), ("store_outputs", False)]
LEGACY_IDS = [key for key, _ in LEGACY_RUNTIME_KEYS]


def _tiny_campaign_spec(**overrides) -> ExperimentSpec:
    payload = {
        "kind": "campaign",
        "benchmarks": ["dotproduct:length=12"],
        "agents": ["q-learning", "hill-climbing"],
        "seeds": [0, 1],
        "max_steps": 20,
    }
    payload.update(overrides)
    return ExperimentSpec.from_dict(payload)


class TestBenchmarkSpec:
    def test_parse_bare_name(self):
        spec = BenchmarkSpec.parse("matmul")
        assert spec.name == "matmul"
        assert spec.params == {}
        assert spec.label == "matmul"

    def test_parse_parameterized(self):
        spec = BenchmarkSpec.parse("matmul:rows=50,inner=50,cols=50")
        assert spec.params == {"rows": 50, "inner": 50, "cols": 50}
        assert spec.label == "matmul:rows=50,inner=50,cols=50"
        built = spec.build()
        assert built.rows == built.cols == 50

    def test_parse_paper_label(self):
        spec = BenchmarkSpec.parse("matmul_50x50")
        assert spec.name == "matmul"
        assert spec.params == {"rows": 50, "inner": 50, "cols": 50}
        assert spec.label == "matmul_50x50"
        fir = BenchmarkSpec.parse("fir_200")
        assert (fir.name, fir.params) == ("fir", {"num_samples": 200})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(UnknownBenchmarkError):
            BenchmarkSpec.parse("nothing")
        with pytest.raises(UnknownBenchmarkError):
            BenchmarkSpec(name="nothing")

    def test_unknown_constructor_parameter_rejected(self):
        spec = BenchmarkSpec.parse("dotproduct:bogus=3")
        with pytest.raises(ConfigurationError, match="bogus"):
            spec.build()

    def test_malformed_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            BenchmarkSpec.parse("matmul:rows")

    def test_round_trip(self):
        spec = BenchmarkSpec.parse("matmul_10x10")
        assert BenchmarkSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown benchmark spec key"):
            BenchmarkSpec.from_dict({"name": "matmul", "size": 10})


class TestExperimentAgentSpec:
    def test_every_registered_name_accepted(self):
        for name in agent_names():
            assert ExperimentAgentSpec(name).name == name

    def test_unknown_agent_rejected_with_choices(self):
        with pytest.raises(ConfigurationError, match="q-learning"):
            ExperimentAgentSpec("annealing")

    def test_parse_hyperparams(self):
        spec = ExperimentAgentSpec.parse("genetic:population_size=8,generations=5")
        assert spec.hyperparams == {"population_size": 8, "generations": 5}
        assert ExperimentAgentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown agent spec key"):
            ExperimentAgentSpec.from_dict({"name": "sarsa", "options": {}})

    def test_non_serializable_values_rejected_at_construction(self):
        from repro.agents.schedules import LinearDecayEpsilon

        # A schedule object would break to_json()/fingerprint() at use time,
        # so the spec refuses it up front (the runtime AgentSpec still takes
        # arbitrary options for the imperative API).
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            ExperimentAgentSpec(
                "q-learning",
                hyperparams={"epsilon": LinearDecayEpsilon(1.0, 0.05, 10)},
            )
        with pytest.raises(ConfigurationError, match="JSON-serializable"):
            BenchmarkSpec("dotproduct", params={"length": {1, 2}})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), [1.0, float("-inf")]],
                             ids=["nan", "inf", "nested-inf"])
    def test_non_finite_values_rejected_at_construction(self, value):
        # The wire protocol encodes with allow_nan=False, so a spec carrying
        # NaN would run locally but fail remotely; it fails here instead.
        with pytest.raises(ConfigurationError, match="'epsilon' must be JSON") as info:
            ExperimentAgentSpec("q-learning", hyperparams={"epsilon": value})
        assert "\n" not in str(info.value)
        with pytest.raises(ConfigurationError, match="'length' must be JSON"):
            BenchmarkSpec("dotproduct", params={"length": value})


class TestThresholdSpec:
    def test_default_derives_fractions(self):
        kwargs = ThresholdSpec().env_kwargs()
        assert kwargs == {"accuracy_factor": 0.4, "power_fraction": 0.5,
                          "time_fraction": 0.5}

    def test_explicit_thresholds(self):
        spec = ThresholdSpec(accuracy=5.0, power_mw=100.0, time_ns=200.0)
        thresholds = spec.env_kwargs()["thresholds"]
        assert (thresholds.accuracy, thresholds.power_mw, thresholds.time_ns) == \
            (5.0, 100.0, 200.0)

    def test_partial_explicit_rejected(self):
        with pytest.raises(ConfigurationError, match="all three"):
            ThresholdSpec(accuracy=5.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            ThresholdSpec(power_fraction=-0.1)

    def test_round_trip(self):
        spec = ThresholdSpec(accuracy_factor=0.3)
        assert ThresholdSpec.from_dict(spec.to_dict()) == spec


class TestRuntimeSpec:
    def test_executor_follows_jobs(self):
        assert RuntimeSpec(executor="serial", jobs=4).executor == "process"
        assert RuntimeSpec(executor="process", jobs=1).executor == "serial"
        assert RuntimeSpec(jobs=2) == RuntimeSpec(executor="process", jobs=2)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            RuntimeSpec(executor="threads")

    def test_round_trip(self):
        spec = RuntimeSpec(jobs=2, chunk_size=64)
        assert RuntimeSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("key, kept", LEGACY_RUNTIME_KEYS, ids=LEGACY_IDS)
    def test_legacy_key_still_loads(self, key, kept):
        assert RuntimeSpec.from_dict({key: kept}) == RuntimeSpec()

    @pytest.mark.parametrize("key, value", [
        ("compiled", False), ("compiled", 1), ("compiled", None), ("compiled", "true"),
        ("store_outputs", True), ("store_outputs", 1), ("store_outputs", "false"),
    ], ids=["compiled-false", "compiled-one", "compiled-none", "compiled-string",
            "store_outputs-true", "store_outputs-one", "store_outputs-string"])
    def test_legacy_key_refuses_other_values(self, key, value):
        with pytest.raises(ConfigurationError, match="no longer an option") as info:
            RuntimeSpec.from_dict({key: value})
        assert "\n" not in str(info.value)
        assert str(info.value).startswith(f"runtime {key} is no longer an option")

    @pytest.mark.parametrize("key, kept", LEGACY_RUNTIME_KEYS, ids=LEGACY_IDS)
    def test_legacy_key_is_not_written_back(self, key, kept):
        spec = RuntimeSpec.from_dict({key: kept, "chunk_size": 64})
        assert spec == RuntimeSpec(chunk_size=64)
        assert key not in spec.to_dict()

    @pytest.mark.parametrize("key, kept", LEGACY_RUNTIME_KEYS, ids=LEGACY_IDS)
    def test_legacy_key_leaves_the_payload_untouched(self, key, kept):
        payload = {key: kept, "jobs": 1}
        RuntimeSpec.from_dict(payload)
        assert payload == {key: kept, "jobs": 1}

    @pytest.mark.parametrize("key, kept", LEGACY_RUNTIME_KEYS, ids=LEGACY_IDS)
    def test_legacy_key_does_not_hide_unknown_keys(self, key, kept):
        with pytest.raises(ConfigurationError, match="colour"):
            RuntimeSpec.from_dict({key: kept, "colour": "blue"})

    @pytest.mark.parametrize("key, kept", LEGACY_RUNTIME_KEYS, ids=LEGACY_IDS)
    def test_legacy_spec_keeps_its_fingerprint(self, key, kept):
        payload = {"kind": "sweep", "benchmarks": ["dotproduct:length=4"],
                   "seeds": [0], "runtime": {"chunk_size": 64}}
        legacy = ExperimentSpec.from_dict(
            {**payload, "runtime": {"chunk_size": 64, key: kept}}
        )
        current = ExperimentSpec.from_dict(payload)
        assert legacy.runtime == current.runtime
        assert legacy.fingerprint() == current.fingerprint()

    @pytest.mark.parametrize("key, refused", [("compiled", "false"), ("store_outputs", "true")],
                             ids=LEGACY_IDS)
    def test_cli_refuses_legacy_override(self, capsys, key, refused):
        from repro.cli import main

        example = Path(__file__).resolve().parent.parent / "examples" / "experiment_sweep.json"
        assert main(["run", str(example), "--set", f"runtime.{key}={refused}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: runtime {key} is no longer an option")
        assert err.count("\n") == 1


class TestExperimentSpec:
    @pytest.mark.parametrize("payload", [
        {"kind": "explore", "benchmarks": ["matmul_10x10"],
         "agents": ["q-learning"], "seeds": [3], "max_steps": 50},
        {"kind": "compare", "benchmarks": ["dotproduct:length=16"],
         "agents": ["q-learning", "simulated-annealing", "genetic"],
         "seeds": [0], "max_steps": 40},
        {"kind": "campaign", "benchmarks": ["matmul", "fir_100"],
         "agents": ["q-learning", "hill-climbing"], "seeds": [0, 1, 2],
         "max_steps": 100,
         "runtime": {"executor": "process", "jobs": 2, "store_path": None,
                     "chunk_size": 256}},
        {"kind": "sweep", "benchmarks": ["dotproduct"], "seeds": [0, 7],
         "runtime": {"executor": "serial", "jobs": 1, "store_path": "s.sqlite",
                     "chunk_size": 64}},
    ])
    def test_round_trip_every_kind(self, payload):
        spec = ExperimentSpec.from_dict(payload)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ExperimentSpec.from_dict({"kind": "scan", "benchmarks": ["matmul"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment spec key"):
            ExperimentSpec.from_dict({"kind": "campaign",
                                      "benchmarks": ["matmul"],
                                      "agents": ["q-learning"],
                                      "workers": 4})

    def test_unknown_agent_rejected(self):
        with pytest.raises(ConfigurationError, match="registered agents"):
            _tiny_campaign_spec(agents=["gradient-descent"])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(UnknownBenchmarkError):
            _tiny_campaign_spec(benchmarks=["nothing"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate benchmark label"):
            _tiny_campaign_spec(benchmarks=["matmul", "matmul"])

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate seeds"):
            _tiny_campaign_spec(seeds=[0, 0])

    def test_sweep_takes_no_agents(self):
        with pytest.raises(ConfigurationError, match="no agents"):
            ExperimentSpec.from_dict({"kind": "sweep", "benchmarks": ["dotproduct"],
                                      "agents": ["q-learning"]})

    def test_explore_is_single(self):
        with pytest.raises(ConfigurationError, match="single exploration"):
            ExperimentSpec.from_dict({"kind": "explore", "benchmarks": ["matmul"],
                                      "agents": ["q-learning"], "seeds": [0, 1]})

    def test_compare_needs_two_agents(self):
        with pytest.raises(ConfigurationError, match="at least two"):
            ExperimentSpec.from_dict({"kind": "compare", "benchmarks": ["matmul"],
                                      "agents": ["q-learning"]})

    def test_agent_variants_by_label(self):
        spec = _tiny_campaign_spec(
            agents=[{"name": "genetic", "label": "genetic-small",
                     "hyperparams": {"population_size": 4, "generations": 2}},
                    {"name": "genetic", "label": "genetic-large",
                     "hyperparams": {"population_size": 8, "generations": 2}}],
            seeds=[0],
        )
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        report = run_experiment(spec)
        assert report.ok
        assert set(report.summarize()) == {"genetic-small", "genetic-large"}
        small, large = report.entries
        assert small.result.num_steps < large.result.num_steps

    def test_duplicate_agent_labels_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate agent label"):
            _tiny_campaign_spec(agents=["genetic", {"name": "genetic",
                                                    "hyperparams": {"seed": 1}}])

    def test_invalid_benchmark_parameters_are_configuration_errors(self):
        spec = ExperimentSpec.from_dict({
            "kind": "explore", "benchmarks": ["matmul:rows=0"],
            "agents": ["q-learning"], "seeds": [0], "max_steps": 5,
        })
        with pytest.raises(ConfigurationError, match="rejected its configuration"):
            run_experiment(spec)

    def test_boolean_integers_rejected(self):
        with pytest.raises(ConfigurationError, match="max_steps"):
            _tiny_campaign_spec(max_steps=True)
        with pytest.raises(ConfigurationError, match="jobs"):
            RuntimeSpec(executor="process", jobs=True)
        with pytest.raises(ConfigurationError, match="chunk_size"):
            RuntimeSpec(chunk_size=True)

    def test_fingerprint_ignores_runtime_and_description(self):
        spec = _tiny_campaign_spec()
        moved = spec.with_runtime(RuntimeSpec(executor="process", jobs=8))
        assert moved.fingerprint() == spec.fingerprint()
        described = ExperimentSpec.from_dict(
            {**spec.to_dict(), "description": "same science, new words"}
        )
        assert described.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_results_determining_fields(self):
        spec = _tiny_campaign_spec()
        assert _tiny_campaign_spec(max_steps=21).fingerprint() != spec.fingerprint()
        assert _tiny_campaign_spec(seeds=[0, 2]).fingerprint() != spec.fingerprint()
        assert (_tiny_campaign_spec(benchmarks=["dotproduct:length=13"]).fingerprint()
                != spec.fingerprint())

    def test_fingerprint_stable_across_processes(self):
        spec = _tiny_campaign_spec()
        program = (
            "import json, sys\n"
            "from repro.experiments import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.fingerprint())\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", program, json.dumps(spec.to_dict())],
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.strip() == spec.fingerprint()


# ------------------------------------------------------------- field tables

#: Per numeric table row, a value just below its bound.  Written out here,
#: not derived from the rows, so the test checks the rules themselves.
BELOW_BOUND = {
    "accuracy_factor": -0.1, "power_fraction": -0.1, "time_fraction": -0.1,
    "accuracy": -0.1, "power_mw": -0.1, "time_ns": -0.1,
    "jobs": 0, "chunk_size": 0, "batch_size": -1, "retries": 0,
    "job_timeout_s": 0.0, "checkpoint_interval": -1,
}
NAN, INF = float("nan"), float("inf")


def _table(cls):
    return [(item, item.metadata) for item in dataclasses.fields(cls)]


def _valid_values(item, row):
    """A strategy of the values one table row accepts on its own."""
    if isinstance(item.default, bool):
        values = st.booleans()
    elif row["number"]:
        values = st.one_of(st.integers(0, 1000),
                           st.floats(0.0, 1e6, allow_nan=False)).filter(row["check"])
    elif item.name == "executor":
        values = st.sampled_from(EXECUTOR_KINDS)
    elif isinstance(item.default, int):
        values = st.integers(0, 64).filter(row["check"])
    else:
        values = st.text(min_size=1, max_size=12)
    return st.one_of(st.none(), values) if row["nullable"] else values


@st.composite
def _documents(draw, cls):
    """A valid document for a table spec, drawn row by row."""
    document = {item.name: draw(_valid_values(item, row)) for item, row in _table(cls)}
    explicit = ("accuracy", "power_mw", "time_ns")
    if cls is ThresholdSpec and None in [document[name] for name in explicit]:
        document.update(dict.fromkeys(explicit))  # all three, or none
    if cls is RuntimeSpec and (document["resume"] or document["checkpoint_interval"]):
        document["store_path"] = document["store_path"] or "evals.sqlite"
    return document


def _invalid_values(item, row):
    """Wrong type, bool for a number, non-finite, below the bound, empty."""
    if isinstance(item.default, bool):
        return ["yes", 1, ""]
    if row["number"]:
        return ["1", True, NAN, INF, -INF, BELOW_BOUND[item.name], ""]
    if isinstance(item.default, int):
        return ["1", True, 2.5, NAN, INF, BELOW_BOUND[item.name], ""]
    return [7, True, ""]


def _mutations():
    """(section, field, invalid values) for every row plus three top-level fields."""
    cases = [(section, item.name, _invalid_values(item, row))
             for section, cls in (("thresholds", ThresholdSpec), ("runtime", RuntimeSpec))
             for item, row in _table(cls)]
    cases += [
        (None, "max_steps", ["1", True, 2.5, NAN, INF, 0, ""]),
        (None, "seeds", ["1", [True], [2.5], [NAN], [INF], [-1], ""]),
        (None, "kind", [7, True, ""]),
    ]
    return cases


class TestFieldTables:
    def test_below_bound_covers_every_numeric_row(self):
        numeric = {item.name for cls in (ThresholdSpec, RuntimeSpec)
                   for item, row in _table(cls)
                   if row["number"] or type(item.default) is int}
        assert numeric == set(BELOW_BOUND)

    @settings(max_examples=60, deadline=None)
    @given(runtime=_documents(RuntimeSpec), thresholds=_documents(ThresholdSpec))
    def test_valid_documents_round_trip(self, runtime, thresholds):
        spec = ExperimentSpec.from_dict({**_tiny_campaign_spec().to_dict(),
                                         "runtime": runtime, "thresholds": thresholds})
        for part in (spec.runtime, spec.thresholds):
            assert type(part).from_dict(json.loads(json.dumps(part.to_dict()))) == part
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()
        assert spec.with_runtime(RuntimeSpec()).fingerprint() == spec.fingerprint()

    @pytest.mark.parametrize("section, name, values", _mutations(),
                             ids=[f"{section or 'spec'}.{name}"
                                  for section, name, _ in _mutations()])
    def test_every_single_field_mutation_fails_in_one_line(self, section, name, values):
        base = _tiny_campaign_spec().to_dict()
        for value in values:
            document = json.loads(json.dumps(base))
            target = document if section is None else document[section]
            target[name] = value
            with pytest.raises(ConfigurationError) as info:
                ExperimentSpec.from_dict(document)
            message = str(info.value)
            bad = value[0] if isinstance(value, list) else value
            assert "\n" not in message
            assert name in message and repr(bad) in message, (value, message)


class TestOverrides:
    def test_scalar_list_and_nested_paths(self):
        payload = _tiny_campaign_spec().to_dict()
        updated = apply_overrides(payload, [
            "max_steps=25",
            "seeds=[5]",
            "runtime.executor=process",
            "runtime.jobs=2",
            "benchmarks.0.params.length=16",
        ])
        spec = ExperimentSpec.from_dict(updated)
        assert spec.max_steps == 25
        assert spec.seeds == (5,)
        assert spec.runtime.jobs == 2
        assert spec.benchmarks[0].params["length"] == 16
        # The input payload is untouched.
        assert payload["max_steps"] == 20

    def test_overrides_reach_omitted_optional_sections(self):
        # A minimal document relying on the defaults can still be steered
        # onto another runtime — the canonical `--set runtime.jobs=4` case.
        payload = {"kind": "explore", "benchmarks": ["dotproduct:length=12"],
                   "agents": ["q-learning"], "seeds": [0], "max_steps": 5}
        updated = apply_overrides(payload, ["runtime.executor=process",
                                            "runtime.jobs=2",
                                            "thresholds.accuracy_factor=0.3"])
        spec = ExperimentSpec.from_dict(updated)
        assert (spec.runtime.executor, spec.runtime.jobs) == ("process", 2)
        assert spec.thresholds.accuracy_factor == 0.3

    def test_overrides_reach_string_shorthand_benchmarks(self):
        payload = {"kind": "explore", "benchmarks": ["matmul_10x10"],
                   "agents": ["q-learning"], "seeds": [0], "max_steps": 5}
        updated = apply_overrides(payload, ["benchmarks.0.params.rows=20"])
        spec = ExperimentSpec.from_dict(updated)
        assert spec.benchmarks[0].params["rows"] == 20
        # Paper labels are explicitly chosen, so they survive the override.
        assert spec.benchmarks[0].label == "matmul_10x10"

    def test_overrides_recompute_parameter_derived_labels(self):
        # A label that merely restates the parameters must not keep
        # describing the pre-override configuration.
        for benchmarks in (["dotproduct:length=16"],
                           [{"name": "dotproduct", "params": {"length": 16},
                             "label": "dotproduct:length=16"}]):
            payload = {"kind": "explore", "benchmarks": benchmarks,
                       "agents": ["q-learning"], "seeds": [0], "max_steps": 5}
            updated = apply_overrides(payload, ["benchmarks.0.params.length=64"])
            spec = ExperimentSpec.from_dict(updated)
            assert spec.benchmarks[0].params["length"] == 64
            assert spec.benchmarks[0].label == "dotproduct:length=64"
        # A custom label is the user's grouping key and is preserved.
        payload = {"kind": "explore",
                   "benchmarks": [{"name": "dotproduct",
                                   "params": {"length": 16}, "label": "tiny"}],
                   "agents": ["q-learning"], "seeds": [0], "max_steps": 5}
        updated = apply_overrides(payload, ["benchmarks.0.params.length=64"])
        assert ExperimentSpec.from_dict(updated).benchmarks[0].label == "tiny"

    def test_overrides_recompute_name_derived_agent_labels(self):
        payload = {"kind": "explore", "benchmarks": ["dotproduct:length=12"],
                   "agents": ["q-learning"], "seeds": [0], "max_steps": 5}
        updated = apply_overrides(payload, ["agents.0.name=hill-climbing"])
        spec = ExperimentSpec.from_dict(updated)
        assert spec.agents[0].name == "hill-climbing"
        assert spec.agents[0].label == "hill-climbing"

    def test_missing_intermediate_path_rejected(self):
        with pytest.raises(ConfigurationError, match="not found"):
            apply_overrides(_tiny_campaign_spec().to_dict(), ["runtim.jobs=2"])

    def test_list_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            apply_overrides(_tiny_campaign_spec().to_dict(),
                            ["benchmarks.3.params.length=16"])

    def test_malformed_assignment_rejected(self):
        with pytest.raises(ConfigurationError, match="path=value"):
            apply_overrides(_tiny_campaign_spec().to_dict(), ["max_steps"])

    def test_new_keys_survive_to_strict_validation(self):
        updated = apply_overrides(_tiny_campaign_spec().to_dict(), ["workers=4"])
        with pytest.raises(ConfigurationError, match="unknown experiment spec key"):
            ExperimentSpec.from_dict(updated)


class TestAgentRegistry:
    def test_registry_names_every_family(self):
        assert set(rl_agent_names()) == {"q-learning", "sarsa", "random"}
        assert set(baseline_agent_names()) == {
            "hill-climbing", "simulated-annealing", "genetic", "exhaustive"
        }
        assert agent_names() == rl_agent_names() + baseline_agent_names()

    def test_agent_names_delegation(self):
        from repro.runtime import AGENT_NAMES
        from repro.runtime import jobs

        assert AGENT_NAMES == agent_names()
        assert jobs.AGENT_NAMES == agent_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_agent("q-learning", "rl", lambda *a: None)

    def test_agent_spec_accepts_baselines(self):
        for name in baseline_agent_names():
            assert AgentSpec(name).is_baseline()
        assert not AgentSpec("q-learning").is_baseline()

    def test_build_refuses_wrong_family(self):
        environment = AxcDseEnv(DotProductBenchmark(length=12))
        with pytest.raises(ConfigurationError, match="baseline"):
            AgentSpec("hill-climbing").build(environment, seed=0, max_steps=10)
        with pytest.raises(ConfigurationError, match="not a baseline"):
            AgentSpec("q-learning").build_baseline(
                environment.evaluator, environment.thresholds, 0, 10
            )

    def test_baseline_job_matches_direct_explorer(self):
        from repro.agents import SimulatedAnnealingExplorer

        benchmark = DotProductBenchmark(length=12)
        job = ExplorationJob(benchmark_label="dot", benchmark=benchmark, seed=3,
                             agent=AgentSpec("simulated-annealing"), max_steps=40)
        via_job = execute_job(job)

        environment = AxcDseEnv(benchmark, evaluation_seed=3)
        direct = SimulatedAnnealingExplorer(
            environment.evaluator, environment.thresholds,
            max_evaluations=40, seed=3,
        ).run()
        assert via_job.agent_name == "simulated-annealing"
        assert via_job.num_steps == direct.num_steps
        assert [record.deltas for record in via_job.records] == \
            [record.deltas for record in direct.records]

    def test_baseline_hyperparams_forwarded(self):
        from repro.agents import GeneticExplorer

        benchmark = DotProductBenchmark(length=12)
        hyperparams = {"population_size": 4, "generations": 2}
        job = ExplorationJob(
            benchmark_label="dot", benchmark=benchmark, seed=0,
            agent=AgentSpec("genetic", options=hyperparams), max_steps=10,
        )
        via_job = execute_job(job)

        environment = AxcDseEnv(benchmark, evaluation_seed=0)
        direct = GeneticExplorer(environment.evaluator, environment.thresholds,
                                 seed=0, **hyperparams).run()
        default = GeneticExplorer(environment.evaluator, environment.thresholds,
                                  seed=0).run()
        assert [record.deltas for record in via_job.records] == \
            [record.deltas for record in direct.records]
        # The overrides actually changed the search (16 x 20 by default).
        assert via_job.num_steps < default.num_steps


class TestRunExperiment:
    def test_serial_and_process_reports_match(self):
        spec = _tiny_campaign_spec()
        serial = run_experiment(spec)
        process = run_experiment(spec, executor=ProcessExecutor(n_jobs=2))
        assert serial.ok and process.ok
        assert [entry.payload() for entry in serial.entries] == \
            [entry.payload() for entry in process.entries]

    def test_explore_spec_matches_execute_job(self):
        spec = ExperimentSpec.from_dict({
            "kind": "explore", "benchmarks": ["dotproduct:length=12"],
            "agents": ["q-learning"], "seeds": [0], "max_steps": 25,
        })
        report = run_experiment(spec)
        direct = execute_job(ExplorationJob(
            benchmark_label="dotproduct:length=12",
            benchmark=DotProductBenchmark(length=12), seed=0,
            agent=AgentSpec("q-learning"), max_steps=25,
            env_kwargs={"accuracy_factor": 0.4, "power_fraction": 0.5,
                        "time_fraction": 0.5},
        ))
        result = report.entries[0].result
        assert result.num_steps == direct.num_steps
        assert [record.deltas for record in result.records] == \
            [record.deltas for record in direct.records]

    def test_sweep_spec_matches_exhaustive_evaluation(self):
        from repro.dse import Evaluator, ParetoArchive

        spec = ExperimentSpec.from_dict({
            "kind": "sweep", "benchmarks": ["dotproduct:length=12"], "seeds": [0],
            "runtime": {"executor": "serial", "jobs": 1, "store_path": None,
                        "chunk_size": 96},
        })
        report = run_experiment(spec)
        evaluator = Evaluator(DotProductBenchmark(length=12), seed=0)
        size = evaluator.design_space.size
        front = ParetoArchive(evaluator.evaluate_index_range(0, size)).front()
        entry = report.entries[0]
        assert entry.agent is None
        assert entry.metrics["space_size"] == size
        assert entry.metrics["evaluations"] == size
        assert [(r.point.key(), r.deltas) for r in entry.sweep_result.front] == \
            [(r.point.key(), r.deltas) for r in front]

    def test_report_serializes_with_provenance(self):
        spec = _tiny_campaign_spec(seeds=[0])
        report = run_experiment(spec)
        payload = json.loads(report.to_json())
        assert payload["ok"] is True
        assert payload["provenance"]["fingerprint"] == spec.fingerprint()
        assert payload["spec"] == spec.to_dict()
        assert len(payload["entries"]) == 2
        assert set(payload["summaries"]) == {"q-learning", "hill-climbing"}
        for entry in payload["entries"]:
            assert {"benchmark_label", "seed", "agent", "ok",
                    "metrics", "duration_s"} <= set(entry)

    def test_failures_are_captured_per_entry(self):
        spec = _tiny_campaign_spec(
            agents=[{"name": "q-learning", "hyperparams": {}},
                    {"name": "genetic", "hyperparams": {"population_size": 1}}],
            seeds=[0],
        )
        report = run_experiment(spec)
        assert not report.ok
        assert len(report.failures) == 1
        assert report.failures[0].agent == "genetic"
        assert "population_size" in report.failures[0].error
        # The healthy entry still ran and serialization still works.
        assert report.entries[0].ok
        json.loads(report.to_json())

    def test_store_path_round_trip(self, tmp_path):
        store_path = str(tmp_path / "cache.sqlite")
        spec = _tiny_campaign_spec(
            seeds=[0],
            runtime={"executor": "serial", "jobs": 1, "store_path": store_path,
                     "chunk_size": 256},
        )
        cold = run_experiment(spec)
        warm = run_experiment(spec)
        assert warm.store["hits"] > 0
        assert warm.store["path"] == store_path
        assert [entry.payload() for entry in cold.entries] == \
            [entry.payload() for entry in warm.entries]

    def test_campaign_spec_matches_direct_runtime_jobs(self):
        from repro.runtime import SerialExecutor, expand_jobs, flatten_outcomes

        spec = _tiny_campaign_spec()
        outcomes = flatten_outcomes(SerialExecutor().run(expand_jobs(
            {bspec.label: bspec.build() for bspec in spec.benchmarks},
            [aspec.to_agent_spec() for aspec in spec.agents],
            seeds=spec.seeds, max_steps=spec.max_steps,
            env_kwargs=spec.thresholds.env_kwargs(),
            batch_size=spec.runtime.effective_batch_size(len(spec.seeds)),
        )))
        report = run_experiment(spec)
        assert [(o.job.benchmark_label, o.job.agent.label, o.job.seed)
                for o in outcomes] == \
            [(e.benchmark_label, e.agent, e.seed) for e in report.entries]
        assert [o.result.solution.deltas for o in outcomes] == \
            [e.result.solution.deltas for e in report.entries]
