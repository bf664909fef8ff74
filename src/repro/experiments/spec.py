"""Serializable experiment specifications.

An :class:`ExperimentSpec` is the declarative description of one experiment
of the paper's methodology: which benchmarks (by registry name plus
constructor parameters), which agents (by registry name plus hyperparams),
which seeds, what step budget, which thresholds and which runtime to expand
it on.  The spec is

* **frozen** — safe to share, hash by content, and pass across processes;
* **lossless** — ``ExperimentSpec.from_dict(spec.to_dict()) == spec`` for
  every kind, so a JSON file fully reconstructs the experiment;
* **validated** — unknown kinds, agents, benchmarks or keys, and values
  outside a field's rule (NaN and infinities included), raise precise
  one-line :class:`~repro.errors.ConfigurationError` /
  :class:`~repro.errors.UnknownBenchmarkError` messages at construction
  time, not halfway through a sweep;
* **fingerprinted** — :meth:`ExperimentSpec.fingerprint` hashes exactly the
  result-determining fields (kind, benchmarks, agents, seeds, budget,
  thresholds), so two specs with the same fingerprint produce bit-identical
  results no matter which executor or store they run on.

:class:`ThresholdSpec` and :class:`RuntimeSpec` declare each field once, as a
row of a field table (:func:`_row`) that generates their validation,
``to_dict``/``from_dict`` and the CLI's runtime flags.

String shorthands are accepted wherever a sub-spec appears: benchmarks
parse ``"matmul"``, ``"matmul:rows=50,inner=50,cols=50"`` and the paper's
labels (``"matmul_50x50"``); agents parse ``"q-learning"`` and
``"genetic:population_size=8,generations=10"``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
                    Type, TypeVar)

from repro.errors import ConfigurationError, UnknownBenchmarkError

__all__ = [
    "EXPERIMENT_KINDS",
    "BenchmarkSpec",
    "ExperimentAgentSpec",
    "ThresholdSpec",
    "RuntimeSpec",
    "ExperimentSpec",
    "apply_overrides",
]

#: The experiment shapes the runner knows how to expand.
EXPERIMENT_KINDS = ("explore", "compare", "campaign", "sweep")

#: Executor kinds a :class:`RuntimeSpec` can name.
EXECUTOR_KINDS = ("serial", "process")


# ------------------------------------------------------------ value parsing


def _parse_scalar(text: str) -> object:
    """Parse one ``key=value`` value: JSON when it is JSON, a string otherwise."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def _parse_kv(text: str, context: str) -> Dict[str, object]:
    """Parse ``"key=value,key=value"`` into a typed parameter dict."""
    params: Dict[str, object] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"malformed {context} parameter {item!r}; expected key=value"
            )
        params[key] = _parse_scalar(value.strip())
    return params


def _check_keys(payload: Mapping[str, object], cls: type, context: str) -> None:
    allowed = [item.name for item in fields(cls)]
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {context} key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )


def _require_mapping(payload: object, context: str) -> Mapping[str, object]:
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"{context} must be a mapping, got {type(payload).__name__}"
        )
    return payload


def _require_params(payload: object, field_name: str, context: str) -> Dict[str, object]:
    """A copy of a parameter mapping, its names and values checked.

    Specs promise a lossless round trip and a stable fingerprint; both break
    at *use* time for values like schedule objects, so they are rejected at
    construction time instead (use the runtime :class:`AgentSpec` directly
    for non-serializable agent options).  So are NaN and infinities, which
    the wire protocol cannot carry.
    """
    params = dict(_require_mapping(payload, field_name))
    for key, value in params.items():
        if not isinstance(key, str) or not key:
            raise ConfigurationError(
                f"{context} names must be non-empty strings, got {key!r}"
            )
        try:
            json.dumps(value, allow_nan=False)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{context} {key!r} must be JSON-serializable (finite "
                f"number/string/bool/null/list/dict), got {type(value).__name__}"
            ) from None
    return params


def _named_spec_from_dict(cls: Any, payload: object, context: str) -> Any:
    """A benchmark or agent from its string shorthand or its mapping."""
    if isinstance(payload, str):
        return cls.parse(payload)
    payload = _require_mapping(payload, context)
    _check_keys(payload, cls, context)
    if "name" not in payload:
        raise ConfigurationError(f"{context} requires a 'name'")
    return cls(**payload)


# ---------------------------------------------------------------- field table


def _row(default: object, check: Callable[[Any], bool], rule: str, *,
         number: bool = False, nullable: bool = False, flag: Optional[str] = None,
         help: Optional[str] = None, metavar: Optional[str] = None) -> Any:
    """Declare one field as a row of its class's table (the field's metadata).

    ``check`` is the value rule and ``rule`` the phrase naming it in errors;
    a ``number`` must be a finite real before ``check`` runs, and is stored
    as a ``float``; ``nullable`` admits ``None``; ``flag`` (with ``help`` and
    ``metavar``) makes the field an option of the executing subcommands.
    """
    return field(default=default, metadata=dict(
        check=check, rule=rule, number=number, nullable=nullable, flag=flag,
        help=help, metavar=metavar))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value: object) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


_NON_NEGATIVE = "a finite non-negative number"

_T = TypeVar("_T", bound="_FieldTable")


class _FieldTable:
    """Validation and documents generated from a dataclass's field table.

    Every field is declared with :func:`_row`; ``_CONTEXT`` prefixes error
    messages and document names, and ``_RETIRED`` maps each key of a removed
    option to the one value old documents may still carry (others fail).
    """

    _CONTEXT = ""
    _RETIRED: Mapping[str, Tuple[object, str]] = {}

    def _check_rows(self) -> None:
        """Check every row, storing number rows as floats; call in ``__post_init__``."""
        for item in fields(self):
            row, value = item.metadata, getattr(self, item.name)
            if value is None and row["nullable"]:
                continue
            if not ((not row["number"] or _is_finite(value)) and row["check"](value)):
                null = " or null" if row["nullable"] else ""
                raise ConfigurationError(
                    f"{self._CONTEXT} {item.name} must be {row['rule']}{null}, "
                    f"got {value!r}"
                )
            if row["number"]:
                object.__setattr__(self, item.name, float(value))

    def to_dict(self) -> Dict[str, object]:
        return {item.name: getattr(self, item.name) for item in fields(self)}

    @classmethod
    def from_dict(cls: Type[_T], payload: object) -> _T:
        context = f"{cls._CONTEXT} spec"
        payload = dict(_require_mapping(payload, context))
        for key, (kept, behaviour) in cls._RETIRED.items():
            if key in payload:
                legacy = payload.pop(key)
                if legacy is not kept:
                    raise ConfigurationError(
                        f"{cls._CONTEXT} {key} is no longer an option "
                        f"({behaviour}); remove the key, got {legacy!r}"
                    )
        _check_keys(payload, cls, context)
        return cls(**payload)


# ------------------------------------------------------------ benchmark spec


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark by registry name plus constructor parameters.

    ``label`` is the campaign-level identity of the configuration (the key
    results are grouped under); it defaults to the name, extended with the
    parameters when any are given, and is normalized at construction so the
    dict round-trip is lossless.
    """

    name: str
    params: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        params = _require_params(self.params, "benchmark params", "benchmark parameter")
        object.__setattr__(self, "params", params)
        from repro.benchmarks.registry import available

        if self.name not in available():
            raise UnknownBenchmarkError(self.name)
        if self.label is None:
            object.__setattr__(self, "label", self.default_label(self.name, params))
        elif not isinstance(self.label, str) or not self.label:
            raise ConfigurationError(
                f"benchmark label must be a non-empty string, got {self.label!r}"
            )

    @staticmethod
    def default_label(name: str, params: Mapping[str, object]) -> str:
        if not params:
            return name
        rendered = ",".join(f"{key}={value}" for key, value in params.items())
        return f"{name}:{rendered}"

    @classmethod
    def parse(cls, text: str) -> "BenchmarkSpec":
        """Parse ``"name"``, ``"name:key=value,..."`` or a paper label."""
        if not isinstance(text, str) or not text:
            raise ConfigurationError(
                f"benchmark must be a non-empty string, got {text!r}"
            )
        from repro.benchmarks.registry import PAPER_BENCHMARK_PARAMS

        if text in PAPER_BENCHMARK_PARAMS:
            name, params = PAPER_BENCHMARK_PARAMS[text]
            return cls(name=name, params=dict(params), label=text)
        name, sep, param_text = text.partition(":")
        if not sep:
            return cls(name=name)
        return cls(name=name, params=_parse_kv(param_text, f"benchmark {name!r}"))

    def build(self):
        """Instantiate the benchmark through the registry.

        Unknown parameter names and out-of-range values both surface as
        :class:`ConfigurationError`: a spec that cannot build is a
        configuration mistake, not an execution failure.
        """
        from repro.benchmarks.registry import create
        from repro.errors import BenchmarkError

        try:
            return create(self.name, **self.params)
        except TypeError as exc:
            raise ConfigurationError(
                f"benchmark {self.name!r} rejected parameters "
                f"{sorted(self.params)}: {exc}"
            ) from exc
        except BenchmarkError as exc:
            raise ConfigurationError(
                f"benchmark {self.name!r} rejected its configuration: {exc}"
            ) from exc

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: object) -> "BenchmarkSpec":
        return _named_spec_from_dict(cls, payload, "benchmark spec")


# ----------------------------------------------------------------- agent spec


@dataclass(frozen=True)
class ExperimentAgentSpec:
    """An agent family by registry name plus hyperparameter overrides.

    ``label`` is the reporting identity and defaults to the name; giving
    variants of one family distinct labels (e.g. ``genetic-small`` /
    ``genetic-large``) lets a single experiment compare hyperparameter
    settings and keeps their results grouped apart.
    """

    name: str
    hyperparams: Mapping[str, object] = field(default_factory=dict)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hyperparams",
                           _require_params(self.hyperparams, "agent hyperparams",
                                           "agent hyperparameter"))
        from repro.experiments.registry import agent_family

        agent_family(self.name)  # raises ConfigurationError for unknown names
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        elif not isinstance(self.label, str) or not self.label:
            raise ConfigurationError(
                f"agent label must be a non-empty string, got {self.label!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "ExperimentAgentSpec":
        """Parse ``"name"`` or ``"name:key=value,..."``."""
        if not isinstance(text, str) or not text:
            raise ConfigurationError(f"agent must be a non-empty string, got {text!r}")
        name, sep, param_text = text.partition(":")
        if not sep:
            return cls(name=name)
        return cls(name=name, hyperparams=_parse_kv(param_text, f"agent {name!r}"))

    def to_agent_spec(self):
        """The runtime-layer :class:`~repro.runtime.jobs.AgentSpec` equivalent."""
        from repro.runtime.jobs import AgentSpec

        return AgentSpec(self.name, options=self.hyperparams, label=self.label)

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: object) -> "ExperimentAgentSpec":
        return _named_spec_from_dict(cls, payload, "agent spec")


# ------------------------------------------------------------- threshold spec


@dataclass(frozen=True)
class ThresholdSpec(_FieldTable):
    """Constraint levels: derivation fractions, or explicit values.

    By default thresholds are derived from the precise run exactly as the
    paper does (``accth = 0.4 x mean |output|``, ``pth``/``tth`` = 50 % of
    the precise power/time).  Setting all three of ``accuracy``,
    ``power_mw`` and ``time_ns`` pins them explicitly instead.
    """

    _CONTEXT = "threshold"

    accuracy_factor: float = _row(0.4, lambda v: v >= 0, _NON_NEGATIVE, number=True)
    power_fraction: float = _row(0.5, lambda v: v >= 0, _NON_NEGATIVE, number=True)
    time_fraction: float = _row(0.5, lambda v: v >= 0, _NON_NEGATIVE, number=True)
    accuracy: Optional[float] = _row(None, lambda v: v >= 0, _NON_NEGATIVE,
                                     number=True, nullable=True)
    power_mw: Optional[float] = _row(None, lambda v: v >= 0, _NON_NEGATIVE,
                                     number=True, nullable=True)
    time_ns: Optional[float] = _row(None, lambda v: v >= 0, _NON_NEGATIVE,
                                    number=True, nullable=True)

    def __post_init__(self) -> None:
        self._check_rows()
        explicit = [self.accuracy, self.power_mw, self.time_ns]
        given = [value for value in explicit if value is not None]
        if given and len(given) != 3:
            raise ConfigurationError(
                "explicit thresholds require all three of accuracy, power_mw "
                f"and time_ns; got accuracy={self.accuracy!r}, "
                f"power_mw={self.power_mw!r}, time_ns={self.time_ns!r}"
            )

    @property
    def explicit(self) -> bool:
        return self.accuracy is not None

    def is_default(self) -> bool:
        return self == ThresholdSpec()

    def env_kwargs(self) -> Dict[str, object]:
        """Environment keyword arguments realizing this threshold policy."""
        if self.explicit:
            from repro.dse.thresholds import ExplorationThresholds

            return {
                "thresholds": ExplorationThresholds(
                    accuracy=self.accuracy, power_mw=self.power_mw,
                    time_ns=self.time_ns,
                )
            }
        return {
            "accuracy_factor": self.accuracy_factor,
            "power_fraction": self.power_fraction,
            "time_fraction": self.time_fraction,
        }


# --------------------------------------------------------------- runtime spec


@dataclass(frozen=True)
class RuntimeSpec(_FieldTable):
    """How an experiment executes: parallelism, store, chunking, resilience.

    The runtime never changes results — only wall-clock — which is why it is
    excluded from :meth:`ExperimentSpec.fingerprint`.
    """

    _CONTEXT = "runtime"
    _RETIRED = {
        "compiled": (True, "evaluation always uses the compiled kernels"),
        "store_outputs": (False, "records hold measurements, never raw outputs"),
    }

    #: Follows ``jobs``: ``"serial"`` exactly when ``jobs == 1``.  Kept so
    #: documents that name it still load.
    executor: str = _row("serial", lambda v: v in EXECUTOR_KINDS, f"one of {EXECUTOR_KINDS}")
    jobs: int = _row(
        1, lambda v: _is_int(v) and v >= 1, "a positive integer", flag="--jobs",
        metavar="N", help="worker processes (1 = serial execution; results are identical)")
    store_path: Optional[str] = _row(
        None, lambda v: isinstance(v, str) and v != "", "a non-empty string",
        nullable=True, flag="--store", metavar="PATH",
        help="sqlite file persisting the evaluation store across runs (default: in "
             "memory); 'run --store' must name an existing file, create one with "
             "--set runtime.store_path=PATH")
    chunk_size: int = _row(
        256, lambda v: _is_int(v) and v >= 1, "a positive integer", flag="--chunk-size",
        metavar="N", help="design points per sweep chunk job")
    batch_size: int = _row(
        0, lambda v: _is_int(v) and v >= 0, "a non-negative integer (0 = auto)",
        flag="--batch-size", metavar="N",
        help="seeds stepped in lockstep per batched exploration job (0 = auto: "
             "spread seeds over the workers; 1 = per-seed jobs, the finest "
             "checkpoint granularity; results are identical)")
    retries: int = _row(
        1, lambda v: _is_int(v) and v >= 1,
        "a positive integer (total attempts; 1 = no retry)", flag="--retries",
        metavar="N", help="total attempts a failing job may consume; only retryable "
                          "failures (lost workers, timeouts, transient store errors) "
                          "spend extra attempts (default: 1 = no retry)")
    job_timeout_s: Optional[float] = _row(
        None, lambda v: v > 0, "a finite positive number", number=True, nullable=True,
        flag="--job-timeout", metavar="SECONDS",
        help="per-attempt wall-clock budget; a wedged worker is abandoned and its "
             "pool rebuilt (default: unbounded)")
    checkpoint_interval: int = _row(
        0, lambda v: _is_int(v) and v >= 0, "a non-negative integer (0 = no checkpoint)",
        flag="--checkpoint-interval", metavar="N",
        help="journal finished jobs every N jobs next to the store for killed-run "
             "resume; requires --store (default: 0 = no checkpoint; serve journals "
             "every job when it has a store)")
    resume: bool = _row(
        False, lambda v: isinstance(v, bool), "a boolean", flag="--resume",
        help="resume from the checkpoint journal of an earlier (killed) run instead "
             "of starting fresh, which discards the journal; requires --store; the "
             "resumed report is identical to an uninterrupted run")
    #: Address of a running evaluation daemon (``repro-axc serve``): a
    #: unix-socket path or ``host:port``.  When set, the CLI's ``run``
    #: submits the spec over the wire instead of executing locally; the
    #: daemon's report is byte-identical to a local run, which is why this
    #: is a runtime knob and not a fingerprinted field.
    remote: Optional[str] = _row(
        None, lambda v: isinstance(v, str) and v != "",
        "a daemon address (socket path or host:port)", nullable=True)

    def __post_init__(self) -> None:
        self._check_rows()
        object.__setattr__(self, "executor", "serial" if self.jobs == 1 else "process")
        if (self.resume or self.checkpoint_interval) and self.store_path is None:
            raise ConfigurationError(
                "checkpointed resume needs a persistent store: set store_path "
                "when enabling resume or checkpoint_interval"
            )

    def effective_batch_size(self, num_seeds: int) -> int:
        """Resolve the batching policy for a seed list of the given length.

        An explicit ``batch_size`` wins; ``0`` (auto) spreads the seeds
        evenly over the configured worker count (ceiling division), so a
        process fan-out gets one batched job per worker and batching
        multiplies with — instead of replacing — process parallelism.
        """
        if self.batch_size:
            return self.batch_size
        if num_seeds <= 1:
            return 1
        return -(-num_seeds // self.jobs)

    def retry_policy(self):
        """The :class:`~repro.runtime.resilience.RetryPolicy` this spec asks for."""
        from repro.runtime.resilience import RetryPolicy

        return RetryPolicy(max_attempts=self.retries,
                           job_timeout_s=self.job_timeout_s)

    @property
    def checkpoint_path(self) -> Optional[str]:
        """Journal location (next to the store), or ``None`` when disabled."""
        if self.store_path is None or not (self.checkpoint_interval or self.resume):
            return None
        return self.store_path + ".checkpoint.jsonl"

    def build_checkpoint(self):
        """Instantiate the configured checkpoint journal (or ``None``).

        A fresh run (``resume=False``) clears any journal left behind by an
        earlier run before returning it — resume semantics are explicit,
        never accidental.
        """
        path = self.checkpoint_path
        if path is None:
            return None
        from repro.runtime.checkpoint import CampaignCheckpoint

        checkpoint = CampaignCheckpoint(path, flush_interval=max(
            self.checkpoint_interval, 1))
        if not self.resume:
            checkpoint.clear()
        return checkpoint

    def build_executor(self):
        """Instantiate the configured :class:`~repro.runtime.executor.Executor`."""
        from repro.runtime.executor import ProcessExecutor, SerialExecutor

        if self.executor == "serial":
            return SerialExecutor(retry_policy=self.retry_policy())
        return ProcessExecutor(n_jobs=self.jobs, retry_policy=self.retry_policy())

    def build_store(self):
        """Instantiate the configured :class:`~repro.runtime.store.EvaluationStore`."""
        from repro.runtime.store import EvaluationStore

        return EvaluationStore(path=self.store_path)


# ------------------------------------------------------------ experiment spec


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-described experiment: the document the runner expands.

    ``kind`` selects the expansion shape:

    * ``"explore"`` — one benchmark, one agent, one seed (Table III row);
    * ``"compare"`` — one benchmark, several agents, shared seeds;
    * ``"campaign"`` — benchmarks x agents x seeds through the job runtime;
    * ``"sweep"`` — exhaustive design-space evaluation (no agents; the
      chunked ground-truth front of every benchmark x seed).
    """

    kind: str
    benchmarks: Tuple[BenchmarkSpec, ...]
    agents: Tuple[ExperimentAgentSpec, ...] = ()
    seeds: Tuple[int, ...] = (0,)
    max_steps: int = 1000
    thresholds: ThresholdSpec = field(default_factory=ThresholdSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigurationError(
                f"experiment kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        benchmarks = tuple(
            spec if isinstance(spec, BenchmarkSpec) else BenchmarkSpec.parse(spec)
            for spec in self._as_sequence(self.benchmarks, "benchmarks")
        )
        if not benchmarks:
            raise ConfigurationError("an experiment requires at least one benchmark")
        labels = [spec.label for spec in benchmarks]
        duplicates = sorted({label for label in labels if labels.count(label) > 1})
        if duplicates:
            raise ConfigurationError(
                f"duplicate benchmark label(s) {duplicates}; give distinct 'label' "
                f"values to repeat a configuration"
            )
        object.__setattr__(self, "benchmarks", benchmarks)

        agents = tuple(
            spec if isinstance(spec, ExperimentAgentSpec)
            else ExperimentAgentSpec.parse(spec)
            for spec in self._as_sequence(self.agents, "agents")
        )
        agent_labels = [spec.label for spec in agents]
        duplicate_agents = sorted(
            {label for label in agent_labels if agent_labels.count(label) > 1}
        )
        if duplicate_agents:
            raise ConfigurationError(
                f"duplicate agent label(s) {duplicate_agents}; give distinct "
                f"'label' values to run several variants of one family"
            )
        object.__setattr__(self, "agents", agents)

        seeds = self._as_sequence(self.seeds, "seeds")
        if not seeds:
            raise ConfigurationError("an experiment requires at least one seed")
        for seed in seeds:
            if not _is_int(seed) or seed < 0:
                raise ConfigurationError(
                    f"seeds must be non-negative integers, got {seed!r}")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"duplicate seeds in {list(seeds)}")
        object.__setattr__(self, "seeds", tuple(int(seed) for seed in seeds))

        if (not isinstance(self.max_steps, int) or isinstance(self.max_steps, bool)
                or self.max_steps <= 0):
            raise ConfigurationError(
                f"max_steps must be a positive integer, got {self.max_steps!r}"
            )
        if not isinstance(self.thresholds, ThresholdSpec):
            raise ConfigurationError(
                f"thresholds must be a ThresholdSpec, got {type(self.thresholds).__name__}"
            )
        if not isinstance(self.runtime, RuntimeSpec):
            raise ConfigurationError(
                f"runtime must be a RuntimeSpec, got {type(self.runtime).__name__}"
            )
        if not isinstance(self.description, str):
            raise ConfigurationError(
                f"description must be a string, got {self.description!r}"
            )
        self._validate_kind()

    @staticmethod
    def _as_sequence(value: object, context: str) -> Sequence:
        if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
            raise ConfigurationError(
                f"{context} must be a sequence, got {value!r}"
            )
        return value

    def _validate_kind(self) -> None:
        kind = self.kind
        if kind == "sweep":
            if self.agents:
                raise ConfigurationError(
                    "a sweep evaluates the whole design space exhaustively and "
                    f"takes no agents; got {[spec.name for spec in self.agents]}"
                )
            if not self.thresholds.is_default():
                raise ConfigurationError(
                    "a sweep derives its thresholds from the precise run with the "
                    "paper's fractions; custom thresholds are not supported"
                )
            return
        if not self.agents:
            raise ConfigurationError(
                f"a {kind!r} experiment requires at least one agent"
            )
        if kind == "explore":
            if len(self.benchmarks) != 1 or len(self.agents) != 1 or len(self.seeds) != 1:
                raise ConfigurationError(
                    "an 'explore' experiment is a single exploration: exactly one "
                    f"benchmark, one agent and one seed (got {len(self.benchmarks)} "
                    f"benchmark(s), {len(self.agents)} agent(s), {len(self.seeds)} "
                    f"seed(s)); use kind='campaign' for a matrix"
                )
        elif kind == "compare":
            if len(self.benchmarks) != 1:
                raise ConfigurationError(
                    "a 'compare' experiment scores agents on one benchmark; got "
                    f"{len(self.benchmarks)} (use kind='campaign' for a matrix)"
                )
            if len(self.agents) < 2:
                raise ConfigurationError(
                    "a 'compare' experiment requires at least two agents"
                )

    # ------------------------------------------------------------- documents

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form; ``from_dict`` reconstructs an equal spec."""
        return {
            "kind": self.kind,
            "benchmarks": [spec.to_dict() for spec in self.benchmarks],
            "agents": [spec.to_dict() for spec in self.agents],
            "seeds": list(self.seeds),
            "max_steps": self.max_steps,
            "thresholds": self.thresholds.to_dict(),
            "runtime": self.runtime.to_dict(),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "ExperimentSpec":
        payload = _require_mapping(payload, "experiment spec")
        _check_keys(payload, cls, "experiment spec")
        if "kind" not in payload:
            raise ConfigurationError(
                f"experiment spec requires a 'kind' (one of {EXPERIMENT_KINDS})"
            )
        if "benchmarks" not in payload:
            raise ConfigurationError("experiment spec requires 'benchmarks'")
        benchmarks = cls._as_sequence(payload["benchmarks"], "benchmarks")
        agents = cls._as_sequence(payload.get("agents", []), "agents")
        spec_kwargs: Dict[str, Any] = {
            **payload,
            "benchmarks": tuple(BenchmarkSpec.from_dict(item) for item in benchmarks),
            "agents": tuple(ExperimentAgentSpec.from_dict(item) for item in agents),
        }
        if "thresholds" in payload:
            spec_kwargs["thresholds"] = ThresholdSpec.from_dict(payload["thresholds"])
        if "runtime" in payload:
            spec_kwargs["runtime"] = RuntimeSpec.from_dict(payload["runtime"])
        return cls(**spec_kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"experiment spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def fingerprint(self) -> str:
        """Stable content hash of the result-determining fields.

        Runtime and description are excluded: neither changes what an
        experiment computes, only how fast it runs or how it is described.
        The hash is the SHA-1 of the canonical (sorted-key) JSON document,
        so it is identical across processes and machines.
        """
        payload = self.to_dict()
        payload.pop("runtime")
        payload.pop("description")
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]

    def with_runtime(self, runtime: RuntimeSpec) -> "ExperimentSpec":
        """The same experiment on a different runtime (same fingerprint)."""
        return dataclasses.replace(self, runtime=runtime)


# ----------------------------------------------------------------- overrides


def apply_overrides(payload: Dict[str, object],
                    assignments: Sequence[str]) -> Dict[str, object]:
    """Apply ``--set`` style dotted ``path=value`` overrides to a spec dict.

    Paths walk mappings by key and lists by integer index
    (``runtime.jobs=4``, ``seeds=[0,1,2]``, ``benchmarks.0.params.rows=5``).
    Intermediate segments must exist; the final segment may introduce a new
    mapping key (the strict :meth:`ExperimentSpec.from_dict` still rejects
    keys the schema does not know).  Values parse as JSON, falling back to
    plain strings.  The input dict is not modified; the updated copy is
    returned.

    Before any path is walked the payload is normalized so overrides can
    address parts the document left to their defaults: the optional
    ``seeds``/``thresholds``/``runtime`` sections are filled in with their
    default values, and benchmark/agent string shorthands are expanded to
    their explicit dict form (``"matmul_50x50"`` becomes the name/params/
    label document, so ``benchmarks.0.params.rows=20`` works either way).
    The normalization is semantically the identity — it never changes what
    the spec describes.  A benchmark label that merely restates its
    parameters (the derived default, e.g. ``"dotproduct:length=16"``) is
    dropped during normalization so it is recomputed from the
    *post-override* parameters; explicitly chosen labels (paper labels,
    custom names) are preserved verbatim.
    """
    import copy

    result = copy.deepcopy(dict(payload))
    result.setdefault("seeds", [0])
    result.setdefault("thresholds", ThresholdSpec().to_dict())
    result.setdefault("runtime", RuntimeSpec().to_dict())
    if isinstance(result.get("benchmarks"), list):
        result["benchmarks"] = [
            _normalized_benchmark(item) for item in result["benchmarks"]
        ]
    if isinstance(result.get("agents"), list):
        result["agents"] = [_normalized_agent(item) for item in result["agents"]]
    for assignment in assignments:
        path_text, sep, value_text = assignment.partition("=")
        if not sep or not path_text:
            raise ConfigurationError(
                f"malformed override {assignment!r}; expected path=value "
                f"(e.g. runtime.jobs=4)"
            )
        segments = path_text.split(".")
        target: object = result
        for depth, segment in enumerate(segments[:-1]):
            target = _descend(target, segment, segments[:depth + 1])
        _assign(target, segments[-1], _parse_scalar(value_text), path_text)
    return result


def _normalized_benchmark(item: object) -> object:
    """Expand shorthand and shed parameter-derived labels (see above)."""
    if isinstance(item, str):
        item = BenchmarkSpec.parse(item).to_dict()
    if not isinstance(item, Mapping):
        return item
    payload = dict(item)
    name = payload.get("name")
    params = payload.get("params", {})
    if (isinstance(name, str) and isinstance(params, Mapping)
            and payload.get("label") == BenchmarkSpec.default_label(name, params)):
        payload["label"] = None
    return payload


def _normalized_agent(item: object) -> object:
    """Expand shorthand and shed name-derived labels, as for benchmarks."""
    if isinstance(item, str):
        item = ExperimentAgentSpec.parse(item).to_dict()
    if not isinstance(item, Mapping):
        return item
    payload = dict(item)
    if payload.get("label") == payload.get("name"):
        payload["label"] = None
    return payload


def _descend(container: object, segment: str, path: List[str]) -> object:
    location = ".".join(path)
    if isinstance(container, Mapping):
        if segment not in container:
            raise ConfigurationError(
                f"override path {location!r} not found; available keys: "
                f"{sorted(container)}"
            )
        return container[segment]
    if isinstance(container, list):
        index = _list_index(segment, container, location)
        return container[index]
    raise ConfigurationError(
        f"override path {location!r} addresses into a "
        f"{type(container).__name__}, which has no sub-keys"
    )


def _assign(container: object, segment: str, value: object, path: str) -> None:
    if isinstance(container, dict):
        container[segment] = value
        return
    if isinstance(container, list):
        container[_list_index(segment, container, path)] = value
        return
    raise ConfigurationError(
        f"override path {path!r} addresses into a "
        f"{type(container).__name__}, which cannot be assigned"
    )


def _list_index(segment: str, container: Sequence, location: str) -> int:
    try:
        index = int(segment)
    except ValueError:
        raise ConfigurationError(
            f"override path {location!r} indexes a list; expected an integer "
            f"index, got {segment!r}"
        ) from None
    if not -len(container) <= index < len(container):
        raise ConfigurationError(
            f"override path {location!r}: index {index} out of range for a "
            f"list of {len(container)} item(s)"
        )
    return index
