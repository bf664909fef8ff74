"""The artifact pipeline: expand, render and publish declared artifacts.

:class:`PaperPipeline` turns a set of :class:`~repro.reporting.artifact.
ArtifactSpec` declarations into files on disk:

1. **Staleness check** — the output directory's ``manifest.json`` records
   the fingerprint and files of every previously published artifact; an
   artifact whose fingerprint matches and whose files still exist is served
   from disk without re-running anything (pass ``force=True`` to rebuild).
2. **Experiment expansion** — the experiments bound by the stale artifacts
   are deduplicated by spec fingerprint (Table III and Figures 2-4 share
   one campaign, so it runs once) and executed through the standard
   jobs/executor/store runtime: ``runtime.jobs > 1`` fans benchmark explorations
   out over worker processes, and every design-point evaluation lands in
   one shared :class:`~repro.runtime.store.EvaluationStore` (optionally
   persisted to sqlite, so a re-run or a later scale-up starts warm).
3. **Render + publish** — each stale artifact renders to markdown + JSON
   and the manifest is rewritten.

Everything is bit-reproducible: for a fixed artifact set, serial and
parallel runs write identical artifact files and an identical manifest
(timings are deliberately kept out of both).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ReportingError
from repro.experiments.spec import ExperimentSpec, RuntimeSpec
from repro.reporting.artifact import ARTIFACT_FORMAT_VERSION, ArtifactSpec

__all__ = ["ArtifactStatus", "PipelineResult", "PaperPipeline", "select_artifacts"]


def select_artifacts(artifacts: Sequence[ArtifactSpec],
                     names: Optional[Sequence[str]]) -> Tuple[ArtifactSpec, ...]:
    """Filter an artifact set down to ``names`` (declaration order kept).

    ``names=None`` selects everything; unknown names raise a
    :class:`~repro.errors.ConfigurationError` listing the valid choices.
    """
    if names is None:
        return tuple(artifacts)
    available = {spec.name for spec in artifacts}
    unknown = sorted(set(names) - available)
    if unknown:
        raise ConfigurationError(
            f"unknown artifact(s) {unknown}; declared artifacts: "
            f"{', '.join(spec.name for spec in artifacts)}"
        )
    wanted = set(names)
    return tuple(spec for spec in artifacts if spec.name in wanted)


@dataclass(frozen=True)
class ArtifactStatus:
    """How one artifact left the pipeline: freshly built, or served cached."""

    name: str
    state: str  # "built" | "cached"
    fingerprint: str
    files: Tuple[str, ...]

    @property
    def built(self) -> bool:
        return self.state == "built"


@dataclass(frozen=True)
class PipelineResult:
    """The outcome of one :meth:`PaperPipeline.run` call.

    ``manifest`` is the exact document written to ``manifest.json``;
    ``reports`` maps experiment fingerprints to the
    :class:`~repro.experiments.report.ExperimentReport` objects produced
    this run (empty when everything was cached).
    """

    out_dir: Path
    manifest: Mapping[str, object]
    statuses: Tuple[ArtifactStatus, ...]
    reports: Mapping[str, object]
    store: Mapping[str, object]
    wall_clock_s: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "manifest", dict(self.manifest))
        object.__setattr__(self, "reports", dict(self.reports))
        object.__setattr__(self, "store", dict(self.store))

    @property
    def built(self) -> Tuple[ArtifactStatus, ...]:
        """The artifacts rendered fresh this run."""
        return tuple(status for status in self.statuses if status.built)

    @property
    def cached(self) -> Tuple[ArtifactStatus, ...]:
        """The artifacts served from the existing manifest."""
        return tuple(status for status in self.statuses if not status.built)


@dataclass
class PaperPipeline:
    """Publish a set of declared artifacts into an output directory.

    Parameters
    ----------
    artifacts:
        The :class:`ArtifactSpec` set to publish (e.g.
        :func:`~repro.reporting.paper.paper_artifacts`); names must be
        unique.
    out_dir:
        Output directory for the rendered files and ``manifest.json``.
    runtime:
        The :class:`RuntimeSpec` the bound experiments execute on (workers, a
        sqlite ``store_path`` shared across runs and with ``campaign`` /
        ``sweep``, retries, resume); the artifacts are identical on any runtime.
    force:
        Rebuild every artifact even when its manifest entry is up to date.
    """

    artifacts: Sequence[ArtifactSpec]
    out_dir: Union[str, Path] = "artifacts"
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)
    force: bool = False

    MANIFEST_NAME = "manifest.json"

    def __post_init__(self) -> None:
        self.artifacts = tuple(self.artifacts)
        if not self.artifacts:
            raise ConfigurationError("the pipeline requires at least one artifact")
        for spec in self.artifacts:
            if not isinstance(spec, ArtifactSpec):
                raise ConfigurationError(
                    f"pipeline artifacts must be ArtifactSpec objects, "
                    f"got {type(spec).__name__}"
                )
        names = [spec.name for spec in self.artifacts]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ConfigurationError(f"duplicate artifact name(s) {duplicates}")
        self.out_dir = Path(self.out_dir)

    # ------------------------------------------------------------- manifest

    @property
    def manifest_path(self) -> Path:
        return self.out_dir / self.MANIFEST_NAME

    def _load_previous(self) -> Dict[str, Dict[str, object]]:
        """The artifact entries of an existing manifest (tolerates absence)."""
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, ValueError):
            return {}
        artifacts = payload.get("artifacts") if isinstance(payload, dict) else None
        if not isinstance(artifacts, dict):
            return {}
        return {name: entry for name, entry in artifacts.items()
                if isinstance(entry, dict)}

    def _entry_current(self, spec: ArtifactSpec,
                       entry: Optional[Mapping[str, object]]) -> bool:
        """Whether a manifest entry still covers the spec with files on disk."""
        if entry is None or entry.get("fingerprint") != spec.fingerprint():
            return False
        files = entry.get("files")
        if not isinstance(files, list) or not files:
            return False
        return all((self.out_dir / str(name)).exists() for name in files)

    # ------------------------------------------------------------------ run

    def run(self) -> PipelineResult:
        """Publish the artifact set; incremental unless ``force`` is set.

        Raises :class:`~repro.errors.ReportingError` when the output
        directory cannot be written or a bound experiment fails.
        """
        started = time.perf_counter()
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ReportingError(
                f"cannot create artifact directory {self.out_dir}: {exc}"
            ) from exc

        previous = self._load_previous()
        stale = {spec.name for spec in self.artifacts
                 if self.force or not self._entry_current(spec, previous.get(spec.name))}

        reports = self._run_experiments(
            [spec for spec in self.artifacts if spec.name in stale])

        entries: Dict[str, Dict[str, object]] = {}
        statuses: List[ArtifactStatus] = []
        for spec in self.artifacts:
            if spec.name in stale:
                bound = {key: reports[sub.fingerprint()]
                         for key, sub in spec.experiments.items()}
                artifact = spec.render(bound)
                files = artifact.write(self.out_dir)
                state = "built"
            else:
                files = [str(name) for name in previous[spec.name]["files"]]
                state = "cached"
            entries[spec.name] = {
                "fingerprint": spec.fingerprint(),
                "kind": spec.kind,
                "title": spec.title,
                "renderer": spec.renderer,
                "experiments": spec.experiment_fingerprints(),
                "files": files,
            }
            statuses.append(ArtifactStatus(name=spec.name, state=state,
                                           fingerprint=spec.fingerprint(),
                                           files=tuple(files)))

        # Entries published by earlier runs but not part of this selection
        # survive as long as their files do (selective --artifacts runs must
        # not orphan the rest of the manifest).
        declared = set(entries)
        for name, entry in previous.items():
            if name in declared:
                continue
            files = entry.get("files")
            if (isinstance(files, list) and files
                    and all((self.out_dir / str(f)).exists() for f in files)):
                entries[name] = entry

        import repro

        manifest = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "repro_version": repro.__version__,
            "artifacts": entries,
        }
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        try:
            self.manifest_path.write_text(manifest_text, encoding="utf-8")
        except OSError as exc:
            raise ReportingError(
                f"cannot write manifest {self.manifest_path}: {exc}"
            ) from exc

        store_info = self._store_info(reports)
        return PipelineResult(
            out_dir=self.out_dir,
            manifest=manifest,
            statuses=tuple(statuses),
            reports=reports,
            store=store_info,
            wall_clock_s=time.perf_counter() - started,
        )

    # -------------------------------------------------------------- helpers

    def _run_experiments(self,
                         stale: Sequence[ArtifactSpec]) -> Dict[str, object]:
        """Run each distinct experiment bound by the stale artifacts once.

        Experiments are deduplicated by fingerprint and planned as one
        batch through the subsumption-aware planner (:mod:`repro.planner`)
        in sorted fingerprint order on one shared executor and store: work
        the store already materializes — or that another experiment of the
        same batch will materialize — replays instead of re-evaluating.
        Reports are bit-identical to running each spec directly, so the
        artifacts are independent of which experiments shared work.
        """
        needed: Dict[str, ExperimentSpec] = {}
        for spec in stale:
            for sub in spec.experiments.values():
                needed.setdefault(sub.fingerprint(), sub)
        if not needed:
            return {}

        from repro.planner import execute_plan, plan_experiments

        store = self.runtime.build_store()
        executor = self.runtime.build_executor()
        checkpoint = self.runtime.build_checkpoint()

        specs = [needed[fingerprint].with_runtime(self.runtime)
                 for fingerprint in sorted(needed)]
        plan = plan_experiments(specs, store=store)
        execution = execute_plan(plan, store=store, executor=executor,
                                 checkpoint=checkpoint)

        reports: Dict[str, object] = {}
        for fingerprint in sorted(needed):
            report = execution.reports[fingerprint]
            if report.failures:
                failure = report.failures[0]
                raise ReportingError(
                    f"experiment {fingerprint} failed on "
                    f"{failure.benchmark_label}[seed={failure.seed}]: "
                    f"{failure.error}"
                )
            reports[fingerprint] = report
        return reports

    def _store_info(self, reports: Mapping[str, object]) -> Dict[str, object]:
        """Aggregate store statistics of this run (empty when all cached)."""
        if not reports:
            return {"size": 0, "hits": 0, "misses": 0, "lookups": 0,
                    "hit_rate": 0.0, "path": self.runtime.store_path}
        last = reports[sorted(reports)[-1]]
        return dict(last.store)
