"""Design-point evaluation: run the approximate version, measure the objectives.

The evaluator owns one fixed workload for its benchmark (generated from a
seed so explorations are reproducible), runs the precise version once to
obtain the exact outputs and the precise power / time baseline, and then
evaluates any design point by executing the corresponding approximate
version and deriving (Δacc, Δpower, Δtime).  The record of a design point
holds those deltas and the approximate run's cost — the measurements the
exploration consumes — and not the raw outputs.

Evaluations are cached per design point in an
:class:`~repro.runtime.store.EvaluationStore`: the exploration may take
thousands of steps, but the number of distinct configurations is bounded by
the design space size, so caching keeps even the 50x50 matrix-multiplication
exploration fast without changing any observable result.  By default every
evaluator owns a private in-memory store; inject a shared store to let
sibling evaluators (other seeds, other agents, parallel campaign workers)
reuse each other's measurements — evaluation is deterministic, so a store
hit is bit-identical to the evaluation it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.dse.design_space import DesignPoint, DesignSpace
from repro.errors import OperatorError
from repro.instrumentation.context import ApproxContext, Row, StackedContext
from repro.metrics.deltas import ObjectiveDeltas, compute_deltas
from repro.operators.base import OperatorKind, as_int_array
from repro.operators.catalog import OperatorCatalog, default_catalog
from repro.operators.energy import CostModel, RunCost
from repro.runtime.store import (
    EvaluationKey,
    EvaluationStore,
    benchmark_fingerprint,
    catalog_fingerprint,
)

__all__ = ["EvaluationRecord", "Evaluator"]


@dataclass(frozen=True)
class EvaluationRecord:
    """Everything the exploration consumes about one design point.

    The objective deltas and the approximate run's cost — never the raw
    output arrays, so records stay light enough to ship across process
    boundaries by the thousand.  ``benchmark.execute(evaluator.context_for(
    point), evaluator.inputs)`` reproduces the outputs when they are needed.
    """

    point: DesignPoint
    deltas: ObjectiveDeltas
    approx_cost: RunCost

    @property
    def accuracy(self) -> float:
        return self.deltas.accuracy

    @property
    def power_reduction_mw(self) -> float:
        return self.deltas.power_mw

    @property
    def time_reduction_ns(self) -> float:
        return self.deltas.time_ns


class Evaluator:
    """Runs precise and approximate versions of one benchmark workload.

    Parameters
    ----------
    store:
        Shared :class:`~repro.runtime.store.EvaluationStore`; omitted, the
        evaluator owns a private in-memory store (the historical behaviour).
    compiled:
        Run design points through compiled operator kernels on the trusted
        context fast path (see :mod:`repro.operators.compiled`): table
        gathers for the 8-bit units, closed forms for the 16-bit adders and
        32-bit multipliers.  The fixed workload is validated once at
        construction, so the per-call operand checks, sign decompositions
        and multi-pass analytic models disappear from the per-design-point
        loop.  Results are bit-identical either way — same records, same
        store keys — so this only changes wall-clock; defaults to on.
        ``False`` runs the analytic models instead: the reference the tests
        and ``benchmarks/bench_operator_kernels.py`` compare the compiled
        path against.  No layer above the evaluator selects it.
    share_equivalent:
        Share measurements between behaviourally equivalent design points.
        A kernel's outputs and operation profile are a pure function of
        which unit executes each of its ``(kind, variables)`` routing keys
        (see :meth:`~repro.instrumentation.context.ApproxContext.
        route_keys`): two points that route every key to the same units
        run the identical computation, so the first one's measurement is
        replayed for the rest instead of re-executing the kernel.  On a
        Table-III space most points collapse onto a few dozen behaviour
        classes (the variable mask only matters through which operation
        kinds it approximates), making this the difference between
        evaluating the space and evaluating its distinct behaviours.
        :meth:`evaluate_index_range` goes one step further for a benchmark
        that sets :attr:`~repro.benchmarks.base.Benchmark.row_axis`: the
        range's new classes run as the rows of one stacked pass.  Records
        are bit-identical either way; defaults to on.
    """

    def __init__(self, benchmark: Benchmark, catalog: Optional[OperatorCatalog] = None,
                 seed: int = 0, signed_accuracy: bool = False,
                 restrict_to_benchmark_widths: bool = True,
                 store: Optional[EvaluationStore] = None,
                 compiled: bool = True,
                 share_equivalent: bool = True) -> None:
        self._benchmark = benchmark
        self._full_catalog = catalog if catalog is not None else default_catalog()
        if restrict_to_benchmark_widths:
            # The paper explores each benchmark over the operators matching
            # its datapath widths (e.g. 8-bit units for MatMul, 16-bit adders
            # and 32-bit multipliers for FIR).
            self._catalog = self._full_catalog.restrict_widths(
                adder_width=benchmark.add_width, multiplier_width=benchmark.mul_width
            )
        else:
            self._catalog = self._full_catalog
        self._signed_accuracy = bool(signed_accuracy)
        self._compiled = bool(compiled)
        self._space = DesignSpace(benchmark, self._catalog)
        self._cost_model: CostModel = self._catalog.cost_model()

        rng = np.random.default_rng(seed)
        # Coerce the fixed workload once: every design point replays these
        # exact arrays, so the trusted fast path can skip the per-call
        # operand scans (floats are scanned here, once, instead of on each
        # of the thousands of operations a sweep performs).  Inputs that are
        # not integer-coercible (auxiliary data a benchmark consumes outside
        # the context) pass through untouched — but then contexts keep
        # per-call validation, since operands can no longer be guaranteed.
        inputs = {}
        all_integer = True
        for name, value in benchmark.generate_inputs(rng).items():
            try:
                inputs[name] = as_int_array(value, name)
            except OperatorError:
                inputs[name] = np.asarray(value)
                all_integer = False
        self._inputs: Mapping[str, np.ndarray] = inputs
        self._trusted = self._compiled and all_integer

        self._exact_adder = self._catalog.instance(
            self._catalog.exact_adder(benchmark.add_width).name
        )
        self._exact_multiplier = self._catalog.instance(
            self._catalog.exact_multiplier(benchmark.mul_width).name
        )

        precise_context = ApproxContext(self._exact_adder, self._exact_multiplier,
                                        trusted=self._trusted)
        self._precise_outputs = benchmark.execute(precise_context, self._inputs).outputs
        self._precise_cost = self._cost_model.run_cost(precise_context.profile.as_dict())

        # Design-point equivalence sharing: the baseline run reveals every
        # (kind, variables) routing key the kernel asks for, and a point's
        # behaviour signature is the tuple of unit names those keys resolve
        # to.  Should an approximate run ever surface a key the baseline
        # did not (data-dependent variable naming), the key set is extended
        # and the cache dropped — signatures over the old set are stale.
        self._share_equivalent = bool(share_equivalent)
        self._route_keys: tuple = precise_context.route_keys()
        self._route_key_set = set(self._route_keys)
        self._behavior_cache: dict = {}
        # _behavior_signature runs on every first-touch evaluation, so the
        # name/variable lookups are compiled down to table indexing and one
        # int bitmask per route key (rebuilt when the key set extends).
        self._adder_names = ("",) + tuple(e.name for e in self._catalog.adders)
        self._multiplier_names = (
            ("",) + tuple(e.name for e in self._catalog.multipliers)
        )
        self._variable_bits = {
            name: 1 << bit for bit, name in enumerate(benchmark.variables)
        }
        self._route_masks = self._compile_route_masks()

        self._store = store if store is not None else EvaluationStore()
        self._served: set = set()  # point keys this evaluator has served
        # Every cached evaluation of this evaluator lives under one context
        # prefix: anything that changes the measurement — the benchmark and
        # its parameters, the catalog, the workload seed, the accuracy mode —
        # changes the prefix, so store hits are always bit-identical replays.
        self._store_context = (
            benchmark_fingerprint(benchmark),
            catalog_fingerprint(self._catalog),
            int(seed),
            bool(signed_accuracy),
        )

    # ------------------------------------------------------------ properties

    @property
    def benchmark(self) -> Benchmark:
        return self._benchmark

    @property
    def catalog(self) -> OperatorCatalog:
        """The (possibly width-restricted) catalog the design space indexes into."""
        return self._catalog

    @property
    def full_catalog(self) -> OperatorCatalog:
        """The unrestricted catalog the evaluator was constructed with."""
        return self._full_catalog

    @property
    def design_space(self) -> DesignSpace:
        return self._space

    @property
    def compiled(self) -> bool:
        """Whether design points run on compiled kernels (bit-identical)."""
        return self._compiled

    @property
    def inputs(self) -> Mapping[str, np.ndarray]:
        """The fixed workload every design point is evaluated on.

        Validated and coerced to ``int64`` once at construction; the same
        arrays are replayed for every design point.
        """
        return self._inputs

    @property
    def precise_outputs(self) -> np.ndarray:
        """Outputs of the precise version on the fixed workload."""
        return self._precise_outputs

    @property
    def precise_cost(self) -> RunCost:
        """Power / time of the precise version on the fixed workload."""
        return self._precise_cost

    @property
    def store(self) -> EvaluationStore:
        """The evaluation store caching this evaluator's measurements."""
        return self._store

    @property
    def store_context(self) -> tuple:
        """The (benchmark, catalog, seed, signed) prefix of this evaluator's keys."""
        return self._store_context

    @property
    def cache_size(self) -> int:
        """Number of distinct design points this evaluator has served.

        Counts only this evaluator's own lookups, not sibling entries a
        shared store may hold for the same context — so the figure is
        identical whether a sweep runs serially or fanned out over
        processes.
        """
        return len(self._served)

    # ------------------------------------------------------------ evaluation

    def context_for(self, point: DesignPoint,
                    trusted: Optional[bool] = None) -> ApproxContext:
        """Build the approximation context corresponding to a design point.

        With ``compiled`` enabled (the default) the context carries
        LUT-compiled approximate units.  By default it still validates
        operands on every call, so it is safe for arbitrary workloads;
        pass ``trusted=True`` to skip validation for operands known to be
        integer-valued (what :meth:`evaluate` does for the evaluator's own
        validated workload).
        """
        self._space.validate(point)
        approx_adder, approx_multiplier, selected = self._row_for(point)
        return ApproxContext(
            exact_adder=self._exact_adder,
            exact_multiplier=self._exact_multiplier,
            approx_adder=approx_adder,
            approx_multiplier=approx_multiplier,
            approximate_variables=selected,
            trusted=bool(trusted),
        )

    def _row_for(self, point: DesignPoint) -> Row:
        """The approximate units and selected variables of one design point."""
        instance = (
            self._catalog.compiled_instance if self._compiled else self._catalog.instance
        )
        selected = [
            name for name, flag in zip(self._benchmark.variables, point.variables) if flag
        ]
        return (instance(self._catalog.adder(point.adder_index).name),
                instance(self._catalog.multiplier(point.multiplier_index).name),
                selected)

    def store_key(self, point: DesignPoint) -> EvaluationKey:
        """The store key addressing one design point of this evaluator."""
        return EvaluationKey(*self._store_context, point=point.key())

    def _compile_route_masks(self) -> tuple:
        """``(is_adder, variable_bitmask)`` per discovered routing key."""
        bits = self._variable_bits
        return tuple(
            (kind is OperatorKind.ADDER,
             sum(bits.get(name, 0) for name in variables))
            for kind, variables in self._route_keys
        )

    def _behavior_signature(self, point: DesignPoint) -> Optional[tuple]:
        """Unit names each routing key resolves to under ``point`` (or None).

        Mirrors exactly how :meth:`context_for` + ``ApproxContext._select``
        would route: a key runs on the point's approximate unit iff its
        variables intersect the point's selected set (bitmask-encoded).
        """
        route_masks = self._route_masks
        if not route_masks:
            return None
        mask = 0
        bit = 1
        for flag in point.variables:
            if flag:
                mask |= bit
            bit <<= 1
        adder_name = self._adder_names[point.adder_index]
        multiplier_name = self._multiplier_names[point.multiplier_index]
        exact_adder_name = self._exact_adder.name
        exact_multiplier_name = self._exact_multiplier.name
        return tuple(
            (adder_name if mask & key_mask else exact_adder_name) if is_adder
            else (multiplier_name if mask & key_mask else exact_multiplier_name)
            for is_adder, key_mask in route_masks
        )

    def _note_route_keys(self, context: ApproxContext, point: DesignPoint,
                         signature: Optional[tuple]) -> Optional[tuple]:
        """Fold a run's observed routing keys into the discovered set.

        New keys invalidate every cached signature (they were computed over
        an incomplete key set), so the behaviour cache is dropped and this
        run's signature recomputed over the extended set.
        """
        observed = context.route_keys()
        known = self._route_key_set
        new = [key for key in observed if key not in known]
        if new:
            self._route_keys = self._route_keys + tuple(new)
            known.update(new)
            self._route_masks = self._compile_route_masks()
            self._behavior_cache.clear()
            signature = self._behavior_signature(point)
        return signature

    def evaluate(self, point: DesignPoint) -> EvaluationRecord:
        """Measure (Δacc, Δpower, Δtime) for one design point (cached)."""
        self._space.validate(point)
        key = self.store_key(point)
        record = self._store.lookup(key)
        if record is not None:
            self._served.add(key.point)
            return record

        signature = self._behavior_signature(point) if self._share_equivalent else None
        if signature is not None:
            shared = self._behavior_cache.get(signature)
            if shared is not None:
                # A behaviourally equivalent point already ran: replay its
                # measurement (bit-identical by construction) under this
                # point's identity.
                deltas, approx_cost = shared
                record = EvaluationRecord(point=point, deltas=deltas,
                                          approx_cost=approx_cost)
                self._store.put(key, record)
                self._served.add(key.point)
                return record

        context = self.context_for(point, trusted=self._trusted)
        run = self._benchmark.execute(context, self._inputs)
        approx_cost = self._cost_model.run_cost(context.profile.as_dict())
        deltas = compute_deltas(
            self._precise_outputs, run.outputs, self._precise_cost, approx_cost,
            signed_accuracy=self._signed_accuracy,
        )
        record = EvaluationRecord(point=point, deltas=deltas, approx_cost=approx_cost)
        self._store.put(key, record)
        self._served.add(key.point)
        if self._share_equivalent:
            signature = self._note_route_keys(context, point, signature)
            if signature is not None:
                self._behavior_cache[signature] = (deltas, approx_cost)
        return record

    def use_store(self, store: EvaluationStore) -> "Evaluator":
        """Rebind this evaluator to another shared store (same context).

        The expensive part of an evaluator is its precise baseline run;
        rebinding keeps it, so a timing harness can measure repeated
        evaluations against fresh stores without rebuilding the evaluator.
        Served-point tracking resets — it is per-store.
        """
        self._store = store
        self._served = set()
        return self

    def evaluate_many(self, points: Iterable[DesignPoint]) -> List[EvaluationRecord]:
        """Measure a batch of design points (cached), in input order.

        One record per point, every evaluation landing in (or served from)
        the shared store.
        """
        return [self.evaluate(point) for point in points]

    def evaluate_index_range(self, start: int, stop: int) -> List[EvaluationRecord]:
        """Evaluate the enumeration slice ``[start, stop)`` of the space.

        Sweeps and the batched environment's context fill call it with the
        whole space, ``[0, size)``: a sweep job per context
        (:func:`~repro.dse.sweep.execute_sweep_job`), the environment per
        workload when it is built
        (:class:`~repro.dse.batched_env.BatchedAxcDseEnv`).  With
        behaviour sharing on and a benchmark that keeps the row-axis
        contract, the slice's points that are neither stored nor in the
        behaviour cache first run their distinct classes as the rows of one
        stacked pass
        (:class:`~repro.instrumentation.context.StackedContext`), which
        fills the behaviour cache; every point is then evaluated as
        :meth:`evaluate_many` would, so the records, the store contents and
        the evaluation count are the same either way.
        """
        points = list(self._space.iter_range(start, stop))
        if self._share_equivalent and self._benchmark.row_axis:
            self._run_classes(points)
        return self.evaluate_many(points)

    def _run_classes(self, points: Sequence[DesignPoint]) -> None:
        """Measure the new behaviour classes among ``points`` in one stacked pass.

        Each row's cost maps the pass's per-row operation count of every
        routing key to the unit the key resolves to for that row, in
        first-use order, which is the order the class's own run would add
        the unit costs in.  A unit that raises :class:`OperatorError` on
        the stack, or a routing key the baseline run did not surface,
        leaves the cache untouched: the points then run one by one, raising
        where their own runs raise and extending the key set where theirs
        do.
        """
        classes: Dict[tuple, DesignPoint] = {}
        for point in points:
            if self.store_key(point) in self._store:
                continue
            signature = self._behavior_signature(point)
            if signature is None:
                return
            if signature not in self._behavior_cache:
                classes.setdefault(signature, point)
        if len(classes) < 2:
            return
        context = StackedContext(self._exact_adder, self._exact_multiplier,
                                 [self._row_for(point) for point in classes.values()],
                                 trusted=self._trusted)
        try:
            outputs = self._benchmark.execute(context, self._inputs).outputs
        except OperatorError:
            return
        if not self._route_key_set.issuperset(context.route_keys()):
            return
        position = {key: index for index, key in enumerate(self._route_keys)}
        key_counts = context.key_counts()
        for row, signature in enumerate(classes):
            unit_counts: Dict[str, int] = {}
            for key, count in key_counts.items():
                unit = signature[position[key]]
                unit_counts[unit] = unit_counts.get(unit, 0) + count
            approx_cost = self._cost_model.run_cost(unit_counts)
            deltas = compute_deltas(
                self._precise_outputs, outputs[row], self._precise_cost, approx_cost,
                signed_accuracy=self._signed_accuracy,
            )
            self._behavior_cache[signature] = (deltas, approx_cost)
