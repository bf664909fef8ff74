"""The stacked class pass: one kernel run per range, bit-identical per row.

``Evaluator.evaluate_index_range`` runs the distinct behaviour classes of a
range as the rows of one :class:`~repro.instrumentation.context.StackedContext`
when the benchmark keeps the row-axis contract.  Every row must equal that
class's own one-row run bit for bit (outputs, the order the profile records
units in, ``RunCost`` and deltas), a kernel that does not opt in must never
see a stacked context, and anything the pass cannot vouch for (a unit
raising ``OperatorError``, a routing key the baseline run did not surface)
must leave the range to point-by-point evaluation.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from test_operators_compiled import AuxBenchmark

from repro.benchmarks import DotProductBenchmark, MatMulBenchmark
from repro.benchmarks.base import Benchmark
from repro.benchmarks.registry import available, create, paper_benchmarks
from repro.dse.evaluator import Evaluator
from repro.errors import BenchmarkError, InstrumentationError, OperatorError
from repro.instrumentation import StackedContext
from repro.operators import OperatorKind
from repro.operators.base import Operator

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "custom_benchmark.py"


def _opted_in():
    benchmarks = {name: create(name) for name in available()}
    large = paper_benchmarks()
    benchmarks.update((label, large[label]) for label in ("matmul_50x50", "fir_200"))
    return benchmarks


OPTED_IN = _opted_in()


def _brightness() -> Benchmark:
    spec = importlib.util.spec_from_file_location("custom_benchmark_example", EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BrightnessBenchmark()


def _bits(record):
    cost = record.approx_cost
    return (record.point, float(record.deltas.accuracy).hex(),
            float(record.deltas.power_mw).hex(), float(record.deltas.time_ns).hex(),
            float(cost.power_mw).hex(), float(cost.time_ns).hex(), cost.operation_count)


@pytest.fixture
def passes(monkeypatch):
    """Every stacked context the evaluator builds, with its run's outputs."""
    built = []
    execute = Benchmark.execute

    def spy(self, context, inputs):
        run = execute(self, context, inputs)
        if isinstance(context, StackedContext):
            built.append((context, run.outputs))
        return run

    monkeypatch.setattr(Benchmark, "execute", spy)
    return built


def _unit_name(key, row, exact_names):
    """The unit an :class:`ApproxContext` built from ``row`` routes ``key`` to."""
    kind, variables = key
    adder, multiplier, selected = row
    approx = adder if kind is OperatorKind.ADDER else multiplier
    if approx is not None and set(selected) & set(variables):
        return approx.name
    return exact_names[kind]


@pytest.mark.parametrize("name", sorted(OPTED_IN))
def test_every_pass_row_equals_its_class_run(name, passes):
    benchmark = OPTED_IN[name]
    assert benchmark.row_axis
    evaluator = Evaluator(benchmark, seed=0)
    size = evaluator.design_space.size
    records = evaluator.evaluate_index_range(0, size)
    assert len(passes) == 1
    context, outputs = passes[0]

    points = list(evaluator.design_space.iter_range(0, size))
    classes = {}
    for point in points:
        classes.setdefault(evaluator._behavior_signature(point), point)
    assert context.num_rows == len(classes) == outputs.shape[0]

    catalog = evaluator.catalog
    exact_names = {
        OperatorKind.ADDER: catalog.exact_adder(benchmark.add_width).name,
        OperatorKind.MULTIPLIER: catalog.exact_multiplier(benchmark.mul_width).name,
    }
    key_counts = context.key_counts()
    for row, point in enumerate(classes.values()):
        own = evaluator.context_for(point, trusted=True)
        run = benchmark.execute(own, evaluator.inputs)
        assert outputs[row].dtype == run.outputs.dtype
        np.testing.assert_array_equal(outputs[row], run.outputs, err_msg=str(point))
        assert set(key_counts) <= set(own.route_keys())
        mapped = {}
        for key, count in key_counts.items():
            unit = _unit_name(key, evaluator._row_for(point), exact_names)
            mapped[unit] = mapped.get(unit, 0) + count
        assert list(mapped.items()) == list(own.profile.as_dict().items()), point

    # RunCost and deltas of every point, against per-class evaluation.
    reference = Evaluator(benchmark, seed=0).evaluate_many(points)
    assert [_bits(record) for record in records] == [_bits(record) for record in reference]


@pytest.mark.parametrize("kernel", [_brightness(), AuxBenchmark()], ids=["brightness", "aux"])
def test_a_kernel_without_the_row_axis_gets_no_stacked_context(kernel, passes):
    assert not kernel.row_axis
    evaluator = Evaluator(kernel, seed=1)
    size = evaluator.design_space.size
    records = evaluator.evaluate_index_range(0, size)
    assert passes == []
    reference = Evaluator(kernel, seed=1).evaluate_many(
        evaluator.design_space.iter_range(0, size))
    assert records == reference

    space = evaluator.design_space
    rows = [evaluator._row_for(space.point_at(index)) for index in (size - 2, size - 1)]
    stacked = StackedContext(evaluator._exact_adder, evaluator._exact_multiplier, rows)
    with pytest.raises(BenchmarkError, match="row-axis contract"):
        kernel.execute(stacked, evaluator.inputs)


def test_share_equivalent_off_runs_no_pass(passes):
    benchmark = DotProductBenchmark(length=8)
    evaluator = Evaluator(benchmark, seed=0, share_equivalent=False)
    records = evaluator.evaluate_index_range(0, evaluator.design_space.size)
    assert passes == []
    shared = Evaluator(benchmark, seed=0).evaluate_index_range(0, evaluator.design_space.size)
    assert len(passes) == 1
    assert [_bits(record) for record in records] == [_bits(record) for record in shared]


def _raising_unit(monkeypatch, name, when):
    """Make the unit called ``name`` raise ``OperatorError`` on calls ``when`` accepts.

    Returns the list the operand shapes of every refused call go into.
    """
    apply_trusted = Operator.apply_trusted
    refused = []

    def patched(self, a, b):
        if self.name == name and when(np.asarray(a), np.asarray(b)):
            refused.append((np.shape(a), np.shape(b)))
            raise OperatorError(f"{name} refuses these operands")
        return apply_trusted(self, a, b)

    monkeypatch.setattr(Operator, "apply_trusted", patched)
    return refused


def test_a_pass_that_raises_falls_back_point_by_point(monkeypatch, passes):
    # The accumulator's adder refuses operands of more than one row: only
    # the pass gives it those, so the range falls back and nothing raises.
    benchmark = MatMulBenchmark(rows=4, inner=4, cols=4)
    expected = Evaluator(benchmark, seed=2).evaluate_index_range(0, 288)
    adder = Evaluator(benchmark, seed=2).catalog.adders[3].name
    refused = _raising_unit(monkeypatch, adder,
                            lambda a, b: max(a.shape[0], b.shape[0]) > 1)
    passes.clear()
    records = Evaluator(benchmark, seed=2).evaluate_index_range(0, 288)
    assert len(refused) == 1 and passes == []   # the pass raised, then no stacking
    assert [_bits(record) for record in records] == [_bits(record) for record in expected]


def test_a_pass_raises_only_where_point_by_point_evaluation_raises(monkeypatch):
    benchmark = MatMulBenchmark(rows=4, inner=4, cols=4)
    multiplier = Evaluator(benchmark, seed=2).catalog.multipliers[3].name
    _raising_unit(monkeypatch, multiplier, lambda a, b: True)

    one_by_one = Evaluator(benchmark, seed=2)
    points = list(one_by_one.design_space.iter_range(0, 288))
    with pytest.raises(OperatorError) as by_point:
        one_by_one.evaluate_many(points)
    stacked = Evaluator(benchmark, seed=2)
    with pytest.raises(OperatorError) as by_range:
        stacked.evaluate_index_range(0, 288)
    assert str(by_range.value) == str(by_point.value)
    assert list(stacked.store.keys()) == list(one_by_one.store.keys())
    assert [stacked.store.get(key) for key in stacked.store.keys()] == \
        [one_by_one.store.get(key) for key in one_by_one.store.keys()]


class LateKeyDotProduct(DotProductBenchmark):
    """Names a routing key only when some operation can be approximated."""

    def run(self, context, inputs):
        total = super().run(context, inputs)
        if context.is_precise:
            return total
        return context.add(total, total, variables=("u", "acc"))


def test_a_pass_that_surfaces_a_new_key_falls_back(passes):
    benchmark = LateKeyDotProduct(length=8)
    evaluator = Evaluator(benchmark, seed=0)
    size = evaluator.design_space.size
    records = evaluator.evaluate_index_range(0, size)
    assert len(passes) == 1
    context, _ = passes[0]
    assert (OperatorKind.ADDER, ("u", "acc")) in context.route_keys()
    reference = Evaluator(benchmark, seed=0).evaluate_many(
        evaluator.design_space.iter_range(0, size))
    assert [_bits(record) for record in records] == [_bits(record) for record in reference]


def test_a_stacked_context_needs_two_rows_and_a_leading_row_axis():
    evaluator = Evaluator(DotProductBenchmark(length=4), seed=0)
    space = evaluator.design_space
    row = evaluator._row_for(space.most_aggressive_point())
    exact = (evaluator._exact_adder, evaluator._exact_multiplier)
    with pytest.raises(InstrumentationError, match="at least two rows"):
        StackedContext(*exact, [row])
    stacked = StackedContext(*exact, [row, evaluator._row_for(space.initial_point())])
    with pytest.raises(InstrumentationError, match="row axis first"):
        stacked.mul(np.array(3), np.array(4), variables=("u", "v"))
    with pytest.raises(InstrumentationError, match="row axis first"):
        stacked.add(np.arange(3), np.arange(3), variables=("acc",))
