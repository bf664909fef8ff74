"""Compiled operator kernels — analytic models vs the compiled fast path.

Three measurements, each asserting bit-identity before speed:

1. **Per-operator kernels** — every approximate unit of the paper's catalog
   (Tables I & II) applied to large operand arrays: the analytic
   multi-pass model against the compiled kernel, a single gather for the
   8-bit units and a closed form for the 16-bit adders and 32-bit
   multipliers.  The 8-bit rows draw operands from the native range; the
   wide rows from ``[-2**20, 2**20)``, which takes the 16-bit adders
   through dynamic-range scaling and keeps the 32-bit multipliers inside
   their 30-bit budget, so those rows time the kernel rather than the
   analytic fallback above it.  The outputs must match bit for bit.
2. **End-to-end evaluation** — the ``matmul_50x50`` configuration evaluated
   across a spread of design points with ``Evaluator(compiled=False)`` (the
   historical path) and ``Evaluator(compiled=True)`` (the default): per
   evaluation wall-clock, overall and on log/DRUM-heavy points.  Records,
   profiles and store fingerprints must be identical — the compiled path
   may only change wall-clock, never an exploration trace.
3. **Context pass** — every registered benchmark's whole context evaluated
   cold on fresh evaluators, once class by class (``evaluate_many``: one
   kernel run per behaviour class) and once as one stacked pass
   (``evaluate_index_range``: the classes run as the rows of one kernel
   run).  The records must be equal, in smoke runs too.

``--smoke`` shrinks the problem sizes and drops the wall-clock assertions
so CI verifies the compiled path is active and bit-identical in seconds.
Full-scale runs write a machine-readable summary to
``BENCH_operator_kernels.json`` at the repository root (also attached to
``benchmark.extra_info``), headed by the host (CPU model and count, Python
and NumPy versions) and the git SHA; smoke runs write to a temp file
instead so they never clobber the checked-in record.

Full-scale targets (asserted without ``--smoke``): >=5x per evaluation on
``matmul_50x50``, >=8x on log/DRUM-heavy points, >=10x on the log/DRUM
operator kernels themselves, and :data:`CONTEXT_PASS_FLOOR` on the context
pass summed over the registered benchmarks.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.benchmarks import MatMulBenchmark, available, create
from repro.dse.design_space import DesignPoint
from repro.dse.evaluator import Evaluator
from repro.operators import compile_operator, default_catalog, is_compilable
from repro.operators.compiled import MAX_COMPILED_WIDTH
from repro.runtime import EvaluationStore

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_operator_kernels.json"

#: Catalog multipliers whose analytic models are the heaviest (Mitchell log
#: and aggressive DRUM truncation) — the >=10x kernel targets.
_HEAVY_MULTIPLIERS = ("mul8_L93", "mul8_18UH", "mul8_17MJ")

#: Operand magnitude bits of the rows of units wider than the tables.
_WIDE_OPERAND_BITS = 20

#: Floors on the full-scale speedups; the checked-in record carries them
#: so its CI sync check asserts against the same numbers.
END_TO_END_FLOOR = 5.0
HEAVY_FLOOR = 8.0
#: Set from the first full-scale context-pass run, 2.45x summed on the
#: 2-vCPU host the record names; the pass saves kernel calls, while the
#: per-point store and cache work both sides share stays.
CONTEXT_PASS_FLOOR = 2.0

_ROOT = Path(__file__).resolve().parent.parent


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_ROOT,
                           capture_output=True, text=True)
    return found.stdout.strip() if found.returncode == 0 else None


def _header(smoke):
    """The host and revision every ratio of the record depends on."""
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "smoke": smoke,
    }


def _time_callable(function, repeats):
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None or elapsed < best else best
    return best


def _operator_kernel_rows(array_size, repeats):
    """Time analytic vs compiled apply for every compilable catalog unit."""
    catalog = default_catalog()
    rng = np.random.default_rng(2023)
    rows = []
    for entry in list(catalog.adders) + list(catalog.multipliers):
        analytic = catalog.instance(entry.name)
        if not is_compilable(analytic):
            continue
        compiled = compile_operator(analytic)
        bits = entry.width - 1 if entry.width <= MAX_COMPILED_WIDTH else _WIDE_OPERAND_BITS
        bound = 1 << bits
        a = rng.integers(-bound, bound, size=array_size)
        b = rng.integers(-bound, bound, size=array_size)

        np.testing.assert_array_equal(analytic.apply(a, b), compiled.apply(a, b))
        analytic_s = _time_callable(lambda: analytic.apply(a, b), repeats)
        compiled_s = _time_callable(lambda: compiled.apply(a, b), repeats)
        rows.append({
            "name": entry.name,
            "kind": entry.kind.value,
            "width": entry.width,
            "operand_bits": bits,
            "analytic_us": round(analytic_s * 1e6, 2),
            "compiled_us": round(compiled_s * 1e6, 2),
            "speedup": round(analytic_s / compiled_s, 2),
        })
    return rows


def _evaluation_points(space):
    """A spread of design points: every multiplier, both adder pressure levels,
    with and without the accumulator approximated."""
    points = []
    for multiplier in range(1, space.num_multipliers + 1):
        for adder in (2, min(4, space.num_adders)):
            for accumulate in (True, False):
                variables = [True] * space.num_variables
                if space.num_variables:
                    variables[-1] = accumulate
                points.append(DesignPoint(adder, multiplier, tuple(variables)))
    return points


def _heavy_points(evaluator):
    """Log/DRUM multiplier points with the adds on the exact unit."""
    catalog = evaluator.catalog
    points = []
    for name in _HEAVY_MULTIPLIERS:
        if name not in catalog:
            continue
        index = catalog.multiplier_index(name)
        variables = [True] * evaluator.design_space.num_variables
        if variables:
            variables[-1] = False  # accumulator stays on the exact adder
        points.append(DesignPoint(1, index, tuple(variables)))
    return points


def _time_evaluations(evaluator, points, repeats):
    def run():
        evaluator.use_store(EvaluationStore())
        for point in points:
            evaluator.evaluate(point)
    return _time_callable(run, repeats)


def _context_pass_rows(repeats):
    """Class-by-class vs one stacked pass over every registered benchmark's context."""
    rows = []
    for name in available():
        kernel = create(name)
        # Untimed first pass: builds the process-wide unit tables.
        warm = Evaluator(kernel)
        warm.evaluate_index_range(0, warm.design_space.size)
        per_class_s = pass_s = None
        for _ in range(repeats):
            per_class = Evaluator(kernel)
            stacked = Evaluator(kernel)
            size = per_class.design_space.size
            points = list(per_class.design_space.iter_range(0, size))
            started = time.perf_counter()
            expected = per_class.evaluate_many(points)
            middle = time.perf_counter()
            actual = stacked.evaluate_index_range(0, size)
            stopped = time.perf_counter()
            assert actual == expected, name
            assert list(stacked.store.keys()) == list(per_class.store.keys()), name
            per_class_s = min(middle - started, per_class_s or float("inf"))
            pass_s = min(stopped - middle, pass_s or float("inf"))
        rows.append({
            "benchmark": kernel.name,
            "points": size,
            "per_class_ms": round(per_class_s * 1e3, 3),
            "pass_ms": round(pass_s * 1e3, 3),
            "speedup": round(per_class_s / pass_s, 2),
        })
    return rows


def test_operator_kernel_speedup(benchmark, smoke):
    array_size = 4_096 if smoke else 262_144
    kernel_repeats = 3 if smoke else 7
    eval_repeats = 1 if smoke else 3
    context_repeats = 1 if smoke else 5
    if smoke:
        kernel = MatMulBenchmark(rows=8, inner=8, cols=8)
        label = "matmul_8x8"
    else:
        kernel = MatMulBenchmark(rows=50, inner=50, cols=50)
        label = "matmul_50x50"

    def run_all():
        operator_rows = _operator_kernel_rows(array_size, kernel_repeats)

        # Behaviour-class sharing would replay every timed evaluation after
        # the identity pass below, timing a cache hit instead of the kernel.
        analytic = Evaluator(kernel, compiled=False, share_equivalent=False)
        compiled = Evaluator(kernel, compiled=True, share_equivalent=False)
        assert compiled.compiled and not analytic.compiled
        # Identical store fingerprints: compiled evaluations are addressed by
        # the same keys, so exploration traces and store contents match.
        assert analytic.store_context == compiled.store_context

        points = _evaluation_points(analytic.design_space)
        for point in points:
            expected = analytic.evaluate(point)
            actual = compiled.evaluate(point)
            assert expected.deltas == actual.deltas, point
            assert expected.approx_cost == actual.approx_cost, point
            np.testing.assert_array_equal(
                kernel.execute(analytic.context_for(point), analytic.inputs).outputs,
                kernel.execute(compiled.context_for(point), compiled.inputs).outputs)

        heavy = _heavy_points(analytic)
        analytic_s = _time_evaluations(analytic, points, eval_repeats)
        compiled_s = _time_evaluations(compiled, points, eval_repeats)
        analytic_heavy_s = _time_evaluations(analytic, heavy, eval_repeats + 1)
        compiled_heavy_s = _time_evaluations(compiled, heavy, eval_repeats + 1)
        return {
            "operators": operator_rows,
            "context_pass": _context_pass_rows(context_repeats),
            "points": len(points),
            "heavy_points": len(heavy),
            "analytic_s": analytic_s,
            "compiled_s": compiled_s,
            "analytic_heavy_s": analytic_heavy_s,
            "compiled_heavy_s": compiled_heavy_s,
        }

    measured = benchmark.pedantic(run_all, iterations=1, rounds=1)
    operator_rows = measured["operators"]
    num_points = measured["points"]
    speedup = measured["analytic_s"] / measured["compiled_s"]
    heavy_speedup = measured["analytic_heavy_s"] / measured["compiled_heavy_s"]
    heavy_kernels = [row for row in operator_rows if row["name"] in _HEAVY_MULTIPLIERS]
    context_rows = measured["context_pass"]
    context_speedup = (sum(row["per_class_ms"] for row in context_rows)
                       / sum(row["pass_ms"] for row in context_rows))

    report = {
        "benchmark": "bench_operator_kernels",
        **_header(smoke),
        "array_size": array_size,
        "operators": operator_rows,
        "end_to_end": {
            "benchmark": label,
            "points": num_points,
            "analytic_ms_per_eval": round(measured["analytic_s"] / num_points * 1e3, 3),
            "compiled_ms_per_eval": round(measured["compiled_s"] / num_points * 1e3, 3),
            "speedup": round(speedup, 2),
            "floor": END_TO_END_FLOOR,
            "heavy": {
                "points": measured["heavy_points"],
                "multipliers": list(_HEAVY_MULTIPLIERS),
                "analytic_ms_per_eval": round(
                    measured["analytic_heavy_s"] / measured["heavy_points"] * 1e3, 3),
                "compiled_ms_per_eval": round(
                    measured["compiled_heavy_s"] / measured["heavy_points"] * 1e3, 3),
                "speedup": round(heavy_speedup, 2),
                "floor": HEAVY_FLOOR,
            },
        },
        "context_pass": {
            "rows": context_rows,
            "per_class_ms": round(sum(row["per_class_ms"] for row in context_rows), 3),
            "pass_ms": round(sum(row["pass_ms"] for row in context_rows), 3),
            "speedup": round(context_speedup, 2),
            "floor": CONTEXT_PASS_FLOOR,
            "records_equal": True,
        },
        "bit_identical": True,
        "store_fingerprints_match": True,
    }
    # Only full-scale runs refresh the checked-in perf-trajectory file;
    # smoke numbers land in a temp file so a CI/local smoke run cannot
    # clobber the tracked record.
    json_path = _JSON_PATH if not smoke else \
        Path(tempfile.gettempdir()) / "BENCH_operator_kernels.smoke.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")

    benchmark.extra_info.update({
        "smoke": smoke,
        "end_to_end_speedup": round(speedup, 2),
        "heavy_speedup": round(heavy_speedup, 2),
        "context_pass_speedup": round(context_speedup, 2),
        "operator_speedups": {row["name"]: row["speedup"] for row in operator_rows},
        "json_path": str(json_path),
    })

    print(f"\nOperator kernels ({array_size} operands, best of {kernel_repeats})")
    for row in operator_rows:
        print(f"  {row['name']:<10} {row['analytic_us']:9.1f} us -> "
              f"{row['compiled_us']:8.1f} us   ({row['speedup']:.1f}x)")
    print(f"End-to-end {label} ({num_points} design points)")
    print(f"  analytic  {measured['analytic_s'] / num_points * 1e3:8.2f} ms/eval")
    print(f"  compiled  {measured['compiled_s'] / num_points * 1e3:8.2f} ms/eval   "
          f"({speedup:.2f}x)")
    print(f"  log/DRUM-heavy points: {heavy_speedup:.2f}x")
    print("Context pass (whole context, cold: class by class -> one stacked pass)")
    for row in context_rows:
        print(f"  {row['benchmark']:<15} {row['points']:4d} points "
              f"{row['per_class_ms']:8.2f} ms -> {row['pass_ms']:7.2f} ms   "
              f"({row['speedup']:.2f}x)")
    print(f"  summed: {context_speedup:.2f}x")

    if not smoke:
        assert speedup >= END_TO_END_FLOOR, \
            f"matmul_50x50 per-evaluation speedup {speedup:.2f}x < {END_TO_END_FLOOR}x"
        assert heavy_speedup >= HEAVY_FLOOR, \
            f"log/DRUM-heavy speedup {heavy_speedup:.2f}x < {HEAVY_FLOOR}x"
        assert context_speedup >= CONTEXT_PASS_FLOOR, \
            f"context pass speedup {context_speedup:.2f}x < {CONTEXT_PASS_FLOOR}x"
        for row in heavy_kernels:
            assert row["speedup"] >= 10.0, \
                f"{row['name']} kernel speedup {row['speedup']:.1f}x < 10x"
