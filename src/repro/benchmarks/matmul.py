"""Matrix multiplication benchmark (the paper's first application).

``C = A x B`` computed with an explicit accumulator, so every product and
every accumulation goes through the approximation context.  The paper runs
two configurations: 10x10 and 50x50 square matrices.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import random_matrix
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["MatMulBenchmark"]


class MatMulBenchmark(Benchmark):
    """Dense integer matrix multiplication with an instrumented accumulator.

    Variables available for approximation mirror the source program:

    * ``"a"`` — the left input matrix,
    * ``"b"`` — the right input matrix,
    * ``"acc"`` — the accumulator the dot products are summed into.

    Multiplications touch ``a`` and ``b``; accumulations touch ``acc``.
    """

    variables = ("a", "b", "acc")
    add_width = 8
    mul_width = 8
    row_axis = True

    def __init__(self, rows: int = 10, inner: int = 10, cols: int = 10,
                 value_bits: int = 7) -> None:
        if rows <= 0 or inner <= 0 or cols <= 0:
            raise BenchmarkError(
                f"matrix dimensions must be positive, got {rows}x{inner}x{cols}"
            )
        if not 1 <= value_bits <= 8:
            raise BenchmarkError(f"value_bits must be in [1, 8], got {value_bits}")
        self.rows = int(rows)
        self.inner = int(inner)
        self.cols = int(cols)
        self.value_bits = int(value_bits)
        self.name = f"matmul_{self.rows}x{self.cols}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "a": random_matrix(rng, self.rows, self.inner, value_bits=self.value_bits),
            "b": random_matrix(rng, self.inner, self.cols, value_bits=self.value_bits),
        }

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        a = np.asarray(inputs["a"])
        b = np.asarray(inputs["b"])
        if a.shape != (self.rows, self.inner) or b.shape != (self.inner, self.cols):
            raise BenchmarkError(
                f"{self.name}: input shapes {a.shape} x {b.shape} do not match "
                f"({self.rows}, {self.inner}) x ({self.inner}, {self.cols})"
            )
        a = a[None]
        b = b[None]
        accumulator = np.zeros((1, self.rows, self.cols), dtype=np.int64)
        for k in range(self.inner):
            products = context.mul(a[..., :, k, None], b[..., None, k, :], variables=("a", "b"))
            accumulator = context.add(accumulator, products, variables=("acc",))
        return accumulator
