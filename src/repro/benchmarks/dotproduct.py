"""Dot-product benchmark (the smallest multiply-accumulate kernel).

Useful as a fast sanity-check workload for the explorer and as the
quickstart example: a single instrumented MAC chain over two integer
vectors.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import white_noise
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["DotProductBenchmark"]


class DotProductBenchmark(Benchmark):
    """Dot product of two integer vectors with an instrumented accumulator.

    Variables available for approximation:

    * ``"u"``, ``"v"`` — the two input vectors,
    * ``"acc"`` — the accumulator.
    """

    variables = ("u", "v", "acc")
    add_width = 16
    mul_width = 32
    row_axis = True

    def __init__(self, length: int = 64, amplitude: int = 127) -> None:
        if length <= 0:
            raise BenchmarkError(f"length must be positive, got {length}")
        self.length = int(length)
        self.amplitude = int(amplitude)
        self.name = f"dotproduct_{self.length}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "u": white_noise(rng, self.length, amplitude=self.amplitude),
            "v": white_noise(rng, self.length, amplitude=self.amplitude),
        }

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        u = np.asarray(inputs["u"])
        v = np.asarray(inputs["v"])
        if u.shape != (self.length,) or v.shape != (self.length,):
            raise BenchmarkError(
                f"{self.name}: input shapes {u.shape}/{v.shape} do not match ({self.length},)"
            )
        products = context.mul(u[None], v[None], variables=("u", "v"))
        return context.accumulate(products, axis=-1, variables=("acc",))
