"""K-means assignment-step benchmark.

Machine-learning kernels are a second class of applications the AxC
literature motivates: clustering quality degrades gracefully with arithmetic
error.  The benchmark computes squared Euclidean distances from every point
to every centroid (instrumented multiply-accumulate) and outputs the
distance matrix, whose accuracy degradation directly measures the impact of
approximation on the assignment decisions.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import random_points
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["KMeansAssignBenchmark"]


class KMeansAssignBenchmark(Benchmark):
    """Point-to-centroid squared-distance computation.

    Variables available for approximation:

    * ``"points"`` — the data points,
    * ``"centroids"`` — the cluster centres,
    * ``"acc"`` — the per-pair distance accumulator.
    """

    variables = ("points", "centroids", "acc")
    add_width = 16
    mul_width = 32
    row_axis = True

    def __init__(self, num_points: int = 64, num_centroids: int = 4,
                 dimensions: int = 4, value_bits: int = 8) -> None:
        if num_points <= 0 or num_centroids <= 0 or dimensions <= 0:
            raise BenchmarkError(
                "num_points, num_centroids and dimensions must all be positive"
            )
        self.num_points = int(num_points)
        self.num_centroids = int(num_centroids)
        self.dimensions = int(dimensions)
        self.value_bits = int(value_bits)
        self.name = f"kmeans_{self.num_points}p{self.num_centroids}c"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "points": random_points(rng, self.num_points, self.dimensions,
                                    value_bits=self.value_bits),
            "centroids": random_points(rng, self.num_centroids, self.dimensions,
                                       value_bits=self.value_bits),
        }

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        points = np.asarray(inputs["points"])
        centroids = np.asarray(inputs["centroids"])
        if points.shape != (self.num_points, self.dimensions):
            raise BenchmarkError(f"{self.name}: bad points shape {points.shape}")
        if centroids.shape != (self.num_centroids, self.dimensions):
            raise BenchmarkError(f"{self.name}: bad centroids shape {centroids.shape}")

        points = points[None]
        centroids = centroids[None]
        distances = np.zeros((1, self.num_points, self.num_centroids), dtype=np.int64)
        for dimension in range(self.dimensions):
            differences = context.sub(points[..., :, dimension, None],
                                      centroids[..., None, :, dimension],
                                      variables=("points", "centroids"))
            squared = context.mul(differences, differences, variables=("points", "centroids"))
            distances = context.add(distances, squared, variables=("acc",))
        return distances
