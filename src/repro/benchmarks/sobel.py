"""Sobel edge-detection benchmark.

A staple of the approximate-computing literature: the output is a visual
gradient-magnitude map, so moderate arithmetic error is acceptable.  Both
directional gradients are computed with instrumented multiply-accumulate
loops; the magnitude is approximated as ``|Gx| + |Gy|`` (the usual
integer-friendly form) using instrumented additions.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import random_image
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["SobelBenchmark"]

_SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
_SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int64)


class SobelBenchmark(Benchmark):
    """Sobel gradient magnitude over an 8-bit greyscale image.

    Variables available for approximation:

    * ``"image"`` — the input image,
    * ``"gx"`` — the horizontal-gradient accumulator,
    * ``"gy"`` — the vertical-gradient accumulator,
    * ``"mag"`` — the gradient-magnitude accumulator.
    """

    variables = ("image", "gx", "gy", "mag")
    add_width = 16
    mul_width = 8
    row_axis = True

    def __init__(self, height: int = 32, width: int = 32) -> None:
        if height <= 2 or width <= 2:
            raise BenchmarkError(f"image must be at least 3x3, got {height}x{width}")
        self.height = int(height)
        self.width = int(width)
        self.name = f"sobel_{self.height}x{self.width}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"image": random_image(rng, self.height, self.width)}

    def _gradient(self, context: ApproxContext, image: np.ndarray, kernel: np.ndarray,
                  accumulator_variable: str) -> np.ndarray:
        out_height = self.height - 2
        out_width = self.width - 2
        accumulator = np.zeros((1, out_height, out_width), dtype=np.int64)
        for row_offset in range(3):
            for col_offset in range(3):
                weight = int(kernel[row_offset, col_offset])
                if weight == 0:
                    continue
                patch = image[..., row_offset:row_offset + out_height,
                              col_offset:col_offset + out_width]
                products = context.mul(patch, weight, variables=("image",))
                accumulator = context.add(accumulator, products,
                                          variables=(accumulator_variable,))
        return accumulator

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        image = np.asarray(inputs["image"])
        if image.shape != (self.height, self.width):
            raise BenchmarkError(
                f"{self.name}: image shape {image.shape} does not match "
                f"({self.height}, {self.width})"
            )
        image = image[None]
        gradient_x = self._gradient(context, image, _SOBEL_X, "gx")
        gradient_y = self._gradient(context, image, _SOBEL_Y, "gy")
        return context.add(np.abs(gradient_x), np.abs(gradient_y), variables=("mag",))
