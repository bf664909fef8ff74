"""2-D convolution benchmark (image blurring / feature extraction).

One of the additional kernels the paper's introduction motivates AxC with
(image processing pipelines tolerate output error).  The kernel slides an
integer filter over a greyscale image with an explicit multiply-accumulate
inner loop, all routed through the approximation context.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.benchmarks.workloads import random_image
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["Convolution2DBenchmark"]

_DEFAULT_KERNEL = np.array(
    [
        [1, 2, 1],
        [2, 4, 2],
        [1, 2, 1],
    ],
    dtype=np.int64,
)


class Convolution2DBenchmark(Benchmark):
    """Valid-mode 2-D convolution of an 8-bit image with an integer kernel.

    Variables available for approximation:

    * ``"image"`` — the input image,
    * ``"kernel"`` — the convolution weights,
    * ``"acc"`` — the per-pixel accumulator.
    """

    variables = ("image", "kernel", "acc")
    add_width = 16
    mul_width = 8
    row_axis = True

    def __init__(self, height: int = 32, width: int = 32,
                 kernel: np.ndarray = None) -> None:
        if height <= 2 or width <= 2:
            raise BenchmarkError(f"image must be at least 3x3, got {height}x{width}")
        self.height = int(height)
        self.width = int(width)
        self.kernel = _DEFAULT_KERNEL.copy() if kernel is None else np.asarray(kernel, dtype=np.int64)
        if self.kernel.ndim != 2 or self.kernel.shape[0] != self.kernel.shape[1]:
            raise BenchmarkError(f"kernel must be square, got shape {self.kernel.shape}")
        if self.kernel.shape[0] > min(self.height, self.width):
            raise BenchmarkError("kernel is larger than the image")
        self.name = f"conv2d_{self.height}x{self.width}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {
            "image": random_image(rng, self.height, self.width),
            "kernel": self.kernel.copy(),
        }

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        image = np.asarray(inputs["image"])
        kernel = np.asarray(inputs["kernel"])
        if image.shape != (self.height, self.width):
            raise BenchmarkError(
                f"{self.name}: image shape {image.shape} does not match "
                f"({self.height}, {self.width})"
            )
        kernel_size = kernel.shape[0]
        out_height = self.height - kernel_size + 1
        out_width = self.width - kernel_size + 1

        image = image[None]
        accumulator = np.zeros((1, out_height, out_width), dtype=np.int64)
        for row_offset in range(kernel_size):
            for col_offset in range(kernel_size):
                patch = image[..., row_offset:row_offset + out_height,
                              col_offset:col_offset + out_width]
                products = context.mul(patch, kernel[row_offset, col_offset],
                                       variables=("image", "kernel"))
                accumulator = context.add(accumulator, products, variables=("acc",))
        return accumulator
