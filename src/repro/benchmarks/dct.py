"""8x8 block DCT-II benchmark (the JPEG front-end kernel).

The two-dimensional DCT is computed as ``T @ X @ T'`` with an integer
fixed-point coefficient matrix ``T``, using explicit instrumented
multiply-accumulate loops.  DCT is a classic approximate-computing target:
its outputs feed a lossy quantiser, so small arithmetic errors are tolerable.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["DctBenchmark"]


def _dct_matrix(block_size: int, scale_bits: int) -> np.ndarray:
    """Fixed-point DCT-II coefficient matrix, quantised to ``scale_bits`` bits."""
    rows = np.arange(block_size)[:, None]
    cols = np.arange(block_size)[None, :]
    matrix = np.cos((2 * cols + 1) * rows * np.pi / (2 * block_size))
    matrix[0, :] = matrix[0, :] / np.sqrt(2)
    matrix = matrix * np.sqrt(2.0 / block_size)
    return np.round(matrix * (1 << scale_bits)).astype(np.int64)


class DctBenchmark(Benchmark):
    """Blocked 2-D DCT-II over an integer image tile.

    Variables available for approximation:

    * ``"block"`` — the input pixel block,
    * ``"coeff"`` — the DCT coefficient matrix,
    * ``"acc"`` — the accumulator of both matrix products.
    """

    variables = ("block", "coeff", "acc")
    add_width = 16
    mul_width = 32
    row_axis = True

    def __init__(self, block_size: int = 8, num_blocks: int = 4, scale_bits: int = 7) -> None:
        if block_size < 2:
            raise BenchmarkError(f"block_size must be at least 2, got {block_size}")
        if num_blocks <= 0:
            raise BenchmarkError(f"num_blocks must be positive, got {num_blocks}")
        if not 1 <= scale_bits <= 12:
            raise BenchmarkError(f"scale_bits must be in [1, 12], got {scale_bits}")
        self.block_size = int(block_size)
        self.num_blocks = int(num_blocks)
        self.scale_bits = int(scale_bits)
        self.name = f"dct_{self.block_size}x{self.block_size}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        blocks = rng.integers(
            -128, 128, size=(self.num_blocks, self.block_size, self.block_size), dtype=np.int64
        )
        return {"block": blocks, "coeff": _dct_matrix(self.block_size, self.scale_bits)}

    def _instrumented_matmul(self, context: ApproxContext, left: np.ndarray,
                             right: np.ndarray, left_var: str, right_var: str) -> np.ndarray:
        """``left @ right`` over the last two axes of (row, block, n, n) operands."""
        accumulator = np.zeros((1, 1, left.shape[-2], right.shape[-1]), dtype=np.int64)
        for k in range(left.shape[-1]):
            products = context.mul(left[..., :, k, None], right[..., None, k, :],
                                   variables=(left_var, right_var))
            accumulator = context.add(accumulator, products, variables=("acc",))
        return accumulator

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        blocks = np.asarray(inputs["block"])
        coeff = np.asarray(inputs["coeff"])
        if blocks.shape != (self.num_blocks, self.block_size, self.block_size):
            raise BenchmarkError(
                f"{self.name}: block shape {blocks.shape} does not match "
                f"({self.num_blocks}, {self.block_size}, {self.block_size})"
            )
        # Every block runs at once on the block axis after the row axis;
        # each output element sees the same operation sequence as a
        # block-by-block loop would give it.
        coeff = coeff[None, None]
        partial = self._instrumented_matmul(context, coeff, blocks[None], "coeff", "block")
        full = self._instrumented_matmul(context, partial, np.swapaxes(coeff, -1, -2),
                                         "acc", "coeff")
        # Undo the fixed-point scaling of the two coefficient products.
        return full >> (2 * self.scale_bits)
