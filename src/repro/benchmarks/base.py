"""Benchmark abstraction.

A benchmark is an application kernel whose arithmetic is routed through an
:class:`~repro.instrumentation.context.ApproxContext`.  It declares the set
of program variables the design-space explorer may select for approximation
and the bit-width class of its precise additions and multiplications (which
decides the exact reference units used for the power / time baseline).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import BenchmarkError
from repro.instrumentation.context import ApproxContext

__all__ = ["Benchmark", "BenchmarkRun"]


@dataclass(frozen=True)
class BenchmarkRun:
    """Outputs and inputs of one benchmark execution."""

    outputs: np.ndarray
    inputs: Mapping[str, np.ndarray]


class Benchmark(ABC):
    """Base class for approximable application kernels.

    Subclasses set :attr:`variables`, :attr:`add_width` and :attr:`mul_width`
    and implement :meth:`generate_inputs` and :meth:`run`.

    A kernel that sets :attr:`row_axis` can run many versions of itself in
    one pass on a :class:`~repro.instrumentation.context.StackedContext`
    (the evaluator runs a sweep chunk's behaviour classes that way).  Its
    contract: :meth:`run` puts the row axis first on every array it passes
    to the context (length 1 for arrays built from the inputs, such as
    ``inputs["a"][None]``; a Python or NumPy scalar broadcasts as it is),
    reduces and slices only the axes after it (``a[..., :, k]``,
    ``accumulate(values, axis=-1)``), and returns an array whose first axis
    is the row axis.  Under a plain :class:`ApproxContext` the row axis has
    length 1, so :meth:`execute` returns the same flat outputs either way.
    Kernels that leave :attr:`row_axis` off run one version per context.
    """

    #: Registry / display name of the benchmark.
    name: str = "benchmark"

    #: Program variables the explorer may select for approximation.
    variables: Tuple[str, ...] = ()

    #: Bit width of the precise adder the kernel uses.
    add_width: int = 8

    #: Bit width of the precise multiplier the kernel uses.
    mul_width: int = 8

    #: Whether :meth:`run` keeps the row-axis contract above, so that one
    #: pass on a stacked context can run several versions of the kernel.
    row_axis: bool = False

    @abstractmethod
    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        """Generate a reproducible workload for the benchmark."""

    @abstractmethod
    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Execute the kernel through ``context`` and return its flat outputs."""

    # ----------------------------------------------------------- conveniences

    def execute(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> BenchmarkRun:
        """Run the kernel and bundle the outputs with the inputs used.

        The outputs are flat, or one flat row per version on a stacked
        context (shape ``(context.num_rows, n)``).
        """
        self.validate_inputs(inputs)
        rows = context.num_rows
        if rows > 1 and not self.row_axis:
            raise BenchmarkError(
                f"{self.name}: the kernel does not keep the row-axis contract, "
                f"so it cannot run {rows} versions in one pass"
            )
        outputs = np.asarray(self.run(context, inputs))
        if rows == 1:
            outputs = outputs.ravel()
        else:
            outputs = np.broadcast_to(outputs, (rows,) + outputs.shape[1:]).reshape(rows, -1)
        return BenchmarkRun(outputs=outputs, inputs=dict(inputs))

    def validate_inputs(self, inputs: Mapping[str, np.ndarray]) -> None:
        """Check that a workload dictionary has the expected entries."""
        missing = [key for key in self.input_names() if key not in inputs]
        if missing:
            raise BenchmarkError(f"{self.name}: missing inputs {missing}")

    def input_names(self) -> Tuple[str, ...]:
        """Names of the entries :meth:`generate_inputs` produces.

        Derived (and cached) by generating a throwaway workload once; the
        cache keeps :meth:`execute` from regenerating inputs on every call.
        """
        names = getattr(self, "_input_names", None)
        if names is None:
            rng = np.random.default_rng(0)
            names = tuple(self.generate_inputs(rng).keys())
            self._input_names = names
        return names

    @property
    def num_variables(self) -> int:
        """Number of approximable program variables."""
        return len(self.variables)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.name}: variables={list(self.variables)}, "
            f"add_width={self.add_width}, mul_width={self.mul_width}"
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
