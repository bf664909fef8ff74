"""Bring your own application: define a custom benchmark and explore it.

Run with::

    python examples/custom_benchmark.py

The paper's methodology applies to any kernel whose arithmetic can be
instrumented.  This example defines a small image-brightening kernel
(scale every pixel by a gain, then add a bias) as a new
:class:`~repro.benchmarks.base.Benchmark`, registers it, and runs the same
Q-learning exploration the paper runs on MatMul and FIR.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro import AxcDseEnv, Explorer, QLearningAgent
from repro.agents.schedules import LinearDecayEpsilon
from repro.analysis import render_table3
from repro.benchmarks import Benchmark, register, workloads
from repro.instrumentation import ApproxContext


class BrightnessBenchmark(Benchmark):
    """Scale-and-offset image adjustment: ``out = gain * pixel + bias``.

    Variables available for approximation:

    * ``"pixel"`` — the input image pixels,
    * ``"gain"`` — the multiplicative gain (fixed-point),
    * ``"out"`` — the output accumulator the bias is added into.
    """

    variables = ("pixel", "gain", "out")
    add_width = 16
    mul_width = 8

    def __init__(self, height: int = 32, width: int = 32, gain: int = 3, bias: int = 10) -> None:
        self.height = int(height)
        self.width = int(width)
        self.gain = int(gain)
        self.bias = int(bias)
        self.name = f"brightness_{self.height}x{self.width}"

    def generate_inputs(self, rng: np.random.Generator) -> Dict[str, np.ndarray]:
        return {"image": workloads.random_image(rng, self.height, self.width)}

    def run(self, context: ApproxContext, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        image = np.asarray(inputs["image"])
        scaled = context.mul(image, self.gain, variables=("pixel", "gain"))
        brightened = context.add(scaled, self.bias, variables=("out",))
        return brightened.ravel()


def main() -> None:
    register("brightness", BrightnessBenchmark)

    benchmark = BrightnessBenchmark()
    environment = AxcDseEnv(benchmark, evaluation_seed=0)
    print(f"Benchmark:  {benchmark.describe()}")
    print(f"Thresholds: {environment.thresholds}")

    agent = QLearningAgent(
        num_actions=environment.action_space.n,
        epsilon=LinearDecayEpsilon(start=1.0, end=0.05, decay_steps=300),
        seed=0,
    )
    result = Explorer(environment, agent, max_steps=1200).run(seed=0)

    print(f"\nExploration finished after {result.num_steps} steps")
    print(render_table3({benchmark.name: result}, environment.evaluator.catalog))

    best = result.best_feasible()
    if best is not None:
        selected = [name for name, flag in zip(benchmark.variables, best.point.variables) if flag]
        print(f"\nBest feasible configuration approximates {selected} "
              f"with adder #{best.point.adder_index} and multiplier #{best.point.multiplier_index}")
        print(f"  {best.deltas}")


if __name__ == "__main__":
    main()
