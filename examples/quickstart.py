"""Quickstart: explore approximate versions of a small matrix multiplication.

Run with::

    python examples/quickstart.py

The script builds the paper's exploration pipeline end to end: the operator
catalog (Tables I-II), the instrumented benchmark, the Gym-style
environment, a Q-learning agent, and a short exploration whose Table-III
style summary is printed at the end.
"""

from __future__ import annotations

from repro import AxcDseEnv, Explorer, QLearningAgent
from repro.agents.schedules import LinearDecayEpsilon
from repro.analysis import render_table3
from repro.benchmarks import MatMulBenchmark


def main() -> None:
    # 1. The application to approximate: a 10x10 integer matrix multiplication.
    benchmark = MatMulBenchmark(rows=10, inner=10, cols=10)

    # 2. The environment: builds the design space from the operator catalog
    #    (restricted to the benchmark's 8-bit datapath, as in the paper),
    #    runs the precise version once, and derives the thresholds
    #    (pth = tth = 50 % of the precise power/time, accth = 0.4 x mean output).
    environment = AxcDseEnv(benchmark, evaluation_seed=0)
    print(f"Design space: {environment.design_space}")
    print(f"Thresholds:   {environment.thresholds}")
    print(f"Precise run:  {environment.evaluator.precise_cost}")

    # 3. The agent: tabular Q-learning with a decaying exploration rate.
    agent = QLearningAgent(
        num_actions=environment.action_space.n,
        epsilon=LinearDecayEpsilon(start=1.0, end=0.05, decay_steps=500),
        seed=0,
    )

    # 4. Explore for up to 2,000 steps (the paper uses up to 10,000).
    result = Explorer(environment, agent, max_steps=2000).run(seed=0)

    # 5. Report the exploration the way Table III does.
    print(f"\nExploration finished after {result.num_steps} steps "
          f"(feasible steps: {100 * result.feasible_fraction():.1f} %)")
    print(render_table3({benchmark.name: result}, environment.evaluator.catalog))

    best = result.best_feasible()
    if best is not None:
        print(f"\nBest feasible configuration seen: {best.point}")
        print(f"  {best.deltas}")


if __name__ == "__main__":
    main()
