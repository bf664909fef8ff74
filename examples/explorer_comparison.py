"""Compare the RL agent against classic DSE metaheuristics.

Run with::

    python examples/explorer_comparison.py [--benchmark matmul|fir|conv2d|...]

Runs Q-learning, SARSA, random search, simulated annealing, hill climbing, a
genetic algorithm and exhaustive search on the same benchmark workload and
prints a comparison of the best feasible configuration each finds — the
comparison that motivates RL-based DSE in the paper's related work.
"""

from __future__ import annotations

import argparse

from repro.agents import (
    ExhaustiveExplorer,
    GeneticExplorer,
    HillClimbingExplorer,
    QLearningAgent,
    RandomAgent,
    SarsaAgent,
    SimulatedAnnealingExplorer,
)
from repro.agents.schedules import LinearDecayEpsilon
from repro.analysis import render_comparison
from repro.benchmarks import available, create
from repro.dse import AxcDseEnv, Explorer


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="matmul", choices=sorted(available()))
    parser.add_argument("--steps", type=int, default=1500,
                        help="RL steps (baselines get a matching evaluation budget)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    benchmark = create(args.benchmark)
    environment = AxcDseEnv(benchmark, evaluation_seed=args.seed)
    print(f"Benchmark:  {benchmark.describe()}")
    print(f"Thresholds: {environment.thresholds}")

    results = []
    for agent_class in (QLearningAgent, SarsaAgent):
        agent = agent_class(
            num_actions=environment.action_space.n,
            epsilon=LinearDecayEpsilon(start=1.0, end=0.05, decay_steps=args.steps // 4),
            seed=args.seed,
        )
        results.append(Explorer(environment, agent, max_steps=args.steps).run(seed=args.seed))

    random_agent = RandomAgent(num_actions=environment.action_space.n, seed=args.seed)
    results.append(Explorer(environment, random_agent, max_steps=args.steps).run(seed=args.seed))

    evaluator = environment.evaluator
    thresholds = environment.thresholds
    budget = min(args.steps, 600)
    results.append(SimulatedAnnealingExplorer(evaluator, thresholds, max_evaluations=budget,
                                              seed=args.seed).run())
    results.append(HillClimbingExplorer(evaluator, thresholds, max_evaluations=budget,
                                        seed=args.seed).run())
    results.append(GeneticExplorer(evaluator, thresholds, seed=args.seed).run())
    results.append(ExhaustiveExplorer(evaluator, thresholds).run())

    print("\nExplorer comparison")
    print(render_comparison(results))

    # Show the Pareto-optimal configurations the RL exploration discovered.
    front = results[0].front(include_baseline=True)
    print(f"\nPareto front of the Q-learning exploration ({len(front)} points):")
    for record in sorted(front, key=lambda record: record.deltas.accuracy)[:10]:
        print(f"  {record.point}  {record.deltas}")


if __name__ == "__main__":
    main()
